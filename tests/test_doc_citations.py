"""Every Markdown file a docstring under ``src/`` or ``benchmarks/``
names exists, every section such a docstring or README.md cites as
`` `X.md`, "Heading" `` is a heading of ``X.md``, and every repo path
named inside backticks — in README.md, PERFORMANCE.md, the verify skill
or a docstring under ``src/``, ``tools/`` or ``tests/`` — exists: a
citation that points nowhere sends the reader to a document nobody
wrote, or to a tool that is gone.  ROADMAP.md and CHANGES.md are
history and may name what was deleted; the frozen ``bench/`` is not
scanned."""

import ast
import pathlib
import re

import repro

REPO_ROOT = pathlib.Path(repro.__file__).resolve().parents[2]
CITED = re.compile(r"[\w./-]*\w\.md\b")
#: ``X.md``, then one or more quoted headings joined by commas, "and",
#: "or" or "to" (backticks around the file name are optional).
#: A backticked span (``code``, ``` ``code`` ``` or a fenced block) and,
#: inside one, a token naming something under a top-level directory.
SPAN = re.compile(r"(`+)(.+?)\1", re.S)
REPO_PATH = re.compile(r"(?:src|tools|tests|benchmarks|specs|examples|bench"
                       r"|\.github|\.claude)/[\w./-]*")
SECTIONS = re.compile(
    r"`?(?P<file>[\w./-]*\w\.md)`?,\s+(?P<headings>\"[^\"]+\"(?:\s*"
    r"(?:,|and|or|to)\s*\"[^\"]+\")*)")


def _docstrings(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            text = ast.get_docstring(node, clean=False)
            if text:
                yield text


def test_every_markdown_file_a_docstring_names_exists():
    cited = 0
    dangling = []
    for top in ("src", "benchmarks"):
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            for text in _docstrings(path):
                for name in CITED.findall(text):
                    cited += 1
                    if not ((REPO_ROOT / name).is_file()
                            or (path.parent / name).is_file()):
                        dangling.append(
                            f"{path.relative_to(REPO_ROOT)}: {name}")
    assert dangling == []
    assert cited > 0  # the scan sees the citations that do exist


def _headings(path):
    return [line.lstrip("#").strip().replace("`", "")
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.startswith("#")]


def _cited_sections():
    """``(where, file, heading)`` for every section citation."""
    texts = [("README.md", (REPO_ROOT / "README.md").read_text())]
    for top in ("src", "benchmarks"):
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            texts.extend((str(path.relative_to(REPO_ROOT)), text)
                         for text in _docstrings(path))
    for where, text in texts:
        for match in SECTIONS.finditer(text):
            for heading in re.findall(r'"([^"]+)"', match["headings"]):
                yield where, match["file"], " ".join(heading.split())


def test_every_cited_section_is_a_heading():
    cited = 0
    dangling = []
    for where, name, heading in _cited_sections():
        cited += 1
        target = REPO_ROOT / name
        found = target.is_file() and any(
            re.search(rf"(?<!\w){re.escape(heading)}(?!\w)", line)
            for line in _headings(target))
        if not found:
            dangling.append(f"{where}: {name}, \"{heading}\"")
    assert dangling == []
    assert cited > 0  # the scan sees the citations that do exist


def _ignored_directories():
    """Output directories ``.gitignore`` lists (``benchmarks/results/``):
    named by the docs, absent from a fresh checkout."""
    return tuple(line for line in
                 (REPO_ROOT / ".gitignore").read_text().splitlines()
                 if line.endswith("/") and "/" in line[:-1])


def test_every_backticked_repo_path_exists():
    texts = [(name, (REPO_ROOT / name).read_text(encoding="utf-8"))
             for name in ("README.md", "PERFORMANCE.md",
                          ".claude/skills/verify/SKILL.md")]
    for top in ("src", "tools", "tests"):
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            texts.extend((str(path.relative_to(REPO_ROOT)), text)
                         for text in _docstrings(path))
    ignored = _ignored_directories()
    cited = 0
    dangling = []
    for where, text in texts:
        for span in SPAN.finditer(text):
            for token in span[2].split():
                token = token.rstrip(".,;:)")
                if not REPO_PATH.fullmatch(token) \
                        or (token + "/").startswith(ignored):
                    continue
                cited += 1
                if not (REPO_ROOT / token).exists():
                    dangling.append(f"{where}: {token}")
    assert dangling == []
    assert cited > 0  # the scan sees the paths that do exist


SYNC = "KEEP IN SYNC"
TEST_PATH = re.compile(r"`(tests/[\w./-]+)`")


def _paragraph(lines, index):
    """The paragraph holding ``lines[index]``: the run of lines around
    it up to one that is blank once comment marks are stripped."""
    def blank(line):
        return not line.strip().strip("#*/ ")
    start = end = index
    while start > 0 and not blank(lines[start - 1]):
        start -= 1
    while end + 1 < len(lines) and not blank(lines[end + 1]):
        end += 1
    return "\n".join(lines[start:end + 1])


def test_every_keep_in_sync_names_its_test():
    """A copy kept in step with another by hand is one a later change
    forgets: each ``KEEP IN SYNC`` under ``src/`` cites, in backticks in
    its own paragraph, an existing test that fails when the copies
    part."""
    marked = 0
    unenforced = []
    for path in sorted((REPO_ROOT / "src").rglob("*")):
        if path.suffix not in (".py", ".c"):
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        for index, line in enumerate(lines):
            if SYNC not in line:
                continue
            marked += 1
            cited = TEST_PATH.findall(_paragraph(lines, index))
            if not cited or not all((REPO_ROOT / name).is_file()
                                    for name in cited):
                unenforced.append(
                    f"{path.relative_to(REPO_ROOT)}:{index + 1}")
    assert unenforced == []
    assert marked > 0  # the scan sees the markers that do exist
