"""Every Markdown file a docstring under ``src/`` or ``benchmarks/``
names exists, and every section such a docstring or README.md cites as
`` `X.md`, "Heading" `` is a heading of ``X.md``: a citation that points
nowhere sends the reader to a document nobody wrote."""

import ast
import pathlib
import re

import repro

REPO_ROOT = pathlib.Path(repro.__file__).resolve().parents[2]
CITED = re.compile(r"[\w./-]*\w\.md\b")
#: ``X.md``, then one or more quoted headings joined by commas, "and",
#: "or" or "to" (backticks around the file name are optional).
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
