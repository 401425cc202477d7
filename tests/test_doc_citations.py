"""Every Markdown file a docstring under ``src/`` or ``benchmarks/``
names exists: a citation that points nowhere sends the reader to a
document nobody wrote."""

import ast
import pathlib
import re

import repro

REPO_ROOT = pathlib.Path(repro.__file__).resolve().parents[2]
CITED = re.compile(r"[\w./-]*\w\.md\b")


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
