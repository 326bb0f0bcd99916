"""Every name that a test module or a demo imports is used in it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that no expression in ``source`` reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for name, line in imported.items() if name not in used]


def test_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nimport sys\nprint(sys)\n"
    assert unused_imports(source) == [(2, "os")]


def test_tests_and_demos_use_every_import():
    files = sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("demos/*.py")])
    assert len(files) > 10
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in files for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert unused == []
