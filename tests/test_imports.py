"""Every name a module imports is used in that module.

Walks the syntax tree of each package module, script and test module and
fails on an imported name that is never read.  ``__init__.py`` is skipped:
its imports are the public API.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    p
    for directory in (ROOT / "src" / "ivwsm", ROOT / "scripts", ROOT / "tests")
    for p in directory.glob("*.py")
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements and never read.

    A quoted annotation (a forward reference such as ``"_Context"``) counts
    as a read of the names it spells.
    """
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used.update(_quoted_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used.update(_quoted_names(node.returns))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def _quoted_names(annotation: ast.expr) -> set[str]:
    """Names spelled inside the string constants of an annotation."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            tree = ast.parse(node.value, mode="eval")
            names.update(n.id for n in ast.walk(tree) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_name():
    source = (
        "import os\n"
        "from typing import Optional, Sequence\n"
        "x: 'Optional[int]' = os.sep\n"
        "y = 'Sequence'\n"
    )
    assert unused_imports(source) == ["Sequence (line 2)"]
