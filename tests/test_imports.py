"""Every name a module imports is used in that module, and every private
module-level name of the package is used in the package.

Walks the syntax tree of each package module, script and test module and
fails on an imported name that is never read.  ``__init__.py`` is skipped:
its imports are the public API.  A package-level function, class or
constant whose name starts with an underscore is not public API, so it
must be read somewhere in ``src/ivwsm`` outside its own definition.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "ivwsm").glob("*.py"))
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


def unread_private_names(sources: list[str]) -> list[str]:
    """Underscore-named module-level functions, classes and constants (not
    dunders) of the given module sources that no source reads outside their
    own definition, in definition order."""
    trees = [ast.parse(source) for source in sources]
    private = []  # (name, defining statement)
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            # one leading underscore: private, not a dunder
            private.extend((name, node) for name in names if name[:1] == "_" != name[1:2])
    unread = []
    for name, definition in private:
        inside = {id(n) for n in ast.walk(definition)}
        if not any(
            id(node) not in inside and name in _names_read(node)
            for tree in trees
            for node in ast.walk(tree)
        ):
            unread.append(name)
    return unread


def _names_read(node: ast.AST) -> set[str]:
    """The names one syntax node reads: a loaded name, an attribute, an
    imported name or the names of a quoted annotation."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.ImportFrom):
        return {alias.name for alias in node.names}
    if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
        return _quoted_names(node.annotation)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
        return _quoted_names(node.returns)
    return set()


def test_no_unread_private_names():
    assert unread_private_names([p.read_text() for p in PACKAGE]) == []


def test_the_check_finds_an_unread_private_name():
    package = [
        "_LIMIT = 3\n"
        "_SPARE = 4\n"
        "def _used(x):\n"
        "    return x < _LIMIT\n"
        "def _recursive(x):\n"
        "    return _recursive(x - 1) if x else 0\n"
        "class _Unused:\n"
        "    pass\n"
        "def __getattr__(name):\n"
        "    raise AttributeError(name)\n",
        "from .a import _used\n"
        "def public(x: '_Annotated') -> bool:\n"
        "    return _used(x)\n"
        "class _Annotated:\n"
        "    pass\n",
    ]
    assert unread_private_names(package) == ["_SPARE", "_recursive", "_Unused"]
