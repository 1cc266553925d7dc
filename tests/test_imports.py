"""Every name a module imports is used in that module, every private
module-level name of the package is used in the package, and every public
one is used by the package or its scripts unless it reproduces a notion of
the paper.

Walks the syntax tree of each package module, script and test module and
fails on an imported name that is never read.  ``__init__.py`` is skipped:
its imports are the public API.  A package-level function, class or
constant whose name starts with an underscore is not public API, so it
must be read somewhere in ``src/ivwsm`` outside its own definition.  A
public one that neither ``src/ivwsm`` nor ``scripts`` reads is only there
for tests and API users, so it must be listed in :data:`PAPER_API` with
the paper notion it reproduces; an entry that is read, or gone, is stale.
Every public method or property of a package class must be read as an
attribute by the package, its scripts, the tests or the benchmark harness,
and every defaulted parameter of a package function or method must be set
by some call there.  The package builds one ``np.errstate``, its
floating-point policy.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "ivwsm").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
#: Every module that may read a package method or set a parameter: the
#: package, its scripts, the tests and the benchmark harness.
READERS = sorted(
    p
    for directory in ("src/ivwsm", "scripts", "tests", "perfbench")
    for p in (ROOT / directory).glob("*.py")
)
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


def unread_names(sources: list[str], readers: list[str], checked) -> list[str]:
    """Module-level functions, classes and constants of the given module
    sources whose name passes ``checked`` and that neither those sources nor
    the reader sources read outside their own definition, in definition
    order."""
    trees = [ast.parse(source) for source in sources]
    checked_names = []  # (name, defining statement)
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            checked_names.extend((name, node) for name in names if checked(name))
    trees += [ast.parse(source) for source in readers]
    modules = [_module_names(tree) for tree in trees]
    unread = []
    for name, definition in checked_names:
        inside = {id(n) for n in ast.walk(definition)}
        if not any(
            id(node) not in inside and name in _names_read(node, names)
            for tree, names in zip(trees, modules)
            for node in ast.walk(tree)
        ):
            unread.append(name)
    return unread


def _module_names(tree: ast.AST) -> set[str]:
    """The names the tree's ``import m`` and ``import m as n`` statements
    bind, each a module.  A from-import may bind a module or a class, so
    its names are left out: an attribute of a class (``Tag.ZERO``) is not a
    read of the module-level name it spells."""
    return {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }


def _is_module(node: ast.expr, modules: set[str]) -> bool:
    """Whether an expression is a module: a name in ``modules``, or an
    attribute of one (``ivwsm.wsm``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id in modules


def unread_private_names(sources: list[str]) -> list[str]:
    """Underscore-named module-level names (not dunders) of the given module
    sources that no source reads outside their own definition."""
    # one leading underscore: private, not a dunder
    return unread_names(sources, [], lambda name: name[:1] == "_" != name[1:2])


def unread_public_names(sources: list[str], readers: list[str]) -> list[str]:
    """Public module-level names of the given module sources that neither
    they nor the reader sources read outside their own definition."""
    return unread_names(sources, readers, lambda name: name[:1] != "_")


def _names_read(node: ast.AST, modules: set[str]) -> set[str]:
    """The names one syntax node reads: a loaded name, an attribute of a
    module (a name in ``modules``, or an attribute of one), an imported
    name or the names of a quoted annotation."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr} if _is_module(node.value, modules) else set()
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


#: Public names that nothing in ``src/ivwsm`` or ``scripts`` reads, each with
#: the notion of the paper it reproduces (tests pin them).
PAPER_API = {
    "add": "interval addition",
    "scalar_mul": "scalar multiple of an interval",
    "minkowski_sub": "Minkowski difference, in the gH difference's defining property",
    "gh_difference": "generalized Hukuhara difference of intervals",
    "dominance": "the dominance order on I(R)",
    "ext_leq": "dominance on I(R) extended by the infinite elements",
    "interval_norm": "the norm of I(R)",
    "inf_family": "infimum of a family in I(R)",
    "vstar": "componentwise operations on I(R)^n",
    "cone_ball_support": "support of a cone in the alpha-ball (dual-b, Moreau)",
    "boundedness_check": "bounded gH-subdifferential at interior points",
}


def test_every_unread_public_name_is_paper_api():
    modules = [p.read_text() for p in PACKAGE if p.name != "__init__.py"]
    unread = unread_public_names(modules, [p.read_text() for p in SCRIPTS])
    assert sorted(unread) == sorted(PAPER_API)


def test_the_check_finds_an_unread_public_name():
    package = [
        "LIMIT = 3\n"
        "SPARE = 4\n"
        "def used(x):\n"
        "    return x < LIMIT\n"
        "def recursive(x):\n"
        "    return recursive(x - 1) if x else 0\n"
        "class Unused:\n"
        "    pass\n"
        "def _private():\n"
        "    pass\n",
        "def by_script():\n"
        "    pass\n",
        "ZERO = 0\n"
        "class Kind:\n"
        "    ZERO = 1\n"
        "def kind_zero():\n"
        "    return Kind.ZERO\n",
    ]
    script = (
        "import ivwsm.c\n"
        "from ivwsm.b import by_script\n"
        "print(by_script(), used, ivwsm.c.kind_zero())\n"
    )
    assert unread_public_names(package, [script]) == ["SPARE", "recursive", "Unused", "ZERO"]


def unread_methods(sources: list[str], readers: list[str]) -> list[str]:
    """Public methods and properties (``Class.name``) of the classes of the
    given module sources that neither they nor the reader sources read as an
    attribute outside their own definition, in definition order."""
    trees = [ast.parse(source) for source in sources]
    reads = {}  # attribute name -> the nodes reading it
    for tree in trees + [ast.parse(source) for source in readers]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append(node)
    unread = []
    for tree in trees:
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if method.name[:1] == "_":
                    continue
                inside = {id(n) for n in ast.walk(method)}
                if all(id(node) in inside for node in reads.get(method.name, [])):
                    unread.append(f"{cls.name}.{method.name}")
    return unread


def test_every_public_method_is_read():
    assert unread_methods([p.read_text() for p in PACKAGE], [p.read_text() for p in READERS]) == []


def test_the_check_finds_an_unread_method():
    package = [
        "class Box:\n"
        "    size = 3\n"
        "    def used(self):\n"
        "        return self.spare\n"
        "    @property\n"
        "    def spare(self):\n"
        "        return 4\n"
        "    @property\n"
        "    def width(self):\n"
        "        return 5\n"
        "    def recursive(self, x):\n"
        "        return self.recursive(x - 1) if x else 0\n"
        "    def by_test(self):\n"
        "        return self._private()\n"
        "    def _private(self):\n"
        "        return self.size\n"
        "    def __len__(self):\n"
        "        return 1\n",
    ]
    test = "from box import Box\nassert Box().used() and Box().by_test()\n"
    assert unread_methods(package, [test]) == ["Box.width", "Box.recursive"]


def unset_parameters(sources: list[str], callers: list[str]) -> list[str]:
    """Defaulted parameters (``function.parameter`` or
    ``Class.method.parameter``) of the functions and methods of the given
    module sources that no call in them or in the caller sources sets
    outside the function's own definition, in definition order.

    Calls match by name: ``f(...)`` and ``obj.f(...)`` both call every
    function or method named ``f``, and a call of a class name calls its
    ``__init__``.  A call sets a parameter by keyword, by position (after
    the ``self`` or ``cls`` of a method) or through a ``*`` or ``**`` splat.
    """
    trees = [ast.parse(source) for source in sources]
    calls = {}  # called name -> the call nodes
    for tree in trees + [ast.parse(source) for source in callers]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = []
    for tree in trees:
        methods = {}  # id of a method -> (its label, the name a call uses, bound)
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for method in cls.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    decorators = [getattr(d, "id", None) for d in method.decorator_list]
                    called_as = cls.name if method.name == "__init__" else method.name
                    label = f"{cls.name}.{method.name}"
                    methods[id(method)] = (label, called_as, "staticmethod" not in decorators)
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            label, called_as, bound = methods.get(
                id(function), (function.name, function.name, False)
            )
            args = function.args
            positional = (args.posonlyargs + args.args)[bound:]
            first_defaulted = len(positional) - len(args.defaults)
            defaulted = [(a, i) for i, a in enumerate(positional) if i >= first_defaulted]
            defaulted += [
                (a, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            inside = {id(n) for n in ast.walk(function)}
            outside = [c for c in calls.get(called_as, []) if id(c) not in inside]
            for arg, position in defaulted:
                if not any(_sets(call, arg.arg, position) for call in outside):
                    unset.append(f"{label}.{arg.arg}")
    return unset


def _sets(call: ast.Call, name: str, position) -> bool:
    """Whether the call passes the parameter ``name``, which sits at
    ``position`` among the positional parameters (None: keyword-only)."""
    if any(k.arg in (None, name) for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_defaulted_parameter_is_set():
    readers = [p.read_text() for p in READERS]
    assert unset_parameters([p.read_text() for p in PACKAGE], readers) == []


def test_the_check_finds_an_unset_parameter():
    package = [
        "def scale(x, factor=2.0, *, offset=0.0, clip=None):\n"
        "    return scale(x, factor, offset=1.0) if x else x\n"
        "def spread(a, b=1, c=2):\n"
        "    return a\n"
        "def spread_all(a, b=1, c=2):\n"
        "    return a\n"
        "class Box:\n"
        "    def __init__(self, size=1, tol=0.1):\n"
        "        self.size = size\n"
        "    def grow(self, by=1, limit=9):\n"
        "        return self.size + by\n"
        "    @staticmethod\n"
        "    def make(size=1):\n"
        "        return Box(size)\n"
        "    @staticmethod\n"
        "    def empty(size=0):\n"
        "        return None\n",
    ]
    caller = (
        "scale(1.0)\n"
        "spread(*[1, 2, 3])\n"
        "spread_all(1, **{'b': 2})\n"
        "Box(3).grow(2)\n"
        "Box.make(4)\n"
        "Box.empty()\n"
    )
    assert unset_parameters(package, [caller]) == [
        "scale.factor",
        "scale.offset",
        "scale.clip",
        "Box.__init__.tol",
        "Box.grow.limit",
        "Box.empty.size",
    ]


def errstate_calls(source: str) -> int:
    """How many calls of ``errstate`` the source makes, as ``np.errstate``
    or by the imported name."""
    return sum(
        isinstance(node, ast.Call)
        and "errstate" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
        for node in ast.walk(ast.parse(source))
    )


def test_the_floating_point_policy_has_one_home():
    assert sum(errstate_calls(p.read_text()) for p in PACKAGE) == 1


def test_the_check_counts_every_errstate():
    source = (
        "import numpy as np\n"
        "from numpy import errstate\n"
        "POLICY = np.errstate(all='ignore')\n"
        "def f(x):\n"
        "    with errstate(over='ignore'):\n"
        "        return np.float64(x).errstate\n"
    )
    assert errstate_calls(source) == 2
