"""Every module uses each name it imports (the package's `__init__` re-exports),
only the modules in FRACTION_MODULES import `fractions`, no function of
`src/rootposets` binds a local name that it never reads, and the package
reads every function and method it defines."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = [
    *(p for p in sorted((ROOT / "src" / "rootposets").glob("*.py")) if p.name != "__init__.py"),
    *sorted((ROOT / "tests").glob("*.py")),
]
SOURCES = sorted((ROOT / "src" / "rootposets").glob("*.py"))
# The modules that still compute with Fraction; the rest are integer-only.
FRACTION_MODULES = {"affine"}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that no expression or quoted annotation reads."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            note = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            for part in ast.walk(note) if note is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    quoted = ast.parse(part.value, mode="eval")
                    used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return sorted(imported - used)


def test_scan_finds_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == ["math", "path"]
    assert unused_imports("from typing import Sequence\ndef f(x: 'Sequence[int]'): pass\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def imports_fractions(source: str) -> bool:
    """Whether any import in `source`, at any depth, binds from `fractions`."""
    return any(
        isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "fractions"
        for node in ast.walk(ast.parse(source))
    )


def test_scan_finds_a_fractions_import():
    assert imports_fractions("def f():\n    from fractions import Fraction\n")
    assert imports_fractions("import fractions as fr\n")
    assert not imports_fractions("import math\nfrom typing import Sequence\n")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_fraction_only_where_allowed(path):
    assert imports_fractions(path.read_text()) == (path.stem in FRACTION_MODULES)


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(func: ast.AST):
    """The nodes of a function body outside its nested functions and classes."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def dead_locals(source: str) -> list[str]:
    """`function.name` for each plain name a function binds and nothing in it reads.

    A read anywhere in the function counts, in its nested functions too.  Names
    declared global or nonlocal, and names starting with `_`, are exempt.
    """
    out = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, FUNCTIONS):
            continue
        own = list(_own_nodes(func))
        shared = {
            name for node in own if isinstance(node, (ast.Global, ast.Nonlocal)) for name in node.names
        }
        bound = {
            node.id
            for node in own
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        }
        read = {
            node.id
            for node in ast.walk(func)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        owner = getattr(func, "name", "<lambda>")
        dead = sorted(bound - read - shared)
        out.extend(f"{owner}.{local}" for local in dead if not local.startswith("_"))
    return out


def test_scan_finds_a_dead_local():
    source = (
        "def f(n):\n"
        "    zero, one = 0, 1\n"
        "    for _ in range(n):\n"
        "        count = 0\n"
        "    def g():\n"
        "        nonlocal one\n"
        "        one = 2\n"
        "    g()\n"
        "    return one\n"
    )
    assert dead_locals(source) == ["f.count", "f.zero"]
    assert dead_locals("def f(x):\n    y = x\n    return lambda: y\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_dead_locals(path):
    assert dead_locals(path.read_text()) == []


# Read by no code of the package, kept because it validates input from outside it.
UNREAD_ALLOWED = {"ideals.ideal_from_roots"}


def unread_definitions(modules: dict[str, str]) -> list[str]:
    """`module.name` (or `module.Class.name`) for each top-level function and
    non-dunder method that no module reads by name, as a variable or attribute.

    `modules` maps a module name to its source; the package's `__init__`, whose
    re-exports are not reads, is left out by the caller.
    """
    defined = {}
    read = set()
    for module, source in modules.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, FUNCTIONS):
                defined[f"{module}.{node.name}"] = node.name
            elif isinstance(node, ast.ClassDef):
                defined.update(
                    (f"{module}.{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, FUNCTIONS)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(key for key, name in defined.items() if name not in read)


def test_scan_finds_an_unread_definition():
    modules = {
        "a": "def f():\n    return g()\ndef g():\n    pass\ndef h():\n    pass\n",
        "b": (
            "from .a import h\n"
            "class C:\n"
            "    def __eq__(self, other):\n        return self.used() is other\n"
            "    def used(self):\n        pass\n"
            "    def spare(self):\n        pass\n"
        ),
    }
    # an import alone is no read, and a definition does not read itself
    assert unread_definitions(modules) == ["a.f", "a.h", "b.C.spare"]
    modules["b"] += "h()\n"
    assert unread_definitions(modules) == ["a.f", "b.C.spare"]


def test_package_reads_every_definition():
    modules = {p.stem: p.read_text() for p in SOURCES if p.name != "__init__.py"}
    assert unread_definitions(modules) == sorted(UNREAD_ALLOWED)
