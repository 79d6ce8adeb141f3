"""Every module uses each name it imports (the package's `__init__` re-exports),
and only the modules in FRACTION_MODULES import `fractions`."""

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
FRACTION_MODULES = {"rootsystem", "affine", "ideals"}


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
