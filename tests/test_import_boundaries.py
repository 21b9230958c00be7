"""The package needs numpy and the standard library alone, and the oracles stay off its routes.

Every import anywhere in ``src/causalprod/*.py`` must name a standard-library
module, numpy or the package itself: ``pyproject.toml`` declares numpy as the
one runtime dependency.  The slow oracles in ``tests/kernel_oracle.py`` and
``tests/product_oracle.py`` may take from ``causalprod`` only the value types
``ComplexParam`` and ``Interval``, so that no fast route they check is also
the route that checks it.
"""
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "causalprod"
ORACLES = ("kernel_oracle.py", "product_oracle.py")
VALUE_TYPES = {"ComplexParam", "Interval"}


def _imports(path: Path) -> list[tuple[str, list[str]]]:
    """(module, imported names) of every import in the file; module is "" when relative."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [(alias.name, []) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "" if node.level else node.module
            found.append((module, [alias.name for alias in node.names]))
    return found


def test_package_imports_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "causalprod", ""}
    foreign = {path.name: bad for path in sorted(SRC.glob("*.py"))
               if (bad := [m for m, _ in _imports(path) if m.split(".")[0] not in allowed])}
    assert not foreign, f"imports outside the standard library and numpy: {foreign}"


def test_oracles_take_only_value_types_from_the_package():
    leaks = {}
    for name in ORACLES:
        for module, names in _imports(ROOT / "tests" / name):
            if module.split(".")[0] == "causalprod" and not (names and set(names) <= VALUE_TYPES):
                leaks.setdefault(name, []).append((module, names))
    assert not leaks, f"oracles importing package code: {leaks}"
