"""Every module-level private name and import in the package is read in the package.

A refactor that moves the last caller off a helper (``_name`` at module level:
a function, class or assigned constant) must delete the helper too.  A name
counts as used when it is read, as a bare name or as an attribute, anywhere in
``src/causalprod`` besides its own definition; tests do not count.  Likewise a
name imported at module level must be read as a bare name in its own module.
The package root binds no names: each is imported from the module that
defines it, as in ``from causalprod.kernel import limit_kernel``.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "causalprod"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(SRC.glob("*.py"))}


def _private_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _reads() -> set[str]:
    """Every name read as a bare name or an attribute in the package."""
    seen = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
    return seen


def test_module_level_private_names_are_used_in_the_package():
    reads = _reads()
    unused = {module: names for module, tree in TREES.items()
              if (names := [n for n in _private_definitions(tree) if n not in reads])}
    assert not unused, f"defined but never read in src/causalprod: {unused}"


def _unread_imports(tree: ast.Module) -> list[str]:
    bound = [(alias.asname or alias.name).split(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
             for alias in node.names]
    reads = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in reads]


def test_module_level_imports_are_read_in_their_module():
    unread = {module: names for module, tree in TREES.items()
              if (names := _unread_imports(tree))}
    assert not unread, f"imported but never read: {unread}"


def test_package_root_binds_no_names():
    tree = TREES["__init__.py"]
    assert ast.get_docstring(tree) and len(tree.body) == 1, "__init__.py holds more than its docstring"
