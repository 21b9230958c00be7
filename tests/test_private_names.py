"""Every module-level private name in the package is used somewhere in the package.

A refactor that moves the last caller off a helper (``_name`` at module level:
a function, class or assigned constant) must delete the helper too.  A name
counts as used when it is read, as a bare name or as an attribute, anywhere in
``src/causalprod`` besides its own definition; tests do not count.
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
