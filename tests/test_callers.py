"""Every top-level name of the library has a caller outside the tests.

Code that only the tests call belongs in tests/, so each top-level function,
class and assigned name of src/wptsim/ must be loaded (an ast.Name or
ast.Attribute in Load context) somewhere in src/wptsim/, demos/ or
perfbench/ other than inside its own definition. The package's re-exports
do not count: an import binds a name without loading it, and __all__ lists
strings. Names are matched by spelling, not resolved through imports, and
dunder names are skipped.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "wptsim").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def definitions(tree):
    """(name, node) for each top-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node


def loads(tree):
    """(name, node) for each Name or Attribute the tree loads."""
    for node in ast.walk(tree):
        if isinstance(getattr(node, "ctx", None), ast.Load):
            if isinstance(node, ast.Name):
                yield node.id, node
            elif isinstance(node, ast.Attribute):
                yield node.attr, node


def test_every_library_name_has_a_caller():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in CALLERS}
    loaded = {}
    for tree in trees.values():
        for name, node in loads(tree):
            loaded.setdefault(name, []).append(node)
    uncalled = []
    for path in LIBRARY:
        for name, definition in definitions(trees[path]):
            if name.startswith("__") and name.endswith("__"):
                continue
            inside = {id(node) for node in ast.walk(definition)}
            if all(id(node) in inside for node in loaded.get(name, ())):
                uncalled.append(f"{path.stem}.{name}")
    assert uncalled == []
