"""The package holds no code that only tests call.

An ``ast`` scan of ``src/splitvote``: a module-level function or class, or
a method whose name is not a dunder, counts as used when some ``Name``,
``Attribute`` or import in the package names it.  Code that nothing in the
package names is either an entry point for outside callers or a test
oracle, and oracles live in ``tests/``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "splitvote"

# run_election and RunReport.differences are what the benchmark calls;
# blind is the library use the README shows
OUTSIDE_ENTRY_POINTS = {"run_election", "RunReport.differences", "blind"}


def _unreferenced(trees) -> set[str]:
    defined: dict[str, str] = {}
    named: set[str] = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        defined[f"{node.name}.{item.name}"] = item.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                named.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return {qualified for qualified, name in defined.items() if name not in named}


def test_only_outside_entry_points_go_unreferenced():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")]
    assert _unreferenced(trees) == OUTSIDE_ENTRY_POINTS
