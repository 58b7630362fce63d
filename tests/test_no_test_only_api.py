"""The package holds no code that only tests call.

An ``ast`` scan of ``src/splitvote``: a module-level function or class, or
a method whose name is not a dunder, counts as used when some ``Name``,
``Attribute`` or import in the package names it.  Code that nothing in the
package names is either an entry point for outside callers or a test
oracle, and oracles live in ``tests/``.  Likewise a defaulted or
keyword-only parameter counts as used when some call in the package passes
it, by position or by keyword, to a callee of the definition's name.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "splitvote"

# run_election and RunReport.differences are what the benchmark calls;
# blind is the library use the README shows
OUTSIDE_ENTRY_POINTS = {"run_election", "RunReport.differences", "blind"}

OUTSIDE_PARAMETERS = {
    # the console script calls main() bare, so argparse reads sys.argv
    "main.argv",
    # _run draws its own generator, so only a caller can pin the rewrite
    "attack_targeted.replacement",
    "attack_any_valid.replacement",
    # pin e1 = 0, which the soundness counts include and no live round draws
    "confirm_batch.e1",
    "confirm_batch.e2",
}


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


def _unpassed(trees) -> set[str]:
    """Defaulted or keyword-only parameters that no call passes, matching
    calls to definitions by callee name (a class's name for ``__init__``)."""
    definitions = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                definitions.append((node.name, node.name, 0, node.args))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        callee = node.name if item.name == "__init__" else item.name
                        # the first parameter is self or cls
                        definitions.append((f"{node.name}.{item.name}", callee, 1, item.args))
    positional: dict[str, int] = {}
    keywords: dict[str, set[str]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                positional[name] = max(positional.get(name, 0), len(node.args))
                keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
    unpassed = set()
    for qualified, callee, bound, args in definitions:
        ordered = args.posonlyargs + args.args
        defaulted = ordered[len(ordered) - len(args.defaults):]
        for arg in defaulted + args.kwonlyargs:
            by_position = arg in ordered and ordered.index(arg) - bound < positional.get(callee, 0)
            if not by_position and arg.arg not in keywords.get(callee, set()):
                unpassed.add(f"{qualified}.{arg.arg}")
    return unpassed


def test_only_outside_callers_leave_a_parameter_unpassed():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")]
    assert _unpassed(trees) == OUTSIDE_PARAMETERS
