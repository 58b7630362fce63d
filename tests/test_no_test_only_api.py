"""The package holds no code that only tests call.

An ``ast`` scan of ``src/splitvote``: a module-level function or class
counts as used when its own module names it as a bare ``Name`` or some
module imports it with ``from .<its module> import <name>``, and a method
whose name is not a dunder counts as used when some ``Attribute`` in the
package spells it.  Code that nothing in the package uses is either an
entry point for outside callers or a test oracle, and oracles live in
``tests/``.  Likewise a defaulted or keyword-only parameter counts as used
when some call in the package passes it, by position or by keyword, to a
callee of the definition's name.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "splitvote"

# run_election and RunReport.differences are what the benchmark calls;
# blind and split are the library use the README shows, and the benchmark
# times split as a layer of its own
OUTSIDE_ENTRY_POINTS = {"run_election", "RunReport.differences", "blind", "split"}

OUTSIDE_PARAMETERS = {
    # the console script calls main() bare, so argparse reads sys.argv
    "main.argv",
    # _run draws its own generator, so only a caller can pin the rewrite
    "attack_targeted.replacement",
    "attack_any_valid.replacement",
}


def _unreferenced(modules) -> set[str]:
    """``modules`` maps each module's name to its parsed tree."""
    defined: dict[str, tuple[str | None, str]] = {}  # methods have no module
    bound: set[tuple[str, str]] = set()
    attributes: set[str] = set()
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = (module, node.name)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        defined[f"{node.name}.{item.name}"] = (None, item.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                bound.add((module, node.id))
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                bound.update((node.module, alias.name) for alias in node.names)
    return {
        qualified
        for qualified, (module, name) in defined.items()
        if ((module, name) not in bound if module else name not in attributes)
    }


def _parsed_modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}


def test_only_outside_entry_points_go_unreferenced():
    assert _unreferenced(_parsed_modules()) == OUTSIDE_ENTRY_POINTS


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
    assert _unpassed(_parsed_modules().values()) == OUTSIDE_PARAMETERS
