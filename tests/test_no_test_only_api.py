"""The package holds no code that only tests call.

An ``ast`` scan of ``src/splitvote``: a module-level function or class
counts as used when its own module names it as a bare ``Name`` or some
module imports it with ``from .<its module> import <name>``, and a method
whose name is not a dunder counts as used when some ``Attribute`` in the
package spells it.  Code that nothing in the package uses is either an
entry point for outside callers or a test oracle, and oracles live in
``tests/``.  Likewise a defaulted or keyword-only parameter counts as used
when some call in the package passes it, by position or by keyword, to a
callee of the definition's name; and a default counts as used when some
such call leaves its parameter out.
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
}

OUTSIDE_DEFAULTS = {
    # the README's library use runs an exhaustive count without naming trials
    "attack_targeted.trials",
    "attack_any_valid.trials",
    # the benchmark calls run.report() on runs it times itself
    "ElectionRun.report.duration",
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


def _passes(trees) -> dict[str, tuple[bool, list[bool]]]:
    """Each defaulted or keyword-only parameter, as ``<definition>.<name>``,
    mapped to whether it has a default and, for each call in the package to
    a callee of the definition's name (a class's name for ``__init__``),
    whether that call passes it."""
    definitions = []
    calls: dict[str, list[tuple[int, set[str]]]] = {}
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
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append((len(node.args), {k.arg for k in node.keywords}))
    passes = {}
    for qualified, callee, bound, args in definitions:
        ordered = args.posonlyargs + args.args
        first = len(ordered) - len(args.defaults)
        parameters = [(arg, i - bound, True) for i, arg in enumerate(ordered) if i >= first]
        parameters += [
            (arg, None, default is not None)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        ]
        for arg, position, default in parameters:
            passes[f"{qualified}.{arg.arg}"] = default, [
                (position is not None and position < positional) or arg.arg in keywords
                for positional, keywords in calls.get(callee, ())
            ]
    return passes


def _unpassed(trees) -> set[str]:
    """Defaulted or keyword-only parameters that no call passes."""
    return {name for name, (_, passed) in _passes(trees).items() if not any(passed)}


def _always_passed(trees) -> set[str]:
    """Defaulted parameters that some call passes and every call does, so
    that only callers outside the package use the default."""
    return {
        name
        for name, (default, passed) in _passes(trees).items()
        if default and passed and all(passed)
    }


def test_only_outside_callers_leave_a_parameter_unpassed():
    assert _unpassed(_parsed_modules().values()) == OUTSIDE_PARAMETERS


def test_only_outside_callers_rely_on_a_default():
    assert _always_passed(_parsed_modules().values()) == OUTSIDE_DEFAULTS
