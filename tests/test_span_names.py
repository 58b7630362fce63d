"""Every span the benchmark reports names a function the tracer can wrap.

``perfbench/tracer.py`` wraps each public function of a ``splitvote``
module, and each public method or classmethod defined on one of its
classes, under the name ``<layer>.<function>`` or
``<layer>.<Class>.<method>``; ``perfbench/run.py`` looks up every name of
its ``SPAN_METRICS`` among them and fails with ``KeyError`` on a missing
one.  So a renamed or moved function would otherwise break only
``--trace 1``.  This test reads ``SPAN_METRICS`` from the source without
importing the benchmark.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def span_names():
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["SPAN_METRICS"]:
            return [span for span, _ in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/run.py defines no SPAN_METRICS")


@pytest.mark.parametrize("span", span_names())
def test_span_names_a_traced_function(span):
    layer, *path = span.split(".")
    assert not any(part.startswith("_") for part in path), span
    module = importlib.import_module(f"splitvote.{layer}")
    if len(path) == 1:
        obj = vars(module).get(path[0])
        assert inspect.isfunction(obj) and obj.__module__ == module.__name__, span
    else:
        cls_name, method = path
        cls = vars(module).get(cls_name)
        assert inspect.isclass(cls) and cls.__module__ == module.__name__, span
        member = vars(cls).get(method)
        if isinstance(member, classmethod):
            member = member.__func__
        assert inspect.isfunction(member), span
