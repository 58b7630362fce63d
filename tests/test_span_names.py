"""Every span the benchmark reports names a function the tracer can wrap.

``perfbench/tracer.py`` wraps each public function of a ``splitvote``
module, and each public method or classmethod defined on one of its
classes, under the name ``<layer>.<function>`` or
``<layer>.<Class>.<method>``; ``perfbench/run.py`` looks up every name of
its ``SPAN_METRICS`` among them and fails with ``KeyError`` on a missing
one.  So a renamed or moved function would otherwise break only
``--trace 1``.  These tests read ``SPAN_METRICS`` from the source without
importing the benchmark.

A span that no run reaches reports nothing, so the last test also runs the
benchmark's shapes at a small size and checks which spans stay unreached.
"""

import ast
import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from splitvote.harness import AttackConfig, ElectionConfig, ElectionRun, run_attack
from splitvote.modmath import FIXTURE_FIELD
from splitvote.protocol import BOOTH_MODES

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


def _counting(span, fn, calls):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        calls[span] += 1
        return fn(*args, **kwargs)

    return counted


def _count_calls(monkeypatch) -> Counter:
    """Wrap every span's function in a call counter, rebinding a function in
    every ``splitvote`` module that imported it, as the benchmark's tracer
    does."""
    calls = Counter()
    holders = [m for n, m in sys.modules.items() if n == "splitvote" or n.startswith("splitvote.")]
    for span in span_names():
        layer, *path = span.split(".")
        module = importlib.import_module(f"splitvote.{layer}")
        if len(path) == 1:
            original = vars(module)[path[0]]
            counted = _counting(span, original, calls)
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        monkeypatch.setattr(holder, name, counted)
        else:
            cls = vars(module)[path[0]]
            member = vars(cls)[path[1]]
            if isinstance(member, classmethod):
                counted = classmethod(_counting(span, member.__func__, calls))
            else:
                counted = _counting(span, member, calls)
            monkeypatch.setattr(cls, path[1], counted)
    return calls


def test_every_reported_span_is_reached_by_a_run(monkeypatch):
    calls = _count_calls(monkeypatch)
    candidates = tuple(f"option-{i + 1}" for i in range(4))
    for booth in BOOTH_MODES:
        config = ElectionConfig(None, 24, 12, 3, candidates, 0.3, 0.1, booth, 1)
        run = ElectionRun(config)
        run.run_schedule(len(run.schedule) // 2)
        run = ElectionRun.resume(json.loads(run.snapshot_json()))
        run.run_schedule()
        run.finish()
        assert run.report().agreement()
    run_attack(AttackConfig(FIXTURE_FIELD, None, 3, (0, 2), trials=200, seed=1))
    unreached = {span for span in span_names() if calls[span] == 0}
    # registration blinds its fresh id through _blind_member, which skips the
    # subgroup test of a value that is a square by construction, and an
    # honest authority's signatures never fail the confirmation that would
    # lead to a disavowal
    assert unreached == {"blindsig.blind", "blindsig.disavow"}
