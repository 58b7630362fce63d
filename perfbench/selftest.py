"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/selftest.py

The file name keeps these out of the repository's own test run: they
exercise the benchmark, not the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from splitvote import blindsig, harness, protocol  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
NAMES = list(workloads.SIZES)


def tiny(name: str, seed: int = 3, **kwargs):
    size = workloads.TINY_SIZES[name]
    if size.trials:
        return workloads.AttackWorkload(size, seed)
    return workloads.ElectionWorkload(size, seed, **kwargs)


def test_workloads_match_the_spec():
    assert NAMES == [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_is_correct_and_reports_every_end_to_end_metric(name):
    workload = tiny(name)
    workload.prepare()
    plain, traced, attempted, failed = run.measure(workload, 0)
    assert (len(plain), traced, attempted, failed) == (1, [], 1, 0)
    metrics = run.end_to_end(plain)
    assert {name: unit for name, (_, unit) in metrics.items()} == END_TO_END
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_per_layer_metric_and_restores_the_program(name):
    originals = (protocol.confirm, blindsig.mod_exp, harness.ElectionRun.__dict__["resume"])
    workload = tiny(name)
    workload.prepare()
    plain, traced, attempted, failed = run.measure(workload, 0, Tracer())
    assert (len(plain), len(traced), attempted, failed) == (1, 1, 2, 0)
    metrics, problems = run.per_layer(plain, traced)
    assert problems == []
    assert {name: unit for name, (_, unit) in metrics.items()} == PER_LAYER
    assert (protocol.confirm, blindsig.mod_exp, harness.ElectionRun.__dict__["resume"]) == originals
    if name == "attack-mc":
        assert metrics["sharing.split.calls"][0] == workload.size.trials
        assert metrics["modmath.mod_exp.calls"][0] == 0
    else:
        # spans reach calls made through names other modules imported
        assert metrics["blindsig.confirm.calls"][0] > 0
        assert metrics["modmath.mod_exp.calls"][0] > 0
        assert metrics["protocol.MessageBus.post.calls"][0] == plain[0].counts["messages"]


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = tracer._wrap("inner", lambda: sum(range(20000)))
    tracer._wrap("outer", lambda: inner() + inner())()
    stats = tracer.fold()
    assert stats["outer"].calls == 1 and stats["inner"].calls == 2
    assert 0 <= stats["outer"].self_s < stats["inner"].self_s
    assert stats["inner"].callers == {"outer": 2} and stats["outer"].callers == {"": 1}


# every share on server 0 is edited, so a later recast cannot hide the edit
def _bump_shares(state):
    p = state["field"]["p"]
    for entry in state["servers"][0].values():
        entry[1] = entry[1] % (p - 1) + 1


def _zero_shares(state):
    for entry in state["servers"][0].values():
        entry[1] = 0


@pytest.mark.parametrize("tamper", [_bump_shares, _zero_shares])
def test_tampered_snapshot_counts_as_a_failed_iteration(tamper):
    workload = tiny("election-32", tamper=tamper)
    workload.prepare()
    plain, _, attempted, failed = run.measure(workload, 0)
    assert (attempted, failed) == (1, 1)
    assert plain[0].problems


def test_iteration_that_raises_counts_as_failed():
    workload = tiny("election-32", tamper=lambda state: state.pop("voters"))
    workload.prepare()
    assert run.measure(workload, 0) == ([], [], 1, 1)


def test_attack_estimate_far_from_the_expected_rate_fails(monkeypatch):
    monkeypatch.setattr(workloads, "ATTACK_EXACT_RATE", Fraction(1, 11))
    plain, _, attempted, failed = run.measure(tiny("attack-mc"), 0)
    assert (attempted, failed) == (1, 1)
    assert "exhaustive rate 1/22" in plain[0].problems[0]
    assert "standard errors" in plain[0].problems[1]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_last_line_follows_the_result_contract(monkeypatch, capsys, trace):
    monkeypatch.setitem(workloads.SIZES, "election-256", workloads.TINY_SIZES["election-256"])
    code = run.main(["--workload", "election-256", "--seed", "5", "--seconds", "0", "--trace", trace])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER if trace == "1" else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    record = json.loads(next(line for line in lines if line.startswith("RECORD "))[7:])
    assert record["seed"] == 5 and record["size"]["voters"] == 8


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "attack-mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
