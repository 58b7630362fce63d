"""Benchmark for splitvote: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload election-32 --seed 1 --seconds 35 --trace 0

A single caller repeats one iteration of the workload (the next starts when
the previous one ends; no threads) until ``--seconds`` have passed, checks
every iteration's output, and prints a human table, a ``RECORD`` line of
exact counts and run facts, and last one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
plain and traced iterations and reports only per-layer metrics plus
``trace_overhead``, the traced iterations' extra wall time.  README.md next
to this file says why each workload exists and which per-layer metric
should move which end-to-end one.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import traceback
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HELD_OUT_SEED = 7919
WORKLOADS = ("election-32", "election-256", "attack-mc")


def load_program() -> None:
    """Put the checkout's ``src`` on the path; refuse to run without it."""
    if not (ROOT / "src" / "splitvote" / "__init__.py").is_file():
        sys.exit(f"perfbench: no splitvote package under {ROOT / 'src'}; nothing to measure")
    sys.path.insert(0, str(ROOT / "src"))


def measure(workload, seconds: float, tracer=None):
    """Closed loop for ``seconds`` (at least one iteration of each kind).

    Returns (plain iterations, traced iterations with their span stats,
    attempted count, failed count); an iteration fails when it raises or
    when a check on its output fails.  With a tracer, iterations alternate
    plain and traced; the workload decides which part of a traced
    iteration runs under the tracer.
    """
    plain, traced = [], []
    attempted = failed = 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not plain or (tracer is not None and not traced):
        tracing = tracer is not None and len(traced) < len(plain)
        attempted += 1
        gc.collect()
        try:
            iteration = workload.iterate(tracer.installed if tracing else nullcontext)
        except Exception:
            failed += 1
            traceback.print_exc(file=sys.stderr)
            if perf_counter() >= deadline:
                break
            continue
        if iteration.problems:
            failed += 1
            for problem in iteration.problems:
                print(f"check failed: {problem}", file=sys.stderr)
        if tracing:
            traced.append((iteration, tracer.fold()))
        else:
            plain.append(iteration)
    return plain, traced, attempted, failed


def end_to_end(iterations) -> dict[str, tuple[float, str]]:
    """Medians over iterations; ``run_s`` leaves set-up out, which
    ``setup_s`` reports on its own."""
    return {
        "run_s": (median(it.total - it.phases["setup"] for it in iterations), "s"),
        "setup_s": (median(it.phases["setup"] for it in iterations), "s"),
        "ops_per_s": (median(rate for it in iterations for rate in it.rates), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def phase_table(iterations, ops_per_s) -> dict[str, tuple[float, str]]:
    """Workload-specific figures printed for people, not gated; the
    throughput is ``ops_per_s`` under its workload-specific name."""
    first = iterations[0]
    rows = {"iteration_s": (median(it.total for it in iterations), "s")}
    for phase in ("snapshot_write", "resume"):
        if phase in first.phases:
            rows[f"{phase}_s"] = (median(it.phases[phase] for it in iterations), "s")
    if "snapshot_bytes" in first.counts:
        rows["snapshot_bytes"] = (first.counts["snapshot_bytes"], "bytes")
    rows["trials_per_s" if "trials" in first.phases else "cast_per_s"] = ops_per_s
    return rows


SPAN_METRICS = (
    ("modmath.mod_exp", ("calls", "self_s")),
    ("modmath.in_subgroup", ("calls", "self_s")),
    ("modmath.mod_inv", ("calls",)),
    ("modmath.generate_params", ("self_s",)),
    ("modmath.is_probable_prime", ("calls",)),
    ("blindsig.confirm", ("calls", "self_s", "accept_ratio")),
    ("blindsig.blind", ("self_s",)),
    ("blindsig.sign", ("self_s",)),
    ("blindsig.unblind", ("self_s",)),
    ("blindsig.verify_with_key", ("calls", "self_s")),
    ("blindsig.disavow", ("calls",)),
    ("sharing.split", ("calls", "self_s")),
    ("sharing.complete_split", ("self_s",)),
    ("protocol.MessageBus.post", ("calls", "self_s")),
    ("protocol.PollingBooth.authenticate", ("calls", "self_s")),
    ("protocol.VoteServer.store_share", ("calls", "self_s", "accept_ratio")),
    ("protocol.Voter.register", ("self_s",)),
    ("protocol.Voter.cast", ("self_s",)),
    ("protocol.tally", ("self_s",)),
    ("adversary.attack_targeted", ("self_s",)),
    ("harness.ElectionRun.step", ("self_s",)),
    ("harness.ElectionRun.finish", ("self_s",)),
    ("harness.IntentLedger.apply", ("self_s",)),
    ("harness.IntentLedger.predict", ("self_s",)),
    ("harness.ElectionRun.snapshot_json", ("self_s",)),
    ("harness.ElectionRun.resume", ("self_s",)),
)
# exact counts of the program's own output, per iteration
OUTPUT_COUNTS = {
    "warnings": ("harness.warnings", "count"),
    "snapshot_bytes": ("harness.snapshot_bytes", "bytes"),
}
GENERATE, PRIME_TEST = "modmath.generate_params", "modmath.is_probable_prime"


def per_layer(plain, traced) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics from the traced iterations: counts per iteration,
    medians over iterations for times.

    A layer the workload never calls reads 0.  Every traced iteration runs
    the same config, so a count that differs between them is reported as a
    problem: it means nondeterminism.
    """
    metrics: dict[str, tuple[float, str]] = {}
    problems: list[str] = []

    def exact(name, values, unit):
        if len(set(values)) != 1:
            problems.append(f"{name} differs between traced iterations: {values}")
        metrics[name] = (values[0], unit)

    for span, kinds in SPAN_METRICS:
        stats = [spans[span] for _, spans in traced]
        for kind in kinds:
            name = f"{span}.{kind}"
            if kind == "self_s":
                metrics[name] = (median(s.self_s for s in stats), "s")
            elif kind == "calls":
                exact(name, [s.calls for s in stats], "count")
            else:
                exact(name, [s.accepted / s.calls if s.calls else 0.0 for s in stats], "ratio")
    # fields made per primality test of the safe-prime search
    made = [spans[GENERATE].calls for _, spans in traced]
    tests = [spans[PRIME_TEST].callers[GENERATE] for _, spans in traced]
    exact(f"{GENERATE}.prime_yield", [m / t if t else 0.0 for m, t in zip(made, tests)], "ratio")
    for key, (name, unit) in OUTPUT_COUNTS.items():
        exact(name, [it.counts.get(key, 0) for it, _ in traced], unit)
    plain_s = median(it.total for it in plain)
    traced_s = median(it.total for it, _ in traced)
    metrics["trace_overhead"] = (traced_s / plain_s - 1.0, "ratio")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()
    from tracer import Tracer
    from workloads import SIZES, make_workload

    workload = make_workload(args.workload, args.seed)
    workload.prepare()
    tracer = Tracer() if args.trace else None
    plain, traced, attempted, failed = measure(workload, args.seconds, tracer)
    if not plain:
        print("perfbench: no iteration completed", file=sys.stderr)
        return 1

    metrics = end_to_end(plain)
    shown = {
        **metrics,
        **phase_table(plain, metrics["ops_per_s"]),
        "failed_frac": (failed / attempted, "ratio"),
    }
    problems = []
    if tracer is not None:
        metrics, problems = per_layer(plain, traced)
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        shown.update(metrics)
    for name, (value, unit) in shown.items():
        print(f"{name:<48} {value:>16.6g} {unit}")

    first = plain[0]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "size": asdict(SIZES[args.workload]),
        "iterations": len(plain),
        "traced_iterations": len(traced),
        "output_sha256": first.digest,
        "counts": first.counts,
    }
    print("RECORD " + json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
