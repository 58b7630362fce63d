"""Steadiness check: run the benchmark over many seeds, in one or more
passes, and judge the spread of every end-to-end metric.

    python3 perfbench/steady.py --seeds 1-10 --passes 2
    python3 perfbench/steady.py --seeds 7919 --passes 2 --trace

Every workload of BENCHMARK.json runs at its ``run_seconds``.  For each
workload and metric it prints the median and the quartile spread
((q3 - q1) / median, from ``statistics.quantiles(values, n=4)``) of each
pass.  It fails when such a spread exceeds the metric's bound from
BENCHMARK.json, when a later pass's median is worse than the first's by
more than the bound, when any run is incorrect, or when an exact count
(output digest, message and success counts, snapshot size, and with
``--trace`` every per-layer count) differs between passes of one seed: a
count that varies means nondeterminism, not noise.

One figure is judged differently: the safe-prime search in the set-up of
``election-256`` does seed-dependent work (0.05 s to 3.1 s), so the
cross-seed spread of its ``setup_s`` is printed but not judged.  With two
or more passes it is judged run to run instead: the spread of each seed's
later-pass value over its first-pass value must stay within the bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# figures whose work, not only their noise, depends on the seed
SEED_DEPENDENT = {("election-256", "setup_s")}


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    record = next(json.loads(line[7:]) for line in lines if line.startswith("RECORD "))
    return json.loads(lines[-1]), record


def exact_counts(result: dict, record: dict | None = None) -> dict:
    counts = {} if record is None else {"output_sha256": record["output_sha256"], **record["counts"]}
    for name, metric in result["metrics"].items():
        if metric["unit"] in ("count", "ratio", "bytes") and name != "trace_overhead":
            counts[name] = metric["value"]
    return counts


def spread(values: list[float]) -> float | None:
    """(q3 - q1) / median; None for a single value."""
    if len(values) < 2:
        return None
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--trace", action="store_true", help="also make one traced run per seed and pass")
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    values: dict[tuple, list[float]] = {}
    exact: dict[tuple, dict] = {}
    problems: list[str] = []
    compared = 0
    for number in range(args.passes):
        for seed in args.seeds:
            for workload in workloads:
                result, record = run_once(workload, seed, spec["run_seconds"], 0)
                counts = exact_counts(result, record)
                if args.trace:
                    traced, _ = run_once(workload, seed, spec["run_seconds"], 1)
                    counts.update(exact_counts(traced))
                    result["correct"] &= traced["correct"]
                if not result["correct"]:
                    problems.append(f"{workload} seed {seed}: incorrect output")
                for name, metric in result["metrics"].items():
                    values.setdefault((workload, name, number), []).append(metric["value"])
                previous = exact.setdefault((workload, seed), counts)
                compared += len(counts) if previous is not counts else 0
                for name in sorted(set(previous) | set(counts)):
                    if previous.get(name) != counts.get(name):
                        problems.append(
                            f"{workload} seed {seed}: {name} {previous.get(name)} != {counts.get(name)}"
                        )
                shown = " ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items())
                print(
                    f"pass {number} seed {seed} {workload}: {shown} "
                    f"failed_frac={result['failed'] / result['attempted']:g} "
                    f"({result['failed']}/{result['attempted']})",
                    flush=True,
                )

    print(f"\n{'workload':<14} {'metric':<12} {'bound':>6}  per pass: median (spread)")
    for workload in workloads:
        for name, metric in bounds.items():
            runs = [values[workload, name, n] for n in range(args.passes)]
            spreads = [spread(v) for v in runs]
            if (workload, name) in SEED_DEPENDENT:
                across = spreads[0]
                # per seed, later pass over first pass
                spreads = [None] + [spread([a / b for a, b in zip(v, runs[0])]) for v in runs[1:]]
            cells = "  ".join(
                f"{median(v):.6g} ({'-' if s is None else f'{s:.3f}'})" for v, s in zip(runs, spreads)
            )
            if (workload, name) in SEED_DEPENDENT:
                cells += f"  [across seeds: {'-' if across is None else f'{across:.3f}'}, not judged]"
            print(f"{workload:<14} {name:<12} {metric['bound']:>6}  {cells}")
            for n, (v, s) in enumerate(zip(runs, spreads)):
                if s is not None and s > metric["bound"]:
                    problems.append(f"{workload} {name} pass {n}: spread {s:.3f} > {metric['bound']}")
                change = median(v) / median(runs[0]) - 1
                worse = change if metric["better"] == "lower" else -change
                if worse > metric["bound"]:
                    problems.append(f"{workload} {name} pass {n}: median worse by {worse:.3f}")
    print(f"\nexact counts compared between passes: {compared}")
    for problem in problems:
        print("FAIL", problem)
    print("steady" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
