"""The benchmark's workloads: inputs made from a seed, one iteration each,
and the checks every iteration's output must pass.

Every iteration of a run repeats the same config, so its outputs must be
byte-identical to the run's reference; a difference is nondeterminism or a
broken replay, never noise, and counts as a failed iteration.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from fractions import Fraction
from time import perf_counter
from typing import Callable

from splitvote import harness
from splitvote.adversary import TARGETED
from splitvote.modmath import FIXTURE_FIELD
from splitvote.protocol import KEY_COPY, ZK_RELAY

CANDIDATES = tuple(f"option-{i + 1}" for i in range(4))
SERVERS = 3
RECAST_FRACTION = 0.3
ATTACK_COLLUDERS = (0, 2)
# exhaustive count of the targeted rewrite at p = 23 (criterion 3)
ATTACK_EXACT_RATE = Fraction(1, 22)
# the Monte Carlo estimate must land within this many standard errors of it
ATTACK_TOLERANCE_SE = 4
# the exhaustive count takes tens of microseconds: time it over this many calls
ATTACK_SETUP_CALLS = 40
# throughput samples per election iteration: the casting phase is timed in
# this many chunks, so a run's median rests on many samples, not a handful
CAST_CHUNKS = 8


@dataclass(frozen=True)
class Size:
    """How big one iteration of a workload is."""

    field_bits: int = 0
    voters: int = 0
    booth: str = ""
    incomplete_fraction: float = 0.0
    snapshot: bool = False
    trials: int = 0


SIZES = {
    "election-32": Size(32, 2000, KEY_COPY, 0.1, snapshot=True),
    "election-256": Size(256, 300, ZK_RELAY),
    "attack-mc": Size(trials=50_000),
}

# the same shapes small enough for the benchmark's own tests
TINY_SIZES = {
    "election-32": replace(SIZES["election-32"], voters=40),
    "election-256": replace(SIZES["election-256"], field_bits=64, voters=8),
    "attack-mc": replace(SIZES["attack-mc"], trials=2000),
}


@dataclass
class Iteration:
    """Timings and outputs of one iteration: phase times, throughput samples
    (casts or trials per second), output digest and exact counts;
    ``problems`` is empty when every check passed."""

    phases: dict[str, float]
    rates: list[float]
    digest: str
    counts: dict[str, int]
    problems: list[str] = field(default_factory=list)

    @property
    def total(self) -> float:
        return sum(self.phases.values())


def _sha256(*parts: str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def election_digest(run: harness.ElectionRun) -> str:
    """Digest of the canonical records plus the full event log."""
    return _sha256(run.report().render_records(), "\n".join(run.bus.render_log()))


def _cast(run: harness.ElectionRun, stop: int, chunk: int, rates: list[float]) -> float:
    """Run the schedule up to ``stop`` in chunks, appending each chunk's
    casts per second to ``rates``; returns the time taken."""
    total = 0.0
    while run.cursor < stop:
        first = run.cursor
        start = perf_counter()
        run.run_schedule(min(stop, first + chunk))
        elapsed = perf_counter() - start
        rates.append((run.cursor - first) / elapsed)
        total += elapsed
    return total


class ElectionWorkload:
    """``ElectionRun`` through the public harness API.

    With ``size.snapshot`` an iteration runs half the schedule, writes a
    snapshot, resumes from its parsed JSON and runs the rest; the resumed
    run must match an uninterrupted run of the same config byte for byte.
    ``tamper`` edits the parsed snapshot before resume, so tests can show
    that a corrupted snapshot is caught.
    """

    def __init__(self, size: Size, seed: int, tamper: Callable[[dict], None] | None = None):
        self.size = size
        self.config = harness.ElectionConfig(
            None, size.field_bits, size.voters, SERVERS, CANDIDATES,
            RECAST_FRACTION, size.incomplete_fraction, size.booth, seed,
        )
        self.tamper = tamper
        self.reference: str | None = None

    def prepare(self) -> None:
        if self.size.snapshot:
            run, report = harness.run_election(self.config)
            if not report.agreement():
                raise RuntimeError(f"reference run: {report.differences()}")
            self.reference = election_digest(run)

    def iterate(self, traced=nullcontext) -> Iteration:
        """One iteration; ``traced`` is a context manager put around all of
        it (the tracer, or nothing)."""
        with traced():
            return self._iterate()

    def _iterate(self) -> Iteration:
        rates: list[float] = []
        start = perf_counter()
        run = harness.ElectionRun(self.config)
        phases = {"setup": perf_counter() - start, "cast": 0.0}
        chunk = max(1, len(run.schedule) // CAST_CHUNKS)
        snapshot_bytes = 0
        if self.size.snapshot:
            phases["cast"] += _cast(run, len(run.schedule) // 2, chunk, rates)
            mark = perf_counter()
            text = run.snapshot_json()
            now = perf_counter()
            phases["snapshot_write"] = now - mark
            snapshot_bytes = len(text.encode("utf-8"))
            state = json.loads(text)
            del run, text
            if self.tamper is not None:
                self.tamper(state)
            run = harness.ElectionRun.resume(state)
            phases["resume"] = perf_counter() - now
        phases["cast"] += _cast(run, len(run.schedule), chunk, rates)
        mark = perf_counter()
        run.finish()
        phases["finish"] = perf_counter() - mark

        report = run.report()
        counts = {
            "messages": report.message_count,
            "shares_accepted": report.shares_accepted,
            "warnings": len(report.warnings),
        }
        if self.size.snapshot:
            counts["snapshot_bytes"] = snapshot_bytes
        iteration = Iteration(phases, rates, election_digest(run), counts)
        iteration.problems += [f"tally vs ledger: {d}" for d in report.differences()]
        if self.reference is None:
            self.reference = iteration.digest
        elif iteration.digest != self.reference:
            what = "uninterrupted run" if self.size.snapshot else "first iteration"
            iteration.problems.append(f"records and event log differ from the {what}")
        return iteration


class AttackWorkload:
    """``run_attack``: targeted rewrite by servers 0 and 2 of 3 at p = 23,
    estimated by Monte Carlo.  Each iteration's set-up is the exhaustive
    count of the same scenario, which the estimate is then checked against;
    it takes tens of microseconds, so it is timed over a batch of calls."""

    def __init__(self, size: Size, seed: int):
        self.size = size
        self.config = harness.AttackConfig(
            FIXTURE_FIELD, None, SERVERS, ATTACK_COLLUDERS, TARGETED, size.trials, (), seed
        )
        self.exhaustive = replace(self.config, trials=None)
        self.reference: str | None = None

    def prepare(self) -> None:
        pass

    def iterate(self, traced=nullcontext) -> Iteration:
        """One iteration; ``traced`` is a context manager put around the
        Monte Carlo call only, so span totals cover the trial loop and not
        the exhaustive counts."""
        start = perf_counter()
        for _ in range(ATTACK_SETUP_CALLS):
            exact = harness.run_attack(self.exhaustive).outcomes[0].exact
        setup = (perf_counter() - start) / ATTACK_SETUP_CALLS
        with traced():
            mark = perf_counter()
            report = harness.run_attack(self.config)
            phases = {"setup": setup, "trials": perf_counter() - mark}
        outcome = report.outcomes[0]
        iteration = Iteration(
            phases, [outcome.trials / phases["trials"]], _sha256(report.render_records()),
            {"mc_successes": outcome.successes},
        )
        if exact != ATTACK_EXACT_RATE:
            iteration.problems.append(f"exhaustive rate {exact}, expected {ATTACK_EXACT_RATE}")
        rate = float(ATTACK_EXACT_RATE)
        stderr = (rate * (1 - rate) / outcome.trials) ** 0.5
        if abs(float(outcome.estimate) - rate) > ATTACK_TOLERANCE_SE * stderr:
            iteration.problems.append(
                f"estimate {float(outcome.estimate):.6f} is more than "
                f"{ATTACK_TOLERANCE_SE} standard errors from {ATTACK_EXACT_RATE}"
            )
        if self.reference is None:
            self.reference = iteration.digest
        elif iteration.digest != self.reference:
            iteration.problems.append("attack records differ from the first iteration")
        return iteration


def make_workload(name: str, seed: int):
    size = SIZES[name]
    if size.trials:
        return AttackWorkload(size, seed)
    return ElectionWorkload(size, seed)
