"""Deterministic election simulation: config, schedule, ledger, reports.

A run is a pure function of its config and seed.  Every source of
randomness is a named stream derived from the seed, the cast schedule is
precomputed before any message flows, and a voter's stream is read once,
at registration, for its coins and then its scheduled casts' free shares.
The harness keeps an intent ledger beside the servers so the tally is checked
against an independently maintained prediction.  Reports come in two
renderings: a canonical record format that is byte-identical across runs
(no wall-clock time), and a human table that includes timing.

A mid-run snapshot records only what replay needs, the config (seed
included) and the cast cursor, plus the sha256 of the message log at the
cursor, which fixes the server stores and the ledger.  Resuming rebuilds
the run from the config, replays it to the cursor, checks the digest and
continues, so the resumed run produces exactly the messages, tokens and
shares of an uninterrupted one.  A finished run has no snapshot.
"""

from __future__ import annotations

import hashlib
import json
import marshal
import os
import threading
from collections import Counter
from dataclasses import dataclass
from random import Random
from time import perf_counter
from typing import Sequence

from .adversary import (
    ANY_VALID,
    TARGETED,
    AttackOutcome,
    CollusionScenario,
    attack_any_valid,
    attack_targeted,
    colluder_problems,
)
from .blindsig import ConfirmedSignature, confirm_batch, random_signing_key, verify_with_key
from .errors import ConfigError, VotingError
from .modmath import MAX_CANDIDATES, MAX_FIELD_BITS, MAX_SERVERS, MAX_VOTERS
from .modmath import FieldParams, generate_params
from .protocol import (
    BOOTH_MODES,
    KEY_COPY,
    BallotSheet,
    MessageBus,
    PollingBooth,
    RegistrationAuthority,
    TallyResult,
    VoteServer,
    Voter,
    candidate_problems,
    make_ballot_sheet,
    tally,
)
from .sharing import check_enumerable

SNAPSHOT_KIND = "splitvote-snapshot"
SNAPSHOT_FORMAT = 6
# Fewest voters in a span of set-up.  At 32 bits a registration takes ~90
# us; a fork, with the read and commit of its span, ~2.5 ms plus 5 us a
# voter.  On two CPUs two spans of 50 were no faster than one span.
MIN_SPAN = 100


def stream(seed: int, label: str) -> Random:
    """An independent deterministic generator for one named purpose.

    Streams keep consumers decoupled: drawing more ballot values does not
    shift any voter's blinding factors, so runs stay comparable across
    config tweaks.
    """
    digest = hashlib.sha256(f"{seed}/{label}".encode("ascii")).digest()
    return Random(int.from_bytes(digest[:8], "big"))


def _parse_pairs(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    problems: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected key = value")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            problems.append(f"line {lineno}: expected key = value")
            continue
        if key in pairs:
            problems.append(f"line {lineno}: duplicate key {key}")
            continue
        pairs[key] = value
    if problems:
        raise ConfigError(problems)
    return pairs


def _take_int(pairs, key, problems, minimum, maximum) -> int | None:
    raw = pairs.pop(key, None)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        problems.append(f"{key}: not an integer: {raw!r}")
        return None
    if minimum is not None and value < minimum:
        problems.append(f"{key}: must be at least {minimum}")
        return None
    if maximum is not None and value > maximum:
        problems.append(f"{key}: must be at most {maximum}")
        return None
    return value


def _require_int(pairs, key, problems, minimum, maximum) -> int | None:
    if key not in pairs:
        problems.append(f"missing key: {key}")
    return _take_int(pairs, key, problems, minimum, maximum)


def _take_fraction(pairs, key, problems) -> float:
    raw = pairs.pop(key, None)
    if raw is None:
        return 0.0
    try:
        value = float(raw)
    except ValueError:
        problems.append(f"{key}: not a number: {raw!r}")
        return 0.0
    if not 0.0 <= value <= 1.0:
        problems.append(f"{key}: must lie in [0, 1]")
        return 0.0
    return value


def _take_field(pairs, problems) -> tuple[FieldParams | None, int | None]:
    given = "field_bits" in pairs  # a bad value is a problem already
    bits = _take_int(pairs, "field_bits", problems, 5, MAX_FIELD_BITS)
    explicit = [pairs.pop(key, None) for key in ("p", "q", "g")]
    if given and any(v is not None for v in explicit):
        problems.append("give either field_bits or p, q, g, not both")
        return None, None
    if given:
        return None, bits
    if all(v is None for v in explicit):
        problems.append("missing field: give field_bits or p, q, g")
        return None, None
    if any(v is None for v in explicit):
        problems.append("explicit field needs all three of p, q, g")
        return None, None
    try:
        return FieldParams(int(explicit[0]), int(explicit[1]), int(explicit[2])), None
    except ValueError as exc:
        problems.append(f"field: {exc}")
        return None, None


def _field_lines(params: FieldParams) -> list[str]:
    return [f"p = {params.p}", f"q = {params.q}", f"g = {params.g}"]


def _echo_field(config: ElectionConfig | AttackConfig) -> list[str]:
    """The field as a config gives it: explicit p, q, g or a bit length."""
    if config.params is not None:
        return _field_lines(config.params)
    return [f"field_bits = {config.field_bits}"]


def _resolve_field(config: ElectionConfig | AttackConfig) -> FieldParams:
    """The config's explicit field, or the one its seed generates."""
    if config.params is not None:
        return config.params
    return generate_params(config.field_bits, stream(config.seed, "field"))


def _record_header(config_lines: Sequence[str], params: FieldParams) -> list[str]:
    """The ``[config]`` and ``[field]`` sections every canonical report opens with."""
    return ["[config]", *config_lines, "", "[field]", *_field_lines(params), ""]


def _take_candidates(pairs, problems, params, bits) -> tuple[str, ...]:
    raw = pairs.pop("candidates", None)
    if raw is None:
        problems.append("missing key: candidates")
        return ()
    # isdigit() also admits superscripts such as "²", which int() refuses
    counted = raw.isdecimal()
    labels = () if counted else tuple(part.strip() for part in raw.split(","))
    # either form is held to the subgroup order q (2^(bits - 1) - 1 for a
    # generated field) when the field parsed, then to MAX_CANDIDATES, and a
    # bare count before any label is built
    try:
        count = int(raw) if counted else len(labels)
    except ValueError:  # more digits than int() converts
        count = float("inf")
    q = params.q if params is not None else None if bits is None else (1 << (bits - 1)) - 1
    if q is not None and count > q:
        problems.append("candidates: more than the subgroup has elements")
        return ()
    if count > MAX_CANDIDATES:
        problems.append(f"candidates: must be at most {MAX_CANDIDATES}")
        return ()
    if counted:
        if q is None:  # the field refuses the config: build no label
            return ()
        labels = tuple(f"option-{i + 1}" for i in range(count))
    problems.extend(f"candidates: {problem}" for problem in candidate_problems(labels))
    return labels


@dataclass(frozen=True)
class ElectionConfig:
    params: FieldParams | None
    field_bits: int | None
    n_voters: int
    k: int
    candidates: tuple[str, ...]
    recast_fraction: float = 0.0
    incomplete_fraction: float = 0.0
    booth_mode: str = KEY_COPY
    seed: int = 0

    def echo_lines(self) -> tuple[str, ...]:
        """Canonical key = value lines; parsing them reproduces the config."""
        return (
            *_echo_field(self),
            f"voters = {self.n_voters}",
            f"servers = {self.k}",
            f"candidates = {','.join(self.candidates)}",
            f"recast_fraction = {self.recast_fraction!r}",
            f"incomplete_fraction = {self.incomplete_fraction!r}",
            f"booth = {self.booth_mode}",
            f"seed = {self.seed}",
        )


def parse_election_config(text: str) -> ElectionConfig:
    pairs = _parse_pairs(text)
    problems: list[str] = []
    params, bits = _take_field(pairs, problems)
    voters = _require_int(pairs, "voters", problems, 0, MAX_VOTERS)
    servers = _require_int(pairs, "servers", problems, 2, MAX_SERVERS)
    candidates = _take_candidates(pairs, problems, params, bits)
    recast = _take_fraction(pairs, "recast_fraction", problems)
    incomplete = _take_fraction(pairs, "incomplete_fraction", problems)
    booth_mode = pairs.pop("booth", KEY_COPY)
    if booth_mode not in BOOTH_MODES:
        problems.append(f"booth: unknown mode {booth_mode!r}")
    seed = _take_int(pairs, "seed", problems, None, None)
    for key in pairs:
        problems.append(f"unknown key: {key}")
    if problems:
        raise ConfigError(problems)
    return ElectionConfig(
        params, bits, voters, servers, candidates,
        recast, incomplete, booth_mode, seed or 0,
    )


@dataclass(frozen=True)
class CastEvent:
    voter_index: int
    candidate_index: int
    deliver_count: int


def _schedule_length(config: ElectionConfig) -> int:
    """Casts in the schedule: one per voter, one more per recaster."""
    return config.n_voters + round(config.recast_fraction * config.n_voters)


def _build_schedule(config: ElectionConfig) -> tuple[CastEvent, ...]:
    rng = stream(config.seed, "schedule")
    recasters = rng.sample(range(config.n_voters), _schedule_length(config) - config.n_voters)
    occurrences = list(range(config.n_voters)) + sorted(recasters)
    rng.shuffle(occurrences)
    events = []
    for voter_index in occurrences:
        candidate = rng.randrange(len(config.candidates))
        if config.incomplete_fraction and rng.random() < config.incomplete_fraction:
            deliver = rng.randint(1, config.k - 1)
        else:
            deliver = config.k
        events.append(CastEvent(voter_index, candidate, deliver))
    return tuple(events)


class IntentLedger:
    """Parallel bookkeeping of what every server should be storing.

    ``apply`` mirrors the servers' version rule only: it stores a share
    when its id has none yet or an older version.  It has no share-range
    rule, as a cast deals only shares in [1, p - 1]; a share outside
    that range would stop the run with "ledger diverged".  After every cast
    the two must agree share for share; ``predict`` then mirrors the tally
    over the ledger's copy.  Divergence at any point is a bug in one of the
    two, which is the point of keeping both.
    """

    def __init__(self, k: int):
        self.stores: list[dict[int, tuple[int, int]]] = [{} for _ in range(k)]

    def apply(
        self, anon_id: int, version: int, shares: Sequence[int], deliver_count: int
    ) -> list[bool]:
        decisions = []
        for index in range(deliver_count):
            stored = self.stores[index].get(anon_id)
            accept = stored is None or version > stored[0]
            if accept:
                self.stores[index][anon_id] = (version, shares[index])
            decisions.append(accept)
        return decisions

    def predict(self, sheet: BallotSheet) -> TallyResult:
        ids = sorted({anon for store in self.stores for anon in store})
        index = sheet.signed_index()
        p = sheet.params.p
        counts = {label: 0 for label in sheet.candidates}
        invalid = 0
        inconsistent = 0
        for anon in ids:
            records = [store.get(anon) for store in self.stores]
            if any(r is None for r in records) or len({r[0] for r in records}) != 1:
                inconsistent += 1
                continue
            product = 1
            for _, share in records:
                product = product * share % p
            label = index.get(product)
            if label is None:
                invalid += 1
            else:
                counts[label] += 1
        return TallyResult(counts, invalid, inconsistent, len(ids))


@dataclass
class RunReport:
    config_lines: tuple[str, ...]
    params: FieldParams
    result: TallyResult
    predicted: TallyResult
    registered: int
    distinct_credentials: int
    casts_attempted: int
    shares_accepted: int
    message_count: int
    warnings: tuple[str, ...]
    duration: float

    def agreement(self) -> bool:
        return self.result == self.predicted

    def differences(self) -> list[str]:
        """Where the tally and the ledger prediction disagree; empty when
        the run is healthy.  Both sides render the sheet's labels in one
        order, and no label holds " = ", so their lines pair up."""
        diffs = []
        for tallied, predicted in zip(self.result.render_lines(), self.predicted.render_lines()):
            if tallied != predicted:
                name, _, a = tallied.partition(" = ")
                diffs.append(f"{name}: tally {a} != ledger {predicted.partition(' = ')[2]}")
        return diffs

    def render_records(self) -> str:
        """Canonical report: identical bytes for identical config and seed."""
        lines = _record_header(self.config_lines, self.params)
        lines += [
            "[run]",
            f"registered = {self.registered}",
            f"distinct_credentials = {self.distinct_credentials}",
            f"casts_attempted = {self.casts_attempted}",
            f"shares_accepted = {self.shares_accepted}",
            f"messages = {self.message_count}",
            "",
        ]
        lines += ["[tally]", *self.result.render_lines(), ""]
        lines += [
            "[ledger]",
            *self.predicted.render_lines(),
            f"agreement = {1 if self.agreement() else 0}",
            "",
        ]
        lines.append("[warnings]")
        lines += list(self.warnings) or ["none"]
        return "\n".join(lines) + "\n"

    def render_table(self) -> str:
        rows = [
            ("field", f"p={self.params.p} q={self.params.q} g={self.params.g}"),
            ("registered", str(self.registered)),
            ("credentials", str(self.distinct_credentials)),
            ("casts", str(self.casts_attempted)),
            ("messages", str(self.message_count)),
        ]
        rows += [(label, str(n)) for label, n in self.result.counts.items()]
        rows += [
            ("invalid", str(self.result.invalid)),
            ("inconsistent", str(self.result.inconsistent)),
            ("ledger agrees", "yes" if self.agreement() else "NO"),
            ("warnings", str(len(self.warnings))),
            ("wall time", f"{self.duration:.3f}s"),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows) + "\n"


class ElectionRun:
    """One end-to-end simulated election, steppable cast by cast."""

    def __init__(self, config: ElectionConfig):
        self.config = config
        self.params = _resolve_field(config)
        self.bus = MessageBus()
        self.warnings: list[str] = []
        self.cursor = 0
        self.shares_accepted = 0
        self.result: TallyResult | None = None
        self.predicted: TallyResult | None = None
        self.schedule = _build_schedule(config)
        self._setup()
        self.ledger = IntentLedger(config.k)

    def _setup(self) -> None:
        config = self.config
        seed = config.seed
        self.key = random_signing_key(self.params, stream(seed, "authority-key"))
        self.sheet = make_ballot_sheet(config.candidates, self.key, stream(seed, "ballots"))
        self.roster = [f"V{i:05d}" for i in range(config.n_voters)]
        self.authority = RegistrationAuthority(self.key, self.roster, self.sheet)
        self.booth = PollingBooth(config.booth_mode, stream(seed, "booth"), self.authority)
        self.servers = [VoteServer(i, self.booth) for i in range(config.k)]
        self.voters: list[Voter] = []
        drawn: dict[int, int] = {}
        for lines, registered in self._register_spans():
            self.bus.extend(lines)
            for anon, sig, free in registered:
                i = len(self.voters)
                credential = ConfirmedSignature(anon, sig, self.params)
                self.voters.append(Voter(credential, self.sheet, free))
                first = drawn.setdefault(anon, i)
                if first != i:
                    self.warnings.append(
                        f"anonymous id collision: registrants {first} and {i} share id {anon}"
                    )
        self.authority.registered.update(self.roster)
        self.authority.close()  # frees span 0's sheet tables; a child's went with it

    def _register_spans(self) -> list:
        """``_register_span`` of each span of the roster, in order: one span
        per usable CPU, of ``MIN_SPAN`` voters or more.  Span 0 runs here,
        each other one in a forked child that writes its result to a pipe by
        ``marshal``; a span whose child fails runs here again, and raises
        what a one-span run raises.  No child outlives the call."""
        n, spans = self.config.n_voters, 1
        # forking beside a live thread can deadlock, and Python 3.12 warns
        if hasattr(os, "fork") and threading.active_count() == 1:
            usable = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
            spans = max(1, min(len(usable) or os.cpu_count() or 1, n // MIN_SPAN))
        bounds = [n * j // spans for j in range(spans + 1)]
        children = []  # (pid, pipe) of each child not yet reaped
        try:
            for lo, hi in zip(bounds[1:], bounds[2:]):
                read_end, write_end = os.pipe()
                pid = os.fork()
                if pid == 0:  # the child leaves by os._exit, flushing no buffer of ours
                    try:
                        os.close(read_end)
                        with open(write_end, "wb") as pipe:
                            marshal.dump(self._register_span(lo, hi), pipe)
                        os._exit(0)
                    finally:
                        os._exit(1)
                os.close(write_end)
                children.append((pid, open(read_end, "rb")))
            results = [self._register_span(0, bounds[1])]
            for lo, hi in zip(bounds[1:], bounds[2:]):
                with children[0][1] as pipe:
                    data = pipe.read()
                status = os.waitpid(children.pop(0)[0], 0)[1]  # 0 once all was written
                results.append(marshal.loads(data) if status == 0 else self._register_span(lo, hi))
            return results
        finally:
            for _, pipe in children:  # first, so that a child blocked writing exits
                pipe.close()
            for pid, _ in children:
                os.waitpid(pid, 0)

    def _register_span(self, lo: int, hi: int) -> tuple[list[str], list]:
        """Register voters lo to hi - 1 on a bus of their own.  Plain data:
        its rendered lines, and each voter's credential halves, which an
        accepted batch confirmed, and unspent free shares."""
        config, bus = self.config, MessageBus()
        casts = Counter(event.voter_index for event in self.schedule)
        registered = []
        for i in range(lo, hi):
            rng = stream(config.seed, f"voter/{i}")
            n_free = casts[i] * (config.k - 1)
            voter = Voter.register(self.roster[i], self.authority, bus, rng, n_free)
            registered.append((voter.credential.message, voter.credential.sig, voter.free))
        return bus.render_log(), registered

    def step(self) -> None:
        """Run the next scheduled cast and cross-check ledger vs servers."""
        if self.cursor >= len(self.schedule):
            raise VotingError("schedule exhausted")
        event = self.schedule[self.cursor]
        voter = self.voters[event.voter_index]
        token = self.booth.authenticate(voter.credential, self.bus)
        ack = voter.cast(token, self.servers, event.candidate_index, self.bus, event.deliver_count)
        decisions = self.ledger.apply(
            voter.credential.message, ack.version, ack.shares, event.deliver_count
        )
        if decisions != list(ack.accepted):
            raise VotingError(
                f"ledger diverged from servers at cast {self.cursor}: "
                f"{decisions} != {list(ack.accepted)}"
            )
        self.shares_accepted += sum(decisions)
        self.cursor += 1

    def run_schedule(self, upto: int | None = None) -> None:
        stop = len(self.schedule) if upto is None else min(upto, len(self.schedule))
        while self.cursor < stop:
            self.step()

    def finish(self) -> None:
        if self.cursor < len(self.schedule):
            raise VotingError(f"{len(self.schedule) - self.cursor} casts still scheduled")
        if self.result is not None:
            return
        self.booth.close(self.bus)
        responder, rng = self.authority.responder, stream(self.config.seed, "tally")

        def verify(signatures):
            if self.config.booth_mode == KEY_COPY:
                return all(verify_with_key(signature, self.key) for signature in signatures)
            return confirm_batch(signatures, self.key.public_key(), responder, rng).accepted

        self.result = tally(self.servers, self.sheet, verify, self.bus)
        self.predicted = self.ledger.predict(self.sheet)

    def report(self, duration: float = 0.0) -> RunReport:
        if self.result is None:
            raise VotingError("run not finished")
        return RunReport(
            self.config.echo_lines(),
            self.params,
            self.result,
            self.predicted,
            len(self.authority.registered),
            len({v.credential.message for v in self.voters}),
            self.cursor,
            self.shares_accepted,
            len(self.bus),
            tuple(self.warnings),
            duration,
        )

    def state_digest(self) -> str:
        """sha256 of the message log at the cursor as ``--events`` writes
        it.  The log fixes the stores: every share a server keeps is a
        logged ``cast-share`` its ``cast-accept`` acknowledged, and ``step``
        holds the ledger to the same decisions."""
        return self.bus.sha256()

    def snapshot_state(self) -> dict:
        """What replay needs to reach the current cast, plus a digest of
        the state it must arrive at.  A finished run has nothing left to
        resume, so it has no snapshot."""
        if self.result is not None:
            raise VotingError("a finished run has no snapshot")
        return {
            "kind": SNAPSHOT_KIND,
            "format": SNAPSHOT_FORMAT,
            "config": list(self.config.echo_lines()),
            "cursor": self.cursor,
            "sha256": self.state_digest(),
        }

    def snapshot_json(self) -> str:
        return json.dumps(self.snapshot_state(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def resume(cls, state: object) -> "ElectionRun":
        """Replay ``snapshot_state`` output to its cursor, check the digest,
        and hand back the run ready to keep going.  Every malformed,
        foreign or tampered snapshot raises ``ConfigError``."""
        problems = _snapshot_problems(state)
        if problems:
            raise ConfigError(problems)
        config = parse_election_config("\n".join(state["config"]))
        # the schedule's length needs only the config, so a bad cursor is
        # refused before registration runs
        if state["cursor"] > _schedule_length(config):
            raise ConfigError(["snapshot cursor lies beyond the schedule"])
        run = cls(config)
        run.run_schedule(state["cursor"])
        if run.state_digest() != state["sha256"]:
            raise ConfigError(["snapshot digest mismatch: replaying its config "
                               "does not reach the state it recorded"])
        return run


_SNAPSHOT_FIELDS = {
    "config": (lambda v: isinstance(v, list) and all(isinstance(line, str) for line in v),
               "a list of config lines"),
    "cursor": (lambda v: type(v) is int and v >= 0, "a non-negative integer"),
    "sha256": (lambda v: isinstance(v, str), "a hex digest"),
}


def _snapshot_problems(state: object) -> list[str]:
    """Shape check of a parsed snapshot; empty when ``resume`` may use it."""
    if not isinstance(state, dict) or state.get("kind") != SNAPSHOT_KIND:
        return ["not a recognizable snapshot"]
    if state.get("format") != SNAPSHOT_FORMAT:
        return [
            f"snapshot format {state.get('format')!r} is not supported; this version "
            f"reads format {SNAPSHOT_FORMAT} only, so rerun with --snapshot-at"
        ]
    problems = [f"snapshot: missing key {key}" for key in _SNAPSHOT_FIELDS if key not in state]
    problems += [
        f"snapshot: unknown key {key}"
        for key in state
        if key not in _SNAPSHOT_FIELDS and key not in ("kind", "format")
    ]
    problems += [
        f"snapshot: {key} must be {what}"
        for key, (valid, what) in _SNAPSHOT_FIELDS.items()
        if key in state and not valid(state[key])
    ]
    return problems


def run_election(config: ElectionConfig) -> tuple[ElectionRun, RunReport]:
    start = perf_counter()
    run = ElectionRun(config)
    run.run_schedule()
    run.finish()
    return run, run.report(perf_counter() - start)


@dataclass(frozen=True)
class AttackConfig:
    params: FieldParams | None
    field_bits: int | None
    k: int
    colluders: tuple[int, ...]
    goal: str = TARGETED
    trials: int | None = None
    candidates: tuple[str, ...] = ()
    seed: int = 0

    def echo_lines(self) -> tuple[str, ...]:
        lines = [
            *_echo_field(self),
            f"servers = {self.k}",
            f"colluders = {','.join(str(i) for i in self.colluders)}",
            f"goal = {self.goal}",
            f"trials = {'exhaustive' if self.trials is None else self.trials}",
        ]
        if self.candidates:
            lines.append(f"candidates = {','.join(self.candidates)}")
        lines.append(f"seed = {self.seed}")
        return tuple(lines)


def parse_attack_config(text: str) -> AttackConfig:
    pairs = _parse_pairs(text)
    problems: list[str] = []
    params, bits = _take_field(pairs, problems)
    servers = _require_int(pairs, "servers", problems, 2, MAX_SERVERS)
    raw_colluders = pairs.pop("colluders", None)
    colluders: tuple[int, ...] = ()
    if raw_colluders is None:
        problems.append("missing key: colluders")
    else:
        try:
            colluders = tuple(int(part) for part in raw_colluders.split(","))
        except ValueError:
            problems.append(f"colluders: not a list of integers: {raw_colluders!r}")
    # a servers problem leaves no count to check the indices against
    if colluders and servers is not None:
        for problem in colluder_problems(servers, colluders):
            problems.append(f"colluders: {problem}")
    goal = pairs.pop("goal", TARGETED)
    if goal not in (TARGETED, ANY_VALID):
        problems.append(f"goal: unknown goal {goal!r}")
    raw_trials = pairs.pop("trials", "exhaustive")
    trials: int | None = None
    if raw_trials != "exhaustive":
        try:
            trials = int(raw_trials)
        except ValueError:
            problems.append(f"trials: expected 'exhaustive' or an integer: {raw_trials!r}")
        if trials is not None and trials < 1:
            problems.append("trials: must be positive")
    candidates: tuple[str, ...] = ()
    if "candidates" not in pairs:
        if goal == ANY_VALID:
            problems.append("goal any-valid needs candidates")
    elif goal == TARGETED:
        pairs.pop("candidates")
        problems.append("candidates: only goal any-valid reads them")
    else:
        candidates = _take_candidates(pairs, problems, params, bits)
    seed = _take_int(pairs, "seed", problems, None, None)
    for key in pairs:
        problems.append(f"unknown key: {key}")
    if problems:
        raise ConfigError(problems)
    return AttackConfig(params, bits, servers, colluders, goal, trials, candidates, seed or 0)


@dataclass
class AttackReport:
    config_lines: tuple[str, ...]
    params: FieldParams
    outcomes: tuple[AttackOutcome, ...]
    duration: float

    def render_records(self) -> str:
        lines = _record_header(self.config_lines, self.params)
        lines.append("[attack]")
        lines += [outcome.to_record() for outcome in self.outcomes]
        return "\n".join(lines) + "\n"

    def render_table(self) -> str:
        lines = [f"field: p={self.params.p} q={self.params.q} g={self.params.g}"]
        for outcome in self.outcomes:
            lines.append(
                f"{outcome.goal:<10} {outcome.successes}/{outcome.trials}"
                f" estimate={float(outcome.estimate):.3e}"
                + (f" exact={outcome.exact}" if outcome.exact is not None else "")
                + f" asymptotic={outcome.asymptotic}"
            )
        lines.append(f"wall time: {self.duration:.3f}s")
        return "\n".join(lines) + "\n"


def run_attack(config: AttackConfig) -> AttackReport:
    """Run the attack the config describes."""
    start = perf_counter()
    seed = config.seed
    if config.trials is None and config.params is None:
        # the least p of a bit length: refuse before the safe-prime search
        check_enumerable((1 << (config.field_bits - 1)) + 1)
    params = _resolve_field(config)
    scenario = CollusionScenario(params, config.k, config.colluders, seed)
    rng = stream(seed, "attack")
    if config.goal == TARGETED:
        value = rng.randrange(1, params.p)
        target = rng.randrange(1, params.p)
        outcomes = (attack_targeted(scenario, value, target, trials=config.trials),)
    else:
        key = random_signing_key(params, stream(seed, "authority-key"))
        sheet = make_ballot_sheet(config.candidates, key, stream(seed, "ballots"))
        value = sheet.signed_ballots[rng.randrange(len(config.candidates))]
        outcomes = tuple(
            attack_any_valid(scenario, value, sheet.signed_ballots, trials=config.trials)
        )
    return AttackReport(config.echo_lines(), params, outcomes, perf_counter() - start)


def emit_params(bit_length: int, seed: int) -> str:
    """The ``p``, ``q`` and ``g`` lines of the field a config with
    ``field_bits = bit_length`` and ``seed = seed`` generates."""
    params = generate_params(bit_length, stream(seed, "field"))
    return "\n".join(_field_lines(params)) + "\n"
