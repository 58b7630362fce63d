"""Collusion attacks against multiplicative ballot splitting.

The attack model: some proper subset of the vote servers pools its stored
shares for one target ballot and rewrites one of them, trying to steer the
reconstructed product to a value of their choosing (or to any signed ballot
at all).  Because every proper subset of shares is statistically independent
of the split value, the product after any rewrite is uniform over the p - 1
nonzero residues, so a targeted rewrite lands with probability exactly
1/(p - 1) and a hit-anything rewrite with m/(p - 1) for m signed ballots,
regardless of how many servers collude.

Small fields get the exact count: the rewritten coordinate's pre-image is a
bijective function of one sweep coordinate, so driving that coordinate over
[1, p - 1] visits every reachable outcome exactly once and the quotient
successes/(p - 1) is the exact probability, not an estimate.  Large fields
fall back to Monte Carlo over fresh splits.  Both report the exact target
1/(p - 1) next to the 1/p figure usually quoted in the large-field limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Sequence

from .errors import ScenarioError
from .modmath import FieldParams, require_unit
from .sharing import check_enumerable

TARGETED = "targeted"
ANY_VALID = "any-valid"
ANY_OTHER = "any-other"
EXHAUSTIVE = "exhaustive"
MONTE_CARLO = "monte-carlo"
# words a bulk draw of ``_count_bytes`` takes at most
CHUNK_WORDS = 1 << 14


def colluder_problems(k: int, colluders: Sequence[int]) -> list[str]:
    """What keeps ``colluders`` from being a coalition of the k servers;
    empty when nothing does."""
    problems = []
    if not colluders:
        problems.append("need at least one colluding server")
    if not all(0 <= i < k for i in colluders):
        problems.append(f"indices must lie in [0, {k})")
    if len(set(colluders)) != len(colluders):
        problems.append("duplicate index")
    if len(colluders) >= k:
        problems.append("must be a proper subset of the servers")
    return problems


@dataclass(frozen=True)
class CollusionScenario:
    """Which servers collude, over which field, with which dealt constants.

    ``seed`` fixes the constants the enumeration holds still (the colluders'
    bystander shares and the default rewrite value), so a scenario names one
    reproducible experiment.  The last listed colluder does the rewriting.
    """

    params: FieldParams
    k: int
    colluders: tuple[int, ...]
    seed: int = 0

    def __post_init__(self):
        problems = colluder_problems(self.k, self.colluders)
        if problems:
            raise ScenarioError("colluders: " + "; ".join(problems))

    @property
    def rewritten(self) -> int:
        return self.colluders[-1]


@dataclass(frozen=True)
class AttackOutcome:
    mode: str
    goal: str
    successes: int
    trials: int
    estimate: Fraction
    exact: Fraction | None
    asymptotic: Fraction
    stderr: float

    def to_record(self) -> str:
        parts = [
            f"mode={self.mode}",
            f"goal={self.goal}",
            f"successes={self.successes}",
            f"trials={self.trials}",
            f"estimate={self.estimate}",
        ]
        if self.exact is not None:
            parts.append(f"exact={self.exact}")
        parts.append(f"asymptotic={self.asymptotic}")
        if self.mode == MONTE_CARLO:
            parts.append(f"stderr={self.stderr:.3e}")
        return " ".join(parts)


def _resolve_rewrite(scenario, replacement, rng) -> int:
    if replacement is None:
        return rng.randrange(1, scenario.params.p)
    return require_unit(replacement, scenario.params, "replacement share")


def _exhaust(scenario, value, winners, rewrite, rng) -> int:
    p = scenario.params.p
    check_enumerable(p)
    k = scenario.k
    j = scenario.rewritten
    # sweep the rewritten coordinate itself, or any free coordinate when the
    # rewritten one is the forced k-th share; either way the rewritten
    # coordinate's original value is a bijection of the sweep variable
    sweep = j if j < k - 1 else 0
    fixed = 1
    for i in range(k - 1):
        if i != sweep:
            fixed = fixed * rng.randrange(1, p) % p
    successes = 0
    for u in range(1, p):
        original = u if j < k - 1 else value * pow(fixed * u, -1, p) % p
        # the rewrite divides the original coordinate back out of the product
        if value * rewrite * pow(original, -1, p) % p in winners:
            successes += 1
    return successes


def _simulate(scenario, value, winners, rewrite, trials, rng) -> int:
    """Successes over ``trials`` fresh splits, drawn as ``split`` draws them.

    ``randrange(1, p)`` is ``getrandbits((p - 1).bit_length())``, redrawn
    while it is at least p - 1, plus one (``Random._randbelow_with_getrandbits``);
    making those calls here gives the same shares from the same words.  The
    rewritten product is rewrite * prod(leading) when the forced k-th share
    is rewritten, and value * rewrite / r when a free share r is, so the
    winning values of that one coordinate are found before the loop.  When
    p - 1 < 256 the draws are counted as bytes instead (``_count_bytes``).
    """
    if trials < 1:
        raise ScenarioError("need at least one trial")
    p = scenario.params.p
    k = scenario.k
    j = scenario.rewritten
    bound = p - 1
    bits = bound.bit_length()
    if j == k - 1:
        inverse = pow(rewrite, -1, p)
        wins = frozenset(w * inverse % p for w in winners)
    else:
        # winning shares r, less one: the raw draw is tested as it comes
        wins = frozenset(value * rewrite * pow(w, -1, p) % p - 1 for w in winners)
    if bound < 256:
        return _count_bytes(scenario.params, k - 1, j, wins, trials, rng)
    draw = rng.getrandbits
    successes = 0
    if j == k - 1:
        rest = range(k - 2)
        for _ in range(trials):
            prod = draw(bits)
            while prod >= bound:
                prod = draw(bits)
            prod += 1
            for _ in rest:
                r = draw(bits)
                while r >= bound:
                    r = draw(bits)
                prod = prod * (r + 1) % p
            if prod in wins:
                successes += 1
        return successes
    before, after = range(j), range(k - 2 - j)
    for _ in range(trials):
        for _ in before:
            while draw(bits) >= bound:
                pass
        r = draw(bits)
        while r >= bound:
            r = draw(bits)
        for _ in after:
            while draw(bits) >= bound:
                pass
        if r in wins:
            successes += 1
    return successes


def _count_bytes(params, n, j, wins, trials, rng) -> int:
    """``_simulate``'s count for p - 1 < 256, one byte a share, n a trial.

    A draw is the top (p - 1).bit_length() <= 8 bits of one 32-bit word, and
    ``getrandbits(32 * w)`` is w words, first word least significant: the
    top byte of each, mapped to its share less the rejected draws, gives the
    shares single calls would.  A chunk of no more words than shares owed
    takes no word they would not.  Column i of a block is share i of each
    trial.  The product of the free shares is counted by its log to the base
    p - g, which generates [1, p - 1] (g has odd order q, -1 has order 2).
    """
    p = params.p
    shift = 8 - (p - 1).bit_length()
    share = bytes(((b >> shift) + 1) & 255 for b in range(256))
    rejected = bytes(b for b in range(256) if b >> shift >= p - 1)
    if j < n:
        hit = bytes(r - 1 in wins for r in range(256))
    else:
        root, log, power = p - params.g, bytearray(256), 1
        for e in range(p - 1):
            log[power], power = e, power * root % p
        hit = bytes(pow(root, e, p) in wins for e in range(256))
    successes, owed, carry = 0, trials * n, b""
    while owed > 0:
        w = min(CHUNK_WORDS, owed)
        got = rng.getrandbits(32 * w).to_bytes(4 * w, "little")[3::4].translate(share, rejected)
        owed -= len(got)
        block = carry + got
        m = len(block) // n
        block, carry = block[:m * n], block[m * n:]
        if j < n:
            successes += block[j::n].translate(hit).count(1)
            continue
        # logs add in 16-bit lanes of one int; adding 2^15 - (p - 1) sets
        # bit 15 of each lane that must drop p - 1
        lane, ones = bytearray(2 * m), int.from_bytes(b"\1\0" * m, "little")
        total = 0
        for i in range(n):
            lane[::2] = block[i::n].translate(log)
            total += int.from_bytes(lane, "little")
            total -= ((total + ones * (2**15 - p + 1)) >> 15 & ones) * (p - 1)
        successes += total.to_bytes(2 * m, "little")[::2].translate(hit).count(1)
    return successes


def _run(
    scenario: CollusionScenario,
    value: int,
    goal: str,
    winners: frozenset[int],
    replacement,
    trials: int | None,
) -> AttackOutcome:
    """One attack on ``value``; it succeeds when the reconstructed product
    lands in ``winners``."""
    v = require_unit(value, scenario.params, "split value")
    rng = Random(scenario.seed)
    rewrite = _resolve_rewrite(scenario, replacement, rng)
    p = scenario.params.p
    asymptotic = Fraction(len(winners), p)
    if trials is None:
        successes = _exhaust(scenario, v, winners, rewrite, rng)
        estimate = Fraction(successes, p - 1)
        return AttackOutcome(
            EXHAUSTIVE, goal, successes, p - 1, estimate, estimate, asymptotic, 0.0,
        )
    successes = _simulate(scenario, v, winners, rewrite, trials, rng)
    estimate = Fraction(successes, trials)
    rate = float(estimate)
    stderr = (rate * (1.0 - rate) / trials) ** 0.5
    return AttackOutcome(
        MONTE_CARLO, goal, successes, trials, estimate, None, asymptotic, stderr,
    )


def attack_targeted(
    scenario: CollusionScenario,
    value: int,
    target: int,
    replacement: int | None = None,
    trials: int | None = None,
) -> AttackOutcome:
    """Success probability of steering the product to one chosen value.

    ``trials=None`` enumerates exactly (small fields only); an integer runs
    that many Monte Carlo trials instead.  ``replacement`` fixes the
    rewritten share; ``None`` deals one from the scenario seed.
    """
    t = require_unit(target, scenario.params, "target")
    return _run(scenario, value, TARGETED, frozenset({t}), replacement, trials)


def attack_any_valid(
    scenario: CollusionScenario,
    value: int,
    signed_ballots: Sequence[int],
    replacement: int | None = None,
    trials: int | None = None,
) -> tuple[AttackOutcome, AttackOutcome]:
    """Success probabilities of landing on any signed ballot, and on any
    signed ballot other than the one actually cast."""
    v = require_unit(value, scenario.params, "split value")
    valid = frozenset(
        require_unit(ballot, scenario.params, "signed ballot")
        for ballot in signed_ballots
    )
    if len(valid) != len(signed_ballots):
        raise ScenarioError("signed ballot values must be distinct")
    if v not in valid:
        raise ScenarioError("the cast value must be one of the signed ballots")
    any_outcome = _run(scenario, value, ANY_VALID, valid, replacement, trials)
    other_outcome = _run(scenario, value, ANY_OTHER, valid - {v}, replacement, trials)
    return any_outcome, other_outcome
