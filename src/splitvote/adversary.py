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

from .errors import DomainError, RegimeError, ScenarioError
from .modmath import FieldElement, FieldParams
from .sharing import EXHAUSTIVE_FIELD_LIMIT

TARGETED = "targeted"
ANY_VALID = "any-valid"
ANY_OTHER = "any-other"
EXHAUSTIVE = "exhaustive"
MONTE_CARLO = "monte-carlo"


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
        if self.k < 2:
            raise ScenarioError("need at least two shares to attack")
        if not self.colluders:
            raise ScenarioError("need at least one colluding server")
        if len(set(self.colluders)) != len(self.colluders):
            raise ScenarioError("colluder indices must be distinct")
        if any(not 0 <= i < self.k for i in self.colluders):
            raise ScenarioError(f"colluder indices must lie in [0, {self.k})")
        if len(self.colluders) == self.k:
            raise ScenarioError("with every server colluding there is no secret left")

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


def _check_value(value: FieldElement, params: FieldParams, label: str) -> int:
    if value.params != params:
        raise DomainError(f"{label} belongs to a different field")
    if value.value == 0:
        raise DomainError(f"{label} must be nonzero")
    return value.value


def _resolve_rewrite(scenario, replacement, rng) -> int:
    if replacement is None:
        return rng.randrange(1, scenario.params.p)
    return _check_value(replacement, scenario.params, "replacement share")


def check_enumerable(p: int) -> None:
    """Refuse an exact count over a field too large to sweep."""
    if p > EXHAUSTIVE_FIELD_LIMIT:
        raise RegimeError(f"field too large to enumerate (p > {EXHAUSTIVE_FIELD_LIMIT})")


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
    winning values of that one coordinate are found before the loop.
    """
    if trials < 1:
        raise ScenarioError("need at least one trial")
    p = scenario.params.p
    k = scenario.k
    j = scenario.rewritten
    bound = p - 1
    bits = bound.bit_length()
    draw = rng.getrandbits
    successes = 0
    if j == k - 1:
        inverse = pow(rewrite, -1, p)
        wins = frozenset(w * inverse % p for w in winners)
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
    # winning shares r, less one: the raw draw is tested as it comes
    wins = frozenset(value * rewrite * pow(w, -1, p) % p - 1 for w in winners)
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


def _run(
    scenario: CollusionScenario,
    value: FieldElement,
    goal: str,
    winners: frozenset[int],
    replacement,
    trials: int | None,
) -> AttackOutcome:
    """One attack on ``value``; it succeeds when the reconstructed product
    lands in ``winners``."""
    v = _check_value(value, scenario.params, "split value")
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
    value: FieldElement,
    target: FieldElement,
    replacement: FieldElement | None = None,
    trials: int | None = None,
) -> AttackOutcome:
    """Success probability of steering the product to one chosen value.

    ``trials=None`` enumerates exactly (small fields only); an integer runs
    that many Monte Carlo trials instead.  ``replacement`` fixes the
    rewritten share; ``None`` deals one from the scenario seed.
    """
    t = _check_value(target, scenario.params, "target")
    return _run(scenario, value, TARGETED, frozenset({t}), replacement, trials)


def attack_any_valid(
    scenario: CollusionScenario,
    value: FieldElement,
    signed_ballots: Sequence[FieldElement],
    replacement: FieldElement | None = None,
    trials: int | None = None,
) -> tuple[AttackOutcome, AttackOutcome]:
    """Success probabilities of landing on any signed ballot, and on any
    signed ballot other than the one actually cast."""
    v = _check_value(value, scenario.params, "split value")
    valid = frozenset(
        _check_value(ballot, scenario.params, "signed ballot")
        for ballot in signed_ballots
    )
    if len(valid) != len(signed_ballots):
        raise ScenarioError("signed ballot values must be distinct")
    if v not in valid:
        raise ScenarioError("the cast value must be one of the signed ballots")
    any_outcome = _run(scenario, value, ANY_VALID, valid, replacement, trials)
    other_outcome = _run(scenario, value, ANY_OTHER, valid - {v}, replacement, trials)
    return any_outcome, other_outcome


def sweep_image(params: FieldParams, fixed_shares: Sequence[FieldElement]) -> list[int]:
    """Products u * prod(fixed) as u sweeps [1, p - 1].

    The image being a permutation of [1, p - 1] is the bijection behind the
    exact counts: one unknown coordinate already makes every reconstruction
    equally reachable.
    """
    base = 1
    for share in fixed_shares:
        base = base * _check_value(share, params, "fixed share") % params.p
    return [base * u % params.p for u in range(1, params.p)]


@dataclass(frozen=True)
class EquivalenceReport:
    """Exact attack rates for a maximal and a smaller colluding set."""

    k: int
    sizes: tuple[int, int]
    rate_large: Fraction
    rate_small: Fraction
    equivalent: bool
    bijection_holds: bool


def collusion_equivalence(
    params: FieldParams, k: int, i: int, seed: int = 0
) -> EquivalenceReport:
    """Compare k - 1 colluding servers against k - i on the same attack.

    Holding fewer shares leaves more coordinates unknown, but one unknown
    coordinate already randomizes the product completely, so both rates come
    out at exactly 1/(p - 1); ``i`` picks how many servers stay honest in the
    smaller coalition and must lie in [1, k - 1].
    """
    if k < 2:
        raise ScenarioError("need at least two shares")
    if not 1 <= i <= k - 1:
        raise ScenarioError(f"honest count must lie in [1, {k - 1}]")
    check_enumerable(params.p)
    rng = Random(seed)
    value = params.element(rng.randrange(1, params.p))
    target = params.element(rng.randrange(1, params.p))
    large = CollusionScenario(params, k, tuple(range(k - 1)), seed)
    small = CollusionScenario(params, k, tuple(range(k - i)), seed)
    rate_large = attack_targeted(large, value, target).exact
    rate_small = attack_targeted(small, value, target).exact
    fixed = [params.element(rng.randrange(1, params.p)) for _ in range(k - 1)]
    image = sweep_image(params, fixed)
    bijection = sorted(image) == list(range(1, params.p))
    return EquivalenceReport(
        k, (k - 1, k - i), rate_large, rate_small,
        rate_large == rate_small, bijection,
    )
