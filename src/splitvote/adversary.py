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
from typing import Callable, Sequence

from .errors import DomainError, RegimeError, ScenarioError
from .modmath import FieldElement, FieldParams
from .sharing import EXHAUSTIVE_FIELD_LIMIT, _complete_values

TARGETED = "targeted"
ANY_VALID = "any-valid"
ANY_OTHER = "any-other"
EXHAUSTIVE = "exhaustive"
MONTE_CARLO = "monte-carlo"

# strategy sentinel: leave the stored share untouched
KEEP = "keep"


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
    def honest(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.k) if i not in self.colluders)

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


def _resolve_rewrite(scenario, replacement, rng) -> int | str:
    if isinstance(replacement, str):
        if replacement != KEEP:
            raise ScenarioError(f"unknown rewrite strategy {replacement!r}")
        return KEEP
    if replacement is None:
        return rng.randrange(1, scenario.params.p)
    return _check_value(replacement, scenario.params, "replacement share")


def _final_product(value: int, rewrite: int | str, original: int, p: int) -> int:
    """Reconstructed product after the rewrite: the original coordinate is
    divided back out, so the result depends on the split only through it."""
    if rewrite == KEEP:
        return value
    return value * rewrite * pow(original, -1, p) % p


def _exhaust(scenario, value, predicate, rewrite, rng) -> tuple[int, int]:
    params = scenario.params
    p = params.p
    if p > EXHAUSTIVE_FIELD_LIMIT:
        raise RegimeError(f"field too large to enumerate (p > {EXHAUSTIVE_FIELD_LIMIT})")
    j = scenario.rewritten
    # sweep the rewritten coordinate itself, or any free coordinate when the
    # rewritten one is the forced k-th share; either way the rewritten
    # coordinate's original value is a bijection of the sweep variable
    sweep = j if j < scenario.k - 1 else 0
    constants = {
        i: rng.randrange(1, p) for i in range(scenario.k - 1) if i != sweep
    }
    successes = 0
    for u in range(1, p):
        free = dict(constants)
        free[sweep] = u
        prod_free = 1
        for share in free.values():
            prod_free = prod_free * share % p
        forced = value * pow(prod_free, -1, p) % p
        original = free[j] if j < scenario.k - 1 else forced
        if predicate(_final_product(value, rewrite, original, p)):
            successes += 1
    return successes, p - 1


def _simulate(scenario, value, predicate, rewrite, trials, rng) -> tuple[int, int]:
    if trials < 1:
        raise ScenarioError("need at least one trial")
    p = scenario.params.p
    k = scenario.k
    j = scenario.rewritten
    successes = 0
    # the draws of ``split`` on plain ints: k >= 2 and value != 0 are
    # already checked, so no FieldElement is built per trial
    for _ in range(trials):
        leading = [rng.randrange(1, p) for _ in range(k - 1)]
        original = _complete_values(value, leading, p)[j]
        if predicate(_final_product(value, rewrite, original, p)):
            successes += 1
    return successes, trials


def _run(
    scenario: CollusionScenario,
    value: FieldElement,
    goal: str,
    predicate: Callable[[int], bool],
    hits: int,
    replacement,
    trials: int | None,
) -> AttackOutcome:
    v = _check_value(value, scenario.params, "split value")
    rng = Random(scenario.seed)
    rewrite = _resolve_rewrite(scenario, replacement, rng)
    if trials is None:
        successes, total = _exhaust(scenario, v, predicate, rewrite, rng)
        estimate = Fraction(successes, total)
        return AttackOutcome(
            EXHAUSTIVE, goal, successes, total, estimate, estimate,
            Fraction(hits, scenario.params.p), 0.0,
        )
    successes, total = _simulate(scenario, v, predicate, rewrite, trials, rng)
    estimate = Fraction(successes, total)
    rate = float(estimate)
    stderr = (rate * (1.0 - rate) / total) ** 0.5
    return AttackOutcome(
        MONTE_CARLO, goal, successes, total, estimate, None,
        Fraction(hits, scenario.params.p), stderr,
    )


def attack_targeted(
    scenario: CollusionScenario,
    value: FieldElement,
    target: FieldElement,
    replacement: FieldElement | str | None = None,
    trials: int | None = None,
) -> AttackOutcome:
    """Success probability of steering the product to one chosen value.

    ``trials=None`` enumerates exactly (small fields only); an integer runs
    that many Monte Carlo trials instead.  ``replacement`` fixes the
    rewritten share, ``None`` deals one from the scenario seed, and KEEP
    leaves the stored share alone (so success means target == value).
    """
    t = _check_value(target, scenario.params, "target")
    return _run(scenario, value, TARGETED, lambda f: f == t, 1, replacement, trials)


def attack_any_valid(
    scenario: CollusionScenario,
    value: FieldElement,
    signed_ballots: Sequence[FieldElement],
    replacement: FieldElement | str | None = None,
    trials: int | None = None,
) -> tuple[AttackOutcome, AttackOutcome]:
    """Success probabilities of landing on any signed ballot, and on any
    signed ballot other than the one actually cast."""
    v = _check_value(value, scenario.params, "split value")
    valid = {
        _check_value(ballot, scenario.params, "signed ballot")
        for ballot in signed_ballots
    }
    if len(valid) != len(signed_ballots):
        raise ScenarioError("signed ballot values must be distinct")
    if v not in valid:
        raise ScenarioError("the cast value must be one of the signed ballots")
    other = valid - {v}
    any_outcome = _run(
        scenario, value, ANY_VALID, lambda f: f in valid, len(valid), replacement, trials
    )
    other_outcome = _run(
        scenario, value, ANY_OTHER, lambda f: f in other, len(other), replacement, trials
    )
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
    if params.p > EXHAUSTIVE_FIELD_LIMIT:
        raise RegimeError(f"field too large to enumerate (p > {EXHAUSTIVE_FIELD_LIMIT})")
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
