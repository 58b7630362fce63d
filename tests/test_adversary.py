"""The share-rewrite attack rates, checked by exact enumeration."""

import itertools
import random
from fractions import Fraction

import pytest

from splitvote.adversary import (
    ANY_OTHER,
    ANY_VALID,
    EXHAUSTIVE,
    KEEP,
    MONTE_CARLO,
    TARGETED,
    AttackOutcome,
    CollusionScenario,
    attack_any_valid,
    attack_targeted,
    collusion_equivalence,
    sweep_image,
)
from splitvote.errors import DomainError, RegimeError, ScenarioError
from splitvote.modmath import FieldParams, generate_params

# every nonzero residue is a possible reconstruction, so targets need not be
# squares
ALL_TARGETS = range(1, 23)


def scenario(field, k, colluders, seed=0):
    return CollusionScenario(field, k, tuple(colluders), seed)


def proper_subsets(k):
    for size in range(1, k):
        yield from itertools.combinations(range(k), size)


class TestScenarioValidation:
    def test_rejects_full_collusion(self, field):
        with pytest.raises(ScenarioError):
            scenario(field, 3, (0, 1, 2))

    def test_rejects_empty(self, field):
        with pytest.raises(ScenarioError):
            scenario(field, 3, ())

    def test_rejects_duplicates(self, field):
        with pytest.raises(ScenarioError):
            scenario(field, 3, (1, 1))

    def test_rejects_out_of_range_index(self, field):
        with pytest.raises(ScenarioError):
            scenario(field, 3, (3,))

    def test_rejects_single_share(self, field):
        with pytest.raises(ScenarioError):
            scenario(field, 1, (0,))

    def test_honest_and_rewritten(self, field):
        s = scenario(field, 4, (2, 0))
        assert s.honest == (1, 3)
        assert s.rewritten == 0


class TestTargetedExact:
    def test_uniform_over_all_targets(self, field):
        s = scenario(field, 3, (0, 1))
        value = field.element(8)
        for target in ALL_TARGETS:
            outcome = attack_targeted(s, value, field.element(target))
            assert outcome.mode == EXHAUSTIVE
            assert outcome.goal == TARGETED
            assert outcome.exact == Fraction(1, 22)
            assert outcome.trials == 22
            assert outcome.successes == 1

    def test_every_coalition_every_k(self, field):
        # more colluders never help: the rate is 1/(p-1) for every proper
        # subset at every k
        for k in range(2, 6):
            value = field.element(12)
            target = field.element(7)
            for colluders in proper_subsets(k):
                s = scenario(field, k, colluders, seed=k)
                outcome = attack_targeted(s, value, target)
                assert outcome.exact == Fraction(1, 22), (k, colluders)

    def test_every_rewrite_constant(self, field):
        s = scenario(field, 2, (1,))
        value = field.element(4)
        target = field.element(9)
        for rewrite in ALL_TARGETS:
            outcome = attack_targeted(s, value, target, field.element(rewrite))
            assert outcome.exact == Fraction(1, 22)

    def test_every_cast_value(self, field):
        s = scenario(field, 3, (2,))
        for v in ALL_TARGETS:
            outcome = attack_targeted(s, field.element(v), field.element(13))
            assert outcome.exact == Fraction(1, 22)

    def test_keep_strategy_changes_nothing(self, field):
        s = scenario(field, 3, (0, 1))
        value = field.element(8)
        hit = attack_targeted(s, value, value, KEEP)
        assert hit.exact == Fraction(1)
        miss = attack_targeted(s, value, field.element(9), KEEP)
        assert miss.exact == Fraction(0)

    def test_estimate_equals_exact_when_exhaustive(self, field):
        s = scenario(field, 2, (0,))
        outcome = attack_targeted(s, field.element(2), field.element(3))
        assert outcome.estimate == outcome.exact
        assert outcome.stderr == 0.0

    def test_asymptotic_rate_reported_beside_exact(self, field):
        s = scenario(field, 3, (1, 2))
        outcome = attack_targeted(s, field.element(6), field.element(6))
        assert outcome.exact == Fraction(1, 22)
        assert outcome.asymptotic == Fraction(1, 23)
        record = outcome.to_record()
        assert "exact=1/22" in record
        assert "asymptotic=1/23" in record
        assert record.startswith("mode=exhaustive goal=targeted")


class TestAnyValidExact:
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_rates_scale_with_sheet_size(self, field, m):
        # distinct squares standing in for signed ballots
        signed = [field.element(v) for v in (1, 2, 3, 4, 6)[:m]]
        s = scenario(field, 3, (0, 2), seed=m)
        any_hit, other_hit = attack_any_valid(s, signed[0], signed)
        assert any_hit.goal == ANY_VALID
        assert other_hit.goal == ANY_OTHER
        assert any_hit.exact == Fraction(m, 22)
        assert other_hit.exact == Fraction(m - 1, 22)
        assert any_hit.asymptotic == Fraction(m, 23)
        assert other_hit.asymptotic == Fraction(m - 1, 23)

    def test_cast_value_must_be_on_sheet(self, field):
        signed = [field.element(v) for v in (2, 4)]
        s = scenario(field, 2, (0,))
        with pytest.raises(ScenarioError):
            attack_any_valid(s, field.element(9), signed)

    def test_rejects_duplicate_sheet(self, field):
        signed = [field.element(2), field.element(2)]
        s = scenario(field, 2, (0,))
        with pytest.raises(ScenarioError):
            attack_any_valid(s, field.element(2), signed)


class TestSweepImage:
    def test_image_is_a_permutation(self, field):
        rng = random.Random(3)
        for size in range(0, 4):
            fixed = [field.element(rng.randrange(1, 23)) for _ in range(size)]
            image = sweep_image(field, fixed)
            assert sorted(image) == list(range(1, 23))

    def test_zero_share_rejected(self, field):
        with pytest.raises(DomainError):
            sweep_image(field, [field.element(0)])


class TestEquivalence:
    @pytest.mark.parametrize("k,i", [(2, 1), (3, 1), (3, 2), (5, 2), (5, 4)])
    def test_smaller_coalitions_do_no_worse(self, field, k, i):
        report = collusion_equivalence(field, k, i, seed=9)
        assert report.sizes == (k - 1, k - i)
        assert report.rate_large == Fraction(1, 22)
        assert report.rate_small == Fraction(1, 22)
        assert report.equivalent
        assert report.bijection_holds

    def test_honest_count_bounds(self, field):
        with pytest.raises(ScenarioError):
            collusion_equivalence(field, 3, 0)
        with pytest.raises(ScenarioError):
            collusion_equivalence(field, 3, 3)

    def test_large_field_refused(self):
        params = generate_params(31, random.Random(1))
        with pytest.raises(RegimeError):
            collusion_equivalence(params, 3, 1)


class TestMonteCarlo:
    def test_matches_exact_rate_at_large_field(self):
        params = generate_params(31, random.Random(1))
        s = CollusionScenario(params, 4, (0, 3), seed=5)
        value = params.element(2 * 2 % params.p)
        target = params.element(3 * 3 % params.p)
        trials = 20_000
        outcome = attack_targeted(s, value, target, trials=trials)
        assert outcome.mode == MONTE_CARLO
        assert outcome.exact is None
        true_rate = 1.0 / (params.p - 1)
        band = 3.0 * (true_rate * (1.0 - true_rate) / trials) ** 0.5
        assert abs(float(outcome.estimate) - true_rate) <= band

    def test_small_field_agrees_with_enumeration(self, field):
        s = scenario(field, 3, (1,), seed=2)
        value = field.element(3)
        target = field.element(16)
        exact = attack_targeted(s, value, target).exact
        mc = attack_targeted(s, value, target, trials=40_000)
        assert abs(float(mc.estimate) - float(exact)) <= 3 * mc.stderr
        assert mc.stderr > 0.0
        assert "stderr=" in mc.to_record()

    def test_deterministic_under_seed(self, field):
        s = scenario(field, 3, (0,), seed=8)
        a = attack_targeted(s, field.element(6), field.element(5), trials=500)
        b = attack_targeted(s, field.element(6), field.element(5), trials=500)
        assert a == b

    def test_rejects_zero_trials(self, field):
        s = scenario(field, 2, (0,))
        with pytest.raises(ScenarioError):
            attack_targeted(s, field.element(2), field.element(3), trials=0)


class TestArgumentChecks:
    def test_exhaustive_refuses_large_field(self):
        params = generate_params(31, random.Random(1))
        s = CollusionScenario(params, 2, (0,))
        with pytest.raises(RegimeError):
            attack_targeted(s, params.element(4), params.element(9))

    def test_zero_value_rejected(self, field):
        s = scenario(field, 2, (0,))
        with pytest.raises(DomainError):
            attack_targeted(s, field.element(0), field.element(3))
        with pytest.raises(DomainError):
            attack_targeted(s, field.element(3), field.element(0))

    def test_cross_field_rejected(self, field):
        other = FieldParams(47, 23, 4)
        s = scenario(field, 2, (0,))
        with pytest.raises(DomainError):
            attack_targeted(s, other.element(4), field.element(3))

    def test_unknown_strategy_string(self, field):
        s = scenario(field, 2, (0,))
        with pytest.raises(ScenarioError):
            attack_targeted(s, field.element(2), field.element(3), "swap")

    def test_outcome_is_frozen(self, field):
        s = scenario(field, 2, (0,))
        outcome = attack_targeted(s, field.element(2), field.element(3))
        assert isinstance(outcome, AttackOutcome)
        with pytest.raises(AttributeError):
            outcome.successes = 5
