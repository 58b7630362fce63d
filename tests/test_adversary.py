"""The share-rewrite attack rates, checked by exact enumeration."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitvote.adversary import (
    ANY_OTHER,
    ANY_VALID,
    CHUNK_WORDS,
    EXHAUSTIVE,
    MONTE_CARLO,
    TARGETED,
    AttackOutcome,
    CollusionScenario,
    _resolve_rewrite,
    _simulate,
    attack_any_valid,
    attack_targeted,
)
from splitvote.errors import DomainError, RegimeError, ScenarioError
from splitvote.modmath import MIN_PRIME, FieldParams, generate_params
from splitvote.sharing import split
from tests.oracles import sweep_image

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
        # no coalition of fewer than two servers is a nonempty proper subset
        for k, colluders in [(1, (0,)), (1, ()), (0, ())]:
            with pytest.raises(ScenarioError):
                scenario(field, k, colluders)

    def test_honest_and_rewritten(self, field):
        s = scenario(field, 4, (2, 0))
        assert s.rewritten == 0


class TestTargetedExact:
    def test_uniform_over_all_targets(self, field):
        s = scenario(field, 3, (0, 1))
        value = 8
        for target in ALL_TARGETS:
            outcome = attack_targeted(s, value, target)
            assert outcome.mode == EXHAUSTIVE
            assert outcome.goal == TARGETED
            assert outcome.exact == Fraction(1, 22)
            assert outcome.trials == 22
            assert outcome.successes == 1

    def test_every_coalition_every_k(self, field):
        # more colluders never help: the rate is 1/(p-1) for every proper
        # subset at every k
        for k in range(2, 6):
            value = 12
            target = 7
            for colluders in proper_subsets(k):
                s = scenario(field, k, colluders, seed=k)
                outcome = attack_targeted(s, value, target)
                assert outcome.exact == Fraction(1, 22), (k, colluders)

    def test_every_rewrite_constant(self, field):
        s = scenario(field, 2, (1,))
        value = 4
        target = 9
        for rewrite in ALL_TARGETS:
            outcome = attack_targeted(s, value, target, rewrite)
            assert outcome.exact == Fraction(1, 22)

    def test_every_cast_value(self, field):
        s = scenario(field, 3, (2,))
        for v in ALL_TARGETS:
            outcome = attack_targeted(s, v, 13)
            assert outcome.exact == Fraction(1, 22)

    def test_estimate_equals_exact_when_exhaustive(self, field):
        s = scenario(field, 2, (0,))
        outcome = attack_targeted(s, 2, 3)
        assert outcome.estimate == outcome.exact
        assert outcome.stderr == 0.0

    def test_asymptotic_rate_reported_beside_exact(self, field):
        s = scenario(field, 3, (1, 2))
        outcome = attack_targeted(s, 6, 6)
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
        signed = list((1, 2, 3, 4, 6)[:m])
        s = scenario(field, 3, (0, 2), seed=m)
        any_hit, other_hit = attack_any_valid(s, signed[0], signed)
        assert any_hit.goal == ANY_VALID
        assert other_hit.goal == ANY_OTHER
        assert any_hit.exact == Fraction(m, 22)
        assert other_hit.exact == Fraction(m - 1, 22)
        assert any_hit.asymptotic == Fraction(m, 23)
        assert other_hit.asymptotic == Fraction(m - 1, 23)

    def test_cast_value_must_be_on_sheet(self, field):
        signed = [2, 4]
        s = scenario(field, 2, (0,))
        with pytest.raises(ScenarioError):
            attack_any_valid(s, 9, signed)

    def test_rejects_duplicate_sheet(self, field):
        signed = [2, 2]
        s = scenario(field, 2, (0,))
        with pytest.raises(ScenarioError):
            attack_any_valid(s, 2, signed)


class TestSweepImage:
    def test_image_is_a_permutation(self, field):
        rng = random.Random(3)
        for size in range(0, 4):
            fixed = [rng.randrange(1, 23) for _ in range(size)]
            image = sweep_image(field, fixed)
            assert sorted(image) == list(range(1, 23))

    def test_zero_share_rejected(self, field):
        with pytest.raises(DomainError):
            sweep_image(field, [0])


class TestEquivalence:
    """k - 1 colluding servers against k - i, i of them honest: one unknown
    share already makes every reconstruction equally reachable."""

    @pytest.mark.parametrize("k,i", [(2, 1), (3, 1), (3, 2), (5, 2), (5, 4)])
    def test_smaller_coalitions_do_no_worse(self, field, k, i):
        rng = random.Random(9)
        value, target = rng.randrange(1, 23), rng.randrange(1, 23)
        large = scenario(field, k, range(k - 1), seed=9)
        small = scenario(field, k, range(k - i), seed=9)
        assert attack_targeted(large, value, target).exact == Fraction(1, 22)
        assert attack_targeted(small, value, target).exact == Fraction(1, 22)
        fixed = [rng.randrange(1, 23) for _ in range(k - 1)]
        assert sorted(sweep_image(field, fixed)) == list(range(1, 23))

    def test_honest_count_bounds(self, field):
        # i = 0 leaves every server colluding, i = k none
        for i in (0, 3):
            with pytest.raises(ScenarioError):
                scenario(field, 3, range(3 - i))

    def test_large_field_refused(self):
        params = generate_params(31, random.Random(1))
        with pytest.raises(RegimeError):
            attack_targeted(CollusionScenario(params, 3, (0, 1)), 4, 9)


class TestMonteCarlo:
    def test_matches_exact_rate_at_large_field(self):
        params = generate_params(31, random.Random(1))
        s = CollusionScenario(params, 4, (0, 3), seed=5)
        value = 2 * 2 % params.p
        target = 3 * 3 % params.p
        trials = 20_000
        outcome = attack_targeted(s, value, target, trials=trials)
        assert outcome.mode == MONTE_CARLO
        assert outcome.exact is None
        true_rate = 1.0 / (params.p - 1)
        band = 3.0 * (true_rate * (1.0 - true_rate) / trials) ** 0.5
        assert abs(float(outcome.estimate) - true_rate) <= band

    def test_small_field_agrees_with_enumeration(self, field):
        s = scenario(field, 3, (1,), seed=2)
        value = 3
        target = 16
        exact = attack_targeted(s, value, target).exact
        mc = attack_targeted(s, value, target, trials=40_000)
        assert abs(float(mc.estimate) - float(exact)) <= 3 * mc.stderr
        assert mc.stderr > 0.0
        assert "stderr=" in mc.to_record()

    def test_deterministic_under_seed(self, field):
        s = scenario(field, 3, (0,), seed=8)
        a = attack_targeted(s, 6, 5, trials=500)
        b = attack_targeted(s, 6, 5, trials=500)
        assert a == b

    def test_rejects_zero_trials(self, field):
        s = scenario(field, 2, (0,))
        with pytest.raises(ScenarioError):
            attack_targeted(s, 2, 3, trials=0)


class TestArgumentChecks:
    def test_exhaustive_refuses_large_field(self):
        params = generate_params(31, random.Random(1))
        s = CollusionScenario(params, 2, (0,))
        with pytest.raises(RegimeError):
            attack_targeted(s, 4, 9)

    def test_zero_value_rejected(self, field):
        s = scenario(field, 2, (0,))
        with pytest.raises(DomainError):
            attack_targeted(s, 0, 3)
        with pytest.raises(DomainError):
            attack_targeted(s, 3, 0)

    def test_cross_field_rejected(self, field):
        # a value from another field is an int outside [1, p-1] here
        s = scenario(field, 2, (0,))
        for outside in (0, 23, -1):
            for value, target, replacement in ((outside, 3, 5), (3, outside, 5), (3, 4, outside)):
                with pytest.raises(DomainError, match=r"\[1, p-1\]"):
                    attack_targeted(s, value, target, replacement)

    def test_outcome_is_frozen(self, field):
        s = scenario(field, 2, (0,))
        outcome = attack_targeted(s, 2, 3)
        assert isinstance(outcome, AttackOutcome)
        with pytest.raises(AttributeError):
            outcome.successes = 5


# The trial loop as it was before it drew shares with getrandbits: one
# randrange per share, the forced share completed, the rewritten coordinate
# divided back out and the product handed to a predicate.  It is the oracle
# the fast loop must match in successes and in the generator state it leaves.


def oracle_complete_values(value, leading, p):
    prod = 1
    for r in leading:
        prod = prod * r % p
    return (*leading, value * pow(prod, -1, p) % p)


def oracle_final_product(value, rewrite, original, p):
    return value * rewrite * pow(original, -1, p) % p


def oracle_simulate(scenario, value, predicate, rewrite, trials, rng):
    if trials < 1:
        raise ScenarioError("need at least one trial")
    p = scenario.params.p
    k = scenario.k
    j = scenario.rewritten
    successes = 0
    for _ in range(trials):
        leading = [rng.randrange(1, p) for _ in range(k - 1)]
        original = oracle_complete_values(value, leading, p)[j]
        if predicate(oracle_final_product(value, rewrite, original, p)):
            successes += 1
    return successes, trials


def assert_matches_oracle(s, value, winners, replacement, trials):
    old_rng = random.Random(s.seed)
    old_rewrite = _resolve_rewrite(s, replacement, old_rng)
    expected = oracle_simulate(
        s, value, lambda f: f in winners, old_rewrite, trials, old_rng
    )
    rng = random.Random(s.seed)
    rewrite = _resolve_rewrite(s, replacement, rng)
    assert (_simulate(s, value, frozenset(winners), rewrite, trials, rng), trials) == expected
    assert rng.getstate() == old_rng.getstate()


SHEET = frozenset({1, 2, 3, 4, 6})
CAST = 3


class TestTrialLoopOracle:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_every_rewritten_index_at_p23(self, field, k):
        # the forced k-th share and each free share, under every kind of
        # rewrite and every goal's winning set
        for j in range(k):
            s = scenario(field, k, (j,), seed=10 * k + j)
            for replacement in (None, 5, 22):
                goals = [{t} for t in ALL_TARGETS] + [SHEET, SHEET - {CAST}]
                for winners in goals:
                    assert_matches_oracle(s, CAST, winners, replacement, 150)

    def test_first_trial_draws_the_leading_shares_of_split(self, field):
        for k in range(2, 6):
            for seed in range(20):
                shares = split(CAST, k, field, random.Random(seed))
                for j in range(k):
                    s = scenario(field, k, (j,), seed=seed)
                    # the one product that rewrites share j of that split
                    # to 9: the trial wins exactly when it drew the same split
                    hit = CAST * 9 * pow(shares[j], -1, 23) % 23
                    miss = hit % 22 + 1
                    rng = random.Random(seed)
                    assert _simulate(s, CAST, frozenset({hit}), 9, 1, rng) == 1
                    split_rng = random.Random(seed)
                    split(CAST, k, field, split_rng)
                    assert rng.getstate() == split_rng.getstate()
                    rng = random.Random(seed)
                    assert _simulate(s, CAST, frozenset({miss}), 9, 1, rng) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(8, 64), st.integers(0, 2**32 - 1), st.data())
def test_trial_loop_matches_oracle_on_random_fields(bits, seed, data):
    # above 32 bits each getrandbits call takes two words of the generator
    params = generate_params(bits, random.Random(seed))
    p = params.p
    k = data.draw(st.integers(2, 5))
    size = data.draw(st.integers(1, k - 1))
    colluders = data.draw(st.permutations(range(k)))[:size]
    s = CollusionScenario(params, k, tuple(colluders), seed)
    value = data.draw(st.integers(1, p - 1))
    replacement = data.draw(
        st.one_of(st.none(), st.integers(1, p - 1))
    )
    trials = data.draw(st.integers(1, 200))
    # some products the oracle's own trials reach, so a large field still
    # has successes to count
    rng = random.Random(seed)
    rewrite = _resolve_rewrite(s, replacement, rng)
    reached = []
    oracle_simulate(s, value, lambda f: reached.append(f), rewrite, trials, rng)
    winners = set(data.draw(st.lists(st.sampled_from(reached), max_size=3)))
    winners |= set(data.draw(st.lists(st.integers(1, p - 1), max_size=3)))
    assert_matches_oracle(s, value, winners, replacement, trials)


class TestGeneratorFacts:
    """The CPython generator facts both trial paths rely on.  A Python that
    changes one fails here, not deep inside the oracle tests."""

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 1000])
    def test_a_wide_draw_is_its_words_first_word_least_significant(self, n):
        wide, words = random.Random(n), random.Random(n)
        expected = sum(words.getrandbits(32) << (32 * i) for i in range(n))
        assert wide.getrandbits(32 * n) == expected
        assert wide.getstate() == words.getstate()

    def test_a_narrow_draw_is_the_top_of_one_word(self):
        for b in range(1, 33):
            narrow, words = random.Random(b), random.Random(b)
            for _ in range(100):
                assert narrow.getrandbits(b) == words.getrandbits(32) >> (32 - b)
            assert narrow.getstate() == words.getstate()

    @pytest.mark.parametrize("p", [17, 23, 227, 257, 263, 4007, 2**31 - 1, 2**61 - 1])
    def test_randrange_redraws_getrandbits_below_p_minus_one(self, p):
        drawn, words = random.Random(p), random.Random(p)
        bits = (p - 1).bit_length()
        for _ in range(500):
            r = words.getrandbits(bits)
            while r >= p - 1:
                r = words.getrandbits(bits)
            assert drawn.randrange(1, p) == r + 1
        assert drawn.getstate() == words.getstate()


# every safe prime with p - 1 < 256, whose trials take the byte path, and
# the first safe prime above them, whose trials take the loop
BYTE_PATH_PRIMES = (23, 47, 59, 83, 107, 167, 179, 227)
LOOP_PRIME = 263


def small_field(p):
    return FieldParams(p, (p - 1) // 2, 4)


class DrawLog(random.Random):
    """A generator that records the width of every ``getrandbits`` call."""

    def __init__(self, seed):
        super().__init__(seed)
        self.widths = []

    def getrandbits(self, k):
        self.widths.append(k)
        return super().getrandbits(k)


class TestBytePath:
    def test_the_primes_are_every_safe_prime_up_to_the_loop(self):
        def prime(n):
            return n > 1 and all(n % d for d in range(2, n))

        safe = [p for p in range(MIN_PRIME, LOOP_PRIME + 1) if prime(p) and prime(p // 2)]
        assert safe == [*BYTE_PATH_PRIMES, LOOP_PRIME]

    @pytest.mark.parametrize("p", BYTE_PATH_PRIMES + (LOOP_PRIME,))
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 12])
    def test_every_rewritten_index_and_goal(self, p, k):
        # runs whose last chunks are a few words, besides a few hundred
        # trials; the largest sheet a field allows has q ballots
        for j in range(k):
            s = CollusionScenario(small_field(p), k, (j,), seed=p * k + j)
            for winners in ({7}, SHEET, SHEET - {CAST}, set(range(2, p, 2))):
                for trials in (1, 2, 3, 10, 300):
                    assert_matches_oracle(s, CAST, winners, None, trials)

    def test_chunks_with_no_rejected_word(self):
        # at p = 227 seven words in eight are shares, so some seeds draw a
        # first chunk of shares only; a chunk one word longer would take a
        # word the single calls never take
        for seed in range(1000):
            s = CollusionScenario(small_field(227), 2, (1,), seed)
            assert_matches_oracle(s, CAST, {7}, 5, 33)

    @pytest.mark.parametrize("p", BYTE_PATH_PRIMES)
    def test_runs_over_several_chunks(self, p):
        trials = 20_011
        assert trials * 2 > 2 * CHUNK_WORDS
        for j in (0, 1, 2):
            s = CollusionScenario(small_field(p), 3, (j,), seed=p + j)
            for winners in ({7}, SHEET):
                assert_matches_oracle(s, CAST, winners, 5, trials)

    @pytest.mark.parametrize("p", BYTE_PATH_PRIMES + (LOOP_PRIME,))
    def test_the_path_follows_the_field(self, p):
        s = CollusionScenario(small_field(p), 3, (0, 2), seed=1)
        rng = DrawLog(1)
        _simulate(s, CAST, frozenset({7}), 5, 1000, rng)
        bits = (p - 1).bit_length()
        if p - 1 < 256:
            assert max(rng.widths) > 32
        else:
            assert set(rng.widths) == {bits}


@settings(max_examples=60, deadline=None)
@given(st.integers(5, 8), st.integers(0, 2**32 - 1), st.data())
def test_byte_path_matches_oracle_on_random_small_fields(bits, seed, data):
    # every field of 5 to 8 bits has p - 1 < 256
    params = generate_params(bits, random.Random(seed))
    p = params.p
    k = data.draw(st.integers(2, 5))
    size = data.draw(st.integers(1, k - 1))
    colluders = data.draw(st.permutations(range(k)))[:size]
    s = CollusionScenario(params, k, tuple(colluders), seed)
    value = data.draw(st.integers(1, p - 1))
    replacement = data.draw(st.one_of(st.none(), st.integers(1, p - 1)))
    winners = set(data.draw(st.lists(st.integers(1, p - 1), min_size=1, max_size=5)))
    trials = data.draw(st.integers(1, 400))
    assert_matches_oracle(s, value, winners, replacement, trials)
