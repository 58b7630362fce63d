import itertools
import random

import pytest

from splitvote.errors import DomainError, ParameterError, RegimeError
from splitvote.modmath import FIXTURE_FIELD, generate_params
from splitvote.sharing import complete_split, reconstruct, split
from tests.conftest import ScriptedRandom
from tests.oracles import marginal_distribution


def test_split_worked_example(field):
    # leading draws 2 and 4 force the final share to 8 * inv(8) = 1
    shares = split(8, 3, field, ScriptedRandom([2, 4]))
    assert shares == (2, 4, 1)
    assert reconstruct(shares, field) == 8


def test_reconstruct_worked_example(field):
    assert reconstruct((22, 22), field) == 1  # 484 mod 23


def test_round_trip_all_values_and_sizes(field):
    rng = random.Random(41)
    for v in range(1, 23):
        for k in range(2, 7):
            shares = split(v, k, field, rng)
            assert len(shares) == k
            assert all(s != 0 for s in shares)
            assert reconstruct(shares, field) == v


def test_round_trip_exhaustive_over_all_randomness(field):
    # every one of the 484 leading pairs at k = 3
    for v in (8, 1, 22):
        for r1, r2 in itertools.product(range(1, 23), repeat=2):
            shares = complete_split(v, (r1, r2), field)
            assert reconstruct(shares, field) == v


def test_round_trip_at_a_larger_field():
    params = generate_params(32, random.Random(6))
    rng = random.Random(7)
    for _ in range(200):
        value = rng.randrange(1, params.p)
        assert reconstruct(split(value, 4, params, rng), params) == value


def test_split_rejects_zero_value(field):
    with pytest.raises(DomainError):
        split(0, 3, field, random.Random(0))


def test_split_rejects_k_below_two(field):
    with pytest.raises(ParameterError):
        split(5, 1, field, random.Random(0))


def test_complete_split_rejects_out_of_range_leading(field):
    with pytest.raises(DomainError):
        complete_split(5, (0, 4), field)
    with pytest.raises(DomainError):
        complete_split(5, (23, 4), field)


def test_complete_split_rejects_out_of_range_values(field):
    for value in (0, 23, 5 + 23, -5):
        with pytest.raises(DomainError):
            complete_split(value, (2, 4), field)


def test_shares_are_never_zero_exhaustively(field):
    for v in range(1, 23):
        for r1, r2 in itertools.product(range(1, 23), repeat=2):
            shares = complete_split(v, (r1, r2), field)
            assert all(s != 0 for s in shares)


def test_first_share_marginal_is_uniform(field):
    table = marginal_distribution(8, 3, (0,), field)
    assert set(table) == {(v,) for v in range(1, 23)}
    assert all(count == 22 for count in table.values())


def test_forced_share_marginal_is_uniform(field):
    table = marginal_distribution(8, 3, (2,), field)
    assert set(table) == {(v,) for v in range(1, 23)}
    assert all(count == 22 for count in table.values())


def test_proper_subsets_reveal_nothing_about_the_secret(field):
    # joint distribution of any proper subset is the same for every secret
    for positions in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
        baseline = marginal_distribution(1, 3, positions, field)
        for v in range(2, 23):
            assert marginal_distribution(v, 3, positions, field) == baseline


def test_full_share_set_depends_on_the_secret(field):
    # sanity check that the hiding property is about proper subsets only
    a = {
        complete_split(4, (r1, r2), field)
        for r1, r2 in itertools.product(range(1, 23), repeat=2)
    }
    b = {
        complete_split(9, (r1, r2), field)
        for r1, r2 in itertools.product(range(1, 23), repeat=2)
    }
    assert a != b


def test_marginal_distribution_argument_checks(field):
    with pytest.raises(ParameterError):
        marginal_distribution(8, 3, (), field)
    with pytest.raises(ParameterError):
        marginal_distribution(8, 3, (0, 1, 2), field)
    with pytest.raises(ParameterError):
        marginal_distribution(8, 3, (0, 0), field)
    with pytest.raises(ParameterError):
        marginal_distribution(8, 3, (3,), field)


def test_marginal_distribution_regime_guard():
    params = generate_params(32, random.Random(6))
    with pytest.raises(RegimeError):
        marginal_distribution(5, 3, (0,), params)
    with pytest.raises(RegimeError):
        # (p-1)**(k-1) blows past the enumeration budget
        marginal_distribution(5, 7, (0,), FIXTURE_FIELD)


def test_sweeping_one_share_sweeps_the_reconstruction(field):
    # with all other shares pinned, the last share is a bijection onto the
    # nonzero residues
    fixed = 5 * 7 % 23
    image = {fixed * s % 23 for s in range(1, 23)}
    assert image == set(range(1, 23))
