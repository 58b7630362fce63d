import hashlib
import math
import random
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitvote import modmath
from splitvote.blindsig import (
    Signature,
    SigningKey,
    confirm,
    honest_responder,
    sign,
    verify_with_key,
)
from splitvote.errors import (
    DomainError,
    FieldMismatchError,
    NoInverseError,
    ParameterError,
)
from splitvote.harness import emit_params
from splitvote.modmath import (
    FIXTURE_FIELD,
    MIN_PRIME,
    FieldParams,
    FixedBase,
    generate_params,
    in_subgroup,
    is_probable_prime,
    mod_exp,
    mod_inv,
    require_unit,
    sample_subgroup_element,
    _safe_prime_proved,
)
from tests.conftest import ScriptedRandom

# independent oracle: repeated multiplication
def naive_power(base, exponent, modulus):
    acc = 1
    for _ in range(exponent):
        acc = acc * base % modulus
    return acc


QUADRATIC_RESIDUES_23 = {1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18}


def test_fixture_field_constants():
    assert (FIXTURE_FIELD.p, FIXTURE_FIELD.q, FIXTURE_FIELD.g) == (23, 11, 2)


def test_mod_exp_frozen_values(field):
    assert mod_exp(2, 11, field) == 1
    assert mod_exp(4, 3, field) == 18


def test_mod_exp_matches_naive_oracle(field):
    for base in range(23):
        for exponent in range(30):
            got = mod_exp(base, exponent, field)
            assert got == naive_power(base, exponent, 23)


def test_mod_exp_rejects_negative_exponent(field):
    with pytest.raises(ParameterError):
        mod_exp(2, -1, field)


def test_mod_inv_frozen_value(field):
    assert mod_inv(8, field) == 3


def test_mod_inv_exhaustive(field):
    for a in range(1, 23):
        inv = mod_inv(a, field)
        assert a * inv % 23 == 1


def test_mod_inv_of_zero(field):
    with pytest.raises(NoInverseError):
        mod_inv(0, field)
    with pytest.raises(NoInverseError):
        mod_inv(23, field)


def test_require_unit_exhaustive(field):
    for a in range(1, 23):
        assert require_unit(a, field, "value") == a
    for a in (0, 23, -1, 46):
        with pytest.raises(DomainError, match=rf"^share must lie in \[1, p-1\], got {a}$"):
            require_unit(a, field, "share")


def test_subgroup_membership(field):
    members = {a for a in range(23) if in_subgroup(a, field)}
    assert members == QUADRATIC_RESIDUES_23
    assert not in_subgroup(5, field)
    assert not in_subgroup(0, field)


def test_subgroup_closed_under_multiplication(field):
    for a in QUADRATIC_RESIDUES_23:
        for b in QUADRATIC_RESIDUES_23:
            assert a * b % 23 in QUADRATIC_RESIDUES_23


def test_subgroup_test_is_eulers_criterion_exhaustively(field):
    for a in range(23):
        assert in_subgroup(a, field) == (a != 0 and pow(a, 11, 23) == 1)


def test_fixed_base_powers_match_pow_exhaustively(field):
    # g, then every public key g**x; exponents up to 2q cover 0 and the
    # reduction mod q, those from 60 on run past the table's one 6-bit row
    tables = [(field.g_table, 2)] + [
        (SigningKey(x, field).public_key().table, pow(2, x, 23)) for x in range(1, 11)
    ]
    for table, base in tables:
        for exponent in [*range(22), *range(60, 140)]:
            assert table.power(exponent) == pow(base, exponent, 23)


def test_fixed_base_rejects_negative_exponents_and_non_members(field):
    with pytest.raises(ParameterError):
        field.g_table.power(-1)
    with pytest.raises(ParameterError):
        FixedBase(5, field)
    with pytest.raises(ParameterError):
        FixedBase(0, field)
    with pytest.raises(ParameterError):
        FixedBase(2 + 23, field)


# (bits, seed) pairs whose safe-prime search is short; cached so that
# property tests pay for each field once
PROPERTY_FIELDS = ((64, 2), (128, 9), (192, 3), (256, 6))


@cache
def property_field(bits, seed):
    return generate_params(bits, random.Random(seed))


fields = st.sampled_from(PROPERTY_FIELDS).map(lambda spec: property_field(*spec))


@settings(max_examples=60, deadline=None)
@given(fields, st.data())
def test_subgroup_test_is_eulers_criterion(params, data):
    a = data.draw(st.integers(0, params.p - 1))
    assert in_subgroup(a, params) == (a != 0 and pow(a, params.q, params.p) == 1)
    square = a * a % params.p
    assert in_subgroup(square, params) == (square != 0)


@settings(max_examples=60, deadline=None)
@given(fields, st.data())
def test_fixed_base_powers_match_pow(params, data):
    x = data.draw(st.integers(1, params.q - 1))
    y = SigningKey(x, params).public_key()
    assert y.value == pow(params.g, x, params.p)
    exponent = data.draw(st.integers(0, 4 * params.q) | st.integers(0, params.q**2))
    assert params.g_table.power(exponent) == pow(params.g, exponent, params.p)
    assert y.table.power(exponent) == pow(y.value, exponent, params.p)
    assert y.table.power(exponent) == mod_exp(y.value, exponent, params)


@settings(max_examples=20, deadline=None)
@given(fields, st.integers(max_value=-1))
def test_negative_exponents_raise_parameter_error(params, exponent):
    for table in (params.g_table, SigningKey(1, params).public_key().table):
        with pytest.raises(ParameterError):
            table.power(exponent)
    with pytest.raises(ParameterError):
        mod_exp(params.g, exponent, params)


def test_sample_subgroup_element_frozen(field):
    # u = 5 -> 25 mod 23 = 2
    class Fixed:
        def randrange(self, start, stop):
            return 5

    assert sample_subgroup_element(field, Fixed()) == 2


def test_sample_subgroup_image_is_exactly_the_residues(field):
    class Each:
        def __init__(self, u):
            self.u = u

        def randrange(self, start, stop):
            return self.u

    image = {sample_subgroup_element(field, Each(u)) for u in range(1, 23)}
    assert image == QUADRATIC_RESIDUES_23
    assert 0 not in image and 22 not in image


def test_sampling_is_uniform_on_the_subgroup(field):
    # each residue has exactly two square roots in [1, p-1]
    hits = {}
    for u in range(1, 23):
        v = u * u % 23
        hits[v] = hits.get(v, 0) + 1
    assert all(n == 2 for n in hits.values())


def test_int_paths_agree_with_pow_exhaustively(field):
    # every residue, exponents past 2q, and every table base in the subgroup
    for a in range(23):
        for exponent in range(3 * 11):
            assert mod_exp(a, exponent, field) == pow(a, exponent, 23)
        if a:
            assert mod_inv(a, field) == pow(a, -1, 23)
        if pow(a, 11, 23) == 1:
            table = FixedBase(a, field)
            for exponent in range(3 * 11):
                assert table.power(exponent) == pow(a, exponent, 23)


def test_subgroup_test_refuses_out_of_range_ints(field):
    # a + p and -a have the powers of a residue, so only the range check
    # keeps them from passing as a second name for it
    for a in range(-3 * 23, 3 * 23):
        assert in_subgroup(a, field) == (0 < a < 23 and pow(a, 11, 23) == 1), a
    for a in QUADRATIC_RESIDUES_23:
        assert not in_subgroup(a + 23, field)
        assert not in_subgroup(-a, field)
    assert not in_subgroup(0, field) and not in_subgroup(23, field)


def test_cross_field_operations_rejected(field):
    # a signature meets a key only in confirm and verify_with_key
    other = FieldParams(p=47, q=23, g=4)
    key, foreign = SigningKey(3, field), SigningKey(3, other)
    claim = sign(2, key)
    with pytest.raises(FieldMismatchError):
        confirm(claim, foreign.public_key(), honest_responder(foreign), ScriptedRandom([1, 1]))
    with pytest.raises(FieldMismatchError):
        confirm(
            Signature(2, claim.sig, other), key.public_key(), honest_responder(key),
            ScriptedRandom([1, 1]),
        )
    with pytest.raises(FieldMismatchError):
        verify_with_key(claim, foreign)
    assert confirm(claim, key.public_key(), honest_responder(key), ScriptedRandom([1, 1])).accepted


def test_field_params_validation():
    with pytest.raises(ParameterError):
        FieldParams(p=21, q=10, g=2)  # p below the floor
    with pytest.raises(ParameterError):
        FieldParams(p=25, q=12, g=2)
    with pytest.raises(ParameterError):
        FieldParams(p=23, q=11, g=5)  # 5 is not a residue
    with pytest.raises(ParameterError):
        FieldParams(p=23, q=11, g=1)


# 3 divides 27; 2**34 = 9 (mod 35), so 35 fails the base-2 condition
@pytest.mark.parametrize("p, q", [(27, 13), (35, 17)])
def test_field_params_refuse_a_composite_p_whose_q_is_prime(p, q):
    assert is_probable_prime(q)
    with pytest.raises(ParameterError, match=f"p = {p} is not prime"):
        FieldParams(p, q, 4)


def test_generate_params_is_deterministic():
    a = generate_params(16, random.Random(7))
    b = generate_params(16, random.Random(7))
    assert a == b


def test_generate_params_five_bits_gives_the_fixture_primes():
    params = generate_params(5, random.Random(1))
    assert (params.p, params.q) == (23, 11)
    assert in_subgroup(params.g, params)


def test_generate_params_hundred_bits():
    params = generate_params(100, random.Random(3))
    assert params.p >= 2**99
    assert params.p == 2 * params.q + 1
    assert pow(params.g, params.q, params.p) == 1


def test_generated_field_tests_q_once(monkeypatch):
    # the search proves its field, so FieldParams does not test q again
    calls = []
    original = modmath.is_probable_prime
    monkeypatch.setattr(modmath, "is_probable_prime", lambda n: calls.append(n) or original(n))
    params = generate_params(64, random.Random(2))
    assert calls == [params.q]
    assert params == FieldParams(params.p, params.q, params.g)
    assert hash(params) == hash(FieldParams(params.p, params.q, params.g))
    assert params.g_table.power(params.q - 1) == pow(params.g, params.q - 1, params.p)


def test_generate_params_rejects_tiny_request():
    with pytest.raises(ParameterError):
        generate_params(4, random.Random(0))


def test_primality_spot_checks():
    assert is_probable_prime(2)
    assert is_probable_prime(23)
    assert is_probable_prime(999983)  # largest prime below 10**6
    assert not is_probable_prime(1)
    assert not is_probable_prime(999981)
    assert is_probable_prime(2**89 - 1)  # Mersenne prime
    assert not is_probable_prime(2**89 - 3)
    # Carmichael numbers must not fool the tester
    assert not is_probable_prime(3215031751)


def oracle_generate_params(bit_length, rng):
    """The generator before its sieve and Pocklington proof: full tests on
    both q and p for every draw.  The fast one must give the same output."""
    while True:
        q = rng.getrandbits(bit_length - 1)
        q |= (1 << (bit_length - 2)) | 1
        p = 2 * q + 1
        if p < MIN_PRIME:
            continue
        if not (is_probable_prime(q) and is_probable_prime(p)):
            continue
        while True:
            u = rng.randrange(2, p - 1)
            g = u * u % p
            if g != 1:
                break
        return FieldParams(p=p, q=q, g=g)


# 5-12 bits put q or p = 2q + 1 among the sieve primes (below 1000); 13
# seeds at each of the 16 sizes up to 64 bits, 7 at each of the 3 above
@pytest.mark.parametrize(
    "bits", (5, 6, 7, 8, 9, 10, 11, 12, 16, 20, 24, 32, 40, 48, 56, 64, 96, 112, 128)
)
def test_generate_params_equals_oracle(bits):
    for seed in range(13 if bits <= 64 else 7):
        assert generate_params(bits, random.Random(seed)) == oracle_generate_params(
            bits, random.Random(seed)
        )


@pytest.mark.parametrize("table, primes", [
    (modmath._T1, (3, 5, 7, 11, 13)), (modmath._T2, (17, 19, 23)), (modmath._T3, (29, 31, 37)),
])
def test_residue_tables_mark_what_the_gcd_rejects(table, primes):
    # a q the table marks has a factor in common with the odd primorial,
    # in q or in 2q + 1, so the pre-sieve drops no candidate the gcd keeps
    assert len(table) == math.prod(primes)
    for r in range(len(table)):
        assert table[r] == any(r % l == 0 or (2 * r + 1) % l == 0 for l in primes), r


def test_pocklington_agrees_with_miller_rabin_for_every_prime_q_below_1e5():
    primes = [q for q in range(2, 10**5) if is_probable_prime(q)]
    assert len(primes) == 9592
    for q in primes:
        assert _safe_prime_proved(2 * q + 1) == is_probable_prime(2 * q + 1), q


@pytest.mark.parametrize("p", (23, 47))
def test_generator_check_is_eulers_criterion(p):
    q = (p - 1) // 2
    for g in range(2, p):
        try:
            FieldParams(p=p, q=q, g=g)
            accepted = True
        except ParameterError:
            accepted = False
        assert accepted == (pow(g, q, p) == 1), g


@pytest.mark.parametrize(
    "bits,digest",
    [
        (384, "ab28e95876b3ab546ef6b1006d6ae8574aaf516c9d2304096410879d4cc2e155"),
        (512, "f383230f61b9f6df05116bcfdf4aa7e241f4c5226075273c7c0211f0ce27281d"),
    ],
)
def test_large_fields_are_pinned(bits, digest):
    # sha256 of p, q and g as decimal lines, as the 64-round search produced them
    values = "".join(line.split(" = ")[1] + "\n" for line in emit_params(bits, 1).splitlines())
    assert hashlib.sha256(values.encode()).hexdigest() == digest
