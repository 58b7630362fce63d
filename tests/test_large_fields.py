"""Protocol identities on fresh safe-prime fields of 64 to 256 bits.

The exhaustive checks run at p = 23.  Here Hypothesis draws a size and a
seed, builds the field that seed yields, and checks the same identities on
it: the int arithmetic against ``pow``, split/reconstruct,
blind/sign/unblind, confirmation completeness, the disavowal verdicts,
table-backed signatures confirming like plain ones, the batched round's
verdict on a sheet and on a registration, and the harness ledger agreeing
with the tally.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitvote.blindsig import (
    PublishedSignature,
    Signature,
    blind,
    confirm,
    confirm_batch,
    disavow,
    honest_responder,
    random_signing_key,
    sign,
    unblind,
    verify_with_key,
)
from splitvote import protocol
from splitvote.errors import DomainError
from splitvote.harness import ElectionConfig, run_election
from splitvote.modmath import (
    FixedBase,
    generate_params,
    in_subgroup,
    mod_exp,
    mod_inv,
    sample_subgroup_element,
)
from splitvote.protocol import (
    BOOTH_MODES,
    BallotSheet,
    CredentialInvalidError,
    MessageBus,
    RegistrationAuthority,
    Voter,
    make_ballot_sheet,
)
from splitvote.sharing import reconstruct, split
from tests.conftest import ScriptedRandom, pinned_round

fields = st.builds(
    lambda bits, seed: generate_params(bits, random.Random(seed)),
    st.integers(64, 256),
    st.integers(0, 2**32 - 1),
)
seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=20, deadline=None)
@given(fields, seeds)
def test_int_paths_agree_with_pow(params, seed):
    rng = random.Random(seed)
    p, q = params.p, params.q
    a = rng.randrange(1, p)
    exponent = rng.randrange(4 * q)
    assert mod_exp(a, exponent, params) == pow(a, exponent, p)
    assert mod_inv(a, params) == pow(a, -1, p)
    assert in_subgroup(a, params) == (pow(a, q, p) == 1)
    member = sample_subgroup_element(params, rng)
    assert FixedBase(member, params).power(exponent) == pow(member, exponent, p)
    # only [1, p-1] is in range: 0, p, a + p and -a have a residue's powers
    assert in_subgroup(member, params)
    for outside in (0, p, member + p, -member):
        assert not in_subgroup(outside, params)


@settings(max_examples=20, deadline=None)
@given(fields, seeds)
def test_split_blind_and_confirm_round_trip(params, seed):
    rng = random.Random(seed)
    key = random_signing_key(params, rng)
    pub = key.public_key()
    value = rng.randrange(1, params.p)
    assert reconstruct(split(value, rng.randint(2, 5), params, rng), params) == value
    message = sample_subgroup_element(params, rng)
    factor = rng.randrange(1, params.q)
    unblinded = unblind(sign(blind(message, factor, pub), key).sig, factor, pub)
    assert unblinded == sign(message, key).sig
    genuine = Signature(message, unblinded, params)
    assert confirm(genuine, pub, honest_responder(key), rng).accepted


@settings(max_examples=20, deadline=None)
@given(fields, seeds)
def test_unblind_equals_dividing_out_y_to_the_b(params, seed):
    rng = random.Random(seed)
    pub = random_signing_key(params, rng).public_key()
    blinded_sig, factor = rng.randrange(params.p), rng.randrange(1, params.q)
    expected = blinded_sig * mod_inv(pow(pub.value, factor, params.p), params) % params.p
    assert unblind(blinded_sig, factor, pub) == expected


@settings(max_examples=20, deadline=None)
@given(fields, seeds)
def test_disavow_verdicts(params, seed):
    rng = random.Random(seed)
    key = random_signing_key(params, rng)
    pub = key.public_key()
    message = sample_subgroup_element(params, rng)
    genuine = sign(message, key)
    # g != 1 lies in the subgroup, so this is a well-formed wrong signature
    forged = Signature(message, genuine.sig * params.g % params.p, params)
    outcome = disavow(forged, pub, honest_responder(key), rng)
    assert outcome.is_forgery
    assert not any(r.accepted for r in outcome.rounds)
    # a signer denying its own signature with made-up subgroup answers is
    # caught in all but about one run in q
    liar_rng = random.Random(seed + 1)
    denial = disavow(genuine, pub, lambda c: sample_subgroup_element(params, liar_rng), rng)
    assert not denial.is_forgery


@settings(max_examples=20, deadline=None)
@given(fields, seeds)
def test_published_signature_confirms_like_a_plain_one(params, seed):
    rng = random.Random(seed)
    key = random_signing_key(params, rng)
    pub = key.public_key()
    responder = honest_responder(key)
    message = sample_subgroup_element(params, rng)
    # genuine, forged inside the subgroup, any value, and p - 1, which is a
    # non-residue because p = 2q + 1 with q odd gives p = 3 (mod 4)
    for signed in (
        sign(message, key).sig,
        sample_subgroup_element(params, rng),
        rng.randrange(params.p),
        params.p - 1,
    ):
        plain = Signature(message, signed, params)
        published = PublishedSignature(message, signed, params)
        assert verify_with_key(published, key) == verify_with_key(plain, key)
        for _ in range(3):
            e1, e2 = rng.randrange(params.q), rng.randrange(params.q)
            assert pinned_round((published,), pub, responder, e1, e2) == pinned_round(
                (plain,), pub, responder, e1, e2
            )
    outside = params.p - 1
    for claim in (Signature(outside, outside, params), PublishedSignature(outside, outside, params)):
        with pytest.raises(DomainError):
            confirm(claim, pub, responder, ScriptedRandom([1, 1]))


@settings(max_examples=20, deadline=None)
@given(fields, seeds, st.integers(2, 5), st.integers(0, 2), st.booleans())
def test_batch_verdict_is_that_of_every_key_check(params, seed, m, bad, non_residue):
    # a sheet of m table-backed pairs with `bad` wrong signatures, one of
    # them the non-residue p - 1 when asked; live draws, as in registration
    rng = random.Random(seed)
    key = random_signing_key(params, rng)
    sheet = []
    for i in range(m):
        message = sample_subgroup_element(params, rng)
        signed = sign(message, key).sig
        if i < bad:
            signed = params.p - 1 if non_residue and i == 0 else signed * params.g % params.p
        sheet.append(PublishedSignature(message, signed, params))
    rng.shuffle(sheet)
    transcript = confirm_batch(sheet, key.public_key(), honest_responder(key), rng)
    assert transcript.accepted == all(verify_with_key(sig, key) for sig in sheet)
    assert transcript.accepted == (bad == 0)


class _TamperingAuthority(RegistrationAuthority):
    """Multiplies every signed blinded id by ``factor``, so the credential's
    signature comes out multiplied by it too."""

    factor = 1

    def register(self, v_id, blinded, bus):
        signed, *grant = super().register(v_id, blinded, bus)
        return signed * self.factor % self.key.params.p, *grant


@settings(max_examples=20, deadline=None)
@given(fields, seeds, st.integers(2, 5), st.integers(0, 2), st.booleans())
def test_registration_batch_verdict_is_that_of_every_key_check(
    params, seed, m, bad, non_residue
):
    # the credential (position 0) and a sheet of m ballots, `bad` of them
    # wrong, the first wrong one the non-residue -sig when asked
    rng = random.Random(seed)
    key = random_signing_key(params, rng)
    sheet = make_ballot_sheet(tuple(f"c{i}" for i in range(m)), key, rng)
    wrong = sorted(rng.sample(range(m + 1), bad))
    factors = [1] * (m + 1)
    for position in wrong:
        factors[position] = params.p - 1 if non_residue and position == wrong[0] else params.g
    signed = tuple(s * f % params.p for s, f in zip(sheet.signed_ballots, factors[1:]))
    sheet = BallotSheet(sheet.candidates, sheet.ballots, signed, params)
    authority = _TamperingAuthority(key, ["V0"], sheet)
    authority.factor = factors[0]
    batches = []

    def spy(sigs, *args):
        batches.append(tuple(sigs))
        return confirm_batch(sigs, *args)

    bus = MessageBus()
    with mock.patch.object(protocol, "confirm_batch", spy):
        try:
            Voter.register("V0", authority, bus, rng, 0)
        except CredentialInvalidError:
            pass
    [batch] = batches
    assert batch[1:] == authority.signatures
    assert [(s.message, s.sig) for s in batch[1:]] == list(zip(sheet.ballots, signed))
    line = next(line for line in bus.render_log() if " confirm-batch " in line)
    accepted = line.endswith(" accepted=1")
    assert accepted == all(verify_with_key(sig, key) for sig in batch)
    assert accepted == (bad == 0)
    assert authority.registered == {"V0"}


@settings(max_examples=12, deadline=None)
@given(
    fields,
    st.sampled_from(BOOTH_MODES),
    st.integers(2, 5),
    st.floats(0.5, 1.0),
    st.floats(0.2, 0.8),
    seeds,
)
def test_ledger_agrees_with_tally(params, booth, voters, recast, incomplete, seed):
    # at least one voter recasts, and each cast is short-delivered with
    # probability ``incomplete``, so overwrites and inconsistent ids occur
    config = ElectionConfig(params, None, voters, 3, ("a", "b", "c"), recast, incomplete, booth, seed)
    run, report = run_election(config)
    assert report.agreement(), report.differences()
    assert len(run.schedule) > voters
    result = report.result
    assert result.distinct_ids == voters == report.distinct_credentials
    assert result.invalid == 0
    assert sum(result.counts.values()) + result.inconsistent == voters
