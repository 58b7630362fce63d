import random

import pytest

from splitvote.blindsig import (
    BlindingFactor,
    Signature,
    SigningKey,
    blind,
    confirm,
    disavow,
    honest_responder,
    random_blinding_factor,
    random_signing_key,
    sign,
    unblind,
    verify_with_key,
)
from splitvote.errors import DomainError, ParameterError, ProtocolAbortError
from splitvote.modmath import FIXTURE_FIELD, in_subgroup, mod_exp

SUBGROUP_23 = [1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18]


@pytest.fixture
def key(field):
    return SigningKey(3, field)


@pytest.fixture
def pub(key):
    return key.public_key()


def test_public_key_value(key):
    assert key.public_key().value.value == 8  # 2**3 mod 23


def test_public_key_is_computed_once_per_key(key):
    # every caller shares one PublicKey, and so one fixed-base table
    assert key.public_key() is key.public_key()


def test_blind_worked_example(field, pub):
    blinded = blind(field.element(9), BlindingFactor(5, field), pub)
    assert blinded.value == 12  # 2**5 = 9, 9 * 9 = 81 = 12 mod 23


def test_sign_worked_examples(field, key):
    assert sign(field.element(4), key).sig.value == 18
    assert sign(field.element(12), key).sig.value == 3


def test_unblind_worked_example(field, key, pub):
    recovered = unblind(field.element(3), BlindingFactor(5, field), pub)
    assert recovered.value == 16
    assert recovered == mod_exp(field.element(9), 3)


def test_blind_sign_unblind_round_trip_exhaustive(field, key, pub):
    # every subgroup message times every legal blinding exponent
    count = 0
    for m in SUBGROUP_23:
        message = field.element(m)
        expected = sign(message, key).sig
        for b in range(1, 11):
            factor = BlindingFactor(b, field)
            blinded_sig = sign(blind(message, factor, pub), key).sig
            assert unblind(blinded_sig, factor, pub) == expected
            count += 1
    assert count == 110


def test_blinded_values_sweep_the_subgroup_uniformly(field, pub):
    # for fixed m the blinded value over b in [1, q-1], plus m itself
    # (b = q would give g**q = 1), covers the subgroup exactly once each
    for m in SUBGROUP_23:
        seen = {blind(field.element(m), BlindingFactor(b, field), pub).value for b in range(1, 11)}
        seen.add(m)
        assert seen == set(SUBGROUP_23)


def test_blinding_factor_boundaries(field):
    with pytest.raises(ParameterError):
        BlindingFactor(0, field)
    with pytest.raises(ParameterError):
        BlindingFactor(11, field)


def test_blind_rejects_non_subgroup_message(field, pub):
    with pytest.raises(DomainError):
        blind(field.element(5), BlindingFactor(2, field), pub)


def test_sign_rejects_zero(field, key):
    with pytest.raises(DomainError):
        sign(field.element(0), key)


def test_signing_key_range(field):
    with pytest.raises(ParameterError):
        SigningKey(0, field)
    with pytest.raises(ParameterError):
        SigningKey(11, field)


def test_verify_with_key(field, key):
    good = sign(field.element(9), key)
    assert verify_with_key(good, key)
    assert not verify_with_key(Signature(field.element(9), field.element(13)), key)


def test_confirm_accepts_genuine_signature(field, key, pub):
    rng = random.Random(11)
    responder = honest_responder(key)
    for _ in range(100):
        m = field.element(rng.choice(SUBGROUP_23))
        transcript = confirm(sign(m, key), pub, responder, rng)
        assert transcript.accepted


def test_confirm_rejects_forgery_on_all_live_challenges(field, key, pub):
    # frozen example: claimed sig 17 on message 4 is rejected for every
    # challenge pair a live run can draw
    claimed = Signature(field.element(4), field.element(17))
    responder = honest_responder(key)
    accepted = sum(
        confirm(claimed, pub, responder, e1=e1, e2=e2).accepted
        for e1 in range(1, 11)
        for e2 in range(1, 11)
    )
    assert accepted == 0


def test_confirm_forgery_acceptance_at_most_one_in_q(field, key, pub):
    # over the full q**2 = 121 challenge pairs (e1 = 0 accepts vacuously)
    responder = honest_responder(key)
    for forged in (17, 13, 22):  # outside the subgroup, inside, and p - 1
        claimed = Signature(field.element(4), field.element(forged))
        assert not verify_with_key(claimed, key)
        accepted = sum(
            confirm(claimed, pub, responder, e1=e1, e2=e2).accepted
            for e1 in range(11)
            for e2 in range(11)
        )
        assert accepted <= 11


def test_confirm_agrees_with_key_verification(field, key, pub):
    rng = random.Random(23)
    responder = honest_responder(key)
    for i in range(100):
        m = field.element(rng.choice(SUBGROUP_23))
        if i % 2 == 0:
            candidate = sign(m, key)
        else:
            candidate = Signature(m, field.element(rng.randrange(1, 23)))
        transcript = confirm(candidate, pub, responder, rng)
        assert transcript.accepted == verify_with_key(candidate, key)


def test_confirm_requires_subgroup_message(field, key, pub):
    with pytest.raises(DomainError):
        confirm(Signature(field.element(5), field.element(10)), pub, honest_responder(key), random.Random(0))


def test_confirm_refusal_aborts(field, key, pub):
    claimed = sign(field.element(9), key)
    with pytest.raises(ProtocolAbortError):
        confirm(claimed, pub, lambda challenge: None, random.Random(0))


def test_transcript_record_fields(field, key, pub):
    transcript = confirm(sign(field.element(9), key), pub, honest_responder(key), random.Random(5))
    record = transcript.to_record()
    assert record.startswith(f"e1={transcript.e1} e2={transcript.e2} ")
    assert f"challenge={transcript.challenge}" in record
    assert f"response={transcript.response}" in record
    assert record.endswith("accepted=1")


def test_disavow_reports_forgery(field, key, pub):
    claimed = Signature(field.element(4), field.element(17))
    outcome = disavow(claimed, pub, honest_responder(key), random.Random(2))
    assert outcome.is_forgery
    assert len(outcome.rounds) == 2
    assert not any(r.accepted for r in outcome.rounds)


def test_disavow_on_genuine_signature_with_honest_signer(field, key, pub):
    claimed = sign(field.element(9), key)
    outcome = disavow(claimed, pub, honest_responder(key), random.Random(3))
    assert not outcome.is_forgery
    assert outcome.rounds[0].accepted


def test_disavow_catches_a_lying_signer(field, key, pub):
    # signer tries to deny its own signature by answering with random
    # subgroup junk; the cross-check should side with the signature in all
    # but about one run in q
    claimed = sign(field.element(4), key)
    assert claimed.sig.value == 18
    rng = random.Random(7)
    liar_rng = random.Random(8)

    def liar(challenge):
        while True:
            d = liar_rng.randrange(1, 23)
            if d in SUBGROUP_23 and d != pow(challenge.value, 3, 23):
                return field.element(d)

    runs = 10_000
    false_denials = sum(
        not disavow(claimed, pub, liar, rng).is_forgery for _ in range(runs)
    )
    # expected rate 1 - 1/q; allow three binomial standard errors
    q = 11
    expected = 1 - 1 / q
    slack = 3 * (expected * (1 - expected) / runs) ** 0.5
    assert false_denials / runs >= expected - slack


def test_disavow_rejects_out_of_subgroup_responses(field, key, pub):
    claimed = sign(field.element(4), key)
    outcome = disavow(claimed, pub, lambda c: field.element(5), random.Random(1))
    assert not outcome.is_forgery


def test_random_helpers_land_in_range(field):
    rng = random.Random(9)
    for _ in range(50):
        assert 1 <= random_signing_key(field, rng).exponent <= 10
        assert 1 <= random_blinding_factor(field, rng).exponent <= 10


def test_signature_stays_a_plain_record(field):
    # forged claims, including values outside the subgroup, must be
    # representable so the interactive protocols can examine them
    claimed = Signature(field.element(4), field.element(17))
    assert not in_subgroup(claimed.sig)
