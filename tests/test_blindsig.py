import itertools
import random
from fractions import Fraction

import pytest

from splitvote import blindsig
from splitvote.blindsig import (
    PublicKey,
    PublishedSignature,
    Signature,
    SigningKey,
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
from splitvote.errors import DomainError, FieldMismatchError, ParameterError, ProtocolAbortError
from splitvote.modmath import FIXTURE_FIELD, generate_params, in_subgroup, mod_exp
from splitvote.protocol import MessageBus, RegistrationAuthority, Voter, make_ballot_sheet
from tests.conftest import ScriptedRandom, pinned_round

SUBGROUP_23 = [1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18]


@pytest.fixture
def key(field):
    return SigningKey(3, field)


@pytest.fixture
def pub(key):
    return key.public_key()


def test_public_key_value(key):
    assert key.public_key().value == 8  # 2**3 mod 23


def test_public_key_is_computed_once_per_key(key):
    # every caller shares one PublicKey, and so one fixed-base table
    assert key.public_key() is key.public_key()


def test_public_key_refuses_a_value_outside_the_subgroup(field):
    with pytest.raises(ParameterError, match="subgroup"):
        PublicKey(5, field)


def test_blind_worked_example(field, pub):
    blinded = blind(9, 5, pub)
    assert blinded == 12  # 2**5 = 9, 9 * 9 = 81 = 12 mod 23


def test_sign_worked_examples(field, key):
    assert sign(4, key).sig == 18
    assert sign(12, key).sig == 3


def test_unblind_worked_example(field, key, pub):
    recovered = unblind(3, 5, pub)
    assert recovered == 16
    assert recovered == mod_exp(9, 3, field)


def test_blind_sign_unblind_round_trip_exhaustive(field, key, pub):
    # every subgroup message times every legal blinding exponent
    count = 0
    for m in SUBGROUP_23:
        expected = sign(m, key).sig
        for b in range(1, 11):
            blinded_sig = sign(blind(m, b, pub), key).sig
            assert unblind(blinded_sig, b, pub) == expected
            count += 1
    assert count == 110


def test_blinded_values_sweep_the_subgroup_uniformly(field, pub):
    # for fixed m the blinded value over b in [1, q-1], plus m itself
    # (b = q would give g**q = 1), covers the subgroup exactly once each
    for m in SUBGROUP_23:
        seen = {blind(m, b, pub) for b in range(1, 11)}
        seen.add(m)
        assert seen == set(SUBGROUP_23)


def test_blinding_factor_boundaries(field, pub):
    # b = 0 and b = q blind nothing; the exponent is checked before the message
    for b in (0, 11):
        with pytest.raises(ParameterError):
            blind(9, b, pub)
        with pytest.raises(ParameterError):
            blind(5, b, pub)


def test_blind_rejects_non_subgroup_message(field, pub):
    with pytest.raises(DomainError):
        blind(5, 2, pub)


def test_sign_rejects_zero(field, key):
    for outside in (0, 23, -4):
        with pytest.raises(DomainError):
            sign(outside, key)


def test_signing_key_range(field):
    with pytest.raises(ParameterError):
        SigningKey(0, field)
    with pytest.raises(ParameterError):
        SigningKey(11, field)


def test_verify_with_key(field, key):
    good = sign(9, key)
    assert verify_with_key(good, key)
    assert not verify_with_key(Signature(9, 13, field), key)


def test_confirm_accepts_genuine_signature(field, key, pub):
    rng = random.Random(11)
    responder = honest_responder(key)
    for _ in range(100):
        m = rng.choice(SUBGROUP_23)
        transcript = confirm(sign(m, key), pub, responder, rng)
        assert transcript.accepted


def test_confirm_rejects_forgery_on_all_live_challenges(field, key, pub):
    # frozen example: claimed sig 17 on message 4 is rejected for every
    # challenge pair a live run can draw
    claimed = Signature(4, 17, field)
    responder = honest_responder(key)
    accepted = sum(
        confirm(claimed, pub, responder, ScriptedRandom([e1, e2])).accepted
        for e1 in range(1, 11)
        for e2 in range(1, 11)
    )
    assert accepted == 0


def test_confirm_forgery_acceptance_at_most_one_in_q(field, key, pub):
    # over the full q**2 = 121 challenge pairs (e1 = 0 accepts vacuously)
    responder = honest_responder(key)
    for forged in (17, 13, 22):  # outside the subgroup, inside, and p - 1
        claimed = Signature(4, forged, field)
        assert not verify_with_key(claimed, key)
        accepted = sum(
            pinned_round((claimed,), pub, responder, e1, e2).accepted
            for e1 in range(11)
            for e2 in range(11)
        )
        assert accepted <= 11


def test_confirm_agrees_with_key_verification(field, key, pub):
    rng = random.Random(23)
    responder = honest_responder(key)
    for i in range(100):
        m = rng.choice(SUBGROUP_23)
        if i % 2 == 0:
            candidate = sign(m, key)
        else:
            candidate = Signature(m, rng.randrange(1, 23), field)
        transcript = confirm(candidate, pub, responder, rng)
        assert transcript.accepted == verify_with_key(candidate, key)


def test_confirm_requires_subgroup_message(field, key, pub):
    with pytest.raises(DomainError):
        confirm(Signature(5, 10, field), pub, honest_responder(key), random.Random(0))


def test_confirm_refusal_aborts(field, key, pub):
    claimed = sign(9, key)
    with pytest.raises(ProtocolAbortError):
        confirm(claimed, pub, lambda challenge: None, random.Random(0))


def test_transcript_record_fields(field, key):
    # a confirmation round is recorded as the fields of its logged message
    bus = MessageBus()
    sheet = make_ballot_sheet(("a", "b"), key, random.Random(7))
    authority = RegistrationAuthority(key, ["V00000"], sheet)
    credential = Voter.register("V00000", authority, bus, random.Random(100), 0).credential
    line = next(line for line in bus.render_log() if " confirm-batch " in line)
    pairs = [pair.split("=", 1) for pair in line.split(" ")[5:]]
    names = ["weights", "e1", "e2", "challenge", "response", "accepted"]
    assert [name for name, _ in pairs] == names
    weights = [int(r) for r in pairs[0][1].split(",")]
    e1, e2, challenge, response, accepted = (int(value) for _, value in pairs[1:])
    expected = 2 ** e2
    for message, r in zip((credential.message, *sheet.ballots), weights, strict=True):
        expected = expected * message ** (r * e1 % 11) % 23
    assert challenge == expected
    assert response == challenge ** 3 % 23
    assert accepted == 1


def test_disavow_reports_forgery(field, key, pub):
    claimed = Signature(4, 17, field)
    outcome = disavow(claimed, pub, honest_responder(key), random.Random(2))
    assert outcome.is_forgery
    assert len(outcome.rounds) == 2
    assert not any(r.accepted for r in outcome.rounds)


def test_disavow_on_genuine_signature_with_honest_signer(field, key, pub):
    claimed = sign(9, key)
    outcome = disavow(claimed, pub, honest_responder(key), random.Random(3))
    assert not outcome.is_forgery
    assert outcome.rounds[0].accepted


def test_disavow_clears_a_claim_the_second_round_accepts(field, key, pub):
    # the signer garbles its first answer and then answers honestly
    answers = []

    def responder(challenge):
        answers.append(challenge)
        honest = pow(challenge, 3, 23)
        return honest if len(answers) > 1 else honest * 2 % 23

    outcome = disavow(sign(9, key), pub, responder, random.Random(3))
    assert not outcome.is_forgery
    assert [r.accepted for r in outcome.rounds] == [False, True]


def test_disavow_catches_a_lying_signer(field, key, pub):
    # signer tries to deny its own signature by answering with random
    # subgroup junk; the cross-check should side with the signature in all
    # but about one run in q
    claimed = sign(4, key)
    assert claimed.sig == 18
    rng = random.Random(7)
    liar_rng = random.Random(8)

    def liar(challenge):
        while True:
            d = liar_rng.randrange(1, 23)
            if d in SUBGROUP_23 and d != pow(challenge, 3, 23):
                return d

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
    claimed = sign(4, key)
    # 5 is a non-residue; 4 + 23 and -4 are out of range, though 4 is a residue
    for response in (5, 4 + 23, -4):
        outcome = disavow(claimed, pub, lambda c: response, random.Random(1))
        assert not outcome.is_forgery
        assert not any(r.accepted for r in outcome.rounds)


def test_random_helpers_land_in_range(field):
    rng = random.Random(9)
    for _ in range(50):
        assert 1 <= random_signing_key(field, rng).exponent <= 10


def test_signature_stays_a_plain_record(field):
    # forged claims, including values outside the subgroup, must be
    # representable so the interactive protocols can examine them
    claimed = Signature(4, 17, field)
    assert not in_subgroup(claimed.sig, field)


def _confirm_outcome(claim, pub, responder, e1, e2):
    try:
        return pinned_round((claim,), pub, responder, e1, e2)
    except DomainError as exc:
        return f"DomainError: {exc}"


def test_published_signature_confirms_like_a_plain_one_exhaustively(field, key, pub):
    # every message and signed value in [0, p) and every challenge pair:
    # the table path gives the plain path's transcript or its DomainError
    responder = honest_responder(key)
    for m in range(23):
        for s in range(23):
            plain = Signature(m, s, field)
            published = PublishedSignature(m, s, field)
            assert verify_with_key(published, key) == verify_with_key(plain, key)
            for e1 in range(11):
                for e2 in range(11):
                    expected = _confirm_outcome(plain, pub, responder, e1, e2)
                    assert _confirm_outcome(published, pub, responder, e1, e2) == expected
                    assert isinstance(expected, str) == (m not in SUBGROUP_23)


def test_published_signature_powers_outside_the_subgroup_are_mod_exp(field):
    # 5 and 17 are non-residues, so neither half gets a table
    published = PublishedSignature(5, 17, field)
    for e in range(30):
        assert published.message_power(e) == mod_exp(5, e, field)
        assert published.sig_power(e) == mod_exp(17, e, field)


def test_published_signature_disavows_like_a_plain_one(field, key, pub):
    responder = honest_responder(key)
    for m in SUBGROUP_23:
        for s in range(23):
            plain = Signature(m, s, field)
            published = PublishedSignature(m, s, field)
            assert disavow(published, pub, responder, random.Random(s)) == disavow(
                plain, pub, responder, random.Random(s)
            )


def test_subgroup_verdicts_are_computed_once_per_signature(field, monkeypatch):
    calls = []
    monkeypatch.setattr(blindsig, "in_subgroup", lambda a, params: calls.append(a) or True)
    claim = Signature(4, 17, field)
    assert claim.message_in_subgroup and claim.message_in_subgroup
    assert claim.sig_in_subgroup and claim.sig_in_subgroup
    assert calls == [4, 17]


def test_confirm_batch_worked_example(field, key, pub):
    # 4**3 = 18 and 9**3 = 16; weights 2 and 5 with e1 = 3 give the powers
    # 6 and 15 = 4 (mod 11)
    sigs = (sign(4, key), sign(9, key))
    transcript = pinned_round(sigs, pub, honest_responder(key), 3, 7, weights=(2, 5))
    assert transcript.weights == (2, 5)
    assert transcript.challenge == 2**7 * 4**6 * 9**4 % 23
    assert transcript.response == transcript.challenge**3 % 23
    assert transcript.response == 8**7 * 18**6 * 16**4 % 23
    assert transcript.accepted


def _batch_acceptances(sigs, pub, responder):
    """Accepted rounds over every weight vector in [1, q-1]^m and every
    challenge pair in [0, q)^2, and the number of rounds."""
    accepted = rounds = 0
    for weights in itertools.product(range(1, 11), repeat=len(sigs)):
        for e1 in range(11):
            for e2 in range(11):
                rounds += 1
                accepted += pinned_round(sigs, pub, responder, e1, e2, weights).accepted
    return Fraction(accepted, rounds)


def test_confirm_batch_soundness_exhaustive(field, key, pub):
    # the count of criterion 7 for the batched round: 4**3 = 18, 9**3 = 16
    # and 12**3 = 3, so 13 and 6 are forgeries inside the subgroup and 5
    # one outside it
    responder = honest_responder(key)
    q = Fraction(11)
    genuine = (sign(4, key), sign(9, key))
    assert _batch_acceptances(genuine, pub, responder) == 1
    one_bad = (sign(4, key), Signature(9, 13, field), sign(12, key))
    assert 0 < _batch_acceptances(one_bad, pub, responder) <= 1 / q
    non_residue = (sign(4, key), Signature(9, 5, field))
    assert _batch_acceptances(non_residue, pub, responder) <= 1 / q
    # two bad signatures cancel for one r_1 per r_2, so 1/(q-1) of the
    # weight vectors accept every challenge
    two_bad = (Signature(4, 13, field), Signature(9, 6, field))
    assert 0 < _batch_acceptances(two_bad, pub, responder) <= 1 / (q - 1) + 1 / q


def test_confirm_batch_is_confirm_on_the_weighted_products(field, key, pub):
    # one round of confirm on (prod m_i**r_i, prod s_i**r_i) with the same
    # challenge pair: the same challenge, response and verdict
    responder = honest_responder(key)
    rng = random.Random(4)
    for _ in range(200):
        sigs = [Signature(m, rng.choice(SUBGROUP_23), field) for m in rng.sample(SUBGROUP_23, 3)]
        weights = [rng.randrange(1, 11) for _ in sigs]
        e1, e2 = rng.randrange(11), rng.randrange(11)
        product = Signature(1, 1, field)
        for sig, r in zip(sigs, weights):
            product = Signature(
                product.message * sig.message**r % 23, product.sig * sig.sig**r % 23, field
            )
        single = pinned_round((product,), pub, responder, e1, e2)
        batch = pinned_round(sigs, pub, responder, e1, e2, weights)
        assert (batch.challenge, batch.response, batch.accepted) == (
            single.challenge, single.response, single.accepted
        )


def test_published_signatures_batch_like_plain_ones(field, key, pub):
    responder = honest_responder(key)
    rng = random.Random(6)
    for _ in range(200):
        pairs = [(m, rng.randrange(1, 23)) for m in rng.sample(SUBGROUP_23, 2)]
        weights = [rng.randrange(1, 11) for _ in pairs]
        e1, e2 = rng.randrange(11), rng.randrange(11)
        plain = [Signature(m, s, field) for m, s in pairs]
        published = [PublishedSignature(m, s, field) for m, s in pairs]
        assert pinned_round(published, pub, responder, e1, e2, weights) == pinned_round(
            plain, pub, responder, e1, e2, weights
        )


def test_confirm_batch_draws_weights_then_the_challenge_pair(field, key, pub):
    sigs = (sign(4, key), sign(9, key), sign(12, key))
    transcript = confirm_batch(sigs, pub, honest_responder(key), random.Random(3))
    rng = random.Random(3)
    drawn = [rng.randrange(1, 11) for _ in range(5)]
    assert (*transcript.weights, transcript.e1, transcript.e2) == tuple(drawn)


def test_confirm_draws_e1_then_e2_and_no_weight(field, key, pub):
    # confirm_batch on a lone signature makes confirm's draws and transcript
    rng = random.Random(3)
    e1, e2 = rng.randrange(1, 11), rng.randrange(1, 11)
    transcripts = []
    for round_of in (confirm, lambda sig, *args: confirm_batch((sig,), *args)):
        live = random.Random(3)
        transcripts.append(round_of(sign(4, key), pub, honest_responder(key), live))
        assert live.getstate() == rng.getstate()
    assert (transcripts[0].e1, transcripts[0].e2, transcripts[0].weights) == (e1, e2, (1,))
    assert transcripts[1] == transcripts[0]


def test_confirm_batch_argument_checks(field, key, pub):
    responder = honest_responder(key)
    sigs = (sign(4, key), sign(9, key))
    with pytest.raises(DomainError):
        confirm_batch((sign(4, key), Signature(5, 10, field)), pub, responder, random.Random(0))
    with pytest.raises(ProtocolAbortError):
        confirm_batch(sigs, pub, lambda challenge: None, random.Random(0))
    other = generate_params(8, random.Random(1))
    with pytest.raises(FieldMismatchError):
        confirm_batch((Signature(4, 18, other),), pub, responder, random.Random(0))
