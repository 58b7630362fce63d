"""Actor-level tests: registration, booth sessions, casting, tallying."""

import random
import sys
from functools import partial

import pytest

from splitvote import blindsig, modmath
from splitvote.blindsig import (
    PublishedSignature,
    Signature,
    SigningKey,
    confirm,
    random_signing_key,
    verify_with_key,
)
from splitvote.errors import DomainError, ParameterError, VotingError
from splitvote.modmath import FieldElement, in_subgroup
from splitvote.protocol import (
    BOOTH_MODES,
    KEY_COPY,
    ZK_RELAY,
    AlreadyRegisteredError,
    AuthenticationError,
    BallotSheet,
    CastRecord,
    CollisionError,
    CredentialInvalidError,
    IneligibleVoterError,
    MessageBus,
    PollingBooth,
    RegistrationAuthority,
    VoteServer,
    Voter,
    make_ballot_sheet,
    tally,
)
from tests.conftest import logged

CANDIDATES = ("alpha", "beta", "gamma")

# first randrange(1, 23) per seed gives u, anon id = u**2 mod 23; these four
# seeds were picked so the ids (2, 16, 18, 3) are distinct at the small field
VOTER_SEEDS = (100, 101, 103, 106)


@pytest.fixture
def key(field):
    return SigningKey(3, field)


@pytest.fixture
def sheet(field, key):
    return make_ballot_sheet(CANDIDATES, key, random.Random(7))


def make_setup(field, key, sheet, mode=KEY_COPY, n_voters=3, k=3, booth_seed=11):
    bus = MessageBus()
    roster = [f"V{i:05d}" for i in range(n_voters)]
    authority = RegistrationAuthority(key, roster, sheet)
    booth = PollingBooth(mode, random.Random(booth_seed), authority)
    servers = [VoteServer(i, booth) for i in range(k)]
    voters = [
        Voter(v_id, key.public_key(), random.Random(VOTER_SEEDS[j]))
        for j, v_id in enumerate(roster)
    ]
    return bus, authority, booth, servers, voters


class TamperingAuthority(RegistrationAuthority):
    def register(self, v_id, blinded, bus):
        signed, sheet = super().register(v_id, blinded, bus)
        # doubling stays inside the subgroup (2 is a residue), so only the
        # response equation can catch it
        return FieldElement(signed.value * 2 % 23, signed.params), sheet


def register_all(voters, authority, bus):
    return [voter.register(authority, bus) for voter in voters]


def count_calls(monkeypatch, name):
    """Count calls of the ``modmath`` function ``name`` from every module."""
    counts = {name: 0}
    original = getattr(modmath, name)

    def counted(*args):
        counts[name] += 1
        return original(*args)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("splitvote") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return counts


def field_64():
    return modmath.generate_params(64, random.Random(2))


class TestBallotSheet:
    def test_make_sheet_values_verify(self, field, key, sheet):
        assert len(sheet.ballots) == 3
        assert len({b.value for b in sheet.ballots}) == 3
        for ballot, signed in zip(sheet.ballots, sheet.signed_ballots):
            assert in_subgroup(ballot)
            assert verify_with_key(Signature(ballot, signed), key)

    def test_make_sheet_deterministic(self, field, key):
        a = make_ballot_sheet(CANDIDATES, key, random.Random(7))
        b = make_ballot_sheet(CANDIDATES, key, random.Random(7))
        assert a == b

    def test_too_many_candidates(self, field, key):
        names = tuple(f"c{i}" for i in range(12))
        with pytest.raises(ParameterError):
            make_ballot_sheet(names, key, random.Random(0))

    def test_needs_two_candidates(self, field):
        one = FieldElement(2, field)
        with pytest.raises(ParameterError):
            BallotSheet(("solo",), (one,), (one,))

    def test_rejects_duplicate_ballots(self, field):
        b = FieldElement(2, field)
        s = FieldElement(8, field)
        with pytest.raises(ParameterError):
            BallotSheet(("a", "b"), (b, b), (s, s))

    def test_rejects_nonresidue_ballot(self, field):
        with pytest.raises(DomainError):
            BallotSheet(
                ("a", "b"),
                (FieldElement(2, field), FieldElement(5, field)),
                (FieldElement(8, field), FieldElement(3, field)),
            )

    def test_rejects_length_mismatch(self, field):
        with pytest.raises(ParameterError):
            BallotSheet(
                ("a", "b"),
                (FieldElement(2, field), FieldElement(3, field)),
                (FieldElement(8, field),),
            )

    def test_signed_index_maps_back_to_labels(self, sheet):
        index = sheet.signed_index()
        assert set(index.values()) == set(CANDIDATES)
        assert len(index) == 3

    def test_signatures_are_built_once_per_sheet(self, sheet):
        assert sheet.signatures is sheet.signatures
        assert all(isinstance(s, PublishedSignature) for s in sheet.signatures)
        assert [(s.message, s.sig) for s in sheet.signatures] == list(
            zip(sheet.ballots, sheet.signed_ballots)
        )


class TestMessageBus:
    def test_sequence_and_render(self):
        bus = MessageBus()
        bus.post("a", "b", "ping", "x=1")
        bus.post("b", "a", "pong")
        assert bus.render_log() == ["000001 a -> b ping x=1", "000002 b -> a pong"]

    def test_kind_counts(self):
        bus = MessageBus()
        for _ in range(3):
            bus.post("a", "b", "ping")
        bus.post("a", "b", "pong")
        assert bus.kind_counts() == {"ping": 3, "pong": 1}


class TestRenderedLines:
    """The literal log lines of the message kinds and reasons that no
    pinned-digest run reaches.  Parsing lines into dicts cannot see field
    order or spacing; these comparisons do."""

    @staticmethod
    def ineligible(field, key, sheet, mode):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet, mode=mode)
        with pytest.raises(IneligibleVoterError):
            Voter("V99999", key.public_key(), random.Random(2)).register(authority, bus)
        return bus, 0

    @staticmethod
    def already_registered(field, key, sheet, mode):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet, mode=mode)
        voters[0].register(authority, bus)
        start = len(bus)
        with pytest.raises(AlreadyRegisteredError):
            Voter(voters[0].v_id, key.public_key(), random.Random(1)).register(authority, bus)
        return bus, start

    @staticmethod
    def disavow(field, key, sheet, mode):
        bus = MessageBus()
        authority = TamperingAuthority(key, ["V00000"], sheet)
        with pytest.raises(CredentialInvalidError):
            Voter("V00000", key.public_key(), random.Random(100)).register(authority, bus)
        return bus, 2  # after the register-request and register-grant

    @staticmethod
    def registered(field, key, sheet, mode):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet, mode=mode)
        return bus, booth, servers, voters[0], voters[0].register(authority, bus)

    @classmethod
    def closed(cls, field, key, sheet, mode):
        bus, booth, servers, voter, cred = cls.registered(field, key, sheet, mode)
        start = len(bus)
        booth.close(bus)
        with pytest.raises(AuthenticationError):
            booth.authenticate(cred, bus)
        return bus, start

    @staticmethod
    def malformed_id(field, key, sheet, mode):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet, mode=mode)
        five = FieldElement(5, field)
        with pytest.raises(AuthenticationError):
            booth.authenticate(Signature(five, five), bus)
        return bus, 0

    @staticmethod
    def degenerate_id(field, key, sheet, mode):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet, mode=mode)
        one = FieldElement(1, field)
        with pytest.raises(AuthenticationError):
            booth.authenticate(Signature(one, one), bus)
        return bus, 0

    @classmethod
    def invalid_signature(cls, field, key, sheet, mode):
        bus, booth, servers, voter, cred = cls.registered(field, key, sheet, mode)
        start = len(bus)
        wrong = FieldElement(cred.sig.value * 2 % 23, field)
        with pytest.raises(AuthenticationError):
            booth.authenticate(Signature(cred.message, wrong), bus)
        return bus, start

    @classmethod
    def collision(cls, field, key, sheet, mode):
        bus, booth, servers, voter, cred = cls.registered(field, key, sheet, mode)
        start = len(bus)
        booth.seen[cred.message.value] = cred.sig.value * 2 % 23
        with pytest.raises(CollisionError):
            booth.authenticate(cred, bus)
        return bus, start

    @classmethod
    def unknown_token(cls, field, key, sheet, mode):
        bus, booth, servers, voter, cred = cls.registered(field, key, sheet, mode)
        token = booth.authenticate(cred, bus)
        booth.authenticate(cred, bus)
        start = len(bus)
        voter.cast(token, servers, 0, bus, deliver_count=1)
        return bus, start

    @classmethod
    def zero_share(cls, field, key, sheet, mode):
        bus, booth, servers, voter, cred = cls.registered(field, key, sheet, mode)
        token = booth.authenticate(cred, bus)
        start = len(bus)
        servers[0].store_share(cred.message.value, 1, 0, token, bus)
        return bus, start

    @classmethod
    def stale_version(cls, field, key, sheet, mode):
        bus, booth, servers, voter, cred = cls.registered(field, key, sheet, mode)
        token = booth.authenticate(cred, bus)
        voter.cast(token, servers, 0, bus, deliver_count=1)
        start = len(bus)
        servers[0].store_share(cred.message.value, 1, 5, token, bus)
        return bus, start

    EXPECTED = {
        "ineligible": [
            "000001 voter/V99999 -> ra register-request v_id=V99999 blinded=16",
            "000002 ra -> voter/V99999 register-reject reason=ineligible",
        ],
        "already_registered": [
            "000007 voter/V00000 -> ra register-request v_id=V00000 blinded=1",
            "000008 ra -> voter/V00000 register-reject reason=already-registered",
        ],
        "disavow": [
            "000003 voter/V00000 -> ra confirm-credential e1=8 e2=3 challenge=1 response=1 accepted=0",
            "000004 voter/V00000 -> ra disavow forgery=1",
        ],
        "closed": [
            "000007 booth -> * close",
            "000008 holder/2 -> booth auth-request anon_id=2 signature=8",
            "000009 booth -> holder/2 auth-reject reason=closed",
        ],
        "malformed_id": [
            "000001 holder/5 -> booth auth-request anon_id=5 signature=5",
            "000002 booth -> holder/5 auth-reject reason=malformed-id",
        ],
        "degenerate_id": [
            "000001 holder/1 -> booth auth-request anon_id=1 signature=1",
            "000002 booth -> holder/1 auth-reject reason=degenerate-id",
        ],
        "invalid_signature/key-copy": [
            "000007 holder/2 -> booth auth-request anon_id=2 signature=16",
            "000008 booth -> holder/2 auth-reject reason=invalid-signature",
        ],
        "invalid_signature/zk-relay": [
            "000007 holder/2 -> booth auth-request anon_id=2 signature=16",
            "000008 booth -> ra auth-zk e1=8 e2=9 challenge=18 response=13 accepted=0",
            "000009 booth -> holder/2 auth-reject reason=invalid-signature",
        ],
        "collision/key-copy": [
            "000007 holder/2 -> booth auth-request anon_id=2 signature=8",
            "000008 booth -> holder/2 auth-reject reason=collision",
        ],
        "collision/zk-relay": [
            "000007 holder/2 -> booth auth-request anon_id=2 signature=8",
            "000008 booth -> ra auth-zk e1=8 e2=9 challenge=18 response=13 accepted=1",
            "000009 booth -> holder/2 auth-reject reason=collision",
        ],
        "unknown_token": [
            "000011 holder/2 -> server/0 cast-share anon_id=2 version=1 share=4 token=db5b5fab8f4d3e27dda1494c73cf256d",
            "000012 server/0 -> booth token-check token=db5b5fab8f4d3e27dda1494c73cf256d anon_id=2",
            "000013 booth -> server/0 token-bad token=db5b5fab8f4d3e27dda1494c73cf256d",
            "000014 server/0 -> holder/2 cast-reject anon_id=2 version=1 reason=unknown-token",
        ],
        "zero_share": [
            "000009 server/0 -> booth token-check token=db5b5fab8f4d3e27dda1494c73cf256d anon_id=2",
            "000010 booth -> server/0 token-ok token=db5b5fab8f4d3e27dda1494c73cf256d",
            "000011 server/0 -> holder/2 cast-reject anon_id=2 version=1 reason=zero-share",
        ],
        "stale_version": [
            "000013 server/0 -> booth token-check token=db5b5fab8f4d3e27dda1494c73cf256d anon_id=2",
            "000014 booth -> server/0 token-ok token=db5b5fab8f4d3e27dda1494c73cf256d",
            "000015 server/0 -> holder/2 cast-reject anon_id=2 version=1 reason=stale-version",
        ],
    }

    @pytest.mark.parametrize("scenario", sorted(EXPECTED))
    def test_rendered_lines(self, field, key, sheet, scenario):
        name, _, mode = scenario.partition("/")
        bus, start = getattr(self, name)(field, key, sheet, mode or KEY_COPY)
        assert bus.render_log()[start:] == self.EXPECTED[scenario]


class TestRegistration:
    def test_credential_verifies_and_differs_from_blinded(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet)
        cred = voters[0].register(authority, bus)
        assert in_subgroup(cred.message)
        assert verify_with_key(cred, key)
        request = next(m for m in logged(bus) if m.kind == "register-request")
        blinded = request.fields["blinded"]
        assert int(blinded) != cred.message.value

    def test_double_registration_rejected(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet)
        voters[0].register(authority, bus)
        retry = Voter(voters[0].v_id, key.public_key(), random.Random(1))
        with pytest.raises(AlreadyRegisteredError):
            retry.register(authority, bus)
        assert any(
            m.kind == "register-reject" and m.fields["reason"] == "already-registered"
            for m in logged(bus)
        )

    def test_unknown_voter_rejected(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet)
        ghost = Voter("V99999", key.public_key(), random.Random(2))
        with pytest.raises(IneligibleVoterError):
            ghost.register(authority, bus)

    def test_voter_confirms_credential_and_every_ballot(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet)
        voters[0].register(authority, bus)
        counts = bus.kind_counts()
        assert counts["confirm-credential"] == 1
        assert counts["confirm-ballot"] == len(CANDIDATES)
        for m in logged(bus):
            if m.kind.startswith("confirm-"):
                assert m.fields["accepted"] == "1"

    def test_anonymous_id_one_is_redrawn(self, field, key, sheet):
        # seed 31 draws u = 1 first (id 1), then u = 16 (id 256 mod 23 = 3)
        rng = random.Random(31)
        assert rng.randrange(1, 23) == 1 and rng.randrange(1, 23) == 16
        bus, authority, booth, servers, voters = make_setup(field, key, sheet, n_voters=1)
        voter = Voter(voters[0].v_id, key.public_key(), random.Random(31))
        cred = voter.register(authority, bus)
        assert cred.message.value == 16 * 16 % 23
        assert verify_with_key(cred, key)

    def test_tampered_signature_triggers_disavowal(self, field, key, sheet):
        bus = MessageBus()
        authority = TamperingAuthority(key, ["V00000"], sheet)
        voter = Voter("V00000", key.public_key(), random.Random(100))
        with pytest.raises(CredentialInvalidError) as exc:
            voter.register(authority, bus)
        assert exc.value.disavowal.is_forgery
        assert len(exc.value.disavowal.rounds) == 2
        assert bus.kind_counts()["disavow"] == 1

    @pytest.mark.parametrize("mode", BOOTH_MODES)
    @pytest.mark.parametrize("first_bad", ["wrong", "non-residue"])
    def test_bad_sheet_signatures_get_the_plain_path_verdict(
        self, field, key, sheet, mode, first_bad, monkeypatch
    ):
        # one signed ballot doubled (2 is a residue, so it stays in the
        # subgroup) and one replaced by the non-residue 5; every voter fails
        # at the first bad one, the second on the sheet's cached verdicts
        # and tables, with the verdict and log the plain path gives
        wrong = sheet.signed_ballots[1].value * 2 % 23
        assert wrong not in {s.value for s in sheet.signed_ballots}
        bad = {"wrong": wrong, "non-residue": 5}
        second_bad = "non-residue" if first_bad == "wrong" else "wrong"
        signed = (sheet.signed_ballots[0].value, bad[first_bad], bad[second_bad])

        def register_two():
            bad_sheet = BallotSheet(
                sheet.candidates, sheet.ballots, tuple(field.element(s) for s in signed)
            )
            bus, authority, booth, servers, voters = make_setup(
                field, key, bad_sheet, mode=mode, n_voters=2
            )
            verdicts = []
            for voter in voters:
                with pytest.raises(CredentialInvalidError) as exc:
                    voter.register(authority, bus)
                verdicts.append(exc.value.disavowal)
            return verdicts, bus.render_log()

        verdicts, log = register_two()
        assert all(verdict.is_forgery for verdict in verdicts)
        assert [line.split(" ")[4] for line in log].count("disavow") == 2
        monkeypatch.setattr(
            BallotSheet,
            "signatures",
            property(lambda s: tuple(map(Signature, s.ballots, s.signed_ballots))),
        )
        assert register_two() == (verdicts, log)

    def test_second_registration_costs_eight_exponentiations(self, monkeypatch):
        # credential: blinded**x, m**e1, c**x, sig**e1; each of the four
        # ballots: c**x only, since m**e1 and sig**e1 come from the sheet's
        # tables; subgroup tests: the id in blind and both credential halves
        params = field_64()
        key = random_signing_key(params, random.Random(1))
        four = make_ballot_sheet(("a", "b", "c", "d"), key, random.Random(7))
        bus, authority, booth, servers, voters = make_setup(params, key, four, n_voters=2)
        voters[0].register(authority, bus)
        mod_exp = count_calls(monkeypatch, "mod_exp")
        in_subgroup = count_calls(monkeypatch, "in_subgroup")
        voters[1].register(authority, bus)
        assert (mod_exp, in_subgroup) == ({"mod_exp": 8}, {"in_subgroup": 3})


class TestBooth:
    def test_authenticate_issues_bound_token(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet)
        cred = voters[0].register(authority, bus)
        token = booth.authenticate(cred, bus)
        assert booth.token_valid(token.token, cred.message.value)
        assert not booth.token_valid(token.token, cred.message.value + 1)
        assert len(token.token) == 32

    def test_bad_signature_rejected(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet)
        cred = voters[0].register(authority, bus)
        wrong = FieldElement(cred.sig.value * 2 % 23, field)
        with pytest.raises(AuthenticationError):
            booth.authenticate(Signature(cred.message, wrong), bus)

    def test_zero_id_rejected(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet)
        zero = FieldElement(0, field)
        with pytest.raises(AuthenticationError):
            booth.authenticate(Signature(zero, zero), bus)

    def test_reauthentication_kills_previous_token(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet)
        cred = voters[0].register(authority, bus)
        first = booth.authenticate(cred, bus)
        second = booth.authenticate(cred, bus)
        assert first.token != second.token
        assert not booth.token_valid(first.token, cred.message.value)
        assert booth.token_valid(second.token, cred.message.value)
        assert second.issued_at > first.issued_at

    def test_same_id_different_signature_is_collision(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet)
        cred = voters[0].register(authority, bus)
        # a correct key admits one signature per id, so the conflicting
        # binding has to be planted directly
        booth.seen[cred.message.value] = (cred.sig.value * 2) % 23
        with pytest.raises(CollisionError):
            booth.authenticate(cred, bus)

    def test_closed_booth_rejects(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet)
        cred = voters[0].register(authority, bus)
        token = booth.authenticate(cred, bus)
        booth.close(bus)
        assert not booth.token_valid(token.token, cred.message.value)
        with pytest.raises(AuthenticationError):
            booth.authenticate(cred, bus)

    def test_mode_validation(self, field, key, sheet):
        authority = RegistrationAuthority(key, [], sheet)
        with pytest.raises(ParameterError):
            PollingBooth("carrier-pigeon", random.Random(0), authority)

    def test_zk_relay_authenticates_without_key_copy(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet, mode=ZK_RELAY)
        cred = voters[0].register(authority, bus)
        token = booth.authenticate(cred, bus)
        assert booth.token_valid(token.token, cred.message.value)
        assert booth.key is None
        relayed = [m for m in logged(bus) if m.kind == "auth-zk"]
        assert len(relayed) == 1
        # the relayed round carries only the blinded challenge, never the id
        fields = relayed[0].fields
        assert "anon_id" not in fields

    def test_zk_relay_authentication_costs_three_exponentiations(
        self, field, key, sheet, monkeypatch
    ):
        # m**e1, c**x and sig**e1; g**e2 and y**e2 come from the tables the
        # voters' registrations already built, since booth and voters share
        # the authority's one public key
        bus, authority, booth, servers, voters = make_setup(field, key, sheet, mode=ZK_RELAY)
        creds = register_all(voters, authority, bus)
        counts = {"mod_exp": 0, "tables": 0}
        mod_exp, build = blindsig.mod_exp, modmath.FixedBase.__init__

        def counted_mod_exp(base, exponent):
            counts["mod_exp"] += 1
            return mod_exp(base, exponent)

        def counted_build(table, base):
            counts["tables"] += 1
            build(table, base)

        monkeypatch.setattr(blindsig, "mod_exp", counted_mod_exp)
        monkeypatch.setattr(modmath.FixedBase, "__init__", counted_build)
        booth.authenticate(creds[0], bus)
        assert counts == {"mod_exp": 3, "tables": 0}

    @pytest.mark.parametrize(
        "mode, present, tests",
        [
            # a fresh wire copy of the credential: the malformed-id check and
            # a zk-relay confirm share its verdict; confirm adds only the
            # signature half's
            pytest.param(KEY_COPY, "wire-copy", 1, id="key-copy-1"),
            pytest.param(ZK_RELAY, "wire-copy", 2, id="zk-relay-2"),
            # the registered object: its confirmation cached both verdicts
            pytest.param(KEY_COPY, "registered", 0, id="key-copy-registered-0"),
            pytest.param(ZK_RELAY, "registered", 0, id="zk-relay-registered-0"),
        ],
    )
    def test_authentication_tests_the_id_once(self, mode, present, tests, monkeypatch):
        params = field_64()
        key = random_signing_key(params, random.Random(1))
        sheet = make_ballot_sheet(CANDIDATES, key, random.Random(7))
        bus, authority, booth, servers, voters = make_setup(params, key, sheet, mode=mode)
        cred = voters[0].register(authority, bus)
        if present == "wire-copy":
            cred = Signature(cred.message, cred.sig)
        counts = count_calls(monkeypatch, "in_subgroup")
        booth.authenticate(cred, bus)
        assert counts == {"in_subgroup": tests}

    @pytest.mark.parametrize("mode", BOOTH_MODES)
    def test_non_residue_id_is_malformed(self, field, key, sheet, mode):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet, mode=mode)
        five = FieldElement(5, field)
        with pytest.raises(AuthenticationError):
            booth.authenticate(Signature(five, five), bus)
        assert [(m.kind, m.fields) for m in logged(bus, 1)] == [
            ("auth-reject", {"reason": "malformed-id"})
        ]

    def test_zk_relay_rejects_forged_signature(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet, mode=ZK_RELAY)
        cred = voters[0].register(authority, bus)
        wrong = FieldElement(cred.sig.value * 2 % 23, field)
        with pytest.raises(AuthenticationError):
            booth.authenticate(Signature(cred.message, wrong), bus)

    @pytest.mark.parametrize("mode", [KEY_COPY, ZK_RELAY])
    def test_degenerate_id_rejected_before_any_registration(self, field, key, sheet, mode):
        # 1**x = 1 under every key, so (anon_id=1, sig=1) verifies in both
        # modes without anyone registering; the booth must refuse it
        bus, authority, booth, servers, voters = make_setup(field, key, sheet, mode=mode)
        one = FieldElement(1, field)
        with pytest.raises(AuthenticationError):
            booth.authenticate(Signature(one, one), bus)
        assert [(m.kind, m.fields) for m in logged(bus, 1)] == [
            ("auth-reject", {"reason": "degenerate-id"})
        ]
        assert booth.live == {} and booth.seen == {}


class TestCasting:
    def setup_voted(self, field, key, sheet, **kwargs):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet, **kwargs)
        creds = register_all(voters, authority, bus)
        return bus, authority, booth, servers, voters, creds

    def test_full_cast_accepted_everywhere(self, field, key, sheet):
        bus, authority, booth, servers, voters, creds = self.setup_voted(field, key, sheet)
        token = booth.authenticate(creds[0], bus)
        ack = voters[0].cast(token, servers, 0, bus)
        assert ack.version == 1
        assert [d.accepted for d in ack.deliveries] == [True, True, True]
        product = 1
        for share in ack.shares:
            product = product * share % 23
        assert product == sheet.signed_ballots[0].value
        for server in servers:
            record = server.store[creds[0].message.value]
            assert record.version == 1

    def test_recast_overwrites(self, field, key, sheet):
        bus, authority, booth, servers, voters, creds = self.setup_voted(field, key, sheet)
        token = booth.authenticate(creds[0], bus)
        voters[0].cast(token, servers, 0, bus)
        token2 = booth.authenticate(creds[0], bus)
        ack = voters[0].cast(token2, servers, 2, bus)
        assert ack.version == 2
        assert [d.accepted for d in ack.deliveries] == [True, True, True]
        result = tally(servers, sheet, partial(verify_with_key, key=key), bus)
        assert result.counts == {"alpha": 0, "beta": 0, "gamma": 1}
        assert result.distinct_ids == 1

    def test_stale_version_rejected(self, field, key, sheet):
        bus, authority, booth, servers, voters, creds = self.setup_voted(field, key, sheet)
        token = booth.authenticate(creds[0], bus)
        voters[0].cast(token, servers, 0, bus)
        voters[0].cast(token, servers, 1, bus)
        anon_id = creds[0].message.value
        accepted, reason = servers[0].store_share(anon_id, 1, 5, token, bus)
        assert not accepted and reason == "stale-version"
        accepted, reason = servers[0].store_share(anon_id, 2, 5, token, bus)
        assert not accepted and reason == "stale-version"

    def test_old_token_rejected_after_reauthentication(self, field, key, sheet):
        bus, authority, booth, servers, voters, creds = self.setup_voted(field, key, sheet)
        token = booth.authenticate(creds[0], bus)
        voters[0].cast(token, servers, 0, bus)
        booth.authenticate(creds[0], bus)
        ack = voters[0].cast(token, servers, 1, bus)
        assert [d.accepted for d in ack.deliveries] == [False, False, False]
        assert all(d.reason == "unknown-token" for d in ack.deliveries)
        result = tally(servers, sheet, partial(verify_with_key, key=key), bus)
        assert result.counts["alpha"] == 1

    def test_partial_cast_counts_as_inconsistent(self, field, key, sheet):
        bus, authority, booth, servers, voters, creds = self.setup_voted(field, key, sheet)
        token = booth.authenticate(creds[0], bus)
        ack = voters[0].cast(token, servers, 0, bus, deliver_count=2)
        assert [d.accepted for d in ack.deliveries] == [True, True]
        result = tally(servers, sheet, partial(verify_with_key, key=key), bus)
        assert result.counts == {"alpha": 0, "beta": 0, "gamma": 0}
        assert result.inconsistent == 1
        assert result.distinct_ids == 1

    def test_partial_recast_leaves_mixed_versions(self, field, key, sheet):
        bus, authority, booth, servers, voters, creds = self.setup_voted(field, key, sheet)
        token = booth.authenticate(creds[0], bus)
        voters[0].cast(token, servers, 0, bus)
        voters[0].cast(token, servers, 1, bus, deliver_count=1)
        result = tally(servers, sheet, partial(verify_with_key, key=key), bus)
        assert result.inconsistent == 1
        assert result.counts == {"alpha": 0, "beta": 0, "gamma": 0}

    def test_zero_share_rejected(self, field, key, sheet):
        bus, authority, booth, servers, voters, creds = self.setup_voted(field, key, sheet)
        token = booth.authenticate(creds[0], bus)
        accepted, reason = servers[0].store_share(creds[0].message.value, 1, 0, token, bus)
        assert not accepted and reason == "zero-share"

    @pytest.mark.parametrize("mode", BOOTH_MODES)
    @pytest.mark.parametrize("share", [23, 46, -1, 24])
    def test_share_outside_the_field_rejected(self, field, key, sheet, mode, share):
        # p and 2p are 0 mod p, so they would slip past the zero-share rule
        bus, authority, booth, servers, voters, creds = self.setup_voted(
            field, key, sheet, mode=mode
        )
        token = booth.authenticate(creds[0], bus)
        accepted, reason = servers[0].store_share(creds[0].message.value, 1, share, token, bus)
        assert (accepted, reason) == (False, "share-out-of-range")
        assert servers[0].store == {}
        assert logged(bus, len(bus) - 1)[0].fields["reason"] == "share-out-of-range"

    def test_cast_argument_checks(self, field, key, sheet):
        bus, authority, booth, servers, voters, creds = self.setup_voted(field, key, sheet)
        token = booth.authenticate(creds[0], bus)
        with pytest.raises(ParameterError):
            voters[0].cast(token, servers, 9, bus)
        with pytest.raises(ParameterError):
            voters[0].cast(token, servers, 0, bus, deliver_count=0)
        fresh = Voter("V00009", key.public_key(), random.Random(3))
        with pytest.raises(VotingError):
            fresh.cast(token, servers, 0, bus)


class TestTally:
    def run_votes(self, field, key, sheet, choices, n_voters=None, k=3):
        n = n_voters or len(choices)
        bus, authority, booth, servers, voters = make_setup(
            field, key, sheet, n_voters=n, k=k
        )
        creds = register_all(voters, authority, bus)
        for voter, cred, choice in zip(voters, creds, choices):
            token = booth.authenticate(cred, bus)
            voter.cast(token, servers, choice, bus)
        return bus, booth, servers, creds

    def test_three_voter_example(self, field, key, sheet):
        bus, booth, servers, creds = self.run_votes(field, key, sheet, [0, 0, 1])
        result = tally(servers, sheet, partial(verify_with_key, key=key), bus)
        assert result.counts == {"alpha": 2, "beta": 1, "gamma": 0}
        assert result.invalid == 0
        assert result.inconsistent == 0
        assert result.distinct_ids == 3

    def test_unmatched_product_counts_invalid(self, field, key, sheet):
        bus, booth, servers, creds = self.run_votes(field, key, sheet, [0])
        signed_values = {s.value for s in sheet.signed_ballots}
        target = next(
            v for v in (1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18) if v not in signed_values
        )
        # plant a complete, version-consistent record set whose product
        # matches no signed ballot
        shares = [1] * (len(servers) - 1) + [target]
        for server, share in zip(servers, shares):
            server.store[9] = CastRecord(1, share)
        result = tally(servers, sheet, partial(verify_with_key, key=key), bus)
        assert result.invalid == 1
        assert result.counts["alpha"] == 1
        assert result.distinct_ids == 2

    def test_relay_verifier_matches_key_verifier(self, field, key, sheet):
        bus, booth, servers, creds = self.run_votes(field, key, sheet, [2, 1])
        by_key = tally(servers, sheet, partial(verify_with_key, key=key), bus)
        responder, rng = RegistrationAuthority(key, [], sheet).responder, random.Random(5)
        by_relay = tally(
            servers,
            sheet,
            lambda signature: confirm(signature, key.public_key(), responder, rng).accepted,
            bus,
        )
        assert by_key.counts == by_relay.counts

    def test_tally_rejects_bad_sheet_signature(self, field, key, sheet):
        bus, booth, servers, creds = self.run_votes(field, key, sheet, [0])
        forged = BallotSheet(
            sheet.candidates,
            sheet.ballots,
            tuple(FieldElement(s.value * 2 % 23, field) for s in sheet.signed_ballots),
        )
        with pytest.raises(DomainError):
            tally(servers, forged, partial(verify_with_key, key=key), bus)

    def test_render_lines(self, field, key, sheet):
        bus, booth, servers, creds = self.run_votes(field, key, sheet, [1])
        result = tally(servers, sheet, partial(verify_with_key, key=key), bus)
        lines = result.render_lines(CANDIDATES)
        assert lines[0] == "count alpha = 0"
        assert lines[1] == "count beta = 1"
        assert lines[-1] == "distinct_ids = 1"


class TestTraceProperties:
    def full_run(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet, n_voters=4)
        creds = register_all(voters, authority, bus)
        for i, (voter, cred) in enumerate(zip(voters, creds)):
            token = booth.authenticate(cred, bus)
            voter.cast(token, servers, i % 3, bus)
        token = booth.authenticate(creds[0], bus)
        voters[0].cast(token, servers, 2, bus)
        booth.close(bus)
        tally(servers, sheet, partial(verify_with_key, key=key), bus)
        return bus, creds

    REGISTRATION_KINDS = {
        "register-request",
        "register-grant",
        "register-reject",
        "confirm-credential",
        "confirm-ballot",
        "disavow",
    }

    def test_true_identity_stays_in_registration_phase(self, field, key, sheet):
        bus, creds = self.full_run(field, key, sheet)
        for line, message in zip(bus.render_log(), logged(bus)):
            mentions_identity = "voter/" in line
            carries_v_id = "v_id" in message.fields
            if message.kind in self.REGISTRATION_KINDS:
                assert mentions_identity
            else:
                assert not mentions_identity
            if carries_v_id:
                assert message.kind == "register-request"

    def test_voting_messages_use_anonymous_names(self, field, key, sheet):
        bus, creds = self.full_run(field, key, sheet)
        casts = [m for m in logged(bus) if m.kind == "cast-share"]
        assert casts
        for message in casts:
            assert message.sender.startswith("holder/")
            assert message.sender == f"holder/{message.fields['anon_id']}"

    def test_accepted_versions_strictly_increase_per_id(self, field, key, sheet):
        bus, creds = self.full_run(field, key, sheet)
        latest: dict[tuple[str, str], int] = {}
        accepts = 0
        for message in logged(bus):
            if message.kind != "cast-accept":
                continue
            accepts += 1
            fields = message.fields
            slot = (message.sender, fields["anon_id"])
            version = int(fields["version"])
            assert version > latest.get(slot, 0)
            latest[slot] = version
        assert accepts == 15

    def test_log_is_deterministic(self, field, key, sheet):
        first, _ = self.full_run(field, key, sheet)
        second, _ = self.full_run(field, key, sheet)
        assert first.render_log() == second.render_log()
