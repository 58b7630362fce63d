"""Actor-level tests: registration, booth sessions, casting, tallying."""

import random
import sys

import pytest

from splitvote import blindsig, modmath
from splitvote.blindsig import (
    PublishedSignature,
    Signature,
    SigningKey,
    confirm_batch,
    random_signing_key,
    sign,
    verify_with_key,
)
from splitvote.errors import DomainError, ParameterError, VotingError
from splitvote.modmath import in_subgroup
from splitvote.protocol import (
    BOOTH_MODES,
    KEY_COPY,
    ZK_RELAY,
    AlreadyRegisteredError,
    AuthenticationError,
    BallotSheet,
    CredentialInvalidError,
    IneligibleVoterError,
    MessageBus,
    PollingBooth,
    RegistrationAuthority,
    VoteServer,
    Voter,
    label_fits,
    make_ballot_sheet,
    tally,
)
from splitvote.sharing import complete_split, free_shares
from tests.conftest import kind_counts, logged

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


class SeededVoter(Voter):
    """A voter beside its own generator, for tests that cast at will:
    registration draws from it, then each cast its k - 1 free shares, the
    order in which a run reads a voter's stream."""

    def __init__(self, v_id, authority_key, rng):
        super().__init__(v_id, authority_key)
        self.rng = rng

    def register(self, authority, bus):
        return super().register(authority, bus, self.rng)

    def cast(self, token, servers, candidate_index, bus, deliver_count=None):
        free = free_shares(len(servers) - 1, self.authority_key.params, self.rng)
        return super().cast(token, servers, candidate_index, free, bus, deliver_count)


def make_setup(field, key, sheet, mode=KEY_COPY, n_voters=3, k=3, booth_seed=11):
    bus = MessageBus()
    roster = [f"V{i:05d}" for i in range(n_voters)]
    authority = RegistrationAuthority(key, roster, sheet)
    booth = PollingBooth(mode, random.Random(booth_seed), authority)
    servers = [VoteServer(i, booth) for i in range(k)]
    voters = [
        SeededVoter(v_id, key.public_key(), random.Random(VOTER_SEEDS[j]))
        for j, v_id in enumerate(roster)
    ]
    return bus, authority, booth, servers, voters


class TamperingAuthority(RegistrationAuthority):
    def register(self, v_id, blinded, bus):
        signed, sheet = super().register(v_id, blinded, bus)
        # doubling stays inside the subgroup (2 is a residue), so only the
        # response equation can catch it
        return signed * 2 % 23, sheet


def key_verifier(key):
    """A ``tally`` verifier that checks the sheet with the signing key."""
    return lambda signatures: all(verify_with_key(s, key) for s in signatures)


def register_all(voters, authority, bus):
    return [voter.register(authority, bus) for voter in voters]


def count_calls(monkeypatch, name, counts=None):
    """Count calls of the ``modmath`` function ``name`` from every module,
    in ``counts[name]``."""
    counts = {} if counts is None else counts
    counts[name] = 0
    original = getattr(modmath, name)

    def counted(*args):
        counts[name] += 1
        return original(*args)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("splitvote") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return counts


def count_work(monkeypatch):
    """Count ``mod_exp`` calls, subgroup tests and fixed-base table powers."""
    counts = count_calls(monkeypatch, "mod_exp")
    count_calls(monkeypatch, "in_subgroup", counts)
    counts["table"] = 0
    power = modmath.FixedBase.power

    def counted_power(table, exponent):
        counts["table"] += 1
        return power(table, exponent)

    monkeypatch.setattr(modmath.FixedBase, "power", counted_power)
    return counts


def field_64():
    return modmath.generate_params(64, random.Random(2))


class TestBallotSheet:
    def test_make_sheet_values_verify(self, field, key, sheet):
        assert len(sheet.ballots) == 3
        assert len(set(sheet.ballots)) == 3
        for ballot, signed in zip(sheet.ballots, sheet.signed_ballots):
            assert in_subgroup(ballot, field)
            assert verify_with_key(Signature(ballot, signed, field), key)

    def test_make_sheet_deterministic(self, field, key):
        a = make_ballot_sheet(CANDIDATES, key, random.Random(7))
        b = make_ballot_sheet(CANDIDATES, key, random.Random(7))
        assert a == b

    def test_too_many_candidates(self, field, key):
        names = tuple(f"c{i}" for i in range(12))
        with pytest.raises(ParameterError):
            make_ballot_sheet(names, key, random.Random(0))

    def test_needs_two_candidates(self, field):
        with pytest.raises(ParameterError):
            BallotSheet(("solo",), (2,), (2,), field)

    def test_rejects_duplicate_ballots(self, field):
        with pytest.raises(ParameterError):
            BallotSheet(("a", "b"), (2, 2), (8, 8), field)

    def test_rejects_repeated_signed_ballots(self, field):
        with pytest.raises(ParameterError, match="signed ballot values must be distinct"):
            BallotSheet(("a", "b"), (2, 3), (8, 8), field)

    def test_rejects_nonresidue_ballot(self, field):
        with pytest.raises(DomainError):
            BallotSheet(("a", "b"), (2, 5), (8, 3), field)

    @pytest.mark.parametrize(
        "label", ["a b", "x:1", "a=b", "", "tab\there", "nbsp\u00a0x", "a,b", "a#b"]
    )
    def test_rejects_a_label_reports_cannot_carry(self, field, label):
        assert not label_fits(label)
        with pytest.raises(ParameterError):
            BallotSheet(("ok", label), (2, 3), (8, 6), field)

    def test_rejects_duplicate_labels(self, field):
        with pytest.raises(ParameterError, match="duplicate label"):
            BallotSheet(("a", "b", "a"), (2, 3, 4), (8, 6, 18), field)

    def test_label_fits(self):
        assert all(map(label_fits, ["a", "option-1", "é", "a.b", "x1_"]))

    def test_rejects_length_mismatch(self, field):
        with pytest.raises(ParameterError):
            BallotSheet(("a", "b"), (2, 3), (8,), field)

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


class TestRenderedLines:
    """The literal log lines of the message kinds and reasons that no
    pinned-digest run reaches, and of a recast, which has no ``auth-zk``
    line.  Parsing lines into dicts cannot see field order or spacing;
    these comparisons do."""

    @staticmethod
    def ineligible(field, key, sheet, mode):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet, mode=mode)
        with pytest.raises(IneligibleVoterError):
            Voter("V99999", key.public_key()).register(authority, bus, random.Random(2))
        return bus, 0

    @staticmethod
    def already_registered(field, key, sheet, mode):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet, mode=mode)
        voters[0].register(authority, bus)
        start = len(bus)
        with pytest.raises(AlreadyRegisteredError):
            Voter(voters[0].v_id, key.public_key()).register(authority, bus, random.Random(1))
        return bus, start

    @staticmethod
    def malformed_blinded(field, key, sheet, mode):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet, mode=mode)
        with pytest.raises(DomainError):
            authority.register("V00000", 0, bus)
        return bus, 0

    @staticmethod
    def bad_sheet(field, key, sheet, mode):
        # the batch is refused, so the credential and then every ballot get
        # a round of their own in sheet order, up to the doubled one, which
        # is disavowed
        signed = list(sheet.signed_ballots)
        signed[1] = signed[1] * 2 % 23
        bad_sheet = BallotSheet(sheet.candidates, sheet.ballots, tuple(signed), field)
        bus = MessageBus()
        authority = RegistrationAuthority(key, ["V00000"], bad_sheet)
        with pytest.raises(CredentialInvalidError):
            Voter("V00000", key.public_key()).register(authority, bus, random.Random(100))
        return bus, 2  # after the register-request and register-grant

    @staticmethod
    def disavow(field, key, sheet, mode):
        bus = MessageBus()
        authority = TamperingAuthority(key, ["V00000"], sheet)
        with pytest.raises(CredentialInvalidError):
            Voter("V00000", key.public_key()).register(authority, bus, random.Random(100))
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
        with pytest.raises(AuthenticationError):
            booth.authenticate(Signature(5, 5, field), bus)
        return bus, 0

    @classmethod
    def wrapped_id(cls, field, key, sheet, mode):
        # a registered credential with p added to its id: a + p has the
        # powers of a, so only the range check tells them apart
        bus, booth, servers, voter, cred = cls.registered(field, key, sheet, mode)
        start = len(bus)
        with pytest.raises(AuthenticationError):
            booth.authenticate(Signature(cred.message + 23, cred.sig, field), bus)
        return bus, start

    @staticmethod
    def degenerate_id(field, key, sheet, mode):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet, mode=mode)
        with pytest.raises(AuthenticationError):
            booth.authenticate(Signature(1, 1, field), bus)
        return bus, 0

    @classmethod
    def invalid_signature(cls, field, key, sheet, mode):
        bus, booth, servers, voter, cred = cls.registered(field, key, sheet, mode)
        start = len(bus)
        wrong = cred.sig * 2 % 23
        with pytest.raises(AuthenticationError):
            booth.authenticate(Signature(cred.message, wrong, field), bus)
        return bus, start

    @classmethod
    def recast(cls, field, key, sheet, mode):
        # the granted pair again: no auth-zk round and no key check
        bus, booth, servers, voter, cred = cls.registered(field, key, sheet, mode)
        booth.authenticate(cred, bus)
        start = len(bus)
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
        servers[0].store_share(cred.message, 1, 0, token, bus)
        return bus, start

    @classmethod
    def stale_version(cls, field, key, sheet, mode):
        bus, booth, servers, voter, cred = cls.registered(field, key, sheet, mode)
        token = booth.authenticate(cred, bus)
        voter.cast(token, servers, 0, bus, deliver_count=1)
        start = len(bus)
        servers[0].store_share(cred.message, 1, 5, token, bus)
        return bus, start

    EXPECTED = {
        "ineligible": [
            "000001 voter/V99999 -> ra register-request v_id=V99999 blinded=16",
            "000002 ra -> voter/V99999 register-reject reason=ineligible",
        ],
        "already_registered": [
            "000004 voter/V00000 -> ra register-request v_id=V00000 blinded=1",
            "000005 ra -> voter/V00000 register-reject reason=already-registered",
        ],
        "malformed_blinded": [
            "000001 ra -> voter/V00000 register-reject reason=malformed-blinded",
        ],
        "bad_sheet": [
            "000003 voter/V00000 -> ra confirm-batch weights=8,3,7,6 e1=7 e2=9 challenge=1 response=1 accepted=0",
            "000004 voter/V00000 -> ra confirm-credential e1=2 e2=9 challenge=1 response=1 accepted=1",
            "000005 voter/V00000 -> ra confirm-ballot candidate=alpha e1=2 e2=2 challenge=6 response=9 accepted=1",
            "000006 voter/V00000 -> ra confirm-ballot candidate=beta e1=8 e2=5 challenge=4 response=18 accepted=0",
            "000007 voter/V00000 -> ra disavow forgery=1",
        ],
        "disavow": [
            "000003 voter/V00000 -> ra confirm-batch weights=8,3,7,6 e1=7 e2=9 challenge=1 response=1 accepted=0",
            "000004 voter/V00000 -> ra confirm-credential e1=2 e2=9 challenge=1 response=1 accepted=0",
            "000005 voter/V00000 -> ra disavow forgery=1",
        ],
        "closed": [
            "000004 booth -> * close",
            "000005 holder/2 -> booth auth-request anon_id=2 signature=8",
            "000006 booth -> holder/2 auth-reject reason=closed",
        ],
        "malformed_id": [
            "000001 holder/5 -> booth auth-request anon_id=5 signature=5",
            "000002 booth -> holder/5 auth-reject reason=malformed-id",
        ],
        "wrapped_id/key-copy": [
            "000004 holder/25 -> booth auth-request anon_id=25 signature=8",
            "000005 booth -> holder/25 auth-reject reason=malformed-id",
        ],
        "wrapped_id/zk-relay": [
            "000004 holder/25 -> booth auth-request anon_id=25 signature=8",
            "000005 booth -> holder/25 auth-reject reason=malformed-id",
        ],
        "degenerate_id": [
            "000001 holder/1 -> booth auth-request anon_id=1 signature=1",
            "000002 booth -> holder/1 auth-reject reason=degenerate-id",
        ],
        "invalid_signature/key-copy": [
            "000004 holder/2 -> booth auth-request anon_id=2 signature=16",
            "000005 booth -> holder/2 auth-reject reason=invalid-signature",
        ],
        "invalid_signature/zk-relay": [
            "000004 holder/2 -> booth auth-request anon_id=2 signature=16",
            "000005 booth -> ra auth-zk e1=8 e2=9 challenge=18 response=13 accepted=0",
            "000006 booth -> holder/2 auth-reject reason=invalid-signature",
        ],
        "recast/key-copy": [
            "000006 holder/2 -> booth auth-request anon_id=2 signature=8",
            "000007 booth -> holder/2 auth-grant token=73ab48767734d7c1c7fde805ec99108d issued_at=2",
        ],
        "recast/zk-relay": [
            "000007 holder/2 -> booth auth-request anon_id=2 signature=8",
            "000008 booth -> holder/2 auth-grant token=965eda32dae445508201e2bd73ab4876 issued_at=2",
        ],
        "unknown_token": [
            "000008 holder/2 -> server/0 cast-share anon_id=2 version=1 share=4 token=db5b5fab8f4d3e27dda1494c73cf256d",
            "000009 server/0 -> booth token-check token=db5b5fab8f4d3e27dda1494c73cf256d anon_id=2",
            "000010 booth -> server/0 token-bad token=db5b5fab8f4d3e27dda1494c73cf256d",
            "000011 server/0 -> holder/2 cast-reject anon_id=2 version=1 reason=unknown-token",
        ],
        "zero_share": [
            "000006 server/0 -> booth token-check token=db5b5fab8f4d3e27dda1494c73cf256d anon_id=2",
            "000007 booth -> server/0 token-ok token=db5b5fab8f4d3e27dda1494c73cf256d",
            "000008 server/0 -> holder/2 cast-reject anon_id=2 version=1 reason=zero-share",
        ],
        "stale_version": [
            "000010 server/0 -> booth token-check token=db5b5fab8f4d3e27dda1494c73cf256d anon_id=2",
            "000011 booth -> server/0 token-ok token=db5b5fab8f4d3e27dda1494c73cf256d",
            "000012 server/0 -> holder/2 cast-reject anon_id=2 version=1 reason=stale-version",
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
        assert in_subgroup(cred.message, field)
        assert verify_with_key(cred, key)
        request = next(m for m in logged(bus) if m.kind == "register-request")
        blinded = request.fields["blinded"]
        assert int(blinded) != cred.message

    def test_double_registration_rejected(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet)
        voters[0].register(authority, bus)
        retry = Voter(voters[0].v_id, key.public_key())
        with pytest.raises(AlreadyRegisteredError):
            retry.register(authority, bus, random.Random(1))
        assert any(
            m.kind == "register-reject" and m.fields["reason"] == "already-registered"
            for m in logged(bus)
        )

    def test_unknown_voter_rejected(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet)
        ghost = Voter("V99999", key.public_key())
        with pytest.raises(IneligibleVoterError):
            ghost.register(authority, bus, random.Random(2))

    def test_voter_confirms_credential_and_every_ballot(self, field, key, sheet):
        # one batched round, weighted once for the credential and once per
        # ballot, and no round of their own
        bus, authority, booth, servers, voters = make_setup(field, key, sheet)
        voters[0].register(authority, bus)
        counts = kind_counts(bus)
        assert counts["confirm-batch"] == 1
        assert "confirm-credential" not in counts and "confirm-ballot" not in counts
        batch = next(m for m in logged(bus) if m.kind == "confirm-batch")
        assert batch.fields["accepted"] == "1"
        weights = [int(r) for r in batch.fields["weights"].split(",")]
        assert len(weights) == 1 + len(CANDIDATES)
        assert all(1 <= r <= field.q - 1 for r in weights)

    @pytest.mark.parametrize("blinded", [0, 23, -1])
    def test_refused_blinded_value_leaves_the_voter_unregistered(
        self, field, key, sheet, blinded
    ):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet)
        with pytest.raises(DomainError):
            authority.register(voters[0].v_id, blinded, bus)
        assert bus.render_log() == [
            "000001 ra -> voter/V00000 register-reject reason=malformed-blinded"
        ]
        assert authority.registered == set()
        cred = voters[0].register(authority, bus)
        assert verify_with_key(cred, key)
        assert authority.registered == {voters[0].v_id}

    def test_anonymous_id_one_is_redrawn(self, field, key, sheet):
        # seed 31 draws u = 1 first (id 1), then u = 16 (id 256 mod 23 = 3)
        rng = random.Random(31)
        assert rng.randrange(1, 23) == 1 and rng.randrange(1, 23) == 16
        bus, authority, booth, servers, voters = make_setup(field, key, sheet, n_voters=1)
        voter = Voter(voters[0].v_id, key.public_key())
        cred = voter.register(authority, bus, random.Random(31))
        assert cred.message == 16 * 16 % 23
        assert verify_with_key(cred, key)

    def test_tampered_signature_triggers_disavowal(self, field, key, sheet):
        bus = MessageBus()
        authority = TamperingAuthority(key, ["V00000"], sheet)
        voter = Voter("V00000", key.public_key())
        with pytest.raises(CredentialInvalidError) as exc:
            voter.register(authority, bus, random.Random(100))
        assert exc.value.disavowal.is_forgery
        assert len(exc.value.disavowal.rounds) == 2
        assert kind_counts(bus)["disavow"] == 1

    @pytest.mark.parametrize("mode", BOOTH_MODES)
    @pytest.mark.parametrize("first_bad", ["wrong", "non-residue"])
    def test_bad_sheet_signatures_get_the_plain_path_verdict(
        self, field, key, sheet, mode, first_bad, monkeypatch
    ):
        # one signed ballot doubled (2 is a residue, so it stays in the
        # subgroup) and one replaced by the non-residue 5; every voter fails
        # at the first bad one, the second on the sheet's cached verdicts
        # and tables, with the verdict and log the plain path gives
        wrong = sheet.signed_ballots[1] * 2 % 23
        assert wrong not in sheet.signed_ballots
        bad = {"wrong": wrong, "non-residue": 5}
        second_bad = "non-residue" if first_bad == "wrong" else "wrong"
        signed = (sheet.signed_ballots[0], bad[first_bad], bad[second_bad])

        def register_two():
            bad_sheet = BallotSheet(sheet.candidates, sheet.ballots, signed, field)
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
            property(
                lambda s: tuple(Signature(m, sig, s.params) for m, sig in zip(s.ballots, s.signed_ballots))
            ),
        )
        assert register_two() == (verdicts, log)

    def test_second_registration_costs_four_exponentiations(self, monkeypatch):
        # blinded**x, then one batched round over the credential and the
        # four ballots: the credential's m**t and sig**t, and c**x, since
        # every m_i and s_i power comes from the sheet's tables; table
        # powers: g**b, y**b, g**e2, y**e2 and the sheet's eight; subgroup
        # tests: both credential halves, the id's being the one the batch
        # makes; messages: request, grant and batch, for each voter
        params = field_64()
        key = random_signing_key(params, random.Random(1))
        four = make_ballot_sheet(("a", "b", "c", "d"), key, random.Random(7))
        bus, authority, booth, servers, voters = make_setup(params, key, four, n_voters=2)
        voters[0].register(authority, bus)
        counts = count_work(monkeypatch)
        voters[1].register(authority, bus)
        assert counts == {"mod_exp": 4, "in_subgroup": 2, "table": 12}
        assert len(bus) == 6


class TestBooth:
    def test_authenticate_issues_bound_token(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet)
        cred = voters[0].register(authority, bus)
        token = booth.authenticate(cred, bus)
        assert booth.token_valid(token, cred.message)
        assert not booth.token_valid(token, cred.message + 1)
        assert len(token) == 32

    def test_bad_signature_rejected(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet)
        cred = voters[0].register(authority, bus)
        wrong = cred.sig * 2 % 23
        with pytest.raises(AuthenticationError):
            booth.authenticate(Signature(cred.message, wrong, field), bus)

    def test_zero_id_rejected(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet)
        with pytest.raises(AuthenticationError):
            booth.authenticate(Signature(0, 0, field), bus)

    def test_reauthentication_kills_previous_token(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet)
        cred = voters[0].register(authority, bus)
        first = booth.authenticate(cred, bus)
        second = booth.authenticate(cred, bus)
        assert first != second
        assert not booth.token_valid(first, cred.message)
        assert booth.token_valid(second, cred.message)
        grants = [m.fields for m in logged(bus) if m.kind == "auth-grant"]
        assert [grant["token"] for grant in grants] == [first, second]
        assert int(grants[1]["issued_at"]) > int(grants[0]["issued_at"])

    def test_closed_booth_rejects(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet)
        cred = voters[0].register(authority, bus)
        token = booth.authenticate(cred, bus)
        booth.close(bus)
        assert not booth.token_valid(token, cred.message)
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
        assert booth.token_valid(token, cred.message)
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

        def counted_mod_exp(base, exponent, params):
            counts["mod_exp"] += 1
            return mod_exp(base, exponent, params)

        def counted_build(table, base, params):
            counts["tables"] += 1
            build(table, base, params)

        monkeypatch.setattr(blindsig, "mod_exp", counted_mod_exp)
        monkeypatch.setattr(modmath.FixedBase, "__init__", counted_build)
        booth.authenticate(creds[0], bus)
        assert counts == {"mod_exp": 3, "tables": 0}

    @pytest.mark.parametrize(
        "mode, first, recast",
        [
            # m**t, c**x and sig**t, with g**e2 and y**e2 from the tables
            # the voters' registrations already built
            pytest.param(
                ZK_RELAY, {"mod_exp": 3, "table": 2}, {"mod_exp": 0, "table": 0}, id="zk-relay"
            ),
            # message**x
            pytest.param(
                KEY_COPY, {"mod_exp": 1, "table": 0}, {"mod_exp": 0, "table": 0}, id="key-copy"
            ),
        ],
    )
    def test_a_recast_authentication_is_not_verified_again(
        self, mode, first, recast, monkeypatch
    ):
        params = field_64()
        key = random_signing_key(params, random.Random(1))
        sheet = make_ballot_sheet(CANDIDATES, key, random.Random(7))
        bus, authority, booth, servers, voters = make_setup(params, key, sheet, mode=mode)
        creds = register_all(voters, authority, bus)
        counts = count_work(monkeypatch)
        tokens = []
        for expected in (first, recast):
            start = len(bus)
            tokens.append(booth.authenticate(creds[0], bus))
            assert counts == expected | {"in_subgroup": 0}
            kinds = [m.kind for m in logged(bus, start)]
            relayed = ["auth-zk"] if mode == ZK_RELAY and expected is first else []
            assert kinds == ["auth-request", *relayed, "auth-grant"]
            counts.update(dict.fromkeys(counts, 0))
        assert not booth.token_valid(tokens[0], creds[0].message)
        assert booth.token_valid(tokens[1], creds[0].message)
        # a wire copy of the granted pair is the same pair
        booth.authenticate(Signature(creds[0].message, creds[0].sig, params), bus)
        assert counts == {"mod_exp": 0, "in_subgroup": 1, "table": 0}

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
            cred = Signature(cred.message, cred.sig, params)
        counts = count_calls(monkeypatch, "in_subgroup")
        booth.authenticate(cred, bus)
        assert counts == {"in_subgroup": tests}

    @staticmethod
    def verdict_checking_every_pair(booth, credential):
        """The booth's verdict when every pair, a recast's too, is checked
        with the key (key-copy)."""
        if booth.closed:
            return "closed"
        if not in_subgroup(credential.message, credential.params):
            return "malformed-id"
        if credential.message == 1:
            return "degenerate-id"
        if not verify_with_key(credential, booth.key):
            return "invalid-signature"
        return "grant"

    @pytest.mark.parametrize(
        "first", [a for a in range(2, 23) if in_subgroup(a, modmath.FIXTURE_FIELD)]
    )
    def test_skipping_a_granted_pair_changes_no_verdict(self, field, key, sheet, first):
        # after the first grant of id `first`, every int pair around the
        # field gets the verdict of checking every pair; pairs the booth
        # grants along the way become sessions for the pairs after them
        bus, authority, booth, servers, voters = make_setup(field, key, sheet)
        booth.authenticate(sign(first, key), bus)
        for message in range(-1, 2 * 23 + 1):
            for sig in range(-1, 2 * 23 + 1):
                credential = Signature(message, sig, field)
                expected = self.verdict_checking_every_pair(booth, credential)
                before = dict(booth.sessions)
                try:
                    booth.authenticate(credential, bus)
                except VotingError:
                    pass
                last = logged(bus, len(bus) - 1)[0]
                verdict = "grant" if last.kind == "auth-grant" else last.fields["reason"]
                assert verdict == expected, (message, sig)
                if verdict == "grant":
                    assert booth.sessions[message][0] == sig
                else:
                    assert booth.sessions == before

    @pytest.mark.xfail(
        strict=True,
        raises=pytest.fail.Exception,
        reason="credentials are unhashed exponentiation signatures, so (g**a, y**a) "
        "and the product of two issued credentials are valid signatures",
    )
    @pytest.mark.parametrize("mode", BOOTH_MODES)
    @pytest.mark.parametrize("forgery", ["public-key-power", "product"])
    def test_forged_credential_is_refused(self, mode, forgery):
        params = field_64()
        key = random_signing_key(params, random.Random(1))
        sheet = make_ballot_sheet(CANDIDATES, key, random.Random(7))
        bus, authority, booth, servers, voters = make_setup(params, key, sheet, mode=mode)
        creds = register_all(voters, authority, bus)
        p = params.p
        if forgery == "public-key-power":
            a = random.Random(1).randrange(1, params.q)
            y = key.public_key().value
            forged = Signature(pow(params.g, a, p), pow(y, a, p), params)
        else:
            forged = Signature(
                creds[0].message * creds[1].message % p, creds[0].sig * creds[1].sig % p, params
            )
        assert forged.message not in {cred.message for cred in creds} | set(booth.sessions)
        with pytest.raises(AuthenticationError):
            booth.authenticate(forged, bus)

    @pytest.mark.parametrize("mode", BOOTH_MODES)
    def test_non_residue_id_is_malformed(self, field, key, sheet, mode):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet, mode=mode)
        with pytest.raises(AuthenticationError):
            booth.authenticate(Signature(5, 5, field), bus)
        assert [(m.kind, m.fields) for m in logged(bus, 1)] == [
            ("auth-reject", {"reason": "malformed-id"})
        ]
        # a + p and a - p have the powers of a registered id a, so without
        # the range check they would pass as a second identity
        cred = voters[0].register(authority, bus)
        for anon_id in (cred.message + 23, cred.message - 23):
            start = len(bus)
            with pytest.raises(AuthenticationError):
                booth.authenticate(Signature(anon_id, cred.sig, field), bus)
            assert [(m.kind, m.fields) for m in logged(bus, start + 1)] == [
                ("auth-reject", {"reason": "malformed-id"})
            ]
        assert booth.sessions == {}

    def test_zk_relay_rejects_forged_signature(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet, mode=ZK_RELAY)
        cred = voters[0].register(authority, bus)
        wrong = cred.sig * 2 % 23
        with pytest.raises(AuthenticationError):
            booth.authenticate(Signature(cred.message, wrong, field), bus)

    @pytest.mark.parametrize("mode", [KEY_COPY, ZK_RELAY])
    def test_degenerate_id_rejected_before_any_registration(self, field, key, sheet, mode):
        # 1**x = 1 under every key, so (anon_id=1, sig=1) verifies in both
        # modes without anyone registering; the booth must refuse it
        bus, authority, booth, servers, voters = make_setup(field, key, sheet, mode=mode)
        with pytest.raises(AuthenticationError):
            booth.authenticate(Signature(1, 1, field), bus)
        assert [(m.kind, m.fields) for m in logged(bus, 1)] == [
            ("auth-reject", {"reason": "degenerate-id"})
        ]
        assert booth.sessions == {}


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
        assert ack.accepted == (True, True, True)
        product = 1
        for share in ack.shares:
            product = product * share % 23
        assert product == sheet.signed_ballots[0]
        for server in servers:
            version, _ = server.store[creds[0].message]
            assert version == 1

    def test_recast_overwrites(self, field, key, sheet):
        bus, authority, booth, servers, voters, creds = self.setup_voted(field, key, sheet)
        token = booth.authenticate(creds[0], bus)
        voters[0].cast(token, servers, 0, bus)
        token2 = booth.authenticate(creds[0], bus)
        ack = voters[0].cast(token2, servers, 2, bus)
        assert ack.version == 2
        assert ack.accepted == (True, True, True)
        result = tally(servers, sheet, key_verifier(key), bus)
        assert result.counts == {"alpha": 0, "beta": 0, "gamma": 1}
        assert result.distinct_ids == 1

    def test_stale_version_rejected(self, field, key, sheet):
        bus, authority, booth, servers, voters, creds = self.setup_voted(field, key, sheet)
        token = booth.authenticate(creds[0], bus)
        voters[0].cast(token, servers, 0, bus)
        voters[0].cast(token, servers, 1, bus)
        anon_id = creds[0].message
        accepted, reason = servers[0].store_share(anon_id, 1, 5, token, bus)
        assert not accepted and reason == "stale-version"
        accepted, reason = servers[0].store_share(anon_id, 2, 5, token, bus)
        assert not accepted and reason == "stale-version"

    def test_old_token_rejected_after_reauthentication(self, field, key, sheet):
        bus, authority, booth, servers, voters, creds = self.setup_voted(field, key, sheet)
        token = booth.authenticate(creds[0], bus)
        voters[0].cast(token, servers, 0, bus)
        booth.authenticate(creds[0], bus)
        start = len(bus)
        ack = voters[0].cast(token, servers, 1, bus)
        assert ack.accepted == (False, False, False)
        rejects = [m.fields["reason"] for m in logged(bus, start) if m.kind == "cast-reject"]
        assert rejects == ["unknown-token"] * 3
        result = tally(servers, sheet, key_verifier(key), bus)
        assert result.counts["alpha"] == 1

    def test_partial_cast_counts_as_inconsistent(self, field, key, sheet):
        bus, authority, booth, servers, voters, creds = self.setup_voted(field, key, sheet)
        token = booth.authenticate(creds[0], bus)
        ack = voters[0].cast(token, servers, 0, bus, deliver_count=2)
        assert ack.accepted == (True, True)
        result = tally(servers, sheet, key_verifier(key), bus)
        assert result.counts == {"alpha": 0, "beta": 0, "gamma": 0}
        assert result.inconsistent == 1
        assert result.distinct_ids == 1

    def test_partial_recast_leaves_mixed_versions(self, field, key, sheet):
        bus, authority, booth, servers, voters, creds = self.setup_voted(field, key, sheet)
        token = booth.authenticate(creds[0], bus)
        voters[0].cast(token, servers, 0, bus)
        voters[0].cast(token, servers, 1, bus, deliver_count=1)
        result = tally(servers, sheet, key_verifier(key), bus)
        assert result.inconsistent == 1
        assert result.counts == {"alpha": 0, "beta": 0, "gamma": 0}

    def test_zero_share_rejected(self, field, key, sheet):
        bus, authority, booth, servers, voters, creds = self.setup_voted(field, key, sheet)
        token = booth.authenticate(creds[0], bus)
        accepted, reason = servers[0].store_share(creds[0].message, 1, 0, token, bus)
        assert not accepted and reason == "zero-share"

    @pytest.mark.parametrize("mode", BOOTH_MODES)
    @pytest.mark.parametrize("share", [23, 46, -1, 24])
    def test_share_outside_the_field_rejected(self, field, key, sheet, mode, share):
        # p and 2p are 0 mod p, so they would slip past the zero-share rule
        bus, authority, booth, servers, voters, creds = self.setup_voted(
            field, key, sheet, mode=mode
        )
        token = booth.authenticate(creds[0], bus)
        accepted, reason = servers[0].store_share(creds[0].message, 1, share, token, bus)
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
        fresh = Voter("V00009", key.public_key())
        with pytest.raises(VotingError):
            fresh.cast(token, servers, 0, (2, 4), bus)
        # a refused split posts nothing and leaves the version alone
        start = len(bus)
        for free in [(), (2,), (2, 4, 6)]:
            with pytest.raises(ParameterError):
                Voter.cast(voters[0], token, servers, 0, free, bus)
        for free in [(0, 4), (2, 23), (-1, 4)]:
            with pytest.raises(DomainError):
                Voter.cast(voters[0], token, servers, 0, free, bus)
        assert len(bus) == start
        assert voters[0].version == 0
        ack = Voter.cast(voters[0], token, servers, 1, (2, 4), bus)
        assert ack.shares == complete_split(sheet.signed_ballots[1], (2, 4), field)


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
        result = tally(servers, sheet, key_verifier(key), bus)
        assert result.counts == {"alpha": 2, "beta": 1, "gamma": 0}
        assert result.invalid == 0
        assert result.inconsistent == 0
        assert result.distinct_ids == 3

    def test_unmatched_product_counts_invalid(self, field, key, sheet):
        bus, booth, servers, creds = self.run_votes(field, key, sheet, [0])
        signed_values = set(sheet.signed_ballots)
        target = next(
            v for v in (1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18) if v not in signed_values
        )
        # plant a complete, version-consistent record set whose product
        # matches no signed ballot
        shares = [1] * (len(servers) - 1) + [target]
        for server, share in zip(servers, shares):
            server.store[9] = (1, share)
        result = tally(servers, sheet, key_verifier(key), bus)
        assert result.invalid == 1
        assert result.counts["alpha"] == 1
        assert result.distinct_ids == 2

    def test_relay_verifier_matches_key_verifier(self, field, key, sheet):
        bus, booth, servers, creds = self.run_votes(field, key, sheet, [2, 1])
        by_key = tally(servers, sheet, key_verifier(key), bus)
        responder, rng = RegistrationAuthority(key, [], sheet).responder, random.Random(5)
        by_relay = tally(
            servers,
            sheet,
            lambda signatures: confirm_batch(signatures, key.public_key(), responder, rng).accepted,
            bus,
        )
        assert by_key.counts == by_relay.counts

    def test_tally_rejects_bad_sheet_signature(self, field, key, sheet):
        bus, booth, servers, creds = self.run_votes(field, key, sheet, [0])
        forged = BallotSheet(
            sheet.candidates,
            sheet.ballots,
            tuple(s * 2 % 23 for s in sheet.signed_ballots),
            field,
        )
        with pytest.raises(DomainError):
            tally(servers, forged, key_verifier(key), bus)

    def test_render_lines(self, field, key, sheet):
        bus, booth, servers, creds = self.run_votes(field, key, sheet, [1])
        result = tally(servers, sheet, key_verifier(key), bus)
        lines = result.render_lines()
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
        tally(servers, sheet, key_verifier(key), bus)
        return bus, creds

    REGISTRATION_KINDS = {
        "register-request",
        "register-grant",
        "register-reject",
        "confirm-credential",
        "confirm-batch",
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
