"""Actor-level tests: registration, booth sessions, casting, tallying."""

import random

import pytest

from splitvote import blindsig, modmath
from splitvote.blindsig import Signature, SigningKey, verify_with_key
from splitvote.errors import DomainError, ParameterError, VotingError
from splitvote.modmath import FieldElement, in_subgroup
from splitvote.protocol import (
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
    VoterIdentity,
    key_verifier,
    make_ballot_sheet,
    relay_verifier,
    tally,
)

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
    roster = [VoterIdentity(f"V{i:05d}") for i in range(n_voters)]
    authority = RegistrationAuthority(key, roster, {"main": sheet})
    booth = PollingBooth(
        mode,
        random.Random(booth_seed),
        key=key if mode == KEY_COPY else None,
        authority=authority if mode == ZK_RELAY else None,
    )
    servers = [VoteServer(i, booth) for i in range(k)]
    voters = [
        Voter(identity, field, key.public_key(), random.Random(VOTER_SEEDS[j]))
        for j, identity in enumerate(roster)
    ]
    return bus, authority, booth, servers, voters


def register_all(voters, authority, bus):
    return [voter.register(authority, bus) for voter in voters]


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


class TestMessageBus:
    def test_sequence_and_render(self):
        bus = MessageBus()
        bus.post("a", "b", "ping", x=1)
        bus.post("b", "a", "pong")
        assert bus.render_log() == ["000001 a -> b ping x=1", "000002 b -> a pong"]

    def test_kind_counts(self):
        bus = MessageBus()
        for _ in range(3):
            bus.post("a", "b", "ping")
        bus.post("a", "b", "pong")
        assert bus.kind_counts() == {"ping": 3, "pong": 1}


class TestRegistration:
    def test_credential_verifies_and_differs_from_blinded(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet)
        cred = voters[0].register(authority, bus)
        assert in_subgroup(cred.anon_id)
        assert verify_with_key(cred.as_signature(), key)
        request = next(m for m in bus.messages if m.kind == "register-request")
        blinded = dict(request.fields)["blinded"]
        assert int(blinded) != cred.anon_id.value

    def test_double_registration_rejected(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet)
        voters[0].register(authority, bus)
        retry = Voter(voters[0].identity, field, key.public_key(), random.Random(1))
        with pytest.raises(AlreadyRegisteredError):
            retry.register(authority, bus)
        assert any(
            m.kind == "register-reject" and dict(m.fields)["reason"] == "already-registered"
            for m in bus.messages
        )

    def test_unknown_voter_rejected(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet)
        ghost = Voter(VoterIdentity("V99999"), field, key.public_key(), random.Random(2))
        with pytest.raises(IneligibleVoterError):
            ghost.register(authority, bus)

    def test_voter_confirms_credential_and_every_ballot(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet)
        voters[0].register(authority, bus)
        counts = bus.kind_counts()
        assert counts["confirm-credential"] == 1
        assert counts["confirm-ballot"] == len(CANDIDATES)
        for m in bus.messages:
            if m.kind.startswith("confirm-"):
                assert dict(m.fields)["accepted"] == "1"

    def test_anonymous_id_one_is_redrawn(self, field, key, sheet):
        # seed 31 draws u = 1 first (id 1), then u = 16 (id 256 mod 23 = 3)
        rng = random.Random(31)
        assert rng.randrange(1, 23) == 1 and rng.randrange(1, 23) == 16
        bus, authority, booth, servers, voters = make_setup(field, key, sheet, n_voters=1)
        voter = Voter(voters[0].identity, field, key.public_key(), random.Random(31))
        cred = voter.register(authority, bus)
        assert cred.anon_id.value == 16 * 16 % 23
        assert verify_with_key(cred.as_signature(), key)

    def test_tampered_signature_triggers_disavowal(self, field, key, sheet):
        class TamperingAuthority(RegistrationAuthority):
            def register(self, v_id, blinded, bus):
                signed, sheet = super().register(v_id, blinded, bus)
                # doubling stays inside the subgroup (2 is a residue), so
                # only the response equation can catch it
                return FieldElement(signed.value * 2 % 23, signed.params), sheet

        bus = MessageBus()
        authority = TamperingAuthority(key, [VoterIdentity("V00000")], {"main": sheet})
        voter = Voter(VoterIdentity("V00000"), field, key.public_key(), random.Random(100))
        with pytest.raises(CredentialInvalidError) as exc:
            voter.register(authority, bus)
        assert exc.value.disavowal.is_forgery
        assert len(exc.value.disavowal.rounds) == 2
        assert bus.kind_counts()["disavow"] == 1


class TestBooth:
    def test_authenticate_issues_bound_token(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet)
        cred = voters[0].register(authority, bus)
        token = booth.authenticate(cred.anon_id, cred.anon_id_sig, bus)
        assert token.bound_anon_id == cred.anon_id.value
        assert booth.token_valid(token.token, cred.anon_id.value)
        assert not booth.token_valid(token.token, cred.anon_id.value + 1)
        assert len(token.token) == 32

    def test_bad_signature_rejected(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet)
        cred = voters[0].register(authority, bus)
        wrong = FieldElement(cred.anon_id_sig.value * 2 % 23, field)
        with pytest.raises(AuthenticationError):
            booth.authenticate(cred.anon_id, wrong, bus)

    def test_zero_id_rejected(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet)
        zero = FieldElement(0, field)
        with pytest.raises(AuthenticationError):
            booth.authenticate(zero, zero, bus)

    def test_reauthentication_kills_previous_token(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet)
        cred = voters[0].register(authority, bus)
        first = booth.authenticate(cred.anon_id, cred.anon_id_sig, bus)
        second = booth.authenticate(cred.anon_id, cred.anon_id_sig, bus)
        assert first.token != second.token
        assert not booth.token_valid(first.token, cred.anon_id.value)
        assert booth.token_valid(second.token, cred.anon_id.value)
        assert second.issued_at > first.issued_at

    def test_same_id_different_signature_is_collision(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet)
        cred = voters[0].register(authority, bus)
        # a correct key admits one signature per id, so the conflicting
        # binding has to be planted directly
        booth.seen[cred.anon_id.value] = (cred.anon_id_sig.value * 2) % 23
        with pytest.raises(CollisionError):
            booth.authenticate(cred.anon_id, cred.anon_id_sig, bus)

    def test_closed_booth_rejects(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet)
        cred = voters[0].register(authority, bus)
        token = booth.authenticate(cred.anon_id, cred.anon_id_sig, bus)
        booth.close(bus)
        assert not booth.token_valid(token.token, cred.anon_id.value)
        with pytest.raises(AuthenticationError):
            booth.authenticate(cred.anon_id, cred.anon_id_sig, bus)

    def test_revoke(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet)
        cred = voters[0].register(authority, bus)
        token = booth.authenticate(cred.anon_id, cred.anon_id_sig, bus)
        booth.revoke(token)
        assert not booth.token_valid(token.token, cred.anon_id.value)

    def test_mode_validation(self, field, key, sheet):
        with pytest.raises(ParameterError):
            PollingBooth("carrier-pigeon", random.Random(0), key=key)
        with pytest.raises(ParameterError):
            PollingBooth(KEY_COPY, random.Random(0))
        with pytest.raises(ParameterError):
            PollingBooth(ZK_RELAY, random.Random(0))

    def test_zk_relay_authenticates_without_key_copy(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet, mode=ZK_RELAY)
        cred = voters[0].register(authority, bus)
        token = booth.authenticate(cred.anon_id, cred.anon_id_sig, bus)
        assert booth.token_valid(token.token, cred.anon_id.value)
        assert booth.key is None
        relayed = [m for m in bus.messages if m.kind == "auth-zk"]
        assert len(relayed) == 1
        # the relayed round carries only the blinded challenge, never the id
        fields = dict(relayed[0].fields)
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
        booth.authenticate(creds[0].anon_id, creds[0].anon_id_sig, bus)
        assert counts == {"mod_exp": 3, "tables": 0}

    def test_zk_relay_rejects_forged_signature(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet, mode=ZK_RELAY)
        cred = voters[0].register(authority, bus)
        wrong = FieldElement(cred.anon_id_sig.value * 2 % 23, field)
        with pytest.raises(AuthenticationError):
            booth.authenticate(cred.anon_id, wrong, bus)

    @pytest.mark.parametrize("mode", [KEY_COPY, ZK_RELAY])
    def test_degenerate_id_rejected_before_any_registration(self, field, key, sheet, mode):
        # 1**x = 1 under every key, so (anon_id=1, sig=1) verifies in both
        # modes without anyone registering; the booth must refuse it
        bus, authority, booth, servers, voters = make_setup(field, key, sheet, mode=mode)
        one = FieldElement(1, field)
        with pytest.raises(AuthenticationError):
            booth.authenticate(one, one, bus)
        assert [(m.kind, dict(m.fields)) for m in bus.messages[1:]] == [
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
        token = booth.authenticate(creds[0].anon_id, creds[0].anon_id_sig, bus)
        ack = voters[0].cast(token, servers, 0, bus)
        assert ack.version == 1
        assert ack.complete(3)
        assert ack.accepted_servers() == ["server/0", "server/1", "server/2"]
        product = 1
        for share in ack.shares.shares:
            product = product * share.value % 23
        assert product == sheet.signed_ballots[0].value
        for server in servers:
            record = server.store[creds[0].anon_id.value]
            assert record.version == 1

    def test_recast_overwrites(self, field, key, sheet):
        bus, authority, booth, servers, voters, creds = self.setup_voted(field, key, sheet)
        token = booth.authenticate(creds[0].anon_id, creds[0].anon_id_sig, bus)
        voters[0].cast(token, servers, 0, bus)
        token2 = booth.authenticate(creds[0].anon_id, creds[0].anon_id_sig, bus)
        ack = voters[0].cast(token2, servers, 2, bus)
        assert ack.version == 2
        assert ack.complete(3)
        result = tally(servers, sheet, key_verifier(key), bus)
        assert result.counts == {"alpha": 0, "beta": 0, "gamma": 1}
        assert result.distinct_ids == 1

    def test_stale_version_rejected(self, field, key, sheet):
        bus, authority, booth, servers, voters, creds = self.setup_voted(field, key, sheet)
        token = booth.authenticate(creds[0].anon_id, creds[0].anon_id_sig, bus)
        voters[0].cast(token, servers, 0, bus)
        voters[0].cast(token, servers, 1, bus)
        replay = FieldElement(5, field)
        accepted, reason = servers[0].store_share(
            creds[0].anon_id, 1, replay, token, bus
        )
        assert not accepted and reason == "stale-version"
        accepted, reason = servers[0].store_share(
            creds[0].anon_id, 2, replay, token, bus
        )
        assert not accepted and reason == "stale-version"

    def test_old_token_rejected_after_reauthentication(self, field, key, sheet):
        bus, authority, booth, servers, voters, creds = self.setup_voted(field, key, sheet)
        token = booth.authenticate(creds[0].anon_id, creds[0].anon_id_sig, bus)
        voters[0].cast(token, servers, 0, bus)
        booth.authenticate(creds[0].anon_id, creds[0].anon_id_sig, bus)
        ack = voters[0].cast(token, servers, 1, bus)
        assert ack.accepted_servers() == []
        assert all(d.reason == "unknown-token" for d in ack.deliveries)
        result = tally(servers, sheet, key_verifier(key), bus)
        assert result.counts["alpha"] == 1

    def test_partial_cast_counts_as_inconsistent(self, field, key, sheet):
        bus, authority, booth, servers, voters, creds = self.setup_voted(field, key, sheet)
        token = booth.authenticate(creds[0].anon_id, creds[0].anon_id_sig, bus)
        ack = voters[0].cast(token, servers, 0, bus, deliver_count=2)
        assert ack.accepted_servers() == ["server/0", "server/1"]
        result = tally(servers, sheet, key_verifier(key), bus)
        assert result.counts == {"alpha": 0, "beta": 0, "gamma": 0}
        assert result.inconsistent == 1
        assert result.distinct_ids == 1

    def test_partial_recast_leaves_mixed_versions(self, field, key, sheet):
        bus, authority, booth, servers, voters, creds = self.setup_voted(field, key, sheet)
        token = booth.authenticate(creds[0].anon_id, creds[0].anon_id_sig, bus)
        voters[0].cast(token, servers, 0, bus)
        voters[0].cast(token, servers, 1, bus, deliver_count=1)
        result = tally(servers, sheet, key_verifier(key), bus)
        assert result.inconsistent == 1
        assert result.counts == {"alpha": 0, "beta": 0, "gamma": 0}

    def test_zero_share_rejected(self, field, key, sheet):
        bus, authority, booth, servers, voters, creds = self.setup_voted(field, key, sheet)
        token = booth.authenticate(creds[0].anon_id, creds[0].anon_id_sig, bus)
        accepted, reason = servers[0].store_share(
            creds[0].anon_id, 1, FieldElement(0, field), token, bus
        )
        assert not accepted and reason == "zero-share"

    def test_cast_argument_checks(self, field, key, sheet):
        bus, authority, booth, servers, voters, creds = self.setup_voted(field, key, sheet)
        token = booth.authenticate(creds[0].anon_id, creds[0].anon_id_sig, bus)
        with pytest.raises(ParameterError):
            voters[0].cast(token, servers, 9, bus)
        with pytest.raises(ParameterError):
            voters[0].cast(token, servers, 0, bus, deliver_count=0)
        fresh = Voter(VoterIdentity("V00009"), field, key.public_key(), random.Random(3))
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
            token = booth.authenticate(cred.anon_id, cred.anon_id_sig, bus)
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
        signed_values = {s.value for s in sheet.signed_ballots}
        target = next(
            v for v in (1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18) if v not in signed_values
        )
        # plant a complete, version-consistent record set whose product
        # matches no signed ballot
        shares = [1] * (len(servers) - 1) + [target]
        for server, share in zip(servers, shares):
            server.store[9] = CastRecord(1, FieldElement(share, field))
        result = tally(servers, sheet, key_verifier(key), bus)
        assert result.invalid == 1
        assert result.counts["alpha"] == 1
        assert result.distinct_ids == 2

    def test_relay_verifier_matches_key_verifier(self, field, key, sheet):
        bus, booth, servers, creds = self.run_votes(field, key, sheet, [2, 1])
        by_key = tally(servers, sheet, key_verifier(key), bus)
        authority = RegistrationAuthority(key, [], {"main": sheet})
        by_relay = tally(
            servers,
            sheet,
            relay_verifier(key.public_key(), authority.responder, random.Random(5)),
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
            tally(servers, forged, key_verifier(key), bus)

    def test_render_lines(self, field, key, sheet):
        bus, booth, servers, creds = self.run_votes(field, key, sheet, [1])
        result = tally(servers, sheet, key_verifier(key), bus)
        lines = result.render_lines(CANDIDATES)
        assert lines[0] == "count alpha = 0"
        assert lines[1] == "count beta = 1"
        assert lines[-1] == "distinct_ids = 1"


class TestTraceProperties:
    def full_run(self, field, key, sheet):
        bus, authority, booth, servers, voters = make_setup(field, key, sheet, n_voters=4)
        creds = register_all(voters, authority, bus)
        for i, (voter, cred) in enumerate(zip(voters, creds)):
            token = booth.authenticate(cred.anon_id, cred.anon_id_sig, bus)
            voter.cast(token, servers, i % 3, bus)
        token = booth.authenticate(creds[0].anon_id, creds[0].anon_id_sig, bus)
        voters[0].cast(token, servers, 2, bus)
        booth.close(bus)
        tally(servers, sheet, key_verifier(key), bus)
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
        for message in bus.messages:
            mentions_identity = "voter/" in message.render()
            carries_v_id = "v_id" in dict(message.fields)
            if message.kind in self.REGISTRATION_KINDS:
                assert mentions_identity
            else:
                assert not mentions_identity
            if carries_v_id:
                assert message.kind == "register-request"

    def test_voting_messages_use_anonymous_names(self, field, key, sheet):
        bus, creds = self.full_run(field, key, sheet)
        casts = [m for m in bus.messages if m.kind == "cast-share"]
        assert casts
        for message in casts:
            assert message.sender.startswith("holder/")
            assert message.sender == f"holder/{dict(message.fields)['anon_id']}"

    def test_accepted_versions_strictly_increase_per_id(self, field, key, sheet):
        bus, creds = self.full_run(field, key, sheet)
        latest: dict[tuple[str, str], int] = {}
        accepts = 0
        for message in bus.messages:
            if message.kind != "cast-accept":
                continue
            accepts += 1
            fields = dict(message.fields)
            slot = (message.sender, fields["anon_id"])
            version = int(fields["version"])
            assert version > latest.get(slot, 0)
            latest[slot] = version
        assert accepts == 15

    def test_log_is_deterministic(self, field, key, sheet):
        first, _ = self.full_run(field, key, sheet)
        second, _ = self.full_run(field, key, sheet)
        assert first.render_log() == second.render_log()
