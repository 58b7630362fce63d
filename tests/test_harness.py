"""Simulator determinism, double bookkeeping, snapshots, attack reports."""

import functools
import gc
import hashlib
import json
import os
import random
import threading
import tracemalloc
import types
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from splitvote import blindsig, harness, modmath, protocol
from splitvote.blindsig import SigningKey
from splitvote.errors import ConfigError, ParameterError, RegimeError, VotingError
from splitvote.harness import (
    AttackConfig,
    ElectionConfig,
    ElectionRun,
    IntentLedger,
    emit_params,
    parse_attack_config,
    parse_election_config,
    run_attack,
    run_election,
    stream,
)
from splitvote.modmath import FIXTURE_FIELD, generate_params
from splitvote.protocol import BOOTH_MODES, MessageBus, TallyResult, Voter, make_ballot_sheet
from tests.conftest import kind_counts, logged
from tests.test_protocol import count_calls

BASE_TEXT = """
# three-way race on the small field
p = 23
q = 11
g = 2
voters = 25
servers = 3
candidates = alpha,beta,gamma
recast_fraction = 0.2
seed = 6
"""

ATTACK_TEXT = """
p = 23
q = 11
g = 2
servers = 3
colluders = 0,2
goal = targeted
trials = exhaustive
seed = 1
"""


def base_config(**overrides):
    config = parse_election_config(BASE_TEXT)
    if not overrides:
        return config
    fields = {
        "params": config.params,
        "field_bits": config.field_bits,
        "n_voters": config.n_voters,
        "k": config.k,
        "candidates": config.candidates,
        "recast_fraction": config.recast_fraction,
        "incomplete_fraction": config.incomplete_fraction,
        "booth_mode": config.booth_mode,
        "seed": config.seed,
    }
    fields.update(overrides)
    return ElectionConfig(**fields)


def refusal_and_peak(parse, text):
    """The problems ``parse`` refuses ``text`` with, and the peak of the
    memory traced while it ran."""
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as exc:
            parse(text)
        return exc.value.problems, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def stored_casts(bus, k):
    """Every server's store read back from the log: per id, the fields of
    the ``cast-share`` line whose ``cast-accept`` stored it last."""
    stores = [{} for _ in range(k)]
    delivered = {}
    for message in logged(bus):
        if message.kind == "cast-share":
            delivered[message.recipient] = message.fields
        elif message.kind == "cast-accept":
            cast = delivered[message.sender]
            assert (cast["anon_id"], cast["version"]) == (
                message.fields["anon_id"], message.fields["version"])
            stores[int(message.sender.split("/")[1])][int(cast["anon_id"])] = cast
    return stores


class TestConfigParsing:
    def test_echo_round_trip(self):
        config = parse_election_config(BASE_TEXT)
        assert config.params == FIXTURE_FIELD
        assert config.n_voters == 25
        again = parse_election_config("\n".join(config.echo_lines()))
        assert again == config

    def test_field_bits_round_trip(self):
        config = parse_election_config("field_bits = 24\nvoters = 5\nservers = 2\ncandidates = x,y\n")
        assert config.params is None and config.field_bits == 24
        assert parse_election_config("\n".join(config.echo_lines())) == config

    def test_candidate_count_generates_labels(self):
        config = parse_election_config("p=23\nq=11\ng=2\nvoters=1\nservers=2\ncandidates = 4\n")
        assert config.candidates == ("option-1", "option-2", "option-3", "option-4")

    @pytest.mark.parametrize(
        "field, bound",
        [("p = 23\nq = 11\ng = 2", 11), ("field_bits = 8", 2**7 - 1), ("field_bits = 16", 2**15 - 1)],
        ids=["explicit", "generated-8", "generated-16"],
    )
    def test_candidate_count_is_checked_against_the_subgroup_before_any_label(self, field, bound):
        # q for an explicit field; for a generated one, the largest q its bit
        # length allows.  A count past it is refused with no label built, so
        # a config cannot make the parser hold a label per unit of its count
        election = f"{field}\nvoters = 1\nservers = 2\ncandidates = {{}}\n"
        attack = f"{field}\nservers = 2\ncolluders = 0\ngoal = any-valid\ncandidates = {{}}\n"
        for parse, text in ((parse_election_config, election), (parse_attack_config, attack)):
            assert len(parse(text.format(bound)).candidates) == bound
            for count in (bound + 1, 10**6, 10**30, "9" * 5000):
                problems, peak = refusal_and_peak(parse, text.format(count))
                assert problems == ["candidates: more than the subgroup has elements"]
                assert peak < 1 << 20

    def test_candidate_count_beside_a_field_problem_builds_no_label(self):
        text = "voters = 1\nservers = 2\ncandidates = 1000000\n"
        problems, peak = refusal_and_peak(parse_election_config, text)
        assert problems == [
            "missing field: give field_bits or p, q, g",
            f"candidates: must be at most {modmath.MAX_CANDIDATES}",
        ]
        assert peak < 1 << 20

    def test_comments_and_blanks_ignored(self):
        config = parse_election_config(
            "p = 23  # modulus\nq = 11\ng = 2\n\n# roster\nvoters = 3\nservers = 2\ncandidates = x,y\n"
        )
        assert config.n_voters == 3

    def test_problems_are_collected_not_first_only(self):
        with pytest.raises(ConfigError) as exc:
            parse_election_config(
                "voters = -3\nservers = 1\nbooth = pigeon\nrecast_fraction = 1.5\n"
            )
        problems = exc.value.problems
        assert len(problems) >= 5
        text = str(exc.value)
        for key in ("voters", "servers", "booth", "recast_fraction", "field"):
            assert key in text

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_election_config("p = 23\np = 29\n")
        assert any("duplicate" in problem for problem in exc.value.problems)

    def test_both_field_forms_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_election_config(
                "field_bits = 24\np = 23\nq = 11\ng = 2\nvoters = 1\nservers = 2\ncandidates = x,y\n"
            )
        assert any("not both" in problem for problem in exc.value.problems)

    def test_partial_explicit_field_rejected(self):
        with pytest.raises(ConfigError):
            parse_election_config("p = 23\nq = 11\nvoters = 1\nservers = 2\ncandidates = x,y\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_election_config(BASE_TEXT + "turnout = 1\n")
        assert any("unknown key: turnout" in problem for problem in exc.value.problems)

    def test_bad_field_values_reported(self):
        with pytest.raises(ConfigError) as exc:
            parse_election_config("p = 24\nq = 11\ng = 2\nvoters = 1\nservers = 2\ncandidates = x,y\n")
        assert any(problem.startswith("field:") for problem in exc.value.problems)

    def test_non_integer_field_value_reported(self):
        with pytest.raises(ConfigError) as exc:
            parse_election_config("p = 23\nq = eleven\ng = 2\nvoters = 1\nservers = 2\ncandidates = x,y\n")
        assert any(problem.startswith("field:") for problem in exc.value.problems)

    def test_missing_everything(self):
        with pytest.raises(ConfigError) as exc:
            parse_election_config("")
        text = str(exc.value)
        for fragment in ("field", "voters", "servers", "candidates"):
            assert fragment in text

    def test_garbage_line(self):
        with pytest.raises(ConfigError) as exc:
            parse_election_config("this is not a config\n")
        assert any("line 1" in problem for problem in exc.value.problems)


# labels a config line can carry: no ',' or '#', and no blank ends, which
# the parser strips from each label
LABELS = st.text("ab :=", max_size=3).map(str.strip)


@settings(max_examples=200, deadline=None)
@given(st.lists(LABELS, max_size=6))
def test_config_and_ballot_sheet_refuse_the_same_labels(labels):
    raw = ",".join(labels)
    assume(raw)  # nor an empty value
    text = f"p = 23\nq = 11\ng = 2\nvoters = 1\nservers = 2\ncandidates = {raw}\n"
    try:
        parse_election_config(text)
        problems = []
    except ConfigError as exc:
        problems = exc.problems
    try:
        make_ballot_sheet(labels, SigningKey(3, FIXTURE_FIELD), random.Random(0))
        refusal = None
    except ParameterError as exc:
        refusal = str(exc)
    if not problems:
        assert refusal is None
    else:
        assert refusal == "candidates: " + "; ".join(
            problem.removeprefix("candidates: ") for problem in problems
        )


class TestStreams:
    def test_same_label_same_draws(self):
        a = [stream(5, "booth").randrange(1000) for _ in range(3)]
        b = [stream(5, "booth").randrange(1000) for _ in range(3)]
        assert a == b

    def test_labels_are_independent(self):
        assert stream(5, "booth").getrandbits(64) != stream(5, "ballots").getrandbits(64)

    def test_seeds_are_independent(self):
        assert stream(5, "booth").getrandbits(64) != stream(6, "booth").getrandbits(64)


class TestSchedule:
    def test_recast_count_and_coverage(self):
        run = ElectionRun(base_config())
        assert len(run.schedule) == 30
        occurrences: dict[int, int] = {}
        for event in run.schedule:
            occurrences[event.voter_index] = occurrences.get(event.voter_index, 0) + 1
            assert 0 <= event.candidate_index < 3
            assert event.deliver_count == 3
        assert set(occurrences) == set(range(25))
        assert sorted(occurrences.values()).count(2) == 5

    def test_incomplete_fraction_short_delivers(self):
        run = ElectionRun(base_config(incomplete_fraction=1.0))
        assert all(1 <= event.deliver_count <= 2 for event in run.schedule)

    def test_schedule_deterministic(self):
        assert ElectionRun(base_config()).schedule == ElectionRun(base_config()).schedule


class TestLedger:
    def test_acceptance_mirrors_version_rule(self):
        ledger = IntentLedger(2)
        assert ledger.apply(4, 1, [5, 9], 2) == [True, True]
        assert ledger.apply(4, 1, [7, 7], 2) == [False, False]
        assert ledger.apply(4, 2, [7, 7], 1) == [True]
        assert ledger.stores[0][4] == (2, 7)
        assert ledger.stores[1][4] == (1, 9)

    def test_predict_buckets(self, field):
        sheet = make_ballot_sheet(("a", "b"), SigningKey(3, field), random.Random(7))
        target = sheet.signed_ballots[0]
        ledger = IntentLedger(2)
        # complete and unanimous: counted
        ledger.apply(2, 1, [1, target], 2)
        # mixed versions: inconsistent
        ledger.apply(3, 1, [2, 2], 2)
        ledger.apply(3, 2, [4, 4], 1)
        # missing on one server: inconsistent
        ledger.apply(4, 1, [6, 6], 1)
        # unanimous but matching nothing: invalid
        junk = 1 if 1 not in sheet.signed_ballots else 12
        ledger.apply(6, 1, [1, junk], 2)
        predicted = ledger.predict(sheet)
        assert predicted == TallyResult({"a": 1, "b": 0}, 1, 2, 4)

    @pytest.mark.parametrize("booth", BOOTH_MODES)
    def test_share_a_server_refuses_stops_the_run(self, booth, monkeypatch):
        # the ledger has no share-range rule: a zero share, which a cast never
        # deals, is kept by the ledger and refused by the server
        dealt = protocol.complete_split
        monkeypatch.setattr(protocol, "complete_split", lambda value, free, params: (0, *dealt(value, free, params)[1:]))
        run = ElectionRun(base_config(booth_mode=booth))
        with pytest.raises(VotingError, match="ledger diverged"):
            run.step()
        assert run.cursor == 0

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="colliding voters number their casts alike, so a short cast and a "
        "later one can leave one version on every server from two casts",
    )
    @pytest.mark.parametrize("booth", BOOTH_MODES)
    def test_a_counted_id_holds_the_shares_of_one_cast(self, booth):
        # a cast's session token names it; the ledger mirrors the servers'
        # version rule share by share, so agreement cannot see a mix
        config = ElectionConfig(FIXTURE_FIELD, None, 30, 3, ("a", "b", "c"), 0.5, 0.3, booth, 2)
        run, report = run_election(config)
        assert report.agreement()
        stored = stored_casts(run.bus, config.k)
        counted = [
            anon for anon in run.servers[0].store
            if len({server.store.get(anon, (None,))[0] for server in run.servers}) == 1
        ]
        mixed = [anon for anon in counted if len({store[anon]["token"] for store in stored}) > 1]
        assert mixed == []


class TestElectionRun:
    def test_ledger_agrees_with_tally(self):
        run, report = run_election(base_config())
        assert report.agreement()
        assert report.differences() == []
        assert report.result.invalid == 0
        assert report.result.inconsistent == 0
        assert sum(report.result.counts.values()) == report.result.distinct_ids

    def test_rewritten_stored_share_shows_in_the_differences(self):
        # a share rewritten on one server after casting closes: the tally
        # counts that ballot invalid, while the ledger still predicts it
        run = ElectionRun(base_config())
        run.run_schedule()
        index = run.sheet.signed_index()
        p = FIXTURE_FIELD.p
        # every cast of this config is complete, so each id has all its shares
        anon, (version, share) = min(run.servers[0].store.items())
        product = 1
        for server in run.servers:
            product = product * server.store[anon][1] % p
        label = index[product]
        unsigned = next(v for v in range(1, p) if v not in index)
        run.servers[0].store[anon] = (version, share * unsigned * pow(product, -1, p) % p)
        run.finish()
        report = run.report()
        counted = report.predicted.counts[label]
        assert not report.agreement()
        assert report.differences() == [
            f"count {label}: tally {counted - 1} != ledger {counted}",
            "invalid: tally 1 != ledger 0",
        ]

    @pytest.mark.parametrize("booth", BOOTH_MODES)
    def test_library_config_with_unfit_labels_is_refused(self, booth):
        # the config parser refuses these labels; a config built in code
        # reaches the ballot sheet, which refuses them before any message
        config = ElectionConfig(FIXTURE_FIELD, None, 3, 2, ("a b", "x:1"), booth_mode=booth)
        with pytest.raises(ParameterError, match="whitespace"):
            run_election(config)

    @pytest.mark.parametrize("booth", BOOTH_MODES)
    @pytest.mark.parametrize("label", ["a,b", "a#b"])
    def test_library_config_with_a_label_its_config_line_cannot_carry_is_refused(
        self, booth, label, monkeypatch
    ):
        # echoed as `candidates = a,b,c`, the labels would parse back as
        # three, and `#` starts a comment, so the run's own snapshot would
        # not resume; the sheet refuses them before any message is posted
        posted = []
        monkeypatch.setattr(MessageBus, "post", lambda bus, *message: posted.append(message))
        config = ElectionConfig(FIXTURE_FIELD, None, 6, 3, (label, "c"), booth_mode=booth, seed=3)
        with pytest.raises(ParameterError, match="',' or '#'"):
            run_election(config)
        assert posted == []

    @pytest.mark.parametrize("booth", BOOTH_MODES)
    def test_library_config_with_duplicate_labels_is_refused(self, booth):
        # two labels sharing one count would print `count a = ...` twice
        # and echo a `candidates` line the config parser refuses
        config = ElectionConfig(FIXTURE_FIELD, None, 3, 2, ("a", "a"), booth_mode=booth)
        with pytest.raises(ParameterError, match="duplicate label"):
            run_election(config)

    def test_records_are_byte_identical_across_runs(self):
        _, first = run_election(base_config())
        _, second = run_election(base_config())
        assert first.render_records() == second.render_records()

    def test_event_logs_are_identical_across_runs(self):
        a, _ = run_election(base_config())
        b, _ = run_election(base_config())
        assert a.bus.render_log() == b.bus.render_log()

    def test_seed_changes_the_run(self):
        a, _ = run_election(base_config(seed=1))
        b, _ = run_election(base_config(seed=2))
        assert a.bus.render_log() != b.bus.render_log()

    def test_starved_server_makes_everything_inconsistent(self):
        run, report = run_election(base_config(incomplete_fraction=1.0))
        result = report.result
        assert result.inconsistent == result.distinct_ids > 0
        assert sum(result.counts.values()) == 0
        assert result.invalid == 0
        assert report.agreement()

    def test_empty_roster(self):
        run, report = run_election(base_config(n_voters=0))
        assert len(run.schedule) == 0
        assert report.result == TallyResult({"alpha": 0, "beta": 0, "gamma": 0}, 0, 0, 0)
        assert report.agreement()

    def test_zk_relay_mode_run(self):
        config = base_config(booth_mode="zk-relay", n_voters=8)
        run, first = run_election(config)
        _, second = run_election(config)
        assert first.agreement()
        assert first.render_records() == second.render_records()
        # one relayed round per credential, at its first authentication
        assert kind_counts(run.bus)["auth-zk"] == first.distinct_credentials

    # named by booth alone, so that re-pinning a digest renames no test
    PINNED_DIGESTS = [
        pytest.param(
            "zk-relay", "9cfcae237bc05e2947971dc339c1853b6578a703d5fd386e5b9058b984f69b10",
            id="zk-relay",
        ),
        pytest.param(
            "key-copy", "1611ca620103c62c26ecb76f9259d9058592e26c6f627b1f9760e5bafd08ecc2",
            id="key-copy",
        ),
    ]

    @staticmethod
    def pinned_run_digest(booth):
        config = ElectionConfig(None, 64, 40, 3, ("a", "b", "c", "d"), 0.3, 0.1, booth, 3)
        run, report = run_election(config)
        text = report.render_records() + "\n".join(run.bus.render_log())
        return hashlib.sha256(text.encode()).hexdigest()

    @pytest.mark.parametrize("booth, digest", PINNED_DIGESTS)
    def test_generated_field_run_is_pinned_byte_for_byte(self, booth, digest):
        # digests of the records and event log as computed with plain pow
        # for every exponentiation; faster arithmetic must reproduce them
        assert self.pinned_run_digest(booth) == digest

    @pytest.mark.parametrize("booth, digest", PINNED_DIGESTS)
    def test_pinned_digests_are_those_of_plain_pow(self, booth, digest, monkeypatch):
        # the oracle the digests were computed with: plain Signatures on
        # the sheet and in the authority's view of it, pow for every table
        # power and pow for every subgroup test, so no table, cached
        # verdict or Jacobi symbol is involved
        def plain_subgroup_test(a, params):
            return 0 < a < params.p and pow(a, params.q, params.p) == 1

        def plain_table(self, base, params):
            if not plain_subgroup_test(base, params):
                raise ParameterError("a fixed-base table needs a subgroup element")
            self.base, self.params = base, params

        monkeypatch.setattr(modmath.FixedBase, "__init__", plain_table)
        monkeypatch.setattr(
            modmath.FixedBase, "power", lambda self, e: pow(self.base, e, self.params.p)
        )
        for module in (modmath, blindsig):
            monkeypatch.setattr(module, "in_subgroup", plain_subgroup_test)
        monkeypatch.setattr(protocol, "MAX_SHEET_TABLE_BYTES", 0)
        monkeypatch.setattr(
            protocol.BallotSheet,
            "signatures",
            property(lambda s: tuple(
                blindsig.Signature(m, sig, s.params)
                for m, sig in zip(s.ballots, s.signed_ballots)
            )),
        )
        assert self.pinned_run_digest(booth) == digest

    def test_collision_warnings_at_small_field(self):
        _, report = run_election(base_config())
        assert any("collision" in warning for warning in report.warnings)
        # 25 registrants share 11 possible ids, so warnings are guaranteed
        assert report.distinct_credentials <= 11

    def test_registration_leaves_no_generator_per_voter(self):
        # each voter's stream is read to the end of its casts' free shares at
        # registration and let go, so the generators alive after set-up do
        # not grow with the roster
        def generators_alive(n_voters):
            run = ElectionRun(base_config(n_voters=n_voters))
            gc.collect()
            alive = sum(isinstance(obj, random.Random) for obj in gc.get_objects())
            assert len(run.voters) == n_voters
            return alive

        assert generators_alive(50) == generators_alive(400)

    def test_generated_field_run(self):
        config = base_config(params=None, field_bits=24, n_voters=4)
        run, report = run_election(config)
        assert run.params.p.bit_length() == 24
        assert report.agreement()
        assert report.result.distinct_ids == 4

    def test_report_wall_time_only_in_table(self):
        _, report = run_election(base_config(n_voters=3, recast_fraction=0.0))
        assert "wall time" in report.render_table()
        assert "wall time" not in report.render_records()
        assert "agreement = 1" in report.render_records()

    def test_finish_guards(self):
        run = ElectionRun(base_config(n_voters=3, recast_fraction=0.0))
        with pytest.raises(VotingError):
            run.finish()
        with pytest.raises(VotingError):
            run.report()
        run.run_schedule()
        run.finish()
        run.finish()
        with pytest.raises(VotingError):
            run.step()


class TestSnapshots:
    def test_resume_reproduces_the_run(self):
        config = base_config(incomplete_fraction=0.15, seed=7)
        full = ElectionRun(config)
        full.run_schedule()
        full.finish()
        interrupted = ElectionRun(config)
        interrupted.run_schedule(upto=12)
        state = json.loads(interrupted.snapshot_json())
        resumed = ElectionRun.resume(state)
        assert resumed.cursor == 12
        resumed.run_schedule()
        resumed.finish()
        assert resumed.report().render_records() == full.report().render_records()
        assert resumed.bus.render_log() == full.bus.render_log()

    def test_snapshot_bytes_deterministic(self):
        a = ElectionRun(base_config())
        a.run_schedule(upto=5)
        b = ElectionRun(base_config())
        b.run_schedule(upto=5)
        assert a.snapshot_json() == b.snapshot_json()

    def test_snapshot_before_first_cast(self):
        fresh = ElectionRun(base_config())
        resumed = ElectionRun.resume(json.loads(fresh.snapshot_json()))
        resumed.run_schedule()
        resumed.finish()
        full = ElectionRun(base_config())
        full.run_schedule()
        full.finish()
        assert resumed.report().render_records() == full.report().render_records()

    def test_finished_snapshot_rejected(self):
        run = ElectionRun(base_config(n_voters=3, recast_fraction=0.0))
        run.run_schedule()
        run.snapshot_state()
        run.finish()
        with pytest.raises(VotingError, match="a finished run has no snapshot"):
            run.snapshot_state()

    def test_foreign_json_rejected(self):
        with pytest.raises(ConfigError):
            ElectionRun.resume({"kind": "shopping-list", "format": 1})

    def test_tampered_cursor_rejected(self):
        run = ElectionRun(base_config())
        run.run_schedule(upto=3)
        state = run.snapshot_state()
        state["cursor"] = 10_000
        with pytest.raises(ConfigError):
            ElectionRun.resume(state)

    def test_cursor_beyond_the_schedule_is_refused_before_set_up(self, monkeypatch):
        run = ElectionRun(base_config())
        run.run_schedule(upto=3)
        state = run.snapshot_state()
        state["cursor"] = 10**9

        def no_registration(*args, **kwargs):
            raise AssertionError("resume registered voters before checking the cursor")

        monkeypatch.setattr(Voter, "register", no_registration)
        with pytest.raises(ConfigError, match="beyond the schedule"):
            ElectionRun.resume(state)

    def test_resume_builds_the_schedule_once(self, monkeypatch):
        run = ElectionRun(base_config())
        run.run_schedule(upto=3)
        state = run.snapshot_state()
        built = []

        def counted(config):
            built.append(config)
            return real(config)

        real = harness._build_schedule
        monkeypatch.setattr(harness, "_build_schedule", counted)
        ElectionRun.resume(state)
        assert len(built) == 1

    @pytest.mark.parametrize("n_voters,recast_fraction", [
        (5, 0.5), (7, 0.5), (9, 0.5), (1, 0.5), (5, 0.0), (5, 1.0), (6, 0.25), (10, 0.15),
    ])
    def test_schedule_length_is_that_of_the_schedule(self, n_voters, recast_fraction):
        # half of an odd count rounds to even, both ways; 0 and 1 are the ends
        config = base_config(n_voters=n_voters, recast_fraction=recast_fraction)
        assert harness._schedule_length(config) == len(harness._build_schedule(config))

    def test_seed_override_is_the_config_seed(self):
        run, report = run_election(base_config(seed=11))
        assert "seed = 11" in report.render_records()
        assert "seed = 11" in ElectionRun(base_config(seed=11)).snapshot_state()["config"]
        _, again = run_election(parse_election_config("\n".join(run.config.echo_lines())))
        assert again.render_records() == report.render_records()

    def test_snapshot_holds_only_what_replay_needs(self):
        run = ElectionRun(base_config())
        run.run_schedule(upto=20)
        state = json.loads(run.snapshot_json())
        assert sorted(state) == ["config", "cursor", "format", "kind", "sha256"]
        assert state["format"] == 6 and state["cursor"] == 20
        assert state["config"] == list(base_config().echo_lines())
        assert len(run.snapshot_json()) < 600

    @pytest.mark.parametrize("booth", BOOTH_MODES)
    def test_the_log_fixes_every_store(self, booth):
        # the digest hashes the log alone, so every share the servers and
        # the ledger keep must be readable from it; colliding ids and short
        # deliveries at p = 23 put stale and mixed records in the stores
        run = ElectionRun(base_config(recast_fraction=0.5, incomplete_fraction=0.3,
                                      booth_mode=booth))
        for cursor in (0, 1, 9, 20, len(run.schedule)):
            run.run_schedule(upto=cursor)
            stores = [
                {anon: (int(cast["version"]), int(cast["share"])) for anon, cast in store.items()}
                for store in stored_casts(run.bus, run.config.k)
            ]
            assert stores == [server.store for server in run.servers] == run.ledger.stores
            transcript = "".join(f"{line}\n" for line in run.bus.render_log())
            assert run.state_digest() == hashlib.sha256(transcript.encode("utf-8")).hexdigest()
        clean = run.state_digest()
        run.bus.post("X", "Y", "note")
        assert run.state_digest() != clean


def force_spans(monkeypatch, cpus):
    """Make set-up see ``cpus`` usable CPUs and split any roster of at least
    ``cpus`` voters into that many spans, forking each but the first."""
    monkeypatch.setattr(harness, "MIN_SPAN", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def finished(run):
    """The records and event log of ``run`` played to its end."""
    run.run_schedule()
    run.finish()
    return run.report().render_records(), run.bus.render_log()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="set-up forks only where os.fork exists")
class TestParallelSetup:
    """Set-up registers contiguous spans of the roster in forked children
    and commits them in roster order: the bytes are those of one span."""

    # 12 voters share 11 ids at p = 23, so collisions cross spans
    CONFIGS = [
        pytest.param(field, booth, id=f"{name}-{booth}")
        for name, field in (("p23", FIXTURE_FIELD), ("64-bit", "64"))
        for booth in BOOTH_MODES
    ]

    @staticmethod
    def config(field, booth, n_voters=12):
        params = _field_64() if field == "64" else field
        return ElectionConfig(params, None, n_voters, 3, ("a", "b", "c"), 0.5, 0.3, booth, 8)

    @pytest.mark.parametrize("field, booth", CONFIGS)
    def test_any_span_count_gives_the_bytes_of_one(self, field, booth, monkeypatch):
        config = self.config(field, booth)
        force_spans(monkeypatch, 1)
        one = finished(ElectionRun(config))
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        for cpus in (2, 3):
            force_spans(monkeypatch, cpus)
            assert finished(ElectionRun(config)) == one
            assert no_child_left()
        assert len(forks) == 1 + 2
        if field is FIXTURE_FIELD:
            assert any("collision" in line for line in one[0].splitlines())

    @pytest.mark.parametrize("field, booth", CONFIGS)
    def test_resume_under_any_span_count_gives_the_bytes_of_one(self, field, booth, monkeypatch):
        config = self.config(field, booth)
        force_spans(monkeypatch, 1)
        whole = ElectionRun(config)
        one = finished(whole)
        for cpus in (2, 3):
            for cursor in (0, 7, len(whole.schedule)):
                force_spans(monkeypatch, 1)
                part = ElectionRun(config)
                part.run_schedule(cursor)
                state = json.loads(part.snapshot_json())
                force_spans(monkeypatch, cpus)
                assert finished(ElectionRun.resume(state)) == one
                assert no_child_left()

    def test_a_roster_below_the_span_size_forks_nothing(self, monkeypatch):
        def no_fork():
            raise AssertionError("set-up forked")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(os, "fork", no_fork)
        ElectionRun(base_config(n_voters=2 * harness.MIN_SPAN - 1))
        force_spans(monkeypatch, 1)
        ElectionRun(base_config(n_voters=30))

    def test_a_live_thread_means_one_span(self, monkeypatch):
        def no_fork():
            raise AssertionError("set-up forked beside a live thread")

        force_spans(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", no_fork)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            run = ElectionRun(base_config())
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert len(run.voters) == 25

    @pytest.mark.parametrize("failing", [
        pytest.param(5, id="child-span"),
        pytest.param(11, id="last-span"),
        pytest.param(1, id="parent-span"),
    ])
    def test_a_failed_registration_raises_what_one_span_raises(self, failing, monkeypatch):
        # 12 voters in 3 spans: 0-3 here, 4-7 and 8-11 in children
        register = Voter.register

        def refuse_one(cls, v_id, authority, bus, rng, n_free):
            if v_id == f"V{failing:05d}":
                raise ParameterError(f"refused {v_id} at registration")
            return register(v_id, authority, bus, rng, n_free)

        monkeypatch.setattr(Voter, "register", classmethod(refuse_one))
        config = self.config(FIXTURE_FIELD, "key-copy")
        errors = []
        for spans in (1, 3):
            force_spans(monkeypatch, spans)
            with pytest.raises(VotingError) as exc:
                ElectionRun(config)
            assert no_child_left()
            errors.append((type(exc.value), str(exc.value)))
        assert errors[0] == errors[1] == (ParameterError, f"refused V{failing:05d} at registration")

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_each_voter_is_built_registered_and_its_casts_spend_its_shares(self, cpus, monkeypatch):
        # a voter holds its credential, the sheet and its unspent free
        # shares, k - 1 for each cast the schedule gives it, and no unset
        # or registration-only state
        config = self.config(FIXTURE_FIELD, "zk-relay")
        force_spans(monkeypatch, cpus)
        run = ElectionRun(config)
        assert no_child_left()
        casts = Counter(event.voter_index for event in run.schedule)
        for i, voter in enumerate(run.voters):
            assert vars(voter).keys() == {"credential", "sheet", "free", "version"}
            assert None not in vars(voter).values() and voter.sheet is run.sheet
            assert len(voter.free) == casts[i] * (config.k - 1)
        run.run_schedule()
        assert all(voter.free == [] for voter in run.voters)

    @pytest.mark.parametrize("booth", BOOTH_MODES)
    def test_a_shipped_credential_gets_no_subgroup_test_here(self, booth, monkeypatch):
        # each registration tests its credential's sig half once, its id
        # being a square; a span registered in a child ships the verdicts
        # with the credential, so neither the commit nor the booth tests it
        config = self.config("64", booth)
        setup = {}
        for cpus in (1, 2):
            force_spans(monkeypatch, cpus)
            counts = count_calls(monkeypatch, "in_subgroup")
            run = ElectionRun(config)
            setup[cpus] = counts["in_subgroup"]
            run.run_schedule()
            assert counts["in_subgroup"] == setup[cpus], "the booth ran a subgroup test"
        assert setup[1] - setup[2] == 1 * 6


def reachable(root):
    """Every object reachable from ``root`` by references, entering no
    class, module or function, whose globals would reach everything."""
    seen, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return list(seen.values())


@pytest.mark.skipif(not hasattr(os, "fork"), reason="set-up forks only where os.fork exists")
class TestRegistrationCloses:
    """Set-up closes registration once every span is committed: the
    sheet's tables go with the authority's view of it, polling and the
    tally keep the g and y tables only, and the authority refuses every
    later registrant."""

    CASES = [
        pytest.param(booth, spans, id=f"{booth}-{spans}-span")
        for booth in BOOTH_MODES
        for spans in (1, 2)
    ]

    @staticmethod
    def set_up(booth, spans, monkeypatch):
        force_spans(monkeypatch, spans)
        config = ElectionConfig(_field_64(), None, 12, 3, ("a", "b", "c", "d"), 0.5, 0.3, booth, 8)
        run = ElectionRun(config)
        assert no_child_left()
        return run

    @pytest.mark.parametrize("booth, spans", CASES)
    def test_polling_and_the_tally_keep_the_g_and_y_tables_only(self, booth, spans, monkeypatch):
        run = self.set_up(booth, spans, monkeypatch)
        assert run.authority.signatures is None
        assert all(type(s) is blindsig.Signature for s in run.sheet.signatures)
        objects = reachable(run)
        assert not any(isinstance(obj, blindsig.PublishedSignature) for obj in objects)
        tables = {id(obj) for obj in objects if isinstance(obj, modmath.FixedBase)}
        assert tables == {id(run.params.g_table), id(run.key.public_key().table)}
        built = []
        monkeypatch.setattr(modmath.FixedBase, "__init__", lambda table, *args: built.append(args))
        finished(run)
        assert built == []

    @pytest.mark.parametrize("booth, spans", CASES)
    def test_a_registrant_after_set_up_is_refused(self, booth, spans, monkeypatch):
        run = self.set_up(booth, spans, monkeypatch)
        registered = set(run.authority.registered)
        for v_id in (run.roster[0], "V99999"):
            bus = MessageBus()
            with pytest.raises(protocol.RegistrationClosedError) as exc:
                Voter.register(v_id, run.authority, bus, random.Random(1), 0)
            assert isinstance(exc.value, VotingError)
            request, reject = logged(bus)
            assert request.kind == "register-request"
            assert reject == (
                "ra", f"voter/{v_id}", "register-reject", {"reason": "closed"}
            )
        assert run.authority.registered == registered

    @pytest.mark.parametrize("booth, spans", CASES)
    def test_a_sheet_over_the_table_bound_gives_the_same_bytes(self, booth, spans, monkeypatch):
        # one byte under the sheet's 8 tables: every registration confirms
        # the sheet by plain powers, and no table of a sheet element is built
        tabled = self.set_up(booth, spans, monkeypatch)
        sheet = tabled.sheet
        need = 2 * len(sheet.ballots) * modmath.table_bytes(tabled.params)
        for bound, kind in ((need, blindsig.PublishedSignature), (need - 1, blindsig.Signature)):
            monkeypatch.setattr(protocol, "MAX_SHEET_TABLE_BYTES", bound)
            view = protocol.RegistrationAuthority(tabled.key, [], sheet).signatures
            assert all(type(s) is kind for s in view)
        bases = []
        build = modmath.FixedBase.__init__

        def counted(table, base, params):
            bases.append(base)
            build(table, base, params)

        monkeypatch.setattr(modmath.FixedBase, "__init__", counted)
        plain = self.set_up(booth, spans, monkeypatch)
        assert finished(plain) == finished(tabled)
        assert set(bases) <= {plain.params.g, plain.key.public_key().value}


class TestTranscript:
    @pytest.mark.xfail(
        strict=True,
        reason="the zk-relay tally's confirm_batch with the authority posts no line",
    )
    def test_every_zk_relay_responder_call_has_its_line_to_ra(self, monkeypatch):
        # each challenge the authority answers, in order, is the challenge
        # of one line to ra: the voters' confirm-batch lines, the booth's
        # auth-zk lines, and the tally's round over the sheet
        challenges = []
        honest = protocol.honest_responder

        def recording(key):
            respond = honest(key)
            return lambda challenge: challenges.append(challenge) or respond(challenge)

        monkeypatch.setattr(protocol, "honest_responder", recording)
        config = ElectionConfig(None, 32, 12, 3, ("a", "b", "c", "d"), 0.0, 0.0, "zk-relay", 1)
        run, _ = run_election(config)
        to_ra = [m for m in logged(run.bus) if m.recipient == "ra" and "challenge" in m.fields]
        assert [int(m.fields["challenge"]) for m in to_ra] == challenges


@functools.cache
def _field_64():
    return generate_params(64, stream(1, "field"))


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(BOOTH_MODES), st.booleans(), st.integers(0, 8), st.integers(0, 2**32 - 1), st.data())
def test_resume_at_any_cursor_is_byte_identical(booth, large, voters, seed, data):
    params = _field_64() if large else FIXTURE_FIELD
    config = ElectionConfig(params, None, voters, 3, ("a", "b", "c"), 0.5, 0.3, booth, seed)
    full, report = run_election(config)
    cursor = data.draw(st.integers(0, len(full.schedule)), label="cursor")
    interrupted = ElectionRun(config)
    interrupted.run_schedule(upto=cursor)
    resumed = ElectionRun.resume(json.loads(interrupted.snapshot_json()))
    assert resumed.cursor == cursor
    resumed.run_schedule()
    resumed.finish()
    assert resumed.report().render_records() == report.render_records()
    assert resumed.bus.render_log() == full.bus.render_log()


def authority_links(bus, params):
    """The anonymous ids the authority computes from the lines sent to or
    from it.  A ``confirm-batch`` line has challenge = g**e2 * id**(r0*e1) *
    prod ballot_i**(r_i*e1) over the ballots its sender was granted, so
    id = (challenge / (g**e2 * prod ballot_i**(r_i*e1)))**((r0*e1)**-1 mod q);
    an ``auth-zk`` line gives the id the booth is checking as
    (challenge * g**-e2)**(e1**-1 mod q).  A line that lacks a field links
    nothing."""
    p, q, g = params.p, params.q, params.g
    granted, ids = {}, set()
    for message in logged(bus):
        if "ra" not in (message.sender, message.recipient):
            continue
        fields = message.fields
        try:
            if message.kind == "register-grant":
                granted[message.recipient] = [int(b) for b in fields["ballots"].split(",")]
                continue
            e1, e2, challenge = int(fields["e1"]), int(fields["e2"]), int(fields["challenge"])
            if message.kind == "confirm-batch":
                r0, *weights = (int(r) for r in fields["weights"].split(","))
                known = pow(g, e2, p)
                for ballot, r in zip(granted[message.sender], weights, strict=True):
                    known = known * pow(ballot, r * e1, p) % p
                ids.add(pow(challenge * pow(known, -1, p) % p, pow(r0 * e1, -1, q), p))
            elif message.kind == "auth-zk":
                ids.add(pow(challenge * pow(g, -e2, p) % p, pow(e1, -1, q), p))
        except KeyError:
            continue
    return ids


class TestUnlinkability:
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the confirm-batch and auth-zk lines the authority sees carry the "
        "verifier's secret weights, e1 and e2 beside the challenge (ROADMAP item 2)",
    )
    @pytest.mark.parametrize("booth", BOOTH_MODES)
    def test_the_authority_links_no_more_cast_ids_than_chance(self, booth):
        # at 64 bits a guessed id is a cast's id with negligible probability
        config = ElectionConfig(_field_64(), None, 50, 3, ("a", "b", "c"), 0.3, 0.0, booth, 1)
        run, _ = run_election(config)
        cast = {int(m.fields["anon_id"]) for m in logged(run.bus) if m.kind == "cast-share"}
        assert len(cast) == 50
        assert len(authority_links(run.bus, config.params) & cast) <= 1


class TestAttackRuns:
    def test_targeted_exhaustive_records(self):
        config = parse_attack_config(ATTACK_TEXT)
        report = run_attack(config)
        records = report.render_records()
        assert "exact=1/22" in records
        assert "asymptotic=1/23" in records
        assert "mode=exhaustive goal=targeted" in records

    def test_attack_echo_round_trip(self):
        config = parse_attack_config(ATTACK_TEXT)
        assert parse_attack_config("\n".join(config.echo_lines())) == config

    def test_any_valid_pair(self):
        config = parse_attack_config(
            "p=23\nq=11\ng=2\nservers = 4\ncolluders = 1,3\ngoal = any-valid\ncandidates = 3\nseed = 2\n"
        )
        report = run_attack(config)
        goals = [outcome.goal for outcome in report.outcomes]
        assert goals == ["any-valid", "any-other"]
        assert report.outcomes[0].exact == Fraction(3, 22)
        assert report.outcomes[1].exact == Fraction(2, 22)
        assert "wall time" in report.render_table()
        assert "wall time" not in report.render_records()

    def test_monte_carlo_trials(self):
        config = parse_attack_config(ATTACK_TEXT.replace("exhaustive", "2000"))
        report = run_attack(config)
        outcome = report.outcomes[0]
        assert outcome.mode == "monte-carlo"
        assert outcome.trials == 2000
        assert outcome.exact is None

    def test_large_field_exhaustive_refused(self):
        config = parse_attack_config(
            "field_bits = 24\nservers = 2\ncolluders = 0\ngoal = targeted\n"
        )
        with pytest.raises(RegimeError):
            run_attack(config)

    def test_attack_config_problems(self):
        with pytest.raises(ConfigError) as exc:
            parse_attack_config(
                "p=23\nq=11\ng=2\nservers = 3\ncolluders = 0,1,2\ngoal = sabotage\ntrials = soon\n"
            )
        text = str(exc.value)
        assert "proper subset" in text
        assert "goal" in text
        assert "trials" in text

    def test_any_valid_needs_candidates(self):
        with pytest.raises(ConfigError) as exc:
            parse_attack_config("p=23\nq=11\ng=2\nservers = 2\ncolluders = 0\ngoal = any-valid\n")
        assert any("candidates" in problem for problem in exc.value.problems)

    def test_defaults(self):
        config = parse_attack_config("p=23\nq=11\ng=2\nservers = 2\ncolluders = 1\n")
        assert config.goal == "targeted"
        assert config.trials is None
        assert config.seed == 0
        assert isinstance(config, AttackConfig)


class TestEmitParams:
    def test_writes_parseable_file(self, tmp_path):
        path = tmp_path / "election.cfg"
        path.write_text(
            emit_params(16, 2) + "voters = 0\nservers = 2\ncandidates = x,y\n", encoding="utf-8"
        )
        params = parse_election_config(path.read_text(encoding="utf-8")).params
        assert params == generate_params(16, stream(2, "field"))
        assert params.p.bit_length() == 16

    def test_deterministic(self):
        assert emit_params(16, 2) == emit_params(16, 2)
        assert emit_params(16, 2) != emit_params(16, 3)

    def test_matches_election_field_stream(self):
        run = ElectionRun(base_config(params=None, field_bits=24, n_voters=0, seed=9))
        p, q, g = run.params.p, run.params.q, run.params.g
        assert emit_params(24, 9) == f"p = {p}\nq = {q}\ng = {g}\n"
