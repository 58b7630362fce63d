"""Exit codes, file outputs, and the snapshot/resume flow of the CLI."""

import hashlib
import json

import pytest

from splitvote import harness
from splitvote.cli import main
from splitvote.errors import ConfigError
from splitvote.harness import parse_attack_config, parse_election_config, stream
from splitvote.modmath import (
    MAX_CANDIDATES,
    MAX_FIELD_BITS,
    MAX_SERVERS,
    MAX_VOTERS,
    generate_params,
)
from splitvote.protocol import BOOTH_MODES

ELECTION_CFG = """\
p = 23
q = 11
g = 2
voters = 20
servers = 3
candidates = alpha,beta
recast_fraction = 0.25
seed = 5
"""

ATTACK_CFG = """\
p = 23
q = 11
g = 2
servers = 3
colluders = 0,2
goal = targeted
trials = exhaustive
seed = 1
"""


def _config_section(records: str) -> str:
    """The ``[config]`` lines of a canonical report, as a config file."""
    section = records.split("[config]\n", 1)[1].split("\n\n", 1)[0]
    return section + "\n"


@pytest.fixture
def election_cfg(tmp_path):
    path = tmp_path / "election.cfg"
    path.write_text(ELECTION_CFG, encoding="utf-8")
    return path


@pytest.fixture
def attack_cfg(tmp_path):
    path = tmp_path / "attack.cfg"
    path.write_text(ATTACK_CFG, encoding="utf-8")
    return path


# the config above without its field, for the p, q and g lines of `params`
FIELDLESS_CFG = ELECTION_CFG.split("g = 2\n", 1)[1]

TWELVE_LABELS = ",".join(f"c{i}" for i in range(12))
# a bit length whose field generate_params could not even draw
HUGE_BITS = "99999999999999999999999999"


class TestParams:
    def test_stdout(self, capsys):
        assert main(["params", "--bits", "16", "--seed", "2"]) == 0
        text = capsys.readouterr().out
        assert [line.split(" = ")[0] for line in text.splitlines()] == ["p", "q", "g"]
        assert parse_election_config(text + FIELDLESS_CFG).params.p.bit_length() == 16

    def test_file_output(self, tmp_path, capsys):
        out = tmp_path / "field.cfg"
        assert main(["params", "--bits", "16", "--seed", "2", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        config = parse_election_config(out.read_text(encoding="utf-8") + FIELDLESS_CFG)
        assert config.params == generate_params(16, stream(2, "field"))

    def test_512_bits_prints_the_pinned_field(self, capsys):
        # p, q and g as decimal lines, as the 64-round search produced them
        assert main(["params", "--bits", "512", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        values = "".join(line.split(" = ")[1] + "\n" for line in lines)
        assert hashlib.sha256(values.encode()).hexdigest() == (
            "f383230f61b9f6df05116bcfdf4aa7e241f4c5226075273c7c0211f0ce27281d"
        )

    def test_tiny_bits_rejected(self, capsys):
        assert main(["params", "--bits", "3"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_oversized_bits_rejected(self, capsys):
        assert main(["params", "--bits", "100000000000000000000"]) == 2
        assert _one_error_line(capsys) == f"error: bit_length must be at most {MAX_FIELD_BITS}\n"


class TestRun:
    def test_records_to_stdout(self, election_cfg, capsys):
        assert main(["run", "--config", str(election_cfg)]) == 0
        out = capsys.readouterr().out
        assert "[tally]" in out
        assert "agreement = 1" in out
        assert "wall time" not in out

    def test_table_format(self, election_cfg, capsys):
        assert main(["run", "--config", str(election_cfg), "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "wall time" in out
        assert "ledger agrees  yes" in out

    def test_outputs_are_byte_identical_across_invocations(self, election_cfg, tmp_path):
        first = tmp_path / "r1.txt"
        second = tmp_path / "r2.txt"
        events1 = tmp_path / "e1.log"
        events2 = tmp_path / "e2.log"
        assert main(["run", "--config", str(election_cfg), "--out", str(first), "--events", str(events1)]) == 0
        assert main(["run", "--config", str(election_cfg), "--out", str(second), "--events", str(events2)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert events1.read_bytes() == events2.read_bytes()

    def test_seed_override_changes_output(self, election_cfg, capsys):
        assert main(["run", "--config", str(election_cfg)]) == 0
        default = capsys.readouterr().out
        assert main(["run", "--config", str(election_cfg), "--seed", "99"]) == 0
        overridden = capsys.readouterr().out
        assert default != overridden

    def test_seed_override_is_the_seed_echoed(self, election_cfg, tmp_path, capsys):
        assert main(["run", "--config", str(election_cfg), "--seed", "99"]) == 0
        overridden = capsys.readouterr().out
        echoed = _config_section(overridden)
        assert "seed = 99\n" in echoed and "seed = 5" not in echoed
        # the echoed config alone reproduces the run that printed it
        again = tmp_path / "echoed.cfg"
        again.write_text(echoed, encoding="utf-8")
        assert main(["run", "--config", str(again)]) == 0
        assert capsys.readouterr().out == overridden

    def test_event_log_grammar(self, election_cfg, tmp_path):
        events = tmp_path / "events.log"
        assert main(["run", "--config", str(election_cfg), "--events", str(events)]) == 0
        lines = events.read_text(encoding="utf-8").splitlines()
        assert lines
        for seq, line in enumerate(lines, start=1):
            head, arrow, rest = line.split(" ", 2)
            assert int(head) == seq and len(head) == 6
            assert " -> " in line

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("voters = -1\n", encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_config_field_with_composite_q_exits_2(self, tmp_path, capsys):
        # 3215031751 = 151 * 751 * 28351 is a strong pseudoprime to the
        # bases 2, 3, 5 and 7, so only the full 64 rounds refuse it
        path = tmp_path / "bad.cfg"
        field = "p = 6430063503\nq = 3215031751\ng = 4\n"
        path.write_text(field + ELECTION_CFG.split("g = 2\n", 1)[1], encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 2
        assert "q = 3215031751 is not prime" in _one_error_line(capsys)

    def test_missing_config_exits_4(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 4
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"voters = 3\xff\n")
        assert main(["run", "--config", str(path)]) == 2
        _one_error_line(capsys)

    def test_unicode_digit_candidate_count_exits_2(self, tmp_path, capsys):
        # "²".isdigit() holds, but int("²") raises
        path = tmp_path / "bad.cfg"
        path.write_text(ELECTION_CFG.replace("alpha,beta", "²"), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 2
        assert "candidates" in _one_error_line(capsys)

    @pytest.mark.parametrize(
        "line, edited, complaint",
        [
            ("voters = 20", "voters =", "line 4: expected key = value"),
            ("voters = 20", "voters = many", "voters: not an integer: 'many'"),
            ("recast_fraction = 0.25", "recast_fraction = a quarter",
             "recast_fraction: not a number: 'a quarter'"),
            ("alpha,beta", "1", "candidates: need at least two"),
            ("alpha,beta", "alpha,,beta", "candidates: empty label"),
            ("alpha,beta", "alpha,alpha", "candidates: duplicate label"),
            # labels are printed as "count <label> = n" and "counts=<label>:n"
            ("alpha,beta", "a b,beta", "candidates: label 'a b' holds whitespace, ':', '=', ',' or '#'"),
            ("alpha,beta", "alpha,x:1", "candidates: label 'x:1' holds whitespace, ':', '=', ',' or '#'"),
            ("alpha,beta", "a=b,beta", "candidates: label 'a=b' holds whitespace, ':', '=', ',' or '#'"),
            # q = 11 at p = 23
            ("alpha,beta", "12", "candidates: more than the subgroup has elements"),
        ],
        ids=["empty-value", "voters-not-integer", "fraction-not-number", "one-candidate",
             "empty-label", "duplicate-label", "label-space", "label-colon", "label-equals",
             "count-over-q"],
    )
    def test_config_problem_exits_2(self, tmp_path, capsys, line, edited, complaint):
        path = tmp_path / "bad.cfg"
        assert line in ELECTION_CFG
        path.write_text(ELECTION_CFG.replace(line, edited), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 2
        assert _one_error_line(capsys) == f"error: {complaint}\n"

    @pytest.mark.parametrize("candidates", ["12", TWELVE_LABELS], ids=["count", "labels"])
    def test_more_candidates_than_the_subgroup_has(self, tmp_path, capsys, candidates):
        # q = 11 at p = 23; either form is one problem among the config's others
        path = tmp_path / "bad.cfg"
        edited = ELECTION_CFG.replace("alpha,beta", candidates)
        path.write_text(edited.replace("voters = 20", "voters = many"), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 2
        assert _one_error_line(capsys) == (
            "error: voters: not an integer: 'many'; "
            "candidates: more than the subgroup has elements\n"
        )


class TestSnapshotResume:
    def test_resume_matches_uninterrupted(self, election_cfg, tmp_path, capsys):
        direct = tmp_path / "direct.txt"
        direct_events = tmp_path / "direct.log"
        assert main([
            "run", "--config", str(election_cfg),
            "--out", str(direct), "--events", str(direct_events),
        ]) == 0
        snap = tmp_path / "state.json"
        assert main([
            "run", "--config", str(election_cfg),
            "--snapshot", str(snap), "--snapshot-at", "9",
        ]) == 0
        assert "snapshot after 9" in capsys.readouterr().out
        resumed = tmp_path / "resumed.txt"
        resumed_events = tmp_path / "resumed.log"
        assert main([
            "resume", "--snapshot", str(snap),
            "--out", str(resumed), "--events", str(resumed_events),
        ]) == 0
        assert resumed.read_bytes() == direct.read_bytes()
        assert resumed_events.read_bytes() == direct_events.read_bytes()

    def test_snapshot_at_needs_snapshot(self, election_cfg):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(election_cfg), "--snapshot-at", "3"])
        assert exc.value.code == 2

    def test_snapshot_needs_snapshot_at(self, election_cfg, tmp_path, capsys):
        # a finished run has no snapshot, so --snapshot alone names nothing
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(election_cfg), "--snapshot", str(tmp_path / "state.json")])
        assert exc.value.code == 2
        assert "--snapshot and --snapshot-at go together" in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ["election.cfg"]

    @pytest.mark.parametrize("flag", ["--out", "--events", "--format"])
    def test_snapshot_at_refuses_report_files(self, election_cfg, tmp_path, capsys, flag):
        # the run stops before any report or event log exists, so a format
        # would print nothing either
        value = "table" if flag == "--format" else str(tmp_path / "written.txt")
        with pytest.raises(SystemExit) as exc:
            main([
                "run", "--config", str(election_cfg), "--snapshot", str(tmp_path / "state.json"),
                "--snapshot-at", "9", flag, value,
            ])
        assert exc.value.code == 2
        assert "--out and --events go with resume" in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ["election.cfg"]

    def test_negative_snapshot_at_is_refused(self, election_cfg, tmp_path, capsys):
        snap = tmp_path / "state.json"
        with pytest.raises(SystemExit) as exc:
            main([
                "run", "--config", str(election_cfg),
                "--snapshot", str(snap), "--snapshot-at", "-1",
            ])
        assert exc.value.code == 2
        assert "--snapshot-at" in capsys.readouterr().err
        assert not snap.exists()

    def test_corrupt_snapshot_exits_2(self, tmp_path, capsys):
        snap = tmp_path / "junk.json"
        snap.write_text("{not json", encoding="utf-8")
        assert main(["resume", "--snapshot", str(snap)]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_foreign_snapshot_exits_2(self, tmp_path, capsys):
        snap = tmp_path / "foreign.json"
        snap.write_text(json.dumps({"kind": "other"}), encoding="utf-8")
        assert main(["resume", "--snapshot", str(snap)]) == 2
        assert "error:" in capsys.readouterr().err


class TestEventLogContract:
    """A snapshot's sha256 is the sha256 of a prefix of the uninterrupted
    ``--events`` file: the lines logged before the cast at its cursor, or
    before the booth closes at the end.  A run resumed from it writes the
    whole file again, byte for byte."""

    @staticmethod
    def cast_starts(lines):
        """Where each cast's ``auth-request`` opens in a log, then the close."""
        return [i for i, line in enumerate(lines) if line.split()[4] in (b"auth-request", b"close")]

    @pytest.mark.parametrize("booth", BOOTH_MODES)
    def test_snapshots_hash_a_prefix_and_resume_to_the_whole_file(self, booth, tmp_path):
        config = tmp_path / "election.cfg"
        config.write_text(f"{ELECTION_CFG}booth = {booth}\n", encoding="utf-8")
        whole = {name: tmp_path / f"whole.{name}" for name in ("records", "events")}
        assert main([
            "run", "--config", str(config), "--out", str(whole["records"]),
            "--events", str(whole["events"]),
        ]) == 0
        lines = whole["events"].read_bytes().splitlines(keepends=True)
        starts = self.cast_starts(lines)
        assert len(starts) == 25 + 1  # 20 voters, 5 of them cast twice
        for cursor in (0, 12, 25):
            snap = tmp_path / f"at-{cursor}.json"
            assert main([
                "run", "--config", str(config), "--snapshot", str(snap),
                "--snapshot-at", str(cursor),
            ]) == 0
            prefix = b"".join(lines[: starts[cursor]])
            recorded = json.loads(snap.read_text(encoding="utf-8"))["sha256"]
            assert recorded == hashlib.sha256(prefix).hexdigest()
            resumed = {name: tmp_path / f"resumed-{cursor}.{name}" for name in whole}
            assert main([
                "resume", "--snapshot", str(snap), "--out", str(resumed["records"]),
                "--events", str(resumed["events"]),
            ]) == 0
            for name, path in resumed.items():
                assert path.read_bytes() == whole[name].read_bytes(), (cursor, name)


def _snapshot_at_9(config_path, tmp_path, capsys):
    snap = tmp_path / "state.json"
    assert main([
        "run", "--config", str(config_path), "--snapshot", str(snap), "--snapshot-at", "9",
    ]) == 0
    capsys.readouterr()
    return snap, json.loads(snap.read_text(encoding="utf-8"))


def _one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


def _resume_fails_with_one_line(snap, capsys):
    assert main(["resume", "--snapshot", str(snap)]) == 2
    return _one_error_line(capsys)


def seed_line(lines):
    """Config echo lines with the closing ``seed =`` line edited."""
    return [*lines[:-1], "seed = 6"]


class TestHostileSnapshots:
    """Every malformed, foreign or tampered snapshot exits 2 with one line."""

    @pytest.mark.parametrize(
        "raw",
        [
            b"[]",
            b'"splitvote-snapshot"',
            b'{"kind":"splitvote-snapshot","format":2}',
            b'{"kind":"splitvote-snapshot","format":1}',
            b"\xff\xfe\x00not utf-8",
            b"[" * 100_000,
            b'{"cursor":' + b"9" * 5000 + b"}",
        ],
        ids=["list", "string", "kind-format-only", "format-1-stub", "not-utf-8",
             "deep-nesting", "huge-integer"],
    )
    def test_unusable_file(self, tmp_path, capsys, raw):
        snap = tmp_path / "hostile.json"
        snap.write_bytes(raw)
        _resume_fails_with_one_line(snap, capsys)

    @pytest.mark.parametrize(
        "key, value, complaint",
        [
            ("cursor", "9", "cursor must be a non-negative integer"),
            ("cursor", True, "cursor must be a non-negative integer"),
            ("cursor", -1, "cursor must be a non-negative integer"),
            ("config", "voters = 20", "config must be a list"),
            ("sha256", 0, "sha256 must be a hex digest"),
            ("format", 1, "format 1 is not supported"),
            ("format", 2, "format 2 is not supported"),
            ("format", 3, "format 3 is not supported"),
            ("format", 4, "format 4 is not supported"),
            ("format", 5, "format 5 is not supported"),
            ("cursor", 10_000, "beyond the schedule"),
            ("sha256", "0" * 64, "digest mismatch"),
            # format 2 kept these; the seed now lives in the config alone
            ("seed", 5, "unknown key seed"),
            ("finished", False, "unknown key finished"),
        ],
    )
    def test_bad_field(self, election_cfg, tmp_path, capsys, key, value, complaint):
        snap, state = _snapshot_at_9(election_cfg, tmp_path, capsys)
        state[key] = value
        snap.write_text(json.dumps(state), encoding="utf-8")
        assert complaint in _resume_fails_with_one_line(snap, capsys)

    # written by older code for the README's demo election at cast 6
    OLD_SNAPSHOT = (
        '{"config":["p = 23","q = 11","g = 2","voters = 12","servers = 3",'
        '"candidates = alpha,beta","recast_fraction = 0.25","incomplete_fraction = 0.0",'
        '"booth = key-copy","seed = 9"],"cursor":6,"format":%d,"kind":"splitvote-snapshot",'
        '"sha256":"%s"}'
    )

    @pytest.mark.parametrize(
        "format_, digest",
        [
            # before registration confirmed the ballot sheet in one batched round
            (3, "be191f11a14426214f8bdea135004f8a99ced9b7a0854f15157c3cc7ee86695e"),
            # before the credential joined the sheet's batched round and a
            # recast stopped being verified again
            (4, "286f63b35b696755e58e187e230870b1b8ebec08f9cab68299228c84a7b3440f"),
            # when the digest also covered every server store and the
            # ledger's copy of them
            (5, "2f1511d026d007ef6965f0a9cd800c1c3e99e675ecc2f334ebc178c8b88db2c0"),
        ],
        ids=["format-3", "format-4", "format-5"],
    )
    def test_old_format_snapshot_is_refused_by_its_format(self, tmp_path, capsys, format_, digest):
        snap = tmp_path / "state.json"
        snap.write_text(self.OLD_SNAPSHOT % (format_, digest), encoding="utf-8")
        err = _resume_fails_with_one_line(snap, capsys)
        assert f"format {format_} is not supported" in err and "rerun with --snapshot-at" in err
        # replaying its config today cannot reach the digest it recorded
        relabelled = json.loads(snap.read_text(encoding="utf-8")) | {
            "format": harness.SNAPSHOT_FORMAT
        }
        snap.write_text(json.dumps(relabelled), encoding="utf-8")
        assert "digest mismatch" in _resume_fails_with_one_line(snap, capsys)

    def test_missing_and_unknown_keys(self, election_cfg, tmp_path, capsys):
        snap, state = _snapshot_at_9(election_cfg, tmp_path, capsys)
        del state["cursor"]
        state["servers"] = [{}]
        snap.write_text(json.dumps(state), encoding="utf-8")
        err = _resume_fails_with_one_line(snap, capsys)
        assert "missing key cursor" in err and "unknown key servers" in err

    @pytest.mark.parametrize("booth", ["key-copy", "zk-relay"])
    @pytest.mark.parametrize(
        "key, edit",
        [("config", seed_line), ("config", lambda lines: lines[:3] + ["voters = 21"] + lines[4:]),
         ("cursor", lambda cursor: cursor - 1)],
    )
    def test_tampered_run_fails_the_digest(self, tmp_path, capsys, booth, key, edit):
        config = tmp_path / "election.cfg"
        config.write_text(ELECTION_CFG + f"booth = {booth}\n", encoding="utf-8")
        snap, state = _snapshot_at_9(config, tmp_path, capsys)
        assert state["config"][3] == "voters = 20" and state["config"][-1] == "seed = 5"
        state[key] = edit(state[key])
        snap.write_text(json.dumps(state), encoding="utf-8")
        assert "digest mismatch" in _resume_fails_with_one_line(snap, capsys)
        # the untouched snapshot still resumes
        snap, _ = _snapshot_at_9(config, tmp_path, capsys)
        assert main(["resume", "--snapshot", str(snap)]) == 0


class TestAttack:
    def test_exact_beside_asymptotic(self, attack_cfg, capsys):
        assert main(["attack", "--config", str(attack_cfg)]) == 0
        out = capsys.readouterr().out
        assert "exact=1/22" in out
        assert "asymptotic=1/23" in out

    def test_large_field_exhaustive_exits_3(self, tmp_path, capsys):
        path = tmp_path / "big.cfg"
        path.write_text(
            "field_bits = 24\nservers = 2\ncolluders = 0\ngoal = targeted\n",
            encoding="utf-8",
        )
        assert main(["attack", "--config", str(path)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_impossible_exhaustive_count_refused_before_prime_search(
        self, tmp_path, capsys, monkeypatch
    ):
        # a 17-bit p exceeds 2**16, so the count cannot run: refuse before
        # the safe-prime search, which takes seconds at large bit lengths
        def no_search(*args):
            raise AssertionError("safe-prime search ran")

        monkeypatch.setattr(harness, "generate_params", no_search)
        path = tmp_path / "big.cfg"
        path.write_text(
            "field_bits = 17\nservers = 2\ncolluders = 0\ngoal = targeted\n",
            encoding="utf-8",
        )
        assert main(["attack", "--config", str(path)]) == 3
        assert _one_error_line(capsys) == "error: field too large to enumerate (p > 65536)\n"

    def test_largest_countable_bit_length_still_counts(self, tmp_path, capsys):
        path = tmp_path / "edge.cfg"
        path.write_text(
            "field_bits = 16\nservers = 2\ncolluders = 0\ngoal = targeted\n",
            encoding="utf-8",
        )
        assert main(["attack", "--config", str(path)]) == 0
        assert "mode=exhaustive goal=targeted successes=1 " in capsys.readouterr().out

    def test_bad_attack_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("servers = 3\ncolluders = 0,1,2\n", encoding="utf-8")
        assert main(["attack", "--config", str(path)]) == 2
        assert "proper subset" in capsys.readouterr().err

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(ATTACK_CFG.encode("ascii") + b"goal = targeted\xff\n")
        assert main(["attack", "--config", str(path)]) == 2
        _one_error_line(capsys)

    def test_unicode_digit_candidate_count_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(ATTACK_CFG + "candidates = ²\n", encoding="utf-8")
        assert main(["attack", "--config", str(path)]) == 2
        assert "candidates" in _one_error_line(capsys)

    @pytest.mark.parametrize(
        "line, edited, complaint",
        [
            ("colluders = 0,2\n", "", "missing key: colluders"),
            ("colluders = 0,2", "colluders = 0,two", "colluders: not a list of integers: '0,two'"),
            ("colluders = 0,2", "colluders = 0,3", "colluders: indices must lie in [0, 3)"),
            ("colluders = 0,2", "colluders = 2,2", "colluders: duplicate index"),
            ("trials = exhaustive", "trials = 0", "trials: must be positive"),
            ("seed = 1", "seed = 1\nrounds = 3", "unknown key: rounds"),
            # a targeted attack reads no candidates, so it refuses to echo them
            ("seed = 1", "seed = 1\ncandidates = 5", "candidates: only goal any-valid reads them"),
            ("goal = targeted", "goal = any-valid\ncandidates = a b,c",
             "candidates: label 'a b' holds whitespace, ':', '=', ',' or '#'"),
            ("goal = targeted", "goal = any-valid\ncandidates = 1000000",
             "candidates: more than the subgroup has elements"),
        ],
        ids=["missing-colluders", "colluder-not-integer", "colluder-out-of-range",
             "duplicate-colluder", "zero-trials", "unknown-key", "targeted-candidates",
             "label-space", "count-over-q"],
    )
    def test_config_problem_exits_2(self, tmp_path, capsys, line, edited, complaint):
        path = tmp_path / "bad.cfg"
        assert line in ATTACK_CFG
        path.write_text(ATTACK_CFG.replace(line, edited), encoding="utf-8")
        assert main(["attack", "--config", str(path)]) == 2
        assert _one_error_line(capsys) == f"error: {complaint}\n"

    @pytest.mark.parametrize("candidates", ["12", TWELVE_LABELS], ids=["count", "labels"])
    def test_more_candidates_than_the_subgroup_has(self, tmp_path, capsys, candidates):
        path = tmp_path / "bad.cfg"
        edited = ATTACK_CFG.replace("0,2", "0,two").replace("targeted", "any-valid")
        path.write_text(edited + f"candidates = {candidates}\n", encoding="utf-8")
        assert main(["attack", "--config", str(path)]) == 2
        assert _one_error_line(capsys) == (
            "error: colluders: not a list of integers: '0,two'; "
            "candidates: more than the subgroup has elements\n"
        )

    def test_seed_override_is_the_seed_echoed(self, tmp_path, capsys):
        path = tmp_path / "mc.cfg"
        path.write_text(ATTACK_CFG.replace("exhaustive", "500"), encoding="utf-8")
        assert main(["attack", "--config", str(path), "--seed", "99"]) == 0
        overridden = capsys.readouterr().out
        echoed = _config_section(overridden)
        assert "seed = 99\n" in echoed and "seed = 1" not in echoed
        again = tmp_path / "echoed.cfg"
        again.write_text(echoed, encoding="utf-8")
        assert main(["attack", "--config", str(again)]) == 0
        assert capsys.readouterr().out == overridden

    @pytest.mark.parametrize(
        "config, digest",
        [
            (
                ATTACK_CFG.replace("exhaustive", "50000"),
                "10701ec4f8bc2dd888bed49407a7f3d0e12583ac539e6746ef96b9ae1d0c6487",
            ),
            (
                "p = 23\nq = 11\ng = 2\nservers = 4\ncolluders = 1,3\n"
                "goal = any-valid\ntrials = 20000\ncandidates = 5\nseed = 2\n",
                "c1ad15e99bc0b25cb4b2c201fa288996687bc4b1673693c4d74ad2ae0b793ded",
            ),
        ],
        ids=["targeted", "any-valid"],
    )
    def test_monte_carlo_records_are_pinned(self, tmp_path, capsys, config, digest):
        # digests of the records as the randrange-per-share trial loop
        # produced them; a faster loop must reproduce them byte for byte
        path = tmp_path / "mc.cfg"
        path.write_text(config, encoding="utf-8")
        assert main(["attack", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_monte_carlo_table(self, tmp_path, capsys):
        path = tmp_path / "mc.cfg"
        path.write_text(ATTACK_CFG.replace("exhaustive", "500"), encoding="utf-8")
        assert main(["attack", "--config", str(path), "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "targeted" in out
        assert "wall time" in out


class TestFieldSizeBound:
    """A bit length above MAX_FIELD_BITS is a config problem, refused before
    any field is drawn."""

    OVERSIZED = f"error: field_bits: must be at most {MAX_FIELD_BITS}\n"

    def test_run(self, tmp_path, capsys):
        path = tmp_path / "big.cfg"
        path.write_text(f"field_bits = {HUGE_BITS}\n" + FIELDLESS_CFG, encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 2
        assert _one_error_line(capsys) == self.OVERSIZED

    def test_resume(self, election_cfg, tmp_path, capsys):
        snap, state = _snapshot_at_9(election_cfg, tmp_path, capsys)
        assert state["config"][:3] == ["p = 23", "q = 11", "g = 2"]
        state["config"][:3] = [f"field_bits = {HUGE_BITS}"]
        snap.write_text(json.dumps(state), encoding="utf-8")
        assert _resume_fails_with_one_line(snap, capsys) == self.OVERSIZED

    @pytest.mark.parametrize("trials", ["exhaustive", "5"])
    def test_attack(self, tmp_path, capsys, trials):
        path = tmp_path / "big.cfg"
        config = ATTACK_CFG.replace("p = 23\nq = 11\ng = 2", f"field_bits = {HUGE_BITS}")
        path.write_text(config.replace("exhaustive", trials), encoding="utf-8")
        assert main(["attack", "--config", str(path)]) == 2
        assert _one_error_line(capsys) == self.OVERSIZED

    def test_the_bound_itself_parses(self):
        config = parse_election_config(f"field_bits = {MAX_FIELD_BITS}\n" + FIELDLESS_CFG)
        assert config.field_bits == MAX_FIELD_BITS
        with pytest.raises(ConfigError, match="field_bits: must be at most"):
            parse_election_config(f"field_bits = {MAX_FIELD_BITS + 1}\n" + FIELDLESS_CFG)


class TestCountBounds:
    """Voter, server and candidate counts above MAX_VOTERS, MAX_SERVERS and
    MAX_CANDIDATES are config problems, collected with the others: no
    traceback, no endless run."""

    HUGE = "99999999999999999999"
    # the lines of ELECTION_CFG that each test replaces
    LINES = {"voters": "voters = 20", "servers": "servers = 3"}
    # the largest count a 64-bit field's subgroup bound lets through, far
    # past MAX_CANDIDATES: unbounded, the parser would build a label for each
    MANY = str(2**63 - 1)
    FIELD_64 = ELECTION_CFG.replace("p = 23\nq = 11\ng = 2", "field_bits = 64")
    ATTACK_64 = (
        ATTACK_CFG.replace("p = 23\nq = 11\ng = 2", "field_bits = 64")
        .replace("goal = targeted", "goal = any-valid")
        .replace("trials = exhaustive", "trials = 10\ncandidates = alpha,beta")
    )

    @pytest.mark.parametrize("key, bound", [("voters", MAX_VOTERS), ("servers", MAX_SERVERS)])
    def test_run(self, tmp_path, capsys, key, bound):
        path = tmp_path / "big.cfg"
        path.write_text(ELECTION_CFG.replace(self.LINES[key], f"{key} = {self.HUGE}"),
                        encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 2
        assert _one_error_line(capsys) == f"error: {key}: must be at most {bound}\n"

    @pytest.mark.parametrize("key, bound", [("voters", MAX_VOTERS), ("servers", MAX_SERVERS)])
    def test_resume(self, election_cfg, tmp_path, capsys, key, bound):
        snap, state = _snapshot_at_9(election_cfg, tmp_path, capsys)
        state["config"] = [
            f"{key} = {self.HUGE}" if line == self.LINES[key] else line
            for line in state["config"]
        ]
        snap.write_text(json.dumps(state), encoding="utf-8")
        assert _resume_fails_with_one_line(snap, capsys) == (
            f"error: {key}: must be at most {bound}\n"
        )

    def test_attack(self, tmp_path, capsys):
        path = tmp_path / "big.cfg"
        path.write_text(ATTACK_CFG.replace("servers = 3", f"servers = {self.HUGE}"),
                        encoding="utf-8")
        assert main(["attack", "--config", str(path)]) == 2
        assert _one_error_line(capsys) == f"error: servers: must be at most {MAX_SERVERS}\n"

    def test_problems_are_collected(self, tmp_path, capsys):
        path = tmp_path / "big.cfg"
        config = ELECTION_CFG.replace("voters = 20", f"voters = {MAX_VOTERS + 1}")
        path.write_text(config.replace("servers = 3", "servers = 1"), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 2
        assert _one_error_line(capsys) == (
            f"error: voters: must be at most {MAX_VOTERS}; servers: must be at least 2\n"
        )

    def test_the_bounds_themselves_parse(self):
        config = parse_election_config(
            ELECTION_CFG.replace("voters = 20", f"voters = {MAX_VOTERS}")
            .replace("servers = 3", f"servers = {MAX_SERVERS}")
        )
        assert (config.n_voters, config.k) == (MAX_VOTERS, MAX_SERVERS)

    def test_run_candidates(self, tmp_path, capsys):
        path = tmp_path / "many.cfg"
        path.write_text(self.FIELD_64.replace("alpha,beta", self.MANY), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 2
        assert _one_error_line(capsys) == f"error: candidates: must be at most {MAX_CANDIDATES}\n"

    def test_resume_candidates(self, election_cfg, tmp_path, capsys):
        snap, state = _snapshot_at_9(election_cfg, tmp_path, capsys)
        config = "\n".join(state["config"]).replace("p = 23\nq = 11\ng = 2", "field_bits = 64")
        state["config"] = config.replace("alpha,beta", self.MANY).splitlines()
        assert f"candidates = {self.MANY}" in state["config"]
        snap.write_text(json.dumps(state), encoding="utf-8")
        assert _resume_fails_with_one_line(snap, capsys) == (
            f"error: candidates: must be at most {MAX_CANDIDATES}\n"
        )

    def test_attack_candidates(self, tmp_path, capsys):
        path = tmp_path / "many.cfg"
        path.write_text(self.ATTACK_64.replace("alpha,beta", self.MANY), encoding="utf-8")
        assert main(["attack", "--config", str(path)]) == 2
        assert _one_error_line(capsys) == f"error: candidates: must be at most {MAX_CANDIDATES}\n"

    def test_candidate_problems_are_collected(self, tmp_path, capsys):
        path = tmp_path / "many.cfg"
        config = self.FIELD_64.replace("alpha,beta", str(MAX_CANDIDATES + 1))
        path.write_text(config.replace("servers = 3", "servers = 1"), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 2
        assert _one_error_line(capsys) == (
            f"error: servers: must be at least 2; candidates: must be at most {MAX_CANDIDATES}\n"
        )

    def test_the_candidate_bound_parses(self):
        parsers = ((parse_election_config, self.FIELD_64), (parse_attack_config, self.ATTACK_64))
        for parse, text in parsers:
            config = parse(text.replace("alpha,beta", str(MAX_CANDIDATES)))
            assert len(config.candidates) == MAX_CANDIDATES


class TestNonIntegerFieldBits:
    """A field_bits that is not an integer is one problem, not also a
    missing field."""

    def test_run(self, tmp_path, capsys):
        path = tmp_path / "abc.cfg"
        path.write_text("field_bits = abc\n" + FIELDLESS_CFG, encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 2
        assert _one_error_line(capsys) == "error: field_bits: not an integer: 'abc'\n"

    def test_attack(self, tmp_path, capsys):
        path = tmp_path / "abc.cfg"
        path.write_text(ATTACK_CFG.replace("p = 23\nq = 11\ng = 2", "field_bits = abc"),
                        encoding="utf-8")
        assert main(["attack", "--config", str(path)]) == 2
        assert _one_error_line(capsys) == "error: field_bits: not an integer: 'abc'\n"


class TestUsage:
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["dance"])
        assert exc.value.code == 2
