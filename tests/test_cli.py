"""Exit codes, file outputs, and the snapshot/resume flow of the CLI."""

import hashlib
import json

import pytest

from splitvote import harness
from splitvote.cli import main
from splitvote.harness import parse_election_config, stream
from splitvote.modmath import generate_params

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
            ("alpha,beta", "a b,beta", "candidates: label 'a b' holds whitespace, ':' or '='"),
            ("alpha,beta", "alpha,x:1", "candidates: label 'x:1' holds whitespace, ':' or '='"),
            ("alpha,beta", "a=b,beta", "candidates: label 'a=b' holds whitespace, ':' or '='"),
        ],
        ids=["empty-value", "voters-not-integer", "fraction-not-number", "one-candidate",
             "empty-label", "duplicate-label", "label-space", "label-colon", "label-equals"],
    )
    def test_config_problem_exits_2(self, tmp_path, capsys, line, edited, complaint):
        path = tmp_path / "bad.cfg"
        assert line in ELECTION_CFG
        path.write_text(ELECTION_CFG.replace(line, edited), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 2
        assert _one_error_line(capsys) == f"error: {complaint}\n"


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

    # written by format-3 code for the README's demo election at cast 6,
    # before registration confirmed the ballot sheet in one batched round
    FORMAT_3_SNAPSHOT = (
        '{"config":["p = 23","q = 11","g = 2","voters = 12","servers = 3",'
        '"candidates = alpha,beta","recast_fraction = 0.25","incomplete_fraction = 0.0",'
        '"booth = key-copy","seed = 9"],"cursor":6,"format":3,"kind":"splitvote-snapshot",'
        '"sha256":"be191f11a14426214f8bdea135004f8a99ced9b7a0854f15157c3cc7ee86695e"}'
    )

    def test_format_3_snapshot_is_refused_by_its_format(self, tmp_path, capsys):
        snap = tmp_path / "state.json"
        snap.write_text(self.FORMAT_3_SNAPSHOT, encoding="utf-8")
        err = _resume_fails_with_one_line(snap, capsys)
        assert "format 3 is not supported" in err and "rerun with --snapshot-at" in err
        # replaying its config today cannot reach the digest it recorded
        relabelled = json.loads(self.FORMAT_3_SNAPSHOT) | {"format": harness.SNAPSHOT_FORMAT}
        snap.write_text(json.dumps(relabelled), encoding="utf-8")
        assert "digest mismatch" in _resume_fails_with_one_line(snap, capsys)

    # written by format-4 code for the same election and cursor, before the
    # credential joined the sheet's batched round and a recast stopped
    # being verified again
    FORMAT_4_SNAPSHOT = (
        '{"config":["p = 23","q = 11","g = 2","voters = 12","servers = 3",'
        '"candidates = alpha,beta","recast_fraction = 0.25","incomplete_fraction = 0.0",'
        '"booth = key-copy","seed = 9"],"cursor":6,"format":4,"kind":"splitvote-snapshot",'
        '"sha256":"286f63b35b696755e58e187e230870b1b8ebec08f9cab68299228c84a7b3440f"}'
    )

    def test_format_4_snapshot_is_refused_by_its_format(self, tmp_path, capsys):
        snap = tmp_path / "state.json"
        snap.write_text(self.FORMAT_4_SNAPSHOT, encoding="utf-8")
        err = _resume_fails_with_one_line(snap, capsys)
        assert "format 4 is not supported" in err and "rerun with --snapshot-at" in err
        # replaying its config today cannot reach the digest it recorded
        relabelled = json.loads(self.FORMAT_4_SNAPSHOT) | {"format": harness.SNAPSHOT_FORMAT}
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
             "candidates: label 'a b' holds whitespace, ':' or '='"),
        ],
        ids=["missing-colluders", "colluder-not-integer", "colluder-out-of-range",
             "duplicate-colluder", "zero-trials", "unknown-key", "targeted-candidates",
             "label-space"],
    )
    def test_config_problem_exits_2(self, tmp_path, capsys, line, edited, complaint):
        path = tmp_path / "bad.cfg"
        assert line in ATTACK_CFG
        path.write_text(ATTACK_CFG.replace(line, edited), encoding="utf-8")
        assert main(["attack", "--config", str(path)]) == 2
        assert _one_error_line(capsys) == f"error: {complaint}\n"

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


class TestUsage:
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["dance"])
        assert exc.value.code == 2
