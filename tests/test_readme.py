"""The README's examples are what the code prints and runs."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from splitvote.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.DOTALL | re.MULTILINE)


def _block(starts_with: str) -> str:
    found = [body for _, body in BLOCKS if body.startswith(starts_with)]
    assert len(found) == 1, f"expected one README block starting {starts_with!r}"
    return found[0]


def _transcript(command: str) -> list[str]:
    """The lines the README shows a ``$ splitvote ...`` command printing."""
    return _block(f"$ {command}\n").splitlines()[1:]


@pytest.fixture
def demo_cfg(tmp_path):
    path = tmp_path / "demo.cfg"
    path.write_text(_block("# small demonstration election\n"), encoding="utf-8")
    return path


def test_demo_table_rows(demo_cfg, capsys):
    assert main(["run", "--config", str(demo_cfg), "--format", "table"]) == 0
    printed = capsys.readouterr().out.splitlines()
    shown = _transcript("splitvote run --config demo.cfg --format table")
    assert [row.split()[0] for row in printed] == [row.split()[0] for row in shown]
    # every row but the wall time is the same for every run of the config
    assert [row for row in printed if not row.startswith("wall time")] == [
        row for row in shown if not row.startswith("wall time")
    ]


def test_quoted_event_lines_are_in_the_demo_log(demo_cfg, tmp_path):
    events = tmp_path / "events.log"
    assert main(["run", "--config", str(demo_cfg), "--events", str(events)]) == 0
    log = set(events.read_text(encoding="utf-8").splitlines())
    quoted = [line for line in _block("000001 ").splitlines() if line != "..."]
    assert len(quoted) >= 5
    assert [line for line in quoted if line not in log] == []


def test_params_example(capsys):
    assert main(["params", "--bits", "24", "--seed", "4"]) == 0
    assert capsys.readouterr().out.splitlines() == _transcript("splitvote params --bits 24 --seed 4")


def test_params_example_through_python_m():
    # the module entry point, in a process of its own, as a user runs it
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "splitvote", "params", "--bits", "24", "--seed", "4"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == _transcript("splitvote params --bits 24 --seed 4")


@pytest.mark.parametrize("bits,seed", [(24, 4), (16, 2), (32, 7)])
def test_params_output_is_a_config_field(bits, seed, tmp_path, capsys):
    assert main(["params", "--bits", str(bits), "--seed", str(seed)]) == 0
    field = capsys.readouterr().out
    demo = _block("# small demonstration election\n").splitlines(keepends=True)
    rest = "".join(line for line in demo if line.split(" = ")[0] not in ("p", "q", "g", "seed"))
    printed = []
    for head in (field, f"field_bits = {bits}\n"):
        path = tmp_path / "election.cfg"
        path.write_text(head + rest + f"seed = {seed}\n", encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 0
        printed.append(capsys.readouterr().out)
    explicit, generated = (records.split("\n\n", 1) for records in printed)
    assert "p = " in explicit[0] and f"field_bits = {bits}" in generated[0]
    assert explicit[1] == generated[1]


def test_attack_example(tmp_path, capsys):
    config = [body for _, body in BLOCKS if "colluders = " in body]
    assert len(config) == 1
    path = tmp_path / "attack.cfg"
    path.write_text(config[0], encoding="utf-8")
    assert main(["attack", "--config", str(path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    shown = _transcript("splitvote attack --config attack.cfg")
    assert shown[0] == "..."
    assert printed[-len(shown) + 1:] == shown[1:]


def _attack_config(**lines) -> str:
    """The README's attack config, with the given keys' lines replaced."""
    [config] = [body for _, body in BLOCKS if "colluders = " in body]
    kept = [line for line in config.splitlines() if line.split(" = ")[0] not in lines]
    if "field_bits" in lines:
        kept = [line for line in kept if line.split(" = ")[0] not in ("p", "q", "g")]
    return "\n".join(kept + [f"{key} = {value}" for key, value in lines.items()]) + "\n"


def test_attack_monte_carlo_example(tmp_path, capsys):
    path = tmp_path / "attack-mc.cfg"
    path.write_text(_attack_config(trials=1000000), encoding="utf-8")
    assert main(["attack", "--config", str(path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    shown = _transcript("splitvote attack --config attack-mc.cfg")
    assert shown[0] == "..."
    assert printed[-len(shown) + 1:] == shown[1:]


def test_attack_config_on_the_loop_path(tmp_path, capsys):
    # p - 1 >= 256, so the trials take the per-draw loop, not the byte path
    path = tmp_path / "attack-12.cfg"
    path.write_text(_attack_config(field_bits=12, trials=100000), encoding="utf-8")
    assert main(["attack", "--config", str(path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[printed.index("[field]") + 1] == "p = 4007"
    assert printed[-1] == ("mode=monte-carlo goal=targeted successes=22 trials=100000 "
                           "estimate=11/50000 asymptotic=1/4007 stderr=4.690e-05")


def test_snapshot_example(demo_cfg, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", "demo.cfg", "--snapshot", "state.json", "--snapshot-at", "6"]) == 0
    shown = _block("$ splitvote run --config demo.cfg --snapshot state.json --snapshot-at 6\n")
    assert capsys.readouterr().out.splitlines() == shown.splitlines()[1:2]
    assert main(["resume", "--snapshot", "state.json", "--format", "table"]) == 0


def test_library_use_block_runs():
    blocks = [body for lang, body in BLOCKS if lang == "python"]
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
