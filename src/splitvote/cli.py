"""Command line front end: params, run, attack, resume.

Exit codes: 0 success, 2 bad config or parameters, 3 a computation refused
as out of its feasible regime, 4 file system trouble.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

from .errors import ConfigError, RegimeError, VotingError
from .harness import (
    ElectionRun,
    emit_params,
    parse_attack_config,
    parse_election_config,
    run_attack,
)

RECORDS = "records"
TABLE = "table"


def _write_or_print(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _load_config(args: argparse.Namespace, parse):
    """The ``--config`` file parsed, with ``--seed`` applied when given."""
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError([f"config is not valid UTF-8: {exc}"]) from None
    config = parse(text)
    return config if args.seed is None else replace(config, seed=args.seed)


def _add_report_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument(
        "--format",
        choices=(RECORDS, TABLE),
        help="canonical records (default) or a human table",
    )


def cmd_params(args: argparse.Namespace) -> int:
    _write_or_print(emit_params(args.bits, args.seed), args.out)
    return 0


def _render(report, fmt: str) -> str:
    return report.render_table() if fmt == TABLE else report.render_records()


def _finish_run(run: ElectionRun, duration: float, args: argparse.Namespace) -> int:
    run.finish()
    report = run.report(duration)
    _write_or_print(_render(report, args.format), args.out)
    if args.events:
        with Path(args.events).open("w", encoding="utf-8") as events:
            run.bus.write(events)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args, parse_election_config)
    start = perf_counter()
    run = ElectionRun(config)
    if args.snapshot_at is not None:
        run.run_schedule(upto=args.snapshot_at)
        Path(args.snapshot).write_text(run.snapshot_json() + "\n", encoding="utf-8")
        print(
            f"snapshot after {run.cursor} of {len(run.schedule)} casts -> {args.snapshot}"
        )
        return 0
    run.run_schedule()
    return _finish_run(run, perf_counter() - start, args)


def cmd_resume(args: argparse.Namespace) -> int:
    start = perf_counter()
    try:
        state = json.loads(Path(args.snapshot_file).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        # undecodable bytes, bad JSON, over-long integers, runaway nesting
        raise ConfigError([f"snapshot is not valid UTF-8 JSON: {exc}"]) from None
    run = ElectionRun.resume(state)
    run.run_schedule()
    return _finish_run(run, perf_counter() - start, args)


def cmd_attack(args: argparse.Namespace) -> int:
    report = run_attack(_load_config(args, parse_attack_config))
    _write_or_print(_render(report, args.format), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitvote",
        description="simulate split-ballot elections and measure attacks on them",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    params = commands.add_parser("params", help="generate field parameters")
    params.add_argument("--bits", type=int, required=True, help="bit length of the modulus")
    params.add_argument("--seed", type=int, default=0)
    params.add_argument("--out", help="write the p, q and g config lines here")
    params.set_defaults(handler=cmd_params)

    run = commands.add_parser("run", help="run one election from a config file")
    run.add_argument("--config", required=True, help="election config file")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    _add_report_flags(run)
    run.add_argument("--events", help="write the full message log here")
    run.add_argument("--snapshot", help="write the --snapshot-at state snapshot here")
    run.add_argument(
        "--snapshot-at",
        type=int,
        default=None,
        metavar="N",
        help="stop after N casts and snapshot instead of finishing",
    )
    run.set_defaults(handler=cmd_run)

    attack = commands.add_parser("attack", help="measure a collusion attack")
    attack.add_argument("--config", required=True, help="attack config file")
    attack.add_argument("--seed", type=int, default=None, help="override the config seed")
    _add_report_flags(attack)
    attack.set_defaults(handler=cmd_attack)

    resume = commands.add_parser("resume", help="continue a snapshotted run")
    resume.add_argument("--snapshot", dest="snapshot_file", required=True)
    _add_report_flags(resume)
    resume.add_argument("--events", help="write the full message log here")
    resume.set_defaults(handler=cmd_resume)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        if (args.snapshot is None) != (args.snapshot_at is None):
            parser.error("--snapshot and --snapshot-at go together")
        if args.snapshot_at is not None and (args.format or args.out or args.events):
            parser.error("--snapshot-at stops before any report or event log, "
                         "so --format, --out and --events go with resume")
        if args.snapshot_at is not None and args.snapshot_at < 0:
            parser.error("--snapshot-at must not be negative")
    try:
        return args.handler(args)
    except RegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except VotingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
