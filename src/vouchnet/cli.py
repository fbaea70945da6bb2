"""Command line front end: run scenarios, sweep grids, check wire costs."""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from pathlib import Path

from .crypto import SUPPORTED_WIDTHS
from .engine import run
from .errors import VouchnetError
from .metrics import bandwidth_table
from .scenario import Scenario
from .sweep import sweep


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = Scenario.from_file(args.scenario)
    out = Path(args.out) if args.out else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)  # a bad path fails before the run
    log, report = run(scenario, seed=args.seed)
    totals = report.totals()
    if out is not None:
        report.write(out)
        with open(out / "events.jsonl", "w", encoding="utf-8") as fh:
            for record in log.records:
                fh.write(json.dumps(record.to_json_dict(), sort_keys=True) + "\n")
    for key in sorted(totals):
        print(f"{key} {totals[key]}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = Scenario.from_file(args.scenario)
    with open(args.grid, "r", encoding="utf-8") as fh:
        grid = json.load(fh)
    if not isinstance(grid, dict):
        raise VouchnetError("grid file must be a JSON object of parameter lists")
    # The output file is opened first, so a bad path fails before any run,
    # and emptied only once the sweep has rows, so a refused sweep leaves
    # it as it was.
    with (open(args.out, "a", encoding="utf-8", newline="") if args.out
          else contextlib.nullcontext()) as out:
        rows = sweep(scenario, grid, seeds_per_point=args.reps)
        if out is not None:
            out.truncate(0)
        for fh in (out, sys.stdout):
            if fh is not None:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)
    return 0


def _cmd_verify_bandwidth(args: argparse.Namespace) -> int:
    if args.peers < 0:
        raise VouchnetError(f"--peers must not be negative, got {args.peers}")
    if args.width not in SUPPORTED_WIDTHS:
        raise VouchnetError(f"--width must be one of {SUPPORTED_WIDTHS}, got {args.width}")
    table = bandwidth_table(args.peers, args.width)
    print(f"# one retrieval, {args.peers} responders and {args.peers} "
          f"answering verifiers, {args.width}-bit units")
    print(f"reply_bits {table['reply_bits']}")
    print(f"mac_bits {table['mac_bits']}")
    print(f"verify_bits {table['verify_bits']}")
    print(f"total_bits {table['total_bits']}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    summary_path = Path(args.run_dir) / "summary.json"
    if not summary_path.exists():
        raise VouchnetError(f"no summary.json under {args.run_dir}")
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    if not isinstance(summary, dict):
        raise VouchnetError(f"{summary_path} must hold a JSON object")
    for key in sorted(summary):
        print(f"{key} {summary[key]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vouchnet",
        description="Community-vouched app distribution: protocol simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("scenario", help="scenario JSON file")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_run.add_argument("--out", default=None, help="directory for run artifacts")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a scenario across a parameter grid")
    p_sweep.add_argument("scenario", help="base scenario JSON file")
    p_sweep.add_argument("--grid", required=True,
                         help="JSON object mapping dotted parameter paths to value lists")
    p_sweep.add_argument("--reps", type=int, default=1,
                         help="seeded repetitions per grid point")
    p_sweep.add_argument("--out", default=None, help="CSV output path")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_bw = sub.add_parser("verify-bandwidth",
                          help="print the closed-form wire cost of one retrieval")
    p_bw.add_argument("--peers", type=int, default=10)
    p_bw.add_argument("--width", type=int, default=224)
    p_bw.set_defaults(func=_cmd_verify_bandwidth)

    p_rep = sub.add_parser("report", help="summarize a previous run directory")
    p_rep.add_argument("run_dir")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (VouchnetError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
