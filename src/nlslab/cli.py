"""Command-line front end: run / sweep / verify / list.

Exit codes: 0 all verdicts pass, 1 any verdict fails, 2 execution error; a sweep
exits with its worst run's code.
"""
from __future__ import annotations

import argparse
import os
import sys

from .errors import NlsLabError
from .experiments import (EXPERIMENT_NAMES, ExperimentConfig, default_config, run, sweep,
                          verify)


def _load_config(args) -> ExperimentConfig:
    if args.config:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise NlsLabError(f"cannot read config: {exc}") from exc
        cfg = ExperimentConfig.from_json(text)
        if args.experiment and cfg.name != args.experiment:
            raise NlsLabError(
                f"config names experiment {cfg.name!r}, command line says "
                f"{args.experiment!r}")
        return cfg
    if not args.experiment:
        raise NlsLabError("give an experiment name or --config PATH")
    return default_config(args.experiment)


def _exit_code(status: str, passed: bool) -> int:
    """2 if the run did not complete, else 1 if a verdict failed, else 0."""
    return 2 if status != "complete" else 0 if passed else 1


def _print_verdicts(verdicts):
    for v in verdicts:
        print(f"{'PASS' if v['passed'] else 'FAIL'}  {v['check']}: {v['detail']}")


def _cmd_run(args) -> int:
    record = run(_load_config(args), args.out)
    if record.status != "complete":
        print(f"ERROR ({record.stage}): {record.error}", file=sys.stderr)
    else:
        _print_verdicts(record.verdicts)
        print(f"record: {os.path.join(args.out, 'record.json')}")
    return _exit_code(record.status, record.passed)


def _cmd_sweep(args) -> int:
    records = sweep(_load_config(args), args.axis, args.values, args.out)
    for v, rec in zip(args.values, records):
        outcome = "PASS" if rec.passed else "FAIL"
        if rec.status != "complete":
            outcome = f"ERROR ({rec.stage}) {rec.error}"
        print(f"{args.axis}={v!r}: {outcome}")
    return max(_exit_code(rec.status, rec.passed) for rec in records)


def _cmd_verify(args) -> int:
    summary = verify(args.out)
    if summary["status"] != "complete":
        print(f"ERROR: stored run is {summary['status']}: {summary.get('error')}",
              file=sys.stderr)
    else:
        _print_verdicts(summary["verdicts"])
        for name in summary["tampered"]:
            print(f"TAMPERED  {name}: stored hash does not match file")
        for check in summary["mismatches"]:
            print(f"MISMATCH  {check}: stored verdict differs from recomputation")
    return _exit_code(summary["status"], summary["ok"])


def _cmd_list(args) -> int:
    for name in EXPERIMENT_NAMES:
        cfg = default_config(name)
        print(f"{name}: sigmas={list(cfg.sigmas)}, N={cfg.n}, L={cfg.half_length!r}, "
              f"dt={cfg.dt!r}, t={cfg.times()[0]!r}..{cfg.times()[-1]!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="nlslab",
                                description="Simulation lab for defocusing "
                                            "power-law and logarithmic Schrodinger flows")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("experiment", nargs="?", choices=EXPERIMENT_NAMES,
                        help="experiment name (or give --config)")
        sp.add_argument("--config", help="path to a JSON config")
        sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("run", help="execute one experiment")
    common(sp)
    sp.set_defaults(func=_cmd_run)

    sp = sub.add_parser("sweep", help="vary one parameter across runs")
    common(sp)
    sp.add_argument("--axis", required=True, choices=["sigma", "dt", "N", "L"])
    sp.add_argument("--values", required=True, nargs="+", type=float)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("verify", help="re-check a stored run from its CSVs")
    sp.add_argument("--out", required=True, help="directory holding record.json")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("list", help="list experiments and default scales")
    sp.set_defaults(func=_cmd_list)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NlsLabError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
