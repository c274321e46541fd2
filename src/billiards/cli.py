"""Command-line interface.

    billiard run <config.json> [--out DIR] [--grid N]
    billiard verify <config.json> [--corrupt-curvature]
    billiard catalog [--json]

Exit codes: 0 all checks passed, 1 a check (or adjoint residual) failed,
2 more than half of the trajectories terminated singular before half the
horizon, 3 configuration error (or an output directory that cannot be written).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .catalog import CATALOG
from .config import load_config
from .errors import (
    ConfigError,
    DomainConstructionError,
    InfeasibleCovectorError,
    InvalidStateError,
)
from .runner import EXIT_CONFIG, run_experiment, summary_text, writing_output

_CONFIG_ERRORS = (ConfigError, DomainConstructionError, InfeasibleCovectorError,
                  InvalidStateError, ValueError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="billiard",
        description="Event-driven semi-dispersing billiards with covector transport")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run trajectories, write CSV series and a JSON summary")
    p_run.add_argument("config", help="experiment config (JSON)")
    p_run.add_argument("--out", help="output directory (overrides config)")
    p_run.add_argument("--grid", type=int, help="interior samples per free segment")

    p_verify = sub.add_parser("verify", help="run checks plus the adjoint identity, JSON report only")
    p_verify.add_argument("config", help="experiment config (JSON)")
    p_verify.add_argument("--out", help="also write the report into this directory")
    p_verify.add_argument("--grid", type=int, help="interior samples per free segment")
    p_verify.add_argument("--corrupt-curvature", action="store_true",
                          help="fault injection: double the curvature operator on the "
                               "covector side only (must be detected as a failure)")

    p_cat = sub.add_parser("catalog", help="list the built-in domain catalog")
    p_cat.add_argument("--json", action="store_true", help="emit the catalog as JSON")
    return parser


def _load(args):
    cfg = load_config(args.config)
    if args.grid is not None:
        if args.grid < 0:
            raise ConfigError(f"--grid: must be at least 0, got {args.grid}")
        cfg.grid_interior = args.grid
    return cfg


def cmd_run(args) -> int:
    cfg = _load(args)
    summary, code = run_experiment(cfg, mode="run", out_dir=args.out)
    ens = summary["ensemble"]
    print(f"{summary['n_trajectories']} trajectories, "
          f"{ens['check_failures']} check failures, "
          f"terminations {ens['terminations']}")
    return code


def cmd_verify(args) -> int:
    cfg = _load(args)
    summary, code = run_experiment(cfg, mode="verify", out_dir=args.out,
                                   corrupt_curvature=args.corrupt_curvature)
    text = summary_text(summary)
    sys.stdout.write(text)
    if args.out:
        out = Path(args.out)
        with writing_output(out):
            out.mkdir(parents=True, exist_ok=True)
            (out / "verify_report.json").write_text(text, encoding="utf-8")
    return code


def cmd_catalog(args) -> int:
    if args.json:
        sys.stdout.write(summary_text(CATALOG))
        return 0
    for entry in CATALOG:
        print(f"{entry['name']}: {entry['description']}")
        print(f"  domain: {json.dumps(entry['domain'])}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_catalog(args)
    except _CONFIG_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
