"""Experiment execution: trajectories -> transport -> checks -> CSV/JSON.

Each trajectory runs the full pipeline independently (sampling, flow,
covector transport, verification checks) and writes its own CSV.
Trajectories run one after another in index order, so outputs depend only
on the config and its seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .diagnostics import (
    lyapunov_Q,
    sample_covector_uniform,
    sample_covector_with_Q_bound,
    series_records,
    verify_growth,
    verify_monotonicity,
)
from .dynamics import TERMINATION_DEGENERATE, TERMINATION_GRAZING, PhasePoint, flow
from .errors import ConfigError
from .geometry import Domain
from .transport import Covector, adjoint_residual, transport_covector
from .tolerances import ADJOINT_RESIDUAL_FAIL

CSV_COLUMNS = ("t", "segment_index", "event_flag", "Q", "norm_w", "norm_z",
               "norm_n", "lambda", "bound_prop5", "bound_theorem")
# record fields written to the CSV columns above, in order
_CSV_FIELDS = ("t", "segment_index", "event_flag", "Q", "norm_w", "norm_z",
               "norm_n", "lam", "bound_prop5", "bound_theorem")
_CSV_ROW = "%.17g,%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\r\n"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SINGULAR = 2
EXIT_CONFIG = 3


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        return ""
    return f"{x:.17g}"


def sample_initial_conditions(domain: Domain, count: int, seed: int,
                              c0: float | None = None,
                              rng_margin: float = 10.0) -> list[tuple[PhasePoint, Covector]]:
    """Deterministic seeded initial conditions: uniform positions outside the
    scatterers, uniform unit velocities, and unit covectors (Q-bounded when
    ``c0`` is given)."""
    out = []
    margin = rng_margin * domain.eps_surface
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        scale = domain.length_scale
        if hasattr(domain.ambient, "sides"):
            highs = np.asarray(domain.ambient.sides)
        else:
            highs = np.full(domain.d, scale)
        for _ in range(100_000):
            q = rng.uniform(0.0, 1.0, domain.d) * highs
            if domain.contains(q, slack=-margin):
                break
        else:
            raise ConfigError("could not sample a starting point outside the scatterers")
        v = rng.standard_normal(domain.d)
        v /= np.linalg.norm(v)
        if c0 is None:
            n0 = sample_covector_uniform(v, rng)
        else:
            n0 = sample_covector_with_Q_bound(v, c0, rng)
        out.append((PhasePoint(q, v), n0))
    return out


@dataclass(eq=False)
class TrajectoryOutcome:
    index: int
    termination: str
    event_count: int
    t_end: float
    min_cos_phi: float
    final_Q: float
    final_lambda: float
    checks: list
    adjoint: float | None = None
    records: np.recarray | None = None

    def as_dict(self) -> dict:
        d = {"index": self.index, "termination": self.termination,
             "event_count": self.event_count, "t_end": _json_float(self.t_end),
             "min_cos_phi": _json_float(self.min_cos_phi),
             "final_Q": _json_float(self.final_Q),
             "final_lambda": _json_float(self.final_lambda),
             "checks": [c.as_dict() for c in self.checks]}
        if self.adjoint is not None:
            d["adjoint_residual"] = _json_float(self.adjoint)
        return d


def _json_float(x):
    if x is None or (isinstance(x, float) and not math.isfinite(x)):
        return None
    return x


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float):
        return _json_float(obj)
    return obj


def run_trajectory(cfg: ExperimentConfig, index: int, x0: PhasePoint, n0: Covector,
                   want_records: bool, want_adjoint: bool,
                   corrupt_curvature: bool = False) -> TrajectoryOutcome:
    traj = flow(cfg.domain, x0, cfg.horizon, max_events=cfg.max_events,
                eps_graze=cfg.eps_graze)
    series = transport_covector(traj, n0, eps_graze=cfg.eps_graze)
    checks = []
    if "monotonicity" in cfg.checks:
        checks.extend(verify_monotonicity(series, cfg.tol_check,
                                          interior=cfg.grid_interior).checks)
    if "growth" in cfg.checks:
        checks.extend(verify_growth(series, cfg.c0, cfg.tol_check,
                                    interior=cfg.grid_interior).checks)
    residual = None
    if want_adjoint:
        scale = 2.0 if corrupt_curvature else 1.0
        residual = adjoint_residual(traj, n0, curvature_scale_covector=scale,
                                    eps_graze=cfg.eps_graze)
    records = series_records(series, interior=cfg.grid_interior, c0=cfg.c0) \
        if want_records else None
    n_end = series.covector_at(series.t_end)
    return TrajectoryOutcome(
        index=index, termination=traj.termination, event_count=traj.event_count,
        t_end=traj.t_end, min_cos_phi=traj.min_cos_phi(),
        final_Q=lyapunov_Q(n_end), final_lambda=n_end.norm() / series.n0_norm,
        checks=checks, adjoint=residual, records=records)


def _write_csv(path: Path, records: np.recarray) -> None:
    """RFC-4180 CSV (comma, CRLF) of the sampled records; empty non-finite fields."""
    finite = np.ones(len(records), dtype=bool)
    for name in _CSV_FIELDS:
        finite &= np.isfinite(records[name])
    rows = zip(*(records[name].tolist() for name in _CSV_FIELDS))
    lines = [_CSV_ROW % row if ok else ",".join(map(_fmt, row)) + "\r\n"
             for row, ok in zip(rows, finite.tolist())]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        fh.writelines(lines)


def run_experiment(cfg: ExperimentConfig, mode: str = "run",
                   out_dir: str | Path | None = None,
                   corrupt_curvature: bool = False) -> tuple[dict, int]:
    """Run every configured trajectory; returns (summary, exit_code).

    ``mode="run"`` writes one CSV per trajectory plus a JSON summary into
    ``out_dir``; ``mode="verify"`` skips the CSVs and always computes the
    adjoint residual, counting residuals above the failure threshold as
    check failures.
    """
    want_adjoint = mode == "verify" or "adjoint" in cfg.checks
    emit_csv = mode == "run"
    if cfg.explicit is not None:
        initial = [(PhasePoint(cfg.explicit.q, cfg.explicit.v),
                    Covector(cfg.explicit.z, cfg.explicit.w))]
    else:
        s = cfg.sampler
        initial = sample_initial_conditions(cfg.domain, s.count, s.seed, s.c0)

    outcomes = [run_trajectory(cfg, i, x0, n0, want_records=emit_csv,
                               want_adjoint=want_adjoint,
                               corrupt_curvature=corrupt_curvature)
                for i, (x0, n0) in enumerate(initial)]

    if emit_csv:
        out = Path(out_dir if out_dir is not None else (cfg.out_dir or "out"))
        out.mkdir(parents=True, exist_ok=True)
        for o in outcomes:
            _write_csv(out / f"trajectory_{o.index:04d}.csv", o.records)

    summary = _summarize(cfg, mode, outcomes)
    exit_code = _exit_code(cfg, outcomes)
    summary["exit_code"] = exit_code

    if emit_csv:
        report_path = Path(out_dir if out_dir is not None else (cfg.out_dir or "out"))
        with open(report_path / "summary.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    return summary, exit_code


def _summarize(cfg: ExperimentConfig, mode: str, outcomes) -> dict:
    terminations: dict[str, int] = {}
    failures = 0
    worst_margins: dict[str, dict] = {}
    worst_residual = None
    singular_early = _singular_early(cfg, outcomes)
    for o in outcomes:
        terminations[o.termination] = terminations.get(o.termination, 0) + 1
        for c in o.checks:
            if c.status == "fail":
                failures += 1
            if c.margin is not None:
                prev = worst_margins.get(c.name)
                if prev is None or c.margin < prev["margin"]:
                    worst_margins[c.name] = {"margin": _json_float(c.margin),
                                             "trajectory": o.index,
                                             "t": _json_float(c.t_worst)}
        if o.adjoint is not None:
            if worst_residual is None or o.adjoint > worst_residual:
                worst_residual = o.adjoint
            if o.adjoint > ADJOINT_RESIDUAL_FAIL:
                failures += 1
    ensemble = {
        "terminations": terminations,
        "singular_early": singular_early,
        "singular_early_fraction": singular_early / max(1, len(outcomes)),
        "check_failures": failures,
        "worst_margins": worst_margins,
    }
    if worst_residual is not None:
        ensemble["worst_adjoint_residual"] = _json_float(worst_residual)
        ensemble["adjoint_threshold"] = ADJOINT_RESIDUAL_FAIL
    return _sanitize({
        "schema": "billiard-summary-v1",
        "mode": mode,
        "domain": cfg.domain_spec,
        "horizon": cfg.horizon,
        "checks": list(cfg.checks) + (["adjoint"] if mode == "verify" and
                                      "adjoint" not in cfg.checks else []),
        "tolerances": {"tol_check": cfg.tol_check, "eps_graze": cfg.eps_graze},
        "n_trajectories": len(outcomes),
        "trajectories": [o.as_dict() for o in outcomes],
        "ensemble": ensemble,
    })


def _singular_early(cfg: ExperimentConfig, outcomes) -> int:
    """Trajectories that ended grazing or degenerate before half the horizon."""
    return sum(1 for o in outcomes
               if o.termination in (TERMINATION_GRAZING, TERMINATION_DEGENERATE)
               and o.t_end < 0.5 * cfg.horizon)


def _exit_code(cfg: ExperimentConfig, outcomes) -> int:
    failures = sum(1 for o in outcomes for c in o.checks if c.status == "fail")
    failures += sum(1 for o in outcomes
                    if o.adjoint is not None and o.adjoint > ADJOINT_RESIDUAL_FAIL)
    if failures:
        return EXIT_CHECK_FAILED
    if _singular_early(cfg, outcomes) > 0.5 * len(outcomes):
        return EXIT_SINGULAR
    return EXIT_OK
