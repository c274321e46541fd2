"""Experiment execution: trajectories -> transport -> checks -> CSV/JSON.

The ensemble runs in lockstep groups (``dynamics.flight_groups``, sized by
the byte budget ``budget.PASS_BYTES``: 260 trajectories on 2-d Sinai, 124 on
6 hard disks): per group one ``flow`` call and one covector transport, which
does the adjoint check when the run wants it.  The checks then run once per
check group, balanced groups of the group's series whose sample grids the
budget fits (``budget.groups``).  The CSV rows of a check group are built
from its sample grid and formatted in passes that run across the group's
files; each trajectory writes its CSV, in index order, as soon as its entry
exists, taking its file's bytes from those passes.  Each trajectory and
series is the one its start alone gives, so outputs depend only on the
config and its seed.
"""

from __future__ import annotations

import bisect
import itertools
import math
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import budget
from .config import ExperimentConfig
from .diagnostics import (
    SeriesGroup,
    VerificationReport,
    _covector_in_span,
    _range_error,
    _record_slices,
    _sample,
    lyapunov_Q,
    series_records,
    verify_growth,
    verify_monotonicity,
)
from .dynamics import (
    TERMINATION_DEGENERATE,
    TERMINATION_GRAZING,
    PhasePoint,
    flight_groups,
    flow,
)
from .errors import ConfigError
from .geometry import Box, Domain
from .transport import (
    Covector,
    TransportSeries,
    _complement_basis,
    adjoint_residual,
    transport_covector,
)
from .tolerances import ADJOINT_RESIDUAL_FAIL

CSV_COLUMNS = ("t", "segment_index", "event_flag", "Q", "norm_w", "norm_z",
               "norm_n", "lambda", "bound_prop5", "bound_theorem")
# record fields written to the CSV columns above, in order
_CSV_FIELDS = ("t", "segment_index", "event_flag", "Q", "norm_w", "norm_z",
               "norm_n", "lam", "bound_prop5", "bound_theorem")
# the header line; its CRLF comes with the first row, as each row's does
_CSV_HEADER = ",".join(CSV_COLUMNS).encode()

# run builds no record array per trajectory (its CSVs come from
# _csv_files); series_records stays bound here because the benchmark's span
# tracer looks up runner.series_records
_TRACED_ONLY = (series_records,)

# sampled starting points keep this many eps_surface from every scatterer;
# a flight group gives up after START_DRAWS rejected draws in a row (a round
# that accepts a start ends the row)
START_MARGIN_FACTOR = 10.0
START_DRAWS = 100_000

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SINGULAR = 2
EXIT_CONFIG = 3


@contextmanager
def writing_output(out: Path):
    """Raise an ``OSError`` from making or writing the output directory
    ``out`` as a :class:`ConfigError`, as ``load_config`` does for a config."""
    try:
        yield
    except OSError as e:
        raise ConfigError(f"{out}: cannot write output: {e}") from e


def sample_initial_conditions(domain: Domain, count: int, seed: int,
                              c0: float | None = None) -> list[tuple[PhasePoint, Covector]]:
    """Deterministic seeded initial conditions: uniform positions outside the
    scatterers, uniform unit velocities, and unit covectors (Q-bounded when
    ``c0`` is given).  Start ``i`` draws from its own generator, seeded
    ``[seed, i]``: its position, by rejection, and velocity, then, after one
    QR call for the complement bases of all velocities, its covector.  The
    starts of a flight group draw their positions in lockstep rounds: one
    draw per waiting start, one membership test per round."""
    margin = START_MARGIN_FACTOR * domain.eps_surface
    if isinstance(domain.ambient, Box):
        highs = np.asarray(domain.ambient.sides)
    else:
        highs = np.full(domain.d, domain.length_scale)
    rngs = [np.random.default_rng([seed, i]) for i in range(count)]
    q = np.empty((count, domain.d))
    for group in flight_groups(domain, count):
        waiting = np.array(group)
        rejected = 0
        while waiting.size:
            drawn = np.array([rngs[i].random(domain.d) for i in waiting]) * highs
            ok = domain.contains(drawn, slack=-margin)
            rejected = 0 if ok.any() else rejected + waiting.size
            if rejected >= START_DRAWS:
                raise ConfigError("could not sample a starting point outside the scatterers")
            q[waiting[ok]] = drawn[ok]
            waiting = waiting[~ok]
    starts = []
    for point, rng in zip(q, rngs):
        v = rng.standard_normal(domain.d)
        starts.append(PhasePoint(point, v / np.linalg.norm(v)))
    bases = _complement_basis(np.array([x.v for x in starts]))
    return [(x, _covector_in_span(basis, rng, c0)) for x, rng, basis in zip(starts, rngs, bases)]


def _sanitize(obj):
    """JSON-ready copy of a summary: a non-finite float becomes ``None``."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def summary_text(summary: dict | list) -> str:
    """``summary.json``, the verify report or ``catalog --json``: indented
    JSON with sorted keys and one trailing newline.

    The bytes of ``json.dumps(summary, indent=2, sort_keys=True,
    allow_nan=False)``, which with an indent runs the pure-Python encoder:
    strings go through the C ``encode_basestring_ascii``, numbers through
    ``float.__repr__`` and ``int.__repr__``.  A non-finite float raises
    ``ValueError``, and any other type, or a key that is not a string,
    ``TypeError``."""
    chunks: list[str] = []
    _json(summary, "\n", chunks.append)
    chunks.append("\n")
    return "".join(chunks)


def _json(o, newline: str, put) -> None:
    """Write ``o`` through ``put``, its nested lines opening with ``newline``
    and two more spaces, in the order of ``json``'s type tests."""
    if isinstance(o, str):
        put(encode_basestring_ascii(o))
    elif o is None:
        put("null")
    elif o is True:
        put("true")
    elif o is False:
        put("false")
    elif isinstance(o, int):
        put(int.__repr__(o))
    elif isinstance(o, float):
        if not math.isfinite(o):
            raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
        put(float.__repr__(o))
    elif isinstance(o, (list, tuple, dict)):
        if not o:
            put("{}" if isinstance(o, dict) else "[]")
            return
        inner = newline + "  "
        sep = "," + inner
        if isinstance(o, dict):
            put("{")
            for k, (key, value) in enumerate(sorted(o.items())):
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                put((sep if k else inner) + encode_basestring_ascii(key) + ": ")
                _json(value, inner, put)
            put(newline + "}")
        else:
            put("[")
            for k, value in enumerate(o):
                put(sep if k else inner)
                _json(value, inner, put)
            put(newline + "]")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def run_trajectory(cfg: ExperimentConfig, index: int, series: TransportSeries,
                   reports: list[VerificationReport], csv: tuple | None,
                   residual: float | None = None) -> dict:
    """The summary entry and (with ``csv``, a path and the pieces of its
    rows, see :func:`_write_csv`) the CSV of one transported trajectory,
    given its check ``reports`` from its group's pass.  Raises the first
    report's error, as checking the trajectory alone does.  The entry of the
    summary's ``trajectories`` list has ``adjoint_residual`` only when
    ``residual`` is given."""
    traj = series.trajectory
    checks = []
    for report in reports:
        if report.error is not None:
            raise report.error
        checks += report.checks
    n_end = series.covector_at(series.t_end)
    entry = {"index": index, "termination": traj.termination,
             "event_count": traj.event_count, "t_end": traj.t_end,
             "min_cos_phi": traj.min_cos_phi(), "final_Q": lyapunov_Q(n_end),
             "final_lambda": n_end.norm() / series.n0_norm,
             "checks": [c.as_dict() for c in checks]}
    if residual is not None:
        entry["adjoint_residual"] = residual
    if csv is not None:
        _write_csv(*csv)
    return entry


def _check_bytes(series: TransportSeries, interior: int) -> int:
    """Bytes one series allocates in a check pass: per sample of its grid
    (``interior + 2`` a segment) the ``d``-wide ``w`` and its temporary and
    a dozen scalars (the grid's ``t``, ``Q``, ``|w|`` and ``|n|`` and the
    checks' temporaries), and per segment its ``z``, ``w0``, ``t0``, ``t1``
    and ``q_drop`` in the group's columns."""
    d = series.z.shape[1]
    return 8 * len(series.t0) * ((interior + 2) * (2 * d + 12) + 2 * d + 3)


def _check_and_write(cfg: ExperimentConfig, indices: range, series: list[TransportSeries],
                     residuals: list, out: Path | None) -> list[dict]:
    """The summary entries of a flight group's series, in order, and (with
    ``out``) their CSVs.  The checks run once per check group
    (``budget.groups`` of :func:`_check_bytes`), taken off the list, so that
    each group, with its series and grids, is dropped once its entries
    exist."""
    entries = []
    index = iter(zip(indices, residuals))
    sizes = [_check_bytes(s, cfg.grid_interior) for s in series]
    for n in [len(g) for g in budget.groups(sizes)]:
        checked = SeriesGroup(series[:n])
        del series[:n]
        reports = []
        if "monotonicity" in cfg.checks:
            reports.append(verify_monotonicity(checked, cfg.tol_check,
                                               interior=cfg.grid_interior))
        if "growth" in cfg.checks:
            reports.append(verify_growth(checked, cfg.c0, cfg.tol_check,
                                         interior=cfg.grid_interior))
        files = None if out is None else _csv_files(checked, cfg.grid_interior, cfg.c0)
        for k, s in enumerate(checked.series):
            i, residual = next(index)
            csv = None if out is None else (out / f"trajectory_{i:04d}.csv", next(files))
            entries.append(run_trajectory(cfg, i, s, [r[k] for r in reports], csv, residual))
        # the last series holds a view of the group's grids
        del s, files
    return entries


def _csv_files(group: SeriesGroup, interior: int, c0: float | None):
    """Per series of a check group, in order, the pieces of its CSV rows
    (:func:`_write_csv`), made as they are read.  The rows of the whole
    group are built from its sample grid and formatted in passes of as many
    rows as the byte budget fits, running on across the files, and each
    pass's bytes are cut where a file starts; a pass is made when the file
    it starts in reads it.  A series whose magnitudes leave the double range
    raises its error when its file is first read."""
    # imported here: a run that writes no CSV (verify) neither compiles nor
    # loads the formatter
    from .csvformat import csv_rows, pass_rows

    s, ok = _sample(group, interior)
    m = s.t.shape[1]
    # ends[k]: the row after the last of series k
    ends = [m * int(e) for e in group.offsets[1:]]

    def pieces():
        for a, columns in _record_slices(group.series, s, c0, pass_rows(len(_CSV_FIELDS))):
            k = bisect.bisect_right(ends, a)
            e = bisect.bisect_left(ends, a + len(columns["t"]), k)
            cuts = [x - a for x in ends[k:e]]
            yield from zip(itertools.count(k),
                           csv_rows([columns[name] for name in _CSV_FIELDS], cuts))

    # groupby reads a pass when a file's pieces run into the next file's,
    # and keeps that piece for the next file
    files = itertools.groupby(pieces(), key=itemgetter(0))

    def file(k: int):
        if not ok[k]:
            raise _range_error()
        for _, piece in next(files)[1]:
            yield piece

    for k in range(len(group.series)):
        yield file(k)


def _write_csv(path: Path, pieces) -> None:
    """RFC-4180 CSV (comma, CRLF) of one trajectory: the header, its rows
    from ``pieces`` (bytes, each row after a CRLF) and the CRLF that ends
    the last row.  The first piece is read before the file is opened, so a
    series whose rows fail leaves no file, and each piece goes to the file
    as it is read, so no file is held whole."""
    pieces = iter(pieces)
    first = next(pieces, b"")
    with writing_output(path.parent), open(path, "wb") as fh:
        fh.write(_CSV_HEADER + first)
        fh.writelines(pieces)
        fh.write(b"\r\n")


def run_experiment(cfg: ExperimentConfig, mode: str = "run",
                   out_dir: str | Path | None = None,
                   corrupt_curvature: bool = False) -> tuple[dict, int]:
    """Run every configured trajectory; returns (summary, exit_code).

    ``mode="run"`` writes one CSV per trajectory, as soon as that
    trajectory is done, plus a JSON summary into ``out_dir``, last: a run
    that raises leaves no summary.  ``mode="verify"`` skips the CSVs and
    always computes the adjoint residual, counting residuals above the
    failure threshold as check failures.
    """
    want_adjoint = mode == "verify" or "adjoint" in cfg.checks
    emit_csv = mode == "run"
    if cfg.explicit is not None:
        initial = [(PhasePoint(cfg.explicit.q, cfg.explicit.v),
                    Covector(cfg.explicit.z, cfg.explicit.w))]
    else:
        s = cfg.sampler
        initial = sample_initial_conditions(cfg.domain, s.count, s.seed, s.c0)

    if emit_csv:
        out = Path(out_dir if out_dir is not None else (cfg.out_dir or "out"))
        with writing_output(out):
            out.mkdir(parents=True, exist_ok=True)
    starts = [x0 for x0, _ in initial]
    # the fault hook corrupts only the covector the adjoint check sees
    adjoint = (2.0 if corrupt_curvature else 1.0) if want_adjoint else None
    entries = []
    for group in flight_groups(cfg.domain, len(starts)):
        trajectories = flow(cfg.domain, starts[group.start:group.stop], cfg.horizon,
                            max_events=cfg.max_events, eps_graze=cfg.eps_graze)
        n0 = [n for _, n in initial[group.start:group.stop]]
        series = transport_covector(trajectories, n0, adjoint=adjoint)
        residuals = adjoint_residual(series) if want_adjoint else [None] * len(group)
        del trajectories
        entries += _check_and_write(cfg, group, series, residuals, out if emit_csv else None)

    summary = _summarize(cfg, mode, entries)
    exit_code = _exit_code(summary["ensemble"], len(entries))
    summary["exit_code"] = exit_code

    if emit_csv:
        with writing_output(out):
            (out / "summary.json").write_text(summary_text(summary), encoding="utf-8")
    return summary, exit_code


def _summarize(cfg: ExperimentConfig, mode: str, entries: list[dict]) -> dict:
    terminations: dict[str, int] = {}
    failures = 0
    worst_margins: dict[str, dict] = {}
    worst_residual = None
    # trajectories that ended grazing or degenerate before half the horizon
    singular_early = sum(1 for e in entries
                         if e["termination"] in (TERMINATION_GRAZING, TERMINATION_DEGENERATE)
                         and e["t_end"] < 0.5 * cfg.horizon)
    for e in entries:
        terminations[e["termination"]] = terminations.get(e["termination"], 0) + 1
        for c in e["checks"]:
            if c["status"] == "fail":
                failures += 1
            if c["margin"] is not None:
                prev = worst_margins.get(c["name"])
                if prev is None or c["margin"] < prev["margin"]:
                    worst_margins[c["name"]] = {"margin": c["margin"], "trajectory": e["index"],
                                                "t": c["t_worst"]}
        residual = e.get("adjoint_residual")
        if residual is not None:
            if worst_residual is None or residual > worst_residual:
                worst_residual = residual
            if residual > ADJOINT_RESIDUAL_FAIL:
                failures += 1
    ensemble = {
        "terminations": terminations,
        "singular_early": singular_early,
        "singular_early_fraction": singular_early / max(1, len(entries)),
        "check_failures": failures,
        "worst_margins": worst_margins,
    }
    if worst_residual is not None:
        ensemble["worst_adjoint_residual"] = worst_residual
        ensemble["adjoint_threshold"] = ADJOINT_RESIDUAL_FAIL
    return _sanitize({
        "schema": "billiard-summary-v1",
        "mode": mode,
        "domain": cfg.domain_spec,
        "horizon": cfg.horizon,
        "checks": list(cfg.checks) + (["adjoint"] if mode == "verify" and
                                      "adjoint" not in cfg.checks else []),
        "tolerances": {"tol_check": cfg.tol_check, "eps_graze": cfg.eps_graze},
        "n_trajectories": len(entries),
        "trajectories": entries,
        "ensemble": ensemble,
    })


def _exit_code(ensemble: dict, n_trajectories: int) -> int:
    """Exit code from the ensemble summary's failure and singularity counts."""
    if ensemble["check_failures"]:
        return EXIT_CHECK_FAILED
    if ensemble["singular_early"] > 0.5 * n_trajectories:
        return EXIT_SINGULAR
    return EXIT_OK
