"""Lyapunov-function diagnostics and verification of the transport laws.

The scalar ``Q(n) = <z, w>`` decays monotonically along transported
covectors: linearly with slope ``-|z|^2`` on free segments and by a
nonnegative curvature term at collisions.  When ``Q`` starts negative this
forces ``|w|`` (and with it the hypersurface expansion factor
``lambda_t = |n_t| / |n_0|``) to grow at least linearly.  The verifiers in
this module check those statements on sampled series, with relative margins,
and report per-check pass/fail results.

Each free segment is sampled at its endpoints plus ``interior`` evenly
spaced points.  A series, or a :class:`SeriesGroup` of them, is sampled
once per interior count, in one pass over its columns (``t0``, ``t1``,
``z``, ``w0``) into ``(segments, samples)`` arrays that its checks and
records share.  The checks are array expressions over consecutive samples
of the flattened grid, over segment rows, or over the per-collision columns
(``q_drop``), with the pairs across two series of a group masked, and one
first-worst reduction per series; ``series_records`` returns the samples of
one series as a record array of columns.  One series is a group of one.
The array forms reproduce the per-sample loops they replaced bit for bit.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dynamics import _Records
from .errors import ConfigError, InfeasibleCovectorError, SeriesRangeError
from .geometry import row_dot
from .tolerances import DEFAULT_INTERIOR_SAMPLES, DEFAULT_TOL_CHECK
from .transport import Covector, TransportSeries, _complement_basis

W_CONTINUITY_TOL = 1e-12
RATIO_SENTINEL_FLOOR = 1e-300

CHECK_Q_NONINCREASING = "Q_nonincreasing"
CHECK_W_CONTINUITY = "w_continuity"
CHECK_Q_COLLISION_DROP = "Q_collision_drop"
CHECK_Q_STRICT_DECREASE = "Q_strict_decrease"
CHECK_W_STRICT_INCREASE = "w_strict_increase"
CHECK_RATIO_NONINCREASING = "w_over_Q_nonincreasing"
CHECK_W_LINEAR_GROWTH = "w_linear_growth"
CHECK_LAMBDA_LINEAR_GROWTH = "lambda_linear_growth"


def lyapunov_Q(n: Covector) -> float:
    """Infinitesimal Lyapunov function ``<z, w>``.

    Scaling the covector by ``s`` scales the value by ``s**2``; its sign is
    scale-invariant.
    """
    return float(n.z @ n.w)


def expansion_factor(series: TransportSeries, t: float) -> float:
    """Hypersurface volume expansion ``|n_t| / |n_0|`` at time ``t``; a time
    outside the series' range raises its ``SeriesRangeError``."""
    return series.covector_at(t).norm() / series.n0_norm


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

# Sampled diagnostics, one row per sample: the CSV fields plus |w|/|Q|.
# event_flag is 0 for interior samples, 1 pre-collision, 2 post-collision.
RECORD_DTYPE = np.dtype([
    ("t", float), ("segment_index", np.int64), ("event_flag", np.int64),
    ("Q", float), ("norm_w", float), ("norm_z", float), ("norm_n", float),
    ("lam", float), ("ratio_wQ", float), ("bound_prop5", float), ("bound_theorem", float),
])


class SeriesGroup:
    """Covector series sampled and checked together, in one array pass.

    The series' columns follow one another: ``t0``, ``t1`` ``(S,)``, ``z``,
    ``w0`` ``(S, d)`` and ``q_drop`` ``(E,)``, series ``f`` holding rows
    ``offsets[f]`` to ``offsets[f + 1]``; ``segments`` lists the rows'
    segments, as ``TransportSeries.segments`` does for one series.  Sample
    grids are kept in ``sample_grids``, keyed by interior sample count; a
    group of one shares that dict with its series.
    """

    def __init__(self, series: Sequence[TransportSeries]):
        self.series = list(series)
        self.offsets = np.cumsum([0] + [len(s.t0) for s in self.series])
        for name in ("t0", "t1", "z", "w0", "q_drop"):
            setattr(self, name, np.concatenate([getattr(s, name) for s in self.series]))
        self.sample_grids = self.series[0].sample_grids if len(self.series) == 1 else {}

    @property
    def segments(self) -> Sequence:
        return _Records([s.trajectory for s in self.series], 1)


@dataclass(eq=False)
class _SampledSeries:
    """Sample grid of a series or a group: row ``k`` holds segment ``k``'s samples.

    ``t``, ``Q``, ``nw`` (``|w|``) and ``nn`` (``|n|``) are
    ``(segments, interior + 2)`` arrays; ``nz`` (``|z|``) holds one value
    per segment.
    """

    t: np.ndarray
    Q: np.ndarray
    nw: np.ndarray
    nz: np.ndarray
    nn: np.ndarray

    def rows(self, a: int, b: int) -> "_SampledSeries":
        return _SampledSeries(*(x[a:b] for x in vars(self).values()))


def _linspace_rows(t0: np.ndarray, t1: np.ndarray, m: int) -> np.ndarray:
    """Row ``k`` equals ``np.linspace(t0[k], t1[k], m)`` bit for bit.

    ``np.linspace`` over all rows at once would switch every row to its
    zero-step formula as soon as one segment has zero length.
    """
    delta = t1 - t0
    ramp = np.arange(m, dtype=float)
    step = delta / (m - 1)
    t = np.where((step == 0.0)[:, None], (ramp / (m - 1)) * delta[:, None],
                 ramp * step[:, None])
    t += t0[:, None]
    t[:, -1] = t1
    return t


def _event_rows(offsets: np.ndarray) -> np.ndarray:
    """Mask of the rows that end at a collision: all but each series' last."""
    rows = np.ones(offsets[-1], dtype=bool)
    rows[offsets[1:] - 1] = False
    return rows


def _range_error() -> SeriesRangeError:
    # exponential expansion exhausted the double range; a silent pass on
    # inf/nan samples could mask a genuine violation
    return SeriesRangeError("covector magnitudes exceed the double-precision range; "
                            "shorten the horizon")


def _sample(group: SeriesGroup, interior: int) -> tuple[_SampledSeries, np.ndarray]:
    """The sample grid of a group and, per series, whether its magnitudes
    (``Q``, ``|n|`` and so ``|w|`` and ``|z|``, and ``q_drop``) stay in the
    double range.  A grid whose series all do is computed once: it is kept
    on the group and, as its rows, on each series (``sample_grids``), with
    read-only arrays.  Every operation acts per row or elementwise, so each
    series has the bits of its grid alone."""
    if interior in group.sample_grids:
        return group.sample_grids[interior], np.ones(len(group.series), dtype=bool)
    t0, Z, o = group.t0, group.z, group.offsets
    tt = _linspace_rows(t0, group.t1, interior + 2)
    with np.errstate(over="ignore", invalid="ignore"):
        dw = group.w0[:, None, :] - (tt - t0[:, None])[:, :, None] * Z[:, None, :]
        z2 = row_dot(Z, Z)     # per-row BLAS dot (np.einsum sums in another order)
        q = (dw @ Z[:, :, None])[:, :, 0]        # per-segment gemv, bit for bit
        nw = np.linalg.norm(dw, axis=2)
        nn = np.sqrt(nw * nw + z2[:, None])
    finite = np.isfinite(q).all(axis=1) & np.isfinite(nn).all(axis=1)
    finite[_event_rows(o)] &= np.isfinite(group.q_drop)
    ok = np.logical_and.reduceat(finite, o[:-1])
    s = _SampledSeries(tt, q, nw, np.sqrt(z2), nn)
    if ok.all():
        for a in vars(s).values():
            a.flags.writeable = False
        for series, a, b in zip(group.series, o[:-1].tolist(), o[1:].tolist()):
            series.sample_grids[interior] = s.rows(a, b)
        group.sample_grids[interior] = s
    return s, ok


def series_records(series: TransportSeries, interior: int = DEFAULT_INTERIOR_SAMPLES,
                   c0: float | None = None) -> np.recarray:
    """Sampled diagnostics along a series, event rows in pre/post pairs.

    One row per sample in time order, with the fields of
    :data:`RECORD_DTYPE`; ``records.t`` is a column, ``records[i].t`` a value.
    """
    if interior not in series.sample_grids:
        if not _sample(SeriesGroup([series]), interior)[1][0]:
            raise _range_error()
    s = series.sample_grids[interior]
    w0 = float(np.linalg.norm(series.n0.w))
    q0 = lyapunov_Q(series.n0)
    S, m = s.t.shape
    rec = np.recarray(S * m, dtype=RECORD_DTYPE)
    t = s.t.ravel()
    rec.t = t
    rec.segment_index = np.repeat(np.arange(S), m)
    flag = np.zeros((S, m), dtype=np.int64)
    flag[1:, 0] = 2
    flag[:-1, -1] = 1
    rec.event_flag = flag.ravel()
    rec.Q = s.Q.ravel()
    rec.norm_w = s.nw.ravel()
    rec.norm_z = np.repeat(s.nz, m)
    rec.norm_n = s.nn.ravel()
    rec.lam = rec.norm_n / series.n0_norm
    absq = np.abs(rec.Q)
    big = absq > RATIO_SENTINEL_FLOOR
    rec.ratio_wQ = np.divide(rec.norm_w, absq, out=np.full(S * m, math.inf), where=big)
    rec.bound_prop5 = w0 + abs(q0) * t / w0 if w0 > 0.0 else math.inf
    rec.bound_theorem = 1.0 + c0 * t if c0 is not None else math.nan
    return rec


# ---------------------------------------------------------------------------
# Verification reports
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class CheckResult:
    """Outcome of one verification check.

    ``margin`` is the worst slack, relative to the magnitude of the compared
    quantities: nonnegative means the property held with room to spare, and
    a check passes when ``margin >= -tol``.
    """

    name: str
    status: str                  # "pass" | "fail" | "skipped"
    margin: float | None = None
    t_worst: float | None = None

    def as_dict(self) -> dict:
        return {"name": self.name, "status": self.status,
                "margin": self.margin, "t_worst": self.t_worst}


@dataclass(eq=False)
class VerificationReport:
    """The checks of one series.  In a group pass, a series that cannot be
    verified gets no checks and, as ``error``, the exception that verifying
    it alone raises."""

    checks: list[CheckResult]
    error: Exception | None = None

    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _as_group(series) -> SeriesGroup:
    if isinstance(series, SeriesGroup):
        return series
    return SeriesGroup([series] if isinstance(series, TransportSeries) else series)


def _answer(series, reports: list[VerificationReport]):
    """The report of one series (raising its error), or the group's list."""
    if not isinstance(series, TransportSeries):
        return reports
    if reports[0].error is not None:
        raise reports[0].error
    return reports[0]


def _result(name: str, tol: float, margin: float, t_worst: float) -> CheckResult:
    status = "pass" if margin >= -tol else "fail"
    return CheckResult(name, status, margin, t_worst)


def _first_min(x: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per run ``x[starts[k]:starts[k + 1]]`` (the last run ends with ``x``),
    the index that ``np.argmin`` of the run gives: its first smallest value,
    or its first nan.  No run may be empty."""
    low = np.repeat(np.minimum.reduceat(x, starts), np.diff(starts, append=x.size))
    hits = np.flatnonzero((x == low) | np.isnan(x))
    return hits[np.searchsorted(hits, starts)]


def _worsts(margins: np.ndarray, times: np.ndarray, starts: np.ndarray,
            default=(0.0, 0.0)) -> list:
    """Per run, the first smallest margin and its time, or ``default`` when
    that margin is not finite."""
    i = _first_min(margins, starts)
    return [(m, t) if math.isfinite(m) else default
            for m, t in zip(margins[i].tolist(), times[i].tolist())]


def _across(margins: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Margins of consecutive entries, ``(n - 1,)``, padded to ``(n,)``: the
    entry at each series' last entry, a pair across two series, is +inf."""
    out = np.append(margins, np.inf)
    out[ends] = np.inf
    return out


def _pairwise_max(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``max(a, b, RATIO_SENTINEL_FLOOR)`` elementwise."""
    return np.maximum(np.maximum(a, b), RATIO_SENTINEL_FLOOR)


def _squares(a: np.ndarray) -> np.ndarray:
    """``x ** 2`` of each value, libm ``pow``: not always ``x * x`` or ``np.power``."""
    return np.fromiter(map(math.pow, a.tolist(), itertools.repeat(2.0)), float, a.size)


def verify_monotonicity(series, tol: float = DEFAULT_TOL_CHECK,
                        interior: int = DEFAULT_INTERIOR_SAMPLES):
    """Check the monotonicity laws of the transported covector.

    Always: Q non-increasing over the whole sample grid, |w| continuous at
    collisions (relative jump below ``W_CONTINUITY_TOL``), and the drop of Q
    across each collision equal to its closed form (``series.q_drop``).
    When ``Q(n_0) < 0`` additionally: Q strictly decreasing on segments by
    the exact decrement, |w| strictly increasing at the guaranteed rate, and
    |w|/|Q| globally non-increasing.  The strict checks are skipped (not
    failed) when ``Q(n_0) >= 0``.

    Grid checks compare consecutive samples of the flattened grid, event
    jumps included; the reported time is that of the later sample of the
    first worst pair.

    ``series`` is one series, answered with its report, or a sequence or
    :class:`SeriesGroup` of them, answered with the list of their reports,
    computed in one pass over the group's grid.
    """
    group = _as_group(series)
    s, ok = _sample(group, interior)
    o = group.offsets
    m = s.t.shape[1]
    runs, ends, rows, last = o[:-1] * m, o[1:] * m - 1, o[:-1], o[1:] - 1
    q0 = [lyapunov_Q(x.n0) for x in group.series]
    t, q, nw = s.t.ravel(), s.Q.ravel(), s.nw.ravel()
    t_next = np.append(t[1:], 0.0)
    t0, t1 = s.t[:, 0], s.t[:, -1]
    with np.errstate(all="ignore"):
        # (a) Q non-increasing across the full grid, including event jumps
        scale = np.maximum(s.nz[:, None] * s.nw, RATIO_SENTINEL_FLOOR).ravel()
        worst_a = _worsts(_across((q[:-1] - q[1:]) / _pairwise_max(scale[:-1], scale[1:]),
                                  ends), t_next, runs)

        # (b) |w| continuity at events, read off the segment endpoints themselves
        w_pre = group.w0[:-1] - (t0[1:] - t0[:-1])[:, None] * group.z[:-1]
        a = np.sqrt(row_dot(w_pre, w_pre))
        b = np.sqrt(row_dot(group.w0[1:], group.w0[1:]))
        rel = np.abs(a - b) / _pairwise_max(a, b)
        worst_b = _worsts(_across(W_CONTINUITY_TOL - rel, last), np.append(t0[1:], 0.0), rows,
                          (W_CONTINUITY_TOL, 0.0))

        # (c) the drop of Q across each collision, read off the grid, equals the
        # closed form the transport recorded; relative to |z| |w| before it
        closed = np.zeros(len(t0))
        closed[_event_rows(o)] = group.q_drop
        closed = closed[:-1]
        actual = s.Q[:-1, -1] - s.Q[1:, 0]
        sc = np.maximum(_pairwise_max(np.abs(actual), np.abs(closed)),
                        s.nz[:-1] * s.nw[:-1, -1])
        worst_c = _worsts(_across(-np.abs(actual - closed) / sc, last), t1, rows)

        if any(x < 0.0 for x in q0):
            # (d) strict decrease on segments: exact decrement dt * |z|^2
            dt = t1 - t0
            z2 = _squares(s.nz)
            drop = s.Q[:, 0] - s.Q[:, -1]
            sc = np.maximum(s.nz * np.max(s.nw, axis=1), RATIO_SENTINEL_FLOOR)
            worst_d = _worsts(np.where(dt > 0.0, (drop - dt * z2) / sc, np.inf), t1, rows)

            # (e) |w| strictly increasing at the guaranteed minimum rate
            w2 = _squares(nw)
            rate = np.repeat([2.0 * abs(x) for x in q0], np.diff(runs, append=t.size))
            m_e = (w2[1:] - w2[:-1] - rate[1:] * (t[1:] - t[:-1])) \
                / _pairwise_max(w2[1:], w2[:-1])
            worst_e = _worsts(_across(m_e, ends), t_next, runs)

            # (f) |w| / |Q| non-increasing across the full grid
            r = nw / np.maximum(np.abs(q), RATIO_SENTINEL_FLOOR)
            worst_f = _worsts(_across((r[:-1] - r[1:]) / _pairwise_max(r[:-1], r[1:]), ends),
                              t_next, runs)

    reports = []
    for k in range(len(q0)):
        if not ok[k]:
            reports.append(VerificationReport([], _range_error()))
            continue
        checks = [_result(CHECK_Q_NONINCREASING, tol, *worst_a[k]),
                  _result(CHECK_W_CONTINUITY, 0.0, *worst_b[k]),
                  _result(CHECK_Q_COLLISION_DROP, tol, *worst_c[k])]
        if q0[k] >= 0.0:
            checks += [CheckResult(CHECK_Q_STRICT_DECREASE, "skipped"),
                       CheckResult(CHECK_W_STRICT_INCREASE, "skipped"),
                       CheckResult(CHECK_RATIO_NONINCREASING, "skipped")]
        else:
            checks += [_result(CHECK_Q_STRICT_DECREASE, tol, *worst_d[k]),
                       _result(CHECK_W_STRICT_INCREASE, tol, *worst_e[k]),
                       _result(CHECK_RATIO_NONINCREASING, tol, *worst_f[k])]
        reports.append(VerificationReport(checks))
    return _answer(series, reports)


def verify_growth(series, c0: float, tol: float = DEFAULT_TOL_CHECK,
                  interior: int = DEFAULT_INTERIOR_SAMPLES):
    """Check the linear growth bounds for a unit covector with ``Q(n_0) <= -c0``.

    ``|w_t| >= |w_0| + |Q(n_0)| t / |w_0|`` at every sample, and
    ``lambda_t >= 1 + c0 t`` at samples with ``t >= 1/c0``.  Precondition
    violations raise :class:`ConfigError` rather than failing a check.
    ``series`` is one series or a group, as for :func:`verify_monotonicity`.
    """
    if not c0 > 0.0:
        raise ConfigError("growth verification needs c0 > 0")
    group = _as_group(series)
    q0 = [lyapunov_Q(x.n0) for x in group.series]
    n0 = [x.n0_norm for x in group.series]
    w0 = [float(np.linalg.norm(x.n0.w)) for x in group.series]

    s, ok = _sample(group, interior)
    m = s.t.shape[1]
    runs = group.offsets[:-1] * m
    counts = np.diff(runs, append=s.t.size)
    t, nw = s.t.ravel(), s.nw.ravel()
    with np.errstate(all="ignore"):
        w0s = np.repeat(w0, counts)
        bound5 = w0s + np.repeat(np.abs(q0), counts) * t / w0s
        m5 = (nw - bound5) / np.maximum(bound5, nw)
        i = _first_min(m5, runs)
        worst_g = list(zip(m5[i].tolist(), t[i].tolist()))

        boundt = 1.0 + c0 * t
        m_h = (s.nn.ravel() / np.repeat(n0, counts) - boundt) / boundt
        worst_h = _worsts(np.where(t >= 1.0 / c0 - 1e-12, m_h, np.inf), t, runs, None)

    reports = []
    for k in range(len(q0)):
        if q0[k] > -c0 + 1e-12:
            error = ConfigError(f"growth verification needs Q(n0) <= -c0, got Q(n0) = {q0[k]}")
        elif abs(n0[k] - 1.0) > 1e-9:
            error = ConfigError("growth verification needs a unit initial covector")
        elif not ok[k]:
            error = _range_error()
        else:
            reports.append(VerificationReport([
                _result(CHECK_W_LINEAR_GROWTH, tol, *worst_g[k]),
                _result(CHECK_LAMBDA_LINEAR_GROWTH, tol, *worst_h[k]) if worst_h[k]
                else CheckResult(CHECK_LAMBDA_LINEAR_GROWTH, "skipped")]))
            continue
        reports.append(VerificationReport([], error))
    return _answer(series, reports)


def q_decrement_breakdown(series: TransportSeries) -> dict:
    """Book-keeping of the total Lyapunov decrease along a series.

    The drop of Q from start to end must equal the sum of the per-segment
    decrements ``dt |z|^2`` and the per-collision closed-form decrements.
    """
    z, w0, dt = series.z, series.w0, series.t1 - series.t0
    q_start = float(z[0] @ w0[0])
    q_end = float(z[-1] @ (w0[-1] - dt[-1] * z[-1]))
    free = (dt * row_dot(z, z)).tolist()
    collisions = series.q_drop.tolist()
    total = q_start - q_end
    return {"total_drop": total, "free_drops": free, "collision_drops": collisions,
            "residual": total - (sum(free) + sum(collisions))}


# ---------------------------------------------------------------------------
# Covector sampling
# ---------------------------------------------------------------------------

def _unit_in_span(basis: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    while True:
        coeffs = rng.standard_normal(basis.shape[0])
        x = basis.T @ coeffs
        n = np.linalg.norm(x)
        if n > 1e-12:
            return x / n


def sample_covector_uniform(v: np.ndarray, rng: np.random.Generator) -> Covector:
    """Unit covector with independent uniform directions in ``v^perp``.

    The component norms are fixed at ``1/sqrt(2)`` each, so the Lyapunov
    value lies in ``[-1/2, 1/2]`` with the extremes at (anti)parallel
    components.
    """
    return _covector_in_span(_complement_basis(np.asarray(v, dtype=float)), rng)


def sample_covector_with_Q_bound(v: np.ndarray, c0: float, rng_seed) -> Covector:
    """Unit covector in ``v^perp`` with ``Q <= -c0``, deterministic per seed.

    Rejection sampling from the rotation-invariant product-of-spheres
    distribution; ``c0`` must lie in ``(0, 1/2]`` (a unit covector has
    ``|Q| <= |z| |w| <= 1/2``).  At ``c0 = 1/2`` the equality case
    ``w = -z`` is forced up to rotation.
    """
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) \
        else np.random.default_rng(rng_seed)
    return _covector_in_span(_complement_basis(np.asarray(v, dtype=float)), rng, c0)


def _covector_in_span(basis: np.ndarray, rng: np.random.Generator,
                     c0: float | None = None) -> Covector:
    """The covector of :func:`sample_covector_uniform` (``c0`` None) or of
    :func:`sample_covector_with_Q_bound`, drawn from ``rng`` in the span of
    the row-orthonormal ``basis`` of ``v^perp``."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    if c0 is None:
        return Covector(inv_sqrt2 * _unit_in_span(basis, rng),
                        inv_sqrt2 * _unit_in_span(basis, rng))
    if not 0.0 < c0 <= 0.5 + 1e-12:
        raise InfeasibleCovectorError(
            f"c0 = {c0} unattainable: a unit covector has |Q| <= 1/2")
    if c0 >= 0.5 - 1e-12:
        e = _unit_in_span(basis, rng)
        return Covector(inv_sqrt2 * e, -inv_sqrt2 * e)
    for _ in range(100_000):
        z = inv_sqrt2 * _unit_in_span(basis, rng)
        w = inv_sqrt2 * _unit_in_span(basis, rng)
        if float(z @ w) <= -c0:
            return Covector(z, w)
    raise InfeasibleCovectorError(
        f"rejection sampling did not reach Q <= -{c0}; bound too close to 1/2?")
