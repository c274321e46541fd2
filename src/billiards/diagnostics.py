"""Lyapunov-function diagnostics and verification of the transport laws.

The scalar ``Q(n) = <z, w>`` decays monotonically along transported
covectors: linearly with slope ``-|z|^2`` on free segments and by a
nonnegative curvature term at collisions.  When ``Q`` starts negative this
forces ``|w|`` (and with it the hypersurface expansion factor
``lambda_t = |n_t| / |n_0|``) to grow at least linearly.  The verifiers in
this module check those statements on sampled series, with relative margins,
and report per-check pass/fail results.

Each free segment is sampled at its endpoints plus ``interior`` evenly
spaced points.  A series is sampled in one pass into ``(segments, samples)``
arrays; the checks are array expressions over consecutive samples of the
flattened grid (or over segment rows), and ``series_records`` returns the
samples as a record array of columns.  The array forms reproduce the
per-sample loops they replaced bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InfeasibleCovectorError, SeriesRangeError
from .transport import Covector, TransportSeries

DEFAULT_INTERIOR_SAMPLES = 8
W_CONTINUITY_TOL = 1e-12
RATIO_SENTINEL_FLOOR = 1e-300

CHECK_Q_NONINCREASING = "Q_nonincreasing"
CHECK_W_CONTINUITY = "w_continuity"
CHECK_Z_SEGMENT_CONSTANT = "z_segment_constant"
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
    """Hypersurface volume expansion ``|n_t| / |n_0|`` at time ``t``."""
    if not 0.0 <= t <= series.t_end + 1e-12:
        raise SeriesRangeError(f"time {t} outside transported range [0, {series.t_end}]")
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


@dataclass(eq=False)
class _SampledSeries:
    """Sample grid of a series: row ``k`` holds segment ``k``'s samples.

    ``t``, ``Q``, ``nw`` (``|w|``) and ``nn`` (``|n|``) are
    ``(segments, interior + 2)`` arrays; ``nz`` (``|z|``) holds one value
    per segment, ``z`` and ``w0`` one ``(d,)`` row per segment.
    """

    t: np.ndarray
    Q: np.ndarray
    nw: np.ndarray
    nz: np.ndarray
    nn: np.ndarray
    z: np.ndarray
    w0: np.ndarray


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


def _dots(x: np.ndarray) -> np.ndarray:
    """Row-wise ``x[k] @ x[k]``, bit for bit the per-row BLAS dot product
    (``np.einsum`` sums in another order)."""
    return (x[:, None, :] @ x[:, :, None])[:, 0, 0]


def _sample(series: TransportSeries, interior: int) -> _SampledSeries:
    segs = series.segments
    t0 = np.array([seg.t0 for seg in segs])
    t1 = np.array([seg.t1 for seg in segs])
    Z = np.array([seg.z for seg in segs])
    W0 = np.array([seg.w0 for seg in segs])
    tt = _linspace_rows(t0, t1, interior + 2)
    with np.errstate(over="ignore", invalid="ignore"):
        dw = W0[:, None, :] - (tt - t0[:, None])[:, :, None] * Z[:, None, :]
        z2 = _dots(Z)
        q = (dw @ Z[:, :, None])[:, :, 0]        # per-segment gemv, bit for bit
        nw = np.linalg.norm(dw, axis=2)
        nn = np.sqrt(nw * nw + z2[:, None])
    if not (np.all(np.isfinite(z2)) and np.all(np.isfinite(q))):
        # exponential expansion exhausted the double range; a silent pass on
        # inf/nan samples could mask a genuine violation
        raise SeriesRangeError(
            "covector magnitudes exceed the double-precision range; "
            "shorten the horizon")
    return _SampledSeries(tt, q, nw, np.sqrt(z2), nn, Z, W0)


def series_records(series: TransportSeries, interior: int = DEFAULT_INTERIOR_SAMPLES,
                   c0: float | None = None) -> np.recarray:
    """Sampled diagnostics along a series, event rows in pre/post pairs.

    One row per sample in time order, with the fields of
    :data:`RECORD_DTYPE`; ``records.t`` is a column, ``records[i].t`` a value.
    """
    s = _sample(series, interior)
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
    checks: list[CheckResult]
    tolerances: dict
    trajectory_meta: dict = field(default_factory=dict)

    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {"checks": [c.as_dict() for c in self.checks],
                "tolerances": dict(self.tolerances),
                "trajectory": dict(self.trajectory_meta)}


def _result(name: str, tol: float, margin: float, t_worst: float) -> CheckResult:
    status = "pass" if margin >= -tol else "fail"
    return CheckResult(name, status, margin, t_worst)


def _meta(series: TransportSeries) -> dict:
    traj = series.trajectory
    return {"event_count": traj.event_count, "termination": traj.termination,
            "t_end": traj.t_end}


def _worst(margins: np.ndarray, times: np.ndarray) -> tuple[float, float] | None:
    """First smallest margin and its time; ``None`` when there is no finite one."""
    if margins.size:
        i = int(np.argmin(margins))
        if np.isfinite(margins[i]):
            return float(margins[i]), float(times[i])
    return None


def _pairwise_max(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``max(a, b, RATIO_SENTINEL_FLOOR)`` elementwise."""
    return np.maximum(np.maximum(a, b), RATIO_SENTINEL_FLOOR)


def verify_monotonicity(series: TransportSeries, tol: float = 1e-9,
                        w_continuity_tol: float = W_CONTINUITY_TOL,
                        interior: int = DEFAULT_INTERIOR_SAMPLES) -> VerificationReport:
    """Check the monotonicity laws of the transported covector.

    Always: Q non-increasing over the whole sample grid, |w| continuous at
    collisions (relative jump below ``w_continuity_tol``), |z| constant on
    free segments.  When ``Q(n_0) < 0`` additionally: Q strictly decreasing
    on segments by the exact decrement, |w| strictly increasing at the
    guaranteed rate, and |w|/|Q| globally non-increasing.  The strict checks
    are skipped (not failed) when ``Q(n_0) >= 0``.

    Grid checks compare consecutive samples of the flattened grid, event
    jumps included; the reported time is that of the later sample of the
    first worst pair.
    """
    s = _sample(series, interior)
    q0 = lyapunov_Q(series.n0)
    segs = series.segments
    t = s.t.ravel()
    q = s.Q.ravel()
    nw = s.nw.ravel()

    # (a) Q non-increasing across the full grid, including event jumps
    scale = np.maximum(s.nz[:, None] * s.nw, RATIO_SENTINEL_FLOOR).ravel()
    worst_a, t_a = _worst((q[:-1] - q[1:]) / _pairwise_max(scale[:-1], scale[1:]),
                          t[1:]) or (0.0, 0.0)

    # (b) |w| continuity at events, read off the segment endpoints themselves
    t0, t1 = s.t[:, 0], s.t[:, -1]
    a = np.sqrt(_dots(s.w0[:-1] - (t0[1:] - t0[:-1])[:, None] * s.z[:-1]))
    b = np.sqrt(_dots(s.w0[1:]))
    rel = np.abs(a - b) / _pairwise_max(a, b)
    worst_b, t_b = _worst(w_continuity_tol - rel, t0[1:]) or (w_continuity_tol, 0.0)

    # (c) |z| constant on segments, evaluated through the query path; z is
    # frozen on a segment, so its first sample stands for all of them
    nz_query = np.array([float(np.linalg.norm(seg.covector_at(float(t_k)).z))
                         for seg, t_k in zip(segs, t0)])
    dev = np.abs(nz_query - s.nz)
    worst_c, t_c = _worst(-dev / np.maximum(s.nz, RATIO_SENTINEL_FLOOR), t0) or (0.0, 0.0)

    checks = [
        _result(CHECK_Q_NONINCREASING, tol, worst_a, t_a),
        _result(CHECK_W_CONTINUITY, 0.0, worst_b, t_b),
        _result(CHECK_Z_SEGMENT_CONSTANT, tol, worst_c, t_c),
    ]

    if q0 >= 0.0:
        checks += [CheckResult(CHECK_Q_STRICT_DECREASE, "skipped"),
                   CheckResult(CHECK_W_STRICT_INCREASE, "skipped"),
                   CheckResult(CHECK_RATIO_NONINCREASING, "skipped")]
    else:
        # (d) strict decrease on segments: exact decrement dt * |z|^2; the
        # squares stay Python ``** 2`` (libm pow), which is not always x * x
        dt = t1 - t0
        z2 = np.array([x ** 2 for x in s.nz.tolist()])
        drop = s.Q[:, 0] - s.Q[:, -1]
        sc = np.maximum(s.nz * np.max(s.nw, axis=1), RATIO_SENTINEL_FLOOR)
        live = dt > 0.0
        worst_d, t_d = _worst(((drop - dt * z2) / sc)[live], t1[live]) or (0.0, 0.0)

        # (e) |w| strictly increasing at the guaranteed minimum rate
        w2 = np.array([x ** 2 for x in nw.tolist()])
        m_e = (w2[1:] - w2[:-1] - 2.0 * abs(q0) * (t[1:] - t[:-1])) \
            / _pairwise_max(w2[1:], w2[:-1])
        worst_e, t_e = _worst(m_e, t[1:]) or (0.0, 0.0)

        # (f) |w| / |Q| non-increasing across the full grid
        r = nw / np.maximum(np.abs(q), RATIO_SENTINEL_FLOOR)
        worst_f, t_f = _worst((r[:-1] - r[1:]) / _pairwise_max(r[:-1], r[1:]),
                              t[1:]) or (0.0, 0.0)

        checks += [_result(CHECK_Q_STRICT_DECREASE, tol, worst_d, t_d),
                   _result(CHECK_W_STRICT_INCREASE, tol, worst_e, t_e),
                   _result(CHECK_RATIO_NONINCREASING, tol, worst_f, t_f)]

    return VerificationReport(checks, {"tol": tol, "w_continuity_tol": w_continuity_tol},
                              _meta(series))


def verify_growth(series: TransportSeries, c0: float, tol: float = 1e-9,
                  interior: int = DEFAULT_INTERIOR_SAMPLES) -> VerificationReport:
    """Check the linear growth bounds for a unit covector with ``Q(n_0) <= -c0``.

    ``|w_t| >= |w_0| + |Q(n_0)| t / |w_0|`` at every sample, and
    ``lambda_t >= 1 + c0 t`` at samples with ``t >= 1/c0``.  Precondition
    violations raise :class:`ConfigError` rather than failing a check.
    """
    if not c0 > 0.0:
        raise ConfigError("growth verification needs c0 > 0")
    q0 = lyapunov_Q(series.n0)
    if q0 > -c0 + 1e-12:
        raise ConfigError(f"growth verification needs Q(n0) <= -c0, got Q(n0) = {q0}")
    if abs(series.n0_norm - 1.0) > 1e-9:
        raise ConfigError("growth verification needs a unit initial covector")
    w0 = float(np.linalg.norm(series.n0.w))

    s = _sample(series, interior)
    t = s.t.ravel()
    nw = s.nw.ravel()
    bound5 = w0 + abs(q0) * t / w0
    m5 = (nw - bound5) / np.maximum(bound5, nw)
    i = int(np.argmin(m5))
    checks = [_result(CHECK_W_LINEAR_GROWTH, tol, float(m5[i]), float(t[i]))]

    late = t >= 1.0 / c0 - 1e-12
    boundt = 1.0 + c0 * t[late]
    worst_h = _worst((s.nn.ravel()[late] / series.n0_norm - boundt) / boundt, t[late])
    if worst_h is not None:
        checks.append(_result(CHECK_LAMBDA_LINEAR_GROWTH, tol, *worst_h))
    else:
        checks.append(CheckResult(CHECK_LAMBDA_LINEAR_GROWTH, "skipped"))
    return VerificationReport(checks, {"tol": tol, "c0": c0}, _meta(series))


def q_decrement_breakdown(series: TransportSeries) -> dict:
    """Book-keeping of the total Lyapunov decrease along a series.

    The drop of Q from start to end must equal the sum of the per-segment
    decrements ``dt |z|^2`` and the per-collision closed-form decrements.
    """
    q_start = lyapunov_Q(series.segments[0].covector_at(series.segments[0].t0))
    last = series.segments[-1]
    q_end = lyapunov_Q(last.covector_at(last.t1))
    free = [float((seg.t1 - seg.t0) * (seg.z @ seg.z)) for seg in series.segments]
    collisions = [j.q_drop_closed_form for j in series.jumps]
    total = q_start - q_end
    return {"total_drop": total, "free_drops": free, "collision_drops": collisions,
            "residual": total - (sum(free) + sum(collisions))}


# ---------------------------------------------------------------------------
# Covector sampling
# ---------------------------------------------------------------------------

def _complement_basis(v: np.ndarray) -> np.ndarray:
    """(d-1, d) row-orthonormal basis of the hyperplane orthogonal to v."""
    d = v.shape[0]
    m = np.concatenate([v[:, None] / np.linalg.norm(v), np.eye(d)], axis=1)
    q, _ = np.linalg.qr(m)
    return q[:, 1:d].T


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
    basis = _complement_basis(np.asarray(v, dtype=float))
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    z = inv_sqrt2 * _unit_in_span(basis, rng)
    w = inv_sqrt2 * _unit_in_span(basis, rng)
    return Covector(z, w)


def sample_covector_with_Q_bound(v: np.ndarray, c0: float, rng_seed) -> Covector:
    """Unit covector in ``v^perp`` with ``Q <= -c0``, deterministic per seed.

    Rejection sampling from the rotation-invariant product-of-spheres
    distribution; ``c0`` must lie in ``(0, 1/2]`` (a unit covector has
    ``|Q| <= |z| |w| <= 1/2``).  At ``c0 = 1/2`` the equality case
    ``w = -z`` is forced up to rotation.
    """
    if not 0.0 < c0 <= 0.5 + 1e-12:
        raise InfeasibleCovectorError(
            f"c0 = {c0} unattainable: a unit covector has |Q| <= 1/2")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) \
        else np.random.default_rng(rng_seed)
    v = np.asarray(v, dtype=float)
    basis = _complement_basis(v)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
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
