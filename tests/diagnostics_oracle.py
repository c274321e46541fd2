"""Per-sample loop implementations of the diagnostics, kept as test oracles.

These are the original Python-loop forms of sampling, checks (a)-(h), the
sampled records and the CSV writer, reading a series one segment row at a
time.  The array forms in
``billiards.diagnostics`` and ``billiards.runner`` must reproduce them bit
for bit: every margin, every ``t_worst``, every record field and every CSV
byte.  Checks come back as ``(name, status, margin, t_worst)`` tuples.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from billiards.diagnostics import (
    CHECK_LAMBDA_LINEAR_GROWTH,
    CHECK_Q_COLLISION_DROP,
    CHECK_Q_NONINCREASING,
    CHECK_Q_STRICT_DECREASE,
    CHECK_RATIO_NONINCREASING,
    CHECK_W_CONTINUITY,
    CHECK_W_LINEAR_GROWTH,
    CHECK_W_STRICT_INCREASE,
    RATIO_SENTINEL_FLOOR,
    W_CONTINUITY_TOL,
    lyapunov_Q,
)
from billiards.errors import SeriesRangeError
from billiards.runner import CSV_COLUMNS


@dataclass(eq=False)
class Record:
    t: float
    segment_index: int
    event_flag: int
    Q: float
    norm_w: float
    norm_z: float
    norm_n: float
    lam: float
    ratio_wQ: float
    bound_prop5: float
    bound_theorem: float


@dataclass(eq=False)
class Sampled:
    t: list
    Q: list
    nw: list
    nz: list
    nn: list


def sample(series, interior):
    ts, Qs, nws, nzs, nns = [], [], [], [], []
    finite = True
    with np.errstate(over="ignore", invalid="ignore"):
        for t0, t1, z, w0 in zip(series.t0, series.t1, series.z, series.w0):
            tt = np.linspace(t0, t1, interior + 2)
            dw = w0[None, :] - (tt - t0)[:, None] * z[None, :]
            z2 = float(z @ z)
            q = dw @ z
            nw = np.linalg.norm(dw, axis=1)
            ts.append(tt)
            Qs.append(q)
            nws.append(nw)
            nzs.append(math.sqrt(z2))
            nns.append(np.sqrt(nw * nw + z2))
            finite = finite and math.isfinite(z2) and bool(np.all(np.isfinite(q)))
    if not finite:
        raise SeriesRangeError("covector magnitudes exceed the double-precision range")
    return Sampled(ts, Qs, nws, nzs, nns)


def series_records(series, interior, c0=None):
    s = sample(series, interior)
    w0 = float(np.linalg.norm(series.n0.w))
    q0 = lyapunov_Q(series.n0)
    n0 = series.n0_norm
    last = len(series.segments) - 1
    out = []
    for k in range(len(series.segments)):
        for i, t in enumerate(s.t[k]):
            flag = 0
            if i == 0 and k > 0:
                flag = 2
            elif i == len(s.t[k]) - 1 and k < last:
                flag = 1
            q = float(s.Q[k][i])
            nw = float(s.nw[k][i])
            nn = float(s.nn[k][i])
            ratio = nw / abs(q) if abs(q) > RATIO_SENTINEL_FLOOR else math.inf
            bound5 = w0 + abs(q0) * t / w0 if w0 > 0.0 else math.inf
            boundt = 1.0 + c0 * t if c0 is not None else math.nan
            out.append(Record(float(t), k, flag, q, nw, float(s.nz[k]),
                              nn, nn / n0, ratio, bound5, boundt))
    return out


def _result(name, tol, margin, t_worst):
    return (name, "pass" if margin >= -tol else "fail", margin, t_worst)


def verify_monotonicity(series, tol=1e-9, w_continuity_tol=W_CONTINUITY_TOL, interior=8):
    s = sample(series, interior)
    q0 = lyapunov_Q(series.n0)
    segs = series.segments
    t0, z, w0 = series.t0, series.z, series.w0

    worst_a, t_a = math.inf, 0.0
    prev_q = prev_scale = None
    for k in range(len(segs)):
        scale_k = np.maximum(s.nz[k] * s.nw[k], RATIO_SENTINEL_FLOOR)
        for i in range(len(s.t[k])):
            q, sc, t = float(s.Q[k][i]), float(scale_k[i]), float(s.t[k][i])
            if prev_q is not None:
                m = (prev_q - q) / max(prev_scale, sc, RATIO_SENTINEL_FLOOR)
                if m < worst_a:
                    worst_a, t_a = m, t
            prev_q, prev_scale = q, sc
    if not np.isfinite(worst_a):
        worst_a, t_a = 0.0, 0.0

    worst_b, t_b = math.inf, 0.0
    for k in range(1, len(segs)):
        t_ev = t0[k]
        a = float(np.linalg.norm(w0[k - 1] - (t_ev - t0[k - 1]) * z[k - 1]))
        b = float(np.linalg.norm(w0[k]))
        rel = abs(a - b) / max(a, b, RATIO_SENTINEL_FLOOR)
        m = w_continuity_tol - rel
        if m < worst_b:
            worst_b, t_b = m, t_ev
    if not np.isfinite(worst_b):
        worst_b, t_b = w_continuity_tol, 0.0

    worst_c, t_c = math.inf, 0.0
    for k, closed in enumerate(series.q_drop):
        actual = float(s.Q[k][-1] - s.Q[k + 1][0])
        scale = max(abs(actual), abs(float(closed)), s.nz[k] * float(s.nw[k][-1]),
                    RATIO_SENTINEL_FLOOR)
        m = -abs(actual - closed) / scale
        if m < worst_c:
            worst_c, t_c = m, float(s.t[k][-1])
    if not np.isfinite(worst_c):
        worst_c, t_c = 0.0, 0.0

    checks = [
        _result(CHECK_Q_NONINCREASING, tol, worst_a, t_a),
        _result(CHECK_W_CONTINUITY, 0.0, worst_b, t_b),
        _result(CHECK_Q_COLLISION_DROP, tol, worst_c, t_c),
    ]
    if q0 >= 0.0:
        return checks + [(CHECK_Q_STRICT_DECREASE, "skipped", None, None),
                         (CHECK_W_STRICT_INCREASE, "skipped", None, None),
                         (CHECK_RATIO_NONINCREASING, "skipped", None, None)]

    worst_d, t_d = math.inf, 0.0
    for k in range(len(segs)):
        dt = series.t1[k] - t0[k]
        if dt <= 0.0:
            continue
        z2 = s.nz[k] ** 2
        drop = float(s.Q[k][0] - s.Q[k][-1])
        sc = max(s.nz[k] * float(np.max(s.nw[k])), RATIO_SENTINEL_FLOOR)
        m = (drop - dt * z2) / sc
        if m < worst_d:
            worst_d, t_d = m, float(series.t1[k])
    if not np.isfinite(worst_d):
        worst_d, t_d = 0.0, 0.0

    worst_e, t_e = math.inf, 0.0
    rate = 2.0 * abs(q0)
    prev_w2 = prev_t = None
    for k in range(len(segs)):
        for i in range(len(s.t[k])):
            w2, t = float(s.nw[k][i]) ** 2, float(s.t[k][i])
            if prev_w2 is not None:
                sc = max(w2, prev_w2, RATIO_SENTINEL_FLOOR)
                m = (w2 - prev_w2 - rate * (t - prev_t)) / sc
                if m < worst_e:
                    worst_e, t_e = m, t
            prev_w2, prev_t = w2, t
    if not np.isfinite(worst_e):
        worst_e, t_e = 0.0, 0.0

    worst_f, t_f = math.inf, 0.0
    prev_r = None
    for k in range(len(segs)):
        for i in range(len(s.t[k])):
            q, nw, t = float(s.Q[k][i]), float(s.nw[k][i]), float(s.t[k][i])
            r = nw / max(abs(q), RATIO_SENTINEL_FLOOR)
            if prev_r is not None:
                m = (prev_r - r) / max(prev_r, r, RATIO_SENTINEL_FLOOR)
                if m < worst_f:
                    worst_f, t_f = m, t
            prev_r = r
    if not np.isfinite(worst_f):
        worst_f, t_f = 0.0, 0.0

    return checks + [_result(CHECK_Q_STRICT_DECREASE, tol, worst_d, t_d),
                     _result(CHECK_W_STRICT_INCREASE, tol, worst_e, t_e),
                     _result(CHECK_RATIO_NONINCREASING, tol, worst_f, t_f)]


def verify_growth(series, c0, tol=1e-9, interior=8):
    q0 = lyapunov_Q(series.n0)
    w0 = float(np.linalg.norm(series.n0.w))
    s = sample(series, interior)
    worst_g, t_g = math.inf, 0.0
    worst_h, t_h = math.inf, 0.0
    t_min = 1.0 / c0
    for k in range(len(series.segments)):
        tt, nw, nn = s.t[k], s.nw[k], s.nn[k]
        bound5 = w0 + abs(q0) * tt / w0
        m5 = (nw - bound5) / np.maximum(bound5, nw)
        i = int(np.argmin(m5))
        if float(m5[i]) < worst_g:
            worst_g, t_g = float(m5[i]), float(tt[i])
        mask = tt >= t_min - 1e-12
        if np.any(mask):
            lam = nn[mask] / series.n0_norm
            boundt = 1.0 + c0 * tt[mask]
            mh = (lam - boundt) / boundt
            j = int(np.argmin(mh))
            if float(mh[j]) < worst_h:
                worst_h, t_h = float(mh[j]), float(tt[mask][j])

    checks = [_result(CHECK_W_LINEAR_GROWTH, tol, worst_g, t_g)]
    if np.isfinite(worst_h):
        checks.append(_result(CHECK_LAMBDA_LINEAR_GROWTH, tol, worst_h, t_h))
    else:
        checks.append((CHECK_LAMBDA_LINEAR_GROWTH, "skipped", None, None))
    return checks


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        return ""
    return f"{x:.17g}"


def write_csv(path, records) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([_fmt(r.t), str(r.segment_index), str(r.event_flag),
                             _fmt(r.Q), _fmt(r.norm_w), _fmt(r.norm_z), _fmt(r.norm_n),
                             _fmt(r.lam), _fmt(r.bound_prop5), _fmt(r.bound_theorem)])
