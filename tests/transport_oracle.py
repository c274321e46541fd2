"""Object-per-segment transport and the loop adjoint check, kept as test oracles.

These are the forms ``billiards.transport`` had before its series became
columns: one ``CovectorSegment`` or ``TangentSegment`` per free segment, one
``CovectorJump`` per collision, and an ``adjoint_residual`` that loops over
segments and endpoints, each trajectory on its own, one event at a time.  The
column series, the group passes and the array adjoint check must reproduce
them bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from billiards.errors import SeriesRangeError
from billiards.geometry import Cylinder, Halfspace
from billiards.transport import (
    ORTHOGONALITY_TOL,
    Covector,
    TangentVector,
    pairing,
)

# The one-event maps below are the 1-d forms the package had before its
# transport moved a group of trajectories per array step; they are copies,
# so the oracle runs none of the kernel it checks.


def complement_basis(v):
    """(d-1, d) row-orthonormal basis of the hyperplane orthogonal to v, one
    vector and one QR call at a time."""
    d = v.shape[0]
    m = np.concatenate([v[:, None] / np.linalg.norm(v), np.eye(d)], axis=1)
    q, _ = np.linalg.qr(m)
    return q[:, 1:d].T


def reflect(x, nu):
    return x - 2.0 * (x @ nu)[..., None] * nu


def curvature_at(domain, scatterer_index, nu):
    s = domain.scatterers[scatterer_index]
    if isinstance(s, Halfspace):
        return np.zeros((domain.d, domain.d))
    mat = s.projector if isinstance(s, Cylinder) else np.eye(domain.d)
    return (mat - np.outer(nu, nu)) / s.radius


def _check_transversal(a, b, v, what):
    for x, y in zip(np.atleast_2d(a), np.atleast_2d(b)):
        scale = max(float(np.linalg.norm(x)), float(np.linalg.norm(y)), 1e-300)
        res = max(abs(float(x @ v)), abs(float(y @ v)))
        if res > ORTHOGONALITY_TOL * scale:
            raise ValueError(f"{what} components must be orthogonal to the velocity "
                             f"(residual {res / scale:.3e} relative)")


def _projected_curvature(x, v, vn, nu, K):
    u = x - (x @ nu / vn)[..., None] * v
    ku = u @ K.T
    return u, ku - (ku @ v / vn)[..., None] * nu


def _reproject(x, v):
    corr = float(x @ v) * v
    return x - corr, float(np.linalg.norm(corr))


def collision_tangent(dy_minus, event, K):
    nu = event.nu
    v_in = event.v_in / np.linalg.norm(event.v_in)
    _, kick = _projected_curvature(dy_minus.dq, v_in, float(v_in @ nu), nu, K)
    return TangentVector(reflect(dy_minus.dq, nu),
                         reflect(dy_minus.dv + 2.0 * event.cos_phi * kick, nu))


@dataclass(eq=False)
class CovectorSegment:
    t0: float
    t1: float
    v: np.ndarray
    z: np.ndarray
    w0: np.ndarray

    def covector_at(self, t):
        return Covector(self.z.copy(), self.w0 - (t - self.t0) * self.z)


@dataclass(eq=False)
class CovectorJump:
    t: float
    n_pre: Covector
    n_post: Covector
    q_drop_closed_form: float
    reprojection: float


@dataclass(eq=False)
class TangentSegment:
    t0: float
    t1: float
    dq0: np.ndarray
    dv: np.ndarray

    def tangent_at(self, t):
        return TangentVector(self.dq0 + (t - self.t0) * self.dv, self.dv.copy())


class Series:
    def __init__(self, segments, t_end, n0=None, jumps=None, trajectory=None):
        self.segments = segments
        self.t_end = t_end
        self.n0 = n0
        self.n0_norm = None if n0 is None else n0.norm()
        self.jumps = jumps
        self.trajectory = trajectory
        self._t0 = np.array([s.t0 for s in segments])

    def _segment(self, t, side):
        if t < -1e-12 or t > self.t_end + 1e-12:
            raise SeriesRangeError(f"time {t} outside transported range [0, {self.t_end}]")
        k = max(int(np.searchsorted(self._t0, t, side="right") - 1), 0)
        if side == "pre" and k > 0 and t <= self.segments[k].t0:
            k -= 1
        return self.segments[k]

    def covector_at(self, t, side="post"):
        return self._segment(t, side).covector_at(t)

    def tangent_at(self, t, side="post"):
        return self._segment(t, side).tangent_at(t)


def _covector_jump(n_minus, event, K):
    nu, cphi = event.nu, event.cos_phi
    v_out = event.v_out / np.linalg.norm(event.v_out)
    w_plus = reflect(n_minus.w, nu)
    u, kick = _projected_curvature(w_plus, v_out, cphi, nu, K)
    z_plus = reflect(n_minus.z, nu) - 2.0 * cphi * kick
    return Covector(z_plus, w_plus), 2.0 * cphi * float(u @ K @ u)


def transport_covector(trajectory, n0, curvature_scale=1.0):
    _check_transversal(n0.z, n0.w, trajectory.start.v, "covector")
    domain = trajectory.domain
    segments, jumps = [], []
    z, w = n0.z.astype(float).copy(), n0.w.astype(float).copy()
    for k, seg in enumerate(trajectory.segments):
        segments.append(CovectorSegment(seg.t0, seg.t1, seg.v, z, w))
        if k >= len(trajectory.events):
            break
        event = trajectory.events[k]
        n_pre = Covector(z.copy(), w - seg.duration * z)
        K = curvature_scale * curvature_at(domain, event.scatterer_index, event.nu)
        n_post, drop = _covector_jump(n_pre, event, K)
        v_out = event.v_out / np.linalg.norm(event.v_out)
        z, cz = _reproject(n_post.z, v_out)
        w, cw = _reproject(n_post.w, v_out)
        scale = max(np.linalg.norm(z), np.linalg.norm(w), 1e-300)
        with np.errstate(invalid="ignore"):
            corr = (cz + cw) / scale
        jumps.append(CovectorJump(event.t, n_pre, Covector(z.copy(), w.copy()),
                                  drop, corr if math.isfinite(corr) else math.inf))
    return Series(segments, trajectory.t_end, n0, jumps, trajectory)


def transport_tangent(trajectory, dy0):
    _check_transversal(dy0.dq, dy0.dv, trajectory.start.v, "tangent vector")
    domain = trajectory.domain
    segments = []
    dq, dv = dy0.dq.astype(float).copy(), dy0.dv.astype(float).copy()
    for k, seg in enumerate(trajectory.segments):
        segments.append(TangentSegment(seg.t0, seg.t1, dq, dv))
        if k >= len(trajectory.events):
            break
        event = trajectory.events[k]
        dy_pre = TangentVector(dq + seg.duration * dv, dv)
        K = curvature_at(domain, event.scatterer_index, event.nu)
        dy_post = collision_tangent(dy_pre, event, K)
        dq, dv = dy_post.dq, dy_post.dv
    return Series(segments, trajectory.t_end)


def adjoint_residual(series):
    """``series`` is an oracle covector series (``transport_covector`` above)."""
    trajectory = series.trajectory
    basis = complement_basis(trajectory.start.v)
    zero = np.zeros_like(basis)
    dy0 = TangentVector(np.vstack([basis, zero]), np.vstack([zero, basis]))
    tan = transport_tangent(trajectory, dy0)
    p0 = pairing(dy0, series.n0)
    base = dy0.norm() * series.n0_norm
    worst = 0.0
    for cseg, tseg in zip(series.segments, tan.segments):
        for t in (cseg.t0, cseg.t1):
            n_t, dy_t = cseg.covector_at(t), tseg.tangent_at(t)
            scale = np.maximum(np.maximum(base, dy_t.norm() * n_t.norm()), 1e-300)
            worst = max(worst, float(np.max(np.abs(pairing(dy_t, n_t) - p0) / scale)))
    return worst
