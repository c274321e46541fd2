"""Transport of tangent vectors and normal covectors along trajectories.

A covector ``n = (z, w)`` represents the annihilator of the tangent space of
a flow-invariant hypersurface through the pairing ``<dq, z> + <dv, w>``;
both components stay orthogonal to the velocity.  Free flight acts by

    tangent:  (dq, dv) -> (dq + dt * dv, dv)
    covector: (z,  w)  -> (z, w - dt * z)

and a collision with inward normal ``nu``, curvature ``K`` and angle
``cos_phi`` acts by

    tangent:  dq+ = R dq-,   dv+ = R dv- + 2 cos_phi * R V* K V dq-
    covector: w+  = R w-,    z+  = R z-  - 2 cos_phi * V1* K V1 R w-

where ``R`` is the reflection across the boundary tangent plane
(:func:`~billiards.geometry.reflect`), ``V`` the incoming-velocity parallel
projection onto the tangent plane, ``V1`` the same for the outgoing
velocity, and ``*`` the adjoint.  Both maps go through one kernel,
``_projected_curvature``, called with ``v_in`` for the tangent and ``v_out``
for the covector; ``K`` is the plain ``d x d`` matrix that
:func:`~billiards.geometry.curvature_at` builds, once per event in each
transport pass, from the event's normal ``nu``, the same normal that ``R``
and ``V`` use.  The two maps are mutually adjoint, so the pairing with a
forward-transported tangent vector is an exact invariant;
``adjoint_residual`` measures how well the implementation preserves it on a
covector series that is already transported, so each trajectory's covector
moves once, and evaluates it at both endpoints of every segment in one
array expression.

A transported series is a set of read-only columns over the trajectory's
free segments (``series.segments`` is the trajectory's own list): ``t0`` and
``t1`` ``(S,)``; for a covector ``z`` and ``w0`` ``(S, d)``, its value at
each segment's start, and per collision ``q_drop`` and ``reprojection``
``(E,)``; for tangent vectors ``dq0`` and ``dv`` ``(S, [m,] d)``.
``covector_at`` and ``tangent_at`` evaluate the free-flight formula from
one row.

The collision maps trust the flow's grazing cutoff: ``flow`` ends a
trajectory at a grazing impact instead of recording it, so every event it
records has ``cos_phi`` at or above that positive cutoff and the maps check
no angle themselves.  The only fault hook is ``transport_covector``'s
``curvature_scale``, which rescales ``K`` on the covector side (the
``--corrupt-curvature`` negative control).

Tangent vectors may carry a stack of rows: ``dq`` and ``dv`` of shape
``(m, d)`` move ``m`` variations through one transport pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import CollisionEvent, Trajectory
from .errors import SeriesRangeError
from .geometry import Vec, curvature_at, reflect, row_dot

ORTHOGONALITY_TOL = 1e-10


@dataclass(eq=False)
class TangentVector:
    """Transversal phase-space variation: dq and dv, both orthogonal to v.

    ``dq`` and ``dv`` are vectors, or ``(m, d)`` stacks of ``m`` variations.
    """

    dq: Vec
    dv: Vec

    def norm(self) -> float | np.ndarray:
        """Euclidean norm of ``(dq, dv)``; one value per row for a stack."""
        return np.sqrt(np.einsum("...i,...i", self.dq, self.dq)
                       + np.einsum("...i,...i", self.dv, self.dv))


@dataclass(eq=False)
class Covector:
    """Normal covector (z, w) to a transported hypersurface."""

    z: Vec
    w: Vec

    def norm(self) -> float:
        return float(np.sqrt(self.z @ self.z + self.w @ self.w))

    def scaled(self, s: float) -> "Covector":
        return Covector(s * self.z, s * self.w)


def pairing(dy: TangentVector, n: Covector) -> float | np.ndarray:
    """Duality pairing ``<dq, z> + <dv, w>``; one value per row for a stack."""
    return dy.dq @ n.z + dy.dv @ n.w


def _check_transversal(a: Vec, b: Vec, v: Vec, what: str) -> None:
    for x, y in zip(np.atleast_2d(a), np.atleast_2d(b)):
        scale = max(float(np.linalg.norm(x)), float(np.linalg.norm(y)), 1e-300)
        res = max(abs(float(x @ v)), abs(float(y @ v)))
        if res > ORTHOGONALITY_TOL * scale:
            raise ValueError(f"{what} components must be orthogonal to the velocity "
                             f"(residual {res / scale:.3e} relative)")


# ---------------------------------------------------------------------------
# Elementary maps
# ---------------------------------------------------------------------------

def free_flight_covector(n: Covector, dt: float) -> Covector:
    """Covector after a collision-free flight of duration ``dt``."""
    if dt < 0.0:
        raise ValueError("flight duration must be nonnegative")
    return Covector(n.z.copy(), n.w - dt * n.z)


def free_flight_tangent(dy: TangentVector, dt: float) -> TangentVector:
    """Tangent vector after a collision-free flight of duration ``dt``."""
    if dt < 0.0:
        raise ValueError("flight duration must be nonnegative")
    return TangentVector(dy.dq + dt * dy.dv, dy.dv.copy())


def _projected_curvature(x: Vec, v: Vec, vn: float, nu: Vec, K: np.ndarray) -> tuple[Vec, Vec]:
    """``(P x, P* K P x)`` for the projection ``P x = x - (<x, nu>/vn) v``.

    ``P`` maps ``v^perp`` along the unit velocity ``v`` onto the boundary
    tangent plane ``nu^perp`` (``vn = <v, nu>``); its adjoint is
    ``P* y = y - (<y, v>/vn) nu``.  ``x`` is one vector or a stack of rows.
    """
    u = x - (x @ nu / vn)[..., None] * v
    ku = u @ K.T          # K u per row; for one vector bit-identical to K @ u
    return u, ku - (ku @ v / vn)[..., None] * nu


def _covector_jump(z: Vec, w: Vec, event: CollisionEvent, K: np.ndarray,
                   v_out: Vec) -> tuple[Vec, Vec, float]:
    """``(z+, w+)`` across the collision and the closed-form drop of ``Q``
    there; ``v_out`` is the unit outgoing velocity."""
    nu, cphi = event.nu, event.cos_phi
    w_plus = reflect(w, nu)
    u, kick = _projected_curvature(w_plus, v_out, cphi, nu, K)   # V1 R w-, V1* K V1 R w-
    z_plus = reflect(z, nu) - 2.0 * cphi * kick
    return z_plus, w_plus, 2.0 * cphi * float(u @ K @ u)


def collision_covector(n_minus: Covector, event: CollisionEvent, K: np.ndarray) -> Covector:
    """Covector across a collision: ``(R z- - 2 cos_phi V1* K V1 R w-, R w-)``.

    The w-component is reflected isometrically, so its norm is continuous
    across the event; the Lyapunov value drops by
    ``2 cos_phi <K V1 R w-, V1 R w->``, nonnegative for semi-dispersing walls.
    """
    v_out = event.v_out / np.linalg.norm(event.v_out)
    z, w, _ = _covector_jump(n_minus.z, n_minus.w, event, K, v_out)
    return Covector(z, w)


def collision_q_drop(n_minus: Covector, event: CollisionEvent, K: np.ndarray) -> float:
    """Closed-form drop of the Lyapunov value at a collision (nonnegative)."""
    v_out = event.v_out / np.linalg.norm(event.v_out)
    return _covector_jump(n_minus.z, n_minus.w, event, K, v_out)[2]


def collision_tangent(dy_minus: TangentVector, event: CollisionEvent,
                      K: np.ndarray) -> TangentVector:
    """Tangent vector (or stack) across a collision:
    ``(R dq-, R dv- + 2 cos_phi R V* K V dq-)`` with the incoming projection V."""
    nu = event.nu
    v_in = event.v_in / np.linalg.norm(event.v_in)
    _, kick = _projected_curvature(dy_minus.dq, v_in, float(v_in @ nu), nu, K)
    return TangentVector(reflect(dy_minus.dq, nu),
                         reflect(dy_minus.dv + 2.0 * event.cos_phi * kick, nu))


# ---------------------------------------------------------------------------
# Whole-trajectory transport
# ---------------------------------------------------------------------------

class _Series:
    """Columns over the free segments of a trajectory, with one segment lookup.

    Row ``k`` of every column belongs to ``segments[k]``, the trajectory's own
    free segment from ``t0[k]`` to ``t1[k]``, and holds the value at its start,
    i.e. right after the collision that opens it.  Queries evaluate the
    free-flight formula from that start, so no interpolation error enters.
    The columns are read-only: a transported series does not change.
    """

    def __init__(self, trajectory: Trajectory, *columns: np.ndarray):
        self.trajectory = trajectory
        self.segments = trajectory.segments
        self.t_end = trajectory.t_end
        self.t0 = np.array([s.t0 for s in self.segments])
        self.t1 = np.array([s.t1 for s in self.segments])
        for a in (self.t0, self.t1, *columns):
            a.flags.writeable = False

    def _row(self, t: float, side: str) -> int:
        """Row of the segment holding time ``t``; at event times ``side`` picks the branch."""
        if t < -1e-12 or t > self.t_end + 1e-12:
            raise SeriesRangeError(f"time {t} outside transported range [0, {self.t_end}]")
        k = max(int(np.searchsorted(self.t0, t, side="right") - 1), 0)
        if side == "pre" and k > 0 and t <= self.t0[k]:
            k -= 1
        return k


class TransportSeries(_Series):
    """Covector transported along a trajectory, queryable at any time.

    ``z`` and ``w0`` ``(S, d)`` hold the covector at the start of each
    segment: ``z`` is frozen on a segment and ``w = w0 - (t - t0) z``.
    ``q_drop`` and ``reprojection`` ``(E,)`` hold, per collision, the
    closed-form drop of ``Q`` and the relative size of the re-projection
    onto the outgoing velocity's orthogonal complement.
    """

    def __init__(self, trajectory: Trajectory, n0: Covector, z: np.ndarray, w0: np.ndarray,
                 q_drop: np.ndarray, reprojection: np.ndarray):
        super().__init__(trajectory, z, w0, q_drop, reprojection)
        self.n0 = n0
        self.n0_norm = n0.norm()
        self.z, self.w0 = z, w0
        self.q_drop, self.reprojection = q_drop, reprojection
        # sample grids of the diagnostics, keyed by interior sample count: a
        # series is not changed once transported, so its checks and records
        # share one grid
        self.sample_grids: dict = {}

    @property
    def max_reprojection(self) -> float:
        return float(np.max(self.reprojection, initial=0.0))

    def covector_at(self, t: float, side: str = "post") -> Covector:
        """Covector at time ``t``; at event times ``side`` picks the branch."""
        k = self._row(t, side)
        return Covector(self.z[k].copy(), self.w0[k] - (t - self.t0[k]) * self.z[k])


class TangentSeries(_Series):
    """Tangent vector (or stack) transported forward along a trajectory.

    ``dq0`` and ``dv`` ``(S, [m,] d)`` hold it at the start of each segment:
    ``dv`` is frozen on a segment and ``dq = dq0 + (t - t0) dv``.
    """

    def __init__(self, trajectory: Trajectory, dq0: np.ndarray, dv: np.ndarray):
        super().__init__(trajectory, dq0, dv)
        self.dq0, self.dv = dq0, dv

    def tangent_at(self, t: float, side: str = "post") -> TangentVector:
        """Tangent vector at time ``t``; at event times ``side`` picks the branch."""
        k = self._row(t, side)
        return TangentVector(self.dq0[k] + (t - self.t0[k]) * self.dv[k], self.dv[k].copy())


def _reproject(x: Vec, v: Vec) -> tuple[Vec, float]:
    corr = float(x @ v) * v
    return x - corr, float(np.linalg.norm(corr))


def transport_covector(trajectory: Trajectory, n0: Covector,
                       curvature_scale: float = 1.0) -> TransportSeries:
    """Transport ``n0`` along the whole trajectory.

    After each collision the components are re-projected onto the outgoing
    velocity's orthogonal complement to kill rounding drift; the relative
    correction magnitude is recorded per event.  ``curvature_scale``
    rescales ``K`` (fault-injection hook for the adjointness negative
    control); it must be 1 for physical transport.
    """
    _check_transversal(n0.z, n0.w, trajectory.start.v, "covector")
    if n0.norm() == 0.0:
        raise ValueError("covector must be nonzero")
    domain = trajectory.domain
    z, w = np.ascontiguousarray(n0.z, dtype=float), np.ascontiguousarray(n0.w, dtype=float)
    zs, ws, drops, corrs = [z], [w], [], []
    for seg, event in zip(trajectory.segments, trajectory.events):
        v_out = event.v_out / np.linalg.norm(event.v_out)
        K = curvature_scale * curvature_at(domain, event.scatterer_index, event.nu)
        z_post, w_post, drop = _covector_jump(z, w - seg.duration * z, event, K, v_out)
        z, cz = _reproject(z_post, v_out)
        w, cw = _reproject(w_post, v_out)
        scale = max(float(np.linalg.norm(z)), float(np.linalg.norm(w)), 1e-300)
        corr = (cz + cw) / scale
        zs.append(z)
        ws.append(w)
        drops.append(drop)
        corrs.append(corr if math.isfinite(corr) else math.inf)
    return TransportSeries(trajectory, n0, np.array(zs), np.array(ws),
                           np.array(drops, dtype=float), np.array(corrs, dtype=float))


def transport_tangent(trajectory: Trajectory, dy0: TangentVector) -> TangentSeries:
    """Push ``dy0`` (a vector or a stack) forward with the derivative of the flow."""
    _check_transversal(dy0.dq, dy0.dv, trajectory.start.v, "tangent vector")
    domain = trajectory.domain
    # C order: the collision maps' BLAS products round differently on a
    # Fortran-ordered stack, such as np.vstack of the transposed complement basis
    dq = np.ascontiguousarray(dy0.dq, dtype=float)
    dv = np.ascontiguousarray(dy0.dv, dtype=float)
    dqs, dvs = [dq], [dv]
    for seg, event in zip(trajectory.segments, trajectory.events):
        K = curvature_at(domain, event.scatterer_index, event.nu)
        dy = collision_tangent(TangentVector(dq + seg.duration * dv, dv), event, K)
        dq, dv = dy.dq, dy.dv
        dqs.append(dq)
        dvs.append(dv)
    return TangentSeries(trajectory, np.array(dqs), np.array(dvs))


# ---------------------------------------------------------------------------
# Adjoint-identity verification
# ---------------------------------------------------------------------------

def _complement_basis(v: Vec) -> np.ndarray:
    """(d-1, d) row-orthonormal basis of the hyperplane orthogonal to v."""
    d = v.shape[0]
    m = np.concatenate([v[:, None] / np.linalg.norm(v), np.eye(d)], axis=1)
    q, _ = np.linalg.qr(m)
    return q[:, 1:d].T


def transversal_basis(v: Vec) -> list[TangentVector]:
    """Basis of the transversal tangent space at velocity ``v``: 2(d-1) vectors."""
    zero = np.zeros(v.shape[0])
    basis = _complement_basis(v)
    return [TangentVector(e.copy(), zero.copy()) for e in basis] + \
           [TangentVector(zero.copy(), e.copy()) for e in basis]


def adjoint_residual(series: TransportSeries) -> float:
    """Worst relative violation of the transport-invariance of the pairing.

    ``series`` is a covector already transported along its trajectory; the
    trajectory's ``transversal_basis`` moves as one ``(2(d-1), d)`` stack in
    a single tangent pass, which evaluates the curvature itself.  For each
    basis vector the pairing of the forward-transported tangent vector with
    the transported covector must equal its initial value at every segment
    endpoint; all endpoints are evaluated at once, as ``(S, 2, ...)``
    arrays.  The residual at time ``t`` is normalized by the larger of the
    initial and current magnitude products: the pairing is evaluated by
    cancellation of terms of that size, which is the scale fixed precision
    can certify.  A pairing that is not finite makes the residual infinite.
    A series transported with a rescaled curvature breaks adjointness and
    must produce a large residual (negative control).
    """
    trajectory = series.trajectory
    basis = _complement_basis(trajectory.start.v)
    zero = np.zeros_like(basis)
    dy0 = TangentVector(np.vstack([basis, zero]), np.vstack([zero, basis]))
    tan = transport_tangent(trajectory, dy0)
    p0 = pairing(dy0, series.n0)
    base = dy0.norm() * series.n0_norm
    # time since the segment start at its two endpoints, (S, 2)
    dt = np.stack([series.t0 - series.t0, series.t1 - series.t0], axis=1)
    z = series.z[:, None, :]                                         # (S, 1, d)
    w = series.w0[:, None, :] - dt[..., None] * z                    # (S, 2, d)
    dq = tan.dq0[:, None] + dt[..., None, None] * tan.dv[:, None]    # (S, 2, m, d)
    dv = tan.dv[:, None]                                             # (S, 1, m, d)
    # the per-vector products of TangentVector.norm, Covector.norm and pairing
    n_norm = np.sqrt(row_dot(z, z) + row_dot(w, w))
    dy_norm = np.sqrt(np.einsum("...i,...i", dq, dq) + np.einsum("...i,...i", dv, dv))
    scale = np.maximum(np.maximum(base, dy_norm * n_norm[..., None]), 1e-300)
    paired = (dq @ z[..., None])[..., 0] + (dv @ w[..., None])[..., 0]
    worst = float(np.max(np.abs(paired - p0) / scale))
    return math.inf if math.isnan(worst) else worst
