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
moves once.

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
from .geometry import Vec, curvature_at, reflect

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


def _covector_jump(n_minus: Covector, event: CollisionEvent,
                   K: np.ndarray) -> tuple[Covector, float]:
    """Covector after the collision and the closed-form drop of ``Q`` there."""
    nu, cphi = event.nu, event.cos_phi
    v_out = event.v_out / np.linalg.norm(event.v_out)
    w_plus = reflect(n_minus.w, nu)
    u, kick = _projected_curvature(w_plus, v_out, cphi, nu, K)   # V1 R w-, V1* K V1 R w-
    z_plus = reflect(n_minus.z, nu) - 2.0 * cphi * kick
    return Covector(z_plus, w_plus), 2.0 * cphi * float(u @ K @ u)


def collision_covector(n_minus: Covector, event: CollisionEvent, K: np.ndarray) -> Covector:
    """Covector across a collision: ``(R z- - 2 cos_phi V1* K V1 R w-, R w-)``.

    The w-component is reflected isometrically, so its norm is continuous
    across the event; the Lyapunov value drops by
    ``2 cos_phi <K V1 R w-, V1 R w->``, nonnegative for semi-dispersing walls.
    """
    return _covector_jump(n_minus, event, K)[0]


def collision_q_drop(n_minus: Covector, event: CollisionEvent, K: np.ndarray) -> float:
    """Closed-form drop of the Lyapunov value at a collision (nonnegative)."""
    return _covector_jump(n_minus, event, K)[1]


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

@dataclass(eq=False)
class CovectorSegment:
    """Covector data on one free segment: z is frozen, w is affine in t."""

    t0: float
    t1: float
    v: Vec
    z: Vec
    w0: Vec

    def covector_at(self, t: float) -> Covector:
        return Covector(self.z.copy(), self.w0 - (t - self.t0) * self.z)


@dataclass(eq=False)
class CovectorJump:
    """Pre/post covector values at one collision."""

    t: float
    n_pre: Covector
    n_post: Covector
    q_drop_closed_form: float
    reprojection: float


@dataclass(eq=False)
class TangentSegment:
    """Tangent data on one free segment: dv is frozen, dq is affine in t."""

    t0: float
    t1: float
    dq0: Vec
    dv: Vec

    def tangent_at(self, t: float) -> TangentVector:
        return TangentVector(self.dq0 + (t - self.t0) * self.dv, self.dv.copy())


class _Series:
    """Per-segment data over ``[0, t_end]`` with one segment lookup.

    Segment endpoints store the pre- and post-collision values; mid-segment
    queries evaluate the free-flight formula from the left endpoint, so no
    interpolation error is introduced.
    """

    def __init__(self, segments: list, t_end: float):
        self.segments = segments
        self.t_end = t_end
        self._t0 = np.array([s.t0 for s in segments])

    def _segment(self, t: float, side: str):
        """Segment holding time ``t``; at event times ``side`` picks the branch."""
        if t < -1e-12 or t > self.t_end + 1e-12:
            raise SeriesRangeError(f"time {t} outside transported range [0, {self.t_end}]")
        k = max(int(np.searchsorted(self._t0, t, side="right") - 1), 0)
        if side == "pre" and k > 0 and t <= self.segments[k].t0:
            k -= 1
        return self.segments[k]


class TransportSeries(_Series):
    """Covector transported along a trajectory, queryable at any time."""

    def __init__(self, trajectory: Trajectory, n0: Covector,
                 segments: list[CovectorSegment], jumps: list[CovectorJump]):
        super().__init__(segments, trajectory.t_end)
        self.trajectory = trajectory
        self.n0 = n0
        self.jumps = jumps
        self.n0_norm = n0.norm()
        # sample grids of the diagnostics, keyed by interior sample count: a
        # series is not changed once transported, so its checks and records
        # share one grid
        self.sample_grids: dict = {}

    @property
    def max_reprojection(self) -> float:
        return max((j.reprojection for j in self.jumps), default=0.0)

    def covector_at(self, t: float, side: str = "post") -> Covector:
        """Covector at time ``t``; at event times ``side`` picks the branch."""
        return self._segment(t, side).covector_at(t)


class TangentSeries(_Series):
    """Tangent vector (or stack) transported forward along a trajectory."""

    def tangent_at(self, t: float, side: str = "post") -> TangentVector:
        """Tangent vector at time ``t``; at event times ``side`` picks the branch."""
        return self._segment(t, side).tangent_at(t)


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
    v0 = trajectory.start.v
    _check_transversal(n0.z, n0.w, v0, "covector")
    if n0.norm() == 0.0:
        raise ValueError("covector must be nonzero")
    domain = trajectory.domain
    segments: list[CovectorSegment] = []
    jumps: list[CovectorJump] = []
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
    return TransportSeries(trajectory, n0, segments, jumps)


def transport_tangent(trajectory: Trajectory, dy0: TangentVector) -> TangentSeries:
    """Push ``dy0`` (a vector or a stack) forward with the derivative of the flow."""
    _check_transversal(dy0.dq, dy0.dv, trajectory.start.v, "tangent vector")
    domain = trajectory.domain
    segments: list[TangentSegment] = []
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
    return TangentSeries(segments, trajectory.t_end)


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
    endpoint.  The residual at time ``t`` is normalized by the larger of the
    initial and current magnitude products: the pairing is evaluated by
    cancellation of terms of that size, which is the scale fixed precision
    can certify.  A series transported with a rescaled curvature breaks
    adjointness and must produce a large residual (negative control).
    """
    trajectory = series.trajectory
    basis = _complement_basis(trajectory.start.v)
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
