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
:func:`~billiards.geometry.curvature_at` builds from the event's normal
``nu``, the same normal that ``R`` and ``V`` use.  The two maps are mutually
adjoint, so the pairing with a forward-transported tangent vector is an
exact invariant; ``adjoint_residual`` measures how well the implementation
preserves it on a covector series that is already transported, so each
trajectory's covector moves once, and evaluates it at both ends of every
segment while the tangent vectors move, keeping none of their history.

Each pass moves a group of trajectories in lockstep: step ``k`` maps event
``k`` of every trajectory that has more than ``k`` events, as one kernel
call over a leading row axis with one ``curvature_at`` call, and one
trajectory is a group of one.  The state is a C-ordered stack ``(F, m, d)``
per row (``m = 1`` for a covector component) and every product issues, per
row, the BLAS call of the 1-d form of one event: a dot for ``<x, nu>`` of a
vector (``(F, 1, d) @ (F, d, 1)``, as :func:`~billiards.geometry.row_dot`),
a ``gemv`` for ``<x, nu>`` of a stack and for ``K u`` of a vector
(``u @ K.transpose(0, 2, 1)``), a ``gemm`` for ``K u`` of a stack.  The
other operations act elementwise, so each series keeps the bits of the
trajectory transported alone, one event at a time.

A transported series is a set of read-only columns over the trajectory's
free segments (``series.segments`` is the trajectory's own): ``t0`` and
``t1`` ``(S,)``; for a covector ``z`` and ``w0`` ``(S, d)``, its value at
each segment's start, and per collision ``q_drop`` and ``reprojection``
``(E,)``; for tangent vectors ``dq0`` and ``dv`` ``(S, [m,] d)``.
``covector_at`` and ``tangent_at`` evaluate the free-flight formula from
one row.  The passes are the only entry to the maps above: at an event,
``side="pre"`` and ``"post"`` read the two sides of one collision map.

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
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory
from .errors import SeriesRangeError
from .geometry import Vec, curvature_at, reflect, row_dot

ORTHOGONALITY_TOL = 1e-10
# an adjoint check pass moves the tangent stacks (basis vectors x d,
# 2(d - 1) x d values per series, whatever its event count) of at most
# TANGENT_VALUES values, or of one series, so that a pass holds about that
# much whatever the group size and d
TANGENT_VALUES = 8192


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


def _check_starts(a: np.ndarray, b: np.ndarray, v: np.ndarray, what: str,
                  nonzero: bool = False) -> None:
    """Start checks of a group: every row of ``a`` and ``b`` ``(F, m, d)``
    must be orthogonal to its trajectory's start velocity ``v`` ``(F, d)``
    and, with ``nonzero``, no pair ``(a[f], b[f])`` may be zero.  One array
    pass, with the products of one row at a time; raises the error that the
    first failing trajectory raises alone."""
    aa, bb = row_dot(a, a), row_dot(b, b)
    scale = np.maximum(np.maximum(np.sqrt(aa), np.sqrt(bb)), 1e-300)
    res = np.maximum(np.abs(row_dot(a, v[:, None])), np.abs(row_dot(b, v[:, None])))
    skew = res > ORTHOGONALITY_TOL * scale
    fails = skew.any(axis=1)
    if nonzero:
        fails |= (aa + bb == 0.0).all(axis=1)
    if fails.any():
        f = int(np.argmax(fails))
        if not skew[f].any():
            raise ValueError(f"{what} must be nonzero")
        j = int(np.argmax(skew[f]))
        raise ValueError(f"{what} components must be orthogonal to the velocity "
                         f"(residual {res[f, j] / scale[f, j]:.3e} relative)")


# The collision kernel maps one event per row: stacks ``x`` ``(F, m, d)``
# with that row's unit velocity ``v`` and normal ``nu`` ``(F, d)``, scalars
# ``(F,)`` and curvature ``K`` ``(F, d, d)``.

def _projected_curvature(x: np.ndarray, v: np.ndarray, vn: np.ndarray, nu: np.ndarray,
                         K: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(P x, P* K P x)`` for the projection ``P x = x - (<x, nu>/vn) v``.

    ``P`` maps ``v^perp`` along the unit velocity ``v`` onto the boundary
    tangent plane ``nu^perp`` (``vn = <v, nu>``); its adjoint is
    ``P* y = y - (<y, v>/vn) nu``.
    """
    u = x - ((x @ nu[:, :, None]) / vn[:, None, None]) * v[:, None]
    ku = u @ K.transpose(0, 2, 1)     # K u per row
    return u, ku - ((ku @ v[:, :, None]) / vn[:, None, None]) * nu[:, None]


def _covector_jump(z: np.ndarray, w: np.ndarray, nu: np.ndarray, cos_phi: np.ndarray,
                   K: np.ndarray, v_out: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(z+, w+)`` ``(F, 1, d)`` across the collisions and the closed-form
    drops of ``Q`` there ``(F,)``; ``v_out`` is the unit outgoing velocity."""
    w_plus = reflect(w, nu)
    u, kick = _projected_curvature(w_plus, v_out, cos_phi, nu, K)   # V1 R w-, V1* K V1 R w-
    z_plus = reflect(z, nu) - (2.0 * cos_phi)[:, None, None] * kick
    return z_plus, w_plus, 2.0 * cos_phi * row_dot(u @ K, u)[:, 0]


def _tangent_jump(dq: np.ndarray, dv: np.ndarray, nu: np.ndarray, cos_phi: np.ndarray,
                  K: np.ndarray, v_in: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(R dq-, R dv- + 2 cos_phi R V* K V dq-)`` per row; ``v_in`` is the
    unit incoming velocity."""
    _, kick = _projected_curvature(dq, v_in, row_dot(v_in, nu), nu, K)
    return reflect(dq, nu), reflect(dv + (2.0 * cos_phi)[:, None, None] * kick, nu)


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
        self.trajectory, self.segments = trajectory, trajectory.segments
        self.t_end, t = trajectory.t_end, trajectory.group.t[trajectory.rows]
        self.t0 = np.concatenate(([0.0], t))
        self.t1 = np.concatenate((t, [self.t_end]))
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


def _group(first, second) -> tuple[bool, list, list]:
    """``(one, trajectories, starts)`` of a pass called with one trajectory
    and its start or with two sequences of them."""
    if isinstance(first, Trajectory):
        return True, [first], [second]
    first, second = list(first), list(second)
    if len(first) != len(second):
        raise ValueError(f"{len(first)} trajectories with {len(second)} starts")
    return False, first, second


def _event_columns(trajectories: list[Trajectory], velocity: str) -> tuple[np.ndarray, ...]:
    """The events of a group as padded ``(F, E, ...)`` columns, for the
    lockstep steps of a transport pass.

    Returns ``order`` ``(F,)``, the trajectory of each row, by falling event
    count (stable), so that the trajectories with more than ``k`` events are
    the first ``rows[k]`` rows; ``rows`` ``(E,)``; ``start`` ``(F + 1,)``,
    each row's first segment with the rows' series laid out one after
    another; ``nu`` and the unit ``velocity`` (``"v_in"`` or ``"v_out"``)
    ``(F, E, d)``; and ``cos_phi``, the scatterer ``index`` and the duration
    ``dt`` of the segment that ends at the event, ``(F, E)``, padded with 0.
    """
    domain = trajectories[0].domain
    if any(t.domain is not domain for t in trajectories):
        raise ValueError("the trajectories of a group must share one domain")
    counts = np.array([t.event_count for t in trajectories])
    order = np.argsort(-counts, kind="stable")
    F, E, d = len(trajectories), int(counts.max()), domain.d
    nu, v = np.zeros((2, F, E, d))
    cos_phi, dt = np.zeros((2, F, E))
    index = np.zeros((F, E), dtype=np.intp)
    for row, f in enumerate(order.tolist()):
        ev = trajectories[f].columns
        c = len(ev.t)
        if not c:
            break
        vel = getattr(ev, velocity)
        # the bits of event.v / np.linalg.norm(event.v), one event at a time
        v[row, :c] = vel / np.sqrt(row_dot(vel, vel))[:, None]
        nu[row, :c], cos_phi[row, :c], index[row, :c] = ev.nu, ev.cos_phi, ev.scatterer_index
        # each segment's duration t1 - t0, the first from t0 = 0
        dt[row, :c] = ev.t - np.concatenate(([0.0], ev.t[:-1]))
    rows = (counts[order][:, None] > np.arange(E)).sum(axis=0)
    return order, rows, np.cumsum(np.append(0, counts[order] + 1)), nu, v, cos_phi, index, dt


def _reproject(x: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x`` ``(F, 1, d)`` minus its component along ``v`` ``(F, d)``, and the
    norm of that component ``(F,)``."""
    corr = (x @ v[:, :, None]) * v[:, None]
    return x - corr, np.sqrt(row_dot(corr, corr))[:, 0]


def transport_covector(trajectory: Trajectory | Sequence[Trajectory],
                       n0: Covector | Sequence[Covector],
                       curvature_scale: float = 1.0) -> TransportSeries | list[TransportSeries]:
    """Transport ``n0`` along the whole trajectory.

    ``trajectory`` and ``n0`` are one trajectory and its start covector, or
    two sequences of them, which move as one group: the list of their
    series, in order (``[]`` for none).  Each series is the one its
    trajectory alone gives.  Step ``k`` maps event ``k`` of every
    trajectory that has one, in one kernel call.

    After each collision the components are re-projected onto the outgoing
    velocity's orthogonal complement to kill rounding drift; the relative
    correction magnitude is recorded per event.  ``curvature_scale``
    rescales ``K`` (fault-injection hook for the adjointness negative
    control); it must be 1 for physical transport.
    """
    one, trajectories, n0s = _group(trajectory, n0)
    if not trajectories:
        return []
    z = np.array([n.z for n in n0s], dtype=float)[:, None]
    w = np.array([n.w for n in n0s], dtype=float)[:, None]
    _check_starts(z, w, np.array([t.start.v for t in trajectories]), "covector", nonzero=True)
    domain = trajectories[0].domain
    order, rows, start, nu, v, cos_phi, index, dt = _event_columns(trajectories, "v_out")
    F, E, d = nu.shape
    z, w = z[order], w[order]
    zs, ws = np.empty((2, start[-1], d))
    zs[start[:-1]], ws[start[:-1]] = z[:, 0], w[:, 0]
    drops, corrs = np.empty((2, start[-1] - F))
    first = start[:-1] - np.arange(F)       # each row's first event
    # a covector (or its quadratic Q drop, first) may leave the double range
    # on a long horizon: the series then holds inf or nan, which the
    # diagnostics report as a range error
    with np.errstate(over="ignore", invalid="ignore"):
        for k, n in enumerate(rows.tolist()):
            z, w = z[:n], w[:n]
            v_out = v[:n, k]
            K = curvature_scale * curvature_at(domain, index[:n, k], nu[:n, k])
            z, w, drops[first[:n] + k] = _covector_jump(z, w - dt[:n, k, None, None] * z,
                                                        nu[:n, k], cos_phi[:n, k], K, v_out)
            z, cz = _reproject(z, v_out)
            w, cw = _reproject(w, v_out)
            scale = np.maximum(np.maximum(np.sqrt(row_dot(z, z)), np.sqrt(row_dot(w, w))),
                               1e-300)[:, 0]
            corr = (cz + cw) / scale
            corrs[first[:n] + k] = np.where(np.isfinite(corr), corr, np.inf)
            zs[start[:n] + k + 1], ws[start[:n] + k + 1] = z[:, 0], w[:, 0]
    series: list = [None] * F
    for row, (f, a, b) in enumerate(zip(order.tolist(), start[:-1].tolist(), start[1:].tolist())):
        series[f] = TransportSeries(trajectories[f], n0s[f], zs[a:b], ws[a:b],
                                    drops[a - row:b - row - 1], corrs[a - row:b - row - 1])
    return series[0] if one else series


def transport_tangent(trajectory: Trajectory | Sequence[Trajectory],
                      dy0: TangentVector | Sequence[TangentVector]
                      ) -> TangentSeries | list[TangentSeries]:
    """Push ``dy0`` (a vector or a stack) forward with the derivative of the flow.

    ``trajectory`` and ``dy0`` are one trajectory and its start, or two
    sequences of them (starts of one shape), which move as one group like
    :func:`transport_covector`'s.
    """
    one, trajectories, dy0s = _group(trajectory, dy0)
    if not trajectories:
        return []
    # C order: the collision maps' BLAS products round differently on a
    # Fortran-ordered stack, such as np.vstack of the transposed complement basis
    dq = np.array([np.atleast_2d(dy.dq) for dy in dy0s], dtype=float)
    dv = np.array([np.atleast_2d(dy.dv) for dy in dy0s], dtype=float)
    _check_starts(dq, dv, np.array([t.start.v for t in trajectories]), "tangent vector")
    domain = trajectories[0].domain
    order, rows, start, nu, v, cos_phi, index, dt = _event_columns(trajectories, "v_in")
    dq, dv = dq[order], dv[order]
    dqs, dvs = np.empty((2, start[-1], *dq.shape[1:]))
    dqs[start[:-1]], dvs[start[:-1]] = dq, dv
    # like the covector, a tangent vector may leave the double range; its
    # pairings are then not finite (see adjoint_residual)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, n in enumerate(rows.tolist()):
            dq, dv = dq[:n], dv[:n]
            K = curvature_at(domain, index[:n, k], nu[:n, k])
            dq, dv = _tangent_jump(dq + dt[:n, k, None, None] * dv, dv, nu[:n, k],
                                   cos_phi[:n, k], K, v[:n, k])
            dqs[start[:n] + k + 1], dvs[start[:n] + k + 1] = dq, dv
    series: list = [None] * len(trajectories)
    for f, a, b in zip(order.tolist(), start[:-1].tolist(), start[1:].tolist()):
        shape = (b - a, *np.shape(dy0s[f].dq))
        series[f] = TangentSeries(trajectories[f], dqs[a:b].reshape(shape),
                                  dvs[a:b].reshape(shape))
    return series[0] if one else series


# ---------------------------------------------------------------------------
# Adjoint-identity verification
# ---------------------------------------------------------------------------

def _complement_basis(v: np.ndarray) -> np.ndarray:
    """Row-orthonormal basis ``(d-1, d)`` of the hyperplane orthogonal to a
    vector ``v``, or one per row of a stack ``(F, d)``, in one QR call.  Each
    basis has the bits of its vector's own call: the unit vector divides by
    the norm of one row (``np.linalg.norm(axis=1)`` sums in another order)."""
    d = v.shape[-1]
    u = v / np.sqrt(row_dot(v, v))[..., None]
    m = np.concatenate([u[..., None], np.broadcast_to(np.eye(d), (*v.shape[:-1], d, d))],
                       axis=-1)
    q, _ = np.linalg.qr(m)
    return q[..., 1:d].swapaxes(-1, -2)


def transversal_basis(v: Vec) -> list[TangentVector]:
    """Basis of the transversal tangent space at velocity ``v``: 2(d-1) vectors."""
    zero = np.zeros(v.shape[0])
    basis = _complement_basis(v)
    return [TangentVector(e.copy(), zero.copy()) for e in basis] + \
           [TangentVector(zero.copy(), e.copy()) for e in basis]


def adjoint_residual(series: TransportSeries | Sequence[TransportSeries]) -> float | list[float]:
    """Worst relative violation of the transport-invariance of the pairing.

    ``series`` is a covector already transported along its trajectory, or a
    sequence of them, answered with the list of their residuals.  The
    trajectories' ``transversal_basis`` stacks, ``(2(d-1), d)`` each, come
    from one QR call for the whole group.  For each basis vector the pairing
    of the forward-transported tangent vector with the transported covector
    must equal its initial value at every segment endpoint.  The stacks move
    in lockstep passes over blocks of the series, taken by falling event
    count, whose ``dq`` and ``dv`` stacks hold at most ``TANGENT_VALUES``
    values each (or one series'): step ``k`` pairs both ends of segment
    ``k`` of every series that has it, then maps event ``k`` with the
    tangent side of the collision kernel, so no tangent history is kept.  A
    series' tangents and pairings do not depend on the other series of its
    block.  The residual at time
    ``t`` is normalized by the larger of the initial and current magnitude
    products: the pairing is evaluated by cancellation of terms of that size,
    which is the scale fixed precision can certify.  A pairing that is not
    finite makes the residual infinite.  A series transported with a rescaled
    curvature breaks adjointness and must produce a large residual (negative
    control).
    """
    one = isinstance(series, TransportSeries)
    group = [series] if one else list(series)
    if not group:
        return []
    v0 = np.array([s.trajectory.start.v for s in group])
    basis = _complement_basis(v0)
    zero = np.zeros_like(basis)
    # not C-ordered: the basis is a transposed view; the initial pairings and
    # norms are formed on this layout, the moves on C-ordered copies, whose
    # BLAS products round as the tangent pass's do
    dq0, dv0 = np.concatenate([basis, zero], axis=1), np.concatenate([zero, basis], axis=1)
    _check_starts(dq0, dv0, v0, "tangent vector")
    order = np.argsort([-s.trajectory.event_count for s in group], kind="stable")
    size = max(1, TANGENT_VALUES // dq0[0].size)
    worst = np.empty(len(group))
    for a in range(0, len(group), size):
        part = order[a:a + size]
        worst[part] = _block_residuals([group[f] for f in part.tolist()], dq0[part], dv0[part])
    worst = [math.inf if math.isnan(x) else x for x in worst.tolist()]
    return worst[0] if one else worst


def _block_residuals(block: list[TransportSeries], dq: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """The residuals ``(F,)`` of a block of series in falling event count,
    nan for a pairing that is not finite, with their basis stacks ``dq`` and
    ``dv`` ``(F, m, d)``: one lockstep tangent pass."""
    _, rows, start, nu, v, cos_phi, index, _ = _event_columns(
        [s.trajectory for s in block], "v_in")
    n0 = [s.n0 for s in block]
    p0 = (dq @ np.array([n.z for n in n0])[:, :, None])[..., 0] \
        + (dv @ np.array([n.w for n in n0])[:, :, None])[..., 0]      # (F, m)
    base = TangentVector(dq, dv).norm() * np.array([s.n0_norm for s in block])[:, None]
    dq, dv = np.ascontiguousarray(dq), np.ascontiguousarray(dv)
    z_all, w0_all = (np.concatenate([getattr(s, name) for s in block]) for name in ("z", "w0"))
    dt_all = np.concatenate([s.t1 - s.t0 for s in block])
    domain = block[0].trajectory.domain
    err = np.full(len(block), -np.inf)
    # the endpoint values and the per-vector products of TangentVector.norm,
    # Covector.norm and pairing, one endpoint at a time; a value past the
    # double range makes the residual infinite
    with np.errstate(over="ignore", invalid="ignore"):
        for k, n in enumerate([len(block), *rows.tolist()]):
            i = start[:n] + k                  # segment k of the first n rows
            z, w0, dt = z_all[i], w0_all[i], dt_all[i]
            z_sq, dv_sq = row_dot(z, z), np.einsum("...i,...i", dv, dv)
            for tau in (dt - dt, dt):          # time since the segment start
                w = w0 - tau[:, None] * z
                end = tau[:, None, None] * dv + dq
                n_norm = np.sqrt(z_sq + row_dot(w, w))
                dy_norm = np.sqrt(np.einsum("...i,...i", end, end) + dv_sq)
                scale = np.maximum(np.maximum(base[:n], dy_norm * n_norm[:, None]), 1e-300)
                paired = (end @ z[..., None])[..., 0] + (dv @ w[..., None])[..., 0]
                err[:n] = np.maximum(err[:n], (np.abs(paired - p0[:n]) / scale).max(axis=1))
            if k < len(rows):                  # from the end of segment k
                m = rows[k]
                K = curvature_at(domain, index[:m, k], nu[:m, k])
                dq, dv = _tangent_jump(end[:m], dv[:m], nu[:m, k], cos_phi[:m, k], K, v[:m, k])
    return err
