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
preserves it.

A pass walks a group of trajectories' events once, in lockstep (one
trajectory is a group of one): step ``k`` pairs both ends of segment ``k``
when the pass checks adjointness, then maps event ``k`` of every trajectory
that has it, with one ``curvature_at`` call that the covector, the check's
tangent stacks and the fault hook's covector share.  The state is a
C-ordered stack ``(F, m, d)`` per row (``m = 1`` for a covector component)
and every product issues, per row, the BLAS call of the 1-d form of one
event: a dot for ``<x, nu>`` of a vector (as ``geometry.row_dot``), a
``gemv`` for ``<x, nu>`` of a stack and for ``K u`` of a vector, a ``gemm``
for ``K u`` of a stack.  The other operations act elementwise, so each series
keeps the bits of the trajectory transported alone, one event at a time.

A transported series is a set of read-only columns over the trajectory's
free segments (``series.segments`` is the trajectory's own): ``t0`` and
``t1`` ``(S,)``; for a covector ``z`` and ``w0`` ``(S, d)``, its value at
each segment's start, and per collision ``q_drop`` and ``reprojection``
``(E,)``; for tangent vectors (or stacks) ``dq0`` and ``dv`` ``(S, [m,] d)``.
``covector_at`` and ``tangent_at`` evaluate the free-flight formula from
one row; at an event, ``side="pre"`` and ``"post"`` read the two sides of
one collision map.  The maps check no angle: ``flow`` ends a trajectory at
a grazing impact, so every recorded event has ``cos_phi`` at or above its
positive cutoff.  The only fault hook is ``transport_covector``'s
``adjoint`` other than 1: the check then pairs a second covector, moved
with that multiple of ``K``, which no series holds (``--corrupt-curvature``).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import budget
from .dynamics import Trajectory
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
    onto the outgoing velocity's orthogonal complement.  ``residual`` is the
    adjoint residual recorded by a checking pass, else ``None``.
    """

    def __init__(self, trajectory: Trajectory, n0: Covector, z: np.ndarray, w0: np.ndarray,
                 q_drop: np.ndarray, reprojection: np.ndarray, residual: float | None = None):
        super().__init__(trajectory, z, w0, q_drop, reprojection)
        self.n0, self.residual = n0, residual
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


# a group's event columns and one lockstep step over some of their rows
_Columns = namedtuple("_Columns", "domain order segs start ev seg nu v_in v_out cos_phi index dt")
_Step = namedtuple("_Step", "k n m dt nu v_in v_out cos_phi K")


def _event_columns(trajectories: list[Trajectory], tangents: bool = True) -> _Columns:
    """The events of a group as columns, built once a pass: ``order``
    ``(F,)``, the trajectory of each row, by falling event count (stable),
    so that the first ``segs[k]`` rows have segment ``k`` (``segs``
    ``(E + 2,)`` ends in 0); ``start`` ``(F + 1,)``, each row's first
    segment, the rows' series laid out one after another.  The columns hold
    the rows' events step by step, without padding: event ``k`` of row
    ``r`` at ``ev[k] + r``, segment ``k`` at ``seg[k] + r``.  Per event:
    ``nu``, the unit ``v_out`` and ``v_in`` (``None`` without ``tangents``),
    ``cos_phi`` and the scatterer ``index``; per segment its duration
    ``dt``, the last one's up to ``t_end``."""
    domain = trajectories[0].domain
    if any(t.domain is not domain for t in trajectories):
        raise ValueError("the trajectories of a group must share one domain")
    counts = np.array([t.event_count for t in trajectories])
    order = np.argsort(-counts, kind="stable")
    rows = [trajectories[f] for f in order.tolist()]
    c, F = counts[order], len(rows)
    # the rows with at least k events, k = 0 .. E + 1
    segs = np.searchsorted(-c, -np.arange(c[0] + 2), side="right")
    ev, seg = (np.concatenate(([0], np.cumsum(x))) for x in (segs[1:-1], segs[:-1]))
    start = np.cumsum(np.append(0, c + 1))
    # each event's and each segment's place, from the rows one after another
    at = np.repeat(np.arange(F), c)
    at += ev[np.arange(c.sum()) - np.repeat(start[:-1] - np.arange(F), c)]
    at_seg = np.repeat(np.arange(F), c + 1)
    at_seg += seg[np.arange(start[-1]) - np.repeat(start[:-1], c + 1)]

    def stepwise(x: np.ndarray, where: np.ndarray = at) -> np.ndarray:
        out = np.empty_like(x)
        out[where] = x
        return out

    def column(name: str, unit: bool = False) -> np.ndarray:
        x = np.concatenate([getattr(r.group, name)[r.rows] for r in rows])
        # the bits of event.v / np.linalg.norm(event.v), one event at a time
        return stepwise(x / np.sqrt(row_dot(x, x))[:, None] if unit else x)

    # each segment's t1 - t0, from t0 = 0 to t_end
    t1 = np.concatenate([np.append(r.group.t[r.rows], r.t_end) for r in rows])
    t0 = np.append(0.0, t1[:-1])
    t0[start[:-1]] = 0.0
    return _Columns(domain, order, segs, start, ev.tolist(), seg.tolist(), column("nu"),
                    column("v_in", True) if tangents else None, column("v_out", True),
                    column("cos_phi"), column("scatterer_index"), stepwise(t1 - t0, at_seg))


def _steps(cols: _Columns, a: int, b: int):
    """The lockstep steps of rows ``a:b`` of a group's columns, one per
    segment of row ``a``: step ``k`` holds the ``n`` rows from ``a`` that
    have segment ``k``, its durations ``dt`` ``(n,)``, and the first ``m``,
    which end it at event ``k``, that event's columns and curvature ``K``
    ``(m, d, d)``, one ``curvature_at`` call (none at the last, ``m = 0``):
    views of the columns."""
    held = np.clip(cols.segs - a, 0, b - a).tolist()
    for k in range(held.index(0)):
        n, m = held[k], held[k + 1]
        e = slice(cols.ev[k] + a, cols.ev[k] + a + m)
        yield _Step(k, n, m, cols.dt[cols.seg[k] + a:cols.seg[k] + a + n], cols.nu[e],
                    None if cols.v_in is None else cols.v_in[e], cols.v_out[e], cols.cos_phi[e],
                    curvature_at(cols.domain, cols.index[e], cols.nu[e]) if m else None)


def _covector_step(z: np.ndarray, w: np.ndarray, s: _Step, K: np.ndarray) -> tuple:
    """The covector ``(z, w)`` ``(m, 1, d)`` from the start of segment ``s.k``
    to the start of the next: its flight, the collision map at event ``k`` with
    curvature ``K`` and the re-projection onto ``v_out^perp``.  Returns ``(z, w)``
    with the closed-form drops of ``Q`` and the relative corrections, ``(m,)``."""
    v, c = s.v_out, 2.0 * s.cos_phi
    w = reflect(w - s.dt[:s.m, None, None] * z, s.nu)
    u, kick = _projected_curvature(w, v, s.cos_phi, s.nu, K)     # V1 R w-, V1* K V1 R w-
    z = reflect(z, s.nu) - c[:, None, None] * kick
    cz, cw = ((x @ v[:, :, None]) * v[:, None] for x in (z, w))
    z, w = z - cz, w - cw
    scale = np.maximum(np.maximum(np.sqrt(row_dot(z, z)), np.sqrt(row_dot(w, w))), 1e-300)
    corr = ((np.sqrt(row_dot(cz, cz)) + np.sqrt(row_dot(cw, cw))) / scale)[:, 0]
    return z, w, c * row_dot(u @ K, u)[:, 0], np.where(np.isfinite(corr), corr, np.inf)


def transport_covector(trajectory: Trajectory | Sequence[Trajectory],
                       n0: Covector | Sequence[Covector],
                       adjoint: float | None = None) -> TransportSeries | list[TransportSeries]:
    """Transport ``n0`` along the whole trajectory.

    ``trajectory`` and ``n0`` are one trajectory and its start covector, or
    two sequences of them, which move as one group: the list of their
    series, in order (``[]`` for none).  Each series is the one its
    trajectory alone gives.  After each collision the components are
    re-projected onto the outgoing velocity's orthogonal complement to kill
    rounding drift; the relative correction magnitude is recorded per event.
    With ``adjoint = s`` each series also records its adjoint residual,
    paired with the covector moved with ``s K``: 1 is the physical check;
    another value is the negative control's fault hook, whose covector only
    the check sees.  The group then moves in blocks by falling event count,
    of as many series as the byte budget fits (:func:`_adjoint_bytes`).
    """
    one, trajectories, n0s = _group(trajectory, n0)
    if not trajectories:
        return []
    z = np.array([n.z for n in n0s], dtype=float)[:, None]
    w = np.array([n.w for n in n0s], dtype=float)[:, None]
    v0 = np.array([t.start.v for t in trajectories])
    _check_starts(z, w, v0, "covector", nonzero=True)
    cols = _event_columns(trajectories, tangents=adjoint is not None)
    order, start = cols.order, cols.start
    F, d = z.shape[0], z.shape[-1]
    z, w = z[order], w[order]
    zs, ws = np.empty((2, start[-1], d))
    zs[start[:-1]], ws[start[:-1]] = z[:, 0], w[:, 0]
    drops, corrs = np.empty((2, start[-1] - F))
    first = start[:-1] - np.arange(F)       # each row's first event
    size = F if adjoint is None else budget.fit(_adjoint_bytes(d))
    worst = np.full(F, -np.inf)
    # a covector (or its quadratic Q drop, first) may leave the double range
    # on a long horizon: the series then holds inf or nan, which the
    # diagnostics report as a range error; a tangent's pairings turn nan
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, F, size):
            b = min(a + size, F)
            zb, wb = z[a:b], w[a:b]
            if adjoint is not None:
                dq, dv, p0, base = _adjoint_start(v0[order[a:b]], [n0s[f] for f in order[a:b]])
                zc, wc, err = zb, wb, worst[a:b]
            for s in _steps(cols, a, b):
                if adjoint is not None:
                    end = _pair_segment(err[:s.n], p0[:s.n], base[:s.n], dq, dv,
                                        zc[:, 0], wc[:, 0], s.dt)
                if not s.m:
                    break
                e = slice(a, a + s.m)
                zb, wb, drops[first[e] + s.k], corrs[first[e] + s.k] = \
                    _covector_step(zb[:s.m], wb[:s.m], s, s.K)
                zs[start[e] + s.k + 1], ws[start[e] + s.k + 1] = zb[:, 0], wb[:, 0]
                if adjoint is not None:
                    dq, dv = _tangent_jump(end[:s.m], dv[:s.m], s.nu, s.cos_phi, s.K, s.v_in)
                    zc, wc = (zb, wb) if adjoint == 1.0 else \
                        _covector_step(zc[:s.m], wc[:s.m], s, adjoint * s.K)[:2]
    residuals = [None] * F if adjoint is None else np.where(np.isnan(worst), np.inf, worst).tolist()
    series: list = [None] * F
    for row, (f, a, b) in enumerate(zip(order.tolist(), start[:-1].tolist(), start[1:].tolist())):
        series[f] = TransportSeries(trajectories[f], n0s[f], zs[a:b], ws[a:b],
                                    drops[a - row:b - row - 1], corrs[a - row:b - row - 1],
                                    residuals[row])
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
    cols = _event_columns(trajectories)
    order, start = cols.order, cols.start
    dq, dv = dq[order], dv[order]
    dqs, dvs = np.empty((2, start[-1], *dq.shape[1:]))
    dqs[start[:-1]], dvs[start[:-1]] = dq, dv
    # like the covector, a tangent vector may leave the double range; its
    # pairings are then not finite (see adjoint_residual)
    with np.errstate(over="ignore", invalid="ignore"):
        for s in _steps(cols, 0, len(trajectories)):
            if s.m:
                dq, dv = _tangent_jump(dq[:s.m] + s.dt[:s.m, None, None] * dv[:s.m], dv[:s.m],
                                       s.nu, s.cos_phi, s.K, s.v_in)
                dqs[start[:s.m] + s.k + 1], dvs[start[:s.m] + s.k + 1] = dq, dv
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


def _adjoint_bytes(d: int) -> int:
    """Bytes one series allocates in a block of a checking pass, whatever
    its event count: ten arrays of ``2(d - 1) x d`` values, its tangent
    stacks ``dq`` and ``dv`` and the eight temporaries of their size that a
    step's pairing and tangent jump build."""
    return 8 * 10 * 2 * (d - 1) * d


def _adjoint_start(v: np.ndarray, n0: list[Covector]) -> tuple[np.ndarray, ...]:
    """A block's ``transversal_basis`` stacks ``dq`` and ``dv`` ``(F, 2(d-1), d)``
    at the start velocities ``v`` ``(F, d)``, in C order, with their pairings
    ``p0`` with ``n0`` and magnitude products ``base`` ``(F, 2(d-1))``."""
    basis = _complement_basis(v)
    zero = np.zeros_like(basis)
    # not C-ordered (the basis is a transposed view): p0 and base are formed on
    # this layout, the moves on C-ordered copies, which round as the tangent pass
    dq, dv = np.concatenate([basis, zero], axis=1), np.concatenate([zero, basis], axis=1)
    _check_starts(dq, dv, v, "tangent vector")
    p0 = (dq @ np.array([n.z for n in n0])[:, :, None])[..., 0] \
        + (dv @ np.array([n.w for n in n0])[:, :, None])[..., 0]
    base = TangentVector(dq, dv).norm() * np.array([n.norm() for n in n0])[:, None]
    return np.ascontiguousarray(dq), np.ascontiguousarray(dv), p0, base


def _pair_segment(err: np.ndarray, p0: np.ndarray, base: np.ndarray, dq: np.ndarray,
                  dv: np.ndarray, z: np.ndarray, w0: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """Fold the errors of the per-vector pairings (and norms) of the stacks
    ``dq`` and ``dv`` ``(n, m, d)`` with ``(z, w0)`` ``(n, d)``, both at the
    start of segments of duration ``dt`` ``(n,)``, at both ends into ``err``
    ``(n,)``, nan for a pairing that is not finite; returns ``dq`` at the end."""
    z_sq, dv_sq = row_dot(z, z), np.einsum("...i,...i", dv, dv)
    for tau in (dt - dt, dt):          # time since the segment start
        w = w0 - tau[:, None] * z
        end = tau[:, None, None] * dv + dq
        n_norm = np.sqrt(z_sq + row_dot(w, w))
        dy_norm = np.sqrt(np.einsum("...i,...i", end, end) + dv_sq)
        scale = np.maximum(np.maximum(base, dy_norm * n_norm[:, None]), 1e-300)
        paired = (end @ z[..., None])[..., 0] + (dv @ w[..., None])[..., 0]
        np.maximum(err, (np.abs(paired - p0) / scale).max(axis=1), out=err)
    return end


def adjoint_residual(series: TransportSeries | Sequence[TransportSeries]) -> float | list[float]:
    """Worst relative violation of the transport-invariance of the pairing.

    ``series`` is a transported covector, or a sequence of them, answered
    with the list of their residuals: those ``transport_covector(...,
    adjoint=s)`` recorded, else those of one such pass with ``s = 1`` over
    their trajectories and starts.  For each ``transversal_basis`` vector
    the pairing of the forward-transported tangent vector with the covector
    must equal its initial value at every segment endpoint; the pass pairs
    both ends of segment ``k`` before it maps event ``k``, so no tangent
    history is kept.  The residual at time ``t`` is normalized by the larger
    of the initial and current magnitude products, the scale at which fixed
    precision certifies the cancellation.  A pairing that is not finite
    makes the residual infinite; a rescaled curvature must make it large.
    """
    one = isinstance(series, TransportSeries)
    group = [series] if one else list(series)
    todo = [s for s in group if s.residual is None]
    fresh = iter(transport_covector([s.trajectory for s in todo], [s.n0 for s in todo],
                                    adjoint=1.0))
    worst = [next(fresh).residual if s.residual is None else s.residual for s in group]
    return worst[0] if one else worst
