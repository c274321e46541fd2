"""Event-driven billiard flow.

The particle moves in straight lines at unit speed and reflects specularly
off scatterer boundaries.  Collision times are found in closed form
(quadratic roots against nearby periodic scatterer images, linear crossings
for halfspaces), searched window by window along the flight so that only a
small neighbourhood of lattice images is examined at a time.

One call of :func:`_window_candidates` searches a chunk of up to
``Domain.window_chunk`` consecutive windows (7 on 2-d Sinai, 16 on Sinai
with d >= 3, 1 on hard balls: about 64 image rows per call), and evaluates
every scatterer, image and window of the domain's stacks (``Domain.stacks``:
scatterers of one kind and shape as arrays) in one array pass per stack.
It returns the first window that holds a root, or how many windows it
searched, and :func:`next_collision` starts its next chunk there.  The
windows are tiled by the same running sum ``t_lo += hi`` as one window at a
time.  The velocity terms (the velocity transverse to each axis and its
squared norm) depend only on the flight, so each :func:`next_collision`
computes them once.  The batched products issue the same BLAS call per
(window, scatterer) block as an unstacked scan of one window, so every root
keeps its bits; ties go to the lower scatterer index, then the earlier image.

Sphere stacks on a torus with d >= 3 (``ScattererStack.reach_sq`` set, at
least 27 images) get a broad phase in front of that scan: a window skips the
stack when the box around its flight segment, ``mid +- (hi/2)|v|``, stays
farther than ``reach`` (the radius plus a margin of ``1e-6 L``, argued in
``tolerances.py``) from every lattice image of every center of the stack.
The skipped scan would find no root, and a window that is not skipped runs
the scan unchanged on the same lattice shift, so outputs keep their bits.
The broad phase tests all windows of a chunk at once and scans only those
in reach, at most ``max(64, one window's images)`` rows per call: on 8-d
Sinai one window of 6561 images, where about 93% of the windows are skipped.
A chunk ends before the first window in reach beyond that cap.  2-d stacks
(9 images) and cylinders keep the plain scan.

Grazing impacts (cos phi below the cutoff) and near-simultaneous roots on
two distinct boundary pieces are singularities of the dynamics: the
trajectory terminates there instead of choosing a continuation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateCollisionError,
    EscapeError,
    GrazingSingularityError,
    InvalidStateError,
)
from .geometry import CHUNK_ROWS, Box, Domain, Vec, reflect, row_dot
from .tolerances import EPS_GRAZE, EPS_TIME_FACTOR, MAX_EVENTS_DEFAULT

TERMINATION_HORIZON = "reached_horizon"
TERMINATION_GRAZING = "grazing"
TERMINATION_DEGENERATE = "degenerate_collision"
TERMINATION_EVENT_CAP = "event_cap"
TERMINATION_ESCAPE = "escape_error"


@dataclass(eq=False)
class PhasePoint:
    """Position in the fundamental domain and unit velocity."""

    q: Vec
    v: Vec

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.v = np.asarray(self.v, dtype=float)


@dataclass(eq=False)
class CollisionEvent:
    """One specular reflection.

    ``t`` is the flow time of the impact, ``q`` the boundary point (wrapped),
    ``nu`` the inward unit normal, and ``cos_phi = <v_out, nu> = -<v_in, nu>``.
    """

    t: float
    q: Vec
    scatterer_index: int
    nu: Vec
    cos_phi: float
    v_in: Vec
    v_out: Vec


@dataclass(eq=False)
class FlightSegment:
    """Straight free flight from ``q0`` at time ``t0`` to time ``t1``."""

    t0: float
    t1: float
    q0: Vec
    v: Vec

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass(eq=False)
class Trajectory:
    """Flow output: ordered collision events plus the free segments between them.

    ``segments`` always has one more entry than ``events``; the final segment
    ends at ``t_end`` (the horizon, or the time of the terminating
    singularity/escape/cap).
    """

    domain: Domain
    start: PhasePoint
    horizon: float
    events: list[CollisionEvent]
    segments: list[FlightSegment]
    termination: str
    t_end: float
    end: PhasePoint
    max_speed_drift: float = 0.0

    @property
    def event_count(self) -> int:
        return len(self.events)

    def min_cos_phi(self) -> float:
        return min((e.cos_phi for e in self.events), default=1.0)


def _validate_phase_point(domain: Domain, x: PhasePoint) -> PhasePoint:
    speed = math.sqrt(x.v @ x.v)
    if not math.isfinite(speed) or abs(speed - 1.0) > 1e-6:
        raise InvalidStateError(f"velocity must be a unit vector (speed {speed})")
    q = domain.wrap(x.q)
    if not domain.contains(q):
        raise InvalidStateError("phase point lies inside a scatterer")
    return PhasePoint(q, x.v / speed)


@dataclass(eq=False)
class _Candidate:
    t: float
    scatterer_index: int
    xi0: Vec          # transverse offset at window start (relative to the image)
    xiv: Vec          # transverse velocity component
    radius: float


def _velocity_terms(domain: Domain, v: Vec) -> list[tuple]:
    """The velocity part of the window search: one triple per stack.

    Spheres and cylinders: ``vv``, the velocity transverse to each axis
    (``(S, d)``); ``a = <vv, vv>`` as an ``(S, 1)`` column; and an ``(S, 1)``
    mask of the scatterers the flight can reach (``a >= 1e-30``: a velocity
    along a cylinder's axis never reaches its boundary), ``None`` when it
    reaches all of them.  Halfspaces: ``None``; the normal speeds
    ``<v, normal>``; and the rows of the planes the flight approaches
    (negative normal speed).  All depend on ``v`` alone, so one flight
    computes them once.
    """
    terms = []
    for st in domain.stacks:
        rows = np.repeat(v[None, :], st.points.shape[0], axis=0)
        if st.kind == "halfspace":
            hv = row_dot(rows, st.normals)
            terms.append((None, hv, np.flatnonzero(hv < 0.0)))
            continue
        vv = st.transverse(rows)
        a = row_dot(vv, vv)[:, None]
        live = a >= 1e-30
        terms.append((vv, a, None if live.all() else live))
    return terms


def _window_candidates(domain: Domain, q: Vec, v: Vec, t_lo: list[float], hi: list[float],
                       terms: list) -> tuple[int, tuple[_Candidate, float] | None]:
    """Search a chunk of consecutive windows of the flight ``q + t v``: window
    ``w`` spans the local times (0, hi[w]] after ``t_lo[w]``.

    Returns ``(w, found)``.  ``found`` holds the earliest entering boundary
    root of window ``w``, the first window that holds one, with that
    window's second-smallest root (inf when there is none), in times local
    to the window start.  When no window holds a root, ``found`` is ``None``
    and ``w`` is the number of windows searched: all of them, or fewer when
    the row cap of a broad-phase stack stopped the chunk early.

    Each stack is evaluated in one array pass over all its scatterers,
    images and windows; a one-window chunk drops the window axis.  Ties go
    to the lower scatterer index, then the earlier image.
    """
    chunk = len(t_lo)
    if chunk == 1:
        (lo,), (hi,) = t_lo, hi
        half = 0.5 * hi
    else:
        hi = np.array(hi)
        lo, half = np.array(t_lo)[:, None], (0.5 * hi)[:, None]
    q_win = q + lo * v                                      # (W, d)
    periodic = domain.ambient.periodic
    if periodic:
        L = domain.ambient.side
        center = q_win + half * v
    # broad phase first: it decides how many windows the chunk can search.
    # A domain has at most one broad-phase stack, since every sphere of a
    # torus has the same 3^d images.
    n = chunk
    near = {}
    for i, st in enumerate(domain.stacks):
        if st.reach_sq is None:
            continue
        # the window's flight box is mid +- (hi/2)|v| per coordinate, and
        # |mid - shift| <= L/2, so the nearest lattice coordinate to each
        # interval is the one of shift and gap is the exact distance from
        # the box to the nearest image of the center
        mid = center[..., None, :] - st.points
        shift = L * np.rint(mid / L)
        gap = np.maximum(np.abs(mid - shift) - (half * np.abs(v))[..., None, :], 0.0)
        reach = ~(row_dot(gap, gap) > st.reach_sq).all(axis=-1)
        if chunk == 1:
            near[i] = (None, mid, shift) if reach else None
            continue
        # scan at most max(CHUNK_ROWS, one window's images) rows; the chunk
        # ends before the first window in reach beyond that
        wins = np.flatnonzero(reach)
        rows = st.deltas.shape[0] * st.deltas.shape[1]
        cap = max(CHUNK_ROWS, rows) // rows
        if wins.size > cap:
            n = int(wins[cap])
            wins = wins[:cap]
        near[i] = (wins, mid[wins], shift[wins]) if wins.size else None
    if n < chunk:
        q_win, hi = q_win[:n], hi[:n]
        if periodic:
            center = center[:n]

    hits = []
    for i, (st, (vv, a, live)) in enumerate(zip(domain.stacks, terms)):
        wins = None                     # the windows scanned, when not all
        if st.kind == "halfspace":
            h0 = row_dot(q_win[..., None, :] - st.points[live], st.normals[live])
            roots = -h0 / a[live]
            pos = np.flatnonzero((0.0 < roots) & (roots <= np.reshape(hi, (-1, 1))))
            roots = roots.reshape(-1)[pos]
            per = live.size
        else:
            qw = q_win
            if i in near:
                if near[i] is None:
                    continue
                wins, mid, shift = near[i]
                if wins is not None:
                    qw = q_win[wins]
            elif periodic:
                mid = center[..., None, :] - st.points
                shift = L * np.rint(mid / L)
            if periodic:
                offsets = st.transverse(shift)[..., None, :] + st.deltas
            else:
                offsets = st.deltas
            rel = st.transverse(qw[..., None, :] - st.points)
            xi0 = rel[..., None, :] - offsets                   # (W, S, m, d)
            b = (xi0 @ vv[:, :, None])[..., 0]
            flat = xi0.reshape(-1, xi0.shape[-1])
            c = np.einsum("ij,ij->i", flat, flat).reshape(b.shape) - st.radii_sq
            disc = b * b - a * c
            # only an approaching image (b < 0) can be entered within (0, hi]
            ok = (b < 0.0) & (disc >= 0.0)
            if live is not None:
                ok &= live
            pos = np.flatnonzero(ok)
            if not pos.size:
                continue
            # entering root is the smaller one; the sign-matched form
            # -(b + sign(b) sqrt(disc)), here sqrt(disc) - b, avoids
            # cancellation so that near-tangent discriminants stay meaningful
            S, m = b.shape[-2:]
            per = S * m
            if chunk == 1:
                rows, hw = pos // m, hi
            else:
                rows, hw = pos // m % S, (hi if wins is None else hi[wins])[pos // per]
            qq = np.sqrt(disc[ok]) - b[ok]
            roots = np.minimum(qq / a[rows, 0], c[ok] / qq)
            keep = (0.0 < roots) & (roots <= hw)
            pos, roots = pos[keep], roots[keep]
        if not roots.size:
            continue
        # the roots of this stack's first window with a root: a prefix
        first = int(pos[0]) // per
        if chunk > 1:
            roots = roots[:np.searchsorted(pos, (first + 1) * per)]
        k = int(roots.argmin())
        t = float(roots[k])
        roots[k] = np.inf
        t_next = float(roots.min())
        p = int(pos[k]) % per
        if st.kind == "halfspace":
            row = int(live[p])
            n_row = st.normals[row]
            cand = _Candidate(t, int(st.indices[row]), h0.reshape(-1)[pos[k]] * n_row,
                              a[row] * n_row, 0.0)
        else:
            row = p // m
            index = int(st.indices[row])
            cand = _Candidate(t, index, flat[pos[k]], vv[row],
                              domain.scatterers[index].radius)
        hits.append((first if wins is None else int(wins[first]), t_next, cand))
    if not hits:
        return n, None
    w = min(h[0] for h in hits)
    best: _Candidate | None = None
    t_second = np.inf
    for win, t_next, cand in hits:
        if win != w:
            continue
        if best is not None and (cand.t, cand.scatterer_index) > (best.t, best.scatterer_index):
            t_second = min(t_second, cand.t)
            continue
        t_second = min(t_second, t_next, np.inf if best is None else best.t)
        best = cand
    return w, (best, t_second)


def _polish_root(cand: _Candidate) -> float:
    """Newton-polish the boundary crossing time of a candidate root."""
    t = cand.t
    if cand.radius == 0.0:  # halfspace root is already exact (linear)
        return t
    for _ in range(4):
        xi = cand.xi0 + t * cand.xiv
        f = float(xi @ xi) - cand.radius ** 2
        df = 2.0 * float(xi @ cand.xiv)
        if df == 0.0:
            break
        step = f / df
        t -= step
        if abs(step) < 1e-16 * max(1.0, abs(t)):
            break
    return t


def next_collision(domain: Domain, x: PhasePoint, t_max: float,
                   eps_graze: float = EPS_GRAZE) -> CollisionEvent | None:
    """Earliest collision along the free flight from ``x``, or ``None``.

    Searches times in ``(eps_time, t_max]``.  Raises
    :class:`GrazingSingularityError` when the earliest impact is grazing,
    :class:`DegenerateCollisionError` when two boundary pieces are hit within
    the minimum time gap, and :class:`EscapeError` when a box ambient is left
    first.  Event times in the returned record are relative to ``x``.
    """
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    x = _validate_phase_point(domain, x)
    q, v = x.q, x.v
    scale = domain.length_scale
    eps_time = EPS_TIME_FACTOR * scale

    horizon = t_max
    escape_t = np.inf
    if isinstance(domain.ambient, Box):
        escape_t = domain.ambient.exit_time(q, v, slack=domain.eps_surface)
        horizon = min(horizon, escape_t + eps_time)

    terms = _velocity_terms(domain, v)
    window = 0.5 * scale
    t_lo = 0.0
    while t_lo < horizon:
        # the next chunk of windows, tiled by the same running sum as one
        # window at a time
        starts, widths = [], []
        t_end = t_lo
        while t_end < horizon and len(starts) < domain.window_chunk:
            hi = min(window, horizon - t_end)
            starts.append(t_end)
            widths.append(hi)
            t_end += hi
        w, found = _window_candidates(domain, q, v, starts, widths, terms)
        t_lo = starts[w] if w < len(starts) else t_end
        if found is None:
            continue
        best, t_second = found
        if t_lo + best.t <= eps_time:
            # a root this close to the previous event is a corner-like
            # multiple collision; skipping it would tunnel through the wall
            raise DegenerateCollisionError(
                "collision within the minimum time gap of the previous event",
                time=t_lo + best.t)
        t_best = t_lo + _polish_root(best)
        if t_second - best.t < eps_time:
            raise DegenerateCollisionError(
                "simultaneous collision with two boundary pieces", time=t_best)
        if t_best > escape_t + eps_time:
            raise EscapeError("particle left the box ambient", time=escape_t)
        xi = best.xi0 + (t_best - t_lo) * best.xiv
        if best.radius > 0.0:
            nu = xi / math.sqrt(xi @ xi)
        else:
            nu = domain.scatterers[best.scatterer_index].plane_normal
        cos_phi = -float(v @ nu)
        if cos_phi < eps_graze:
            raise GrazingSingularityError(
                f"grazing impact: cos(phi) = {cos_phi:.3e}", time=t_best)
        q_hit = domain.wrap(q + t_best * v)
        return CollisionEvent(t=t_best, q=q_hit, scatterer_index=best.scatterer_index,
                              nu=nu, cos_phi=min(cos_phi, 1.0), v_in=v.copy(),
                              v_out=reflect(v, nu))

    if escape_t <= t_max:
        raise EscapeError("particle left the box ambient", time=escape_t)
    return None


def flow(domain: Domain, x0: PhasePoint, T: float,
         max_events: int = MAX_EVENTS_DEFAULT, eps_graze: float = EPS_GRAZE) -> Trajectory:
    """Run the billiard flow from ``x0`` for time ``T``.

    Singularities never raise: they terminate the trajectory with the
    corresponding status.  An invalid initial state does raise (precondition).
    """
    if T <= 0.0:
        raise ValueError("horizon must be positive")
    x0 = _validate_phase_point(domain, x0)
    q, v = x0.q.copy(), x0.v.copy()
    t = 0.0
    events: list[CollisionEvent] = []
    segments: list[FlightSegment] = []
    max_drift = 0.0

    while True:
        try:
            ev = next_collision(domain, PhasePoint(q, v), T - t, eps_graze=eps_graze)
        except (GrazingSingularityError, DegenerateCollisionError) as e:
            t_end = t + (e.time if e.time is not None else 0.0)
            segments.append(FlightSegment(t, t_end, q, v))
            end = PhasePoint(domain.wrap(q + (t_end - t) * v), v)
            status = TERMINATION_GRAZING if isinstance(e, GrazingSingularityError) \
                else TERMINATION_DEGENERATE
            return Trajectory(domain, x0, T, events, segments, status,
                              t_end, end, max_drift)
        except EscapeError as e:
            t_end = t + (e.time if e.time is not None else 0.0)
            segments.append(FlightSegment(t, t_end, q, v))
            end = PhasePoint(q + (t_end - t) * v, v)
            return Trajectory(domain, x0, T, events, segments, TERMINATION_ESCAPE,
                              t_end, end, max_drift)

        if ev is None:
            segments.append(FlightSegment(t, T, q, v))
            end = PhasePoint(domain.wrap(q + (T - t) * v), v)
            return Trajectory(domain, x0, T, events, segments, TERMINATION_HORIZON,
                              T, end, max_drift)

        ev.t = t + ev.t
        segments.append(FlightSegment(t, ev.t, q, v))
        events.append(ev)
        speed = math.sqrt(ev.v_out @ ev.v_out)
        max_drift = max(max_drift, abs(speed - 1.0))
        q, v, t = ev.q, ev.v_out / speed, ev.t
        if len(events) >= max_events:
            segments.append(FlightSegment(t, t, q, v))
            return Trajectory(domain, x0, T, events, segments, TERMINATION_EVENT_CAP,
                              t, PhasePoint(q, v), max_drift)
        if t >= T:  # the collision landed exactly on the horizon
            segments.append(FlightSegment(t, T, q, v))
            return Trajectory(domain, x0, T, events, segments, TERMINATION_HORIZON,
                              T, PhasePoint(q, v), max_drift)
