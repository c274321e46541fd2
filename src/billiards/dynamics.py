"""Event-driven billiard flow.

The particle moves in straight lines at unit speed and reflects specularly
off scatterer boundaries.  Collision times are found in closed form
(quadratic roots against nearby periodic scatterer images, linear crossings
for halfspaces), searched window by window along the flight so that only a
small neighbourhood of lattice images is examined at a time.

Trajectories fly in lockstep (:func:`flow` of a group of starts).  In each
round, every flight of a group that is still searching for its next
collision hands its next chunk of up to ``WINDOW_CHUNK_MAX`` consecutive
windows (:func:`_chunk`: 7 on 2-d Sinai, 16 on Sinai with d >= 3, 1 on hard
balls, about ``CHUNK_ROWS`` image rows) to one call of
:func:`_window_candidates`.  That call evaluates every flight, window,
scatterer and image of the domain's stacks (``Domain.stacks``: scatterers of
one kind and shape as arrays) in one array pass per stack, velocity terms
included, and returns, for each flight whose chunk holds a root, the first
window that holds one.  :func:`_tile` tiles each chunk by the running sum
``t_lo += min(window, horizon - t_lo)`` of one window at a time, and pads a
chunk shorter than the others with windows of length 0, which hold no root.
An ensemble flies in balanced groups (:func:`flight_groups`), one
:func:`flow` call each, sized by two budgets: ``ROUND_ROWS`` image rows
bound the kernel arrays of a round, and ``GROUP_FLIGHTS`` flights bound the
trajectories and series a group holds until its caller has used them.  The
flight cap of 64 binds on 2-d Sinai, the 3-d cylinder, 3 hard disks and
Sinai with d >= 3 (45 starts fly as one group, 80 as 40 + 40); the row
budget allows 21 flights of 6 hard disks (375 rows each) and one of 20 hard
disks (4750 rows).  The adjoint check's tangent stacks, which grow with the
event count, have a budget of their own (``transport.TANGENT_VALUES``).

The kernel returns the rows of those first hits as arrays, and the searches
of a round that found a root land in one array pass (:func:`_landings`):
the Newton polish of each root, with each row's own exits, the impact point,
the normal, ``cos phi``, the reflection and the speed of the reflected
velocity, from which the pass builds each search's :class:`CollisionEvent`.
Each search then ends in one per-flight tail, when its chunk holds a root
or when it reaches its horizon without one: :func:`next_collision`, given
the finished search's row, makes the corner gap, simultaneous root, escape
and grazing checks and returns the row's event, or returns ``None`` (raises
the escape) for a search without a root; :func:`_land` books the outcome
into the flight's own :class:`Trajectory`, which the flight fills from its
start to its end.  The state check of new searches (unit speed, position
outside every scatterer) runs once per round, as one array pass over the
flights that start one.  The batched products issue the same BLAS call per
(window, scatterer) block as an unstacked scan of one window of one flight,
every dot product of the landing pass is a ``row_dot`` with the bits of the
1-d one, and picking the first window, the best root and the second root
is pure selection, so every root and event keeps its bits; ties go to the
lower scatterer index, then the earlier image.  :func:`flow` of one start
and :func:`next_collision` without a finished search fly one start through
the same loop, but :func:`flow` checks (normalises) each start once more.

Sphere stacks on a torus with d >= 3 (``ScattererStack.reach_sq`` set, at
least 27 images) get a broad phase in front of that scan: a window skips the
stack when the box around its flight segment, ``mid +- (hi/2)|v|``, stays
farther than ``reach`` (the radius plus a margin of ``1e-6 L``, argued in
``tolerances.py``) from every lattice image of every center of the stack.
The skipped scan would find no root, and a window that is not skipped runs
the scan unchanged on the same lattice shift, so outputs keep their bits.
The broad phase tests all windows of a round at once and scans those in
reach, in flight order, in batches of at most ``max(ROUND_ROWS, one
window's images)`` rows: on 8-d Sinai one window of 6561 images per batch,
where about 93% of the windows are skipped.  A flight's windows after one
that holds a root leave the later batches.  2-d stacks (9 images) and
cylinders keep the plain scan.

Grazing impacts (cos phi below the cutoff) and near-simultaneous roots on
two distinct boundary pieces are singularities of the dynamics: the
trajectory terminates there instead of choosing a continuation.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BilliardError,
    DegenerateCollisionError,
    EscapeError,
    GrazingSingularityError,
    InvalidStateError,
)
from .geometry import Box, Domain, Vec, reflect, row_dot
from .tolerances import EPS_GRAZE, EPS_TIME_FACTOR, MAX_EVENTS_DEFAULT

TERMINATION_HORIZON = "reached_horizon"
TERMINATION_GRAZING = "grazing"
TERMINATION_DEGENERATE = "degenerate_collision"
TERMINATION_EVENT_CAP = "event_cap"
TERMINATION_ESCAPE = "escape_error"

# The collision search hands each flight's next chunk of up to
# WINDOW_CHUNK_MAX consecutive windows, as many as keep a chunk near
# CHUNK_ROWS image rows (:func:`_chunk`), to the kernel.  Small scans are
# dominated by the fixed cost of a call, not by array work.  A flight group
# (:func:`flight_groups`) has two budgets: ROUND_ROWS image rows bound the
# kernel arrays of a round, and GROUP_FLIGHTS flights bound the trajectories
# and series the group holds until its caller has used them.  What grows
# with a series' event count beyond that, the adjoint check's tangent
# stacks, is bounded where it is held (transport.TANGENT_VALUES).
CHUNK_ROWS = 64
WINDOW_CHUNK_MAX = 16
ROUND_ROWS = 8192
GROUP_FLIGHTS = 64


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


def _chunk(domain: Domain) -> tuple[int, int]:
    """How many flight windows one chunk of the search covers, and its image
    rows: ``CHUNK_ROWS`` over the images a window scans (S m per stack, S per
    broad-phase stack, whose windows are mostly skipped), between 1 and
    ``WINDOW_CHUNK_MAX`` windows."""
    images = max(1, sum(st.indices.size if st.deltas is None or st.reach_sq is not None
                        else st.indices.size * st.deltas.shape[1] for st in domain.stacks))
    windows = min(WINDOW_CHUNK_MAX, max(1, CHUNK_ROWS // images))
    return windows, windows * images


def _check_states(domain: Domain, q: np.ndarray, v: np.ndarray):
    """The state check of each row of ``(q, v)``, ``(P, d)``: unit speed
    within 1e-6, and a position outside every scatterer.

    Returns ``(ok, q_ok, v_ok, errors)``: the rows that pass, their wrapped
    positions and their velocities divided by their speed, and the
    :class:`InvalidStateError` of each failing row by row number.  Each row
    has the bits of a check of that state alone.
    """
    speed = np.sqrt(row_dot(v, v))
    unit = np.abs(speed - 1.0) <= 1e-6          # False for a non-finite speed
    q = domain.wrap(q)
    inside = domain.contains(q)
    errors = {int(j): InvalidStateError(
        f"velocity must be a unit vector (speed {float(speed[j])})")
        for j in np.flatnonzero(~unit)}
    for j in np.flatnonzero(unit & ~inside):
        errors[int(j)] = InvalidStateError("phase point lies inside a scatterer")
    ok = np.flatnonzero(unit & inside)
    return ok, q[ok], v[ok] / speed[ok, None], errors


def _image_roots(st, qw: np.ndarray, shift: np.ndarray | None, vv: np.ndarray,
                 a: np.ndarray, live: np.ndarray, hi: np.ndarray):
    """Entering boundary roots of a sphere or cylinder stack in ``R`` windows:
    from ``qw``, ``(R, d)``, over the local times (0, hi], with the lattice
    shift of each window and scatterer, ``(R, S, d)`` (``None`` off a torus),
    and each window's flight velocity transverse to each axis ``vv``,
    ``(R, S, d)``, its squared norm ``a`` and the mask ``live`` of the
    scatterers it can reach, both ``(R, S, 1)``.

    Returns ``(r, row, roots, xi0, xiv)``: each root's window and scatterer
    row, the root, its image's offset ``xi0`` at window start and the
    transverse velocity ``xiv``.
    """
    rel = st.transverse(qw[:, None, :] - st.points)
    if shift is None:
        xi0 = rel[..., None, :] - st.deltas                     # (R, S, m, d)
    else:
        # rel - (shift + deltas), in the one array of offsets: the largest
        # arrays of a pass are allocated once
        xi0 = st.transverse(shift)[..., None, :] + st.deltas
        np.subtract(rel[..., None, :], xi0, out=xi0)
    b = (xi0 @ vv[..., None])[..., 0]
    flat = xi0.reshape(-1, xi0.shape[-1])
    c = np.einsum("ij,ij->i", flat, flat).reshape(b.shape) - st.radii_sq
    disc = b * b - a * c
    # only an approaching image (b < 0) can be entered within (0, hi]
    ok = (b < 0.0) & (disc >= 0.0) & live
    pos = np.flatnonzero(ok)
    S, m = b.shape[-2:]
    r, row = np.divmod(pos // m, S)
    # entering root is the smaller one; the sign-matched form
    # -(b + sign(b) sqrt(disc)), here sqrt(disc) - b, avoids cancellation so
    # that near-tangent discriminants stay meaningful
    qq = np.sqrt(disc[ok]) - b[ok]
    roots = np.minimum(qq / a[r, row, 0], c[ok] / qq)
    keep = (0.0 < roots) & (roots <= hi[r])
    r, row = r[keep], row[keep]
    return r, row, roots[keep], flat[pos[keep]], vv[r, row]


def _window_candidates(domain: Domain, q: np.ndarray, v: np.ndarray, t_lo: np.ndarray,
                       hi: np.ndarray) -> tuple[np.ndarray, ...]:
    """Search a chunk of consecutive windows of each flight ``q[f] + t v[f]``,
    ``q`` and ``v`` ``(F, d)``: window ``w`` of flight ``f`` spans the local
    times (0, hi[f, w]] after ``t_lo[f, w]``, both ``(F, W)``; a window of
    length 0 pads a chunk shorter than the others.

    Returns the first hits as arrays, one row per flight whose chunk holds
    an entering boundary root, in flight order: ``(f, w, t, t_second,
    index, xi0, xiv, radius_sq)``, the flight, its first window ``w`` that
    holds a root, that window's earliest root and its second-smallest root
    (inf when there is none), in times local to the window start, and the
    earliest root's scatterer index, its image's offset ``xi0`` at window
    start, the transverse velocity ``xiv`` (``(H, d)`` each) and the squared
    radius from the stack's ``radii_sq`` (0 for a wall).  A flight without
    a hit searched its whole chunk.

    Each stack is evaluated in one array pass over all its flights, windows,
    scatterers and images; a broad-phase stack scans its windows in reach
    in batches of at most ``max(ROUND_ROWS, one window's images)`` image
    rows.  The velocity terms of a stack (the velocity transverse to each
    axis and its squared norm, or the normal speeds of the planes) depend
    on the flight alone, and a flight reaches only the scatterers with
    ``a >= 1e-30`` (a velocity along a cylinder's axis never reaches its
    boundary) or the planes it approaches.  Ties go to the lower scatterer
    index, then the earlier image.
    """
    F, W = hi.shape
    d = domain.d
    # one row per window, flight by flight
    flight = np.repeat(np.arange(F), W)
    q_win = (q[:, None, :] + t_lo[..., None] * v[:, None, :]).reshape(F * W, d)
    half = 0.5 * hi.reshape(F * W, 1)
    hi = hi.reshape(F * W)
    periodic = domain.ambient.periodic
    if periodic:
        L = domain.ambient.side
        center = q_win + half * v[flight]

    # the roots of every pass: window, root, scatterer index, and the
    # root's xi0, xiv and squared radius (0 for a wall)
    found = []

    def add(st, w, row, roots, xi0, xiv):
        if roots.size:
            radius_sq = np.zeros(roots.size) if st.radii_sq is None else st.radii_sq[row, 0]
            found.append((w, roots, st.indices[row], xi0, xiv, radius_sq))

    for st in domain.stacks:
        rows = np.repeat(v[:, None, :], st.points.shape[0], axis=1)
        if st.kind == "halfspace":
            hv = row_dot(rows, st.normals)                               # (F, S)
            h0 = row_dot(q_win[:, None, :] - st.points, st.normals)      # (F W, S)
            pos = np.flatnonzero((hv < 0.0)[flight])
            r, row = np.divmod(pos, h0.shape[1])
            roots = -h0.reshape(-1)[pos] / hv[flight[r], row]
            keep = (0.0 < roots) & (roots <= hi[r])
            r, row, pos = r[keep], row[keep], pos[keep]
            n = st.normals[row]
            add(st, r, row, roots[keep], h0.reshape(-1)[pos, None] * n,
                hv[flight[r], row, None] * n)
            continue
        vv = st.transverse(rows)
        a = row_dot(vv, vv)[..., None]
        live = a >= 1e-30
        shift = None
        if periodic:
            mid = center[:, None, :] - st.points
            shift = L * np.rint(mid / L)
        if st.reach_sq is None:
            add(st, *_image_roots(st, q_win, shift, vv[flight], a[flight], live[flight], hi))
            continue
        # broad phase: the window's flight box is mid +- (hi/2)|v| per
        # coordinate, and |mid - shift| <= L/2, so the nearest lattice
        # coordinate to each interval is the one of shift and gap is the
        # exact distance from the box to the nearest image of the center
        gap = np.maximum(np.abs(mid - shift) - (half * np.abs(v)[flight])[:, None, :], 0.0)
        wins = np.flatnonzero(~(row_dot(gap, gap) > st.reach_sq).all(axis=-1) & (hi > 0.0))
        images = st.deltas.shape[0] * st.deltas.shape[1]
        size = max(ROUND_ROWS, images) // images
        hit = np.zeros(F, dtype=bool)
        while wins.size:
            batch, wins = wins[:size], wins[size:]
            f = flight[batch]
            r, *rest = _image_roots(st, q_win[batch], shift[batch], vv[f], a[f], live[f],
                                    hi[batch])
            add(st, batch[r], *rest)
            if r.size and wins.size:
                # a flight's windows after one with a root come too late
                hit[f[r]] = True
                wins = wins[~hit[flight[wins]]]
    if not found:
        none = np.zeros(0, dtype=np.intp)
        return (none, none, np.zeros(0), np.zeros(0), none, np.zeros((0, d)), np.zeros((0, d)),
                np.zeros(0))
    fw, roots, index, xi0, xiv, radius_sq = (np.concatenate(x) for x in zip(*found))
    # by flight and window, then root, then scatterer index; the sort is
    # stable, so a tie within one scatterer keeps the image order
    order = np.lexsort((index, roots, fw))
    fw, roots = fw[order], np.append(roots[order], np.inf)
    owner = flight[fw]
    heads = np.flatnonzero(np.concatenate(([True], owner[1:] != owner[:-1])))
    k = order[heads]
    # the second root of the window: the next one in order, if in it
    same = np.append(fw[1:] == fw[:-1], False)[heads]
    f, w = np.divmod(fw[heads], W)
    return (f, w, roots[heads], np.where(same, roots[heads + 1], np.inf), index[k], xi0[k],
            xiv[k], radius_sq[k])


class _Landing(NamedTuple):
    """One search's row of a round's landing pass (:func:`_landings`);
    times are from the search's checked state."""

    t_root: float          # the kernel's root
    gap: float             # from it to the window's second root (inf if none)
    event: CollisionEvent  # at the polished time, cos_phi not yet capped
    v_next: Vec            # the unit form of the reflected velocity
    drift: float           # its speed drift


def _landings(domain: Domain, q: np.ndarray, v: np.ndarray, t_lo: np.ndarray,
              root: np.ndarray, t_second: np.ndarray, index: np.ndarray, xi0: np.ndarray,
              xiv: np.ndarray, radius_sq: np.ndarray) -> list[_Landing]:
    """The impacts of the searches of a round that found a root, in one
    array pass: from the checked states ``(q, v)``, ``(H, d)``, the start
    ``t_lo`` of each one's first window with a root and that window's hit
    (:func:`_window_candidates`).

    Returns each search's :class:`_Landing`: the root and its gap to the
    window's second root, the :class:`CollisionEvent` (the polished impact
    time, the wrapped impact point, the scatterer index, the inward normal,
    ``-<v, nu>``, the row of ``v`` as ``v_in`` and the reflected velocity),
    the unit form of the reflected velocity and its speed drift, each with
    the bits of the same steps on that row alone.  ``v`` must be an array
    that nothing writes to later (the events hold its rows).  Rows that will
    end their flight (a corner gap, a grazing impact) are computed too,
    without warnings; :func:`next_collision` decides.
    """
    flat = domain._flat[index]
    t = root
    with np.errstate(divide="ignore", invalid="ignore"):
        # Newton polish of each sphere or cylinder root, at most 4 steps,
        # each row with its own exits; a wall's root is exact (linear)
        live = ~flat
        for _ in range(4):
            xi = xi0 + t[:, None] * xiv
            df = 2.0 * row_dot(xi, xiv)
            step = (row_dot(xi, xi) - radius_sq) / df
            moved = t - step
            go = live & (df != 0.0)
            t = np.where(go, moved, t)
            live = go & ~(np.abs(step) < 1e-16 * np.maximum(1.0, np.abs(moved)))
            if not live.any():
                break
        t_best = t_lo + t
        xi = xi0 + (t_best - t_lo)[:, None] * xiv
        nu = xi / np.sqrt(row_dot(xi, xi))[:, None]
        if flat.any():
            nu[flat] = [domain.scatterers[i].plane_normal for i in index[flat].tolist()]
        cos_phi = -row_dot(v, nu)
        v_out = reflect(v[:, None], nu)[:, 0]
        speed = np.sqrt(row_dot(v_out, v_out))
        gap = t_second - root
    events = map(CollisionEvent, t_best.tolist(), domain.wrap(q + t_best[:, None] * v),
                 index.tolist(), nu, cos_phi.tolist(), v, v_out)
    return list(map(_Landing._make, zip(
        (t_lo + root).tolist(), gap.tolist(), events, v_out / speed[:, None],
        np.abs(speed - 1.0).tolist())))


class _Flight:
    """One trajectory of the lockstep loop: its search state and its output.

    ``q``, ``v`` and ``t`` are the state after the last event (the start,
    before any); a search starts from their checked form.  ``traj`` is the
    flight's :class:`Trajectory`, filled in as it flies; ``error`` is the
    exception that ended it early (a singularity, an escape, or an invalid
    state, which ends it without a termination).  A plain class: a
    dataclass would cost about 1 ms of import time.
    """

    __slots__ = ("q", "v", "t", "error", "traj")

    def __init__(self, traj: Trajectory):
        self.q, self.v, self.t = traj.start.q, traj.start.v, 0.0
        self.error: BilliardError | None = None
        self.traj = traj

    def finish(self, termination: str, t_end: float, end: PhasePoint) -> None:
        self.traj.segments.append(FlightSegment(self.t, t_end, self.q, self.v))
        self.traj.termination, self.traj.t_end, self.traj.end = termination, t_end, end

    def stop(self, domain: Domain, e: BilliardError) -> None:
        """End the flight at the singularity or escape ``e``, at ``e.time``
        after its last event."""
        self.error = e
        t_end = self.t + (e.time if e.time is not None else 0.0)
        q = self.q + (t_end - self.t) * self.v
        if isinstance(e, EscapeError):
            self.finish(TERMINATION_ESCAPE, t_end, PhasePoint(q, self.v))
            return
        status = TERMINATION_GRAZING if isinstance(e, GrazingSingularityError) \
            else TERMINATION_DEGENERATE
        self.finish(status, t_end, PhasePoint(domain.wrap(q), self.v))


def _land(domain: Domain, fl: _Flight, found: tuple, T: float, max_events: int,
          eps_graze: float) -> bool:
    """Book the collision of a flight whose search ended with ``found``
    (see :func:`next_collision`), or end the flight at its singularity,
    escape or horizon.  Returns whether it searches on."""
    try:
        ev = next_collision(domain, None, T - fl.t, eps_graze, found=found)
    except (DegenerateCollisionError, EscapeError, GrazingSingularityError) as e:
        fl.stop(domain, e)
        return False
    if ev is None:  # no collision before the horizon
        fl.finish(TERMINATION_HORIZON, T,
                  PhasePoint(domain.wrap(fl.q + (T - fl.t) * fl.v), fl.v))
        return False
    traj = fl.traj
    ev.t = fl.t + ev.t
    traj.segments.append(FlightSegment(fl.t, ev.t, fl.q, fl.v))
    traj.events.append(ev)
    landing = found[1]
    traj.max_speed_drift = max(traj.max_speed_drift, landing.drift)
    fl.q, fl.v, fl.t = ev.q, landing.v_next, ev.t
    if len(traj.events) >= max_events:
        fl.finish(TERMINATION_EVENT_CAP, fl.t, PhasePoint(fl.q, fl.v))
        return False
    if fl.t >= T:  # the collision landed exactly on the horizon
        fl.finish(TERMINATION_HORIZON, T, PhasePoint(fl.q, fl.v))
        return False
    return True


def _tile(t_lo: np.ndarray, horizon: np.ndarray, window: float,
          chunk: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The next chunk of each flight: up to ``chunk`` windows from ``t_lo``
    up to ``horizon``, tiled by the same running sum
    ``t_lo += min(window, horizon - t_lo)`` as one window at a time.
    Returns the window starts and lengths, ``(F, W)``, with length 0 past a
    flight's horizon, and where each chunk ends."""
    starts, widths = np.empty((2, t_lo.size, chunk))
    t = t_lo
    for k in range(chunk):
        starts[:, k] = t
        widths[:, k] = hi = np.where(t < horizon, np.minimum(window, horizon - t), 0.0)
        t = t + hi
    W = int((widths > 0.0).sum(axis=1).max())
    return starts[:, :W], widths[:, :W], t


def _fly(domain: Domain, q: np.ndarray, v: np.ndarray, T: float, max_events: int,
         eps_graze: float) -> list[_Flight]:
    """Fly the starts ``(q[f], v[f])`` in lockstep for time ``T``: one kernel
    call per round for every flight still searching."""
    F = q.shape[0]
    flights = [_Flight(Trajectory(domain, PhasePoint(q[f], v[f]), T, [], [], None, None, None))
               for f in range(F)]
    eps_time = EPS_TIME_FACTOR * domain.length_scale
    window = 0.5 * domain.length_scale
    chunk, _ = _chunk(domain)
    box = isinstance(domain.ambient, Box)
    # the search of each flight: its checked state, next window start,
    # horizon and box escape time
    qs, vs = np.empty_like(q), np.empty_like(v)
    t_lo, horizon, escape = np.zeros(F), np.zeros(F), np.full(F, np.inf)
    searching = np.zeros(F, dtype=bool)
    new = list(range(F))
    while True:
        if new:
            # the state check of the new searches, one array pass for all
            ok, q_ok, v_ok, errors = _check_states(
                domain, np.array([flights[g].q for g in new]),
                np.array([flights[g].v for g in new]))
            for j, e in errors.items():
                flights[new[j]].error = e
            g = np.asarray(new)[ok]
            qs[g], vs[g] = q_ok, v_ok
            t_lo[g] = 0.0
            horizon[g] = [T - flights[f].t for f in g.tolist()]
            if box:
                escape[g] = [domain.ambient.exit_time(qs[f], vs[f], slack=domain.eps_surface)
                             for f in g.tolist()]
                horizon[g] = np.minimum(horizon[g], escape[g] + eps_time)
            searching[g] = True
        act = np.flatnonzero(searching)
        if not act.size:
            return flights
        lo, hi, t_lo[act] = _tile(t_lo[act], horizon[act], window, chunk)
        hit, w, *hits = _window_candidates(domain, qs[act], vs[act], lo, hi)
        rows = {}
        if hit.size:
            g = act[hit]
            rows = dict(zip(hit.tolist(), _landings(domain, qs[g], vs[g], lo[hit, w], *hits)))
        # each search that found a root or reached its horizon ends here
        new = []
        for a in sorted(rows.keys() | set(np.flatnonzero(t_lo[act] >= horizon[act]).tolist())):
            f = int(act[a])
            searching[f] = False
            if _land(domain, flights[f], (float(escape[f]), rows.get(a)), T, max_events,
                     eps_graze):
                new.append(f)


def flight_groups(domain: Domain, count: int) -> list[range]:
    """How ``count`` starts fly in lockstep: balanced groups of consecutive
    starts, in order, of at most ``GROUP_FLIGHTS`` flights and at most
    ``ROUND_ROWS`` over the image rows of one chunk (:func:`_chunk`), so that
    a round holds at most ``ROUND_ROWS`` image rows (one flight at least).
    Each group is one :func:`flow` call, and its trajectories are alive only
    until its caller has used them; the sampler's rounds use the groups too."""
    size = max(1, min(GROUP_FLIGHTS, ROUND_ROWS // _chunk(domain)[1]))
    n = -(-count // size)
    sizes = [count // n + (k < count % n) for k in range(n)]
    return [range(end - k, end) for k, end in zip(sizes, itertools.accumulate(sizes))]


def _check_eps_graze(eps_graze: float) -> None:
    # nan would switch the grazing test off, and a cutoff of 1 or more would
    # end every flight at its first impact
    if not 0.0 < eps_graze < 1.0:
        raise ValueError(f"eps_graze must lie in (0, 1), got {eps_graze}")


def flow(domain: Domain, x0: PhasePoint | Sequence[PhasePoint], T: float,
         max_events: int = MAX_EVENTS_DEFAULT,
         eps_graze: float = EPS_GRAZE) -> Trajectory | list[Trajectory]:
    """Run the billiard flow from ``x0`` for time ``T``.

    ``x0`` is one start, or a sequence of starts that fly in lockstep as one
    group (see :func:`flight_groups`) and give the list of their
    trajectories, in order (``[]`` for no starts).  ``T`` must be positive
    and finite, ``max_events`` at least 1 and ``eps_graze`` in ``(0, 1)``.
    Each trajectory is the one the flow of its start alone gives.
    Singularities never raise: they terminate the trajectory with the
    corresponding status.  An invalid state does raise
    :class:`InvalidStateError` (precondition): an invalid start before any
    flight, else the first trajectory, in order, that reaches one.
    """
    if not 0.0 < T < math.inf:
        raise ValueError("horizon must be positive and finite")
    if max_events < 1:
        raise ValueError("max_events must be at least 1")
    _check_eps_graze(eps_graze)
    one = isinstance(x0, PhasePoint)
    starts = [x0] if one else list(x0)
    if not starts:
        return []
    _, q, v, errors = _check_states(domain, np.array([x.q for x in starts]),
                                    np.array([x.v for x in starts]))
    if errors:
        raise errors[min(errors)]
    flights = _fly(domain, q, v, T, max_events, eps_graze)
    for fl in flights:
        if isinstance(fl.error, InvalidStateError):
            raise fl.error
    trajectories = [fl.traj for fl in flights]
    return trajectories[0] if one else trajectories


def next_collision(domain: Domain, x: PhasePoint | None, t_max: float,
                   eps_graze: float = EPS_GRAZE,
                   found: tuple | None = None) -> CollisionEvent | None:
    """Earliest collision along the free flight from ``x``, or ``None``.

    Searches times in ``(eps_time, t_max]``, for a positive and finite
    ``t_max`` and ``eps_graze`` in ``(0, 1)``.  Raises
    :class:`GrazingSingularityError` when the earliest impact is grazing,
    :class:`DegenerateCollisionError` when two boundary pieces are hit within
    the minimum time gap, and :class:`EscapeError` when a box ambient is left
    first.  Event times in the returned record are relative to ``x``.

    Without ``found``, ``x`` flies alone in the lockstep loop for one event.
    The loop itself passes each finished search as ``found``, and then ``x``
    is ignored: ``(escape_t, row)``, the box escape time (inf off a box) and
    that search's :class:`_Landing` from the round's landing pass
    (:func:`_landings`), whose event is already built.  Then only the checks
    are made, in order: the corner gap, the simultaneous root, the escape
    and the grazing impact, and the row's event is returned with ``cos_phi``
    capped at 1; every event of the flow comes from here.  A search that
    reached ``t_max`` without a root passes ``row = None``: no event, or the
    escape.
    """
    if found is None:
        if not 0.0 < t_max < math.inf:
            raise ValueError("t_max must be positive and finite")
        _check_eps_graze(eps_graze)
        (fl,) = _fly(domain, x.q[None], x.v[None], t_max, 1, eps_graze)
        if fl.error is not None:
            raise fl.error
        return fl.traj.events[0] if fl.traj.events else None
    escape_t, row = found
    if row is None:
        if escape_t <= t_max:
            raise EscapeError("particle left the box ambient", time=escape_t)
        return None
    eps_time = EPS_TIME_FACTOR * domain.length_scale
    if row.t_root <= eps_time:
        # a root this close to the previous event is a corner-like
        # multiple collision; skipping it would tunnel through the wall
        raise DegenerateCollisionError(
            "collision within the minimum time gap of the previous event",
            time=row.t_root)
    ev = row.event
    if row.gap < eps_time:
        raise DegenerateCollisionError(
            "simultaneous collision with two boundary pieces", time=ev.t)
    if ev.t > escape_t + eps_time:
        raise EscapeError("particle left the box ambient", time=escape_t)
    if ev.cos_phi < eps_graze:
        raise GrazingSingularityError(
            f"grazing impact: cos(phi) = {ev.cos_phi:.3e}", time=ev.t)
    ev.cos_phi = min(ev.cos_phi, 1.0)
    return ev
