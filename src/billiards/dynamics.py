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
The call scans a plain stack's windows in consecutive slices of as many
windows as the byte budget fits (:func:`budget.fit`, at ``8 (d + 6)`` bytes
an image row: 21 windows of 375 images on 6 hard disks), or one window, so a
round holds about ``budget.PASS_BYTES`` whatever its flight count.  An
ensemble flies in balanced groups (:func:`flight_groups`), one :func:`flow`
call each, of as many flights as the budget fits at a flight's window
arrays and chunk rows, counted at most ``CHUNK_ROWS`` (:func:`_flight_bytes`):
260 flights on 2-d Sinai, 263 on 8-d Sinai, 124 on 6 hard disks (d = 12)
and 74 on 12 (d = 24), whose one window may alone exceed ``CHUNK_ROWS``.

The searches of a round that found a root land in one array pass
(:func:`_landings`): the Newton polish of each root, with each row's own
exits, the impact point, the normal, ``cos phi`` and the reflection.  Each
finished search then passes :func:`next_collision`, which makes the corner
gap, simultaneous root, escape and grazing checks on its row and returns
the capped ``cos phi``, or ``None`` (raises the escape) at its horizon.  The
round books its events into arrays, and only a flight that ends builds its
end state and exception.  A trajectory keeps its collisions as
:class:`EventColumns`, views into one array per column of its group.  The
state check of new searches is one array pass per round.  The batched
products issue the same BLAS call per (window, scatterer) block as an
unstacked scan of one window of one flight, every dot product of the
landing pass is a ``row_dot`` with the bits of the 1-d one, and picking the
first window, the best root and the second root is pure selection, so every
root and event keeps its bits; ties go to the lower scatterer index, then
the earlier image.  :func:`flow` of one start and :func:`next_collision`
without a finished search fly one start through the same loop, but
:func:`flow` checks (normalises) each start once more.

Sphere stacks on a torus with d >= 3 (``ScattererStack.reach_sq`` set, at
least 27 images) get a broad phase in front of that scan: a window skips the
stack when its flight segment stays farther than ``reach`` (the radius plus
a margin of ``1e-6 L``, argued in ``tolerances.py``) from every lattice
image of every center of the stack.  It tests the box around the segment,
``mid +- (hi/2)|v|``, and the windows whose boxes are in reach by the exact
distance from the segment (:func:`_segment_gap_sq`).  The skipped scan would
find no root, and a window that is not skipped runs the scan unchanged on
the same lattice shift, so outputs keep their bits.  The broad phase tests
a round's windows in slices the budget fits (five ``(S, d)`` and four
``(S, d + 1, d)`` arrays a window) and scans those in reach, in flight
order, in batches the budget fits, as a plain slice: on 8-d Sinai one
window of 6561 images per batch, where about 98% of the windows are skipped
(92% by their boxes).  A flight's windows after one that holds a root leave
the later batches.  2-d stacks (9 images) and cylinders keep the plain
scan.

Grazing impacts (cos phi below the cutoff) and near-simultaneous roots on
two distinct boundary pieces are singularities of the dynamics: the
trajectory terminates there instead of choosing a continuation.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    BilliardError,
    DegenerateCollisionError,
    EscapeError,
    GrazingSingularityError,
    InvalidStateError,
)
from . import budget
from .geometry import Box, Domain, Vec, reflect, row_dot
from .tolerances import EPS_GRAZE, EPS_TIME_FACTOR, MAX_EVENTS_DEFAULT

TERMINATION_HORIZON = "reached_horizon"
TERMINATION_GRAZING = "grazing"
TERMINATION_DEGENERATE = "degenerate_collision"
TERMINATION_EVENT_CAP = "event_cap"
TERMINATION_ESCAPE = "escape_error"

# The collision search hands each flight's next chunk of up to
# WINDOW_CHUNK_MAX consecutive windows, as many as keep a chunk near
# CHUNK_ROWS image rows (:func:`_chunk`), to the kernel: small scans are
# dominated by the fixed cost of a call.  The kernel's arrays, and the flight
# groups, are sized by the byte budget (budget.PASS_BYTES).
CHUNK_ROWS = 64
WINDOW_CHUNK_MAX = 16


def _row_bytes(d: int) -> int:
    """Bytes one image row of a kernel scan allocates: its ``d``-wide offset
    ``xi0`` and six scalar temporaries (``b``, ``c``, the discriminant and
    its terms, the masks)."""
    return 8 * (d + 6)


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


# A trajectory's collisions as read-only columns, row k for event k: the fields
# of CollisionEvent and v_next, the unit velocity after it (the next segment's v).
EventColumns = namedtuple("EventColumns", "t q scatterer_index nu cos_phi v_in v_out v_next")


@dataclass(eq=False)
class Trajectory:
    """Flow output: ordered collision events plus the free segments between them.

    ``columns`` are rows ``rows`` of ``group``, its flight group's columns;
    ``events`` and ``segments`` are built from them on access.  Segment ``k``
    runs from event ``k - 1`` (the start for ``k = 0``) to event ``k``, the
    last to ``t_end`` (the horizon, or the singularity/escape/cap time)."""

    domain: Domain
    start: PhasePoint
    horizon: float
    termination: str
    t_end: float
    end: PhasePoint
    max_speed_drift: float
    group: EventColumns
    rows: slice

    @property
    def columns(self) -> EventColumns:
        return EventColumns(*(c[self.rows] for c in self.group))

    @property
    def event_count(self) -> int:
        return self.rows.stop - self.rows.start

    @property
    def events(self) -> Sequence[CollisionEvent]:
        return _Records([self], 0)

    @property
    def segments(self) -> Sequence[FlightSegment]:
        return _Records([self], 1)

    def min_cos_phi(self) -> float:
        return float(self.group.cos_phi[self.rows].min(initial=1.0))


class _Records(Sequence):
    """The events (``segment = 0``) or segments (1) of trajectories, one
    after another: a read-only sequence whose records are built on access
    (``len`` builds none), equal to another whose records equal its own."""

    def __init__(self, trajectories: list[Trajectory], segment: int):
        self._trajectories, self._segment = trajectories, segment
        self._ends = list(itertools.accumulate(
            (t.event_count + segment for t in trajectories), initial=0))

    def __len__(self) -> int:
        return self._ends[-1]

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[j] for j in range(len(self))[k]]
        k = range(len(self))[k]
        f = bisect.bisect_right(self._ends, k) - 1
        traj, k = self._trajectories[f], k - self._ends[f]
        c, i = traj.group, traj.rows.start + k
        if not self._segment:
            return CollisionEvent(float(c.t[i]), c.q[i], int(c.scatterer_index[i]), c.nu[i],
                                  float(c.cos_phi[i]), c.v_in[i], c.v_out[i])
        t1 = float(c.t[i]) if i < traj.rows.stop else traj.t_end
        if not k:
            return FlightSegment(0.0, t1, traj.start.q, traj.start.v)
        return FlightSegment(float(c.t[i - 1]), t1, c.q[i - 1], c.v_next[i - 1])

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and len(self) == len(other) and all(
            type(a) is type(b) and all(map(np.array_equal, vars(a).values(), vars(b).values()))
            for a, b in zip(self, other))


def _chunk(domain: Domain) -> tuple[int, int]:
    """How many flight windows one chunk of the search covers, and its image
    rows: ``CHUNK_ROWS`` over the images a window scans (S m per stack, S per
    broad-phase stack, whose windows are mostly skipped), between 1 and
    ``WINDOW_CHUNK_MAX`` windows."""
    images = max(1, sum(st.indices.size if st.deltas is None or st.reach_sq is not None
                        else st.indices.size * st.deltas.shape[1] for st in domain.stacks))
    windows = min(WINDOW_CHUNK_MAX, max(1, CHUNK_ROWS // images))
    return windows, windows * images


def _flight_bytes(domain: Domain) -> int:
    """Bytes one flight adds to a round: the start point and midpoint
    (``d``-wide) and five scalars of each window of its chunk, and its
    chunk's image rows (:func:`_chunk`) at :func:`_row_bytes` each, counted
    at most ``CHUNK_ROWS``: the kernel slices a round by the budget, so a
    window that alone holds more rows does not shrink the group."""
    windows, rows = _chunk(domain)
    return 8 * windows * (2 * domain.d + 5) + min(rows, CHUNK_ROWS) * _row_bytes(domain.d)


def _check_states(domain: Domain, q: np.ndarray, v: np.ndarray):
    """The state check of each row of ``(q, v)``, ``(P, d)``: a finite
    position, unit speed within 1e-6, and a position outside every scatterer.

    Returns ``(ok, q_ok, v_ok, errors)``: the rows that pass, their wrapped
    positions and their velocities divided by their speed, and the
    :class:`InvalidStateError` of each failing row by row number.  Each row
    has the bits of a check of that state alone.
    """
    finite = np.isfinite(q).all(axis=1)
    speed = np.sqrt(row_dot(v, v))
    unit = finite & (np.abs(speed - 1.0) <= 1e-6)   # False for a non-finite speed
    errors = {int(j): InvalidStateError(
        f"velocity must be a unit vector (speed {float(speed[j])})" if finite[j]
        else f"position must be finite (got {q[j].tolist()})") for j in np.flatnonzero(~unit)}
    # a row with a non-finite position is neither wrapped nor tested
    q = domain.wrap(np.where(finite[:, None], q, 0.0))
    inside = domain.contains(q)
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


def _segment_gap_sq(m: np.ndarray, v: np.ndarray, half: np.ndarray, L: float) -> np.ndarray:
    """Squared distance from each flight segment ``m + tau v``, ``|tau| <=
    half``, to the lattice ``L Z^d``: ``m``, ``(n, S, d)``, within ``L/2`` of
    0 per coordinate, ``v``, ``(n, d)``, and ``half <= L/4``, ``(n,)``.  A
    coordinate of the segment crosses at most one cell wall, the one on the
    side of its ``m``, so the segment visits at most ``d + 1`` cells, cut at
    the crossings that lie inside ``(-half, half)``; in each cell the
    nearest lattice point is fixed (``L rint`` at the piece's midpoint) and
    the distance is the clamped closest approach to it.  Returns ``(n, S)``.
    The arrays run over segments last, so every numpy call loops over them."""
    n, S, d = m.shape
    m = np.moveaxis(m, -1, 0).reshape(d, n * S)
    v, half = np.repeat(v.T, S, axis=1), np.repeat(half, S)
    with np.errstate(divide="ignore", invalid="ignore"):
        # a zero velocity component gives +-inf or nan: no crossing
        cut = np.fmin(np.fmax((np.copysign(0.5 * L, m) - m) / v, -half), half)
    cut = np.concatenate((-half[None], np.sort(cut, axis=0), half[None]))
    lo, up = cut[:-1], cut[1:]                                  # (d + 1, n S)
    u = np.multiply((0.5 * (lo + up))[:, None, :], v)           # (d + 1, d, n S)
    u += m
    np.rint(np.divide(u, L, out=u), out=u)
    np.subtract(m, np.multiply(u, L, out=u), out=u)             # m minus the cell's point
    uv, vv = np.einsum("kin,in->kn", u, v), np.einsum("in,in->n", v, v)
    tau = np.clip(uv / -vv, lo, up)
    return (np.einsum("kin,kin->kn", u, u) + tau * (2.0 * uv + tau * vv)).min(axis=0).reshape(n, S)


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

    Each stack is evaluated in array passes over its flights, windows,
    scatterers and images, each of as many windows as the byte budget fits
    (:func:`_row_bytes` an image row) or one: a sphere or cylinder stack
    scans consecutive slices of its windows, and a broad-phase stack its
    windows in reach in batches; a halfspace stack takes one pass.  The
    velocity terms of a stack (the velocity transverse to each axis and its
    squared norm, or the normal speeds of the planes) depend on the flight
    alone and are built for the flights of a slice, and a flight reaches
    only the scatterers with ``a >= 1e-30`` (a velocity along a cylinder's
    axis never reaches its boundary) or the planes it approaches.  Ties go
    to the lower scatterer index, then the earlier image.
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

    def velocity_terms(st, f0, n):
        # flights f0..f0+n's velocity transverse to each axis, (n, S, d), its
        # squared norm and the scatterers it can reach, (n, S, 1)
        vv = st.transverse(np.repeat(v[f0:f0 + n, None, :], st.points.shape[0], axis=1))
        a = row_dot(vv, vv)[..., None]
        return vv, a, a >= 1e-30

    # the roots of every pass: window, root, scatterer index, and the
    # root's xi0, xiv and squared radius (0 for a wall)
    found = []

    def add(st, w, row, roots, xi0, xiv):
        if roots.size:
            radius_sq = np.zeros(roots.size) if st.radii_sq is None else st.radii_sq[row, 0]
            found.append((w, roots, st.indices[row], xi0, xiv, radius_sq))

    for st in domain.stacks:
        S = st.points.shape[0]
        if st.kind == "halfspace":
            hv = row_dot(np.repeat(v[:, None, :], S, axis=1), st.normals)  # (F, S)
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
        # the plain scan runs over consecutive slices of `size` windows, each
        # with the (window, scatterer) arrays of its own flights; a
        # broad-phase stack scans its windows in reach in batches of `size`
        size = budget.fit(S * st.deltas.shape[1] * _row_bytes(d))
        # the lattice shift of each window and scatterer, (R, S, d), brings
        # the scatterer nearest the window's midpoint
        if st.reach_sq is None:
            for s in range(0, F * W, size):
                win, f0 = slice(s, s + size), flight[s]
                owner = flight[win] - f0
                vv, a, live = velocity_terms(st, f0, owner[-1] + 1)
                shift = L * np.rint((center[win, None, :] - st.points) / L) if periodic else None
                r, *rest = _image_roots(st, q_win[win], shift, vv[owner], a[owner], live[owner],
                                        hi[win])
                add(st, s + r, *rest)
            continue
        # broad phase, over slices of the round's windows (mid, shift, gap and
        # two temporaries, S d values each, and the segment test's offsets and
        # its temporaries, numpy's broadcast buffers among them, S (d + 1) d
        # each): the window's flight box is mid +- (hi/2)|v| per coordinate,
        # and |mid - shift| <= L/2, so the nearest lattice coordinate to each
        # interval is the one of shift and gap is the exact distance from the
        # box to the nearest image of the center; the windows whose boxes are
        # in reach are tested by the distance from their flight segments, and
        # those in reach keep their shifts
        step = budget.fit(8 * S * d * (5 + 4 * (d + 1)))
        wins, shifts = [], []
        for s in range(0, F * W, step):
            win = slice(s, s + step)
            mid = center[win, None, :] - st.points
            shift = L * np.rint(mid / L)
            box = half[win] * np.abs(v)[flight[win]]
            gap = np.maximum(np.abs(mid - shift) - box[:, None, :], 0.0)
            keep = np.flatnonzero(~(row_dot(gap, gap) > st.reach_sq).all(axis=-1)
                                  & (hi[win] > 0.0))
            keep = keep[~(_segment_gap_sq(mid[keep] - shift[keep], v[flight[s + keep]],
                                          half[s + keep, 0], L) > st.reach_sq).all(axis=-1)]
            wins.append(s + keep)
            shifts.append(shift[keep])
        wins, shift = np.concatenate(wins), np.concatenate(shifts)
        vv, a, live = velocity_terms(st, 0, F)
        hit = np.zeros(F, dtype=bool)
        while wins.size:
            batch, wins, at, shift = wins[:size], wins[size:], shift[:size], shift[size:]
            f = flight[batch]
            r, *rest = _image_roots(st, q_win[batch], at, vv[f], a[f], live[f], hi[batch])
            add(st, batch[r], *rest)
            if r.size and wins.size:
                # a flight's windows after one with a root come too late
                hit[f[r]] = True
                keep = ~hit[flight[wins]]
                wins, shift = wins[keep], shift[keep]
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


def _landings(domain: Domain, q: np.ndarray, v: np.ndarray, t_lo: np.ndarray,
              root: np.ndarray, t_second: np.ndarray, index: np.ndarray, xi0: np.ndarray,
              xiv: np.ndarray, radius_sq: np.ndarray) -> tuple[np.ndarray, ...]:
    """The impacts of the searches of a round that found a root, in one
    array pass: from the checked states ``(q, v)``, ``(H, d)``, the start
    ``t_lo`` of each one's first window with a root and that window's hit
    (:func:`_window_candidates`).

    Returns ``(t_root, gap, t, cos_phi, q, nu, v_out, v_next, drift)``, one
    row per search, times from its checked state: the root, its gap to the
    window's second root (inf if none), the polished impact time,
    ``-<v, nu>`` (not capped), the wrapped impact point, the inward normal,
    the reflected velocity, its unit form and speed drift, each with the
    bits of that row alone, also for rows that will end their flight.
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
    return (t_lo + root, gap, t_best, cos_phi, domain.wrap(q + t_best[:, None] * v), nu, v_out,
            v_out / speed[:, None], np.abs(speed - 1.0))


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
         eps_graze: float) -> tuple[list[Trajectory], dict[int, BilliardError]]:
    """Fly the starts ``(q[f], v[f])`` in lockstep for time ``T``, one kernel
    call per round.  Returns the trajectories and, by flight, the exception
    that ended a flight early (a singularity, an escape, or an invalid
    state, which leaves it without a termination)."""
    F, d = q.shape
    eps_time, window = EPS_TIME_FACTOR * domain.length_scale, 0.5 * domain.length_scale
    chunk, box = _chunk(domain)[0], isinstance(domain.ambient, Box)
    # each flight's state after its last event (the start, before any), the
    # time of that event, its event count, largest speed drift and ending
    fq, fv, ft = q.copy(), v.copy(), np.zeros(F)
    count, drift = np.zeros(F, dtype=np.intp), np.zeros(F)
    ends, errors = {}, {}
    # the events booked in each round: the flight, then the EventColumns
    none, flights = np.zeros((0, d)), np.zeros(0, dtype=np.intp)
    booked = [(flights, none[:, 0], none, flights, none, none[:, 0], none, none, none)]
    # the search of each flight: its checked state, next window start,
    # horizon and box escape time
    qs, vs = np.empty_like(q), np.empty_like(v)
    t_lo, horizon, escape = np.zeros(F), np.zeros(F), np.full(F, np.inf)
    searching = np.zeros(F, dtype=bool)
    new = np.arange(F)
    while True:
        if new.size:
            # the state check of the new searches, one array pass for all
            ok, q_ok, v_ok, bad = _check_states(domain, fq[new], fv[new])
            errors.update((int(new[j]), e) for j, e in bad.items())
            g = new[ok]
            qs[g], vs[g] = q_ok, v_ok
            t_lo[g] = 0.0
            horizon[g] = T - ft[g]
            if box:
                escape[g] = [domain.ambient.exit_time(qs[f], vs[f], slack=domain.eps_surface)
                             for f in g.tolist()]
                horizon[g] = np.minimum(horizon[g], escape[g] + eps_time)
            searching[g] = True
        act = np.flatnonzero(searching)
        if not act.size:
            break
        lo, hi, t_lo[act] = _tile(t_lo[act], horizon[act], window, chunk)
        hit, w, *hits = _window_candidates(domain, qs[act], vs[act], lo, hi)
        rows = []
        if hit.size:
            land = _landings(domain, qs[act[hit]], vs[act[hit]], lo[hit, w], *hits)
            rows = list(zip(*(x.tolist() for x in land[:4])))
        # each search that found a root or reached its horizon ends here
        row = np.full(act.size, -1)
        row[hit] = np.arange(hit.size)
        done = np.flatnonzero((row >= 0) | (t_lo[act] >= horizon[act]))
        searching[act[done]] = False
        events, capped = [], []
        for f, r in zip(act[done].tolist(), row[done].tolist()):
            t = float(ft[f])
            try:
                cos_phi = next_collision(domain, None, T - t, eps_graze,
                                         found=(float(escape[f]), rows[r] if r >= 0 else None))
            except (DegenerateCollisionError, EscapeError, GrazingSingularityError) as e:
                errors[f] = e
                t_end = t + (e.time if e.time is not None else 0.0)
                x, status = fq[f] + (t_end - t) * fv[f], TERMINATION_ESCAPE
                if not isinstance(e, EscapeError):
                    x, status = domain.wrap(x), TERMINATION_GRAZING \
                        if isinstance(e, GrazingSingularityError) else TERMINATION_DEGENERATE
                ends[f] = (status, t_end, PhasePoint(x, fv[f]))
                continue
            if cos_phi is None:  # no collision before the horizon
                ends[f] = (TERMINATION_HORIZON, T,
                           PhasePoint(domain.wrap(fq[f] + (T - t) * fv[f]), fv[f]))
            else:
                events.append((f, r))
                capped.append(cos_phi)
        new = flights
        if events:
            g, r = np.array(events).T
            t_hit, _, q_hit, nu, v_out, v_next, dr = (x[r] for x in land[2:])
            t_hit = ft[g] + t_hit
            booked.append((g, t_hit, q_hit, hits[2][r], nu, np.array(capped), vs[g], v_out,
                           v_next))
            fq[g], fv[g], ft[g] = q_hit, v_next, t_hit
            drift[g] = np.fmax(drift[g], dr)
            count[g] += 1
            cap, on_t = count[g] >= max_events, t_hit >= T
            for f in g[cap | on_t].tolist():
                end = PhasePoint(fq[f], fv[f])
                # the cap first; else the collision landed exactly on the horizon
                ends[f] = (TERMINATION_EVENT_CAP, float(ft[f]), end) if count[f] >= max_events \
                    else (TERMINATION_HORIZON, T, end)
            new = g[~(cap | on_t)]
    # one array per column, its rows sorted by flight (each flight's events
    # were booked in order)
    order = np.argsort(np.concatenate([b[0] for b in booked]), kind="stable")
    group = EventColumns(*(np.concatenate(c)[order] for c in list(zip(*booked))[1:]))
    for c in group:
        c.flags.writeable = False
    at = np.concatenate(([0], np.cumsum(count))).tolist()
    return [Trajectory(domain, PhasePoint(q[f], v[f]), T, *ends.get(f, (None, None, None)),
                       float(drift[f]), group, slice(at[f], at[f + 1])) for f in range(F)], errors


def flight_groups(domain: Domain, count: int) -> list[range]:
    """How ``count`` starts fly in lockstep: balanced groups of consecutive
    starts, in order, of as many flights as the byte budget fits at
    :func:`_flight_bytes` each.  Each group is one :func:`flow` call, and
    its trajectories are alive only until its caller has used them; the
    sampler's rounds use the groups too."""
    size = budget.fit(_flight_bytes(domain))
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
    trajectories, errors = _fly(domain, q, v, T, max_events, eps_graze)
    for f in sorted(errors):
        if isinstance(errors[f], InvalidStateError):
            raise errors[f]
    return trajectories[0] if one else trajectories


def next_collision(domain: Domain, x: PhasePoint | None, t_max: float,
                   eps_graze: float = EPS_GRAZE,
                   found: tuple | None = None) -> CollisionEvent | float | None:
    """Earliest collision along the free flight from ``x``, or ``None``.

    Searches times in ``(eps_time, t_max]``, for a positive and finite
    ``t_max`` and ``eps_graze`` in ``(0, 1)``.  Raises
    :class:`GrazingSingularityError` when the earliest impact is grazing,
    :class:`DegenerateCollisionError` when two boundary pieces are hit within
    the minimum time gap, and :class:`EscapeError` when a box ambient is left
    first.  Event times in the returned record are relative to ``x``.

    Without ``found``, ``x`` flies alone in the lockstep loop for one event.
    The loop passes each finished search as ``found = (escape_t, row)``, and
    ``x`` is ignored: the box escape time (inf off a box) and the search's
    row ``(t_root, gap, t, cos_phi)`` of the landing pass, or ``None`` for a
    search that reached ``t_max`` without a root (no event, or the escape).
    The checks are made in order: the corner gap, the simultaneous root, the
    escape and the grazing impact; the row's ``cos_phi`` capped at 1 is
    returned, and the loop books the event.
    """
    if found is None:
        if not 0.0 < t_max < math.inf:
            raise ValueError("t_max must be positive and finite")
        _check_eps_graze(eps_graze)
        (traj,), errors = _fly(domain, x.q[None], x.v[None], t_max, 1, eps_graze)
        if errors:
            raise errors[0]
        return traj.events[0] if traj.event_count else None
    escape_t, row = found
    if row is None:
        if escape_t <= t_max:
            raise EscapeError("particle left the box ambient", time=escape_t)
        return None
    t_root, gap, t, cos_phi = row
    eps_time = EPS_TIME_FACTOR * domain.length_scale
    if t_root <= eps_time:
        # a root this close to the previous event is a corner-like
        # multiple collision; skipping it would tunnel through the wall
        raise DegenerateCollisionError(
            "collision within the minimum time gap of the previous event", time=t_root)
    if gap < eps_time:
        raise DegenerateCollisionError("simultaneous collision with two boundary pieces", time=t)
    if t > escape_t + eps_time:
        raise EscapeError("particle left the box ambient", time=escape_t)
    if cos_phi < eps_graze:
        raise GrazingSingularityError(f"grazing impact: cos(phi) = {cos_phi:.3e}", time=t)
    return min(cos_phi, 1.0)
