"""The per-scatterer collision search, kept as the test oracle of the
stacked window kernel ``billiards.dynamics._window_candidates``.

``scatterer_candidates`` scans one scatterer's images the way the flow did
before the scatterers were stacked; ``window_scan`` collects every
scatterer's roots and stable-sorts them, so ties go to the lower scatterer
index and then the earlier image; ``chunk_scan`` runs it window by window
over a chunk, as one call of the kernel searches; ``next_collision`` is the
event search built on that scan, and ``flow`` the per-trajectory event loop
built on that search, one start at a time: the oracles of the lockstep
loop, ``billiards.dynamics.flow``.  ``validate_phase_point`` is the
state check of one start.  ``box_lattice_distance`` and
``segment_lattice_distance`` are the oracles of the two stages of the
sphere broad phase: the distance from a window's flight box to the nearest
lattice image of a sphere center, coordinate by coordinate, and from its
flight segment, image by image.  ``pair_lattice_distance`` is the oracle of
the ball-pair broad phase: the distance from the relative segment of a
pair's two balls to the lattice of their displacement, image by image.

The oracle runs none of the code it checks: its candidate record, the
Newton polish of a root, the reflection and the state check (through
``geometry_oracle.contains``) are its own copies of the one-trajectory
forms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from billiards import (
    Box,
    CollisionEvent,
    Cylinder,
    DegenerateCollisionError,
    Domain,
    EscapeError,
    GrazingSingularityError,
    Halfspace,
    InvalidStateError,
    PhasePoint,
    Sphere,
    TERMINATION_DEGENERATE,
    TERMINATION_ESCAPE,
    TERMINATION_EVENT_CAP,
    TERMINATION_GRAZING,
    TERMINATION_HORIZON,
)
from billiards.dynamics import FlightSegment
from billiards.tolerances import EPS_GRAZE, EPS_TIME_FACTOR, MAX_EVENTS_DEFAULT
from geometry_oracle import contains as oracle_contains, image_deltas


@dataclass(eq=False)
class Trajectory:
    """The oracle's trajectory: its events and segments as lists of records,
    with the fields of ``billiards.Trajectory``."""

    domain: Domain
    start: PhasePoint
    horizon: float
    events: list[CollisionEvent]
    segments: list[FlightSegment]
    termination: str
    t_end: float
    end: PhasePoint
    max_speed_drift: float

    @property
    def event_count(self) -> int:
        return len(self.events)


@dataclass(eq=False)
class Candidate:
    """One entering boundary root of a window, local to its start."""

    t: float
    scatterer_index: int
    xi0: np.ndarray   # transverse offset at window start (relative to the image)
    xiv: np.ndarray   # transverse velocity component
    radius: float

    @property
    def radius_sq(self) -> float:
        return self.radius ** 2


def polish_root(cand: Candidate) -> float:
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


def _transverse(s: Cylinder, x: np.ndarray) -> np.ndarray:
    """Component of ``x`` orthogonal to the cylinder's axis subspace."""
    return x - s.axis_directions.T @ (s.axis_directions @ x)


def scatterer_candidates(domain: Domain, index: int, q_win, v, hi: float) -> list[Candidate]:
    """Entering boundary roots for one scatterer within local times (0, hi]."""
    s = domain.scatterers[index]
    out: list[Candidate] = []
    if isinstance(s, Halfspace):
        h0 = float((q_win - s.plane_point) @ s.plane_normal)
        hv = float(v @ s.plane_normal)
        if hv < 0.0:
            t = -h0 / hv
            if 0.0 < t <= hi:
                out.append(Candidate(t, index, h0 * s.plane_normal, hv * s.plane_normal, 0.0))
        return out

    ref = s.center if isinstance(s, Sphere) else s.axis_point
    rel = q_win - ref
    if isinstance(s, Cylinder):
        rel = _transverse(s, rel)
        vv = _transverse(s, v)
    else:
        vv = v
    if domain.ambient.periodic:
        L = domain.ambient.side
        mid = q_win + (0.5 * hi) * v - ref
        base = L * np.round(mid / L)
        if isinstance(s, Cylinder):
            base = _transverse(s, base)
        offsets = base[None, :] + image_deltas(domain, index)
    else:
        offsets = image_deltas(domain, index)

    xi0 = rel[None, :] - offsets                      # (m, d)
    a = float(vv @ vv)
    if a < 1e-30:
        return out
    b = xi0 @ vv
    c = np.einsum("ij,ij->i", xi0, xi0) - s.radius ** 2
    disc = b * b - a * c
    ok = disc >= 0.0
    if not np.any(ok):
        return out
    with np.errstate(divide="ignore", invalid="ignore"):
        qq = -(b[ok] + np.copysign(np.sqrt(disc[ok]), np.where(b[ok] == 0.0, 1.0, b[ok])))
        roots = np.minimum(qq / a, c[ok] / qq)
    for k, t in zip(np.nonzero(ok)[0], roots):
        if 0.0 < t <= hi:
            out.append(Candidate(float(t), index, xi0[k], vv, s.radius))
    return out


def box_lattice_distance(domain: Domain, index: int, q_win, v, hi: float) -> float:
    """Distance from the box spanned by the flight from ``q_win`` over times
    [0, hi] to the nearest torus image of sphere ``index``'s center."""
    L = domain.ambient.side
    total = 0.0
    for a, b in zip(q_win - domain.scatterers[index].center,
                    q_win + hi * v - domain.scatterers[index].center):
        lo, up = min(a, b), max(a, b)
        k = np.ceil(lo / L)
        if k * L <= up:        # a lattice coordinate lies in [lo, up]
            continue
        total += min(lo - (k - 1.0) * L, k * L - up) ** 2
    return float(np.sqrt(total))


def _lattice_distance(rel: np.ndarray, v: np.ndarray, hi: float, L: float) -> float:
    """Distance from the segment ``rel + t v``, t in [0, hi], to the lattice
    ``L Z^n``: the clamped closest approach to each of the 3^n lattice
    points around the one nearest the segment's midpoint, the least of
    them (the start's distance to each when ``v`` is 0)."""
    base = L * np.round((rel + 0.5 * hi * v) / L)
    images = base + L * np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=len(v))))
    starts = rel - images
    vv = float(v @ v)
    t = np.clip(-(starts @ v) / vv, 0.0, hi) if vv > 0.0 else np.zeros(len(images))
    return float(np.linalg.norm(starts + t[:, None] * v, axis=1).min())


def segment_lattice_distance(domain: Domain, index: int, q_win, v, hi: float) -> float:
    """Distance from the flight segment from ``q_win`` over times [0, hi]
    to the nearest torus image of sphere ``index``'s center."""
    q_win, v = np.asarray(q_win, dtype=float), np.asarray(v, dtype=float)
    return _lattice_distance(q_win - domain.scatterers[index].center, v, hi,
                             domain.ambient.side)


def pair_lattice_distance(domain: Domain, index: int, q_win, v, hi: float) -> float:
    """Distance from the relative segment of the balls ``(i, j)`` of the
    ball-pair cylinder ``index`` over times [0, hi] from ``q_win``, their
    displacement ``(q_i - q_j) + t (v_i - v_j)``, to the lattice ``L Z^b``
    (``b`` the ball dimension): the balls touch where it is ``2r``."""
    s = domain.scatterers[index]
    i, j = s.pair
    b = domain.d - s.axis_directions.shape[0]
    q_win, v = np.asarray(q_win, dtype=float), np.asarray(v, dtype=float)
    ball_i, ball_j = slice(i * b, (i + 1) * b), slice(j * b, (j + 1) * b)
    return _lattice_distance(q_win[ball_i] - q_win[ball_j], v[ball_i] - v[ball_j], hi,
                             domain.ambient.side)


def window_scan(domain: Domain, q_win, v, hi: float) -> tuple[Candidate, float] | None:
    """Best candidate and second-smallest root of one window, or ``None``."""
    cands: list[Candidate] = []
    for index in range(len(domain.scatterers)):
        cands.extend(scatterer_candidates(domain, index, q_win, v, hi))
    if not cands:
        return None
    cands.sort(key=lambda c: c.t)
    return cands[0], (cands[1].t if len(cands) > 1 else np.inf)


def chunk_scan(domain: Domain, q, v, starts, widths) -> tuple[int, tuple[Candidate, float] | None]:
    """``window_scan`` over the windows ``(starts[w], starts[w] + widths[w]]``
    of the flight ``q + t v``, one at a time: the first window that holds a
    root and its result, or the window count and ``None``."""
    for w, (t_lo, hi) in enumerate(zip(starts, widths)):
        found = window_scan(domain, q + t_lo * v, v, hi)
        if found is not None:
            return w, found
    return len(starts), None


def validate_phase_point(domain: Domain, x: PhasePoint) -> PhasePoint:
    """The state check of one start: a finite position, unit speed, outside
    every scatterer."""
    if not np.isfinite(x.q).all():
        raise InvalidStateError(f"position must be finite (got {x.q.tolist()})")
    speed = math.sqrt(x.v @ x.v)
    if not math.isfinite(speed) or abs(speed - 1.0) > 1e-6:
        raise InvalidStateError(f"velocity must be a unit vector (speed {speed})")
    q = domain.wrap(x.q)
    if not oracle_contains(domain, q):
        raise InvalidStateError("phase point lies inside a scatterer")
    return PhasePoint(q, x.v / speed)


def next_collision(domain: Domain, x: PhasePoint, t_max: float,
                   eps_graze: float = EPS_GRAZE) -> CollisionEvent | None:
    """Earliest collision along the free flight from ``x``, by window scans."""
    x = validate_phase_point(domain, x)
    q, v = x.q, x.v
    scale = domain.length_scale
    eps_time = EPS_TIME_FACTOR * scale
    horizon = t_max
    escape_t = np.inf
    if isinstance(domain.ambient, Box):
        escape_t = domain.ambient.exit_time(q, v, slack=domain.eps_surface)
        horizon = min(horizon, escape_t + eps_time)
    window = 0.5 * scale
    t_lo = 0.0
    while t_lo < horizon:
        hi = min(window, horizon - t_lo)
        found = window_scan(domain, q + t_lo * v, v, hi)
        if found is not None:
            best, t_second = found
            if t_lo + best.t <= eps_time:
                raise DegenerateCollisionError(
                    "collision within the minimum time gap of the previous event",
                    time=t_lo + best.t)
            t_best = t_lo + polish_root(best)
            if t_second - best.t < eps_time:
                raise DegenerateCollisionError(
                    "simultaneous collision with two boundary pieces", time=t_best)
            if t_best > escape_t + eps_time:
                raise EscapeError("particle left the box ambient", time=escape_t)
            xi = best.xi0 + (t_best - t_lo) * best.xiv
            if best.radius > 0.0:
                nu = xi / np.linalg.norm(xi)
            else:
                nu = domain.scatterers[best.scatterer_index].plane_normal
            cos_phi = -float(v @ nu)
            if cos_phi < eps_graze:
                raise GrazingSingularityError(
                    f"grazing impact: cos(phi) = {cos_phi:.3e}", time=t_best)
            return CollisionEvent(t=t_best, q=domain.wrap(q + t_best * v),
                                  scatterer_index=best.scatterer_index, nu=nu,
                                  cos_phi=min(cos_phi, 1.0), v_in=v.copy(),
                                  v_out=v - 2.0 * float(v @ nu) * nu)
        t_lo += hi
    if escape_t <= t_max:
        raise EscapeError("particle left the box ambient", time=escape_t)
    return None


def flow(domain: Domain, x0: PhasePoint, T: float, max_events: int = MAX_EVENTS_DEFAULT,
         eps_graze: float = EPS_GRAZE) -> Trajectory:
    """The billiard flow from ``x0`` for time ``T``, one event search after
    another: the event loop of one trajectory at a time."""
    x0 = validate_phase_point(domain, x0)
    q, v = x0.q.copy(), x0.v.copy()
    t = 0.0
    events: list[CollisionEvent] = []
    segments: list[FlightSegment] = []
    max_drift = 0.0

    def end(status: str, t_end: float, last: PhasePoint) -> Trajectory:
        return Trajectory(domain, x0, T, events, segments, status, t_end, last, max_drift)

    while True:
        try:
            ev = next_collision(domain, PhasePoint(q, v), T - t, eps_graze=eps_graze)
        except (GrazingSingularityError, DegenerateCollisionError) as e:
            t_end = t + e.time
            segments.append(FlightSegment(t, t_end, q, v))
            status = TERMINATION_GRAZING if isinstance(e, GrazingSingularityError) \
                else TERMINATION_DEGENERATE
            return end(status, t_end, PhasePoint(domain.wrap(q + (t_end - t) * v), v))
        except EscapeError as e:
            t_end = t + e.time
            segments.append(FlightSegment(t, t_end, q, v))
            return end(TERMINATION_ESCAPE, t_end, PhasePoint(q + (t_end - t) * v, v))
        if ev is None:
            segments.append(FlightSegment(t, T, q, v))
            return end(TERMINATION_HORIZON, T, PhasePoint(domain.wrap(q + (T - t) * v), v))
        ev.t = t + ev.t
        segments.append(FlightSegment(t, ev.t, q, v))
        events.append(ev)
        speed = math.sqrt(ev.v_out @ ev.v_out)
        max_drift = max(max_drift, abs(speed - 1.0))
        q, v, t = ev.q, ev.v_out / speed, ev.t
        if len(events) >= max_events:
            segments.append(FlightSegment(t, t, q, v))
            return end(TERMINATION_EVENT_CAP, t, PhasePoint(q, v))
        if t >= T:  # the collision landed exactly on the horizon
            segments.append(FlightSegment(t, T, q, v))
            return end(TERMINATION_HORIZON, T, PhasePoint(q, v))
