"""Event-driven billiard flow.

The particle moves in straight lines at unit speed and reflects specularly
off scatterer boundaries.  Collision times are found in closed form
(quadratic roots against nearby periodic scatterer images, linear crossings
for halfspaces), searched window by window along the flight so that only a
small neighbourhood of lattice images is examined at a time.

Grazing impacts (cos phi below the cutoff) and near-simultaneous roots on
two distinct boundary pieces are singularities of the dynamics: the
trajectory terminates there instead of choosing a continuation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateCollisionError,
    EscapeError,
    GrazingSingularityError,
    InvalidStateError,
)
from .geometry import Box, Cylinder, Domain, Halfspace, Sphere, Vec, reflect
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
    speed = float(np.linalg.norm(x.v))
    if not np.isfinite(speed) or abs(speed - 1.0) > 1e-6:
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


def _window_candidates(domain: Domain, index: int, q_win: Vec, v: Vec,
                       hi: float) -> list[_Candidate]:
    """Entering boundary roots for one scatterer within local times (0, hi]."""
    s = domain.scatterers[index]
    out: list[_Candidate] = []
    if isinstance(s, Halfspace):
        h0 = float((q_win - s.plane_point) @ s.plane_normal)
        hv = float(v @ s.plane_normal)
        if hv < 0.0:
            t = -h0 / hv
            if 0.0 < t <= hi:
                out.append(_Candidate(t, index, h0 * s.plane_normal, hv * s.plane_normal, 0.0))
        return out

    ref = s.center if isinstance(s, Sphere) else s.axis_point
    rel = q_win - ref
    if isinstance(s, Cylinder):
        rel = s.transverse(rel)
        vv = s.transverse(v)
    else:
        vv = v
    if domain.ambient.periodic:
        L = domain.ambient.side
        mid = q_win + (0.5 * hi) * v - ref
        base = L * np.round(mid / L)
        if isinstance(s, Cylinder):
            base = s.transverse(base)
        offsets = base[None, :] + domain._image_deltas[index]
    else:
        offsets = domain._image_deltas[index]

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
    # entering root is the smaller one; the sign-matched form avoids
    # cancellation so that near-tangent discriminants stay meaningful
    with np.errstate(divide="ignore", invalid="ignore"):
        qq = -(b[ok] + np.copysign(np.sqrt(disc[ok]), np.where(b[ok] == 0.0, 1.0, b[ok])))
        roots = np.minimum(qq / a, c[ok] / qq)
    for k, t in zip(np.nonzero(ok)[0], roots):
        if 0.0 < t <= hi:
            out.append(_Candidate(float(t), index, xi0[k], vv, s.radius))
    return out


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

    window = 0.5 * scale
    t_lo = 0.0
    while t_lo < horizon:
        hi = min(window, horizon - t_lo)
        q_win = q + t_lo * v
        cands: list[_Candidate] = []
        for index in range(len(domain.scatterers)):
            cands.extend(_window_candidates(domain, index, q_win, v, hi))
        if cands:
            cands.sort(key=lambda c: c.t)
            best = cands[0]
            if t_lo + best.t <= eps_time:
                # a root this close to the previous event is a corner-like
                # multiple collision; skipping it would tunnel through the wall
                raise DegenerateCollisionError(
                    "collision within the minimum time gap of the previous event",
                    time=t_lo + best.t)
            t_best = t_lo + _polish_root(best)
            if len(cands) > 1 and (cands[1].t - cands[0].t) < eps_time:
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
            q_hit = domain.wrap(q + t_best * v)
            return CollisionEvent(t=t_best, q=q_hit, scatterer_index=best.scatterer_index,
                                  nu=nu, cos_phi=min(cos_phi, 1.0), v_in=v.copy(),
                                  v_out=reflect(v, nu))
        t_lo += hi

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

        ev = replace(ev, t=t + ev.t)
        segments.append(FlightSegment(t, ev.t, q, v))
        events.append(ev)
        speed = float(np.linalg.norm(ev.v_out))
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
