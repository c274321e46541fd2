"""The landing pass of the lockstep flow against the one-trajectory oracle.

Each round of ``dynamics._fly`` polishes, checks and reflects the impacts of
every search that found a root in one array pass (``dynamics._landings``),
and ``dynamics.next_collision`` makes the per-event checks on that search's
row.  ``dynamics_oracle.flow`` runs the one-trajectory loop with its own
Newton polish, reflection and state check.  Every ``CollisionEvent`` field,
``termination``, ``t_end``, ``end`` and ``max_speed_drift``, and the event
columns the trajectory keeps, must agree byte for byte, ``tobytes()``
against ``tobytes()``: in groups on the kernel-test domains, on Sinai
d = 3..8, on a closed box (wall rows), on a disk whose squared radius
``r ** 2`` differs from ``r * r``, and for every singular ending (grazing,
the corner gap, the simultaneous root, the escape, the event cap and the
horizon).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import dynamics_oracle as oracle
from billiards import (
    Box,
    DegenerateCollisionError,
    Domain,
    EscapeError,
    GrazingSingularityError,
    Halfspace,
    PhasePoint,
    Sphere,
    TERMINATION_DEGENERATE,
    TERMINATION_ESCAPE,
    TERMINATION_EVENT_CAP,
    TERMINATION_GRAZING,
    TERMINATION_HORIZON,
    build_sinai,
    dynamics,
    flight_groups,
    flow,
)
from conftest import random_phase_point
from test_lockstep import LOCKSTEP_DOMAINS, assert_views_match_oracle
from test_window_kernel import DOMAINS, _aimed


def _closed_box() -> Domain:
    walls = [Halfspace(np.array(p, dtype=float), np.array(n, dtype=float))
             for p, n in (([0, 0], [1, 0]), ([1, 0], [-1, 0]), ([0, 0], [0, 1]),
                          ([0, 1], [0, -1]))]
    return Domain(2, Box((1.0, 1.0)), [*walls, Sphere(np.array([0.5, 0.5]), 0.2)])


# 0.22999 ** 2 (a correctly rounded pow) and 0.22999 * 0.22999 differ in
# the last bit, so the polish must take the stack's radii_sq
ODD_RADIUS = 0.22999
assert ODD_RADIUS ** 2 != ODD_RADIUS * ODD_RADIUS

LANDING_DOMAINS = {**LOCKSTEP_DOMAINS, "box_closed_disk": _closed_box(),
                   "sinai2d_odd_radius": build_sinai(2, ODD_RADIUS, 1.0, [[0.5, 0.5]])}


def _b(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _bytes(traj) -> tuple:
    """Every field of a trajectory, as bytes."""
    events = tuple((_b(e.t), e.scatterer_index, _b(e.cos_phi),
                    *(_b(getattr(e, k)) for k in ("q", "nu", "v_in", "v_out")))
                   for e in traj.events)
    segments = tuple((_b(s.t0), _b(s.t1), _b(s.q0), _b(s.v)) for s in traj.segments)
    return (traj.termination, _b(traj.t_end), _b(traj.max_speed_drift),
            _b(traj.end.q), _b(traj.end.v), events, segments)


def assert_groups_match_oracle(domain, starts, T, **kw) -> list:
    """The lockstep flow of the starts, in its groups, against the oracle
    one start at a time, byte for byte, with warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = [traj for g in flight_groups(domain, len(starts))
                for traj in flow(domain, starts[g.start:g.stop], T, **kw)]
    for traj, x in zip(fast, starts):
        slow = oracle.flow(domain, x, T, **kw)
        assert _bytes(traj) == _bytes(slow)
        assert_views_match_oracle(traj, slow)
    return fast


@pytest.mark.parametrize("name", sorted(LANDING_DOMAINS))
def test_groups_land_as_the_oracle(name):
    domain = LANDING_DOMAINS[name]
    rng = np.random.default_rng(503)
    starts = [random_phase_point(domain, rng) for _ in range(8)]
    starts = [_aimed(domain, x) if j % 2 else x for j, x in enumerate(starts)]
    # the oracle scans every image of every window: short flights on the
    # large lattices
    T = 1.5 if domain.d >= 6 else 4.0
    trajs = assert_groups_match_oracle(domain, starts, T)
    assert sum(len(t.events) for t in trajs) >= 4


def _tangent_starts() -> list[PhasePoint]:
    # flights along y = 0.25 and y = 0.75, tangent to the disk of radius
    # 0.25 at (0.5, 0.5): the polish meets df = 0 at its first step
    return [PhasePoint(np.array([0.1, y]), np.array([s, 0.0]))
            for y in (0.25, 0.75) for s in (1.0, -1.0)]


@pytest.mark.parametrize("eps_graze, max_events, T", [(1e-10, 6, 6.0), (0.3, 12, 20.0),
                                                      (0.9, 3, 6.0)])
def test_grazing_cap_and_horizon_endings(eps_graze, max_events, T):
    domain = DOMAINS["sinai2d"]
    rng = np.random.default_rng(509)
    starts = _tangent_starts() + [random_phase_point(domain, rng) for _ in range(24)]
    trajs = assert_groups_match_oracle(domain, starts, T, eps_graze=eps_graze,
                                       max_events=max_events)
    endings = {t.termination for t in trajs}
    if eps_graze < 0.5:
        assert endings == {TERMINATION_GRAZING, TERMINATION_EVENT_CAP, TERMINATION_HORIZON}
    else:
        assert TERMINATION_GRAZING in endings
    # the tangent flights end grazing at their first impact, at x = 0.5
    for t in trajs[:4]:
        assert t.termination == TERMINATION_GRAZING and not t.events
        assert t.t_end == 0.4 or t.t_end == 0.6


def test_corner_gap_and_simultaneous_roots():
    # hard disks: ball 0 moves up between balls 1 and 2 and meets both at
    # once (a simultaneous root); started 1e-13 outside a pair cylinder and
    # moving in, a flight meets its root within the minimum time gap
    domain = DOMAINS["hardball32"]
    corner = PhasePoint(np.array([0.5, 0.3, 0.35, 0.7, 0.65, 0.7]),
                        np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0]))
    gap = 2.0 * 0.1 + 1e-13 * np.sqrt(2.0)
    ball_gap = PhasePoint(np.array([0.3, 0.5, 0.3 + gap, 0.5, 0.8, 0.2]),
                          np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
    rng = np.random.default_rng(521)
    starts = [corner, ball_gap] + [random_phase_point(domain, rng) for _ in range(4)]
    trajs = assert_groups_match_oracle(domain, starts, 2.0)
    assert trajs[0].termination == trajs[1].termination == TERMINATION_DEGENERATE
    assert trajs[1].t_end <= 1e-12
    assert not trajs[0].events and not trajs[1].events


@pytest.mark.parametrize("eps_graze", [1e-10, 0.9])
def test_wall_rows_and_escapes(eps_graze):
    # two walls and a disk in an open box: flights escape through the open
    # sides, bounce off the walls (rows without a polish, with the wall's
    # normal) or graze; a start 1e-13 above the floor, moving down, meets
    # it within the minimum time gap
    domain = DOMAINS["box_walls_sphere"]
    rng = np.random.default_rng(523)
    floor = PhasePoint(np.array([0.3, 1e-13]), np.array([0.6, -0.8]))
    starts = [floor] + [random_phase_point(domain, rng) for _ in range(20)]
    trajs = assert_groups_match_oracle(domain, starts, 8.0, eps_graze=eps_graze)
    endings = {t.termination for t in trajs}
    assert {TERMINATION_ESCAPE, TERMINATION_DEGENERATE} <= endings
    assert trajs[0].termination == TERMINATION_DEGENERATE
    walls = sum(e.scatterer_index != 1 for t in trajs for e in t.events)
    assert walls >= 4 or eps_graze > 0.5


def test_closed_box_reaches_horizon_through_walls():
    domain = LANDING_DOMAINS["box_closed_disk"]
    rng = np.random.default_rng(541)
    starts = [random_phase_point(domain, rng) for _ in range(10)]
    trajs = assert_groups_match_oracle(domain, starts, 10.0, max_events=40)
    assert {t.termination for t in trajs} <= {TERMINATION_HORIZON, TERMINATION_EVENT_CAP}
    assert sum(e.scatterer_index < 4 for t in trajs for e in t.events) >= 20


def test_next_collision_checks_a_row_in_order():
    # a crafted row of the landing pass, (t_root, gap, t, cos_phi), on which
    # several endings hold at once: the corner gap comes first, then the
    # simultaneous root, the escape and the grazing impact, as in the
    # one-trajectory tail; a row that passes returns its capped cos_phi
    domain = DOMAINS["box_walls_sphere"]

    def outcome(t_root, gap, t_best, escape_t, cos_phi):
        try:
            return dynamics.next_collision(domain, None, 2.0,
                                           found=(escape_t, (t_root, gap, t_best, cos_phi)))
        except (DegenerateCollisionError, EscapeError, GrazingSingularityError) as e:
            return type(e).__name__, str(e).split(" ")[-1], e.time

    assert outcome(5e-13, 0.0, 7e-13, -1.0, 1e-12) == (
        "DegenerateCollisionError", "event", 5e-13)
    assert outcome(0.6, 0.0, 0.6000001, 0.2, 1e-12) == (
        "DegenerateCollisionError", "pieces", 0.6000001)
    assert outcome(0.6, np.inf, 0.6000001, 0.2, 1e-12) == ("EscapeError", "ambient", 0.2)
    assert outcome(0.6, np.inf, 0.6000001, np.inf, 1e-12)[::2] == (
        "GrazingSingularityError", 0.6000001)
    assert outcome(0.6, np.inf, 0.6000001, np.inf, 1.0 + 1e-15) == 1.0
    assert outcome(0.6, np.inf, 0.6000001, np.inf, 0.5) == 0.5
