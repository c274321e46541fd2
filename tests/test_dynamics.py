from __future__ import annotations

import math

import numpy as np
import pytest

from billiards import (
    Box,
    Cylinder,
    Domain,
    GrazingSingularityError,
    Halfspace,
    InvalidStateError,
    PhasePoint,
    TERMINATION_DEGENERATE,
    TERMINATION_ESCAPE,
    TERMINATION_GRAZING,
    TERMINATION_HORIZON,
    Torus,
    build_hardball_gas,
    curvature_at,
    flow,
    hardball_pairs,
    next_collision,
    reflect,
)
from conftest import random_phase_point
from geometry_oracle import normal_at, signed_distance

SQ2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# next_collision
# ---------------------------------------------------------------------------

def test_ray_through_center(sinai2d):
    ev = next_collision(sinai2d, PhasePoint(np.array([0.1, 0.5]), np.array([1.0, 0.0])), 1.0)
    assert ev.t == pytest.approx(0.15, abs=1e-12)
    np.testing.assert_allclose(ev.q, [0.25, 0.5], atol=1e-12)
    np.testing.assert_allclose(ev.nu, [-1.0, 0.0], atol=1e-12)
    assert ev.cos_phi == pytest.approx(1.0, abs=1e-12)


def test_ray_missing_scatterer(sinai2d):
    ev = next_collision(sinai2d, PhasePoint(np.array([0.1, 0.0]), np.array([1.0, 0.0])), 0.5)
    assert ev is None


def test_tangent_ray_is_grazing(sinai2d):
    with pytest.raises(GrazingSingularityError):
        next_collision(sinai2d, PhasePoint(np.array([0.1, 0.25]), np.array([1.0, 0.0])), 1.0)


def test_start_inside_scatterer_rejected(sinai2d):
    with pytest.raises(InvalidStateError):
        next_collision(sinai2d, PhasePoint(np.array([0.5, 0.5]), np.array([1.0, 0.0])), 1.0)


def test_collision_through_torus_seam(sinai2d):
    # moving left from x=0.1 wraps at 0 and hits the disk's right side
    ev = next_collision(sinai2d, PhasePoint(np.array([0.1, 0.5]), np.array([-1.0, 0.0])), 1.0)
    assert ev.t == pytest.approx(0.35, abs=1e-12)
    np.testing.assert_allclose(ev.q, [0.75, 0.5], atol=1e-12)


def test_event_beyond_horizon_not_returned(sinai2d):
    ev = next_collision(sinai2d, PhasePoint(np.array([0.1, 0.5]), np.array([1.0, 0.0])), 0.1)
    assert ev is None


# ---------------------------------------------------------------------------
# reflect
# ---------------------------------------------------------------------------

def test_reflect_head_on():
    out = reflect(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
    np.testing.assert_allclose(out, [-1.0, 0.0], atol=0)


def test_reflect_wall_45_degrees():
    out = reflect(np.array([SQ2 / 2, -SQ2 / 2]), np.array([0.0, 1.0]))
    np.testing.assert_allclose(out, [SQ2 / 2, SQ2 / 2], atol=1e-15)


def test_reflect_involution_random():
    rng = np.random.default_rng(5)
    for _ in range(100):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        nu = rng.standard_normal(3)
        nu /= np.linalg.norm(nu)
        if v @ nu > -0.05:
            nu = -nu
        if v @ nu > -0.05:
            continue
        v_out = reflect(v, nu)
        assert abs(np.linalg.norm(v_out) - 1.0) < 1e-12
        np.testing.assert_allclose(reflect(v_out, -nu), v, atol=1e-12)


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------

def test_flow_period_two_orbit(sinai2d):
    # head-on orbit through the disk center: bounces at x = 0.25 and (through
    # the seam) at x = 0.75, period exactly 1
    traj = flow(sinai2d, PhasePoint(np.array([0.1, 0.5]), np.array([1.0, 0.0])), 1.0)
    assert traj.termination == TERMINATION_HORIZON
    assert [e.t for e in traj.events] == [pytest.approx(0.15, abs=1e-12),
                                          pytest.approx(0.65, abs=1e-12)]
    np.testing.assert_allclose(traj.events[0].v_out, [-1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(traj.events[1].q, [0.75, 0.5], atol=1e-12)
    np.testing.assert_allclose(traj.end.q, [0.1, 0.5], atol=1e-12)
    np.testing.assert_allclose(traj.end.v, [1.0, 0.0], atol=1e-12)


def test_flow_empty_domain_free_motion():
    dom = Domain(2, Torus(1.0), [])
    traj = flow(dom, PhasePoint(np.array([0.2, 0.3]), np.array([0.6, 0.8])), 2.5)
    assert traj.termination == TERMINATION_HORIZON
    assert traj.events == []
    np.testing.assert_allclose(traj.end.q, np.mod([0.2 + 1.5, 0.3 + 2.0], 1.0), atol=1e-12)


def test_flow_grazing_termination_keeps_prior_events(sinai2d):
    # one clean bounce off the disk, then a tangent hit on the wrap-around
    q0 = np.array([0.25 - 0.35 * SQ2 / 2, 0.5 - 0.35 * SQ2 / 2])
    traj = flow(sinai2d, PhasePoint(q0, np.array([SQ2 / 2, SQ2 / 2])), 10.0)
    assert traj.termination in (TERMINATION_GRAZING, TERMINATION_HORIZON)
    for e in traj.events:
        assert e.cos_phi >= 1e-10


def test_flow_aimed_tangent_terminates_grazing(sinai2d):
    traj = flow(sinai2d, PhasePoint(np.array([0.1, 0.25]), np.array([1.0, 0.0])), 1.0)
    assert traj.termination == TERMINATION_GRAZING
    assert traj.events == []
    assert traj.t_end == pytest.approx(0.4, abs=1e-9)


def test_flow_escape_from_box():
    dom = Domain(2, Box((1.0, 1.0)),
                 [Halfspace(np.array([0.0, 0.0]), np.array([0.0, 1.0]))])
    traj = flow(dom, PhasePoint(np.array([0.5, 0.5]), np.array([1.0, 0.0])), 5.0)
    assert traj.termination == TERMINATION_ESCAPE
    assert traj.t_end == pytest.approx(0.5, abs=1e-6)


def test_flow_box_with_wall_reflects():
    dom = Domain(2, Box((1.0, 1.0)),
                 [Halfspace(np.array([0.0, 0.0]), np.array([0.0, 1.0]))])
    traj = flow(dom, PhasePoint(np.array([0.2, 0.5]), np.array([0.0, -1.0])), 0.9)
    assert traj.event_count == 1
    assert traj.events[0].t == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(traj.events[0].v_out, [0.0, 1.0], atol=1e-12)
    assert traj.termination == TERMINATION_HORIZON


def test_event_invariants_on_random_trajectories(sinai2d, sinai3d, cylinder3d, hardball32):
    rng = np.random.default_rng(23)
    eps_time = 1e-12
    for dom in (sinai2d, sinai3d, cylinder3d, hardball32):
        for _ in range(5):
            traj = flow(dom, random_phase_point(dom, rng), 10.0)
            assert traj.max_speed_drift < 1e-10
            prev = 0.0
            for e in traj.events:
                assert e.t > prev + eps_time * 0.5
                prev = e.t
                np.testing.assert_allclose(
                    e.v_out, e.v_in - 2.0 * (e.v_in @ e.nu) * e.nu, atol=1e-12)
                assert abs(e.cos_phi - e.v_out @ e.nu) < 1e-12
                assert abs(e.cos_phi + e.v_in @ e.nu) < 1e-12
                assert 0.0 < e.cos_phi <= 1.0
                assert abs(np.linalg.norm(e.nu) - 1.0) < 1e-12
                assert abs(signed_distance(dom, e.scatterer_index, e.q)) < dom.eps_surface
                # the stored normal is the point's normal, and the curvature
                # built from it matches the one built from the oracle's
                oracle_nu = normal_at(dom, e.scatterer_index, e.q)
                assert np.linalg.norm(e.nu - oracle_nu) < 1e-12
                K = curvature_at(dom, e.scatterer_index, e.nu)
                assert np.max(np.abs(K - curvature_at(dom, e.scatterer_index, oracle_nu))) < 1e-12
                assert np.linalg.norm(K @ e.nu) < 1e-12


def test_no_penetration_along_segments(sinai2d, hardball32):
    rng = np.random.default_rng(29)
    for dom in (sinai2d, hardball32):
        for _ in range(3):
            traj = flow(dom, random_phase_point(dom, rng), 8.0)
            for seg in traj.segments:
                for t in np.linspace(seg.t0, seg.t1, 20):
                    q = dom.wrap(seg.q0 + (t - seg.t0) * seg.v)
                    assert dom.contains(q, slack=1e-9)


def test_reversibility(sinai2d):
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(40):
        x0 = random_phase_point(sinai2d, rng)
        traj = flow(sinai2d, x0, 5.0)
        if traj.termination != TERMINATION_HORIZON or traj.min_cos_phi() < 0.1:
            continue
        back = flow(sinai2d, PhasePoint(traj.end.q, -traj.end.v), 5.0)
        assert back.termination == TERMINATION_HORIZON
        dq = sinai2d.min_image(back.end.q - x0.q)
        assert np.linalg.norm(dq) < 1e-6
        np.testing.assert_allclose(back.end.v, -x0.v, atol=1e-6)
        checked += 1
    assert checked >= 20


def test_hardball_event_locality_and_momentum(hardball32):
    pairs = hardball_pairs(3)
    rng = np.random.default_rng(37)
    seen = 0
    for _ in range(10):
        traj = flow(hardball32, random_phase_point(hardball32, rng), 10.0)
        for e in traj.events:
            i, j = pairs[e.scatterer_index]
            blocks = {k for k in range(3)
                      if np.linalg.norm(e.nu[2 * k:2 * k + 2]) > 1e-12}
            assert blocks == {i, j}
            p_in = e.v_in[2 * i:2 * i + 2] + e.v_in[2 * j:2 * j + 2]
            p_out = e.v_out[2 * i:2 * i + 2] + e.v_out[2 * j:2 * j + 2]
            np.testing.assert_allclose(p_in, p_out, atol=1e-12)
            seen += 1
    assert seen > 20


def test_hardball_total_momentum_conserved_along_trajectory(hardball32):
    rng = np.random.default_rng(131)
    for _ in range(5):
        x0 = random_phase_point(hardball32, rng)
        p0 = x0.v.reshape(3, 2).sum(axis=0)
        traj = flow(hardball32, x0, 10.0)
        for e in traj.events:
            np.testing.assert_allclose(e.v_out.reshape(3, 2).sum(axis=0), p0, atol=1e-10)
        np.testing.assert_allclose(traj.end.v.reshape(3, 2).sum(axis=0), p0, atol=1e-10)


def test_event_cap():
    dom = build_hardball_gas(2, 2, 0.1, 1.0)
    q = np.array([0.25, 0.25, 0.75, 0.25])
    v = np.array([1.0, 0.0, -1.0, 0.0]) / SQ2
    traj = flow(dom, PhasePoint(q, v), 100.0, max_events=5)
    assert traj.termination == "event_cap"
    assert traj.event_count == 5


def test_flow_horizon_exactly_at_event_time():
    # the wall crossing time is exact in floats, so the event lands exactly
    # on the horizon; the flow must close the trajectory instead of asking
    # for a zero-length continuation
    dom = Domain(2, Box((1.0, 1.0)),
                 [Halfspace(np.array([0.0, 0.0]), np.array([0.0, 1.0]))])
    traj = flow(dom, PhasePoint(np.array([0.2, 0.5]), np.array([0.0, -1.0])), 0.5)
    assert traj.termination == TERMINATION_HORIZON
    assert traj.event_count == 1
    assert traj.t_end == 0.5


def test_two_sphere_domain_alternating_bounces():
    from billiards import build_sinai
    dom = build_sinai(2, 0.15, 1.0, [[0.25, 0.5], [0.75, 0.5]])
    # the horizontal line through both centers is a period-2 orbit between
    # the facing poles at x = 0.4 and x = 0.6
    traj = flow(dom, PhasePoint(np.array([0.5, 0.5]), np.array([1.0, 0.0])), 1.0)
    hits = [(e.scatterer_index, round(float(e.q[0]), 12)) for e in traj.events]
    assert hits[:4] == [(1, 0.6), (0, 0.4), (1, 0.6), (0, 0.4)]
    assert [e.t for e in traj.events[:3]] == [pytest.approx(0.1, abs=1e-12),
                                              pytest.approx(0.3, abs=1e-12),
                                              pytest.approx(0.5, abs=1e-12)]


def test_pair_reduced_wrapping_orbit():
    # the scatterer sits at the origin, so its solid part spans the corners
    # of the fundamental domain; aim through the seam
    from billiards import reduce_pair_to_sinai
    dom = reduce_pair_to_sinai(2, 0.1, 1.0)
    traj = flow(dom, PhasePoint(np.array([0.5, 0.0]), np.array([1.0, 0.0])), 1.0)
    assert traj.event_count >= 1
    assert traj.events[0].t == pytest.approx(0.3, abs=1e-12)
    np.testing.assert_allclose(traj.events[0].q, [0.8, 0.0], atol=1e-12)
    np.testing.assert_allclose(traj.events[0].nu, [-1.0, 0.0], atol=1e-12)


def test_slab_between_parallel_walls():
    dom = Domain(2, Box((1.0, 1.0)),
                 [Halfspace(np.array([0.0, 0.0]), np.array([0.0, 1.0])),
                  Halfspace(np.array([0.0, 1.0]), np.array([0.0, -1.0]))])
    v = np.array([0.1, 1.0])
    v /= np.linalg.norm(v)
    traj = flow(dom, PhasePoint(np.array([0.2, 0.5]), v), 12.0)
    assert traj.termination == TERMINATION_ESCAPE     # open in x at t ~ 8
    assert traj.event_count >= 4
    walls = {e.scatterer_index for e in traj.events}
    assert walls == {0, 1}


def test_two_axis_cylinder_in_four_dims():
    axes = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    cyl = Cylinder(np.array([0.5, 0.5, 0.0, 0.0]), axes, 0.2)
    dom = Domain(4, Torus(1.0), [cyl])
    v = np.array([1.0, 0.0, 0.3, 0.1])
    v /= np.linalg.norm(v)
    traj = flow(dom, PhasePoint(np.array([0.1, 0.5, 0.0, 0.0]), v), 5.0)
    assert traj.event_count >= 1
    for e in traj.events:
        # normal is transverse to the axis subspace
        assert np.linalg.norm(axes @ e.nu) < 1e-12


def test_simultaneous_pair_contacts_terminate_degenerate():
    # ball 0 moves up symmetrically between balls 1 and 2 and touches both at
    # the same instant: a corner of two intersecting pair cylinders
    dom = build_hardball_gas(3, 2, 0.1, 1.0)
    q = np.array([0.5, 0.3, 0.35, 0.7, 0.65, 0.7])
    v = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    traj = flow(dom, PhasePoint(q, v), 1.0)
    assert traj.termination == TERMINATION_DEGENERATE
    assert traj.events == []
    assert 0.0 < traj.t_end < 1.0


def test_hardball_head_on_exchange():
    dom = build_hardball_gas(2, 2, 0.1, 1.0)
    q = np.array([0.25, 0.25, 0.75, 0.25])
    v = np.array([1.0, 0.0, -1.0, 0.0]) / SQ2
    ev = next_collision(dom, PhasePoint(q, v), 1.0)
    assert ev.t == pytest.approx(0.3 / SQ2, abs=1e-12)
    np.testing.assert_allclose(ev.v_out, np.array([-1.0, 0.0, 1.0, 0.0]) / SQ2, atol=1e-12)
