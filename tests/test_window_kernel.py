"""The stacked collision search against the per-scatterer oracle, bit for bit.

``dynamics._window_candidates`` evaluates every scatterer of a window in one
array pass per stack; ``dynamics_oracle.window_scan`` scans one scatterer at
a time and stable-sorts the roots.  Both must give the same best root,
second root, scatterer index, ``xi0`` and ``xiv``.  ``Domain.contains`` is
checked the same way against the per-scatterer ``geometry_oracle.contains``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynamics_oracle as oracle
import geometry_oracle
from billiards import (
    BoundaryMismatchError,
    Box,
    Cylinder,
    DegenerateCollisionError,
    Domain,
    Halfspace,
    PhasePoint,
    Sphere,
    TERMINATION_DEGENERATE,
    Torus,
    build_hardball_gas,
    build_sinai,
    dynamics,
    flow,
    hardball_pairs,
    next_collision,
)
from conftest import random_phase_point


def _torus_sphere_and_cylinder() -> Domain:
    # two stacks: a sphere (27 lattice images) and a cylinder with 9 explicit
    # transverse image offsets
    deltas = [[i, j, 0.0] for i in (-1.0, 0.0, 1.0) for j in (-1.0, 0.0, 1.0)]
    cyl = Cylinder(np.array([0.15, 0.15, 0.0]), np.array([[0.0, 0.0, 1.0]]), 0.1,
                   image_deltas=np.array(deltas))
    return Domain(3, Torus(1.0), [Sphere(np.array([0.5, 0.5, 0.5]), 0.15), cyl])


def _box_with_walls_and_sphere() -> Domain:
    # a halfspace stack and a sphere stack with interleaved scatterer indices
    return Domain(2, Box((1.0, 1.0)), [
        Halfspace(np.array([0.0, 0.0]), np.array([0.0, 1.0])),
        Sphere(np.array([0.5, 0.5]), 0.2),
        Halfspace(np.array([0.0, 1.0]), np.array([0.0, -1.0])),
    ])


def _crossed_cylinders() -> Domain:
    # one stack of two cylinders, axes along z and along x
    return Domain(3, Torus(1.0), [
        Cylinder(np.array([0.5, 0.5, 0.0]), np.array([[0.0, 0.0, 1.0]]), 0.2),
        Cylinder(np.array([0.0, 0.0, 0.5]), np.array([[1.0, 0.0, 0.0]]), 0.15),
    ])


DOMAINS = {
    "sinai2d": build_sinai(2, 0.25, 1.0, [[0.5, 0.5]]),
    "sinai3d": build_sinai(3, 0.3, 1.0, [[0.5, 0.5, 0.5]]),
    "cylinder3d": Domain(3, Torus(1.0), [
        Cylinder(np.array([0.5, 0.5, 0.0]), np.array([[0.0, 0.0, 1.0]]), 0.2)]),
    "hardball32": build_hardball_gas(3, 2, 0.1, 1.0),
    "hardball62": build_hardball_gas(6, 2, 0.1, 1.0),
    "sinai8d": build_sinai(8, 0.45, 1.0, [[0.5] * 8]),
    "box_walls_sphere": _box_with_walls_and_sphere(),
    "torus_sphere_cylinder": _torus_sphere_and_cylinder(),
    "crossed_cylinders": _crossed_cylinders(),
}


def _hex(x: float) -> str:
    return float(x).hex()


def window_pair(domain: Domain, q_win, v, hi: float):
    fast = dynamics._window_candidates(domain, q_win, v, hi,
                                       dynamics._velocity_terms(domain, v))
    return fast, oracle.window_scan(domain, q_win, v, hi)


def assert_same_window(domain: Domain, q_win, v, hi: float) -> bool:
    """Same result from both searches; True when the window holds a root."""
    fast, slow = window_pair(domain, q_win, v, hi)
    assert (fast is None) == (slow is None)
    if fast is None:
        return False
    (best, second), (best_o, second_o) = fast, slow
    assert _hex(best.t) == _hex(best_o.t)
    assert _hex(second) == _hex(second_o)
    assert best.scatterer_index == best_o.scatterer_index
    # tobytes tells -0.0 from 0.0
    assert best.xi0.tobytes() == best_o.xi0.tobytes()
    assert best.xiv.tobytes() == best_o.xiv.tobytes()
    assert best.radius == best_o.radius
    return True


def _window_state(domain: Domain, rng: np.random.Generator, shift: float, hi_frac: float):
    x = random_phase_point(domain, rng)
    # later windows start at q + t_lo v, unwrapped, as in next_collision
    return x.q + shift * x.v, x.v, hi_frac * 0.5 * domain.length_scale


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_window_kernel_matches_oracle_along_flights(name):
    # every window of a flight up to its first root, as next_collision scans
    domain = DOMAINS[name]
    rng = np.random.default_rng(401)
    window = 0.5 * domain.length_scale
    flights = 6 if name == "sinai8d" else 30
    hits = 0
    for j in range(flights):
        x = random_phase_point(domain, rng)
        if j % 2:
            # aim at the first scatterer's reference point (the long free
            # flights of 8-d Sinai would otherwise scan hundreds of windows)
            s = domain.scatterers[0]
            ref = s.plane_point if isinstance(s, Halfspace) else \
                s.center if isinstance(s, Sphere) else s.axis_point
            aim = domain.min_image(ref - x.q)
            x = PhasePoint(x.q, aim / np.linalg.norm(aim))
        for k in range(40):
            if assert_same_window(domain, x.q + (k * window) * x.v, x.v, window):
                hits += 1
                break
    assert hits >= flights // 2


@pytest.mark.parametrize("name", sorted(DOMAINS))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shift=st.floats(0.0, 3.0),
       hi_frac=st.floats(1e-3, 1.0))
def test_window_kernel_matches_oracle(name, seed, shift, hi_frac):
    domain = DOMAINS[name]
    assert_same_window(domain, *_window_state(domain, np.random.default_rng(seed),
                                              shift, hi_frac))


def test_axis_parallel_velocity_never_reaches_the_cylinder():
    v = np.array([0.0, 0.0, 1.0])
    cyl = DOMAINS["cylinder3d"]
    assert dynamics._velocity_terms(cyl, v)[0][1][0, 0] < 1e-30
    assert window_pair(cyl, np.array([0.1, 0.5, 0.0]), v, 0.5) == (None, None)
    # nearly along the axis, a = 9e-32: the quadratic from a point two ulps
    # outside the boundary has a root at t = 0.17, but the scatterer is skipped
    v = np.array([3e-16, 0.0, 1.0]) / np.linalg.norm([3e-16, 0.0, 1.0])
    assert dynamics._velocity_terms(cyl, v)[0][1][0, 0] < 1e-30
    q = np.array([float.fromhex("0x1.3333333333332p-2"), 0.5, 0.0])
    assert window_pair(cyl, q, v, 0.5) == (None, None)
    # in one stack with a reachable cylinder, only that one is hit
    v = np.array([0.0, 0.0, 1.0])
    crossed = DOMAINS["crossed_cylinders"]
    q = np.array([0.2, 0.0, 0.05])
    assert assert_same_window(crossed, q, v, 0.5)
    best, _ = window_pair(crossed, q, v, 0.5)[0]
    assert best.scatterer_index == 1
    assert best.t == pytest.approx(0.3, abs=1e-12)


@pytest.mark.parametrize("own_stack", [None, 1, 2])
def test_simultaneous_roots_go_to_the_lower_scatterer_index(own_stack):
    # ball 2 moves up between balls 0 and 1 and reaches pairs (0, 2) and
    # (1, 2), scatterers 1 and 2, at bitwise the same time
    dom = DOMAINS["hardball32"]
    if own_stack is not None:
        # one extra image offset puts that scatterer into a stack of its own,
        # scanned after the stack of the other two
        cyls = list(dom.scatterers)
        c = cyls[own_stack]
        i, j = hardball_pairs(3)[own_stack]
        far = np.zeros((1, 6))
        far[0, 2 * i], far[0, 2 * j] = 1.5, -1.5
        cyls[own_stack] = Cylinder(c.axis_point, c.axis_directions, c.radius,
                                   image_deltas=np.vstack([c.image_deltas, far]))
        dom = Domain(6, Torus(1.0), cyls)
        others = [k for k in range(3) if k != own_stack]
        assert [st.indices.tolist() for st in dom.stacks] == [others, [own_stack]]
    q = np.array([0.35, 0.7, 0.65, 0.7, 0.5, 0.3])
    v = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    assert assert_same_window(dom, q, v, 0.5)
    best, second = window_pair(dom, q, v, 0.5)[0]
    assert best.scatterer_index == 1 and second == best.t


def test_corner_hit_ends_at_the_oracle_time():
    # ball 0 moves up between balls 1 and 2 and touches both at once
    dom = DOMAINS["hardball32"]
    x = PhasePoint(np.array([0.5, 0.3, 0.35, 0.7, 0.65, 0.7]),
                   np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0]))
    assert assert_same_window(dom, x.q, x.v, 0.5)
    best, second = window_pair(dom, x.q, x.v, 0.5)[0]
    assert best.scatterer_index == 0 and second == best.t
    with pytest.raises(DegenerateCollisionError) as slow:
        oracle.next_collision(dom, x, 1.0)
    with pytest.raises(DegenerateCollisionError) as fast:
        next_collision(dom, x, 1.0)
    assert _hex(fast.value.time) == _hex(slow.value.time)
    traj = flow(dom, x, 1.0)
    assert traj.termination == TERMINATION_DEGENERATE
    assert _hex(traj.t_end) == _hex(slow.value.time)


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(domain, q_win, v, hi, *rest):
        calls.append(hi)
        return original(domain, q_win, v, hi, *rest)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_next_collision_calls_the_kernel_once_per_window(monkeypatch):
    # the benchmark's window count and time wrap dynamics._window_candidates
    # at module level; the flow must call it through that global, once per
    # window, as the per-scatterer search scans windows
    dom = DOMAINS["hardball32"]
    fast = _count_calls(monkeypatch, dynamics, "_window_candidates")
    slow = _count_calls(monkeypatch, oracle, "window_scan")
    rng = np.random.default_rng(409)
    windows = 0
    for t_max in [0.3, 0.7, 3.0] * 8:
        x = random_phase_point(dom, rng)
        fast.clear()
        slow.clear()
        try:
            ev = next_collision(dom, x, t_max)
        except DegenerateCollisionError:
            ev = None
        try:
            oracle.next_collision(dom, x, t_max)
        except DegenerateCollisionError:
            pass
        assert fast == slow and len(fast) >= 1
        if ev is None:        # no hit: the windows tile (0, t_max]
            assert len(fast) == math.ceil(t_max / (0.5 * dom.length_scale))
        windows += len(fast)
    assert windows > 24


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_contains_matches_oracle(name):
    domain = DOMAINS[name]
    rng = np.random.default_rng(419)
    if isinstance(domain.ambient, Box):
        lo, hi = -0.05, np.asarray(domain.ambient.sides) + 0.05
    else:
        lo, hi = 0.0, np.full(domain.d, domain.ambient.side)
    eps = domain.eps_surface
    slacks = (None, 0.0, 1e-9, -10.0 * eps)
    for _ in range(40):
        q = rng.uniform(lo, hi)
        for slack in slacks:
            assert domain.contains(q, slack) == geometry_oracle.contains(domain, q, slack)
    # points just inside and just outside the slack band of each boundary
    seen = {True: 0, False: 0}
    for _ in range(40):
        q = rng.uniform(lo, hi)
        i = int(rng.integers(len(domain.scatterers)))
        try:
            p = geometry_oracle.project_to_boundary(domain, i, q)
        except BoundaryMismatchError:     # the axis or center has no projection
            continue
        nu = geometry_oracle.normal_at(domain, i, p)
        for slack in (eps, 1e-9):
            for sign in (-1.0, 1.0):
                for rel in (1.0 - 1e-6, 1.0 + 1e-6):
                    x = p + sign * slack * rel * nu
                    got = domain.contains(x, slack)
                    assert got == geometry_oracle.contains(domain, x, slack)
                    seen[bool(got)] += 1
    assert seen[True] and seen[False]
