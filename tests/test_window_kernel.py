"""The stacked collision search against the per-scatterer oracle, bit for bit.

``dynamics._window_candidates`` evaluates every scatterer of a chunk of
consecutive windows in one array pass per stack; ``dynamics_oracle`` scans
one window and one scatterer at a time and stable-sorts the roots.  Both
must give the same first window with a root, best root, second root,
scatterer index, ``xi0``, ``xiv`` and squared radius.  ``Domain.contains``
is checked the same way against the per-scatterer
``geometry_oracle.contains``.

The broad phase of the sphere stacks and of the ball-pair stacks
(``ScattererStack.reach_sq``) is checked against the same kernel on a copy
of the domain with ``reach_sq`` unset, which scans every window, and its
decisions against the distance oracles of ``dynamics_oracle``.
"""

from __future__ import annotations

import copy
import json
import math
import warnings
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynamics_oracle as oracle
import geometry_oracle
from billiards import (
    Box,
    Cylinder,
    DegenerateCollisionError,
    Domain,
    EscapeError,
    GrazingSingularityError,
    Halfspace,
    PhasePoint,
    Sphere,
    TERMINATION_DEGENERATE,
    TERMINATION_HORIZON,
    Torus,
    build_hardball_gas,
    build_sinai,
    dynamics,
    flow,
    hardball_pairs,
    next_collision,
)
from billiards import budget
from billiards.config import load_config
from billiards.runner import run_experiment
from conftest import random_phase_point
from geometry_oracle import BoundaryMismatchError


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


def _box_with_walls_and_cylinder() -> Domain:
    # a cylinder stack flown off a torus: four walls parallel to its axis
    # (walls across it would cut it), so flights escape through the open
    # faces z = 0 and z = 3
    walls = [Halfspace(np.array(p, dtype=float), np.array(n, dtype=float))
             for p, n in (([0, 0, 0], [1, 0, 0]), ([1, 0, 0], [-1, 0, 0]),
                          ([0, 0, 0], [0, 1, 0]), ([0, 1, 0], [0, -1, 0]))]
    return Domain(3, Box((1.0, 1.0, 3.0)), [
        *walls, Cylinder(np.array([0.5, 0.5, 0.0]), np.array([[0.0, 0.0, 1.0]]), 0.2)])


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
    "box_walls_cylinder": _box_with_walls_and_cylinder(),
    "torus_sphere_cylinder": _torus_sphere_and_cylinder(),
    "crossed_cylinders": _crossed_cylinders(),
}


def _hex(x: float) -> str:
    return float(x).hex()


def hit_rows(hits) -> dict:
    """The rows of a kernel call by flight: ``(w, (best, t_second))``, with
    the best root's ``t``, ``scatterer_index``, ``xi0``, ``xiv`` and
    ``radius_sq`` as attributes."""
    f, w, t, second, index, xi0, xiv, radius_sq = hits
    assert (np.diff(f) > 0).all()        # one row per flight, in flight order
    return {int(f[j]): (int(w[j]), (SimpleNamespace(
        t=float(t[j]), scatterer_index=int(index[j]), xi0=xi0[j], xiv=xiv[j],
        radius_sq=float(radius_sq[j])), float(second[j]))) for j in range(f.size)}


def kernel(domain: Domain, q, v, starts, widths):
    """One kernel call on the windows ``(starts[w], starts[w] + widths[w]]``
    of the flight ``q + t v``, as a group of that one flight: the first
    window with a root and its result, or the window count and ``None``."""
    hits = hit_rows(dynamics._window_candidates(
        domain, np.asarray(q)[None], np.asarray(v)[None], np.array([starts], dtype=float),
        np.array([widths], dtype=float)))
    return hits.get(0, (len(starts), None))


def tiles(t_lo: float, horizon: float, window: float, count: int):
    """Up to ``count`` windows from ``t_lo``, by next_collision's running sum."""
    starts, widths = [], []
    while t_lo < horizon and len(starts) < count:
        hi = min(window, horizon - t_lo)
        starts.append(t_lo)
        widths.append(hi)
        t_lo += hi
    return starts, widths


def window_pair(domain: Domain, q_win, v, hi: float):
    """The kernel and the oracle on the one window (0, hi] from ``q_win``."""
    (w, fast), (w_o, slow) = (kernel(domain, q_win, v, [0.0], [hi]),
                              oracle.chunk_scan(domain, q_win, v, [0.0], [hi]))
    assert w == w_o
    return fast, slow


def assert_same_window(domain: Domain, q_win, v, hi: float) -> bool:
    """Same result from both searches; True when the window holds a root."""
    return assert_same_result(*window_pair(domain, q_win, v, hi))


def assert_same_result(fast, slow) -> bool:
    """Two window results bit for bit; True when they hold a root."""
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
    assert _hex(best.radius_sq) == _hex(best_o.radius_sq)
    return True


def _broad_rows(domain: Domain) -> int | None:
    """Image rows per window of the domain's broad-phase sphere stack, if
    any."""
    rows = [s.deltas.shape[0] * s.deltas.shape[1] for s in domain.stacks
            if s.kind == "sphere" and s.reach_sq is not None]
    assert len(rows) <= 1      # every sphere of a torus has the same 3^d images
    return rows[0] if rows else None


def assert_same_chunk(domain: Domain, q, v, starts, widths) -> tuple[int, bool]:
    """One kernel call against the oracle window by window, bit for bit.

    Returns the first window with a root, or the number of windows searched,
    and whether a root was found.  A chunk without a root is searched to its
    end.
    """
    w, fast = kernel(domain, q, v, starts, widths)
    hit = fast is not None
    assert w < len(starts) if hit else w == len(starts)
    w_o, slow = oracle.chunk_scan(domain, q, v, starts[:w + hit], widths[:w + hit])
    assert w == w_o
    assert_same_result(fast, slow)
    return w, hit


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
    assert window_pair(cyl, np.array([0.1, 0.5, 0.0]), v, 0.5) == (None, None)
    # nearly along the axis, a = 9e-32: the quadratic from a point two ulps
    # outside the boundary has a root at t = 0.17, but the scatterer is skipped
    v = np.array([3e-16, 0.0, 1.0]) / np.linalg.norm([3e-16, 0.0, 1.0])
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


@pytest.mark.parametrize("q, v", [
    ([0.1, 0.5, 0.0], [0.0, 0.0, 1.0]),
    ([float.fromhex("0x1.3333333333332p-2"), 0.5, 0.0],
     np.array([3e-16, 0.0, 1.0]) / np.linalg.norm([3e-16, 0.0, 1.0])),
])
def test_flight_along_a_cylinder_axis_ends_at_its_horizon(q, v):
    # the search masks a cylinder the flight cannot reach (a < 1e-30): no
    # window holds a root, nothing divides by a, and the flight ends at its
    # horizon through the miss tail, as the oracle's
    cyl = DOMAINS["cylinder3d"]
    x = PhasePoint(np.asarray(q, dtype=float), np.asarray(v, dtype=float))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = flow(cyl, x, 5.0)
        assert next_collision(cyl, x, 5.0) is None
    slow = oracle.flow(cyl, x, 5.0)
    assert traj.events == [] and traj.termination == TERMINATION_HORIZON == slow.termination
    assert traj.t_end == 5.0 and traj.end.q.tobytes() == slow.end.q.tobytes()


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


def _count_chunks(monkeypatch):
    """Record each kernel call of a one-flight search as (chunk length,
    widths of the windows it searched: up to and including a hit)."""
    chunks = []
    original = dynamics._window_candidates

    def counted(domain, q, v, t_lo, hi):
        hits = original(domain, q, v, t_lo, hi)
        assert hi.shape[0] == 1
        w = hits[1][0] + 1 if hits[0].size else None
        chunks.append((hi.shape[1], hi[0, :w].tolist()))
        return hits

    monkeypatch.setattr(dynamics, "_window_candidates", counted)
    return chunks


def _outcome(fn, domain: Domain, x: PhasePoint, t_max: float):
    """A next_collision result, or its singularity, as comparable bits."""
    try:
        ev = fn(domain, x, t_max)
    except (DegenerateCollisionError, GrazingSingularityError, EscapeError) as e:
        return type(e).__name__, _hex(e.time)
    if ev is None:
        return None
    return (_hex(ev.t), ev.scatterer_index, _hex(ev.cos_phi),
            *(getattr(ev, k).tobytes() for k in ("q", "nu", "v_in", "v_out")))


@pytest.mark.parametrize("name", ["hardball32", "sinai2d", "sinai3d", "box_walls_sphere",
                                  "torus_sphere_cylinder"])
def test_next_collision_calls_the_kernel_once_per_chunk(monkeypatch, name):
    # the benchmark's window count and time wrap dynamics._window_candidates
    # at module level; the flow must call it through that global, once per
    # chunk of at most dynamics._chunk windows, and search exactly the windows
    # of the per-scatterer search
    dom = DOMAINS[name]
    chunk = dynamics._chunk(dom)[0]
    fast = _count_chunks(monkeypatch)
    slow = _count_calls(monkeypatch, oracle, "window_scan")
    rng = np.random.default_rng(409)
    windows = 0
    for t_max in [0.3, 0.7, 3.0] * 8:
        x = random_phase_point(dom, rng)
        fast.clear()
        slow.clear()
        got = _outcome(next_collision, dom, x, t_max)
        assert got == _outcome(oracle.next_collision, dom, x, t_max)
        searched = [hi for _, his in fast for hi in his]
        assert searched == slow and len(fast) >= 1
        assert all(1 <= k <= chunk for k, _ in fast)
        assert len(fast) == math.ceil(len(slow) / chunk)
        if got is None:        # no hit: the windows tile (0, t_max]
            assert len(slow) == math.ceil(t_max / (0.5 * dom.length_scale))
        windows += len(slow)
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


# ---------------------------------------------------------------------------
# Broad phase of the sphere stacks
# ---------------------------------------------------------------------------

BROAD_DOMAINS = {
    **{f"sinai{d}d": build_sinai(d, r, 1.0, [[0.5] * d])
       for d, r in ((3, 0.3), (4, 0.35), (5, 0.4), (6, 0.4), (7, 0.45), (8, 0.45))},
    "sinai4d_side2.5": build_sinai(4, 0.9, 2.5, [[1.0] * 4]),
    # two spheres in one stack: a window skips only when both are out of reach
    **{f"pair{d}d": build_sinai(d, 0.2, 1.0, [[0.25] * d, [0.75] * d]) for d in (3, 5, 8)},
    # r = 1e-3 L: the margin is a thousandth of the radius
    **{f"tiny{d}d": build_sinai(d, 1e-3, 1.0, [[0.5] * d]) for d in (3, 8)},
}


def _restacked(domain: Domain, **fields) -> Domain:
    """A copy of the domain with ``fields`` replaced in every stack."""
    dom = copy.copy(domain)
    dom.stacks = [replace(s, **fields) for s in domain.stacks]
    return dom


def _unfiltered(domain: Domain) -> Domain:
    """The domain with every stack scanned in every window."""
    return _restacked(domain, reach_sq=None)


def _skips(domain: Domain, q, v, t_lo: float, hi: float) -> bool:
    """Whether the broad phase skips the sphere stack in the window (0, hi]
    from ``q + t_lo v``: on a copy where that stack's image offsets have one
    coordinate too many, a scan that is not skipped fails."""
    probe = copy.copy(domain)
    probe.stacks = [replace(s, deltas=np.zeros(s.deltas.shape[:2] + (domain.d + 1,)))
                    if s.kind == "sphere" and s.reach_sq is not None else s
                    for s in domain.stacks]
    try:
        kernel(probe, q, v, [t_lo], [hi])
    except ValueError:
        return False
    return True


def assert_broad_phase_exact(domain: Domain, q_win, v, hi: float) -> bool:
    """The broad-phase kernel against the unfiltered scan, bit for bit, and
    its decision against the segment distance oracle; True when skipped."""
    (w, fast), (w_u, slow) = (kernel(domain, q_win, v, [0.0], [hi]),
                              kernel(_unfiltered(domain), q_win, v, [0.0], [hi]))
    assert w == w_u
    assert_same_result(fast, slow)
    skipped = _skips(domain, q_win, v, 0.0, hi)
    (stack,) = domain.stacks
    reach = np.sqrt(stack.reach_sq)
    box, dist = (np.array([fn(domain, i, q_win, v, hi) for i in stack.indices])
                 for fn in (oracle.box_lattice_distance, oracle.segment_lattice_distance))
    # the box holds the segment
    assert (box <= dist + 1e-12 * domain.length_scale).all()
    if skipped:
        assert slow is None
        assert (dist > stack.radii).all() or hi == 0.0
    # no window the box test skips is kept
    if (box > reach * (1.0 + 1e-9)).all():
        assert skipped
    # the segment distance is exact, so the decision follows the oracle
    # wherever rounding cannot tip it; a window of length 0 holds no root
    if (dist > reach * (1.0 + 1e-9)).all() or hi == 0.0:
        assert skipped
    if (dist < reach * (1.0 - 1e-9)).any() and hi > 0.0:
        assert not skipped
    return skipped


def _unit_normal_to(v: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    e = rng.standard_normal(v.shape[0])
    e -= (e @ v) * v
    return e / np.linalg.norm(e)


BROAD_KINDS = ["random", "root_at_hi", "grazing", "at_reach", "face", "walls", "padding"]


def _broad_state(domain: Domain, rng: np.random.Generator, kind: str, sign: float,
                 zeros: int = 0):
    """A window state whose velocity has ``zeros`` zero components (at most
    d - 1): random, or aimed at a lattice image of a center so that the
    entering root sits at hi -+ 1e-12 (``root_at_hi``), the closest approach
    is r (1 +- 1e-12) (``grazing``) or reach (1 +- 1e-9) (``at_reach``);
    ``face`` puts mid on a cell face (or one ulp off it), where rint flips,
    in a coordinate of zero velocity if there is one (a wall crossing of
    0 / 0); ``walls`` crosses the cell walls of up to d coordinates inside
    the window, with the other coordinates of mid at the image (``sign``
    -1) or anywhere in the cell; ``padding`` is a window of length 0 from
    a point within r of an image."""
    d, L = domain.d, domain.ambient.side
    window = 0.5 * L
    zero = rng.choice(d, min(zeros, d - 1), replace=False)
    v = rng.standard_normal(d)
    v[zero] = 0.0
    v /= np.linalg.norm(v)
    if kind == "random":
        q, _, hi = _window_state(domain, rng, rng.uniform(0.0, 3.0) * L, rng.uniform(1e-3, 1.0))
        return q, v, hi
    if kind == "face":
        q = rng.uniform(0.0, L, d)
        hi = rng.uniform(1e-3, 1.0) * window
        c = int(zero[0]) if zero.size else int(rng.integers(d))
        k = int(rng.integers(-2, 2))
        target = (k + 0.5) * L
        if sign < 0.0:
            target = np.nextafter(target, rng.choice([-np.inf, np.inf]))
        center = domain.scatterers[int(rng.integers(len(domain.scatterers)))].center
        q[c] = target + center[c] - (0.5 * hi) * v[c]
        for _ in range(8):      # nudge q[c] until mid[c] is the target exactly
            mid = q[c] + (0.5 * hi) * v[c] - center[c]
            if mid == target:
                break
            q[c] = np.nextafter(q[c], np.inf if mid < target else -np.inf)
        return q, v, hi
    sphere = domain.scatterers[int(rng.integers(len(domain.scatterers)))]
    r = sphere.radius
    image = sphere.center + L * rng.integers(-1, 2, d)
    if kind == "walls":
        hi = window
        m = np.zeros(d) if sign < 0.0 else rng.uniform(-0.5, 0.5, d) * L
        cross = rng.choice(d, int(rng.integers(1, d + 1)), replace=False)
        tau = rng.uniform(-0.5, 0.5, cross.size) * hi
        m[cross] = np.copysign(0.5 * L, tau * v[cross]) - tau * v[cross]
        return image + m - (0.5 * hi) * v, v, hi
    if kind == "padding":
        return image + rng.uniform(-1.0, 1.0, d) * (r / np.sqrt(d)), v, 0.0
    e = _unit_normal_to(v, rng)
    if kind == "root_at_hi":
        D = rng.uniform(0.0, 0.999) * r
        t_hit = rng.uniform(1e-3, 1.0) * window
        t_c = t_hit + np.sqrt(r * r - D * D)
        hi = t_hit - sign * 1e-12
    else:
        reach = r + 1e-6 * L
        D = r * (1.0 + sign * 1e-12) if kind == "grazing" else reach * (1.0 + sign * 1e-9)
        hi = rng.uniform(1e-3, 1.0) * window
        t_c = rng.uniform(0.0, 1.0) * hi
    return image + D * e - t_c * v, v, hi


@pytest.mark.parametrize("name", sorted(BROAD_DOMAINS))
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(BROAD_KINDS), sign=st.sampled_from([-1.0, 1.0]),
       zeros=st.integers(0, 2))
def test_broad_phase_matches_unfiltered_scan(name, seed, kind, sign, zeros):
    domain = BROAD_DOMAINS[name]
    q_win, v, hi = _broad_state(domain, np.random.default_rng(seed), kind, sign, zeros)
    assert_broad_phase_exact(domain, q_win, v, hi)
    assert_same_window(domain, q_win, v, hi)


@pytest.mark.parametrize("name", sorted(BROAD_DOMAINS))
def test_segment_gap_matches_oracle(name):
    # the broad phase's distance from a window's flight segment to each
    # center's lattice against the oracle's closest approach to every one of
    # the 3^d images, to 1e-9 L, on windows of every kind, also with zero
    # velocity components and wall crossings in several coordinates
    domain = BROAD_DOMAINS[name]
    rng = np.random.default_rng(443)
    (stack,) = domain.stacks
    L = domain.ambient.side
    crossings = 0
    for kind in BROAD_KINDS:
        for j in range(6):
            q_win, v, hi = _broad_state(domain, rng, kind, (-1.0, 1.0)[j % 2], j % 3)
            mid = q_win + (0.5 * hi) * v - stack.points
            m = mid - L * np.rint(mid / L)
            crossings += int((np.abs(m) + (0.5 * hi) * np.abs(v) > 0.5 * L).sum())
            got = np.sqrt(dynamics._segment_gap_sq(m[None], v[None], np.array([0.5 * hi]), L))[0]
            want = [oracle.segment_lattice_distance(domain, i, q_win, v, hi)
                    for i in stack.indices]
            assert np.abs(got - want).max() <= 1e-9 * L, (kind, j)
    assert crossings >= 2 * domain.d


@pytest.mark.parametrize("name", sorted(BROAD_DOMAINS))
def test_broad_phase_along_flights(name):
    # every window of a few long flights, half of them aimed at a center:
    # both decisions occur, most 8-d windows skip, and no result moves
    domain = BROAD_DOMAINS[name]
    rng = np.random.default_rng(421)
    window = 0.5 * domain.length_scale
    skipped = scanned = 0
    for j in range(4):
        x = random_phase_point(domain, rng)
        if j % 2:
            aim = domain.min_image(domain.scatterers[0].center - x.q)
            x = PhasePoint(x.q, aim / np.linalg.norm(aim))
        for k in range(30):
            if assert_broad_phase_exact(domain, x.q + (k * window) * x.v, x.v, window):
                skipped += 1
            else:
                scanned += 1
    assert skipped and scanned
    if domain.d == 8 and name.startswith("sinai"):
        assert skipped > 0.8 * (skipped + scanned)


def assert_same_flows(fast, slow) -> int:
    """Two lists of trajectories bit for bit; returns their event count."""
    assert len(fast) == len(slow)
    for f, s in zip(fast, slow):
        assert (f.termination, _hex(f.t_end)) == (s.termination, _hex(s.t_end))
        assert len(f.events) == len(s.events)
        for a, b in zip(f.events, s.events):
            assert (_hex(a.t), a.scatterer_index) == (_hex(b.t), b.scatterer_index)
            for name in ("q", "nu", "v_in", "v_out"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert f.end.q.tobytes() == s.end.q.tobytes()
    return sum(len(f.events) for f in fast)


@pytest.mark.parametrize("d, T", [(3, 20.0), (4, 20.0), (8, 40.0)])
def test_flow_with_broad_phase_matches_unfiltered_flow(d, T):
    domain = BROAD_DOMAINS[f"sinai{d}d"]
    plain = _unfiltered(domain)
    rng = np.random.default_rng(431 + d)
    starts = [random_phase_point(domain, rng) for _ in range(4)]
    events = assert_same_flows([flow(domain, x0, T) for x0 in starts],
                               [flow(plain, x0, T) for x0 in starts])
    assert events >= 4


def test_sinai_d8_run_scans_few_windows(tmp_path, monkeypatch):
    # the 8-d Sinai run of the benchmark (18 starts, T = 100, seed 1) scans
    # the 6561 images of 69 windows, where the box test alone scans 278: the
    # segment test keeps 69 of the 318 windows whose flight boxes come within
    # reach, and the scan finds a root in none of those it drops
    path = tmp_path / "sinai8d.json"
    path.write_text(json.dumps({
        "domain": {"kind": "sinai", "d": 8, "r": 0.45, "L": 1.0, "centers": [[0.5] * 8]},
        "initial": {"sampler": {"count": 18, "seed": 1, "c0": 0.1}}, "horizon": 100.0}))
    scanned = []
    original = dynamics._image_roots

    def counted(st, qw, *rest):
        if st.reach_sq is not None:
            scanned.append(qw.shape[0])
        return original(st, qw, *rest)

    monkeypatch.setattr(dynamics, "_image_roots", counted)
    summary, code = run_experiment(load_config(path), mode="run", out_dir=tmp_path / "out")
    assert code == 0 and sum(t["event_count"] for t in summary["trajectories"]) == 35
    assert sum(scanned) <= 80


# ---------------------------------------------------------------------------
# Broad phase of the ball-pair stacks
# ---------------------------------------------------------------------------

PAIR_DOMAINS = {
    "hardball22": build_hardball_gas(2, 2, 0.1, 1.0),
    "hardball32": DOMAINS["hardball32"],
    "hardball62": DOMAINS["hardball62"],
    "hardball43": build_hardball_gas(4, 3, 0.1, 1.0),
}
PAIR_KINDS = ["random", "contact", "at_reach", "walls", "padding"]


def _pair_scans(domain: Domain, q_win, v, hi: float):
    """The kernel on the one window (0, hi] from ``q_win``, and the
    scatterer indices of the (window, pair) blocks it scans."""
    scanned = []
    original = dynamics._image_roots

    def spy(st, qw, *rest):
        if st.pairs is not None:
            assert st.deltas.ndim == 4 and qw.shape[0] == st.indices.size
            scanned.extend(st.indices.tolist())
        return original(st, qw, *rest)

    with mock.patch.object(dynamics, "_image_roots", spy):
        result = kernel(domain, q_win, v, [0.0], [hi])
    assert len(scanned) == len(set(scanned))
    return result, set(scanned)


def assert_pair_broad_phase_exact(domain: Domain, q_win, v, hi: float) -> set:
    """The pair broad phase against the unfiltered scan, bit for bit, and
    its decisions against the relative segment oracle: no block within
    reach is skipped, and a skipped block's own scan has no root.  Returns
    the scanned pairs' scatterer indices."""
    (w, fast), scanned = _pair_scans(domain, q_win, v, hi)
    w_u, slow = kernel(_unfiltered(domain), q_win, v, [0.0], [hi])
    assert w == w_u
    assert_same_result(fast, slow)
    (stack,) = domain.stacks
    for k, reach_sq in zip(stack.indices.tolist(), stack.reach_sq):
        dist = oracle.pair_lattice_distance(domain, k, q_win, v, hi)
        if k not in scanned:
            assert not oracle.scatterer_candidates(domain, k, q_win, v, hi)
        if dist < np.sqrt(reach_sq) * (1.0 - 1e-9) and hi > 0.0:
            assert k in scanned
    if hi == 0.0:
        assert not scanned
    return scanned


def _pair_state(domain: Domain, rng: np.random.Generator, kind: str, sign: float,
                zeros: int = 0):
    """A window state of a random ball pair (i, j) with ``zeros`` relative
    velocity components exactly 0 (``v_i,c = v_j,c``, up to all b): random,
    or with the relative segment y + t u (y = q_i - q_j, u = v_i - v_j)
    passing a lattice point of y at 2r +- 1e-9 L (``contact``) or at reach
    (1 +- 1e-9) (``at_reach``); ``walls`` crosses the cell walls of y in up
    to b coordinates inside the window, with y's other coordinates at the
    lattice point (``sign`` -1) or anywhere in the cell; ``padding`` is a
    window of length 0 from y within 2r of a lattice point."""
    d, L = domain.d, domain.ambient.side
    window = 0.5 * L
    (stack,) = domain.stacks
    b = d - stack.axes.shape[1]
    k = int(rng.integers(stack.indices.size))
    i, j = stack.pairs[k]
    ball_i, ball_j = slice(i * b, (i + 1) * b), slice(j * b, (j + 1) * b)
    q = rng.uniform(0.0, L, d)
    v = rng.standard_normal(d)
    zero = rng.choice(b, min(zeros, b), replace=False)
    v[j * b + zero] = v[i * b + zero]
    v /= np.linalg.norm(v)
    u = v[ball_i] - v[ball_j]
    hi = rng.uniform(1e-3, 1.0) * window
    if kind == "random" or (kind in ("contact", "at_reach") and not u.any()):
        return q + rng.uniform(0.0, 3.0) * L * v, v, hi
    r = domain.scatterers[k].radius / np.sqrt(2.0)
    image = L * rng.integers(-1, 2, b)
    if kind == "walls":
        hi = window
        m = np.zeros(b) if sign < 0.0 else rng.uniform(-0.5, 0.5, b) * L
        cross = rng.choice(b, int(rng.integers(1, b + 1)), replace=False)
        tau = rng.uniform(-0.5, 0.5, cross.size) * hi
        m[cross] = np.copysign(0.5 * L, tau * u[cross]) - tau * u[cross]
        y = image + m - (0.5 * hi) * u
    elif kind == "padding":
        hi = 0.0
        y = image + rng.uniform(-1.0, 1.0, b) * (2.0 * r / np.sqrt(b))
    else:
        e = rng.standard_normal(b)
        e -= (e @ u) / (u @ u) * u
        e /= np.linalg.norm(e)
        reach = 2.0 * r + np.sqrt(2.0) * 1e-6 * L
        D = 2.0 * r + sign * 1e-9 * L if kind == "contact" else reach * (1.0 + sign * 1e-9)
        y = image + D * e - rng.uniform(0.0, 1.0) * hi * u
    # the pair's balls about their mean, the others where they were
    mean = 0.5 * (q[ball_i] + q[ball_j])
    q[ball_i], q[ball_j] = mean + 0.5 * y, mean - 0.5 * y
    return q, v, hi


@pytest.mark.parametrize("name", sorted(PAIR_DOMAINS))
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(PAIR_KINDS),
       sign=st.sampled_from([-1.0, 1.0]), zeros=st.integers(0, 3))
def test_pair_broad_phase_skips_only_blocks_out_of_reach(name, seed, kind, sign, zeros):
    domain = PAIR_DOMAINS[name]
    q_win, v, hi = _pair_state(domain, np.random.default_rng(seed), kind, sign, zeros)
    assert_pair_broad_phase_exact(domain, q_win, v, hi)
    assert_same_window(domain, q_win, v, hi)


@pytest.mark.parametrize("name", sorted(PAIR_DOMAINS))
def test_pair_broad_phase_states_reach_their_cases(name):
    # the states of the hypothesis test do what they say: contact states
    # pass 2r within 2e-9 L (those just inside it hold a root), at_reach
    # states pass reach within 2e-9 of it, walls states cross a cell wall
    # of a displacement in the window; both decisions occur
    domain = PAIR_DOMAINS[name]
    (stack,) = domain.stacks
    L, b = domain.ambient.side, domain.d - stack.axes.shape[1]
    i, j = (stack.pairs[:, k:k + 1] * b + np.arange(b) for k in (0, 1))   # (S, b)
    contact, reach = np.sqrt(2.0) * stack.radii, np.sqrt(stack.reach_sq)
    rng = np.random.default_rng(457)
    seen = Counter()
    for kind in PAIR_KINDS:
        for n in range(12):
            sign = (-1.0, 1.0)[n % 2]
            q_win, v, hi = _pair_state(domain, rng, kind, sign, n % (b + 2))
            scanned = assert_pair_broad_phase_exact(domain, q_win, v, hi)
            seen["scanned"] += len(scanned)
            seen["skipped"] += stack.indices.size - len(scanned)
            dist = np.array([oracle.pair_lattice_distance(domain, k, q_win, v, hi)
                             for k in stack.indices.tolist()])
            if kind == "contact" and (np.abs(dist - contact) <= 2e-9 * L).any():
                seen["contact"] += 1
                hit = kernel(domain, q_win, v, [0.0], [hi])[1] is not None
                seen["root"] += sign < 0.0 and hit
            if kind == "at_reach":
                seen["at_reach"] += (np.abs(dist / reach - 1.0) <= 2e-9).any()
            if kind == "walls":
                y, u = q_win[i] - q_win[j] + 0.5 * hi * (v[i] - v[j]), v[i] - v[j]
                m = y - L * np.rint(y / L)
                seen["walls"] += (np.abs(m) + 0.5 * hi * np.abs(u) > 0.5 * L).any()
    assert seen["scanned"] and seen["skipped"]
    # on 2 disks half the states draw b zero components: u = 0, no contact
    assert seen["contact"] >= 4 and seen["root"] >= 2 and seen["at_reach"] >= 4
    assert seen["walls"] >= 4


@pytest.mark.parametrize("name", sorted(PAIR_DOMAINS))
def test_pair_broad_phase_along_flights(name):
    # every window of a few flights, one at a time: both decisions occur
    # and no result moves
    domain = PAIR_DOMAINS[name]
    rng = np.random.default_rng(461)
    window = 0.5 * domain.length_scale
    seen = Counter()
    for _ in range(6):
        x = random_phase_point(domain, rng)
        for k in range(12):
            scanned = assert_pair_broad_phase_exact(domain, x.q + (k * window) * x.v, x.v,
                                                    window)
            seen["scanned"] += len(scanned)
            seen["skipped"] += len(domain.scatterers) - len(scanned)
    assert seen["scanned"] and seen["skipped"]


@pytest.mark.parametrize("name, T", [("hardball22", 10.0), ("hardball32", 5.0),
                                     ("hardball62", 2.0), ("hardball43", 3.0)])
def test_flow_with_pair_broad_phase_matches_unfiltered_flow(name, T):
    # a flight group in lockstep, with and without the pair broad phase
    domain = PAIR_DOMAINS[name]
    rng = np.random.default_rng(467)
    starts = [random_phase_point(domain, rng) for _ in range(16)]
    events = assert_same_flows(flow(domain, starts, T), flow(_unfiltered(domain), starts, T))
    assert events >= 16


def test_hardball6_run_scans_few_pair_blocks(tmp_path, monkeypatch):
    # the 6-disk run of the benchmark (80 starts, T = 6, seed 1) searches
    # 40 rounds of one window a flight, 36360 (window, pair) blocks in all;
    # the pair broad phase scans the 8266 (22.7%) whose relative segments
    # come within reach, and the run has 2119 events
    path = tmp_path / "hardball6.json"
    path.write_text(json.dumps({
        "domain": {"kind": "hardball_gas", "N": 6, "d": 2, "r": 0.1, "L": 1.0},
        "initial": {"sampler": {"count": 80, "seed": 1, "c0": 0.1}}, "horizon": 6.0}))
    blocks, scanned = [], []
    search, scan = dynamics._window_candidates, dynamics._image_roots

    def counted_search(domain, q, v, t_lo, hi):
        blocks.append(hi.size * len(domain.scatterers))
        return search(domain, q, v, t_lo, hi)

    def counted_scan(st, qw, *rest):
        assert st.pairs is not None and st.deltas.ndim == 4
        scanned.append(qw.shape[0])
        return scan(st, qw, *rest)

    monkeypatch.setattr(dynamics, "_window_candidates", counted_search)
    monkeypatch.setattr(dynamics, "_image_roots", counted_scan)
    summary, code = run_experiment(load_config(path), mode="run", out_dir=tmp_path / "out")
    assert code == 0 and sum(t["event_count"] for t in summary["trajectories"]) == 2119
    assert len(blocks) == 40 and sum(blocks) == 36360
    assert sum(scanned) <= 0.25 * sum(blocks)


def test_broad_phase_on_sphere_lattices_and_ball_pairs():
    # sphere stacks of a torus with d >= 3 get the reach, and ball-pair
    # stacks get it in units of the balls' displacement, sqrt 2 times the
    # cylinder's transverse units
    for name, domain in {**DOMAINS, **BROAD_DOMAINS, **PAIR_DOMAINS}.items():
        for s in domain.stacks:
            if s.kind == "sphere" and s.deltas.shape[1] >= 27:
                reach = s.radii + 1e-6 * domain.length_scale
                assert s.reach_sq.tobytes() == (reach ** 2).tobytes(), name
            elif s.pairs is not None:
                reach = s.radii + 1e-6 * domain.length_scale
                assert s.reach_sq.tobytes() == (2.0 * reach ** 2).tobytes(), name
            else:
                assert s.reach_sq is None, name
    # no 2-d lattice, no sphere in a box, no cylinder stack without balls
    # gets it
    box3d = Domain(3, Box((1.0, 1.0, 1.0)), [Sphere(np.array([0.5, 0.5, 0.5]), 0.2)])
    for domain in (DOMAINS["sinai2d"], DOMAINS["box_walls_sphere"], box3d,
                   DOMAINS["cylinder3d"], DOMAINS["crossed_cylinders"]):
        assert all(s.reach_sq is None for s in domain.stacks)
    sphere, cylinder = DOMAINS["torus_sphere_cylinder"].stacks
    assert sphere.reach_sq is not None and cylinder.reach_sq is None
    assert all(s.reach_sq is not None for s in DOMAINS["sinai8d"].stacks)
    for name in ("hardball32", "hardball62"):
        assert all(s.reach_sq is not None for s in DOMAINS[name].stacks)


# ---------------------------------------------------------------------------
# Chunks of windows
# ---------------------------------------------------------------------------

CHUNK_DOMAINS = {**DOMAINS, **{k: d for k, d in BROAD_DOMAINS.items() if k.startswith("sinai")}}


def test_window_chunk_per_domain():
    # 64 image rows per call: S m per stack, S per broad-phase stack, at
    # most 16 windows and at least one
    expected = {"sinai2d": 7, "cylinder3d": 7, "crossed_cylinders": 3,
                "torus_sphere_cylinder": 6, "box_walls_sphere": 16,
                "hardball32": 1, "hardball62": 1,
                **{f"sinai{d}d": 16 for d in range(3, 9)}, "sinai4d_side2.5": 16}
    assert {k: dynamics._chunk(CHUNK_DOMAINS[k])[0] for k in expected} == expected
    assert dynamics._chunk(Domain(2, Torus(1.0), [])) == (16, 16)
    # the image rows of one chunk size the lockstep groups
    assert dynamics._chunk(CHUNK_DOMAINS["sinai2d"]) == (7, 63)
    assert dynamics._chunk(CHUNK_DOMAINS["hardball62"]) == (1, 375)
    assert dynamics._chunk(CHUNK_DOMAINS["sinai8d"]) == (16, 16)


def _aimed(domain: Domain, x: PhasePoint, cells: int = 0) -> PhasePoint:
    """The phase point with its velocity aimed at the first scatterer, or at
    its image ``cells`` lattice cells farther along the first axis."""
    s = domain.scatterers[0]
    ref = s.plane_point if isinstance(s, Halfspace) else \
        s.center if isinstance(s, Sphere) else s.axis_point
    aim = domain.min_image(ref - x.q)
    aim[0] += math.copysign(cells * domain.length_scale, aim[0])
    return PhasePoint(x.q, aim / np.linalg.norm(aim))


@pytest.mark.parametrize("name", sorted(CHUNK_DOMAINS))
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), aim=st.booleans(), skip=st.integers(0, 30),
       length=st.floats(1e-3, 1.5))
def test_chunk_matches_oracle(name, seed, aim, skip, length):
    # a chunk anywhere along a flight, ending in a partial window or not
    domain = CHUNK_DOMAINS[name]
    x = random_phase_point(domain, np.random.default_rng(seed))
    if aim:
        x = _aimed(domain, x)
    window = 0.5 * domain.length_scale
    chunk = dynamics._chunk(domain)[0]
    t0 = skip * window
    starts, widths = tiles(t0, t0 + length * chunk * window, window, chunk)
    assert_same_chunk(domain, x.q, x.v, starts, widths)


@pytest.mark.parametrize("name", sorted(CHUNK_DOMAINS))
def test_chunks_match_oracle_along_flights(name):
    # every chunk of a flight up to its first root, as next_collision
    # searches them: chunks with and without a root, chunks that end in a
    # partial window, and for broad-phase stacks chunks that skip some of
    # their windows (every fourth flight is aimed at an image a cell
    # farther, so that its root lies past its first window)
    domain = CHUNK_DOMAINS[name]
    rng = np.random.default_rng(433)
    window = 0.5 * domain.length_scale
    chunk = dynamics._chunk(domain)[0]
    flights = 8 if domain.d >= 7 else 16
    seen = Counter()
    for j in range(flights):
        x = random_phase_point(domain, rng)
        if j % 2:
            x = _aimed(domain, x, cells=int(j % 4 == 3))
        # every third flight ends within its first window
        horizon = rng.uniform(0.02, 1.0 if j % 3 == 2 else 3.0 * chunk) * window
        t_lo = 0.0
        while t_lo < horizon:
            starts, widths = tiles(t_lo, horizon, window, chunk)
            w, hit = assert_same_chunk(domain, x.q, x.v, starts, widths)
            searched = w + hit
            seen["hit" if hit else "miss"] += 1
            seen["partial"] += not hit and w == len(starts) and widths[-1] < window
            if _broad_rows(domain) is not None and searched > 1:
                skips = {_skips(domain, x.q, x.v, t, hi)
                         for t, hi in zip(starts[:searched], widths[:searched])}
                seen["mixed"] += skips == {True, False}
            if hit:
                break
            t_lo = starts[w] if w < len(starts) else starts[-1] + widths[-1]
    assert seen["hit"] >= flights // 3 and seen["miss"] and seen["partial"]
    if _broad_rows(domain) is not None:
        assert seen["mixed"]


@pytest.mark.parametrize("name", ["sinai3d", "sinai4d", "sinai8d", "torus_sphere_cylinder"])
def test_row_cap_batches_the_scan_of_a_round(monkeypatch, name):
    # flights along a lattice axis passing the sphere between its radius and
    # its reach: every window is in reach and none holds a root.  A round of
    # more such windows than the byte budget fits, at m images of
    # _row_bytes(d) a window, scans them in batches of at most that many,
    # and searches every chunk to its end
    domain = CHUNK_DOMAINS[name]
    s = domain.scatterers[0]
    d, window, chunk = domain.d, 0.5 * domain.length_scale, dynamics._chunk(domain)[0]
    rows = _broad_rows(domain)
    cap = budget.fit(rows * dynamics._row_bytes(d))
    flights = cap // chunk + 2
    q = np.repeat(s.center[None], flights, axis=0)
    q[:, 1] += s.radius + np.linspace(0.2e-6, 0.8e-6, flights) * domain.length_scale
    v = np.repeat(np.eye(d)[:1], flights, axis=0)
    starts, widths = tiles(0.0, np.inf, window, chunk)
    assert not any(_skips(domain, q[0], v[0], t, hi) for t, hi in zip(starts, widths))
    batches = []
    original = dynamics._image_roots

    def counted(st, qw, *rest):
        if st.reach_sq is not None:
            batches.append(qw.shape[0])
        return original(st, qw, *rest)

    monkeypatch.setattr(dynamics, "_image_roots", counted)
    hits = dynamics._window_candidates(
        domain, q, v, np.repeat([starts], flights, axis=0),
        np.repeat([widths], flights, axis=0))
    assert hit_rows(hits) == {}
    assert sum(batches) == flights * chunk and len(batches) >= 2
    assert all(b <= cap for b in batches) and batches[0] == cap
    for x, y in zip(q, v):
        assert assert_same_chunk(domain, x, y, starts, widths) == (chunk, False)
        assert next_collision(domain, PhasePoint(x, y), 5.0) is None


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_chunk_root_exactly_at_window_end(name):
    # the window holding the first root ends exactly at that root, or one
    # ulp before or after it; windows before and after it fill the chunk
    domain = DOMAINS[name]
    rng = np.random.default_rng(439)
    window = 0.5 * domain.length_scale
    chunk = dynamics._chunk(domain)[0]
    at_end = 0
    for j in range(16):
        x = random_phase_point(domain, rng)
        if j % 2:
            x = _aimed(domain, x)
        starts, widths = tiles(0.0, 30.0 * window, window, 60)
        w, found = oracle.chunk_scan(domain, x.q, x.v, starts, widths)
        if found is None:
            continue
        t = found[0].t
        first = max(0, w - chunk // 2)
        for hi in (t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf)):
            after = tiles(starts[w] + hi, np.inf, window, chunk - (w - first) - 1)
            cs = starts[first:w + 1] + after[0]
            cw = widths[first:w] + [hi] + after[1]
            hit_w, hit = assert_same_chunk(domain, x.q, x.v, cs, cw)
            best = kernel(domain, x.q, x.v, cs, cw)[1]
            at_end += hit and first + hit_w == w and best[0].t == hi
    assert at_end >= 4


def test_empty_torus_searches_full_chunks(monkeypatch):
    # no scatterer, 0 images: 16 windows per call, and nothing to hit
    dom = Domain(2, Torus(1.0), [])
    chunks = _count_chunks(monkeypatch)
    x = PhasePoint(np.array([0.3, 0.4]), np.array([0.6, 0.8]))
    assert next_collision(dom, x, 10.0) is None
    assert [(k, len(his)) for k, his in chunks] == [(16, 16), (4, 4)]
    traj = flow(dom, x, 10.0)
    assert traj.events == [] and traj.t_end == 10.0


@pytest.mark.parametrize("d", [2, 3])
def test_box_escape_caps_the_horizon(monkeypatch, d):
    # a box without walls: the windows tile (0, escape_t + eps_time], not
    # (0, t_max], and the flight escapes or first hits the sphere
    dom = Domain(d, Box((1.0,) * d), [Sphere(np.full(d, 0.5), 0.2)])
    assert dynamics._chunk(dom)[0] == 16
    fast = _count_chunks(monkeypatch)
    slow = _count_calls(monkeypatch, oracle, "window_scan")
    rng = np.random.default_rng(443 + d)
    outcomes = Counter()
    for _ in range(30):
        x = random_phase_point(dom, rng)
        fast.clear()
        slow.clear()
        got = _outcome(next_collision, dom, x, 50.0)
        assert got == _outcome(oracle.next_collision, dom, x, 50.0)
        assert [hi for _, his in fast for hi in his] == slow
        outcomes["escape" if got[0] == "EscapeError" else "hit"] += 1
        if got[0] == "EscapeError":
            y = oracle.validate_phase_point(dom, x)
            escape_t = dom.ambient.exit_time(y.q, y.v, slack=dom.eps_surface)
            assert got[1] == _hex(escape_t) and len(slow) < 100
            # flow validates its start once more, as next_collision does
            traj = flow(dom, x, 50.0)
            if not traj.events:
                assert traj.termination == "escape_error"
                assert _hex(traj.t_end) == _outcome(next_collision, dom, y, 50.0)[1]
    assert outcomes["escape"] and outcomes["hit"]


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_horizon_shorter_than_one_window(monkeypatch, name):
    # one call of one partial window, with the oracle's outcome
    domain = DOMAINS[name]
    rng = np.random.default_rng(449)
    window = 0.5 * domain.length_scale
    fast = _count_chunks(monkeypatch)
    for j in range(12):
        x = random_phase_point(domain, rng)
        if j % 2:
            x = _aimed(domain, x)
        T = rng.uniform(0.01, 0.99) * window
        fast.clear()
        assert _outcome(next_collision, domain, x, T) == _outcome(oracle.next_collision,
                                                                  domain, x, T)
        ((k, his),) = fast           # one call of one window
        assert k == 1 and len(his) == 1
        # a box flight that escapes first searches only up to the escape
        assert his[0] == T if domain.ambient.periodic else his[0] <= T
