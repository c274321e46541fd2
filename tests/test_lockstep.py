"""The lockstep flow against the per-trajectory oracle, bit for bit.

``dynamics.flow`` flies a group of starts with one kernel call per round;
``dynamics_oracle.flow`` runs the old event loop on one start at a time,
with the per-scatterer window scan.  Every trajectory must agree in
every field: events, segments, termination, ``t_end``, the end state and
``max_speed_drift``, also when the byte budget ``budget.PASS_BYTES`` splits
the starts into several groups or the broad-phase scan into several
batches.  The chunk tiling
(``_tile`` against the running sum of one window at a time), the tail of a
search without a root, the batched state check (``Domain.contains`` on a
stack of points), the streamed CSVs and the names the benchmark's tracer
wraps, and that the flow still goes through them, are checked here too.
"""

from __future__ import annotations

import gc
import importlib
import importlib.util
import json
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynamics_oracle as oracle
import geometry_oracle
from billiards import (
    ConfigError,
    EscapeError,
    InvalidStateError,
    PhasePoint,
    TERMINATION_DEGENERATE,
    TERMINATION_ESCAPE,
    TERMINATION_EVENT_CAP,
    TERMINATION_GRAZING,
    TERMINATION_HORIZON,
    Box,
    Cylinder,
    build_hardball_gas,
    budget,
    build_sinai,
    dynamics,
    flight_groups,
    flow,
    runner,
)
from billiards.cli import main
from billiards.config import load_config
from billiards.runner import run_experiment
from billiards.tolerances import MAX_EVENTS_DEFAULT
from conftest import random_phase_point
from test_window_kernel import (CHUNK_DOMAINS, DOMAINS, _aimed, assert_same_result, hit_rows,
                                tiles)

ROOT = Path(__file__).resolve().parents[1]

LOCKSTEP_DOMAINS = {**DOMAINS, **{f"sinai{d}d": build_sinai(d, r, 1.0, [[0.5] * d])
                                  for d, r in ((3, 0.3), (4, 0.35), (5, 0.4), (6, 0.4),
                                               (7, 0.45), (8, 0.45))}}


def _hex(x: float) -> str:
    return float(x).hex()


def _event_bits(e) -> tuple:
    return (_hex(e.t), e.scatterer_index, _hex(e.cos_phi),
            *(getattr(e, k).tobytes() for k in ("q", "nu", "v_in", "v_out")))


def _segment_bits(s) -> tuple:
    return _hex(s.t0), _hex(s.t1), s.q0.tobytes(), s.v.tobytes()


def _bits(traj) -> tuple:
    """Every field of a trajectory, as comparable bits."""
    return (traj.termination, _hex(traj.t_end), _hex(traj.max_speed_drift),
            traj.start.q.tobytes(), traj.start.v.tobytes(),
            traj.end.q.tobytes(), traj.end.v.tobytes(),
            tuple(map(_event_bits, traj.events)), tuple(map(_segment_bits, traj.segments)))


def assert_views_match_oracle(traj, slow) -> None:
    """A trajectory's event columns and its ``events``/``segments`` views,
    read by negative index and by slice, against the oracle's lists of
    records, bit for bit."""
    ev, seg = slow.events, slow.segments
    want = ([e.t for e in ev], [e.q for e in ev], [e.scatterer_index for e in ev],
            [e.nu for e in ev], [e.cos_phi for e in ev], [e.v_in for e in ev],
            [e.v_out for e in ev], [s.v for s in seg[1:]])
    for got, w in zip(traj.columns, want, strict=True):
        assert not got.flags.writeable and len(got) == len(ev)
        assert got.tobytes() == np.array(w, dtype=got.dtype).tobytes()
    n = traj.event_count
    assert len(traj.events) == n == len(ev) and len(traj.segments) == n + 1 == len(seg)
    assert [_segment_bits(s) for s in traj.segments[::-1]] == [_segment_bits(s) for s in seg[::-1]]
    assert [_event_bits(e) for e in traj.events[1:]] == [_event_bits(e) for e in ev[1:]]
    assert _segment_bits(traj.segments[-1]) == _segment_bits(seg[-1])
    if n:
        assert _event_bits(traj.events[-1]) == _event_bits(ev[-1])
    with pytest.raises(IndexError):
        traj.segments[n + 1]
    assert traj.segments == traj.segments and (traj.events == []) == (n == 0)


def assert_lockstep_matches_oracle(domain, starts, T, max_events=MAX_EVENTS_DEFAULT,
                                   eps_graze=1e-10, pass_bytes=None) -> list:
    """The lockstep flow of all starts against the oracle, one start at a
    time; ``pass_bytes`` replaces ``budget.PASS_BYTES``.  Returns the
    trajectories."""
    with mock.patch.object(budget, "PASS_BYTES", pass_bytes or budget.PASS_BYTES):
        fast = [traj for g in flight_groups(domain, len(starts))
                for traj in flow(domain, starts[g.start:g.stop], T, max_events=max_events,
                                 eps_graze=eps_graze)]
    assert len(fast) == len(starts)
    for traj, x in zip(fast, starts):
        slow = oracle.flow(domain, x, T, max_events=max_events, eps_graze=eps_graze)
        assert _bits(traj) == _bits(slow)
        assert_views_match_oracle(traj, slow)
    return fast


@pytest.mark.parametrize("name", sorted(LOCKSTEP_DOMAINS))
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 5),
       horizon=st.floats(0.05, 1.0), max_events=st.sampled_from([2, MAX_EVENTS_DEFAULT]),
       budget_rows=st.sampled_from([None, 1, 200]))
def test_lockstep_flow_matches_oracle(name, seed, count, horizon, max_events, budget_rows):
    # the oracle scans every image of every window, so horizons stay short
    # on the large lattices; the budget is the default or that of 1 or 200
    # kernel image rows
    domain = LOCKSTEP_DOMAINS[name]
    rng = np.random.default_rng(seed)
    starts = [random_phase_point(domain, rng) for _ in range(count)]
    T = horizon * (2.0 if domain.d >= 6 else 6.0)
    assert_lockstep_matches_oracle(
        domain, starts, T, max_events,
        pass_bytes=budget_rows and budget_rows * dynamics._row_bytes(domain.d))


@pytest.mark.parametrize("name", sorted(CHUNK_DOMAINS))
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(2, 6))
def test_one_call_searches_each_flight_as_alone(name, seed, count):
    # flights with chunks of different lengths and starts, padded with
    # windows of length 0: each flight's result is the oracle's, window by
    # window, as if it were searched alone
    domain = CHUNK_DOMAINS[name]
    rng = np.random.default_rng(seed)
    window, chunk = 0.5 * domain.length_scale, dynamics._chunk(domain)[0]
    q, v, chunks = [], [], []
    for j in range(count):
        x = random_phase_point(domain, rng)
        if j % 2:
            x = _aimed(domain, x)
        t0 = float(rng.integers(0, 8)) * window
        chunks.append(tiles(t0, t0 + rng.uniform(0.01, 1.0) * chunk * window, window, chunk))
        q.append(x.q)
        v.append(x.v)
    W = max(len(c[0]) for c in chunks)
    starts = np.array([c[0] + [c[0][-1]] * (W - len(c[0])) for c in chunks])
    widths = np.array([c[1] + [0.0] * (W - len(c[1])) for c in chunks])
    q, v = np.array(q), np.array(v)
    hits = hit_rows(dynamics._window_candidates(domain, q, v, starts, widths))
    for f, (s, w) in enumerate(chunks):
        w_o, slow = oracle.chunk_scan(domain, q[f], v[f], s, w)
        if f in hits:
            assert hits[f][0] == w_o
            assert_same_result(hits[f][1], slow)
        else:
            assert slow is None and w_o == len(s)


def _mixed_group():
    """Starts on the box with two walls and a sphere that end in every way."""
    domain = DOMAINS["box_walls_sphere"]
    up = np.array([0.0, 1.0])
    starts = {
        TERMINATION_GRAZING: PhasePoint(np.array([0.3, 0.1]), up),      # tangent to the sphere
        TERMINATION_DEGENERATE: PhasePoint(np.array([0.5, 0.7 + 2e-13]), -up),  # on it, inward
        TERMINATION_ESCAPE: PhasePoint(np.array([0.5, 0.1]), np.array([1.0, 0.0])),
        TERMINATION_EVENT_CAP: PhasePoint(np.array([0.5, 0.8]), up),    # wall, sphere, wall
        TERMINATION_HORIZON: PhasePoint(np.array([0.1, 0.2]), up),      # one wall, then T
        "at_T": PhasePoint(np.array([0.1, 0.5]), up),           # walls at 0.5 and exactly T
    }
    return domain, starts, 1.5


@pytest.mark.parametrize("pass_bytes", [None, 1])
def test_one_group_ends_in_every_way(pass_bytes):
    domain, starts, T = _mixed_group()
    trajs = assert_lockstep_matches_oracle(domain, list(starts.values()), T, max_events=3,
                                           pass_bytes=pass_bytes)
    got = dict(zip(starts, trajs))
    for status in (TERMINATION_GRAZING, TERMINATION_DEGENERATE, TERMINATION_ESCAPE,
                   TERMINATION_EVENT_CAP, TERMINATION_HORIZON):
        assert got[status].termination == status
    at_t = got["at_T"]
    assert at_t.termination == TERMINATION_HORIZON
    assert len(at_t.events) == 2 and at_t.events[-1].t == T == at_t.t_end
    assert len(got[TERMINATION_EVENT_CAP].events) == 3
    assert got[TERMINATION_HORIZON].t_end == T


def test_groups_are_balanced_and_flown_in_order(monkeypatch):
    # 7 starts in groups of at most 3 fly as 3 + 2 + 2, one kernel call per
    # round for every flight of a group still searching
    domain = DOMAINS["sinai2d"]
    rng = np.random.default_rng(457)
    starts = [random_phase_point(domain, rng) for _ in range(7)]
    monkeypatch.setattr(budget, "PASS_BYTES", 3 * dynamics._flight_bytes(domain))
    groups = flight_groups(domain, len(starts))
    assert groups == [range(0, 3), range(3, 5), range(5, 7)]
    assert flight_groups(domain, 0) == []
    sizes = []
    original = dynamics._fly

    def counted(domain, q, v, *rest):
        sizes.append(q.shape[0])
        return original(domain, q, v, *rest)

    monkeypatch.setattr(dynamics, "_fly", counted)
    trajs = [t for g in groups for t in flow(domain, starts[g.start:g.stop], 3.0)]
    assert sizes == [3, 2, 2]
    assert [_bits(t) for t in trajs] == [_bits(oracle.flow(domain, x, 3.0)) for x in starts]


@pytest.mark.parametrize("name,count", [("sinai2d", 80), ("sinai2d", 200), ("hardball62", 80),
                                        ("hardball62", 300), ("sinai3d", 45),
                                        ("hardball20", 3)])
def test_groups_respect_the_flight_and_round_budgets(name, count):
    # as many flights as the byte budget fits at _flight_bytes each (one
    # flight at least): its windows' arrays and its chunk rows, counted at
    # most CHUNK_ROWS, in as few balanced groups of consecutive starts as
    # that allows: at the default budget 2-d Sinai (7 windows and 63 rows a
    # flight) flies 260 a group, so 80 and 200 in one group, Sinai 3-d 45 in
    # one group, and 6 hard disks (d = 12) 124 a group, however many rows
    # their one window holds (375 on 6 disks, 4750 on 20): the kernel slices
    # those rounds
    domain = build_hardball_gas(20, 2, 0.1, 1.0) if name == "hardball20" else DOMAINS[name]
    rows = min(dynamics._chunk(domain)[1], dynamics.CHUNK_ROWS)
    flight = dynamics._flight_bytes(domain)
    assert flight == 8 * dynamics._chunk(domain)[0] * (2 * domain.d + 5) \
        + rows * 8 * (domain.d + 6)
    size = max(1, budget.PASS_BYTES // flight)
    groups = flight_groups(domain, count)
    sizes = [len(g) for g in groups]
    assert [f for g in groups for f in g] == list(range(count))
    assert len(groups) == -(-count // size)
    assert max(sizes) - min(sizes) <= 1 and max(sizes) <= size
    assert max(sizes) * flight <= max(budget.PASS_BYTES, flight)
    want = {("sinai2d", 80): [80], ("sinai2d", 200): [200], ("hardball62", 80): [80],
            ("hardball62", 300): [100, 100, 100], ("sinai3d", 45): [45],
            ("hardball20", 3): [3]}
    assert sizes == want[name, count]


def test_one_hardball_group_of_20_flies_each_start_as_alone():
    # 20 starts on 6 hard disks in one lockstep group: every event field,
    # segment and end state has the bits of the oracle's flight of each
    # start alone
    domain = DOMAINS["hardball62"]
    rng = np.random.default_rng(463)
    starts = [random_phase_point(domain, rng) for _ in range(20)]
    trajs = flow(domain, starts, 1.5)
    assert sum(t.event_count for t in trajs) >= 20
    assert [_bits(t) for t in trajs] == [_bits(oracle.flow(domain, x, 1.5)) for x in starts]


def test_invalid_start_raises_before_its_group_flies(monkeypatch):
    domain = DOMAINS["sinai2d"]
    rng = np.random.default_rng(461)
    good = [random_phase_point(domain, rng) for _ in range(3)]
    bad = PhasePoint(np.array([0.5, 0.5]), np.array([1.0, 0.0]))       # inside the disk
    slow = PhasePoint(np.array([0.1, 0.1]), np.array([0.5, 0.0]))
    monkeypatch.setattr(dynamics, "_fly", None)                         # nothing flies
    with pytest.raises(InvalidStateError, match="inside a scatterer"):
        flow(domain, good[:2] + [bad, slow] + good[2:], 2.0)
    with pytest.raises(InvalidStateError, match="unit vector"):
        flow(domain, slow, 1.0)
    with pytest.raises(ValueError, match="horizon"):
        flow(domain, good, 0.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("family", ["hardball32", "sinai2d"])
def test_non_finite_start_is_an_invalid_state(family, bad):
    # a start with a non-finite coordinate is reported before it is wrapped,
    # with no RuntimeWarning under the error filter tier-1 sets: alone, and
    # as one row of a group whose other rows fly as they do alone
    domain = DOMAINS[family]
    rng = np.random.default_rng(479)
    starts = [random_phase_point(domain, rng) for _ in range(4)]
    q = starts[2].q.copy()
    q[-1] = bad
    starts[2] = PhasePoint(q, starts[2].v)
    message = f"position must be finite (got {q.tolist()})"
    with pytest.raises(InvalidStateError) as alone:
        flow(domain, starts[2], 2.0)
    assert str(alone.value) == message
    with pytest.raises(InvalidStateError) as group:
        flow(domain, starts, 2.0)
    assert str(group.value) == message
    # the group flies the states flow checked, and the row it refused
    q, v = np.array([x.q for x in starts]), np.array([x.v for x in starts])
    ok, q[[0, 1, 3]], v[[0, 1, 3]], errors = dynamics._check_states(domain, q, v)
    assert ok.tolist() == [0, 1, 3] and list(errors) == [2] and str(errors[2]) == message
    trajs, errors = dynamics._fly(domain, q, v, 2.0, MAX_EVENTS_DEFAULT, dynamics.EPS_GRAZE)
    assert list(errors) == [2] and str(errors[2]) == message
    assert trajs[2].termination is None and trajs[2].event_count == 0
    for j in (0, 1, 3):
        assert _bits(trajs[j]) == _bits(flow(domain, starts[j], 2.0))


@pytest.mark.parametrize("T", [0.0, -1.0, np.nan, np.inf])
def test_horizon_must_be_positive_and_finite(monkeypatch, T):
    domain = DOMAINS["sinai2d"]
    # along a corridor that meets no disk: an infinite horizon would never end
    x = PhasePoint(np.array([0.5, 0.05]), np.array([1.0, 0.0]))
    monkeypatch.setattr(dynamics, "_fly", None)                         # nothing flies
    with pytest.raises(ValueError, match="horizon"):
        flow(domain, x, T)
    with pytest.raises(ValueError, match="t_max"):
        dynamics.next_collision(domain, x, T)


@pytest.mark.parametrize("eps_graze", [np.nan, 0.0, 1.0, 2.0])
def test_grazing_cutoff_must_lie_in_unit_interval(monkeypatch, eps_graze):
    # nan would switch the grazing test off, 2.0 end every flight at its
    # first impact with 0 events
    domain = DOMAINS["sinai2d"]
    x = PhasePoint(np.array([0.1, 0.5]), np.array([1.0, 0.0]))
    monkeypatch.setattr(dynamics, "_fly", None)                         # nothing flies
    with pytest.raises(ValueError, match="eps_graze"):
        flow(domain, x, 1.0, eps_graze=eps_graze)
    with pytest.raises(ValueError, match="eps_graze"):
        flow(domain, [x, x], 1.0, eps_graze=eps_graze)
    with pytest.raises(ValueError, match="eps_graze"):
        dynamics.next_collision(domain, x, 1.0, eps_graze=eps_graze)


@pytest.mark.parametrize("max_events", [0, -1])
def test_event_cap_must_be_positive(monkeypatch, max_events):
    # the cap is compared after an event is booked: a cap of 0 held 1 event
    domain = DOMAINS["sinai2d"]
    x = PhasePoint(np.array([0.1, 0.5]), np.array([1.0, 0.0]))
    monkeypatch.setattr(dynamics, "_fly", None)                         # nothing flies
    with pytest.raises(ValueError, match="max_events"):
        flow(domain, x, 1.0, max_events=max_events)


def test_no_starts_fly_to_no_trajectories():
    assert flow(DOMAINS["sinai2d"], [], 1.0) == []


# ---------------------------------------------------------------------------
# The chunk tiling and the miss tail
# ---------------------------------------------------------------------------

def assert_tiles_match_running_sum(t_lo, horizon, window, chunk):
    """``dynamics._tile`` of a group of flights against the running sum
    ``t_lo += min(window, horizon - t_lo)`` of one flight at a time, bit for
    bit; returns the number of windows of each flight."""
    starts, widths, ends = dynamics._tile(np.array(t_lo), np.array(horizon), window, chunk)
    counts = []
    for f, (t0, h) in enumerate(zip(t_lo, horizon)):
        s, w = tiles(t0, h, window, chunk)
        end = s[-1] + w[-1] if s else t0
        k = len(s)
        assert starts[f, :k].tobytes() == np.array(s).tobytes()
        assert widths[f, :k].tobytes() == np.array(w).tobytes()
        # padding: windows of length 0 at the chunk's end
        assert (widths[f, k:] == 0.0).all() and (starts[f, k:] == end).all()
        assert _hex(ends[f]) == _hex(end)
        counts.append(k)
    assert starts.shape == widths.shape == (len(t_lo), max(counts))
    return counts


@settings(max_examples=200, deadline=None)
@given(flights=st.lists(st.tuples(st.floats(0.0, 50.0), st.floats(1e-9, 20.0)),
                        min_size=1, max_size=6),
       window=st.sampled_from([0.5, 0.15, 1.25, 0.1]), chunk=st.integers(1, 16))
def test_tile_matches_the_running_sum(flights, window, chunk):
    t_lo = [t for t, _ in flights]
    assert_tiles_match_running_sum(t_lo, [t + h for t, h in flights], window, chunk)


def test_tile_keeps_ulp_sized_trailing_windows():
    # horizons where t + (h - t) != h: h - t rounds by half an ulp of h
    # (t < h / 2, both in one binade, h odd), and the tie rounds the sum to
    # the even neighbour of h.  With t half an ulp, the running sum leaves a
    # window of one ulp before h; with three halves, it ends one ulp past h
    rng = np.random.default_rng(487)
    window = 0.5
    for _ in range(20):
        h = float(rng.uniform(0.25, 0.5))
        if not np.float64(h).view(np.int64) & 1:
            h = float(np.nextafter(h, 1.0))
        ulp = float(np.spacing(h))
        for k in (1, 3):
            t = k * ulp / 2
            assert t + (h - t) != h
            counts = assert_tiles_match_running_sum([t, t, 0.0], [h, h, 8.0], window, 4)
            starts, widths = tiles(t, h, window, 4)
            assert counts == [len(starts)] * 2 + [4]
            if k == 1:
                assert widths[1:] == [ulp] and starts[1] + widths[1] == h
            else:
                assert len(widths) == 1 and starts[0] + widths[0] == h + ulp


def test_tile_ends_mid_chunk():
    # one flight reaches its horizon within the chunk, one before its first
    # window ends, one has none left; the others fill the chunk
    window, chunk = 0.5, 7
    counts = assert_tiles_match_running_sum([0.0, 1.0, 2.0, 3.0, 3.0],
                                            [10.0, 2.3, 2.2, 3.0, 3.0 + 7 * window],
                                            window, chunk)
    assert counts == [7, 3, 1, 0, 7]
    assert assert_tiles_match_running_sum([0.0], [1.2], window, chunk) == [3]
    assert assert_tiles_match_running_sum([4.0], [4.0], window, chunk) == [0]


@pytest.mark.parametrize("escape_t", [np.inf, 0.5, 2.0, 2.5])
def test_a_search_without_a_root_ends_in_the_miss_tail(escape_t):
    # no root before t_max = 2: no event, or the escape when the box is
    # left by then (also exactly at t_max), as the oracle's loop ends
    domain = DOMAINS["box_walls_sphere"]
    x = PhasePoint(np.array([0.1, 0.5]), np.array([0.0, 1.0]))
    found = (escape_t, None)
    if escape_t <= 2.0:
        with pytest.raises(EscapeError) as e:
            dynamics.next_collision(domain, x, 2.0, found=found)
        assert e.value.time == escape_t
    else:
        assert dynamics.next_collision(domain, x, 2.0, found=found) is None


# ---------------------------------------------------------------------------
# The batched state check
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_contains_on_a_stack_matches_one_point_at_a_time(name):
    domain = DOMAINS[name]
    rng = np.random.default_rng(463)
    if isinstance(domain.ambient, Box):
        lo, hi = -0.05, np.asarray(domain.ambient.sides) + 0.05
    else:
        lo, hi = 0.0, np.full(domain.d, domain.ambient.side)
    points = rng.uniform(lo, hi, (60, domain.d))
    # and points within the slack band of a boundary: flights' starts
    for k, x in enumerate(random_phase_point(domain, rng) for _ in range(20)):
        ev = oracle.flow(domain, x, 2.0).events
        if ev:
            points[k] = ev[0].q
    # the oracle measures cylinders in full coordinates, the domain in
    # transverse ones: rounding can tip their decisions apart only for a
    # point on a cylinder's boundary at slack 0, and only there is a point
    # left out of the comparison
    band = 1e-12 * domain.length_scale
    distances = np.array([[geometry_oracle.signed_distance(domain, i, p)
                           for i in range(len(domain.scatterers))] for p in points])
    cylinders = [isinstance(s, Cylinder) for s in domain.scatterers]
    on_cylinder = (np.abs(distances[:, cylinders]) <= band).any(axis=1)
    assert on_cylinder.sum() <= 20       # landed points only
    seen = set()
    for slack in (None, 0.0, 1e-9, -10.0 * domain.eps_surface):
        one = [domain.contains(p, slack) for p in points]
        assert all(isinstance(b, bool) for b in one)
        if slack == 0.0:
            kept = ~on_cylinder
        else:
            threshold = -(domain.eps_surface if slack is None else slack)
            assert (np.abs(distances - threshold) > band).all()
            kept = np.ones(len(points), dtype=bool)
        assert [b for b, k in zip(one, kept) if k] == [
            geometry_oracle.contains(domain, p, slack) for p, k in zip(points, kept) if k]
        stacked = domain.contains(points, slack)
        assert stacked.dtype == bool and stacked.tolist() == one
        assert domain.contains(points.reshape(3, 20, domain.d), slack).reshape(-1).tolist() == one
        seen.update(one)
    assert seen == {True, False}
    assert domain.contains(points[:0]).shape == (0,)


def test_state_check_of_a_stack_matches_one_state_at_a_time():
    domain = DOMAINS["hardball32"]
    rng = np.random.default_rng(467)
    starts = [random_phase_point(domain, rng) for _ in range(6)]
    starts[1] = PhasePoint(starts[1].q, 1.5 * starts[1].v)                 # too fast
    starts[3] = PhasePoint(starts[3].q, np.full(domain.d, np.nan))          # no speed
    starts[4] = PhasePoint(np.array([0.5, 0.5, 0.55, 0.5, 0.1, 0.1]), starts[4].v)  # overlap
    starts.append(PhasePoint(np.array([0.1, np.nan, 0.5, 0.5, 0.9, 0.9]), starts[1].v))
    ok, q, v, errors = dynamics._check_states(domain, np.array([x.q for x in starts]),
                                              np.array([x.v for x in starts]))
    assert ok.tolist() == [0, 2, 5] and sorted(errors) == [1, 3, 4, 6]
    for j, x in enumerate(starts):
        try:
            y = oracle.validate_phase_point(domain, x)
        except InvalidStateError as e:
            assert str(errors[j]) == str(e)
            continue
        k = ok.tolist().index(j)
        assert q[k].tobytes() == y.q.tobytes() and v[k].tobytes() == y.v.tobytes()


# ---------------------------------------------------------------------------
# The byte budget slices the kernel scan and the membership test
# ---------------------------------------------------------------------------

# name -> (domain, start count, horizon): with 40 starts on 6 hard disks or
# 20 on 12 in one group, a round of one window each holds more than the
# default budget (375 image rows of 144 B and 1650 of 240 B a window)
_SLICED = {"hardball62": (DOMAINS["hardball62"], 40, 1.5),
           "hardball122": (build_hardball_gas(12, 2, 0.05, 1.0), 20, 0.5),
           "cylinder3d": (DOMAINS["cylinder3d"], 40, 3.0),
           "sinai2d": (DOMAINS["sinai2d"], 40, 3.0)}


@pytest.mark.parametrize("name", sorted(_SLICED))
def test_kernel_scans_each_round_in_slices_of_the_row_budget(monkeypatch, name):
    # with the budget at three windows' image rows, at 8192 rows and at
    # 10**9 bytes, no _image_roots call holds more than the budget or one
    # window's rows, at _row_bytes(d) a row, and every trajectory has the
    # oracle's bits whatever the budget (and so the group size and the
    # slices).  A call scans R windows of S m image rows, or on a ball-pair
    # stack K gathered (window, pair) blocks of m rows each, its stack's
    # arrays then (K, 1, ...)
    domain, count, T = _SLICED[name]
    rng = np.random.default_rng(479)
    starts = [random_phase_point(domain, rng) for _ in range(count)]
    (images,) = {st.indices.size * st.deltas.shape[1] for st in domain.stacks}
    calls = []
    original = dynamics._image_roots

    def spy(st, qw, *rest):
        calls.append(qw.shape[0] * st.deltas.shape[-2]
                     * (1 if st.deltas.ndim == 4 else st.indices.size))
        return original(st, qw, *rest)

    monkeypatch.setattr(dynamics, "_image_roots", spy)
    bits = []
    row = dynamics._row_bytes(domain.d)
    for pass_bytes in (3 * images * row, 8192 * row, 10**9):
        calls.clear()
        trajs = assert_lockstep_matches_oracle(domain, starts, T, pass_bytes=pass_bytes)
        assert calls and max(calls) * row <= max(pass_bytes, images * row)
        bits.append([_bits(t) for t in trajs])
    assert bits[0] == bits[1] == bits[2]
    assert sum(t.event_count for t in trajs) >= count


_MEMBERSHIP = {**DOMAINS, "hardball122": _SLICED["hardball122"][0],
               "hardball43": build_hardball_gas(4, 3, 0.1, 1.0),
               "hardball202": build_hardball_gas(20, 2, 0.05, 1.0)}
# the flights' horizon, 8 but where 20 flights land thousands of points
_MEMBERSHIP_T = {"hardball202": 1.0}


@pytest.mark.parametrize("name", sorted(_MEMBERSHIP))
def test_contains_tests_its_points_in_slices_of_the_row_budget(monkeypatch, name):
    # each _signed_distances call of contains holds at most the budget or
    # one point's bytes (Domain._point_bytes: S (S m for a cylinder stack
    # with a transverse basis, its transverse images) arrays a point, S
    # for a ball-pair stack and a sphere stack, whose minimal images need no
    # enumeration, and for a halfspace stack).  On 8-d Sinai a call covers
    # every point.  The
    # answers, on random points and on the landed points of flights, are
    # those of one unsliced call, and on the hard-ball gases those of the
    # oracle, which reduces every declared image in full coordinates
    domain = _MEMBERSHIP[name]
    rng = np.random.default_rng(487)
    if isinstance(domain.ambient, Box):
        lo, hi = -0.05, np.asarray(domain.ambient.sides) + 0.05
    else:
        lo, hi = 0.0, np.full(domain.d, domain.ambient.side)
    trajs = flow(domain, [random_phase_point(domain, rng) for _ in range(20)],
                 _MEMBERSHIP_T.get(name, 8.0))
    landed = np.concatenate([t.columns.q for t in trajs])
    points = np.concatenate([rng.uniform(lo, hi, (1200, domain.d)), landed])
    assert len(landed) >= 2
    with mock.patch.object(budget, "PASS_BYTES", 10**12):
        want = {slack: domain.contains(points, slack) for slack in (None, 0.0)}
    calls = []
    original = type(domain)._signed_distances

    def spy(self, st, q):
        calls.append((len(q), self._point_bytes(st)))
        return original(self, st, q)

    monkeypatch.setattr(type(domain), "_signed_distances", spy)
    for pass_bytes in (1, 100 * 8 * 4 * domain.d, budget.PASS_BYTES):
        monkeypatch.setattr(budget, "PASS_BYTES", pass_bytes)
        for slack, answers in want.items():
            calls.clear()
            assert domain.contains(points, slack).tolist() == answers.tolist()
            assert sum(n for n, _ in calls) == len(points) * len(domain.stacks)
            assert all(n * point <= max(pass_bytes, point) for n, point in calls)
    assert {True, False} <= set(want[None].tolist())
    if name == "sinai8d":
        assert min(n for n, _ in calls) >= 1000
    if name.startswith("hardball"):
        # at the default slack only: landed points sit on a boundary, where
        # rounding can tip a decision at slack 0
        assert want[None].tolist() == [geometry_oracle.contains(domain, p) for p in points]
        assert all(st.pairs is not None for st in domain.stacks)


@pytest.mark.parametrize("name", ["hardball32", "hardball43"])
def test_contains_answers_false_for_a_non_finite_point_on_a_pair_stack(name):
    domain = _MEMBERSHIP[name]
    rng = np.random.default_rng(491)
    points = np.array([random_phase_point(domain, rng).q for _ in range(4)])
    assert domain.contains(points).all()
    for j, bad in enumerate((np.nan, np.inf, -np.inf)):
        points[j, 1 + j] = bad
    assert domain.contains(points).tolist() == [False, False, False, True]
    assert [domain.contains(p) for p in points] == [False, False, False, True]


# ---------------------------------------------------------------------------
# The runner: groups, streamed CSVs
# ---------------------------------------------------------------------------

def _write(tmp_path: Path, domain: dict, count: int, horizon: float) -> Path:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "domain": domain, "initial": {"sampler": {"count": count, "seed": 5, "c0": 0.1}},
        "horizon": horizon, "checks": ["monotonicity", "growth"]}), encoding="utf-8")
    return path


def _outputs(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("domain", [
    {"kind": "sinai", "d": 2, "r": 0.25, "L": 1.0, "centers": [[0.5, 0.5]]},
    {"kind": "sinai", "d": 3, "r": 0.3, "L": 1.0, "centers": [[0.5, 0.5, 0.5]]},
    {"kind": "hardball_gas", "N": 3, "d": 2, "r": 0.1, "L": 1.0},
])
def test_groups_of_one_flight_write_the_same_outputs(monkeypatch, tmp_path, domain):
    # PASS_BYTES = 1: every trajectory flies alone, a broad-phase stack scans
    # one window per batch, and every adjoint block, check group and CSV
    # pass takes one series or row
    cfg = load_config(_write(tmp_path, domain, 5, 4.0))
    run_experiment(cfg, "run", tmp_path / "grouped")
    verify = run_experiment(cfg, "verify")
    monkeypatch.setattr(budget, "PASS_BYTES", 1)
    run_experiment(cfg, "run", tmp_path / "alone")
    assert _outputs(tmp_path / "grouped") == _outputs(tmp_path / "alone")
    assert run_experiment(cfg, "verify") == verify


def test_csvs_are_streamed_and_a_failed_run_leaves_no_summary(monkeypatch, tmp_path):
    cfg = _write(tmp_path, {"kind": "sinai", "d": 2, "r": 0.25, "L": 1.0,
                            "centers": [[0.5, 0.5]]}, 3, 3.0)
    assert main(["run", str(cfg), "--out", str(tmp_path / "ok")]) == 0
    # the third trajectory's records fail: the CSVs written before remain,
    # and the summary, written last, is missing
    calls = []
    original = runner.series_records

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise ConfigError("records failed")
        return original(*args, **kwargs)

    monkeypatch.setattr(runner, "series_records", failing)
    assert main(["run", str(cfg), "--out", str(tmp_path / "failed")]) == 3
    failed = _outputs(tmp_path / "failed")
    assert sorted(failed) == ["trajectory_0000.csv", "trajectory_0001.csv"]
    ok = _outputs(tmp_path / "ok")
    assert all(failed[k] == ok[k] for k in failed)
    assert "summary.json" in ok


def test_benchmark_traced_names_resolve():
    # perfbench/run.py --trace 1 wraps these (module, attribute) pairs of
    # the package; a name that no longer resolves breaks the traced run
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for module, attr in spans.TRACED:
        assert callable(getattr(importlib.import_module(f"billiards.{module}"), attr)), \
            (module, attr)


@pytest.mark.parametrize("domain", [
    {"kind": "sinai", "d": 2, "r": 0.25, "L": 1.0, "centers": [[0.5, 0.5]]},
    {"kind": "hardball_gas", "N": 3, "d": 2, "r": 0.1, "L": 1.0},
])
def test_the_flow_goes_through_the_traced_names(monkeypatch, tmp_path, domain):
    # the tracer counts the events as the non-None returns of
    # dynamics.next_collision and books the flow to the runner.flow span:
    # every event of a run comes through next_collision, and every kernel
    # call runs inside runner.flow
    cfg = load_config(_write(tmp_path, domain, 5, 4.0))
    seen = {"flow": 0, "events": 0, "kernel": 0}
    depth = []

    def wrap(module, name, key, count):
        fn = getattr(module, name)

        def traced(*args, **kwargs):
            depth.append(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                depth.pop()
            seen[key] += int(count(result))
            return result
        monkeypatch.setattr(module, name, traced)

    def kernel_in_flow(result):
        assert "flow" in depth
        return True

    wrap(runner, "flow", "flow", lambda result: True)
    wrap(dynamics, "next_collision", "events", lambda result: result is not None)
    wrap(dynamics, "_window_candidates", "kernel", kernel_in_flow)
    summary, _ = run_experiment(cfg, "verify")
    assert seen["flow"] == len(flight_groups(cfg.domain, 5))
    assert seen["events"] == sum(t["event_count"] for t in summary["trajectories"]) > 0
    assert seen["kernel"] > 0


def test_a_run_books_one_event_per_non_none_return(monkeypatch, tmp_path):
    # the tracer counts the events of a run, with its CSVs, as the non-None
    # returns of dynamics.next_collision: 280 starts on 2-d Sinai fly as
    # 140 + 140, with grazing, event-cap and horizon endings
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "domain": {"kind": "sinai", "d": 2, "r": 0.25, "L": 1.0, "centers": [[0.5, 0.5]]},
        "initial": {"sampler": {"count": 280, "seed": 1, "c0": 0.1}}, "horizon": 20.0,
        "tolerances": {"eps_graze": 0.3}, "max_events": 12}), encoding="utf-8")
    cfg = load_config(path)
    assert [len(g) for g in flight_groups(cfg.domain, 280)] == [140, 140]
    returns = []
    original = dynamics.next_collision

    def spy(*args, **kwargs):
        returns.append(original(*args, **kwargs))
        return returns[-1]

    monkeypatch.setattr(dynamics, "next_collision", spy)
    summary, _ = run_experiment(cfg, "run", tmp_path / "out")
    entries = summary["trajectories"]
    assert {e["termination"] for e in entries} == {
        TERMINATION_GRAZING, TERMINATION_EVENT_CAP, TERMINATION_HORIZON}
    assert sum(r is not None for r in returns) == sum(e["event_count"] for e in entries) > 0


def test_trajectories_hold_their_events_as_columns():
    # the trajectories of 40 starts on 2-d Sinai, T = 100, seed 1 (2615
    # events) hold at most 200 B per event: about 104 B of columns at d = 2
    # and a few objects per trajectory, but none per event
    domain = build_sinai(2, 0.25, 1.0, [[0.5, 0.5]])
    starts = [x for x, _ in runner.sample_initial_conditions(domain, 40, 1, 0.1)]
    flow(domain, starts, 1.0)             # caches of the domain, built once
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trajs = flow(domain, starts, 100.0)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    events = sum(t.event_count for t in trajs)
    assert events == 2615
    assert held <= 200 * events
