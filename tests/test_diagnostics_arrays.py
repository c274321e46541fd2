"""The array diagnostics against the per-sample loop oracles, bit for bit."""

from __future__ import annotations

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diagnostics_oracle as oracle
from billiards import (
    TERMINATION_EVENT_CAP,
    TERMINATION_HORIZON,
    Box,
    Covector,
    Domain,
    Halfspace,
    PhasePoint,
    Torus,
    flow,
    lyapunov_Q,
    sample_covector_uniform,
    sample_covector_with_Q_bound,
    series_records,
    transport_covector,
    verify_growth,
    verify_monotonicity,
)
from billiards.cli import main
from billiards.diagnostics import RECORD_DTYPE, _squares
from billiards.runner import CSV_COLUMNS, _write_csv
from conftest import random_phase_point

FIELDS = ("t", "segment_index", "event_flag", "Q", "norm_w", "norm_z", "norm_n",
          "lam", "ratio_wQ", "bound_prop5", "bound_theorem")


def _exact(checks):
    # float.hex tells -0.0 from 0.0, which the JSON report does too
    return [(name, status, *(None if x is None else float(x).hex() for x in (m, t)))
            for name, status, m, t in checks]


def assert_same_checks(fast, slow):
    assert _exact((c.name, c.status, c.margin, c.t_worst) for c in fast.checks) \
        == _exact(slow)


def assert_matches_oracle(series, tmp_path, interior=8, c0=None):
    assert_same_checks(verify_monotonicity(series, 1e-9, interior=interior),
                       oracle.verify_monotonicity(series, 1e-9, interior=interior))
    if c0 is not None:
        assert_same_checks(verify_growth(series, c0, 1e-9, interior=interior),
                           oracle.verify_growth(series, c0, 1e-9, interior=interior))
    fast = series_records(series, interior=interior, c0=c0)
    slow = oracle.series_records(series, interior, c0)
    assert len(fast) == len(slow)
    for name in FIELDS:
        expected = np.array([getattr(r, name) for r in slow], dtype=fast[name].dtype)
        assert fast[name].tobytes() == expected.tobytes(), name
    _write_csv(tmp_path / "fast.csv", fast)
    oracle.write_csv(tmp_path / "slow.csv", slow)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()
    return fast


@pytest.mark.parametrize("family", ["sinai2d", "sinai3d", "cylinder3d", "hardball32"])
def test_acceptance_families_match_loop_oracle(family, request, tmp_path):
    dom = request.getfixturevalue(family)
    rng = np.random.default_rng(211)
    for c0 in (0.05, 0.1, 0.2):
        x0 = random_phase_point(dom, rng)
        n0 = sample_covector_with_Q_bound(x0.v, c0, rng)
        series = transport_covector(flow(dom, x0, 12.0), n0)
        assert series.trajectory.event_count >= 1
        assert_matches_oracle(series, tmp_path, c0=c0)


def test_nonnegative_q0_matches_loop_oracle(sinai2d, tmp_path):
    rng = np.random.default_rng(223)
    while True:
        x0 = random_phase_point(sinai2d, rng)
        n0 = sample_covector_uniform(x0.v, rng)
        if lyapunov_Q(n0) >= 0.0:
            break
    series = transport_covector(flow(sinai2d, x0, 10.0), n0)
    report = verify_monotonicity(series, 1e-9)
    assert [c.status for c in report.checks[3:]] == ["skipped"] * 3
    assert_matches_oracle(series, tmp_path)


def test_series_without_events_matches_loop_oracle(tmp_path):
    dom = Domain(2, Torus(1.0), [])
    traj = flow(dom, PhasePoint(np.array([0.5, 0.5]), np.array([0.0, 1.0])), 4.0)
    z = np.array([0.6, 0.0])
    series = transport_covector(traj, Covector(z, -np.array([0.8, 0.0])))
    assert len(series.segments) == 1
    assert_matches_oracle(series, tmp_path, c0=0.3)


def test_collision_on_the_horizon_matches_loop_oracle(tmp_path):
    # the wall is hit exactly at the horizon: the last segment has zero length
    dom = Domain(2, Box((1.0, 1.0)), [Halfspace(np.array([0.0, 0.0]), np.array([0.0, 1.0]))])
    traj = flow(dom, PhasePoint(np.array([0.2, 0.5]), np.array([0.0, -1.0])), 0.5)
    assert traj.termination == TERMINATION_HORIZON
    assert traj.segments[-1].t0 == traj.segments[-1].t1 == 0.5
    n0 = Covector(np.array([0.6, 0.0]), np.array([-0.8, 0.0]))
    assert_matches_oracle(transport_covector(traj, n0), tmp_path, c0=0.4)


def test_zero_length_segment_after_long_ones_matches_loop_oracle(sinai2d, tmp_path):
    # an event cap closes the trajectory with a zero-length segment; the
    # other rows of the grid must keep their own linspace steps
    rng = np.random.default_rng(227)
    while True:
        x0 = random_phase_point(sinai2d, rng)
        traj = flow(sinai2d, x0, 50.0, max_events=4)
        if traj.termination == TERMINATION_EVENT_CAP:
            break
    assert traj.segments[-1].t0 == traj.segments[-1].t1
    n0 = sample_covector_with_Q_bound(x0.v, 0.1, rng)
    assert_matches_oracle(transport_covector(traj, n0), tmp_path, c0=0.1)


@pytest.mark.parametrize("interior", [0, 1, 3])
def test_small_grids_match_loop_oracle(interior, hardball32, tmp_path):
    rng = np.random.default_rng(229)
    x0 = random_phase_point(hardball32, rng)
    n0 = sample_covector_with_Q_bound(x0.v, 0.1, rng)
    series = transport_covector(flow(hardball32, x0, 12.0), n0)
    records = assert_matches_oracle(series, tmp_path, interior=interior, c0=0.1)
    assert len(records) == (interior + 2) * len(series.segments)


def test_csv_empty_fields_for_undefined_bounds(tmp_path):
    # w0 = 0 leaves bound_prop5 infinite; c0 = None leaves bound_theorem nan
    dom = Domain(2, Torus(1.0), [])
    traj = flow(dom, PhasePoint(np.array([0.5, 0.5]), np.array([0.0, 1.0])), 2.0)
    series = transport_covector(traj, Covector(np.array([1.0, 0.0]), np.zeros(2)))
    records = series_records(series, interior=2)
    assert np.all(np.isinf(records.bound_prop5)) and np.all(np.isnan(records.bound_theorem))
    _write_csv(tmp_path / "fast.csv", records)
    oracle.write_csv(tmp_path / "slow.csv", oracle.series_records(series, 2))
    data = (tmp_path / "fast.csv").read_bytes()
    assert data == (tmp_path / "slow.csv").read_bytes()
    lines = data.split(b"\r\n")
    assert lines[-1] == b"" and all(b"\n" not in line for line in lines)
    rows = [line.split(b",") for line in lines[1:-1]]
    assert len(rows) == 4
    for row in rows:
        assert len(row) == 10 and row[8] == row[9] == b""
        assert all(math.isfinite(float(x)) for x in row[:8])


@pytest.mark.parametrize("blank", ["bound_theorem", "bound_prop5"])
def test_csv_column_nonfinite_in_every_row_matches_loop_writer(blank, sinai2d, tmp_path):
    # a run without c0 leaves bound_theorem nan in every row, a covector with
    # w0 = 0 leaves bound_prop5 inf in every row; the row format writes such a
    # column empty while the other columns of a colliding trajectory stay set
    rng = np.random.default_rng(337)
    x0 = random_phase_point(sinai2d, rng)
    traj = flow(sinai2d, x0, 8.0)
    assert traj.event_count >= 3
    if blank == "bound_theorem":
        n0, c0 = sample_covector_uniform(x0.v, rng), None
    else:
        n0, c0 = Covector(np.array([-x0.v[1], x0.v[0]]), np.zeros(2)), 0.1
    series = transport_covector(traj, n0)
    records = series_records(series, interior=4, c0=c0)
    assert not np.isfinite(records[blank]).any()
    _write_csv(tmp_path / "fast.csv", records)
    oracle.write_csv(tmp_path / "slow.csv", oracle.series_records(series, 4, c0))
    data = (tmp_path / "fast.csv").read_bytes()
    assert data == (tmp_path / "slow.csv").read_bytes()
    column = CSV_COLUMNS.index(blank)
    rows = [line.split(b",") for line in data.split(b"\r\n")[1:-1]]
    assert len(rows) == len(records)
    for row in rows:
        assert len(row) == 10
        assert [i for i, field in enumerate(row) if field == b""] == [column]


nan, inf = math.nan, math.inf
# crafted record columns: a float column not named keeps its base value
CRAFTED = {
    "signed_zero_and_holes": {
        "t": [0.0, -0.0, 0.25, 1.0], "Q": [-0.0, -0.5, nan, -1e-150],
        "norm_w": [1.0, inf, 0.5, 2.0], "lam": [1.0, 1.5, 2.0, nan],
        "bound_theorem": [nan] * 4},
    "three_digit_exponents": {
        "Q": [-1e-150, -2.5e-123, -1e-100, -9.999999999999999e-101],
        "lam": [1e174, 7.0000000000000004e+105, 1e100, 1.2345678901234567e+99],
        "norm_z": [1e-150, 1e-5, 1e-4, 1e17]},
    "outside_fast_range": {
        "norm_n": [1e300, 5e-324, 1.7976931348623157e308, 2.2250738585072014e-308],
        "Q": [-1e300, -1e-300, -0.0, -1e-221], "bound_prop5": [-inf] * 4},
    "first_row_empty": {
        "t": [nan, 1.0, 2.0, 3.0], "Q": [nan, -1.0, -2.0, -3.0], "norm_w": [inf, 1.0, 1.0, 1.0],
        "segment_index": [0, 7, 10**12, 2**62], "event_flag": [2, 0, 1, 2]},
}


@pytest.mark.parametrize("case", sorted(CRAFTED))
def test_csv_of_crafted_records_matches_loop_writer(case, tmp_path):
    records = np.recarray(4, dtype=RECORD_DTYPE)
    for name in RECORD_DTYPE.names:
        records[name] = np.arange(4) if records[name].dtype.kind == "i" else 0.1 * np.arange(1, 5)
    for name, column in CRAFTED[case].items():
        records[name] = column
    _write_csv(tmp_path / "fast.csv", records)
    oracle.write_csv(tmp_path / "slow.csv", records)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()


def test_corner_hit_reports_degenerate_collision(tmp_path):
    # ball 0 touches balls 1 and 2 at the same instant, before half the horizon
    path = tmp_path / "cfg.json"
    s = 1.0 / math.sqrt(2.0)
    path.write_text(json.dumps({
        "domain": {"kind": "hardball_gas", "N": 3, "d": 2, "r": 0.1, "L": 1.0},
        "initial": {"q": [0.5, 0.3, 0.35, 0.7, 0.65, 0.7],
                    "v": [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
                    "covector": {"z": [s, 0.0, 0.0, 0.0, 0.0, 0.0],
                                 "w": [-s, 0.0, 0.0, 0.0, 0.0, 0.0]}},
        "horizon": 1.0,
        "checks": ["monotonicity"],
    }), encoding="utf-8")
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    summary = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))
    assert summary["ensemble"]["terminations"] == {"degenerate_collision": 1}
    assert summary["ensemble"]["singular_early"] == 1
    assert code == 2


def test_checks_and_records_share_one_sample_per_interior(sinai2d, tmp_path):
    # the three diagnostics of a series sample it once per interior count;
    # the shared grid is read-only and gives the oracle's bits
    rng = np.random.default_rng(131)
    x0 = random_phase_point(sinai2d, rng)
    series = transport_covector(flow(sinai2d, x0, 6.0),
                                sample_covector_with_Q_bound(x0.v, 0.1, rng))
    verify_monotonicity(series, 1e-9)
    grid = series.sample_grids[8]
    assert_matches_oracle(series, tmp_path, interior=8, c0=0.1)
    assert_matches_oracle(series, tmp_path, interior=3, c0=0.1)
    assert series.sample_grids[8] is grid and sorted(series.sample_grids) == [3, 8]
    with pytest.raises(ValueError):
        grid.Q[0, 0] = 0.0


_ROOT_MAX = math.sqrt(sys.float_info.max)
_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, sys.float_info.min,
          math.nextafter(sys.float_info.min, 0.0), _ROOT_MAX, -_ROOT_MAX,
          math.nextafter(_ROOT_MAX, 0.0), math.nextafter(_ROOT_MAX, math.inf)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_EDGES) | st.floats()
                | st.floats(min_value=1.3e154, max_value=1.4e154)
                | st.floats(min_value=-1e-300, max_value=1e-300), max_size=40))
def test_squares_are_python_pow(values):
    # the squares of checks (d) and (e) are the ``x ** 2`` of each Python
    # float, bit for bit; a square past the double range raises alike
    fits = []
    for x in values:
        try:
            x ** 2
        except OverflowError:
            with pytest.raises(OverflowError):
                _squares(np.array([x]))
        else:
            fits.append(x)
    a = np.array(fits, dtype=float)
    got, want = _squares(a), np.array([x ** 2 for x in a.tolist()], dtype=float)
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want.tolist()]
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
