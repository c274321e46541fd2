"""The group passes of the checks, the complement bases and the adjoint check.

``verify_monotonicity`` and ``verify_growth`` check a group of series in one
array pass over their concatenated grids.  ``transport_covector(...,
adjoint=s)`` walks a group's events once, over one set of event columns, in
blocks by falling event count of as many series as the byte budget
``budget.PASS_BYTES`` fits (``transport._adjoint_bytes`` a series): each
step pairs both ends of a segment, then
moves the covector, the tangent stacks and, for ``s != 1``, the fault
hook's covector with one ``curvature_at`` call, keeping no tangent history.
Each series must get the report, residual and bases it gets alone, bit for
bit, and the loop oracles' values: in groups that mix event counts (one
series without events), ``Q(n0) >= 0`` (strict checks skipped),
zero-length segments, nan margins, and series that cannot be verified.
"""

from __future__ import annotations

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

import diagnostics_oracle as oracle
import transport_oracle
from billiards import (
    TERMINATION_EVENT_CAP,
    Box,
    ConfigError,
    Covector,
    Domain,
    Halfspace,
    PhasePoint,
    SeriesRangeError,
    Torus,
    TransportSeries,
    adjoint_residual,
    flow,
    lyapunov_Q,
    sample_covector_uniform,
    sample_covector_with_Q_bound,
    series_records,
    transport_covector,
    verify_growth,
    verify_monotonicity,
)
from billiards import budget, geometry, runner, transport
from billiards.catalog import CATALOG
from billiards.cli import main
from billiards.diagnostics import CHECK_RATIO_NONINCREASING, SeriesGroup, _first_min
from billiards.transport import _complement_basis
from conftest import random_phase_point
from test_diagnostics_arrays import assert_same_checks

SINAI_2D = next(e["domain"] for e in CATALOG if e["name"] == "sinai_2d")


def _checks(report):
    return [(c.name, c.status, None if c.margin is None else c.margin.hex(),
             None if c.t_worst is None else c.t_worst.hex()) for c in report.checks]


def _with(series, **columns):
    """``series`` with some of its columns replaced."""
    cols = {name: getattr(series, name) for name in ("z", "w0", "q_drop", "reprojection")}
    cols.update(columns)
    return TransportSeries(series.trajectory, series.n0, *cols.values())


def _mixed_2d(sinai2d):
    """2-d series with Q(n0) < 0 and >= 0, no events, and zero-length segments."""
    rng = np.random.default_rng(601)
    out = []
    for c0 in (0.05, 0.1, 0.2):
        x0 = random_phase_point(sinai2d, rng)
        out.append(transport_covector(flow(sinai2d, x0, 12.0),
                                      sample_covector_with_Q_bound(x0.v, c0, rng)))
    while True:
        x0 = random_phase_point(sinai2d, rng)
        n0 = sample_covector_uniform(x0.v, rng)
        if lyapunov_Q(n0) >= 0.0:
            break
    out.append(transport_covector(flow(sinai2d, x0, 10.0), n0))
    n0 = Covector(np.array([0.6, 0.0]), np.array([-0.8, 0.0]))
    free = flow(Domain(2, Torus(1.0), []),
                PhasePoint(np.array([0.5, 0.5]), np.array([0.0, 1.0])), 4.0)
    out.append(transport_covector(free, n0))
    wall = Domain(2, Box((1.0, 1.0)), [Halfspace(np.array([0.0, 0.0]), np.array([0.0, 1.0]))])
    on_horizon = flow(wall, PhasePoint(np.array([0.2, 0.5]), np.array([0.0, -1.0])), 0.5)
    assert on_horizon.segments[-1].t0 == on_horizon.segments[-1].t1
    out.append(transport_covector(on_horizon, n0))
    while True:
        x0 = random_phase_point(sinai2d, rng)
        capped = flow(sinai2d, x0, 50.0, max_events=4)
        if capped.termination == TERMINATION_EVENT_CAP:
            break
    out.append(transport_covector(capped, sample_covector_with_Q_bound(x0.v, 0.1, rng)))
    counts = [s.trajectory.event_count for s in out]
    assert 0 in counts and max(counts) >= 2
    return out


@pytest.mark.parametrize("interior", [8, 0, 3])
def test_mixed_group_matches_loop_oracle(sinai2d, interior):
    group = _mixed_2d(sinai2d)
    reports = verify_monotonicity(group, 1e-9, interior=interior)
    assert len(reports) == len(group)
    for series, report in zip(group, reports):
        assert report.error is None
        assert_same_checks(report, oracle.verify_monotonicity(series, 1e-9, interior=interior))
    # growth: the series with Q(n0) > -c0 get the error checking them alone raises
    c0 = 0.05
    reports = verify_growth(SeriesGroup(group), c0, 1e-9, interior=interior)
    for series, report in zip(group, reports):
        if lyapunov_Q(series.n0) > -c0:
            assert isinstance(report.error, ConfigError) and report.checks == []
            with pytest.raises(ConfigError) as alone:
                verify_growth(series, c0, 1e-9, interior=interior)
            assert str(alone.value) == str(report.error)
        else:
            assert_same_checks(report, oracle.verify_growth(series, c0, 1e-9, interior=interior))


@pytest.mark.parametrize("family", ["sinai3d", "cylinder3d", "hardball32"])
def test_groups_of_every_family_match_loop_oracle(family, request):
    dom = request.getfixturevalue(family)
    rng = np.random.default_rng(607)
    group = []
    for T, c0 in ((1e-3, 0.1), (12.0, 0.05), (3.0, 0.2), (12.0, 0.1)):
        x0 = random_phase_point(dom, rng)
        group.append(transport_covector(flow(dom, x0, T),
                                        sample_covector_with_Q_bound(x0.v, c0, rng)))
    assert group[0].trajectory.event_count == 0
    for series, mono, growth in zip(group, verify_monotonicity(group, 1e-9),
                                    verify_growth(group, 0.05, 1e-9)):
        assert_same_checks(mono, oracle.verify_monotonicity(series, 1e-9))
        assert_same_checks(growth, oracle.verify_growth(series, 0.05, 1e-9))


def test_group_reports_and_records_equal_each_series_alone(sinai2d):
    group = _mixed_2d(sinai2d)
    rng = np.random.default_rng(613)
    x0 = random_phase_point(sinai2d, rng)
    nan = transport_covector(flow(sinai2d, x0, 12.0),
                             sample_covector_with_Q_bound(x0.v, 0.1, rng))
    k = len(nan.segments) // 2
    # a segment with z = 0 has Q = 0, so |w| / |Q| is inf on all of its samples
    # and check (f) meets nan margins: np.argmin picks the first nan, and the
    # check reports its default
    z, w0 = nan.z.copy(), nan.w0.copy()
    z[k] = 0.0
    w0[k] *= 1e9 / np.linalg.norm(w0[k])
    group.insert(2, _with(nan, z=z, w0=w0))
    alone = [verify_monotonicity(_with(s), 1e-9) for s in group]
    shared = SeriesGroup(group)
    for report, single in zip(verify_monotonicity(shared, 1e-9), alone):
        assert _checks(report) == _checks(single)
    f = alone[2].check(CHECK_RATIO_NONINCREASING)
    assert (f.status, f.margin, f.t_worst) == ("pass", 0.0, 0.0)
    # the records read the group's grid, as rows of it
    for series in group:
        fast = series_records(series, c0=0.1)
        slow = series_records(_with(series), c0=0.1)
        assert fast.tobytes() == slow.tobytes()
        assert series.sample_grids[8].t.base is shared.sample_grids[8].t


def test_first_min_is_argmin_of_each_run():
    rng = np.random.default_rng(617)
    pool = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 2.0])
    for _ in range(300):
        lengths = rng.integers(1, 6, rng.integers(1, 6))
        x = pool[rng.integers(0, len(pool), lengths.sum())]
        starts = np.cumsum(lengths) - lengths
        want = [a + int(np.argmin(x[a:a + n])) for a, n in zip(starts, lengths)]
        assert _first_min(x, starts).tolist() == want


@pytest.mark.parametrize("column", ["w0", "q_drop"])
def test_series_out_of_range_gets_its_error_in_the_group(sinai2d, column):
    # a finite Q with an overflowing |w| (or an infinite closed-form drop)
    # used to pass; now its series is refused, alone and in a group
    group = _mixed_2d(sinai2d)[:3]
    bad = group[1]
    k = len(bad.segments) // 2
    col = getattr(bad, column).copy()
    if column == "w0":
        col[k] *= 1e160
    else:
        col[k - 1] = np.inf
    group[1] = _with(bad, **{column: col})
    for verify in (lambda s: verify_monotonicity(s, 1e-9),
                   lambda s: verify_growth(s, 0.05, 1e-9)):
        reports = verify(group)
        assert isinstance(reports[1].error, SeriesRangeError) and reports[1].checks == []
        for i in (0, 2):
            assert _checks(reports[i]) == _checks(verify(_with(group[i])))
        with pytest.raises(SeriesRangeError, match="double-precision"):
            verify(group[1])
    with pytest.raises(SeriesRangeError, match="double-precision"):
        series_records(group[1])
    assert group[1].sample_grids == {}


@pytest.mark.parametrize("d", range(2, 13))
def test_stacked_bases_equal_one_vector_at_a_time(d):
    rng = np.random.default_rng(619 + d)
    v = rng.standard_normal((25, d))
    v[0] = np.eye(d)[d - 1]
    stacked = _complement_basis(v)
    assert stacked.shape == (25, d - 1, d)
    for row, basis in zip(v, stacked):
        want = transport_oracle.complement_basis(row)
        assert basis.tobytes() == np.ascontiguousarray(want).tobytes()
        assert basis.strides == want.strides
        assert _complement_basis(row).tobytes() == want.tobytes()


@pytest.mark.parametrize("family", ["sinai2d", "hardball32"])
def test_group_residual_equals_each_residual_alone(family, request):
    dom = request.getfixturevalue(family)
    trajectories, n0 = _adjoint_group(dom, 631, (1e-3, 10.0, 4.0, 10.0))
    residuals = adjoint_residual(transport_covector(trajectories, n0, adjoint=1.0))
    alone = [transport_covector(t, n, adjoint=1.0) for t, n in zip(trajectories, n0)]
    assert [r.hex() for r in residuals] == [adjoint_residual(s).hex() for s in alone]
    assert adjoint_residual([]) == []


@pytest.mark.parametrize("family", ["sinai2d", "hardball32"])
def test_residual_is_only_read_off_the_checking_pass(family, request, monkeypatch):
    # the checking pass is the one source of a residual: a series transported
    # without the check, or rebuilt with replaced columns, has none, and
    # adjoint_residual raises for it without moving a covector
    dom = request.getfixturevalue(family)
    trajectories, n0 = _adjoint_group(dom, 677, (1e-3, 6.0, 4.0))
    plain = transport_covector(trajectories, n0)
    checked = transport_covector(trajectories, n0, adjoint=1.0)
    rebuilt = [_with(s, z=2.0 * s.z, w0=2.0 * s.w0) for s in checked]
    calls = []
    monkeypatch.setattr(transport, "transport_covector", lambda *args, **kw: calls.append(args))
    monkeypatch.setattr(transport, "curvature_at", lambda *args: calls.append(args))
    for group in (plain, rebuilt):
        for series in (group[1], group, [checked[0], group[2]]):
            with pytest.raises(ValueError, match="adjoint=1.0"):
                adjoint_residual(series)
    assert [r.hex() for r in adjoint_residual(checked)] == [s.residual.hex() for s in checked]
    assert adjoint_residual(checked[1]).hex() == checked[1].residual.hex()
    assert adjoint_residual([]) == []
    assert calls == []


def _adjoint_group(domain, seed, horizons):
    """One trajectory and start covector per horizon."""
    rng = np.random.default_rng(seed)
    trajectories, n0 = [], []
    for T in horizons:
        x0 = random_phase_point(domain, rng)
        trajectories.append(flow(domain, x0, T))
        n0.append(sample_covector_with_Q_bound(x0.v, 0.1, rng))
    return trajectories, n0


def _adjoint_passes(monkeypatch) -> tuple[list, list[list], list[int], list]:
    """From now on: the trajectories of each ``_event_columns`` call, those of
    each block (one ``_steps`` walk over rows ``a:b`` of a group's columns),
    the rows of each tangent move, and the ``transport_tangent`` calls."""
    groups, blocks, moves, tangent_calls = [], [], [], []
    columns, steps, jump = transport._event_columns, transport._steps, transport._tangent_jump

    def columns_spy(trajectories, *args, **kwargs):
        cols = columns(trajectories, *args, **kwargs)
        groups.append((cols, list(trajectories)))
        return cols

    def steps_spy(cols, a, b):
        trajectories = next(t for c, t in groups if c is cols)
        blocks.append([trajectories[f] for f in cols.order[a:b].tolist()])
        return steps(cols, a, b)

    def jump_spy(dq, dv, *args):
        moves.append(len(dq))
        return jump(dq, dv, *args)

    monkeypatch.setattr(transport, "_event_columns", columns_spy)
    monkeypatch.setattr(transport, "_steps", steps_spy)
    monkeypatch.setattr(transport, "_tangent_jump", jump_spy)
    monkeypatch.setattr(transport, "transport_tangent",
                        lambda *args: tangent_calls.append(args))
    return groups, blocks, moves, tangent_calls


@pytest.mark.parametrize("curvature_scale", [1.0, 2.0])
@pytest.mark.parametrize("family", ["sinai2d", "sinai3d", "cylinder3d", "hardball32"])
def test_residuals_of_tangent_passes_equal_each_residual_alone(family, curvature_scale,
                                                               request, monkeypatch):
    # a group split into at least three blocks, one holding several series:
    # each residual has the bits of its series checked alone and of the
    # loop oracle's, on the covector moved with curvature_scale * K
    domain = request.getfixturevalue(family)
    trajectories, n0 = _adjoint_group(domain, 641, (1e-3, 6.0, 2.0, 6.0, 4.0, 6.0, 3.0, 5.0))
    alone = [transport_covector(t, n, adjoint=curvature_scale).residual.hex()
             for t, n in zip(trajectories, n0)]
    slow = [transport_oracle.adjoint_residual(
        transport_oracle.transport_covector(t, n, curvature_scale=curvature_scale)).hex()
        for t, n in zip(trajectories, n0)]
    assert alone == slow
    monkeypatch.setattr(budget, "PASS_BYTES", 3 * transport._adjoint_bytes(domain.d))
    groups, blocks, _, _ = _adjoint_passes(monkeypatch)
    group = transport_covector(trajectories, n0, adjoint=curvature_scale)
    assert [s.residual.hex() for s in group] == alone
    assert [r.hex() for r in adjoint_residual(group)] == alone
    assert len(groups) == 1 and len(blocks) >= 3 and max(map(len, blocks)) >= 2


@pytest.mark.parametrize("values", [None, 700, 50])
def test_no_tangent_pass_holds_more_than_the_budget(hardball32, values, monkeypatch):
    # the series by falling event count, as many to a block as fit the
    # budget with their (10, 6) tangent stacks and temporaries (4800 B, 80 B
    # a tangent value); one alone if none fits.  The budget is the default
    # or that of 700 or 50 tangent values
    if values is not None:
        monkeypatch.setattr(budget, "PASS_BYTES", values * 8 * 10)
    pass_bytes = budget.PASS_BYTES
    rng = np.random.default_rng(653)
    starts = [random_phase_point(hardball32, rng) for _ in range(40)]
    trajectories = flow(hardball32, starts, 6.0)
    n0 = [sample_covector_with_Q_bound(x.v, 0.1, rng) for x in starts]
    groups, blocks, moves, tangent_calls = _adjoint_passes(monkeypatch)
    group = transport_covector(trajectories, n0, adjoint=1.0)
    adjoint_residual(group)
    held = transport._adjoint_bytes(6)
    assert held == 8 * 10 * 10 * 6
    by_count = sorted((s.trajectory for s in group), key=lambda t: -t.event_count)
    assert len(groups) == 1
    assert [id(t) for block in blocks for t in block] == [id(t) for t in by_count]
    assert len({t.event_count for t in by_count}) >= 3
    size = max(1, pass_bytes // held)
    assert all(len(block) == size for block in blocks[:-1]) and len(blocks[-1]) <= size
    assert moves and all(rows * held <= pass_bytes or rows == 1 for rows in moves)
    assert len(blocks) == {budget.PASS_BYTES: 1, 56_000: 4, 4_000: 40}[pass_bytes]
    assert tangent_calls == []


def test_adjoint_check_keeps_no_tangent_history(hardball32, monkeypatch):
    # one hard-disk trajectory of 209 events: the checking pass, its series
    # included, allocates less than the (E + 1, 10, 6) history of one
    # tangent stack
    x0, n0 = runner.sample_initial_conditions(hardball32, 2, 1, 0.1)[1]
    trajectory = flow(hardball32, x0, 155.0)
    events = trajectory.event_count
    assert events >= 200
    _, _, _, tangent_calls = _adjoint_passes(monkeypatch)
    tracemalloc.start()
    try:
        residual = adjoint_residual(transport_covector(trajectory, n0, adjoint=1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (events + 1) * 10 * 6 * 8
    assert tangent_calls == [] and math.isfinite(residual)


def test_run_pass_moves_only_the_covector(hardball32, monkeypatch):
    # without the check one walk of the group's columns, which hold no
    # incoming velocities, and no tangent stack moves
    trajectories, n0 = _adjoint_group(hardball32, 659, (6.0, 1e-3, 4.0, 6.0))
    groups, blocks, moves, _ = _adjoint_passes(monkeypatch)
    group = transport_covector(trajectories, n0)
    assert len(groups) == 1 and groups[0][0].v_in is None
    assert len(blocks) == 1 and moves == []
    assert [s.residual for s in group] == [None] * 4


def test_fault_hook_leaves_the_series_physical(hardball32, monkeypatch):
    # the covector moved with 2K is seen by the check only: every column
    # of every series has the bytes of the pass without the check
    trajectories, n0 = _adjoint_group(hardball32, 661, (6.0, 2.0, 6.0, 4.0, 1e-3, 5.0, 6.0))
    plain = transport_covector(trajectories, n0)
    monkeypatch.setattr(budget, "PASS_BYTES", transport._adjoint_bytes(6) - 1)
    for scale in (1.0, 2.0):
        checked = transport_covector(trajectories, n0, adjoint=scale)
        for a, b in zip(plain, checked):
            for name in ("z", "w0", "q_drop", "reprojection", "t0", "t1"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        residuals = [s.residual for s in checked]
        assert (max(residuals) < 1e-9) == (scale == 1.0)


def test_checking_pass_holds_its_series_and_one_block(hardball32, monkeypatch):
    # a multi-block hard-disk group: the pass's peak is the columns and the
    # series it returns plus a fixed multiple of one block's tangent stacks;
    # the whole group in one block exceeds that bound
    rng = np.random.default_rng(673)
    starts = [random_phase_point(hardball32, rng) for _ in range(120)]
    trajectories = flow(hardball32, starts, 2.0)
    n0 = [sample_covector_with_Q_bound(x.v, 0.1, rng) for x in starts]
    columns = sum(a.nbytes for a in transport._event_columns(trajectories)
                  if isinstance(a, np.ndarray))

    def peak_over_held(pass_bytes):
        monkeypatch.setattr(budget, "PASS_BYTES", pass_bytes)
        tracemalloc.start()
        try:
            group = transport_covector(trajectories, n0, adjoint=1.0)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(group) == 120
        return peak - held

    rows = 10
    block = 2 * rows * 10 * 6 * 8           # dq and dv of one block
    bound = columns + 16 * block
    assert peak_over_held(rows * transport._adjoint_bytes(6)) <= bound
    assert peak_over_held(120 * transport._adjoint_bytes(6)) > bound


# the configs of the perfbench workload verify_acceptance at seed 1, and
# 6 hard disks x 80, whose check moves two blocks (55 and 25 series at d = 12)
_VERIFIED = {name: (next(e["domain"] for e in CATALOG if e["name"] == name), 45, 20.0)
             for name in ("sinai_2d", "sinai_3d", "cylinder_3d", "hardball_n3_d2")}
_VERIFIED["hardball_n6_d2"] = ({"kind": "hardball_gas", "N": 6, "d": 2, "r": 0.1, "L": 1.0},
                               80, 6.0)
_CHECK_FIELDS = ("adjoint_residual", "worst_adjoint_residual", "check_failures", "exit_code")


def _without_check(summary: dict) -> dict:
    """``summary`` without the fields the adjoint check writes."""
    out = {k: v for k, v in summary.items() if k not in _CHECK_FIELDS}
    out["ensemble"] = {k: v for k, v in summary["ensemble"].items() if k not in _CHECK_FIELDS}
    out["trajectories"] = [{k: v for k, v in e.items() if k not in _CHECK_FIELDS}
                           for e in summary["trajectories"]]
    return out


def _verify(tmp_path, capsys, name, *flags) -> dict:
    """The summary that ``verify`` prints on the config ``name`` of
    ``_VERIFIED``, seed 1, c0 = 0.1; its exit code must be the summary's."""
    domain, count, horizon = _VERIFIED[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"domain": domain, "horizon": horizon, "initial": {
        "sampler": {"count": count, "seed": 1, "c0": 0.1}}}), encoding="utf-8")
    code = main(["verify", str(path), *flags])
    summary = json.loads(capsys.readouterr().out)
    assert code == summary["exit_code"]
    return summary


@pytest.mark.parametrize("name", list(_VERIFIED))
def test_corrupt_curvature_changes_only_what_the_check_sees(name, tmp_path, capsys):
    # verify --corrupt-curvature writes the summary of verify but for the
    # residuals and what they decide
    plain = _verify(tmp_path, capsys, name)
    corrupt = _verify(tmp_path, capsys, name, "--corrupt-curvature")
    assert plain["exit_code"] == 0 and plain["ensemble"]["worst_adjoint_residual"] < 1e-9
    assert corrupt["exit_code"] == 1 and corrupt["ensemble"]["check_failures"] > 0
    assert _without_check(corrupt) == _without_check(plain)


def test_verify_makes_one_curvature_call_per_event_index(tmp_path, capsys, monkeypatch):
    # one curvature_at call per event index of each block, shared by the
    # covector, the check and the fault hook: 81 on the four acceptance
    # families, with or without --corrupt-curvature
    calls = []
    curvature = transport.curvature_at
    monkeypatch.setattr(transport, "curvature_at",
                        lambda *args: calls.append(1) or curvature(*args))
    for flags in ([], ["--corrupt-curvature"]):
        del calls[:]
        for name in list(_VERIFIED)[:4]:
            _verify(tmp_path, capsys, name, *flags)
        assert len(calls) == 81


@pytest.mark.parametrize("d,reach", [(d, 1) for d in range(1, 9)] + [(d, 2) for d in range(1, 6)])
def test_lattice_steps_in_product_order(d, reach):
    steps = geometry._lattice_steps(d, reach)
    want = np.array(list(itertools.product(range(-reach, reach + 1), repeat=d)), dtype=float)
    assert steps.tobytes() == want.tobytes() and steps.flags.c_contiguous


def _config(tmp_path, count, horizon, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"domain": SINAI_2D, "horizon": horizon,
                                "initial": {"sampler": {"count": count, "seed": 1, "c0": 0.1}}}),
                    encoding="utf-8")
    return str(path)


def test_verify_past_the_double_range_exits_with_the_range_error_only(tmp_path, capsys):
    # at T = 188 the one trajectory's |w| overflows while Q stays finite
    assert main(["verify", _config(tmp_path, 1, 188.0)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: covector magnitudes exceed the double-precision range; "
                            "shorten the horizon\n")


def test_range_error_raises_at_its_trajectory_after_earlier_csvs(tmp_path, capsys):
    # at T = 187 trajectory 7 leaves the double range, in the second check
    # group; the seven CSVs before it are written, and the same as a run
    # that stops before it
    assert main(["run", _config(tmp_path, 8, 187.0), "--out", str(tmp_path / "a")]) == 3
    assert "double-precision" in capsys.readouterr().err
    main(["run", _config(tmp_path, 7, 187.0, "seven.json"), "--out", str(tmp_path / "b")])
    written = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert written == [f"trajectory_{i:04d}.csv" for i in range(7)]
    for name in written:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("mode", ["run", "verify"])
def test_outputs_do_not_depend_on_the_check_group_size(mode, tmp_path, monkeypatch):
    cfg = _config(tmp_path, 12, 30.0)
    outputs = []
    # one series a check group (and a few rows a CSV pass), about 2000
    # samples a group, and the default budget
    for pass_bytes in (20_000, 272_000, budget.PASS_BYTES):
        monkeypatch.setattr(budget, "PASS_BYTES", pass_bytes)
        out = tmp_path / f"out{pass_bytes}"
        main([mode, cfg, "--out", str(out)])
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(outputs[0]) == (13 if mode == "run" else 1)
