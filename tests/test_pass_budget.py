"""Every array pass holds about ``budget.PASS_BYTES``, whatever its input.

Each test measures one pass's transient tracemalloc peak (above what was
held when it was called, and above what it returns when it returns
something) at d = 2 (2-d Sinai) and at d = 12 (6 hard disks; the broad
phase on 12-d Sinai), on an input that spans several passes, and bounds it
by a stated multiple of the budget.  Most tests set the budget to 64 KiB
and check, as a control, that the same input in one pass exceeds the
bound.  The covector pass is not sliced; it is bounded at the default
budget on a group of skewed event counts, which padded columns would
exceed.
"""

from __future__ import annotations

import gc
import json
import tracemalloc

import numpy as np
import pytest

from billiards import (
    budget,
    build_hardball_gas,
    build_sinai,
    dynamics,
    flow,
    runner,
    sample_covector_with_Q_bound,
    series_records,
    transport,
    transport_covector,
)
from billiards import csvformat
from billiards.config import load_config
from conftest import random_phase_point

B = 64 * 1024
DOMAINS = {2: build_sinai(2, 0.25, 1.0, [[0.5, 0.5]]), 12: build_hardball_gas(6, 2, 0.1, 1.0)}
SPECS = {2: {"kind": "sinai", "d": 2, "r": 0.25, "L": 1.0, "centers": [[0.5, 0.5]]},
         12: {"kind": "hardball_gas", "N": 6, "d": 2, "r": 0.1, "L": 1.0}}


def _peak(fn, *args, **kwargs) -> tuple:
    """``fn(*args, **kwargs)``, its tracemalloc peak above what was held at
    the call, and what it still holds when it returns."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - base, held - base


def _starts(domain, count: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [random_phase_point(domain, rng) for _ in range(count)]


def _round(domain, flights: int, seed: int) -> tuple:
    """A round of ``flights`` random starts, each with its full chunk of
    windows from time 0: ``(q, v, t_lo, hi)``."""
    starts = _starts(domain, flights, seed)
    window, chunk = 0.5 * domain.length_scale, dynamics._chunk(domain)[0]
    q, v = np.array([x.q for x in starts]), np.array([x.v for x in starts])
    t_lo = np.repeat([np.arange(chunk) * window], flights, axis=0)
    return q, v, t_lo, np.full((flights, chunk), window)


@pytest.mark.parametrize("d,flights", [(2, 56), (12, 24)])
def test_kernel_round_holds_about_one_budget(d, flights, monkeypatch):
    # 56 flights of 7 windows on 2-d Sinai (392 windows of 9 images, 64 B an
    # image row) and 24 of one window on 6 hard disks (375 images, 144 B a
    # row): the round's window arrays and one slice stay under 2.5 budgets,
    # where the round in one slice holds about 4 (d = 2) and 20 (d = 12)
    domain = DOMAINS[d]
    args = _round(domain, flights, 881)
    monkeypatch.setattr(budget, "PASS_BYTES", B)
    hits, peak, _ = _peak(dynamics._window_candidates, domain, *args)
    assert peak <= 2.5 * B
    monkeypatch.setattr(budget, "PASS_BYTES", 10**12)
    whole, peak, _ = _peak(dynamics._window_candidates, domain, *args)
    assert peak > 2.5 * B
    assert all(np.array_equal(a, b) for a, b in zip(hits, whole))


def test_broad_phase_round_at_d12_holds_about_one_budget(monkeypatch):
    # 12-d Sinai (531441 images a window, r = 0.05): a flight group as the
    # budget gives it (10 flights of 16 windows) tests its windows' reach in
    # slices of 11 windows.  Each flight runs along a diagonal of the
    # lattice 0.1 from it, and each of its windows spans the times 0.25
    # before and after a nearest approach to a lattice point, so every box
    # holds that point and every window takes the segment test.  No segment
    # comes within reach, so no image is scanned, and the round holds at
    # most 2.5 budgets
    domain = build_sinai(12, 0.05, 1.0, [[0.5] * 12])
    monkeypatch.setattr(budget, "PASS_BYTES", B)
    (group, *_) = dynamics.flight_groups(domain, 100)
    assert len(group) == 10
    q, v, t_lo, hi = _round(domain, len(group), 883)
    rng = np.random.default_rng(884)
    for f in range(len(group)):
        v[f] = rng.choice([-1.0, 1.0], 12) / np.sqrt(12.0)
        e = rng.choice([-1.0, 1.0], 12)
        e -= (e @ v[f]) * v[f]
        q[f] = domain.scatterers[0].center + 0.1 * e / np.linalg.norm(e)
    t_lo[:] = np.arange(t_lo.shape[1]) * np.sqrt(12.0) - 0.25
    refined = []
    original = dynamics._segment_gap_sq
    monkeypatch.setattr(dynamics, "_segment_gap_sq",
                        lambda m, *a: refined.append(m.shape[0]) or original(m, *a))
    scans = []
    monkeypatch.setattr(dynamics, "_image_roots", lambda *a: scans.append(a))
    (f, *_), peak, _ = _peak(dynamics._window_candidates, domain, q, v, t_lo, hi)
    assert scans == [] and f.size == 0
    assert sum(refined) == t_lo.size
    assert peak <= 2.5 * B


@pytest.mark.parametrize("d,count", [(2, 20000), (12, 2000)])
def test_contains_holds_about_one_budget(d, count, monkeypatch):
    # 20000 points on 2-d Sinai (64 B a point) and 2000 on 6 hard disks
    # (1440 B a point, 15 ball pairs): at most two budgets, where one slice
    # of every point holds about 20 and 44
    domain = DOMAINS[d]
    points = np.random.default_rng(887).uniform(0.0, 1.0, (count, domain.d))
    monkeypatch.setattr(budget, "PASS_BYTES", B)
    inside, peak, _ = _peak(domain.contains, points)
    assert peak <= 2 * B
    monkeypatch.setattr(budget, "PASS_BYTES", 10**12)
    whole, peak, _ = _peak(domain.contains, points)
    assert peak > 2 * B
    assert inside.tolist() == whole.tolist() and {True, False} <= set(inside.tolist())


@pytest.mark.parametrize("d,long,short", [(2, 200.0, 400), (12, 40.0, 100)])
def test_covector_pass_holds_no_padding(d, long, short):
    # one long trajectory and many short ones: the pass holds its group's
    # events once, step by step, and its step arrays, under half the default
    # budget above the series it returns; columns padded to the longest
    # trajectory would hold more than the whole budget
    domain = DOMAINS[d]
    rng = np.random.default_rng(907)
    starts = _starts(domain, short + 1, 911)
    trajectories = [flow(domain, starts[0], long)] + flow(domain, starts[1:], 0.3)
    n0 = [sample_covector_with_Q_bound(x.v, 0.1, rng) for x in starts]
    events = [t.event_count for t in trajectories]
    padded = len(trajectories) * (max(events) + 1) * (2 * d + 3) * 8
    assert padded > budget.PASS_BYTES and sum(events) < 4 * max(events) + 2 * short
    series, peak, held = _peak(transport_covector, trajectories, n0)
    assert len(series) == short + 1
    assert peak - held <= 0.5 * budget.PASS_BYTES


@pytest.mark.parametrize("d,count,T", [(2, 600, 2.0), (12, 30, 2.0)])
def test_adjoint_block_holds_about_one_budget(d, count, T, monkeypatch):
    # blocks of the series whose tangent stacks and temporaries fit 64 KiB
    # (204 series at d = 2, 3 at d = 12): above the series, at most the
    # event columns twice (built from the trajectories' own) and two
    # budgets; at d = 12 the group in one block (30 series, about 600 KB of
    # stacks and temporaries) exceeds that
    domain = DOMAINS[d]
    rng = np.random.default_rng(919)
    starts = _starts(domain, count, 929)
    trajectories = flow(domain, starts, T)
    n0 = [sample_covector_with_Q_bound(x.v, 0.1, rng) for x in starts]
    columns = sum(a.nbytes for a in transport._event_columns(trajectories)
                  if isinstance(a, np.ndarray))
    monkeypatch.setattr(budget, "PASS_BYTES", B)
    series, peak, held = _peak(transport_covector, trajectories, n0, adjoint=1.0)
    assert peak - held <= 2 * columns + 2 * B
    if d == 12:
        monkeypatch.setattr(budget, "PASS_BYTES", 10**12)
        whole, peak, held = _peak(transport_covector, trajectories, n0, adjoint=1.0)
        assert peak - held > 2 * columns + 2 * B
        assert [s.residual for s in series] == [s.residual for s in whole]


@pytest.mark.parametrize("d,count,T", [(2, 40, 20.0), (12, 40, 3.0)])
def test_check_group_holds_about_one_budget(d, count, T, tmp_path, monkeypatch):
    # the checks of a flight group's series in check groups of 64 KiB (17
    # words a sample at d = 2, 31 at d = 12, and their grids): at most two
    # budgets above the entries they return, where one check group of the
    # 40 series (about 6000 samples) exceeds that
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"domain": SPECS[d], "horizon": T, "initial": {
        "sampler": {"count": count, "seed": 3, "c0": 0.1}}}), encoding="utf-8")
    cfg = load_config(path)
    initial = runner.sample_initial_conditions(cfg.domain, count, 3, 0.1)
    trajectories = flow(cfg.domain, [x for x, _ in initial], T)
    n0 = [n for _, n in initial]
    entries = {}
    for pass_bytes in (B, 10**12):
        monkeypatch.setattr(budget, "PASS_BYTES", pass_bytes)
        series = transport_covector(trajectories, n0)
        entries[pass_bytes], peak, held = _peak(
            runner._check_and_write, cfg, range(count), series, [None] * count, None)
        assert (peak - held <= 2 * B) == (pass_bytes == B)
    assert runner._sanitize(entries[B]) == runner._sanitize(entries[10**12])


@pytest.mark.parametrize("d,T", [(2, 100.0), (12, 30.0)])
def test_csv_pass_holds_about_one_budget(d, T, tmp_path, monkeypatch):
    # one trajectory's CSV (500 to 1300 rows) in passes of 20 rows: the
    # writer holds at most two budgets, neither the file's body nor a copy
    # of it; its rows in one pass hold more
    domain = DOMAINS[d]
    rng = np.random.default_rng(937)
    x0 = _starts(domain, 1, 941)[0]
    series = transport_covector(flow(domain, x0, T),
                                sample_covector_with_Q_bound(x0.v, 0.1, rng))
    records = series_records(series, c0=0.1)
    assert len(records) >= 500
    csvformat._tables()                       # built once, on first use
    files = {}
    for pass_bytes in (B, 10**12):
        monkeypatch.setattr(budget, "PASS_BYTES", pass_bytes)
        path = tmp_path / f"{pass_bytes}.csv"
        _, peak, _ = _peak(runner._write_csv, path, records)
        assert (peak <= 2 * B) == (pass_bytes == B)
        files[pass_bytes] = path.read_bytes()
    body = b"".join(csvformat.csv_passes([records[name] for name in runner._CSV_FIELDS]))
    assert files[B] == files[10**12] == runner._CSV_HEADER + body
