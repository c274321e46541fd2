from __future__ import annotations

import math

import numpy as np
import pytest

from billiards import (
    ConfigError,
    Covector,
    Domain,
    InfeasibleCovectorError,
    PhasePoint,
    SeriesRangeError,
    TERMINATION_HORIZON,
    Torus,
    TransportSeries,
    expansion_factor,
    flow,
    lyapunov_Q,
    q_decrement_breakdown,
    sample_covector_uniform,
    sample_covector_with_Q_bound,
    series_records,
    transport_covector,
    verify_growth,
    verify_monotonicity,
)
from billiards.diagnostics import (
    CHECK_LAMBDA_LINEAR_GROWTH,
    CHECK_Q_COLLISION_DROP,
    CHECK_Q_NONINCREASING,
    CHECK_Q_STRICT_DECREASE,
    CHECK_RATIO_NONINCREASING,
    CHECK_W_CONTINUITY,
    CHECK_W_LINEAR_GROWTH,
    CHECK_W_STRICT_INCREASE,
)
from conftest import random_phase_point

SQ2 = math.sqrt(2.0)


def free_series(z, w, v, T=4.0):
    dom = Domain(2, Torus(1.0), [])
    traj = flow(dom, PhasePoint(np.array([0.5, 0.5]), np.asarray(v, dtype=float)), T)
    return transport_covector(traj, Covector(np.asarray(z, float), np.asarray(w, float)))


def bounced_series(sinai2d, rng, T=8.0, c0=None):
    while True:
        x0 = random_phase_point(sinai2d, rng)
        traj = flow(sinai2d, x0, T)
        if traj.termination == TERMINATION_HORIZON and traj.event_count >= 2:
            break
    n0 = sample_covector_uniform(x0.v, rng) if c0 is None \
        else sample_covector_with_Q_bound(x0.v, c0, rng)
    return transport_covector(traj, n0)


# ---------------------------------------------------------------------------
# Q and the expansion factor
# ---------------------------------------------------------------------------

def test_lyapunov_value_examples():
    assert lyapunov_Q(Covector(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))) == -1.0
    assert lyapunov_Q(Covector(np.array([1.0, 0.0]), np.array([0.0, 1.0]))) == 0.0
    n = Covector(np.array([0.3, 0.4]), np.array([-0.5, 0.2]))
    assert lyapunov_Q(n.scaled(2.0)) == pytest.approx(4.0 * lyapunov_Q(n), rel=1e-15)
    assert math.copysign(1, lyapunov_Q(n.scaled(7.0))) == math.copysign(1, lyapunov_Q(n))


def test_expansion_factor_identity_at_zero():
    series = free_series([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0])
    assert expansion_factor(series, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_expansion_factor_free_flight_sqrt5():
    # unit-normalized (z, w) = ((1,0), (-1,0)) / sqrt(2): after t=2 the norm
    # is sqrt((1+9)/2) = sqrt(5)
    z = np.array([1.0, 0.0]) / SQ2
    w = np.array([-1.0, 0.0]) / SQ2
    series = free_series(z, w, [0.0, 1.0])
    assert expansion_factor(series, 2.0) == pytest.approx(math.sqrt(5.0), rel=1e-14)


def test_expansion_factor_frozen_when_z_zero():
    series = free_series([0.0, 0.0], [1.0, 0.0], [0.0, 1.0])
    for t in (0.0, 1.0, 3.5):
        assert expansion_factor(series, t) == pytest.approx(1.0, abs=1e-15)


def test_expansion_factor_range_error():
    series = free_series([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0])
    with pytest.raises(SeriesRangeError):
        expansion_factor(series, 5.0)
    with pytest.raises(SeriesRangeError):
        expansion_factor(series, -1.0)
    # the series' own rounding slack at the ends
    assert expansion_factor(series, -1e-13) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# verify_monotonicity
# ---------------------------------------------------------------------------

def test_monotonicity_passes_on_negative_q_series(sinai2d):
    rng = np.random.default_rng(81)
    for _ in range(5):
        series = bounced_series(sinai2d, rng, c0=0.1)
        report = verify_monotonicity(series, 1e-9)
        assert report.passed()
        assert all(c.status == "pass" for c in report.checks)


def test_monotonicity_skips_strict_checks_when_q_nonnegative():
    series = free_series([0.0, 0.0], [1.0, 0.0], [0.0, 1.0])
    report = verify_monotonicity(series, 1e-9)
    assert report.check(CHECK_Q_NONINCREASING).status == "pass"
    assert report.check(CHECK_Q_STRICT_DECREASE).status == "skipped"
    assert report.check(CHECK_W_STRICT_INCREASE).status == "skipped"
    assert report.check(CHECK_RATIO_NONINCREASING).status == "skipped"


def corrupted(series, k, column, factor):
    """A copy of ``series`` with row ``k`` of its ``z`` or ``w0`` column scaled."""
    cols = {"z": series.z.copy(), "w0": series.w0.copy()}
    cols[column][k] *= factor
    return TransportSeries(series.trajectory, series.n0, cols["z"], cols["w0"],
                           series.q_drop, series.reprojection)


def test_monotonicity_detects_corrupted_w(sinai2d):
    rng = np.random.default_rng(83)
    series = bounced_series(sinai2d, rng, c0=0.1)
    k = len(series.segments) // 2
    assert k >= 1
    report = verify_monotonicity(corrupted(series, k, "w0", 1.5), 1e-9)
    assert report.check(CHECK_W_CONTINUITY).status == "fail"
    assert report.check(CHECK_W_CONTINUITY).margin < 0.0


def test_monotonicity_detects_corrupted_z(sinai2d):
    rng = np.random.default_rng(87)
    series = bounced_series(sinai2d, rng, c0=0.1)
    k = len(series.segments) // 2
    report = verify_monotonicity(corrupted(series, k, "z", -0.5), 1e-9)
    assert not report.passed()


@pytest.mark.parametrize("column,factor", [("z", -0.5), ("z", 1.01), ("w0", 1.5),
                                           ("w0", 0.99)])
def test_collision_drop_check_fails_on_corrupted_row(sinai2d, column, factor):
    # a corrupted row moves Q right after the collision that opens the
    # segment, so the drop there no longer matches its closed form
    rng = np.random.default_rng(91)
    series = bounced_series(sinai2d, rng, c0=0.1)
    clean = verify_monotonicity(series, 1e-9).check(CHECK_Q_COLLISION_DROP)
    assert clean.status == "pass" and clean.margin > -1e-12
    k = len(series.segments) // 2
    assert k >= 1
    check = verify_monotonicity(corrupted(series, k, column, factor),
                                1e-9).check(CHECK_Q_COLLISION_DROP)
    assert check.status == "fail"
    # the row opens at event k - 1 and closes at event k
    assert check.t_worst in {ev.t for ev in series.trajectory.events[k - 1:k + 1]}


def test_monotonicity_report_structure(sinai2d):
    rng = np.random.default_rng(89)
    series = bounced_series(sinai2d, rng)
    report = verify_monotonicity(series, 1e-9)
    names = [c.name for c in report.checks]
    assert names == [CHECK_Q_NONINCREASING, CHECK_W_CONTINUITY, CHECK_Q_COLLISION_DROP,
                     CHECK_Q_STRICT_DECREASE, CHECK_W_STRICT_INCREASE,
                     CHECK_RATIO_NONINCREASING]
    assert len(names) == len(set(names))


# ---------------------------------------------------------------------------
# verify_growth
# ---------------------------------------------------------------------------

def test_growth_bounds_hold(sinai2d):
    rng = np.random.default_rng(91)
    for _ in range(5):
        series = bounced_series(sinai2d, rng, T=15.0, c0=0.1)
        report = verify_growth(series, 0.1, 1e-9)
        assert report.passed()
        assert report.check(CHECK_W_LINEAR_GROWTH).margin >= -1e-9
        lam = report.check(CHECK_LAMBDA_LINEAR_GROWTH)
        assert lam.status in ("pass", "skipped")


def test_growth_free_flight_margin_nonnegative():
    # pure free flight: Cauchy-Schwarz forces the linear bound on |w_t|
    z = np.array([0.6, 0.0])
    w = np.array([-0.8, 0.0])
    series = free_series(z, w, [0.0, 1.0], T=30.0)
    report = verify_growth(series, abs(lyapunov_Q(series.n0)), 1e-9)
    assert report.check(CHECK_W_LINEAR_GROWTH).margin >= -1e-9


def test_growth_rejects_too_large_c0(sinai2d):
    rng = np.random.default_rng(93)
    series = bounced_series(sinai2d, rng, c0=0.1)
    q0 = lyapunov_Q(series.n0)
    with pytest.raises(ConfigError):
        verify_growth(series, abs(q0) * 1.5, 1e-9)


def test_growth_rejects_non_unit_covector():
    series = free_series([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0])  # norm sqrt(2)
    with pytest.raises(ConfigError):
        verify_growth(series, 0.1, 1e-9)


def test_growth_rejects_nonpositive_c0():
    z = np.array([1.0, 0.0]) / SQ2
    series = free_series(z, -z, [0.0, 1.0])
    with pytest.raises(ConfigError):
        verify_growth(series, 0.0, 1e-9)


def test_growth_and_monotonicity_across_domains_and_bounds(
        sinai2d, sinai3d, cylinder3d, hardball32):
    # scaled-down ensemble; the acceptance suite runs the full-size one
    rng = np.random.default_rng(103)
    for dom in (sinai2d, sinai3d, cylinder3d, hardball32):
        for c0 in (0.05, 0.1, 0.2):
            for _ in range(3):
                x0 = random_phase_point(dom, rng)
                n0 = sample_covector_with_Q_bound(x0.v, c0, rng)
                series = transport_covector(flow(dom, x0, 10.0), n0)
                assert verify_monotonicity(series, 1e-9).passed()
                assert verify_growth(series, c0, 1e-9).passed()


# ---------------------------------------------------------------------------
# Q decrement bookkeeping
# ---------------------------------------------------------------------------

def test_q_decrement_breakdown(sinai2d, hardball32):
    rng = np.random.default_rng(97)
    for dom_fixture in (sinai2d, hardball32):
        while True:
            x0 = random_phase_point(dom_fixture, rng)
            traj = flow(dom_fixture, x0, 8.0)
            if traj.termination == TERMINATION_HORIZON and traj.event_count >= 2:
                break
        n0 = sample_covector_with_Q_bound(x0.v, 0.1, rng)
        series = transport_covector(traj, n0)
        bk = q_decrement_breakdown(series)
        assert all(x >= -1e-15 for x in bk["free_drops"])
        assert all(x >= -1e-12 for x in bk["collision_drops"])
        assert abs(bk["residual"]) <= 1e-9 * max(abs(bk["total_drop"]), 1.0)


# ---------------------------------------------------------------------------
# covector sampling
# ---------------------------------------------------------------------------

def test_sampler_deterministic_per_seed():
    v = np.array([0.0, 0.0, 1.0])
    a = sample_covector_with_Q_bound(v, 0.1, 42)
    b = sample_covector_with_Q_bound(v, 0.1, 42)
    assert np.array_equal(a.z, b.z) and np.array_equal(a.w, b.w)
    c = sample_covector_with_Q_bound(v, 0.1, 43)
    assert not (np.array_equal(a.z, c.z) and np.array_equal(a.w, c.w))


def test_sampler_invariants():
    rng = np.random.default_rng(0)
    for d in (2, 3, 6):
        for c0 in (0.05, 0.1, 0.2):
            for seed in range(30):
                v = rng.standard_normal(d)
                v /= np.linalg.norm(v)
                n = sample_covector_with_Q_bound(v, c0, seed)
                assert abs(n.norm() - 1.0) <= 1e-12
                assert lyapunov_Q(n) <= -c0 + 1e-12
                assert abs(n.z @ v) <= 1e-12
                assert abs(n.w @ v) <= 1e-12


def test_sampler_equality_case_is_antipodal():
    v = np.array([0.0, 1.0, 0.0])
    n = sample_covector_with_Q_bound(v, 0.5, 7)
    np.testing.assert_allclose(n.w, -n.z, atol=1e-15)
    assert lyapunov_Q(n) == pytest.approx(-0.5, abs=1e-12)


def test_sampler_infeasible_bounds():
    v = np.array([0.0, 1.0])
    with pytest.raises(InfeasibleCovectorError):
        sample_covector_with_Q_bound(v, 0.6, 1)
    with pytest.raises(InfeasibleCovectorError):
        sample_covector_with_Q_bound(v, -0.1, 1)
    with pytest.raises(InfeasibleCovectorError):
        sample_covector_with_Q_bound(v, 0.0, 1)


# ---------------------------------------------------------------------------
# sampled records
# ---------------------------------------------------------------------------

def test_series_records_event_pairs(sinai2d):
    rng = np.random.default_rng(101)
    series = bounced_series(sinai2d, rng, c0=0.1)
    records = series_records(series, interior=8, c0=0.1)
    pre = [r for r in records if r.event_flag == 1]
    post = [r for r in records if r.event_flag == 2]
    assert len(pre) == len(post) == len(series.q_drop) == series.trajectory.event_count
    for a, b in zip(pre, post):
        assert a.t == b.t
    ts = [r.t for r in records]
    assert all(b >= a for a, b in zip(ts, ts[1:]))
    for r in records:
        assert r.norm_n ** 2 == pytest.approx(r.norm_z ** 2 + r.norm_w ** 2, rel=1e-12)
        assert r.bound_theorem == pytest.approx(1.0 + 0.1 * r.t, rel=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verifiers_reject_overflowed_series(sinai2d):
    # dispersing expansion is exponential; far beyond the supported horizon
    # the magnitudes leave the double range and verification must refuse
    # rather than pass on inf/nan samples
    rng = np.random.default_rng(113)
    x0 = random_phase_point(sinai2d, rng)
    n0 = sample_covector_with_Q_bound(x0.v, 0.1, rng)
    series = transport_covector(flow(sinai2d, x0, 300.0), n0)
    # a failed sample is not kept on the series: every call raises, again
    for _ in range(2):
        with pytest.raises(SeriesRangeError, match="double-precision"):
            verify_monotonicity(series, 1e-9)
        with pytest.raises(SeriesRangeError, match="double-precision"):
            verify_growth(series, 0.1, 1e-9)
        with pytest.raises(SeriesRangeError, match="double-precision"):
            series_records(series, c0=0.1)
    assert series.sample_grids == {}


def test_series_records_ratio_sentinel():
    series = free_series([0.0, 0.0], [1.0, 0.0], [0.0, 1.0])
    records = series_records(series)
    assert all(math.isinf(r.ratio_wQ) for r in records)
