from __future__ import annotations

import math

import numpy as np
import pytest

from billiards import (
    Box,
    Covector,
    Domain,
    Halfspace,
    PhasePoint,
    TERMINATION_HORIZON,
    TangentVector,
    Torus,
    adjoint_residual,
    flow,
    lyapunov_Q,
    pairing,
    SeriesRangeError,
    sample_covector_uniform,
    sample_covector_with_Q_bound,
    transport_covector,
    transport_tangent,
    transversal_basis,
)
from conftest import random_phase_point

SQ2 = math.sqrt(2.0)


def wall_domain() -> Domain:
    return Domain(2, Box((1.0, 1.0)),
                  [Halfspace(np.array([0.0, 0.0]), np.array([0.0, 1.0]))])


def head_on_trajectory(sinai2d):
    """One head-on hit on the disk, at t = 0.15, flown to T = 0.3."""
    return flow(sinai2d, PhasePoint(np.array([0.1, 0.5]), np.array([1.0, 0.0])), 0.3)


def frame(v: np.ndarray) -> list[np.ndarray]:
    d = v.shape[0]
    m = np.concatenate([v[:, None], np.eye(d)], axis=1)
    q, _ = np.linalg.qr(m)
    return [q[:, k] for k in range(1, d)]


# ---------------------------------------------------------------------------
# collision maps, closed-form cases
# ---------------------------------------------------------------------------

def test_head_on_circle_covector_focusing(sinai2d):
    # tangent line is spanned by (0,1); V1 is the identity there and the
    # curvature contributes 2 * (1/r) * cos_phi = 8 per unit of w
    traj = head_on_trajectory(sinai2d)
    t = traj.events[0].t
    e = np.array([0.0, 1.0])
    a, b = 0.7, -0.3
    n_plus = transport_covector(traj, Covector(a * e, (b + t * a) * e)).covector_at(t, "post")
    np.testing.assert_allclose(n_plus.z, (a - 8.0 * b) * e, atol=1e-12)
    np.testing.assert_allclose(n_plus.w, b * e, atol=1e-12)


def test_head_on_circle_tangent_focusing(sinai2d):
    traj = head_on_trajectory(sinai2d)
    e = np.array([0.0, 1.0])
    dy = transport_tangent(traj, TangentVector(e.copy(), np.zeros(2))).tangent_at(
        traj.events[0].t, "post")
    np.testing.assert_allclose(dy.dq, e, atol=1e-12)
    np.testing.assert_allclose(dy.dv, 8.0 * e, atol=1e-12)


def test_velocity_only_variation_reflects(sinai2d):
    traj = head_on_trajectory(sinai2d)
    t = traj.events[0].t
    dv = 2.0 * np.array([0.0, 1.0])
    # dq is exactly 0 before the hit: the flight back-off cancels bit for bit
    series = transport_tangent(traj, TangentVector(-t * dv, dv))
    assert np.all(series.tangent_at(t, "pre").dq == 0.0)
    dy = series.tangent_at(t, "post")
    np.testing.assert_allclose(dy.dq, np.zeros(2), atol=0)
    np.testing.assert_allclose(dy.dv, dv, atol=1e-12)


# ---------------------------------------------------------------------------
# finite-difference oracles
# ---------------------------------------------------------------------------

def fd_flow_derivative(domain, x0: PhasePoint, dy: TangentVector, T: float,
                       eps: float = 1e-6):
    """Central finite difference of the time-T flow map, or None if the
    perturbed trajectories change their event sequence."""
    ends = []
    counts = []
    for sign in (+1.0, -1.0):
        v = x0.v + sign * eps * dy.dv
        v /= np.linalg.norm(v)
        traj = flow(domain, PhasePoint(x0.q + sign * eps * dy.dq, v), T)
        if traj.termination != TERMINATION_HORIZON:
            return None
        ends.append(traj.end)
        counts.append(traj.event_count)
    if counts[0] != counts[1]:
        return None
    dq = domain.min_image(ends[0].q - ends[1].q) / (2.0 * eps)
    dv = (ends[0].v - ends[1].v) / (2.0 * eps)
    return TangentVector(dq, dv)


def analytic_flow_derivative(traj, dy: TangentVector) -> TangentVector:
    series = transport_tangent(traj, dy)
    return series.tangent_at(traj.t_end)


def test_tangent_series_rejects_times_outside_range(sinai2d):
    traj = flow(sinai2d, PhasePoint(np.array([0.1, 0.5]), np.array([1.0, 0.0])), 0.6)
    dy = transversal_basis(traj.start.v)[0]
    series = transport_tangent(traj, dy)
    for t in (-0.1, traj.t_end + 0.1):
        with pytest.raises(SeriesRangeError):
            series.tangent_at(t)
    np.testing.assert_allclose(series.tangent_at(traj.t_end).dq,
                               analytic_flow_derivative(traj, dy).dq, atol=0)


def test_stacked_tangent_transport_matches_single_vectors(sinai2d, hardball32):
    rng = np.random.default_rng(79)
    for dom in (sinai2d, hardball32):
        traj, n0, series = _sample_series(dom, rng)
        basis = transversal_basis(traj.start.v)
        stack = transport_tangent(traj, TangentVector(np.array([b.dq for b in basis]),
                                                      np.array([b.dv for b in basis])))
        for t in (0.0, 0.5 * traj.t_end, traj.t_end):
            rows = stack.tangent_at(t)
            for k, dy in enumerate(basis):
                one = transport_tangent(traj, dy).tangent_at(t)
                np.testing.assert_allclose(rows.dq[k], one.dq, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(rows.dv[k], one.dv, rtol=1e-12, atol=1e-12)


def test_collision_tangent_matches_finite_differences(sinai2d, cylinder3d):
    rng = np.random.default_rng(41)
    for dom in (sinai2d, cylinder3d):
        tested = 0
        while tested < 10:
            x0 = random_phase_point(dom, rng)
            traj = flow(dom, x0, 1.2)
            if (traj.termination != TERMINATION_HORIZON or traj.event_count != 1
                    or traj.min_cos_phi() < 0.2):
                continue
            for dy in transversal_basis(x0.v):
                fd = fd_flow_derivative(dom, x0, dy, 1.2)
                if fd is None:
                    continue
                an = analytic_flow_derivative(traj, dy)
                err = math.hypot(np.linalg.norm(fd.dq - an.dq),
                                 np.linalg.norm(fd.dv - an.dv))
                assert err < 1e-4 * max(1.0, an.norm())
            tested += 1


def test_collision_covector_matches_fd_adjoint(sinai2d):
    # differentiate the flow across one collision numerically, then recover
    # the transported covector from pairing conservation and compare
    x0 = PhasePoint(np.array([0.1, 0.5]), np.array([1.0, 0.0]))
    T = 0.3
    traj = flow(sinai2d, x0, T)
    assert traj.event_count == 1
    n0 = Covector(np.array([0.0, 0.8]), np.array([0.0, -0.5]))
    series = transport_covector(traj, n0)
    n_T = series.covector_at(T)

    basis = transversal_basis(x0.v)
    f0, fT = frame(x0.v), frame(traj.end.v)
    m = len(basis)
    M = np.zeros((m, m))
    rhs = np.zeros(m)
    for k, dy in enumerate(basis):
        fd = fd_flow_derivative(sinai2d, x0, dy, T)
        assert fd is not None
        M[:, k] = [e @ fd.dq for e in fT] + [e @ fd.dv for e in fT]
        rhs[k] = pairing(dy, n0)
    coords = np.linalg.solve(M.T, rhs)
    z_fd = sum(c * e for c, e in zip(coords[:m // 2], fT))
    w_fd = sum(c * e for c, e in zip(coords[m // 2:], fT))
    np.testing.assert_allclose(z_fd, n_T.z, atol=1e-4 * max(1.0, np.linalg.norm(n_T.z)))
    np.testing.assert_allclose(w_fd, n_T.w, atol=1e-4 * max(1.0, np.linalg.norm(n_T.w)))


# ---------------------------------------------------------------------------
# whole-series properties
# ---------------------------------------------------------------------------

def test_transport_no_events_is_plain_shear():
    # without scatterers both passes are the free-flight shears
    # (z, w) -> (z, w - t z) and (dq, dv) -> (dq + t dv, dv), exactly
    e1, e2 = np.eye(2)
    traj = flow(Domain(2, Torus(1.0), []), PhasePoint(np.array([0.5, 0.5]), e2), 7.0)
    plain, shear, frozen = transport_covector([traj] * 3, [
        Covector(e1.copy(), -0.25 * e1), Covector(e1.copy(), -e1),
        Covector(np.zeros(2), 0.7 * e1)])
    n_T = plain.covector_at(4.0)
    np.testing.assert_allclose(n_T.z, [1.0, 0.0], atol=0)
    np.testing.assert_allclose(n_T.w, [-4.25, 0.0], atol=0)
    out = shear.covector_at(2.0)
    np.testing.assert_allclose(out.z, [1.0, 0.0], atol=0)
    np.testing.assert_allclose(out.w, [-3.0, 0.0], atol=0)
    assert lyapunov_Q(shear.n0) == -1.0 and lyapunov_Q(out) == -3.0
    np.testing.assert_allclose(frozen.covector_at(5.0).w, [0.7, 0.0], atol=0)
    moving, fixed = transport_tangent([traj] * 2, [TangentVector(np.zeros(2), e1.copy()),
                                                   TangentVector(e1.copy(), np.zeros(2))])
    dy = moving.tangent_at(3.0)
    np.testing.assert_allclose(dy.dq, [3.0, 0.0], atol=0)
    np.testing.assert_allclose(dy.dv, [1.0, 0.0], atol=0)
    np.testing.assert_allclose(fixed.tangent_at(7.0).dq, [1.0, 0.0], atol=0)
    # at t = 0 both are the identity; in 3-d, where z and w (dq and dv) can
    # span a plane orthogonal to v
    traj = flow(Domain(3, Torus(1.0), []), PhasePoint(np.full(3, 0.5), np.eye(3)[2]), 1.0)
    n = Covector(np.array([1.0, 2.0, 0.0]), np.array([3.0, 4.0, 0.0]))
    out = transport_covector(traj, n).covector_at(0.0)
    np.testing.assert_allclose(out.z, n.z, atol=0)
    np.testing.assert_allclose(out.w, n.w, atol=0)
    dy = transport_tangent(traj, TangentVector(np.array([1.0, 0.0, 0.0]),
                                               np.array([0.0, 2.0, 0.0]))).tangent_at(0.0)
    np.testing.assert_allclose(dy.dq, [1.0, 0.0, 0.0], atol=0)


def test_flat_wall_series_preserves_z_norm():
    dom = wall_domain()
    traj = flow(dom, PhasePoint(np.array([0.2, 0.5]), np.array([SQ2 / 2, -SQ2 / 2])), 0.9)
    t = traj.events[0].t
    u = np.array([SQ2 / 2, SQ2 / 2])      # v_in-perp direction
    # the second start reaches (0.3 u, -0.4 u) at the hit
    series, reflected = transport_covector([traj] * 2, [Covector(0.5 * u, -0.1 * u),
                                                        Covector(0.3 * u, (-0.4 + 0.3 * t) * u)])
    assert series.q_drop.shape == (1,)
    n_pre, n_post = series.covector_at(t, "pre"), series.covector_at(t, "post")
    assert np.linalg.norm(n_post.z) == pytest.approx(np.linalg.norm(n_pre.z), rel=1e-14)
    assert series.q_drop[0] == 0.0
    # K = 0: the collision maps are the reflection R
    R = np.eye(2) - 2.0 * np.outer(traj.events[0].nu, traj.events[0].nu)
    n_minus, n_plus = reflected.covector_at(t, "pre"), reflected.covector_at(t, "post")
    np.testing.assert_allclose(n_plus.z, R @ n_minus.z, atol=1e-15)
    np.testing.assert_allclose(n_plus.w, R @ n_minus.w, atol=1e-15)
    assert lyapunov_Q(n_plus) == pytest.approx(lyapunov_Q(n_minus), abs=1e-15)
    assert reflected.q_drop[0] == 0.0
    tangent = transport_tangent(traj, TangentVector((0.5 + 0.2 * t) * u, -0.2 * u))
    dy_minus, dy = tangent.tangent_at(t, "pre"), tangent.tangent_at(t, "post")
    np.testing.assert_allclose(dy.dq, R @ dy_minus.dq, atol=1e-15)
    np.testing.assert_allclose(dy.dv, R @ dy_minus.dv, atol=1e-15)


def _sample_series(dom, rng, T=8.0, c0=None):
    while True:
        x0 = random_phase_point(dom, rng)
        traj = flow(dom, x0, T)
        if traj.termination == TERMINATION_HORIZON and traj.event_count >= 2:
            break
    if c0 is None:
        n0 = sample_covector_uniform(x0.v, rng)
    else:
        n0 = sample_covector_with_Q_bound(x0.v, c0, rng)
    return traj, n0, transport_covector(traj, n0)


def test_w_norm_continuous_and_z_piecewise_constant(sinai2d, hardball32):
    rng = np.random.default_rng(43)
    for dom in (sinai2d, hardball32):
        for _ in range(5):
            traj, n0, series = _sample_series(dom, rng)
            for event in traj.events:
                a = np.linalg.norm(series.covector_at(event.t, "pre").w)
                b = np.linalg.norm(series.covector_at(event.t, "post").w)
                assert abs(a - b) <= 1e-12 * max(a, b)
            for t0, t1, z in zip(series.t0, series.t1, series.z):
                mid = series.covector_at(0.5 * (t0 + t1))
                assert np.linalg.norm(mid.z - z) == 0.0


def test_orthogonality_preserved_along_series(sinai2d, cylinder3d):
    rng = np.random.default_rng(47)
    for dom in (sinai2d, cylinder3d):
        traj, n0, series = _sample_series(dom, rng)
        for seg, t0, t1 in zip(series.segments, series.t0, series.t1):
            for t in np.linspace(t0, t1, 5):
                n = series.covector_at(t, "pre" if t == t1 else "post")
                scale = max(np.linalg.norm(n.z), np.linalg.norm(n.w), 1e-300)
                assert abs(n.z @ seg.v) <= 1e-10 * scale
                assert abs(n.w @ seg.v) <= 1e-10 * scale
        assert series.max_reprojection < 1e-10


def test_segment_identities_exact(sinai2d, hardball32):
    rng = np.random.default_rng(53)
    for dom in (sinai2d, hardball32):
        for _ in range(5):
            traj, n0, series = _sample_series(dom, rng)
            for t0, t1, z in zip(series.t0, series.t1, series.z):
                dt = t1 - t0
                n_a, n_b = series.covector_at(t0), series.covector_at(t1, "pre")
                qa, qb = lyapunov_Q(n_a), lyapunov_Q(n_b)
                z2 = float(z @ z)
                wa2 = float(n_a.w @ n_a.w)
                wb2 = float(n_b.w @ n_b.w)
                scale_q = max(abs(qa), abs(qb), dt * z2, 1e-300)
                assert abs(qb - (qa - dt * z2)) <= 1e-11 * scale_q
                scale_w = max(wa2, wb2, 1e-300)
                assert abs(wb2 - (wa2 - 2.0 * dt * qa + dt * dt * z2)) <= 1e-11 * scale_w


def test_per_event_q_jump_matches_closed_form(sinai2d, cylinder3d, hardball32):
    rng = np.random.default_rng(59)
    for dom in (sinai2d, cylinder3d, hardball32):
        traj, n0, series = _sample_series(dom, rng)
        for event, closed in zip(traj.events, series.q_drop):
            n_pre = series.covector_at(event.t, "pre")
            actual = lyapunov_Q(n_pre) - lyapunov_Q(series.covector_at(event.t, "post"))
            scale = max(abs(actual), abs(closed),
                        np.linalg.norm(n_pre.z) * np.linalg.norm(n_pre.w), 1e-300)
            assert abs(actual - closed) <= 1e-10 * scale
    # random uniform covectors right before a first hit: the drop is
    # nonnegative and |w| is continuous up to rounding
    rng = np.random.default_rng(7)
    for dom in (sinai2d, cylinder3d, hardball32):
        for _ in range(20):
            traj = flow(dom, random_phase_point(dom, rng), 5.0)
            if not traj.events:
                continue
            ev = traj.events[0]
            n = sample_covector_uniform(ev.v_in, rng)
            series = transport_covector(traj, Covector(n.z, n.w + ev.t * n.z))
            n_minus, n_plus = series.covector_at(ev.t, "pre"), series.covector_at(ev.t, "post")
            drop = series.q_drop[0]
            assert drop >= -1e-15
            assert lyapunov_Q(n_plus) - lyapunov_Q(n_minus) == pytest.approx(-drop, abs=1e-12)
            assert np.linalg.norm(n_plus.w) == pytest.approx(np.linalg.norm(n_minus.w),
                                                             rel=1e-14)


def test_adjoint_residual_zero_without_events():
    dom = Domain(2, Torus(1.0), [])
    traj = flow(dom, PhasePoint(np.array([0.5, 0.5]), np.array([0.0, 1.0])), 6.0)
    n0 = Covector(np.array([0.4, 0.0]), np.array([-0.6, 0.0]))
    assert adjoint_residual(transport_covector(traj, n0, adjoint=1.0)) < 1e-14


def test_adjoint_residual_small_on_multibounce(sinai2d, hardball32):
    rng = np.random.default_rng(61)
    for dom in (sinai2d, hardball32):
        for _ in range(5):
            traj, n0, series = _sample_series(dom, rng, T=10.0)
            if traj.min_cos_phi() < 0.1:
                continue
            assert adjoint_residual(transport_covector(traj, n0, adjoint=1.0)) < 1e-9


def test_adjoint_residual_detects_corrupted_curvature(sinai2d):
    rng = np.random.default_rng(67)
    traj, n0, series = _sample_series(sinai2d, rng, T=5.0)
    assert adjoint_residual(transport_covector(traj, n0, adjoint=2.0)) > 1e-6


def test_kernel_tangency_preserved(sinai2d):
    rng = np.random.default_rng(71)
    traj, n0, series = _sample_series(sinai2d, rng, T=6.0)
    basis = transversal_basis(traj.start.v)
    ref = max(basis, key=lambda dy: abs(pairing(dy, n0)))
    p_ref = pairing(ref, n0)
    for dy in basis:
        coeff = pairing(dy, n0) / p_ref
        ker = TangentVector(dy.dq - coeff * ref.dq, dy.dv - coeff * ref.dv)
        if ker.norm() < 1e-12:
            continue
        assert abs(pairing(ker, n0)) < 1e-12
        tan = transport_tangent(traj, ker)
        for t0, t1 in zip(series.t0, series.t1):
            for t, side in ((t0, "post"), (t1, "pre")):
                n_t = series.covector_at(t, side)
                dy_t = tan.tangent_at(t, side)
                scale = max(dy_t.norm() * n_t.norm(), ker.norm() * n0.norm())
                assert abs(pairing(dy_t, n_t)) <= 1e-9 * scale


def test_scale_covariance(sinai2d):
    rng = np.random.default_rng(73)
    traj, n0, series = _sample_series(sinai2d, rng, T=5.0)
    s = 3.0
    series_s = transport_covector(traj, n0.scaled(s))
    for t in (0.0, 0.5 * traj.t_end, traj.t_end):
        n_a = series.covector_at(t)
        n_b = series_s.covector_at(t)
        assert lyapunov_Q(n_b) == pytest.approx(s * s * lyapunov_Q(n_a), rel=1e-12)
        assert np.linalg.norm(n_b.w) == pytest.approx(s * np.linalg.norm(n_a.w), rel=1e-12)
        assert n_b.norm() / series_s.n0_norm == pytest.approx(n_a.norm() / series.n0_norm,
                                                              rel=1e-12)


def test_covector_must_be_transversal(sinai2d):
    traj = flow(sinai2d, PhasePoint(np.array([0.1, 0.5]), np.array([1.0, 0.0])), 0.1)
    with pytest.raises(ValueError):
        transport_covector(traj, Covector(np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    with pytest.raises(ValueError):
        transport_covector(traj, Covector(np.zeros(2), np.zeros(2)))
