"""Acceptance suite: every criterion at its pinned tolerance.

Each test prints one ``ACCEPTANCE <nn> ...: PASS/FAIL`` line (visible with
``pytest -s`` or in failure reports) and asserts the criterion.  The shared
ensembles are module-scoped fixtures, so the suite runs the trajectories
once.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from billiards import (
    Box,
    Covector,
    Cylinder,
    Domain,
    Halfspace,
    PhasePoint,
    TERMINATION_HORIZON,
    TangentVector,
    Torus,
    adjoint_residual,
    build_hardball_gas,
    build_sinai,
    flight_groups,
    flow,
    lyapunov_Q,
    transport_covector,
    transport_tangent,
    transversal_basis,
    verify_growth,
    verify_monotonicity,
)
from billiards.cli import main
from billiards.diagnostics import (
    CHECK_LAMBDA_LINEAR_GROWTH,
    CHECK_Q_COLLISION_DROP,
    CHECK_Q_NONINCREASING,
    CHECK_Q_STRICT_DECREASE,
    CHECK_RATIO_NONINCREASING,
    CHECK_W_CONTINUITY,
    CHECK_W_LINEAR_GROWTH,
    CHECK_W_STRICT_INCREASE,
    W_CONTINUITY_TOL,
)
from billiards.runner import sample_initial_conditions

TOL_ADJOINT = 1e-9          # criterion 1
TOL_CHECKS = 1e-9           # criteria 2-5
TOL_W_JUMP = 1e-12          # criterion 2, relative |w| jump at events
TOL_SEGMENT_IDENTITY = 1e-11  # criterion 6
TOL_Q_JUMP = 1e-10          # criterion 7
TOL_FD = 1e-4               # criterion 8
FD_STEP = 1e-6              # criterion 8
TOL_REVERSIBILITY = 1e-6    # criterion 10
C0 = 0.1
C0_CYCLE = (0.05, 0.1, 0.2)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def make_domains() -> dict[str, Domain]:
    return {
        "sinai_2d": build_sinai(2, 0.25, 1.0, [[0.5, 0.5]]),
        "sinai_3d": build_sinai(3, 0.3, 1.0, [[0.5, 0.5, 0.5]]),
        "cylinder_3d": Domain(3, Torus(1.0),
                              [Cylinder(np.array([0.5, 0.5, 0.0]),
                                        np.array([[0.0, 0.0, 1.0]]), 0.2)]),
        "hardball_3_2": build_hardball_gas(3, 2, 0.1, 1.0),
    }


@pytest.fixture(scope="module")
def domains():
    return make_domains()


def _flown(name: str, dom: Domain, samples: list, T: float) -> list:
    """``(name, traj, n0, series)`` of each sampled start, flown in the
    lockstep groups the runner uses (the bits of one start at a time)."""
    starts = [x0 for x0, _ in samples]
    trajs = [traj for g in flight_groups(dom, len(starts))
             for traj in flow(dom, starts[g.start:g.stop], T)]
    return [(name, traj, n0, transport_covector(traj, n0))
            for traj, (_, n0) in zip(trajs, samples)]


@pytest.fixture(scope="module")
def ensemble_a(domains):
    """250 trajectories per domain at T=20: half with sign-free covectors,
    half with Q(n0) <= -c0 for c0 cycling through {0.05, 0.1, 0.2}."""
    seeds = {"sinai_2d": 11, "sinai_3d": 13, "cylinder_3d": 17, "hardball_3_2": 19}
    items = []
    for name, dom in domains.items():
        base = seeds[name]
        groups = [(base, 125, None)]
        counts = (42, 42, 41)
        for k, c0 in enumerate(C0_CYCLE):
            groups.append((base + 100 * (k + 1), counts[k], c0))
        for seed, count, c0 in groups:
            items += _flown(name, dom, sample_initial_conditions(dom, count, seed, c0), 20.0)
    assert len(items) == 1000
    return items


@pytest.fixture(scope="module")
def ensemble_b(domains):
    """25 trajectories per domain at T=100 with unit covectors, Q(n0) <= -0.1."""
    seeds = {"sinai_2d": 211, "sinai_3d": 223, "cylinder_3d": 227, "hardball_3_2": 229}
    items = []
    for name, dom in domains.items():
        items += _flown(name, dom, sample_initial_conditions(dom, 25, seeds[name], C0), 100.0)
    assert len(items) == 100
    return items


# ---------------------------------------------------------------------------
# 1. adjoint exactness
# ---------------------------------------------------------------------------

def test_criterion_01_adjoint_exactness():
    dom = build_sinai(2, 0.25, 1.0, [[0.5, 0.5]])
    t_start = time.time()
    worst = 0.0
    accepted = 0
    seed = 0
    while accepted < 200:
        seed += 1
        (x0, n0), = sample_initial_conditions(dom, 1, 300 + seed)
        traj = flow(dom, x0, 20.0)
        if traj.termination != TERMINATION_HORIZON or traj.min_cos_phi() < 0.01:
            continue
        worst = max(worst, adjoint_residual(transport_covector(traj, n0)))
        accepted += 1
    elapsed = time.time() - t_start
    ok = worst < TOL_ADJOINT and elapsed < 60.0
    report(1, "adjoint exactness", ok,
           f"worst residual {worst:.3e} over 200 trajectories in {elapsed:.1f}s")
    assert worst < TOL_ADJOINT
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2. monotonicity laws over the ensemble
# ---------------------------------------------------------------------------

def test_criterion_02_monotonicity_ensemble(ensemble_a):
    # the |w| continuity check measures jumps against W_CONTINUITY_TOL
    assert W_CONTINUITY_TOL == TOL_W_JUMP
    violations = 0
    for name, traj, n0, series in ensemble_a:
        rep = verify_monotonicity(series, TOL_CHECKS)
        for check_name in (CHECK_Q_NONINCREASING, CHECK_W_CONTINUITY,
                           CHECK_Q_COLLISION_DROP):
            if rep.check(check_name).status == "fail":
                violations += 1
    ok = violations == 0
    report(2, "Q/|w| monotonicity laws and collision Q drops", ok,
           f"{violations} violations over {len(ensemble_a)} trajectories")
    assert violations == 0


# ---------------------------------------------------------------------------
# 3. strict monotonicity for Q(n0) <= -0.1
# ---------------------------------------------------------------------------

def test_criterion_03_strict_monotonicity(ensemble_a):
    subset = [(name, traj, n0, series) for name, traj, n0, series in ensemble_a
              if lyapunov_Q(n0) <= -0.1 + 1e-12]
    assert len(subset) >= 300
    violations = 0
    for name, traj, n0, series in subset:
        rep = verify_monotonicity(series, TOL_CHECKS)
        for check_name in (CHECK_Q_STRICT_DECREASE, CHECK_W_STRICT_INCREASE,
                           CHECK_RATIO_NONINCREASING):
            c = rep.check(check_name)
            if c.status != "pass":
                violations += 1
    ok = violations == 0
    report(3, "strict decay and |w|/|Q| decrease", ok,
           f"{violations} violations over {len(subset)} restricted trajectories")
    assert violations == 0


# ---------------------------------------------------------------------------
# 4. linear growth of |w|
# ---------------------------------------------------------------------------

def test_criterion_04_w_linear_bound(ensemble_b):
    worst = math.inf
    violations = 0
    for name, traj, n0, series in ensemble_b:
        rep = verify_growth(series, C0, TOL_CHECKS)
        c = rep.check(CHECK_W_LINEAR_GROWTH)
        worst = min(worst, c.margin)
        if c.status == "fail":
            violations += 1
    ok = violations == 0
    report(4, "|w_t| linear lower bound to T=100", ok,
           f"{violations} violations, worst margin {worst:.3e}")
    assert violations == 0


# ---------------------------------------------------------------------------
# 5. expansion factor bound and linear growth rate
# ---------------------------------------------------------------------------

def _lambda_samples(series, t_lo: float, interior: int = 8):
    ts, lams = [], []
    for t0, t1, z, w0 in zip(series.t0, series.t1, series.z, series.w0):
        tt = np.linspace(t0, t1, interior + 2)
        ws = w0[None, :] - (tt - t0)[:, None] * z[None, :]
        nn = np.sqrt(np.einsum("ij,ij->i", ws, ws) + float(z @ z))
        sel = tt >= t_lo
        ts.append(tt[sel])
        lams.append(nn[sel] / series.n0_norm)
    return np.concatenate(ts), np.concatenate(lams)


def test_criterion_05_lambda_growth(ensemble_b):
    violations = 0
    bad_slopes = 0
    horizons = 0
    for name, traj, n0, series in ensemble_b:
        rep = verify_growth(series, C0, TOL_CHECKS)
        c = rep.check(CHECK_LAMBDA_LINEAR_GROWTH)
        if c.status == "fail":
            violations += 1
        if traj.termination == TERMINATION_HORIZON:
            horizons += 1
            ts, lams = _lambda_samples(series, 1.0 / C0)
            slope = np.polyfit(ts, lams, 1)[0]
            if slope < C0:
                bad_slopes += 1
    ok = violations == 0 and bad_slopes == 0 and horizons >= 95
    report(5, "lambda_t >= 1 + c0 t and linear rate", ok,
           f"{violations} bound violations, {bad_slopes} slow slopes, "
           f"{horizons}/{len(ensemble_b)} reached T=100")
    assert violations == 0
    assert bad_slopes == 0
    assert horizons >= 95


# ---------------------------------------------------------------------------
# 6. exact segment identities
# ---------------------------------------------------------------------------

def test_criterion_06_segment_identities(ensemble_a):
    worst = 0.0
    for name, traj, n0, series in ensemble_a:
        for t0, t1, z, w0 in zip(series.t0, series.t1, series.z, series.w0):
            dt = t1 - t0
            n_a = Covector(z, w0)
            n_b = Covector(z, w0 - dt * z)
            qa, qb = lyapunov_Q(n_a), lyapunov_Q(n_b)
            z2 = float(z @ z)
            wa2, wb2 = float(n_a.w @ n_a.w), float(n_b.w @ n_b.w)
            scale_q = max(abs(qa), abs(qb), dt * z2, 1e-300)
            worst = max(worst, abs(qb - (qa - dt * z2)) / scale_q)
            scale_w = max(wa2, wb2, 1e-300)
            worst = max(worst, abs(wb2 - (wa2 - 2.0 * dt * qa + dt * dt * z2)) / scale_w)
    ok = worst < TOL_SEGMENT_IDENTITY
    report(6, "free-segment decay identities", ok, f"worst relative residual {worst:.3e}")
    assert worst < TOL_SEGMENT_IDENTITY


# ---------------------------------------------------------------------------
# 7. collision decrement identity
# ---------------------------------------------------------------------------

def test_criterion_07_collision_decrement(ensemble_a, domains):
    worst = 0.0
    n_events = 0
    for name, traj, n0, series in ensemble_a:
        for event, closed in zip(traj.events, series.q_drop):
            n_pre = series.covector_at(event.t, "pre")
            n_post = series.covector_at(event.t, "post")
            actual = lyapunov_Q(n_pre) - lyapunov_Q(n_post)
            scale = max(abs(actual), abs(closed),
                        np.linalg.norm(n_pre.z) * np.linalg.norm(n_pre.w), 1e-300)
            worst = max(worst, abs(actual - closed) / scale)
            n_events += 1

    # flat wall: the decrement vanishes identically
    wall = Domain(2, Box((1.0, 1.0)),
                  [Halfspace(np.array([0.0, 0.0]), np.array([0.0, 1.0]))])
    sq2 = math.sqrt(2.0)
    traj = flow(wall, PhasePoint(np.array([0.2, 0.5]), np.array([sq2 / 2, -sq2 / 2])), 0.9)
    u = np.array([sq2 / 2, sq2 / 2])
    t_ev = traj.events[0].t
    flat_drop = transport_covector(traj, Covector(0.4 * u, (-0.3 + 0.4 * t_ev) * u)).q_drop[0]

    # cylinder hit with w along the axis: the semi-definite kernel gives 0;
    # the start backs off the flight, so that w is exactly (0, 0, 1) at the hit
    cyl = domains["cylinder_3d"]
    traj = flow(cyl, PhasePoint(np.array([0.1, 0.5, 0.3]), np.array([1.0, 0.0, 0.0])), 0.3)
    z, w_axis = np.array([0.0, 0.7, 0.0]), np.array([0.0, 0.0, 1.0])
    t_ev = traj.events[0].t
    axis_drop = transport_covector(traj, Covector(z, w_axis + t_ev * z)).q_drop[0]

    ok = worst < TOL_Q_JUMP and flat_drop == 0.0 and axis_drop == 0.0
    report(7, "collision Q-decrement closed form", ok,
           f"worst relative mismatch {worst:.3e} over {n_events} events, "
           f"flat wall {flat_drop}, cylinder axis {axis_drop}")
    assert worst < TOL_Q_JUMP
    assert flat_drop == 0.0
    assert axis_drop == 0.0


# ---------------------------------------------------------------------------
# 8. tangent map against finite differences
# ---------------------------------------------------------------------------

def _fd_flow_derivative(domain, x0, dy, T, eps=FD_STEP):
    ends, counts = [], []
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


def test_criterion_08_tangent_map_finite_differences(domains):
    rng = np.random.default_rng(777)
    worst = 0.0
    per_domain = 25
    for name in ("sinai_2d", "cylinder_3d"):
        dom = domains[name]
        tested = 0
        while tested < per_domain:
            q = rng.uniform(0.0, 1.0, dom.d)
            if not dom.contains(q, slack=-1e-3):
                continue
            v = rng.standard_normal(dom.d)
            v /= np.linalg.norm(v)
            x0 = PhasePoint(q, v)
            traj = flow(dom, x0, 1.2)
            if (traj.termination != TERMINATION_HORIZON or traj.event_count != 1
                    or traj.min_cos_phi() < 0.2):
                continue
            config_ok = True
            for dy in transversal_basis(v):
                fd = _fd_flow_derivative(dom, x0, dy, 1.2)
                if fd is None:
                    config_ok = False
                    break
                an = transport_tangent(traj, dy).tangent_at(traj.t_end)
                err = math.hypot(float(np.linalg.norm(fd.dq - an.dq)),
                                 float(np.linalg.norm(fd.dv - an.dv)))
                worst = max(worst, err / max(1.0, an.norm()))
            if config_ok:
                tested += 1
    ok = worst < TOL_FD
    report(8, "collision tangent map vs central differences", ok,
           f"worst relative error {worst:.3e} over 50 configurations")
    assert worst < TOL_FD


# ---------------------------------------------------------------------------
# 9. fault injection is detected
# ---------------------------------------------------------------------------

def test_criterion_09_corrupt_curvature_detected(tmp_path, capsys):
    detected = 0
    for k in range(20):
        cfg = {
            "domain": {"kind": "sinai", "d": 2, "r": 0.25, "L": 1.0,
                       "centers": [[0.5, 0.5]]},
            "initial": {"sampler": {"count": 3, "seed": 9000 + k, "c0": 0.1}},
            "horizon": 10.0,
            "checks": ["monotonicity"],
        }
        path = tmp_path / f"corrupt_{k}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        if main(["verify", str(path), "--corrupt-curvature"]) == 1:
            detected += 1
    capsys.readouterr()  # swallow the per-run JSON reports
    ok = detected == 20
    report(9, "corrupted curvature detected", ok, f"{detected}/20 runs exited 1")
    assert detected == 20


# ---------------------------------------------------------------------------
# 10. reversibility
# ---------------------------------------------------------------------------

def test_criterion_10_reversibility():
    dom = build_sinai(2, 0.25, 1.0, [[0.5, 0.5]])
    worst = 0.0
    accepted = 0
    seed = 0
    while accepted < 100:
        seed += 1
        (x0, _), = sample_initial_conditions(dom, 1, 500 + seed)
        traj = flow(dom, x0, 5.0)
        if (traj.termination != TERMINATION_HORIZON or traj.event_count > 50
                or traj.min_cos_phi() < 0.1):
            continue
        back = flow(dom, PhasePoint(traj.end.q, -traj.end.v), 5.0)
        if back.termination != TERMINATION_HORIZON:
            continue
        err = math.hypot(float(np.linalg.norm(dom.min_image(back.end.q - x0.q))),
                         float(np.linalg.norm(back.end.v + x0.v)))
        worst = max(worst, err)
        accepted += 1
    ok = worst < TOL_REVERSIBILITY
    report(10, "forward-flip-forward reversibility", ok,
           f"worst return error {worst:.3e} over 100 trajectories")
    assert worst < TOL_REVERSIBILITY
