"""The group passes of ``billiards.transport`` against the per-event oracle.

``transport_covector``, ``transport_tangent`` and ``adjoint_residual`` move a
group of trajectories in lockstep, one array step per event index, through
one kernel with a leading row axis.  ``transport_oracle`` moves one
trajectory at a time, one event at a time, with its own copies of the 1-d
collision maps.  Every column and residual must agree byte for byte: for
groups with mixed event counts (one trajectory without events), flat walls
(``K = 0``), cylinders, hard balls and Sinai billiards up to d = 8, a group
of one, and the doubled curvature of the negative control.
"""

from __future__ import annotations

import numpy as np
import pytest

import transport_oracle as oracle
from billiards import (
    Box,
    Covector,
    Domain,
    Halfspace,
    PhasePoint,
    Sphere,
    TangentVector,
    adjoint_residual,
    build_sinai,
    flow,
    sample_covector_with_Q_bound,
    transport_covector,
    transport_tangent,
)
from billiards.transport import _complement_basis
from conftest import random_phase_point


@pytest.fixture(scope="module")
def closed_box():
    walls = [Halfspace(np.array(p), np.array(n)) for p, n in (
        ([0.0, 0.0], [1.0, 0.0]), ([1.0, 0.0], [-1.0, 0.0]),
        ([0.0, 0.0], [0.0, 1.0]), ([0.0, 1.0], [0.0, -1.0]))]
    return Domain(2, Box((1.0, 1.0)), [*walls, Sphere(np.array([0.5, 0.5]), 0.2)])


@pytest.fixture(scope="module")
def sinai8d():
    return build_sinai(8, 0.45, 1.0, [[0.5] * 8])


# family -> horizons of the group's trajectories; the first is so short that
# its trajectory has no event
HORIZONS = {"sinai2d": (1e-3, 2.0, 12.0, 6.0, 12.0), "sinai3d": (1e-3, 12.0, 4.0, 12.0),
            "sinai8d": (1e-3, 40.0, 40.0, 40.0), "cylinder3d": (1e-3, 12.0, 3.0, 12.0),
            "hardball32": (1e-3, 8.0, 2.0, 8.0), "closed_box": (1e-3, 3.0, 12.0, 12.0)}


def _group(dom, horizons, seed):
    rng = np.random.default_rng(seed)
    trajectories, n0 = [], []
    for T in horizons:
        x0 = random_phase_point(dom, rng)
        trajectories.append(flow(dom, x0, T))
        n0.append(sample_covector_with_Q_bound(x0.v, 0.1, rng))
    counts = [t.event_count for t in trajectories]
    assert counts[0] == 0 and max(counts) >= 1
    return trajectories, n0


def _basis_stack(v):
    basis = _complement_basis(v)
    zero = np.zeros_like(basis)
    return TangentVector(np.vstack([basis, zero]), np.vstack([zero, basis]))


def _same(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("family", list(HORIZONS))
def test_group_passes_match_per_event_oracle(family, request):
    dom = request.getfixturevalue(family)
    trajectories, n0 = _group(dom, HORIZONS[family], 503)
    if family != "sinai8d":
        assert len({t.event_count for t in trajectories}) >= 3
    if family == "closed_box":
        assert any(isinstance(dom.scatterers[e.scatterer_index], Halfspace)
                   for t in trajectories for e in t.events)
    for scale in (1.0, 2.0):
        # the series stay physical; the check pairs the covector moved with scale * K
        group = transport_covector(trajectories, n0, adjoint=scale)
        residuals = adjoint_residual(group)
        assert len(group) == len(residuals) == len(trajectories)
        for traj, n, series, residual in zip(trajectories, n0, group, residuals):
            slow = oracle.transport_covector(traj, n)
            checked = oracle.transport_covector(traj, n, curvature_scale=scale)
            assert series.trajectory is traj and series.n0 is n
            assert _same(series.z, [s.z for s in slow.segments])
            assert _same(series.w0, [s.w0 for s in slow.segments])
            assert _same(series.q_drop, [j.q_drop_closed_form for j in slow.jumps])
            assert _same(series.reprojection, [j.reprojection for j in slow.jumps])
            assert residual.hex() == oracle.adjoint_residual(checked).hex()

    for dy0 in ([_basis_stack(t.start.v) for t in trajectories],
                [TangentVector(_complement_basis(t.start.v)[0].copy(), np.zeros(dom.d))
                 for t in trajectories]):
        tangents = transport_tangent(trajectories, dy0)
        for traj, dy, tan in zip(trajectories, dy0, tangents):
            slow = oracle.transport_tangent(traj, dy)
            assert _same(tan.dq0, [s.dq0 for s in slow.segments])
            assert _same(tan.dv, [s.dv for s in slow.segments])


def test_group_of_one_matches_its_row_in_a_group(sinai2d, hardball32):
    for dom in (sinai2d, hardball32):
        trajectories, n0 = _group(dom, HORIZONS["sinai2d"], 509)
        group = transport_covector(trajectories, n0)
        residuals = adjoint_residual(group)
        dy0 = [_basis_stack(t.start.v) for t in trajectories]
        tangents = transport_tangent(trajectories, dy0)
        for j, traj in enumerate(trajectories):
            alone = transport_covector(traj, n0[j])
            for name in ("z", "w0", "q_drop", "reprojection", "t0", "t1"):
                assert _same(getattr(alone, name), getattr(group[j], name))
            assert adjoint_residual(alone).hex() == residuals[j].hex()
            tan = transport_tangent(traj, dy0[j])
            assert _same(tan.dq0, tangents[j].dq0) and _same(tan.dv, tangents[j].dv)


def test_empty_groups():
    assert transport_covector([], []) == []
    assert transport_tangent([], []) == []
    assert adjoint_residual([]) == []


def test_group_needs_one_start_per_trajectory(sinai2d):
    trajectories, n0 = _group(sinai2d, (1e-3, 2.0), 521)
    with pytest.raises(ValueError, match="starts"):
        transport_covector(trajectories, n0[:1])


def test_group_start_checks_raise_as_the_first_failing_trajectory_alone(sinai2d):
    trajectories, n0 = _group(sinai2d, (1e-3, 2.0, 4.0, 3.0), 523)
    v = trajectories[2].start.v
    e = np.array([-v[1], v[0]])
    skew = Covector(e + 0.25 * v, e)                   # not orthogonal to v
    zero = Covector(np.zeros(2), np.zeros(2))
    skew_tangent = TangentVector(e + 1e-3 * v, np.zeros(2))

    def message(fn, *args):
        with pytest.raises(ValueError) as info:
            fn(*args)
        return str(info.value)

    alone = message(transport_covector, trajectories[2], skew)
    assert "orthogonal" in alone
    assert message(transport_covector, trajectories, [n0[0], n0[1], skew, zero]) == alone
    zero_alone = message(transport_covector, trajectories[1], zero)
    assert zero_alone == "covector must be nonzero"
    assert message(transport_covector, trajectories, [n0[0], zero, skew, n0[3]]) == zero_alone
    dy = [TangentVector(np.zeros(2), np.zeros(2))] * 4
    dy[2] = skew_tangent
    assert message(transport_tangent, trajectories, dy) == \
        message(transport_tangent, trajectories[2], skew_tangent)


def test_group_must_share_one_domain(sinai2d, closed_box):
    x = PhasePoint(np.array([0.1, 0.1]), np.array([1.0, 0.0]))
    trajectories = [flow(sinai2d, x, 1.0), flow(closed_box, x, 1.0)]
    n = Covector(np.array([0.0, 1.0]), np.array([0.0, 0.5]))
    with pytest.raises(ValueError, match="one domain"):
        transport_covector(trajectories, [n, n])
