"""Column series and the array adjoint check against the object-per-segment
oracles in ``transport_oracle``, bit for bit."""

from __future__ import annotations

import numpy as np
import pytest

import transport_oracle as oracle
from billiards import (
    TangentVector,
    adjoint_residual,
    build_hardball_gas,
    flow,
    sample_covector_with_Q_bound,
    transport_covector,
    transport_tangent,
)
from billiards.transport import _complement_basis
from conftest import random_phase_point


def _hex(values) -> list[str]:
    # float.hex tells -0.0 from 0.0
    return [float(x).hex() for x in np.ravel(np.asarray(values, dtype=float))]


@pytest.fixture(scope="module")
def hardball62():
    return build_hardball_gas(6, 2, 0.1, 1.0)


def _basis_stack(v):
    basis = _complement_basis(v)
    zero = np.zeros_like(basis)
    return TangentVector(np.vstack([basis, zero]), np.vstack([zero, basis]))


@pytest.mark.parametrize("family", ["sinai2d", "sinai3d", "cylinder3d", "hardball32",
                                    "hardball62"])
def test_columns_match_object_oracle(family, request):
    dom = request.getfixturevalue(family)
    rng = np.random.default_rng(401)
    horizon = 6.0 if family == "hardball62" else 12.0
    for _ in range(3):
        x0 = random_phase_point(dom, rng)
        n0 = sample_covector_with_Q_bound(x0.v, 0.1, rng)
        traj = flow(dom, x0, horizon)
        assert traj.event_count >= 1
        times = [0.0, *(ev.t for ev in traj.events), traj.t_end]
        slow = oracle.transport_covector(traj, n0)
        for scale in (None, 1.0, 2.0):
            # the series stay physical; the check pairs the covector moved with scale * K
            series = transport_covector(traj, n0, adjoint=scale)
            assert series.segments == traj.segments
            assert _hex(series.t0) == _hex([s.t0 for s in slow.segments])
            assert _hex(series.t1) == _hex([s.t1 for s in slow.segments])
            assert _hex(series.z) == _hex([s.z for s in slow.segments])
            assert _hex(series.w0) == _hex([s.w0 for s in slow.segments])
            assert _hex(series.q_drop) == _hex([j.q_drop_closed_form for j in slow.jumps])
            assert _hex(series.reprojection) == _hex([j.reprojection for j in slow.jumps])
            for t in times:
                for side in ("pre", "post"):
                    a, b = series.covector_at(t, side), slow.covector_at(t, side)
                    assert _hex(a.z) == _hex(b.z) and _hex(a.w) == _hex(b.w)
            # the jump records of the oracle are the two sides of each event
            for jump in slow.jumps:
                for side, n in (("pre", jump.n_pre), ("post", jump.n_post)):
                    a = series.covector_at(jump.t, side)
                    assert _hex(a.z) == _hex(n.z) and _hex(a.w) == _hex(n.w)
            checked = oracle.transport_covector(traj, n0, curvature_scale=scale or 1.0)
            assert adjoint_residual(series).hex() == oracle.adjoint_residual(checked).hex()

        dy0 = _basis_stack(traj.start.v)
        tan = transport_tangent(traj, dy0)
        slow_tan = oracle.transport_tangent(traj, dy0)
        assert tan.dq0.shape == (len(traj.segments), *dy0.dq.shape)
        assert _hex(tan.dq0) == _hex([s.dq0 for s in slow_tan.segments])
        assert _hex(tan.dv) == _hex([s.dv for s in slow_tan.segments])
        for t in times:
            for side in ("pre", "post"):
                a, b = tan.tangent_at(t, side), slow_tan.tangent_at(t, side)
                assert _hex(a.dq) == _hex(b.dq) and _hex(a.dv) == _hex(b.dv)


def test_series_columns_are_read_only(sinai2d):
    rng = np.random.default_rng(409)
    x0 = random_phase_point(sinai2d, rng)
    traj = flow(sinai2d, x0, 6.0)
    assert traj.event_count >= 1
    series = transport_covector(traj, sample_covector_with_Q_bound(x0.v, 0.1, rng))
    tan = transport_tangent(traj, _basis_stack(x0.v))
    columns = [series.t0, series.t1, series.z, series.w0, series.q_drop,
               series.reprojection, tan.t0, tan.t1, tan.dq0, tan.dv]
    for column in columns:
        with pytest.raises(ValueError):
            column[0] = 0.0
    # queries hand out copies the caller may change
    n = series.covector_at(0.0)
    n.z[0] = n.w[0] = 7.0
    dy = tan.tangent_at(0.0)
    dy.dq[0] = dy.dv[0] = 7.0
    assert series.z[0, 0] != 7.0 and series.w0[0, 0] != 7.0
    assert tan.dq0[0, 0, 0] != 7.0 and tan.dv[0, 0, 0] != 7.0
