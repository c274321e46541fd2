from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from billiards import (
    Box,
    Cylinder,
    Domain,
    DomainConstructionError,
    GrazingSingularityError,
    Halfspace,
    Sphere,
    Torus,
    build_hardball_gas,
    build_sinai,
    curvature_at,
    geometry,
    hardball_pairs,
    reduce_pair_to_sinai,
    reflect,
)
from billiards.catalog import CATALOG
from billiards.config import domain_from_spec
from geometry_oracle import (
    BoundaryMismatchError,
    contains as oracle_contains,
    normal_at,
    project_to_boundary,
    signed_distance,
    tangent_projection,
    transverse_projection,
)

SQ2 = math.sqrt(2.0)


def unit_vectors(d: int):
    return st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d).map(np.array).filter(
        lambda v: np.linalg.norm(v) > 1e-3).map(lambda v: v / np.linalg.norm(v))


def vectors(d: int):
    return st.lists(st.floats(-5.0, 5.0), min_size=d, max_size=d).map(np.array)


# ---------------------------------------------------------------------------
# normals
# ---------------------------------------------------------------------------

def test_sphere_normal_is_radial(sinai2d):
    nu = normal_at(sinai2d, 0, np.array([0.75, 0.5]))
    np.testing.assert_allclose(nu, [1.0, 0.0], atol=1e-12)


def test_halfspace_normal_is_constant():
    dom = Domain(2, Box((1.0, 1.0)),
                 [Halfspace(np.array([0.0, 0.0]), np.array([0.0, 1.0]))])
    nu = normal_at(dom, 0, np.array([0.3, 0.0]))
    np.testing.assert_allclose(nu, [0.0, 1.0], atol=0)


def test_cylinder_normal_is_transverse_radial(cylinder3d):
    nu = normal_at(cylinder3d, 0, np.array([0.7, 0.5, 0.9]))
    np.testing.assert_allclose(nu, [1.0, 0.0, 0.0], atol=1e-12)


def test_normal_off_boundary_rejected(sinai2d):
    with pytest.raises(BoundaryMismatchError):
        normal_at(sinai2d, 0, np.array([0.9, 0.5]))


def test_normal_unit_norm_random_boundary_points(sinai2d, cylinder3d):
    rng = np.random.default_rng(3)
    for dom in (sinai2d, cylinder3d):
        ref = np.full(dom.d, 0.5)
        for _ in range(50):
            q = project_to_boundary(dom, 0, ref + 0.3 * rng.standard_normal(dom.d))
            nu = normal_at(dom, 0, q)
            assert abs(np.linalg.norm(nu) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def test_sphere_curvature_is_inverse_radius_projector(sinai2d):
    K = curvature_at(sinai2d, 0, normal_at(sinai2d, 0, np.array([0.75, 0.5])))
    np.testing.assert_allclose(K, [[0.0, 0.0], [0.0, 4.0]], atol=1e-12)


def test_halfspace_curvature_is_zero():
    dom = Domain(2, Box((1.0, 1.0)),
                 [Halfspace(np.array([0.0, 0.0]), np.array([0.0, 1.0]))])
    K = curvature_at(dom, 0, normal_at(dom, 0, np.array([0.4, 0.0])))
    assert np.all(K == 0.0)


def test_cylinder_curvature_eigenvalues(cylinder3d):
    K = curvature_at(cylinder3d, 0, normal_at(cylinder3d, 0, np.array([0.7, 0.5, 0.3])))
    eig = np.sort(np.linalg.eigvalsh(K))
    np.testing.assert_allclose(eig, [0.0, 0.0, 5.0], atol=1e-12)


def test_curvature_symmetric_psd_annihilates_normal(sinai3d, cylinder3d, hardball32):
    rng = np.random.default_rng(11)
    for dom in (sinai3d, cylinder3d, hardball32):
        for idx in range(len(dom.scatterers)):
            q = project_to_boundary(dom, idx, rng.uniform(0, 1, dom.d))
            nu = normal_at(dom, idx, q)
            K = curvature_at(dom, idx, nu)
            assert np.allclose(K, K.T, atol=1e-12)
            assert np.min(np.linalg.eigvalsh(K)) >= -1e-12
            assert np.linalg.norm(K @ nu) < 1e-12


@pytest.mark.parametrize("domain_name,index", [
    ("sinai2d", 0), ("sinai3d", 0), ("cylinder3d", 0), ("hardball32", 1),
])
def test_curvature_matches_normal_variation(domain_name, index, request):
    # oracle: nu(q + dq) - nu(q) - K dq is second order in |dq|; halving the
    # step must shrink the squared residual by about 16
    dom = request.getfixturevalue(domain_name)
    rng = np.random.default_rng(17)
    q = project_to_boundary(dom, index, rng.uniform(0.2, 0.8, dom.d))
    nu = normal_at(dom, index, q)
    K = curvature_at(dom, index, nu)
    tang = rng.standard_normal(dom.d)
    tang -= (tang @ nu) * nu
    tang /= np.linalg.norm(tang)

    def residual(h: float) -> float:
        q2 = project_to_boundary(dom, index, q + h * tang)
        dq = dom.min_image(q2 - q)
        return float(np.linalg.norm(normal_at(dom, index, q2) - nu - K @ dq))

    r1, r2 = residual(1e-3), residual(5e-4)
    assert r1 < 1e-4                      # second order: about h^2 / (2 r^2)
    ratio = (r1 / r2) ** 2
    assert 10.0 < ratio < 22.0


# ---------------------------------------------------------------------------
# reflection and projections
# ---------------------------------------------------------------------------

def test_reflect_operator_examples():
    nu = np.array([1.0, 0.0])
    np.testing.assert_allclose(reflect(np.array([1.0, 0.0]), nu), [-1.0, 0.0], atol=0)
    np.testing.assert_allclose(reflect(np.array([0.0, 1.0]), nu), [0.0, 1.0], atol=0)
    np.testing.assert_allclose(reflect(np.array([3.0, 4.0]), nu), [-3.0, 4.0], atol=0)
    # a stack of rows reflects row by row
    np.testing.assert_allclose(reflect(np.array([[1.0, 0.0], [3.0, 4.0]]), nu),
                               [[-1.0, 0.0], [-3.0, 4.0]], atol=0)


@settings(max_examples=200, deadline=None)
@given(nu=unit_vectors(3), x=vectors(3))
def test_reflect_operator_involution_isometry(nu, x):
    rx = reflect(x, nu)
    np.testing.assert_allclose(reflect(rx, nu), x, atol=1e-12 * (1 + np.linalg.norm(x)))
    assert abs(np.linalg.norm(rx) - np.linalg.norm(x)) < 1e-12 * (1 + np.linalg.norm(x))
    np.testing.assert_allclose(reflect(nu, nu), -nu, atol=1e-12)


def test_tangent_projection_head_on_identity():
    V = tangent_projection(np.array([0.0, -1.0]), np.array([0.0, 1.0]))
    np.testing.assert_allclose(V @ [1.0, 0.0], [1.0, 0.0], atol=0)


def test_tangent_projection_oblique_value():
    v = np.array([-SQ2 / 2, -SQ2 / 2])
    nu = np.array([0.0, 1.0])
    x = np.array([SQ2 / 2, -SQ2 / 2])
    assert abs(x @ v) < 1e-15
    out = tangent_projection(v, nu) @ x
    np.testing.assert_allclose(out, [SQ2, 0.0], atol=1e-14)
    assert abs(out @ nu) < 1e-14


def test_transverse_projection_oblique_value():
    v = np.array([-SQ2 / 2, -SQ2 / 2])
    nu = np.array([0.0, 1.0])
    y = np.array([1.0, 0.0])
    out = transverse_projection(v, nu) @ y
    np.testing.assert_allclose(out, [1.0, -1.0], atol=1e-14)
    assert abs(out @ v) < 1e-14
    # adjoint pairing against the tangent projection
    x = np.array([SQ2 / 2, -SQ2 / 2])
    lhs = (tangent_projection(v, nu) @ x) @ y
    rhs = x @ out
    assert abs(lhs - rhs) < 1e-14


def test_projection_fixes_already_projected():
    v = np.array([0.0, -1.0, 0.0])
    nu = np.array([0.0, 1.0, 0.0])
    x = np.array([0.3, 0.0, -0.7])        # already tangent
    np.testing.assert_allclose(tangent_projection(v, nu) @ x, x, atol=0)
    y = np.array([1.0, 0.0, 2.0])          # already orthogonal to v
    np.testing.assert_allclose(transverse_projection(v, nu) @ y, y, atol=0)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_projections_adjoint_and_ranges(data):
    rng_seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(rng_seed)
    d = data.draw(st.sampled_from([2, 3, 4]))
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    nu = rng.standard_normal(d)
    nu /= np.linalg.norm(nu)
    if abs(v @ nu) < 0.05:
        return
    x = rng.standard_normal(d)
    x -= (x @ v) * v                       # x in v-perp
    y = rng.standard_normal(d)
    y -= (y @ nu) * nu                     # y tangent to the boundary
    V = tangent_projection(v, nu)
    Vs = transverse_projection(v, nu)
    sx, sy = np.linalg.norm(x), np.linalg.norm(y)
    assert abs((V @ x) @ nu) < 1e-10 * max(sx, 1.0)
    assert abs((Vs @ y) @ v) < 1e-10 * max(sy, 1.0)
    assert abs((V @ x) @ y - x @ (Vs @ y)) < 1e-10 * max(sx * sy, 1.0)


def test_projection_grazing_rejected():
    with pytest.raises(GrazingSingularityError):
        tangent_projection(np.array([1.0, 0.0]), np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def test_build_sinai_valid():
    dom = build_sinai(2, 0.25, 1.0, [[0.5, 0.5]])
    assert dom.d == 2 and len(dom.scatterers) == 1
    dom3 = build_sinai(3, 0.3, 1.0, [[0.5, 0.5, 0.5]])
    assert dom3.d == 3


def test_cylinder_image_offsets_must_match_dimension():
    # (3, 2) offsets in d = 3 used to build a domain whose first flow failed
    # in numpy's broadcasting
    cyl = Cylinder(np.array([0.5, 0.5, 0.0]), np.array([[0.0, 0.0, 1.0]]), 0.2,
                   image_deltas=np.zeros((3, 2)))
    with pytest.raises(DomainConstructionError, match="image offsets"):
        Domain(3, Torus(1.0), [cyl])


def test_ball_pair_must_fit_the_cylinder():
    # a declared pair is checked against the axes and the axis point, and
    # only a torus measures ball pairs
    cyl = geometry._hardball_cylinder(3, 2, 0, 2, 0.1, 1.0)
    assert cyl.pair == (0, 2)
    for pair in [(0, 1), (1, 2), (0, 0), (0, 3), (2, -1), (0.0, 2.0), (0, 1, 2)]:
        with pytest.raises(DomainConstructionError, match="pair"):
            Cylinder(cyl.axis_point, cyl.axis_directions, cyl.radius, pair=pair)
    with pytest.raises(DomainConstructionError, match="pair"):
        Cylinder(np.array([0.0, 0.0, 0.0, 0.0, 0.1, 0.0]), cyl.axis_directions, cyl.radius,
                 pair=(0, 2))
    # a shift along the axes keeps the contact set
    Cylinder(np.array([0.0, 0.0, 0.1, 0.0, 0.0, 0.0]), cyl.axis_directions, cyl.radius,
             pair=(0, 2))
    with pytest.raises(DomainConstructionError, match="pair"):    # balls of dimension 2 in d = 3
        Cylinder(np.zeros(3), np.array([[0.0, 0.0, 1.0]]), 0.2, pair=(0, 1))
    assert Cylinder(cyl.axis_point, cyl.axis_directions, cyl.radius, pair=(2, 0)).pair == (2, 0)
    with pytest.raises(DomainConstructionError, match="torus"):
        Domain(6, Box((1.0,) * 6), [cyl])
    plain = Cylinder(cyl.axis_point, cyl.axis_directions, cyl.radius)
    Domain(6, Box((1.0,) * 6), [plain])


def test_build_sinai_wraparound_rejected():
    with pytest.raises(DomainConstructionError):
        build_sinai(2, 0.6, 1.0, [[0.5, 0.5]])


def test_build_sinai_overlap_rejected():
    with pytest.raises(DomainConstructionError):
        build_sinai(2, 0.25, 1.0, [[0.3, 0.5], [0.7, 0.5]])


def test_hardball_layout():
    dom = build_hardball_gas(2, 2, 0.1, 1.0)
    assert dom.d == 4 and len(dom.scatterers) == 1
    cyl = dom.scatterers[0]
    assert cyl.axis_directions.shape == (2, 4)
    dom3 = build_hardball_gas(3, 2, 0.1, 1.0)
    assert dom3.d == 6 and len(dom3.scatterers) == 3
    assert hardball_pairs(3) == [(0, 1), (0, 2), (1, 2)]


def test_hardball_contact_at_pair_distance():
    # the solid part is exactly {dist(q_i, q_j) <= 2r}
    dom = build_hardball_gas(2, 2, 0.1, 1.0)
    touching = np.array([0.3, 0.5, 0.5, 0.5])       # pair distance exactly 0.2
    assert abs(signed_distance(dom, 0, touching)) < 1e-12
    apart = np.array([0.3, 0.5, 0.55, 0.5])
    assert signed_distance(dom, 0, apart) > 0.0
    overlapping = np.array([0.3, 0.5, 0.45, 0.5])
    assert signed_distance(dom, 0, overlapping) < 0.0


def test_hardball_pair_distance_uses_torus_metric():
    dom = build_hardball_gas(2, 2, 0.1, 1.0)
    # balls at x = 0.05 and 0.95 are 0.1 apart through the seam: inside the solid
    through_seam = np.array([0.05, 0.5, 0.95, 0.5])
    assert signed_distance(dom, 0, through_seam) < 0.0


def test_hardball_preconditions():
    with pytest.raises(DomainConstructionError):
        build_hardball_gas(2, 2, 0.3, 1.0)
    with pytest.raises(DomainConstructionError):
        build_hardball_gas(1, 2, 0.1, 1.0)


def test_reduce_pair_to_sinai():
    dom = reduce_pair_to_sinai(2, 0.1, 1.0)
    assert dom.d == 2
    assert isinstance(dom.scatterers[0], Sphere)
    assert dom.scatterers[0].radius == pytest.approx(0.2)
    dom3 = reduce_pair_to_sinai(3, 0.1, 1.0)
    assert dom3.d == 3
    with pytest.raises(DomainConstructionError):
        reduce_pair_to_sinai(2, 0.3, 1.0)


def test_halfspace_on_torus_rejected():
    with pytest.raises(DomainConstructionError):
        Domain(2, Torus(1.0), [Halfspace(np.zeros(2), np.array([0.0, 1.0]))])


def test_cylinder_axis_count_bounds():
    with pytest.raises(DomainConstructionError):
        Cylinder(np.zeros(2), np.array([[1.0, 0.0]]), 0.1)  # d=2 has no room
    with pytest.raises(DomainConstructionError):
        Cylinder(np.zeros(3), np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), 0.1)


def test_parallel_cylinder_overlap_rejected():
    a = Cylinder(np.array([0.25, 0.5, 0.0]), np.array([[0.0, 0.0, 1.0]]), 0.2)
    b = Cylinder(np.array([0.45, 0.5, 0.0]), np.array([[0.0, 0.0, 1.0]]), 0.2)
    with pytest.raises(DomainConstructionError):
        Domain(3, Torus(1.0), [a, b])


# ---------------------------------------------------------------------------
# construction rules: which solid parts may meet
# ---------------------------------------------------------------------------

Z_AXIS = np.array([[0.0, 0.0, 1.0]])
X_AXIS = np.array([[1.0, 0.0, 0.0]])
BOX2, BOX3 = Box((1.0, 1.0)), Box((1.0, 1.0, 1.0))


def _wall(point, normal) -> Halfspace:
    return Halfspace(np.array(point, dtype=float), np.array(normal, dtype=float))


# name -> (d, ambient, the two scatterers, whether the domain builds)
PAIR_CASES = {
    "sphere_cylinder_overlapping": (3, Torus(1.0), [
        Sphere(np.array([0.35, 0.5, 0.5]), 0.1),
        Cylinder(np.array([0.25, 0.5, 0.0]), Z_AXIS, 0.1)], False),
    "sphere_cylinder_apart": (3, Torus(1.0), [
        Sphere(np.array([0.6, 0.5, 0.5]), 0.1),
        Cylinder(np.array([0.05, 0.5, 0.0]), Z_AXIS, 0.1)], True),
    # 0.85 apart in the fundamental domain, 0.15 through the seam
    "sphere_cylinder_overlapping_through_an_image": (3, Torus(1.0), [
        Sphere(np.array([0.9, 0.5, 0.5]), 0.1),
        Cylinder(np.array([0.05, 0.5, 0.0]), Z_AXIS, 0.1)], False),
    "sphere_wall_overlapping": (2, BOX2, [
        Sphere(np.array([0.5, 0.05]), 0.1), _wall([0.0, 0.0], [0.0, 1.0])], False),
    "sphere_wall_apart": (2, BOX2, [
        Sphere(np.array([0.5, 0.5]), 0.1), _wall([0.0, 0.0], [0.0, 1.0])], True),
    "cylinder_axis_into_wall": (3, BOX3, [
        Cylinder(np.array([0.5, 0.5, 0.5]), Z_AXIS, 0.1),
        _wall([0.0, 0.0, 0.0], [0.0, 0.0, 1.0])], False),
    "cylinder_parallel_to_wall_with_gap": (3, BOX3, [
        Cylinder(np.array([0.0, 0.5, 0.5]), X_AXIS, 0.1),
        _wall([0.0, 0.0, 0.0], [0.0, 0.0, 1.0])], True),
    "cylinder_parallel_to_wall_within_radius": (3, BOX3, [
        Cylinder(np.array([0.0, 0.5, 0.05]), X_AXIS, 0.1),
        _wall([0.0, 0.0, 0.0], [0.0, 0.0, 1.0])], False),
    "walls_of_a_slab": (2, BOX2, [
        _wall([0.0, 0.0], [1.0, 0.0]), _wall([1.0, 0.0], [-1.0, 0.0])], True),
    "nested_walls": (2, BOX2, [
        _wall([0.0, 0.0], [1.0, 0.0]), _wall([0.5, 0.0], [1.0, 0.0])], False),
    "antiparallel_walls_overlapping": (2, BOX2, [
        _wall([0.6, 0.0], [1.0, 0.0]), _wall([0.4, 0.0], [-1.0, 0.0])], False),
    # transversal cylinders meet only in a corner set
    "crossed_cylinders": (3, Torus(1.0), [
        Cylinder(np.array([0.5, 0.5, 0.0]), Z_AXIS, 0.2),
        Cylinder(np.array([0.0, 0.5, 0.5]), X_AXIS, 0.2)], True),
    "parallel_cylinders_apart": (3, Torus(1.0), [
        Cylinder(np.array([0.25, 0.5, 0.0]), Z_AXIS, 0.1),
        Cylinder(np.array([0.75, 0.5, 0.0]), Z_AXIS, 0.1)], True),
}


@pytest.mark.parametrize("order", ["given", "reversed"])
@pytest.mark.parametrize("name", sorted(PAIR_CASES))
def test_pair_construction_rule(name, order):
    d, ambient, scatterers, builds = PAIR_CASES[name]
    if order == "reversed":
        scatterers = scatterers[::-1]
    if builds:
        assert len(Domain(d, ambient, scatterers).scatterers) == 2
    else:
        with pytest.raises(DomainConstructionError, match="intersecting solid parts"):
            Domain(d, ambient, scatterers)


def _parallel_cylinders() -> Domain:
    # two parallel z cylinders, one tilted by 1e-12 (allclose calls its
    # projector equal) and one crossing x cylinder
    tilted = np.array([[1e-12, 0.0, 1.0]]) / math.hypot(1e-12, 1.0)
    return Domain(3, Torus(1.0), [
        Cylinder(np.array([0.25, 0.25, 0.0]), Z_AXIS, 0.1),
        Cylinder(np.array([0.0, 0.5, 0.5]), X_AXIS, 0.1),
        Cylinder(np.array([0.75, 0.75, 0.0]), Z_AXIS, 0.1),
        Cylinder(np.array([0.25, 0.75, 0.0]), tilted, 0.1)])


def _verdict_domains() -> dict[str, Domain]:
    domains = {e["name"]: domain_from_spec(e["domain"]) for e in CATALOG}
    for name, (d, ambient, scatterers, builds) in PAIR_CASES.items():
        if builds:
            domains[name] = Domain(d, ambient, scatterers)
            domains[f"{name}_reversed"] = Domain(d, ambient, scatterers[::-1])
    domains.update({f"hardball{N}_{d}d": build_hardball_gas(N, d, 0.1, 1.0)
                    for d, top in ((2, 9), (3, 5)) for N in range(2, top)})
    domains["parallel_cylinders"] = _parallel_cylinders()
    return domains


VERDICT_DOMAINS = _verdict_domains()


@pytest.mark.parametrize("name", sorted(VERDICT_DOMAINS))
def test_prefiltered_pair_verdicts_equal_the_full_rule(name):
    # the construction check skips only cylinder pairs that cannot be
    # parallel and books them as transversal: every pair's verdict is the
    # one the full rule gives
    domain = VERDICT_DOMAINS[name]
    checked = set(domain._checked_pairs())
    n = len(domain.scatterers)
    for i in range(n):
        for j in range(i + 1, n):
            verdict = domain._pair_disjoint(i, j) if (i, j) in checked else True
            assert verdict == domain._pair_disjoint(i, j)
    if name == "parallel_cylinders":
        assert checked == {(0, 2), (0, 3), (2, 3)}


def test_parallel_prefilter_keeps_every_pair_allclose_keeps():
    # random projectors, exact copies and copies perturbed near allclose's
    # bound (atol 1e-10 plus rtol 1e-5 of each entry): every pair that
    # allclose calls equal, in either order, is kept
    rng = np.random.default_rng(7)
    projectors = []
    for n, k in ((4, 1), (4, 2), (6, 3)):
        for _ in range(6):
            a = np.linalg.qr(rng.normal(size=(n, k)))[0].T
            p = np.eye(n) - a.T @ a
            projectors += [p, p.copy(), p + 1e-11, p * (1.0 + 0.9e-5), p + 3e-6, p + 1e-3]
    keep = set()
    for group in {p.shape[0] for p in projectors}:
        idx = [i for i, p in enumerate(projectors) if p.shape[0] == group]
        a, b = geometry._maybe_parallel([projectors[i] for i in idx])
        keep |= {(idx[x], idx[y]) for x, y in zip(a.tolist(), b.tolist())}
    equal = {(i, j) for i in range(len(projectors)) for j in range(i + 1, len(projectors))
             if projectors[i].shape == projectors[j].shape
             and (np.allclose(projectors[i], projectors[j], atol=1e-10)
                  or np.allclose(projectors[j], projectors[i], atol=1e-10))}
    assert equal and equal <= keep
    assert len(keep) < len(projectors) ** 2 // 8


@pytest.mark.parametrize("scatterer", [
    Sphere(np.array([0.5, 0.5, 0.5]), 0.55),
    Cylinder(np.array([0.5, 0.5, 0.0]), Z_AXIS, 0.55),
], ids=["sphere", "cylinder"])
def test_self_wrap_on_a_torus_rejected(scatterer):
    with pytest.raises(DomainConstructionError, match="scatterer 1: .*wraps"):
        Domain(3, Torus(1.0), [Sphere(np.array([0.1, 0.1, 0.1]), 0.05), scatterer])


def _box_walls(d: int) -> list[Halfspace]:
    """The 2d walls that close ``Box((1.0,) * d)``."""
    eye = np.eye(d)
    return [_wall(np.zeros(d), e) for e in eye] + [_wall(e, -e) for e in eye]


@pytest.mark.parametrize("d", [2, 3])
def test_walls_close_a_box(d):
    # crossing walls meet only in the box's edges and corners
    dom = Domain(d, Box((1.0,) * d), _box_walls(d))
    assert len(dom.scatterers) == 2 * d
    assert dom.contains(np.full(d, 0.5))
    assert not dom.contains(np.full(d, 1.5))


# ---------------------------------------------------------------------------
# Cylinder distances in transverse coordinates
# ---------------------------------------------------------------------------

TRANSVERSE_DOMAINS = {
    **{f"hardball{N}_2d": build_hardball_gas(N, 2, 0.1, 1.0) for N in range(2, 7)},
    **{f"hardball{N}_3d": build_hardball_gas(N, 3, 0.1, 1.0) for N in (2, 3)},
    "cylinder_3d": Domain(3, Torus(1.0), [
        Cylinder(np.array([0.5, 0.5, 0.0]), np.array([[0.0, 0.0, 1.0]]), 0.2)]),
    "crossed_cylinders": Domain(3, Torus(1.0), [
        Cylinder(np.array([0.5, 0.5, 0.0]), np.array([[0.0, 0.0, 1.0]]), 0.2),
        Cylinder(np.array([0.0, 0.0, 0.5]), np.array([[1.0, 0.0, 0.0]]), 0.15)]),
}


@pytest.mark.parametrize("name", sorted(TRANSVERSE_DOMAINS))
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["uniform", "radius", "slack"]),
       sign=st.sampled_from([-1.0, 1.0]))
def test_contains_in_transverse_coordinates_matches_full_reduction(name, seed, kind, sign):
    # Domain.contains measures a hard-ball pair cylinder by the minimal
    # image of its ball displacement, and any other cylinder in its
    # transverse basis; the oracle reduces the full-coordinate offset over
    # every declared image.  Their decisions agree on uniform points and on
    # points at distance r (1 +- 1e-12) from an axis, or at the slack
    # +- 1e-12
    domain = TRANSVERSE_DOMAINS[name]
    rng = np.random.default_rng(seed)
    L, eps = domain.length_scale, domain.eps_surface
    q = rng.uniform(0.0, L, domain.d)
    if kind == "uniform":
        for slack in (None, 0.0, 1e-9, -10.0 * eps):
            assert domain.contains(q, slack) == oracle_contains(domain, q, slack)
        return
    i = int(rng.integers(len(domain.scatterers)))
    try:
        p = project_to_boundary(domain, i, q)
    except BoundaryMismatchError:     # the axis has no projection
        return
    nu = normal_at(domain, i, p)
    if kind == "radius":
        slack, x = 0.0, p + sign * 1e-12 * domain.scatterers[i].radius * nu
    else:
        slack = eps
        x = p + (sign * 1e-12 * L - slack) * nu
    got = domain.contains(x, slack)
    assert got == oracle_contains(domain, x, slack)
    assert domain.contains(x[None], slack).tolist() == [got]


@pytest.mark.parametrize("name", sorted(TRANSVERSE_DOMAINS))
def test_transverse_basis_is_orthonormal_and_orthogonal_to_axes(name):
    # hard-ball pair stacks carry their balls instead of a basis
    domain = TRANSVERSE_DOMAINS[name]
    for st_ in domain.stacks:
        if name.startswith("hardball"):
            assert st_.pairs.tolist() == [list(domain.scatterers[i].pair) for i in st_.indices]
            assert st_.basis is None and st_.basis_deltas is None
            continue
        assert st_.pairs is None
        k = st_.axes.shape[1]
        assert st_.basis.shape == (st_.indices.size, domain.d - k, domain.d)
        eye = np.eye(domain.d - k)
        for B, A, deltas, coords in zip(st_.basis, st_.axes, st_.deltas, st_.basis_deltas):
            assert np.abs(B @ B.T - eye).max() < 1e-14
            assert np.abs(B @ A.T).max() < 1e-14
            # the image offsets are transverse: their coordinates keep their length
            assert np.allclose(np.linalg.norm(coords, axis=0), np.linalg.norm(deltas, axis=1),
                               rtol=0.0, atol=1e-14)


def _unique_offsets(ambient, s):
    # geometry._image_offsets with the np.unique dedup it had, as its oracle
    if isinstance(s, Halfspace):
        return None
    if not ambient.periodic:
        return np.zeros((1, s.dim))
    L = ambient.side
    if not isinstance(s, Cylinder):
        return geometry._lattice_steps(s.dim) * L
    deltas = (np.asarray(s.image_deltas, dtype=float) if s.image_deltas is not None
              else geometry._lattice_steps(s.dim) * L @ s.projector.T)
    key = np.round(deltas / (1e-9 * L)).astype(np.int64)
    _, idx = np.unique(key, axis=0, return_index=True)
    return deltas[np.sort(idx)]


def _offset_cases():
    for entry in CATALOG:
        dom = domain_from_spec(entry["domain"])
        yield from ((entry["name"], dom.ambient, s) for s in dom.scatterers)
    for N in range(2, 9):
        for d in (2, 3):
            for i, j in hardball_pairs(N):
                yield (f"hardball_{N}_{d}", Torus(1.0),
                       geometry._hardball_cylinder(N, d, i, j, 0.05, 1.0))
    # user offsets with exact duplicates and rows within the rounding of another
    deltas = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0],
                       [1.0, 1e-12, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    yield ("user_deltas", Torus(1.0),
           Cylinder(np.array([0.5, 0.5, 0.0]), np.array([[0.0, 0.0, 1.0]]), 0.2,
                    image_deltas=deltas))


def test_image_offsets_keep_first_of_each_key_in_order():
    cases = list(_offset_cases())
    assert {name for name, _, _ in cases} >= {e["name"] for e in CATALOG} | {"user_deltas"}
    for name, ambient, s in cases:
        got, want = geometry._image_offsets(ambient, s), _unique_offsets(ambient, s)
        if want is None:
            assert got is None, name
        else:
            assert got.tobytes() == want.tobytes() and got.shape == want.shape, name
    user = geometry._image_offsets(*cases[-1][1:])
    assert user.tolist() == [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                             [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]
