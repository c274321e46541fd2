"""Billiard domain geometry.

A domain is a flat ambient space (torus or box) minus a list of convex
scatterers (spheres, cylinders, halfspaces).  This module provides
curvature operators (second fundamental forms) and the reflection across
the boundary tangent hyperplane (:func:`reflect`), both taking a normal the
caller already has; it derives no normals from points, since the collision
search stores each impact's normal on its event.  At construction a
:class:`Domain` groups its scatterers into stacks of one kind and shape
(:class:`ScattererStack`); the collision search and :meth:`Domain.contains`
evaluate a whole stack in one array pass.

Conventions
-----------
* Vectors are 1-d ``numpy`` float arrays of length ``d`` (``d >= 2``).
* The boundary normal ``nu(q)`` is the unit vector pointing from the
  scatterer's solid part into the billiard region.
* Curvature operators are plain ``d x d`` ndarrays: symmetric positive
  semi-definite matrices that annihilate ``nu(q)``; storing them as full
  matrices keeps operator compositions plain matrix products.
* Torus positions live in the fundamental domain ``[0, L)^d`` with the
  minimal-image convention for displacements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import budget
from .errors import DomainConstructionError
from .tolerances import BROAD_PHASE_MARGIN_FACTOR, EPS_SURFACE_FACTOR

Vec = np.ndarray

# Lattice enumerations are (3 or 5)^d arrays; beyond this dimension a custom
# cylinder must supply its transverse image offsets explicitly.
_MAX_ENUM_DIM = 12

# Sphere stacks with at least this many images (the 3^d lattices of a torus
# with d >= 3) get the broad-phase reach of the window search.  The test
# costs about 10 us per window; a 9-image 2-d window that cannot be hit
# already exits early, and with the test 2-d Sinai runs were 3-7% slower.
_BROAD_PHASE_MIN_IMAGES = 27

# which scatterer of a pair the disjointness check measures from the other
_GUEST_RANK = {"sphere": 0, "cylinder": 1, "halfspace": 2}

# two cylinders are parallel when np.allclose(P_g, P_h, atol=_PARALLEL_ATOL)
# holds for their projectors (numpy's default rtol)
_PARALLEL_ATOL = 1e-10
_PARALLEL_RTOL = 1e-5


def as_vec(x, d: int | None = None, name: str = "vector") -> Vec:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DomainConstructionError(f"{name} must be one-dimensional, got shape {v.shape}")
    if d is not None and v.shape[0] != d:
        raise DomainConstructionError(f"{name} must have dimension {d}, got {v.shape[0]}")
    return v


def _unit(x: Vec, name: str = "vector") -> Vec:
    n = float(np.linalg.norm(x))
    if n == 0.0:
        raise DomainConstructionError(f"{name} must be nonzero")
    return x / n


def _lattice_steps(d: int, reach: int = 1) -> np.ndarray:
    """Integer offsets {-reach..reach}^d as a float array, one row per offset."""
    if d > _MAX_ENUM_DIM:
        raise DomainConstructionError(
            f"lattice enumeration infeasible in dimension {d} (max {_MAX_ENUM_DIM})"
        )
    # rows in itertools.product order: the last coordinate varies fastest
    steps = np.indices((2 * reach + 1,) * d).reshape(d, -1).T - reach
    return np.ascontiguousarray(steps, dtype=float)


# ---------------------------------------------------------------------------
# Ambient spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Torus:
    """Flat torus of equal side length ``side`` in every coordinate."""

    side: float

    def __post_init__(self):
        if not self.side > 0.0:
            raise DomainConstructionError("torus side length must be positive")

    periodic = True

    @property
    def length_scale(self) -> float:
        return self.side

    def wrap(self, q: Vec) -> Vec:
        return np.mod(q, self.side)

    def min_image(self, dq: Vec) -> Vec:
        return dq - self.side * np.rint(dq / self.side)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box ``[0, S_1] x ... x [0, S_d]``; no periodic wrap.

    A box does not confine the particle by itself: walls must be supplied as
    halfspace scatterers, and a trajectory that leaves the box terminates
    with an escape status.  Crossing walls meet only in edges and corners,
    so walls may close the box; parallel walls must face each other across
    a gap.  :class:`Domain` checks this, and every other overlap, through
    the distance of its scatterer stacks.
    """

    sides: tuple[float, ...]

    def __post_init__(self):
        if not all(s > 0.0 for s in self.sides):
            raise DomainConstructionError("box side lengths must be positive")

    periodic = False

    @property
    def length_scale(self) -> float:
        return min(self.sides)

    def wrap(self, q: Vec) -> Vec:
        return q

    def min_image(self, dq: Vec) -> Vec:
        return dq

    def contains(self, q: np.ndarray, slack: float = 0.0) -> np.ndarray:
        """Whether each point of ``q``, ``(..., d)``, lies in the box inflated
        by ``slack``."""
        s = np.asarray(self.sides)
        return (q >= -slack).all(axis=-1) & (q <= s + slack).all(axis=-1)

    def exit_time(self, q: Vec, v: Vec, slack: float = 0.0) -> float:
        """First time ``q + t v`` leaves the box inflated by ``slack``."""
        s = np.asarray(self.sides)
        t_exit = np.inf
        for c in range(len(self.sides)):
            if v[c] > 0.0:
                t_exit = min(t_exit, (s[c] + slack - q[c]) / v[c])
            elif v[c] < 0.0:
                t_exit = min(t_exit, (-slack - q[c]) / v[c])
        return float(t_exit)


Ambient = Torus | Box


# ---------------------------------------------------------------------------
# Scatterers
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Sphere:
    """Solid ball removed from the domain; boundary curvature 1/radius."""

    center: Vec
    radius: float

    kind = "sphere"

    def __post_init__(self):
        self.center = as_vec(self.center, name="sphere center")
        if not self.radius > 0.0:
            raise DomainConstructionError("sphere radius must be positive")

    @property
    def dim(self) -> int:
        return self.center.shape[0]


@dataclass(eq=False)
class Cylinder:
    """Solid cylinder: points within ``radius`` of an affine subspace.

    ``axis_directions`` is a ``(k, d)`` row-orthonormal array spanning the
    flat subspace (1 <= k <= d-2).  ``radius`` is the Euclidean distance
    from the axis subspace to the boundary.  ``image_deltas`` optionally
    pins the transverse lattice offsets used for periodic image searches;
    when omitted they are enumerated from the cubic lattice at domain
    construction.  ``pair`` optionally declares the cylinder the contact
    set of balls ``(i, j)`` of dimension ``d - k`` (see
    :func:`_ball_pair`), which a torus then measures by their minimal-image
    displacement.
    """

    axis_point: Vec
    axis_directions: np.ndarray
    radius: float
    image_deltas: np.ndarray | None = None
    pair: tuple[int, int] | None = None
    projector: np.ndarray = field(init=False, repr=False)

    kind = "cylinder"

    def __post_init__(self):
        self.axis_point = as_vec(self.axis_point, name="cylinder axis point")
        a = np.atleast_2d(np.asarray(self.axis_directions, dtype=float))
        d = self.axis_point.shape[0]
        if a.shape[1] != d:
            raise DomainConstructionError("cylinder axis directions must match the ambient dimension")
        k = a.shape[0]
        if not 1 <= k <= d - 2:
            raise DomainConstructionError(f"cylinder needs 1..{d - 2} axis directions, got {k}")
        if not np.allclose(a @ a.T, np.eye(k), atol=1e-8):
            raise DomainConstructionError("cylinder axis directions must be orthonormal")
        if not self.radius > 0.0:
            raise DomainConstructionError("cylinder radius must be positive")
        self.axis_directions = a
        self.projector = np.eye(d) - a.T @ a
        if self.pair is not None:
            self.pair = _ball_pair(self.pair, self.axis_point, a)

    @property
    def dim(self) -> int:
        return self.axis_point.shape[0]


@dataclass(eq=False)
class Halfspace:
    """Solid halfspace on the side of the plane opposite ``plane_normal``.

    Flat wall: the curvature operator is zero, still semi-dispersing.
    Only meaningful in a box ambient (a halfspace always wraps on a torus).
    """

    plane_point: Vec
    plane_normal: Vec

    kind = "halfspace"

    def __post_init__(self):
        self.plane_point = as_vec(self.plane_point, name="halfspace plane point")
        self.plane_normal = _unit(as_vec(self.plane_normal, name="halfspace plane normal"),
                                  name="halfspace plane normal")

    @property
    def dim(self) -> int:
        return self.plane_point.shape[0]


def _ball_pair(pair, point: Vec, axes: np.ndarray) -> tuple[int, int]:
    """Balls ``(i, j)``, of dimension ``b = d - k``, whose contact set
    ``q_i = q_j`` is the axis subspace through ``point`` along ``axes``,
    ``(k, d)``: checked as equal ball-``i`` and ball-``j`` blocks of the
    point and of every axis row (the axes then span the complement of the
    directions ``(e_(i,c) - e_(j,c)) / sqrt 2``)."""
    k, d = axes.shape
    b = d - k
    ij = np.asarray(pair)
    if ij.shape != (2,) or ij.dtype.kind not in "iu":
        raise DomainConstructionError(f"cylinder pair must be two ball indices, got {pair!r}")
    i, j = int(ij[0]), int(ij[1])
    if d % b or i == j or not (0 <= i < d // b and 0 <= j < d // b):
        raise DomainConstructionError(
            f"cylinder pair {(i, j)} names no two of the balls of dimension {b} in {d}")
    rows = np.vstack([point, axes])
    # not (x <= atol) also rejects nan
    if not np.abs(rows[:, i * b:(i + 1) * b] - rows[:, j * b:(j + 1) * b]).max() <= 1e-8:
        raise DomainConstructionError(f"cylinder axes do not fit the ball pair {(i, j)}")
    return i, j


Scatterer = Sphere | Cylinder | Halfspace


def row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot product of each row pair of two ``(..., d)`` stacks (broadcast).

    numpy evaluates ``(..., 1, d) @ (..., d, 1)`` as one vector dot per row,
    so each value has the bits of the 1-d ``x[i] @ y[i]``.
    """
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


@dataclass(eq=False)
class ScattererStack:
    """Scatterers of one kind and shape, stored as arrays over a stack axis.

    ``indices`` are the scatterer indices, ascending.  ``points`` are the
    sphere centers, cylinder axis points or halfspace plane points,
    ``(S, d)``.  Spheres and cylinders carry ``radii``, ``radii_sq`` (each
    ``radius ** 2``, an ``(S, 1)`` column) and the image offsets ``deltas``,
    ``(S, m, d)``; cylinders also the axis rows ``axes``, ``(S, k, d)``.
    A stack of ball-pair cylinders (:func:`build_hardball_gas`) carries
    their balls, ``pairs``, ``(S, 2)``: :meth:`Domain.contains` measures
    each by one minimal-image displacement of its two balls.  Every other
    cylinder stack carries an orthonormal basis of the directions
    transverse to its axes, ``basis``, ``(S, d - k, d)``, and the
    coordinates of the image offsets in that basis, ``basis_deltas``,
    ``(S, d - k, m)`` (images last, so that the distance to every image is
    one pass along rows of ``m``); halfspaces the plane ``normals``,
    ``(S, d)``.  Sphere stacks of a torus
    with d >= 3 carry ``reach_sq``, ``(S,)``: the squared distance within
    which a flight can hit a lattice image of the center (the radius plus
    ``BROAD_PHASE_MARGIN_FACTOR`` times the side); ball-pair stacks carry it
    in units of the balls' displacement ``q_i - q_j``, twice the square of
    that reach of the cylinder, within which the displacement can come to
    the lattice ``L Z^b``; ``None`` on every other stack, which the window
    search then scans without a broad phase.
    """

    kind: str
    indices: np.ndarray
    points: np.ndarray
    radii: np.ndarray | None = None
    radii_sq: np.ndarray | None = None
    deltas: np.ndarray | None = None
    axes: np.ndarray | None = None
    basis: np.ndarray | None = None
    basis_deltas: np.ndarray | None = None
    pairs: np.ndarray | None = None
    normals: np.ndarray | None = None
    reach_sq: np.ndarray | None = None

    def transverse(self, x: np.ndarray) -> np.ndarray:
        """Each row of ``x``, ``(..., S, d)``, minus its component along that
        scatterer's axis subspace, as ``x - A^T (A x)`` per row (one ``gemv``
        per row, whatever the leading dimensions); rows unchanged for
        spheres."""
        if self.axes is None:
            return x
        ax = self.axes @ x[..., None]
        return x - (self.axes.swapaxes(-1, -2) @ ax)[..., 0]


def _image_offsets(ambient: Ambient, s: Scatterer) -> np.ndarray | None:
    """Transverse offsets of the nearby periodic images of ``s``.

    One row per distinct image; the zero row is always present.  ``None``
    for halfspaces (never periodic).
    """
    if isinstance(s, Halfspace):
        return None
    if not ambient.periodic:
        return np.zeros((1, s.dim))
    L = ambient.side
    if isinstance(s, Cylinder):
        if s.image_deltas is not None:
            deltas = np.asarray(s.image_deltas, dtype=float)
            if deltas.ndim != 2 or deltas.shape[1] != s.dim:
                raise DomainConstructionError(
                    f"cylinder image offsets must have shape (m, {s.dim}), got {deltas.shape}")
        else:
            deltas = _lattice_steps(s.dim) * L @ s.projector.T
        # collapse offsets that differ only along the axis subspace: the first
        # row of each rounded key, in input order
        key = np.round(deltas / (1e-9 * L)).astype(np.int64)
        first: dict[tuple, int] = {}
        for i, row in enumerate(map(tuple, key.tolist())):
            first.setdefault(row, i)
        return deltas[list(first.values())]
    return _lattice_steps(s.dim) * L


def _stack_scatterers(scatterers: list[Scatterer], ambient: Ambient) -> list[ScattererStack]:
    """Group scatterers of the same kind, axis count and image count, and
    ball-pair cylinders apart from the others, into stacks, in order of
    their first scatterer."""
    image_deltas = [_image_offsets(ambient, s) for s in scatterers]
    groups: dict[tuple, list[int]] = {}
    for i, (s, deltas) in enumerate(zip(scatterers, image_deltas)):
        k = s.axis_directions.shape[0] if isinstance(s, Cylinder) else 0
        m = 0 if deltas is None else deltas.shape[0]
        paired = isinstance(s, Cylinder) and s.pair is not None
        groups.setdefault((s.kind, k, m, paired), []).append(i)
    stacks = []
    for (kind, _, _, paired), idx in groups.items():
        members = [scatterers[i] for i in idx]
        if kind == "halfspace":
            stacks.append(ScattererStack(
                kind, np.array(idx), np.array([h.plane_point for h in members]),
                normals=np.array([h.plane_normal for h in members])))
            continue
        points = [s.center if kind == "sphere" else s.axis_point for s in members]
        radii = np.array([s.radius for s in members], dtype=float)
        deltas = np.array([image_deltas[i] for i in idx])
        reach_sq = axes = basis = basis_deltas = pairs = None
        if kind == "sphere" and deltas.shape[1] >= _BROAD_PHASE_MIN_IMAGES:
            reach_sq = (radii + BROAD_PHASE_MARGIN_FACTOR * ambient.length_scale) ** 2
        if kind == "cylinder":
            axes = np.array([s.axis_directions for s in members])
        if paired:
            if not ambient.periodic:
                raise DomainConstructionError("ball-pair cylinders require a torus ambient")
            pairs = np.array([s.pair for s in members])
            # in units of the balls' displacement q_i - q_j, sqrt 2 times the
            # pair's transverse coordinates
            reach_sq = 2.0 * (radii + BROAD_PHASE_MARGIN_FACTOR * ambient.length_scale) ** 2
        elif kind == "cylinder":
            # the columns of a complete QR of the axes past the first k span
            # the transverse directions (a first SVD call would add about
            # 0.5 MiB to the resident set; the covector sampler calls QR)
            q = np.linalg.qr(axes.transpose(0, 2, 1), mode="complete").Q
            basis = q[:, :, axes.shape[1]:].transpose(0, 2, 1)
            basis_deltas = basis @ deltas.transpose(0, 2, 1)
        stacks.append(ScattererStack(
            kind, np.array(idx), np.array(points),
            radii=radii,
            radii_sq=np.array([[s.radius ** 2] for s in members], dtype=float),
            deltas=deltas, axes=axes, basis=basis, basis_deltas=basis_deltas,
            pairs=pairs, reach_sq=reach_sq))
    return stacks


def _maybe_parallel(projectors: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The pairs ``a < b`` of the orthogonal projectors, each ``(n, n)``,
    that ``np.allclose`` may call equal (see ``_PARALLEL_ATOL``), in either
    order: a superset, from one array pass over ``P x`` for a fixed generic
    ``x``.

    ``allclose`` bounds each entry of ``P_a - P_b`` by ``atol + rtol |P_b|``,
    so its Frobenius norm by ``atol n + rtol |P_b|_F``, and ``|P_b|_F =
    sqrt(rank) <= sqrt(n)``; then ``|P_a x - P_b x| <= (atol n + rtol
    sqrt(n)) |x|``, taken twice to cover rounding.  The norms ``|P x|`` lie
    within that bound of each other too, so only neighbours in their sort
    are compared.  (The ones vector is not generic: a hard-ball pair
    projector maps it to 0.)
    """
    if len(projectors) < 2:
        none = np.zeros(0, dtype=np.intp)
        return none, none
    n = projectors[0].shape[0]
    x = np.modf(np.arange(1, n + 1) * 0.6180339887498949)[0]
    px = np.array([p @ x for p in projectors])
    tol = 2.0 * (_PARALLEL_ATOL * n + _PARALLEL_RTOL * np.sqrt(n)) * np.sqrt(x @ x)
    norm = np.sqrt(row_dot(px, px))
    order = np.argsort(norm, kind="stable")
    norm = norm[order]
    # each place in the sort pairs with the later ones within tol
    count = np.searchsorted(norm, norm + tol, side="right") - np.arange(norm.size) - 1
    first = np.repeat(np.arange(norm.size), count)
    second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(count) - count, count)
    a, b = order[first], order[second]
    diff = px[a] - px[b]
    near = row_dot(diff, diff) <= tol * tol
    a, b = a[near], b[near]
    return np.minimum(a, b), np.maximum(a, b)


# ---------------------------------------------------------------------------
# Domain
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Domain:
    """Ambient space minus a list of convex scatterers whose solid parts
    meet at most in corner sets.

    Construction validates dimensions, torus self-wrap, and pairwise
    disjointness where it is decidable.  The solid parts of two scatterers
    may meet only in a corner set, which the dynamics treats as singular:
    transversal cylinders (hard-ball pair cylinders) and crossing walls are
    exempt from the disjointness check.  Walls that face the same way nest,
    and antiparallel walls need a gap between them.  Every other pair must
    be disjoint: the pair's sphere, else its cylinder, is the guest, and its
    center or axis point must lie farther than its radius from the other
    scatterer, by the same stacked distance as :meth:`contains` (a cylinder
    whose axis runs into a wall is rejected).  ``stacks`` holds the
    scatterers grouped by kind and shape, for the array passes of the
    collision search and :meth:`contains`.
    """

    d: int
    ambient: Ambient
    scatterers: list[Scatterer]
    labels: list[str] | None = None
    stacks: list[ScattererStack] = field(init=False, repr=False)

    def __post_init__(self):
        if self.d < 2:
            raise DomainConstructionError("domain dimension must be at least 2")
        if isinstance(self.ambient, Box) and len(self.ambient.sides) != self.d:
            raise DomainConstructionError("box side count must equal the domain dimension")
        for s in self.scatterers:
            if s.dim != self.d:
                raise DomainConstructionError(
                    f"scatterer dimension {s.dim} does not match domain dimension {self.d}")
        if self.labels is not None and len(self.labels) != len(self.scatterers):
            raise DomainConstructionError("labels must match the number of scatterers")
        self.stacks = _stack_scatterers(self.scatterers, self.ambient)
        # curvature_at's data, one row per scatterer: the projector onto the
        # directions that bend (I for a sphere), the radius, and the flat
        # walls, whose curvature is zero (their projector I and radius 1
        # only keep the formula finite; the flow's landing pass takes a
        # wall's normal from the wall, not from its root)
        self._bend = np.array([s.projector if isinstance(s, Cylinder) else np.eye(self.d)
                               for s in self.scatterers]).reshape(-1, self.d, self.d)
        self._radii = np.array([getattr(s, "radius", 1.0) for s in self.scatterers])
        self._flat = np.array([isinstance(s, Halfspace) for s in self.scatterers], dtype=bool)
        # scatterer index -> (index into ``stacks``, row in that stack)
        self._stack_rows = {i: (k, row) for k, st in enumerate(self.stacks)
                            for row, i in enumerate(st.indices.tolist())}
        self._check_self_wrap()
        self._check_disjoint()

    # -- construction-time invariants ------------------------------------

    def _check_self_wrap(self):
        if not self.ambient.periodic:
            return
        L = self.ambient.side
        for i, s in enumerate(self.scatterers):
            if isinstance(s, Halfspace):
                raise DomainConstructionError("halfspace scatterers require a box ambient")
            if isinstance(s, Sphere):
                # norms over the 3^d lattice would take about 51 MB at d = 12
                if not 2.0 * s.radius < L:
                    raise DomainConstructionError(
                        f"scatterer {i}: sphere of diameter {2 * s.radius} wraps on torus of side {L}")
            else:
                k, row = self._stack_rows[i]
                norms = np.linalg.norm(self.stacks[k].deltas[row], axis=1)
                nonzero = norms[norms > 1e-9 * L]
                if nonzero.size and not nonzero.min() > 2.0 * s.radius:
                    raise DomainConstructionError(
                        f"scatterer {i}: cylinder wraps onto its own periodic image")

    def _check_disjoint(self):
        for i, j in self._checked_pairs():
            if not self._pair_disjoint(i, j):
                raise DomainConstructionError(f"scatterers {i} and {j} have intersecting solid parts")

    def _checked_pairs(self) -> list[tuple[int, int]]:
        """The pairs ``i < j``, in order, that the disjointness check hands
        to :meth:`_pair_disjoint`: every pair but two cylinders that cannot
        be parallel (:func:`_maybe_parallel`), whose verdict is transversal,
        allowed."""
        n = len(self.scatterers)
        cyl = np.flatnonzero([isinstance(s, Cylinder) for s in self.scatterers])
        a, b = _maybe_parallel([self.scatterers[i].projector for i in cyl.tolist()])
        pairs = set(zip(cyl[a].tolist(), cyl[b].tolist()))
        for k, s in enumerate(self.scatterers):
            if not isinstance(s, Cylinder):
                pairs.update((min(k, j), max(k, j)) for j in range(n) if j != k)
        return sorted(pairs)

    def _pair_disjoint(self, i: int, j: int) -> bool:
        """Whether scatterers ``i`` and ``j`` may share the domain (see the
        class docstring)."""
        guest, host = sorted((i, j), key=lambda k: _GUEST_RANK[self.scatterers[k].kind])
        g, h = self.scatterers[guest], self.scatterers[host]
        if isinstance(g, Halfspace):  # two walls
            if not np.allclose(g.plane_normal, -h.plane_normal, atol=1e-9):
                # crossing walls meet in a corner set; walls facing the same way nest
                return not np.allclose(g.plane_normal, h.plane_normal, atol=1e-9)
            point, radius = g.plane_point, 0.0
        elif isinstance(g, Sphere):
            point, radius = g.center, g.radius
        else:
            if isinstance(h, Halfspace):
                if np.max(np.abs(g.axis_directions @ h.plane_normal)) > 1e-12:
                    return False  # axis runs into the plane
            elif not np.allclose(g.projector, h.projector, atol=_PARALLEL_ATOL,
                                 rtol=_PARALLEL_RTOL):
                return True  # transversal cylinders: overlaps are corner sets, allowed
            point, radius = g.axis_point, g.radius
        k, row = self._stack_rows[host]
        return float(self._signed_distances(self.stacks[k], point)[row]) > radius

    # -- basic queries ----------------------------------------------------

    @property
    def length_scale(self) -> float:
        return self.ambient.length_scale

    @property
    def eps_surface(self) -> float:
        return EPS_SURFACE_FACTOR * self.length_scale

    def wrap(self, q: Vec) -> Vec:
        return self.ambient.wrap(q)

    def min_image(self, dq: Vec) -> Vec:
        return self.ambient.min_image(dq)

    def contains(self, q: np.ndarray, slack: float | None = None) -> bool | np.ndarray:
        """True when ``q`` lies in the billiard region (outside every solid part).

        ``q`` is one point ``(d,)``, answered with a bool, or a stack of
        points ``(..., d)``, answered with a boolean array: array passes per
        stack of scatterers over consecutive slices of the points, each of
        as many points as the byte budget fits (:meth:`_point_bytes`) or
        one, with the bits of one point at a time.
        """
        slack = self.eps_surface if slack is None else slack
        q = np.asarray(q, dtype=float)
        points = q.reshape(-1, q.shape[-1])
        inside = np.ones(len(points), dtype=bool)
        if isinstance(self.ambient, Box):
            inside &= self.ambient.contains(points, slack)
        # a non-finite coordinate makes a distance nan (inf - inf is one),
        # min() is nan if any distance is, and nan >= x is False
        with np.errstate(invalid="ignore"):
            for st in self.stacks:
                size = budget.fit(self._point_bytes(st))
                for s in range(0, len(points), size):
                    inside[s:s + size] &= self._signed_distances(
                        st, points[s:s + size]).min(axis=-1) >= -slack
        return bool(inside[0]) if q.ndim == 1 else inside.reshape(q.shape[:-1])

    def _point_bytes(self, st: ScattererStack) -> int:
        """Bytes one point allocates in :meth:`_signed_distances` of a
        stack of ``S`` scatterers: four ``(S, d)`` displacements (the
        displacement, its minimal image and their temporaries), or six
        ``(S, b)`` ball displacements of a ball-pair stack (``b`` the ball
        dimension); a cylinder stack with a transverse basis adds its
        transverse coordinates ``(S, b, d)`` and two image offsets
        ``(S, b, m)``."""
        S, d = st.indices.size, self.d
        if st.pairs is not None:
            return 8 * 6 * S * (d - st.axes.shape[1])
        if st.basis_deltas is None:
            return 8 * 4 * S * d
        b, m = st.basis_deltas.shape[1:]
        return 8 * S * (4 * d + b * (d + 2 * m))

    def _signed_distances(self, st: ScattererStack, q: np.ndarray) -> np.ndarray:
        """Distance from each point of ``q``, ``(..., d)``, to each scatterer
        of a stack, ``(..., S)``; positive in the billiard region."""
        if st.pairs is not None:
            # the transverse coordinates of the pair (i, j) are the ball
            # displacement q_i - q_j over sqrt 2, and its nearest image is
            # the minimal image of that displacement: one number a pair
            # (each coordinate reduces its own row, and the squares add in
            # coordinate order: the bits of one point at a time)
            b = self.d - st.axes.shape[1]
            ci, cj = st.pairs.T[:, None, :] * b + np.arange(b)[:, None]  # (b, S) columns
            dx = self.min_image(q[..., ci] - q[..., cj])
            return np.sqrt(0.5 * np.add.reduce(dx * dx, axis=-2)) - st.radii
        rel = q[..., None, :] - st.points
        if st.kind == "halfspace":
            return row_dot(rel, st.normals)
        xi = self.min_image(rel)
        if st.kind == "cylinder":
            # the nearest image in transverse coordinates: the per-coordinate
            # minimal image need not minimize the transverse distance
            # (each coordinate reduces its own row, and the squares add in
            # coordinate order: the bits of one point at a time)
            y = np.add.reduce(st.basis * xi[..., None, :], axis=-1)
            off = y[..., None] - st.basis_deltas
            return np.sqrt(np.add.reduce(off * off, axis=-2).min(axis=-1)) - st.radii
        return np.sqrt(row_dot(xi, xi)) - st.radii


# ---------------------------------------------------------------------------
# Boundary data
# ---------------------------------------------------------------------------

def curvature_at(domain: Domain, scatterer_index: int | np.ndarray,
                 nu: np.ndarray) -> np.ndarray:
    """Second fundamental form of a scatterer's boundary, in closed form from
    the inward unit normal ``nu``: a symmetric positive semi-definite
    ``d x d`` matrix that annihilates ``nu``.

    ``scatterer_index`` is one index, with ``nu`` ``(d,)``, or an index array
    ``(F,)``, with one normal per index ``(F, d)``; the result is ``(d, d)``
    or ``(F, d, d)``, each matrix with the bits of its own one-index call.

    Precondition, not checked: ``nu`` is the unit normal at a boundary point
    of that scatterer (for a cylinder, transverse to the axis), as every
    ``CollisionEvent.nu`` is.

    Sphere: ``(I - nu nu^T) / r``.  Cylinder: ``(projector - nu nu^T) / r``
    (eigenvalue 0 along the axis).  Halfspace: zero.
    """
    idx = np.asarray(scatterer_index)
    K = (domain._bend[idx] - nu[..., :, None] * nu[..., None, :]) / domain._radii[idx][..., None, None]
    return np.where(domain._flat[idx][..., None, None], 0.0, K)


# ---------------------------------------------------------------------------
# Collision-transport operators
# ---------------------------------------------------------------------------

def reflect(x: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Orthogonal reflection ``x - 2 <x, nu> nu`` across the tangent
    hyperplane of the unit normal ``nu``.

    ``x`` is a vector or a stack of rows ``(m, d)`` with one normal ``(d,)``,
    or stacks ``(F, m, d)`` with one normal per stack, ``(F, d)``.  Each
    ``<x, nu>`` is one BLAS call of the form a single vector or stack issues
    (a dot per vector, a ``gemv`` per stack), so every row keeps its bits.

    Involution and isometry: fixes vectors orthogonal to ``nu`` and flips
    ``nu`` itself.  No grazing check: a velocity is reflected only after the
    collision search has rejected grazing impacts.
    """
    if nu.ndim == 1:
        return x - 2.0 * (x @ nu)[..., None] * nu
    return x - 2.0 * (x @ nu[:, :, None]) * nu[:, None]


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def build_sinai(d: int, r: float, L: float, centers: list) -> Domain:
    """Torus of side ``L`` minus spheres of radius ``r`` at ``centers``."""
    if not 0.0 < 2.0 * r < L:
        raise DomainConstructionError(f"need 0 < 2r < L, got r={r}, L={L}")
    spheres = [Sphere(as_vec(c, d, "sphere center"), r) for c in centers]
    return Domain(d, Torus(L), spheres)


def hardball_pairs(N: int) -> list[tuple[int, int]]:
    """Ball index pairs in the scatterer order used by :func:`build_hardball_gas`."""
    return list(itertools.combinations(range(N), 2))


def _hardball_cylinder(N: int, d: int, i: int, j: int, r: float, L: float) -> Cylinder:
    """Pair-collision cylinder for balls ``i`` and ``j`` in Tor^(N*d).

    The solid part is the set of configurations with torus distance between
    balls i and j below ``2r``.  In the Euclidean configuration-space metric
    that is a cylinder of transverse radius ``sqrt(2) * r`` around the
    subspace where both balls translate together (dimension ``(N-1) * d``).
    """
    dim = N * d
    axes = []
    for k in range(N):
        if k in (i, j):
            continue
        for c in range(d):
            e = np.zeros(dim)
            e[k * d + c] = 1.0
            axes.append(e)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for c in range(d):
        e = np.zeros(dim)
        e[i * d + c] = inv_sqrt2
        e[j * d + c] = inv_sqrt2
        axes.append(e)
    # transverse lattice offsets: images indexed by m = k_i - k_j in {-2..2}^d
    ms = _lattice_steps(d, reach=2)
    deltas = np.zeros((ms.shape[0], dim))
    deltas[:, i * d:(i + 1) * d] = 0.5 * L * ms
    deltas[:, j * d:(j + 1) * d] = -0.5 * L * ms
    return Cylinder(np.zeros(dim), np.array(axes), np.sqrt(2.0) * r, image_deltas=deltas,
                    pair=(i, j))


def build_hardball_gas(N: int, d: int, r: float, L: float) -> Domain:
    """Configuration-space billiard for ``N`` unit-speed hard balls on Tor^d.

    One cylindrical scatterer per unordered ball pair; contact happens when
    the pair's torus distance reaches ``2r``.  The configuration space is the
    unreduced Tor^(N*d) (no center-of-mass or momentum reduction).
    """
    if N < 2 or d < 2:
        raise DomainConstructionError("need N >= 2 balls in dimension d >= 2")
    if not 0.0 < 2.0 * r < L / 2.0:
        raise DomainConstructionError(f"need 0 < 2r < L/2, got r={r}, L={L}")
    pairs = hardball_pairs(N)
    cylinders = [_hardball_cylinder(N, d, i, j, r, L) for i, j in pairs]
    labels = [f"pair_{i}_{j}" for i, j in pairs]
    return Domain(N * d, Torus(L), cylinders, labels=labels)


def reduce_pair_to_sinai(d: int, r: float, L: float) -> Domain:
    """Relative-coordinate reduction of two equal balls: torus minus one
    sphere of radius ``2r`` at the origin."""
    if not 0.0 < 4.0 * r < L:
        raise DomainConstructionError(f"need 0 < 4r < L, got r={r}, L={L}")
    return Domain(d, Torus(L), [Sphere(np.zeros(d), 2.0 * r)])
