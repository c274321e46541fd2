"""Reference geometry operators, kept as test oracles.

The transport maps apply the parallel projections between the
velocity-transverse hyperplane and the boundary tangent plane row-wise in
``billiards.transport._projected_curvature``; these are the same operators
as explicit matrices, plus the nearest-point projection onto a scatterer's
boundary used to place test points on it, and the boundary normal derived
from a point alone, an independent check of the normal the collision
search stores on each event.  ``boundary_offset``, ``signed_distance`` and
``contains`` are the per-scatterer forms of the stacked membership test
``Domain.contains``.
"""

from __future__ import annotations

import numpy as np

from billiards import (
    BilliardError,
    Box,
    Cylinder,
    Domain,
    GrazingSingularityError,
    Halfspace,
    Sphere,
)
from billiards.tolerances import EPS_GRAZE


class BoundaryMismatchError(BilliardError, ValueError):
    """A point claimed to lie on a scatterer boundary does not."""


def _transverse(s: Cylinder, x: np.ndarray) -> np.ndarray:
    """Component of ``x`` orthogonal to the cylinder's axis subspace."""
    return x - s.axis_directions.T @ (s.axis_directions @ x)


def image_deltas(domain: Domain, index: int) -> np.ndarray:
    """The image offsets of scatterer ``index``: its row of its stack."""
    k, row = domain._stack_rows[index]
    return domain.stacks[k].deltas[row]


def boundary_offset(domain: Domain, index: int, q: np.ndarray) -> np.ndarray:
    """Transverse vector from the nearest image of scatterer ``index`` to ``q``.

    For a halfspace this is the signed height times the plane normal.
    """
    s = domain.scatterers[index]
    if isinstance(s, Halfspace):
        h = float((q - s.plane_point) @ s.plane_normal)
        return h * s.plane_normal
    ref = s.center if isinstance(s, Sphere) else s.axis_point
    xi = domain.min_image(q - ref)
    if isinstance(s, Cylinder):
        # reduce modulo the projected lattice: the per-coordinate minimal
        # image need not minimize the transverse distance
        xi = _transverse(s, xi)
        deltas = image_deltas(domain, index)
        k = int(np.argmin(np.linalg.norm(xi[None, :] - deltas, axis=1)))
        xi = xi - deltas[k]
    return xi


def signed_distance(domain: Domain, index: int, q: np.ndarray) -> float:
    """Distance from ``q`` to scatterer ``index``; positive in the billiard region."""
    s = domain.scatterers[index]
    if isinstance(s, Halfspace):
        return float((q - s.plane_point) @ s.plane_normal)
    return float(np.linalg.norm(boundary_offset(domain, index, q))) - s.radius


def contains(domain: Domain, q: np.ndarray, slack: float | None = None) -> bool:
    """True when ``q`` lies in the billiard region, one scatterer at a time."""
    slack = domain.eps_surface if slack is None else slack
    inside_ambient = True
    if isinstance(domain.ambient, Box):
        inside_ambient = domain.ambient.contains(q, slack)
    return inside_ambient and all(
        signed_distance(domain, i, q) >= -slack for i in range(len(domain.scatterers)))


def project_to_boundary(domain: Domain, scatterer_index: int, q: np.ndarray) -> np.ndarray:
    """Nearest boundary point of scatterer ``index`` to a point near it."""
    s = domain.scatterers[scatterer_index]
    if isinstance(s, Halfspace):
        h = float((q - s.plane_point) @ s.plane_normal)
        return q - h * s.plane_normal
    xi = boundary_offset(domain, scatterer_index, q)
    n = float(np.linalg.norm(xi))
    if n == 0.0:
        raise BoundaryMismatchError("cannot project the axis/center onto the boundary")
    return q + (s.radius / n - 1.0) * xi


def normal_at(domain: Domain, scatterer_index: int, q: np.ndarray) -> np.ndarray:
    """Unit boundary normal at ``q`` pointing into the billiard region.

    Raises ``BoundaryMismatchError`` if ``q`` is not on the scatterer
    boundary within the surface tolerance.
    """
    s = domain.scatterers[scatterer_index]
    sd = signed_distance(domain, scatterer_index, q)
    if abs(sd) > domain.eps_surface:
        raise BoundaryMismatchError(
            f"point is off the boundary of scatterer {scatterer_index} by {sd:.3e}")
    if isinstance(s, Halfspace):
        return s.plane_normal.copy()
    xi = boundary_offset(domain, scatterer_index, q)
    return xi / np.linalg.norm(xi)


def tangent_projection(v: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Projection along ``v`` from the hyperplane ``v^perp`` onto the boundary
    tangent plane ``nu^perp``.

    Applied to ``x``: ``x - (<x, nu>/<v, nu>) v``; the output is orthogonal
    to ``nu``.  Blows up at grazing incidence.
    """
    vn = float(v @ nu)
    if abs(vn) < EPS_GRAZE:
        raise GrazingSingularityError("tangent projection undefined at grazing incidence")
    return np.eye(v.shape[0]) - np.outer(v, nu) / vn


def transverse_projection(v: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Projection along ``nu`` from the boundary tangent plane onto ``v^perp``.

    Adjoint of :func:`tangent_projection`: ``<V x, y> == <x, V* y>`` for
    ``x`` in ``v^perp`` and ``y`` tangent to the boundary.
    """
    return tangent_projection(v, nu).T
