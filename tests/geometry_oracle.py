"""Reference geometry operators, kept as test oracles.

The transport maps apply the parallel projections between the
velocity-transverse hyperplane and the boundary tangent plane row-wise in
``billiards.transport._projected_curvature``; these are the same operators
as explicit matrices, plus the nearest-point projection onto a scatterer's
boundary used to place test points on it, and the boundary normal derived
from a point alone, an independent check of the normal the collision
search stores on each event.
"""

from __future__ import annotations

import numpy as np

from billiards import BoundaryMismatchError, Domain, GrazingSingularityError, Halfspace
from billiards.tolerances import EPS_GRAZE


def project_to_boundary(domain: Domain, scatterer_index: int, q: np.ndarray) -> np.ndarray:
    """Nearest boundary point of scatterer ``index`` to a point near it."""
    s = domain.scatterers[scatterer_index]
    if isinstance(s, Halfspace):
        h = float((q - s.plane_point) @ s.plane_normal)
        return q - h * s.plane_normal
    xi = domain.boundary_offset(scatterer_index, q)
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
    sd = domain.signed_distance(scatterer_index, q)
    if abs(sd) > domain.eps_surface:
        raise BoundaryMismatchError(
            f"point is off the boundary of scatterer {scatterer_index} by {sd:.3e}")
    if isinstance(s, Halfspace):
        return s.plane_normal.copy()
    xi = domain.boundary_offset(scatterer_index, q)
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
