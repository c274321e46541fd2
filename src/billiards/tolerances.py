"""Numerical tolerances shared across the package.

Scale-dependent tolerances are expressed as factors of the domain length
scale (the torus side, or the smallest box side).
"""

# Boundary membership: |signed distance| below this times the length scale
# counts as "on the boundary".  Event times are only accurate to solver
# precision, so landed points sit on boundaries to roughly this level.
EPS_SURFACE_FACTOR = 1e-9

# Collisions with cos(phi) below this are treated as grazing singularities;
# the parallel projections blow up like 1/cos(phi) as phi -> pi/2.
EPS_GRAZE = 1e-10

# Minimum admissible gap between consecutive collision times, as a factor of
# the length scale.  Two boundary roots closer than this are a multiple
# (corner-like) collision and terminate the trajectory.
EPS_TIME_FACTOR = 1e-12

# Broad phase of the sphere-lattice window search: a window skips a sphere
# stack when its flight segment stays farther than
# reach = radius + BROAD_PHASE_MARGIN_FACTOR * L from every lattice image of
# every center, first by the segment's bounding box, then by the segment's
# own distance.  A window is at most L/2 long and its midpoint m lies within
# L/2 of the nearest image per coordinate, so coordinate i of the segment
# m + tau v, |tau| <= L/4, crosses at most the one cell wall on the side of
# m_i, at tau_i = (+-L/2 - m_i)/v_i, and the segment visits at most d + 1
# cells; in each the nearest image is fixed and the distance is the clamped
# closest approach to it.  The margin must cover every root the exact scan
# would accept from an image the segment does not reach within the radius.
# The scan accepts a root only for a computed discriminant b^2 - a c >= 0;
# an image that can be entered within the window has |xi0| <= r + hi < L,
# so b and c carry absolute errors of a few d * ulp * L^2, and the point of
# the segment at an accepted root lies within sqrt(r^2 + k d ulp L^2) of the
# image center (the root time itself is off by about sqrt(ulp) L near
# grazing, but only along the near-tangent line).  The box is off by a few
# ulp * L.  A computed crossing tau_i puts coordinate i within a few ulp * L
# of the wall, where the images on either side are equally far to that
# amount, so a cut in the wrong place moves the distance by O(ulp L); the
# cell's image (L rint at the piece's midpoint) is the nearest one up to the
# same amount; and the clamped closest approach, |u|^2 + tau (2 u.v +
# tau |v|^2) with each coordinate of u below L, carries a few d * ulp * L^2.
# Every computed squared distance is thus within O(d ulp L^2) of the exact
# one.  This margin gives reach^2 - r^2 >= 1e-12 L^2, two orders of
# magnitude above those errors for d <= 12, and costs no measurable skip
# rate.
BROAD_PHASE_MARGIN_FACTOR = 1e-6

# Event cap for a single trajectory.
MAX_EVENTS_DEFAULT = 100_000

# Relative margin of the diagnostic checks (config key `tol_check`).
DEFAULT_TOL_CHECK = 1e-9

# Interior samples per free segment in the diagnostics (config key
# `grid_interior`).
DEFAULT_INTERIOR_SAMPLES = 8

# Adjoint-identity residual above which a `verify` run is reported failed.
ADJOINT_RESIDUAL_FAIL = 1e-8
