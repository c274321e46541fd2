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

# Event cap for a single trajectory.
MAX_EVENTS_DEFAULT = 100_000

# Adjoint-identity residual above which a `verify` run is reported failed.
ADJOINT_RESIDUAL_FAIL = 1e-8
