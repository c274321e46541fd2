"""Event-driven semi-dispersing billiards with covector transport.

Simulates point billiards on tori/boxes minus convex scatterers (including
the hard-ball-gas configuration-space reduction), transports normal
covectors ``n = (z, w)`` of flow-invariant hypersurfaces along trajectories,
and machine-checks the monotone decay of the Lyapunov value ``<z, w>`` and
the linear growth bounds it forces on the hypersurface volume.
"""

from .diagnostics import (
    CheckResult,
    VerificationReport,
    expansion_factor,
    lyapunov_Q,
    q_decrement_breakdown,
    sample_covector_uniform,
    sample_covector_with_Q_bound,
    series_records,
    verify_growth,
    verify_monotonicity,
)
from .dynamics import (
    TERMINATION_DEGENERATE,
    TERMINATION_ESCAPE,
    TERMINATION_EVENT_CAP,
    TERMINATION_GRAZING,
    TERMINATION_HORIZON,
    CollisionEvent,
    PhasePoint,
    Trajectory,
    flight_groups,
    flow,
    next_collision,
)
from .errors import (
    BilliardError,
    ConfigError,
    DegenerateCollisionError,
    DomainConstructionError,
    EscapeError,
    GrazingSingularityError,
    InfeasibleCovectorError,
    InvalidStateError,
    SeriesRangeError,
)
from .geometry import (
    Box,
    Cylinder,
    Domain,
    Halfspace,
    Sphere,
    Torus,
    build_hardball_gas,
    build_sinai,
    curvature_at,
    hardball_pairs,
    reduce_pair_to_sinai,
    reflect,
)
from .transport import (
    Covector,
    TangentVector,
    TransportSeries,
    adjoint_residual,
    pairing,
    transport_covector,
    transport_tangent,
    transversal_basis,
)

__version__ = "0.1.0"

__all__ = [
    "BilliardError", "Box", "CheckResult",
    "CollisionEvent", "ConfigError", "Covector", "Cylinder",
    "DegenerateCollisionError", "Domain",
    "DomainConstructionError", "EscapeError", "GrazingSingularityError",
    "Halfspace", "InfeasibleCovectorError", "InvalidStateError", "PhasePoint",
    "SeriesRangeError", "Sphere", "TangentVector", "Torus", "Trajectory",
    "TransportSeries", "VerificationReport",
    "TERMINATION_DEGENERATE", "TERMINATION_ESCAPE", "TERMINATION_EVENT_CAP",
    "TERMINATION_GRAZING", "TERMINATION_HORIZON",
    "adjoint_residual", "build_hardball_gas", "build_sinai",
    "curvature_at", "expansion_factor", "flight_groups", "flow", "hardball_pairs",
    "lyapunov_Q", "next_collision", "pairing", "q_decrement_breakdown",
    "reduce_pair_to_sinai", "reflect",
    "sample_covector_uniform", "sample_covector_with_Q_bound",
    "series_records", "transport_covector",
    "transport_tangent", "transversal_basis",
    "verify_growth", "verify_monotonicity",
]
