"""bosegas: exact multi-point moments of the 1-d stochastic heat equation.

Moments with delta initial data admit contour-integral representations indexed
by integer partitions (the attractive delta-Bose gas behind the equation binds
coordinates into clusters).  This package evaluates them three independent
ways — a partition-indexed cluster expansion, nested shifted contours, and a
direct Euler Monte Carlo of the SPDE — plus exact rational analysis of the
growth exponents that rank the clusters.
"""

__version__ = "0.1.0"

from .errors import (
    BosegasError,
    NearSingularityError,
    NumericsError,
    UnsupportedDimensionError,
)
from .kernel import (
    cauchy_determinant,
    cluster_determinant,
    cluster_integrand,
    clustered_kernel,
    permutation_kernel,
    surviving_permutations,
)
from .moments import (
    MomentRequest,
    RatioResult,
    asymptotic_ratio,
    auto_cluster_plan,
    auto_nested_plan,
    cluster_breakdown,
    cluster_integral,
    combine_results,
    default_abscissas,
    heat_kernel,
    leading_asymptotic,
    moment_nested_contours,
    moment_partition_sum,
    top_cluster_closed_form,
    top_cluster_integral,
    two_point_moment,
)
from .partitions import Partition, cluster_expand, enumerate_partitions
from .quadrature import (
    ContourPlan,
    Interleavings,
    Placement,
    QuadratureResult,
    integrate_tensor,
)
from .scaled import ScaledComplex, rel_diff
from .she_mc import (
    GridSpec,
    MCEstimate,
    SimulatedField,
    estimate_moment,
    estimate_moments,
    simulate_field,
)
from .spectral import (
    GapReport,
    SpacePoints,
    envelope_exponent,
    log_ground_state,
    lyapunov_exponent,
    min_envelope_exponent,
    optimal_theta,
    spectral_gap,
    verify_gap,
)

__all__ = [
    "BosegasError",
    "ContourPlan",
    "GapReport",
    "GridSpec",
    "Interleavings",
    "MCEstimate",
    "MomentRequest",
    "NearSingularityError",
    "NumericsError",
    "Partition",
    "Placement",
    "QuadratureResult",
    "RatioResult",
    "ScaledComplex",
    "SimulatedField",
    "SpacePoints",
    "UnsupportedDimensionError",
    "__version__",
    "asymptotic_ratio",
    "auto_cluster_plan",
    "auto_nested_plan",
    "cauchy_determinant",
    "cluster_breakdown",
    "cluster_determinant",
    "cluster_expand",
    "cluster_integral",
    "cluster_integrand",
    "clustered_kernel",
    "combine_results",
    "default_abscissas",
    "enumerate_partitions",
    "envelope_exponent",
    "estimate_moment",
    "estimate_moments",
    "heat_kernel",
    "integrate_tensor",
    "leading_asymptotic",
    "log_ground_state",
    "lyapunov_exponent",
    "min_envelope_exponent",
    "moment_nested_contours",
    "moment_partition_sum",
    "optimal_theta",
    "permutation_kernel",
    "rel_diff",
    "simulate_field",
    "spectral_gap",
    "surviving_permutations",
    "top_cluster_closed_form",
    "top_cluster_integral",
    "two_point_moment",
    "verify_gap",
]
