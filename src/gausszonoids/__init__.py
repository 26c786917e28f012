"""Gaussian zonoids: exact support geometry, volume bounds, random
determinants, and zero-set concentration for Gaussian-perturbed fields."""

from .determinants import (
    DeterminantBoundsReport,
    DeterminantBracket,
    FrameSpec,
    IIDSquareBounds,
    check_determinant_bounds,
    determinant_bracket,
    ellipse_support_fn,
    expected_absdet_mc,
    iid_square_bounds,
    mixed_area,
    mixed_volume_coeff,
    mixed_volume_ellipsoids_mc,
)
from .fields import (
    AxisProfile,
    GridResolutionError,
    GridSpec,
    SandwichReport,
    ScalarFieldSpec,
    TubeSpec,
    concentration_limit,
    envelope_sandwich,
    expected_zeros_coarea,
    expected_zeros_integral,
    grid_for_tube,
    mc_zero_count_circle,
    section_support,
    section_volume,
    sine_field,
)
from .geometry import (
    KINDS,
    Direction,
    GaussianVector,
    InclusionReport,
    RevolutionBody,
    VolumeBounds,
    boundary_profile,
    check_inclusion,
    ellipsoid_support,
    gaussian_gradient,
    gaussian_support,
    limit_body_inradius,
    limit_boundary_radius,
    limit_inradius_angle,
    limit_inradius_grid,
    mean_stretch_matrix,
    normalized_support,
    volume,
    volume_asymptote,
    volume_bounds,
)
from .kernels import (
    axial_stretch,
    axial_stretch_deriv,
    ball_volume,
    erf,
    erf_inv,
    erf_log_slope,
    folded_normal_mean,
    limit_support,
)
from .montecarlo import EstimateWithCI, MCConfig, mc_mean, stream

# The names the paper's statements use, bound to the same objects: b-infinity
# is the limit-body inradius, n_{r,tau} the expected zero count in the r-tube
# at noise scale tau, and the comparison field replaces each section body by
# its outer ellipsoid.
compute_b_infinity = limit_body_inradius
folded_abs_moment = folded_normal_mean
n_r_tau_integral = expected_zeros_integral
n_r_tau_coarea = expected_zeros_coarea
comparison_field_sandwich = envelope_sandwich

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # scalar kernels
    "erf",
    "erf_inv",
    "folded_normal_mean",
    "axial_stretch",
    "axial_stretch_deriv",
    "limit_support",
    "erf_log_slope",
    "ball_volume",
    # monte carlo driver
    "MCConfig",
    "EstimateWithCI",
    "stream",
    "mc_mean",
    # bodies of revolution
    "Direction",
    "KINDS",
    "RevolutionBody",
    "gaussian_support",
    "ellipsoid_support",
    "normalized_support",
    "gaussian_gradient",
    "boundary_profile",
    "volume",
    "VolumeBounds",
    "volume_bounds",
    "volume_asymptote",
    "limit_boundary_radius",
    "limit_body_inradius",
    "limit_inradius_angle",
    "limit_inradius_grid",
    "mean_stretch_matrix",
    "GaussianVector",
    "InclusionReport",
    "check_inclusion",
    # random determinants
    "FrameSpec",
    "mixed_volume_coeff",
    "expected_absdet_mc",
    "mixed_area",
    "ellipse_support_fn",
    "mixed_volume_ellipsoids_mc",
    "DeterminantBracket",
    "determinant_bracket",
    "DeterminantBoundsReport",
    "check_determinant_bounds",
    "IIDSquareBounds",
    "iid_square_bounds",
    # perturbed fields
    "AxisProfile",
    "ScalarFieldSpec",
    "sine_field",
    "TubeSpec",
    "GridSpec",
    "GridResolutionError",
    "section_volume",
    "section_support",
    "expected_zeros_integral",
    "expected_zeros_coarea",
    "grid_for_tube",
    "concentration_limit",
    "mc_zero_count_circle",
    "SandwichReport",
    "envelope_sandwich",
]
