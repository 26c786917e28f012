"""The package's public surface: each module's ``__all__``, exported once."""
import pytest

import gausszonoids
from gausszonoids import determinants, fields, geometry, kernels, montecarlo

MODULES = (kernels, montecarlo, geometry, determinants, fields)

# every public name the package has exported, and the paper's aliases
EXPORTED = """
__version__ erf erf_inv folded_normal_mean axial_stretch axial_stretch_deriv
limit_support erf_log_slope ball_volume MCConfig EstimateWithCI stream mc_mean
Direction KINDS RevolutionBody gaussian_support ellipsoid_support
normalized_support gaussian_gradient boundary_profile volume VolumeBounds
volume_bounds volume_asymptote limit_boundary_radius limit_body_inradius
limit_inradius_angle limit_inradius_grid mean_stretch_matrix GaussianVector
InclusionReport check_inclusion FrameSpec mixed_volume_coeff expected_absdet_mc
mixed_area mixed_volume_ellipsoids_mc DeterminantBracket
determinant_bracket DeterminantBoundsReport check_determinant_bounds
IIDSquareBounds iid_square_bounds AxisProfile ScalarFieldSpec sine_field
TubeSpec GridSpec GridResolutionError section_volume section_support
expected_zeros_integral expected_zeros_coarea grid_for_tube concentration_limit
mc_zero_count_circle SandwichReport envelope_sandwich compute_b_infinity
folded_abs_moment n_r_tau_integral n_r_tau_coarea comparison_field_sandwich
""".split()


def test_all_is_the_union_of_the_module_lists():
    names = ["__version__"] + [n for mod in MODULES for n in mod.__all__]
    assert gausszonoids.__all__ == names
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_name_is_the_module_object(module):
    for name in module.__all__:
        assert getattr(gausszonoids, name) is getattr(module, name), name


def test_star_import_matches_all():
    namespace = {}
    exec("from gausszonoids import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(gausszonoids.__all__)


def test_every_exported_name_still_imports():
    missing = [n for n in EXPORTED if not hasattr(gausszonoids, n)]
    assert missing == []
    # the paper's statement passes a tolerance, which b-infinity meets at any value
    assert gausszonoids.compute_b_infinity(1e-10) == geometry.limit_body_inradius()
    assert gausszonoids.n_r_tau_integral is fields.expected_zeros_integral


def test_internal_helpers_stay_out_of_the_surface():
    # imported by name where they are used, not part of the public surface
    assert kernels.bisect and montecarlo.parallel_map
    assert "bisect" not in gausszonoids.__all__
    assert "parallel_map" not in gausszonoids.__all__
    assert {"BODY_KINDS", "gaussian_volume"} <= set(gausszonoids.__all__)
