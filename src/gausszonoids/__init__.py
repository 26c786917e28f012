"""Gaussian zonoids: exact support geometry, volume bounds, random
determinants, and zero-set concentration for Gaussian-perturbed fields.

The package exports the public names of its five library modules: each
module's ``__all__`` is the one list of them."""

from . import determinants, fields, geometry, kernels, montecarlo
from .determinants import *
from .fields import *
from .geometry import *
from .kernels import *
from .montecarlo import *

# The names the paper's statements use, bound to the same objects: n_{r,tau}
# is the expected zero count in the r-tube at noise scale tau, and the
# comparison field replaces each section body by its outer ellipsoid.
folded_abs_moment = kernels.folded_normal_mean
n_r_tau_integral = fields.expected_zeros_integral
n_r_tau_coarea = fields.expected_zeros_coarea
comparison_field_sandwich = fields.envelope_sandwich


def compute_b_infinity(tol: float | None = None) -> float:
    """b-infinity (:func:`geometry.limit_body_inradius`), which is bisected to
    adjacent floats and so meets every tolerance tol the paper's statement asks."""
    return geometry.limit_body_inradius()


__version__ = "0.1.0"

__all__ = [
    "__version__",
    *kernels.__all__,
    *montecarlo.__all__,
    *geometry.__all__,
    *determinants.__all__,
    *fields.__all__,
]
