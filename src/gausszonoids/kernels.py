"""Scalar kernels shared by the zonoid geometry and random-field modules.

Conventions used throughout the package:

* ``erf(t) = 2/sqrt(pi) * integral_0^t exp(-u^2) du``
* ``ball_volume(m)`` is the Lebesgue volume of the unit ball in R^m.

Everything here is elementary, a range-checked wrapper over
``scipy.special``, or the one bisection routine the package uses.  The
scalar functions accept scalars or numpy arrays and reject NaN/Inf at the API
boundary (the documented continuous extensions excepted).
"""
from __future__ import annotations

import math

import numpy as np
from scipy import special

__all__ = [
    "erf",
    "erf_inv",
    "folded_normal_mean",
    "axial_stretch",
    "axial_stretch_deriv",
    "limit_support",
    "erf_log_slope",
    "ball_volume",
]

SQRT_PI = math.sqrt(math.pi)
SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT_HALF_PI = math.sqrt(math.pi / 2.0)
# a |w| beyond which exp(-w^2/2) is 0.0 (it is from 38.6 on)
_GAUSS_CUTOFF = 64.0


def gauss_tail(w):
    """``exp(-w^2/2)``, with |w| clipped at _GAUSS_CUTOFF so that w^2 cannot
    overflow; the clip changes no value."""
    return np.exp(-0.5 * np.minimum(np.abs(w), _GAUSS_CUTOFF) ** 2)


def _finite(name: str, value) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return arr


def binary_exponent(values) -> int:
    """The binary exponent of the largest |value| (0 for none or zeros):
    scaling by 2^-exponent keeps the squares of values finite."""
    return int(np.frexp(np.max(np.abs(values), initial=0.0))[1])


def scaled_norm(v, axis=None):
    """``np.linalg.norm(v, axis=axis)``, taken of v scaled by a power of two
    so that its squares cannot overflow; the scaling changes no value."""
    v = np.asarray(v, dtype=float)
    e = binary_exponent(v)
    return np.ldexp(np.linalg.norm(np.ldexp(v, -e), axis=axis), e)


def erf(t):
    """Gauss error function, vectorized.

    Backed by ``scipy.special.erf`` (Cephes rational approximations,
    relative error below 1e-15 in double precision).  The test suite
    cross-checks it against adaptive quadrature of the defining integral.
    """
    return special.erf(_finite("t", t))


def erf_inv(p):
    """Inverse of :func:`erf` on the open interval (-1, 1).

    Round-trips satisfy ``|erf(erf_inv(p)) - p| <= 1e-10`` over the domain;
    values with ``|p| >= 1`` are rejected.
    """
    arr = _finite("p", p)
    if np.any(np.abs(arr) >= 1.0):
        raise ValueError("erf_inv requires |p| < 1")
    return special.erfinv(arr)


def folded_normal_mean(mu, sigma):
    """Mean of |X| for X ~ N(mu, sigma^2), sigma > 0.

    Closed form::

        E|X| = sigma*sqrt(2/pi)*exp(-mu^2/(2 sigma^2)) + mu*erf(mu/(sqrt(2) sigma))

    Reduces to ``sigma*sqrt(2/pi)`` at mu = 0 and behaves like |mu| as
    |mu|/sigma grows.
    """
    mu = _finite("mu", mu)
    sigma = _finite("sigma", sigma)
    if np.any(sigma <= 0):
        raise ValueError("sigma must be positive")
    z = mu / sigma
    return sigma * math.sqrt(2.0 / math.pi) * gauss_tail(z) + mu * special.erf(
        z / math.sqrt(2.0)
    )


def axial_stretch(s):
    """Support gain of a Gaussian zonoid along its mean axis.

    ``axial_stretch(s) = exp(-s^2/2) + sqrt(pi/2) * s * erf(s/sqrt(2))`` is the
    factor by which shifting a standard Gaussian by ``s`` along an axis
    stretches the zonoid's support in that direction (normalized so the value
    at 0 is 1).  Even in ``s``, strictly increasing on s >= 0, and asymptotic
    to ``sqrt(pi/2)*|s|``.
    """
    s = _finite("s", s)
    return gauss_tail(s) + SQRT_HALF_PI * s * special.erf(s / math.sqrt(2.0))


def axial_stretch_deriv(s):
    """Derivative of :func:`axial_stretch`: ``sqrt(pi/2) * erf(s/sqrt(2))``."""
    s = _finite("s", s)
    return SQRT_HALF_PI * special.erf(s / math.sqrt(2.0))


def limit_support(x, z):
    """Support function of the limit body of normalized Gaussian zonoids.

    ``limit_support(x, z) = |z| * exp(-x^2/(pi z^2)) + x * erf(x/(sqrt(pi) |z|))``

    with the continuous extension ``|x|`` at z = 0.  Positively homogeneous of
    degree 1 and even in each argument separately.  Its minimum over the unit
    circle is the universal constant returned by
    :func:`gausszonoids.geometry.limit_body_inradius` (about 0.9103).
    """
    x = _finite("x", x)
    z = _finite("z", z)
    x, z = np.broadcast_arrays(x, z)
    # scale out the larger coordinate so the exponent ratio never hits 0/0,
    # even for subnormal inputs
    scale = np.maximum(np.abs(x), np.abs(z))
    pos = scale > 0
    xs = x / np.where(pos, scale, 1.0)
    zs = np.abs(z) / np.where(pos, scale, 1.0)
    zsafe = np.where(zs > 0, zs, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = np.where(zs > 0, xs / (SQRT_PI * zsafe), np.where(xs >= 0, np.inf, -np.inf))
        core = zs * np.exp(-xs * xs / (math.pi * zsafe * zsafe)) + xs * special.erf(t)
    core = np.where(zs > 0, core, np.abs(xs))
    out = np.where(pos, scale * core, 0.0)
    return out if out.ndim else float(out)


def erf_log_slope(t):
    """Logarithmic slope ``t * erf'(t) / erf(t)`` of the error function, t > 0.

    Equals ``(2/sqrt(pi)) * t * exp(-t^2) / erf(t)``; tends to 1 as t -> 0+ and
    is strictly decreasing on (0, inf), which is what forces the normalized
    zonoid profiles to shrink monotonically with the mean offset.
    """
    t = _finite("t", t)
    if np.any(t <= 0):
        raise ValueError("erf_log_slope requires t > 0")
    return (2.0 / SQRT_PI) * t * np.exp(-t * t) / special.erf(t)


def ball_volume(m: int) -> float:
    """Volume of the unit ball in R^m: ``pi^(m/2) / Gamma(m/2 + 1)``.

    Defined for integer m >= 0 (``ball_volume(0) == 1``), and satisfies the
    recurrence ``ball_volume(m) = ball_volume(m-2) * 2*pi/m``.
    """
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ValueError(f"dimension must be a nonnegative integer, got {m!r}")
    # parity recursion keeps the low dimensions exact (2.0, pi, 4 pi/3, ...)
    val = 1.0 if m % 2 == 0 else 2.0
    for j in range(m, 1, -2):
        val *= 2.0 * math.pi / j
    return val


def factorial(n: int) -> float:
    """n! as a float, for the dimension constants; from n = 171 on it
    overflows a float, and raises ValueError."""
    if n > 170:
        raise ValueError(f"{n}! overflows a float (170! is the largest that fits)")
    return float(math.factorial(n))


def bisect(f, a, b, fa, steps: int):
    """Halve the brackets [a, b] of sign changes of f ``steps`` times, all at once.

    ``a``, ``b`` and ``fa = f(a)`` are arrays of equal shape, and ``f`` maps an
    array of abscissae to values elementwise.  Each step keeps the half whose
    ends have opposite signs, so the returned midpoints lie within
    ``(b - a) / 2^(steps + 1)`` of a sign change.  Without brackets, f is never called.
    """
    for _ in range(steps if np.size(a) else 0):
        mid = 0.5 * (a + b)
        fm = f(mid)
        same = (fm < 0.0) == (fa < 0.0)
        a = np.where(same, mid, a)
        fa = np.where(same, fm, fa)
        b = np.where(same, b, mid)
    return 0.5 * (a + b)
