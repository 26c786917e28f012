"""Scalar kernels shared by the zonoid geometry and random-field modules.

Conventions used throughout the package:

* ``erf(t) = 2/sqrt(pi) * integral_0^t exp(-u^2) du``
* ``ball_volume(m)`` is the Lebesgue volume of the unit ball in R^m.

Everything here is elementary, a range-checked wrapper over
``scipy.special``, or one of the two array routines the package shares:
the bisection and the piecewise evaluation of an elementwise function.  The
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
    """``np.linalg.norm(v, axis=axis)``, taken of each vector scaled by the
    power of two of its largest entry, so that its squares can neither
    overflow nor all underflow; the scaling changes no value."""
    v = np.asarray(v, dtype=float)
    e = np.frexp(np.max(np.abs(v), axis=axis, keepdims=True, initial=0.0))[1]
    norm = np.linalg.norm(np.ldexp(v, -e), axis=axis, keepdims=True)
    return np.squeeze(np.ldexp(norm, e), axis=axis)


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
    to ``sqrt(pi/2)*|s|``, which it equals in floats from |s| = 8.38 on.
    """
    return _axial_stretch(_finite("s", s))


# the |s| from which axial_stretch(s) is sqrt(pi/2)*|s| bit for bit: there
# erf(s/sqrt 2) rounds to +-1 and exp(-s^2/2) is below half an ulp of the
# sum (both hold from 8.3744 on)
_LINEAR_STRETCH = 8.38


def _axial_stretch(s, scale=1.0):
    """``scale * axial_stretch(s)`` of a float array, unchecked.  scale is a
    power of two, so it changes no bits; at 1/8, the scale of the ellipsoid's
    volume, of the 1-D gaussian volume and of the normalized volume, the
    stretch of every finite s is finite.

    The linear range |s| >= _LINEAR_STRETCH is ``sqrt(pi/2)*|s|`` with no exp
    or erf; the rest takes the full formula, whose exp needs no clip there."""
    gain = SQRT_HALF_PI * scale

    def near(s):
        lam = np.exp(-0.5 * (s * s))
        if scale != 1.0:
            lam *= scale
        slope = special.erf(s / math.sqrt(2.0))
        slope *= gain * s
        lam += slope
        return lam

    return piecewise(s, _LINEAR_STRETCH, lambda s: gain * np.abs(s), near)


def piecewise(x, edge, f_far, f_near):
    """``f_far(x)`` where |x| >= edge and ``f_near(x)`` elsewhere (NaN
    included), for elementwise f_far and f_near.  A batch on one side is
    passed whole, found by its least and greatest x with no mask; a 0-d x
    needs no reduction."""
    x = np.asarray(x)
    if not x.ndim:
        return f_far(x) if abs(x) >= edge else f_near(x)
    lo, hi = x.min(initial=math.inf), x.max(initial=-math.inf)
    if -edge < lo and hi < edge:
        return f_near(x)
    if lo >= edge or hi <= -edge:
        return f_far(x)
    far = np.abs(x) >= edge
    out = np.empty_like(x)
    out[far] = f_far(x[far])
    near = ~far
    out[near] = f_near(x[near])
    return out


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
    x, z = np.broadcast_arrays(_finite("x", x), _finite("z", z))
    out = np.where((x == 0.0) & (z == 0.0), 0.0, _limit_support(x, z))
    return out if out.ndim else float(out)


def _limit_support(x, z):
    """:func:`limit_support` of two float arrays of one shape, unchecked and
    NaN at the zero direction.

    The larger coordinate is scaled out, so the exponent ratio never hits
    0/0, even for subnormal inputs.  At z = 0 the ratio x/(sqrt(pi) |z|) is
    +-inf and the value |x|, with no case of its own."""
    scale = np.maximum(np.abs(x), np.abs(z))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        xs = x / scale
        zs = np.abs(z) / scale
        core = zs * np.exp(-xs * xs / (math.pi * zs * zs)) + xs * special.erf(xs / (SQRT_PI * zs))
    return scale * core


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


def bisect(f, a, b, fa):
    """Halve the brackets [a, b] of sign changes of f, all at once, until each
    is two adjacent floats: its midpoint, returned, rounds to one of its ends.

    ``a <= b`` and ``fa = f(a)`` are 1-D arrays of equal length; ``f(t, i)`` maps
    the midpoints t of the open brackets numbered i to values elementwise.
    """
    a, b, i = np.array(a, dtype=float), np.array(b, dtype=float), np.arange(np.size(a))
    neg = np.asarray(fa) < 0.0  # the sign at a, which a keeps
    while True:
        mid = 0.5 * (a[i] + b[i])
        inner = (a[i] < mid) & (mid < b[i])
        i, mid = i[inner], mid[inner]
        if not i.size:
            return 0.5 * (a + b)
        same = (f(mid, i) < 0.0) == neg[i]
        a[i[same]] = mid[same]
        b[i[~same]] = mid[~same]
