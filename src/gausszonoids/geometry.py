"""Bodies of revolution attached to Gaussian vectors.

The zonoid of an integrable random vector X in R^m is the centered convex
body with support function h(u) = (1/2) E|<u, X>|.  For X = c + xi with xi
standard Gaussian, the zonoid is a body of revolution about the axis c, so
every quantity reduces to the plane spanned by (axis, radial) coordinates.
Directions are therefore passed as pairs (x, yr): x along the mean axis,
yr >= 0 the radial part.

Four bodies are exposed, one per entry of :data:`BODY_KINDS`, named by the
``kind`` of :class:`RevolutionBody`: the gaussian zonoid, its normalized
form, their limit and the outer ellipsoid.

The normalized bodies shrink strictly with s and are sandwiched between the
limit body and the unit ball; rescaling back gives the two-sided ellipsoid
sandwich checked by :func:`check_inclusion`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np
from scipy import special

from .kernels import (
    SQRT_2PI,
    SQRT_HALF_PI,
    SQRT_PI,
    axial_stretch,
    ball_volume,
    bisect,
    erf_inv,
    gauss_tail,
    limit_support,
    scaled_norm,
)
from .montecarlo import grid_map, stream

__all__ = [
    "Direction",
    "BODY_KINDS",
    "KINDS",
    "RevolutionBody",
    "gaussian_support",
    "ellipsoid_support",
    "normalized_support",
    "gaussian_gradient",
    "boundary_profile",
    "gaussian_volume",
    "volume",
    "VolumeBounds",
    "volume_bounds",
    "volume_asymptote",
    "limit_boundary_radius",
    "limit_body_inradius",
    "limit_inradius_angle",
    "limit_inradius_grid",
    "sandwich_constant",
    "mean_stretch_matrix",
    "GaussianVector",
    "InclusionReport",
    "check_inclusion",
]

class Direction(NamedTuple):
    """Reduced direction: component along the mean axis and radial norm."""

    x: float
    yr: float


def _check_dir(x, yr):
    x = np.asarray(x, dtype=float)
    yr = np.asarray(yr, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(yr))):
        raise ValueError("directions must be finite")
    if np.any(yr < 0):
        raise ValueError("radial component yr must be nonnegative")
    return np.broadcast_arrays(x, yr)


def _check_s(s, positive=False):
    s = float(s)
    if not math.isfinite(s):
        raise ValueError("mean offset s must be finite")
    if positive and s <= 0:
        raise ValueError("mean offset s must be positive")
    if s < 0:
        raise ValueError("mean offset s must be nonnegative")
    if SQRT_HALF_PI * s == math.inf:  # axial_stretch(s), the ellipsoid's axis
        raise ValueError(f"mean offset s = {s!r} stretches the mean axis past the largest float")
    return s


def gaussian_support(s, x, yr):
    """Support function of the Gaussian zonoid with mean offset s >= 0.

    In reduced coordinates, with sigma = hypot(x, yr)::

        h(x, yr) = sigma/sqrt(2 pi) * exp(-x^2 s^2 / (2 sigma^2))
                   + (x s / 2) * erf(x s / (sqrt(2) sigma))

    This is half the folded-normal mean of <u, c + xi>.  The zero direction
    returns 0.  At s = 0 the body is the ball of radius 1/sqrt(2 pi).
    """
    s = _check_s(s)
    x, yr = _check_dir(x, yr)
    sigma = np.hypot(x, yr)
    safe = np.where(sigma > 0, sigma, 1.0)
    w = x * s / safe
    h = sigma / SQRT_2PI * gauss_tail(w) + 0.5 * x * s * special.erf(
        w / math.sqrt(2.0)
    )
    out = np.where(sigma > 0, h, 0.0)
    return out if out.ndim else float(out)


def ellipsoid_support(s, x, yr):
    """Support of the outer ellipsoid: axis semi-length axial_stretch(s)/sqrt(2 pi),
    radial semi-length 1/sqrt(2 pi)."""
    s = _check_s(s)
    x, yr = _check_dir(x, yr)
    lam = float(axial_stretch(s))
    out = np.hypot(lam * x, yr) / SQRT_2PI
    return out if out.ndim else float(out)


def normalized_support(s, x, yr):
    """Support of the normalized zonoid (inverse-stretched, rescaled), s > 0.

    Equals ``sqrt(2 pi) * gaussian_support(s, x/axial_stretch(s), yr)``; takes
    the value 1 at the poles (x, 0) and on the equator (0, yr) for unit
    directions, decreases strictly in s, and converges to
    :func:`gausszonoids.kernels.limit_support` as s -> inf.
    """
    s = _check_s(s, positive=True)
    x, yr = _check_dir(x, yr)
    lam = float(axial_stretch(s))
    d = np.hypot(x, lam * yr)
    safe = np.where(d > 0, d, 1.0)
    beta = x * s / safe
    out = np.where(d > 0, d / lam * axial_stretch(beta), 0.0)
    return out if out.ndim else float(out)


def gaussian_gradient(s, x, yr):
    """Gradient (d h/d x, d h/d yr) of :func:`gaussian_support`.

    The cross terms of the raw differentiation cancel exactly, leaving::

        h_x = (x/sigma) * exp(-w^2/2)/sqrt(2 pi) + (s/2) * erf(w/sqrt(2))
        h_yr = (yr/sigma) * exp(-w^2/2)/sqrt(2 pi),       w = x s / sigma

    so the boundary point with outer normal (x, yr) is (h_x, h_yr).  Requires
    (x, yr) != 0.
    """
    s = _check_s(s)
    x, yr = _check_dir(x, yr)
    sigma = np.hypot(x, yr)
    if np.any(sigma == 0):
        raise ValueError("gradient undefined at the zero direction")
    w = x * s / sigma
    e = gauss_tail(w) / SQRT_2PI
    gx = x / sigma * e + 0.5 * s * special.erf(w / math.sqrt(2.0))
    gy = yr / sigma * e
    return gx, gy


def _boundary_ellipsoid(s, theta):
    lam = float(axial_stretch(s))
    x, yr = np.cos(theta), np.sin(theta)
    # lam * lam would overflow from s = 1.1e154, and SQRT_2PI * lam from
    # s = 5.7e307: the radial quotient is taken with both sides quartered,
    # which rounds as the plain one does
    radial = 0.25 * yr / (SQRT_2PI * np.hypot(0.25 * lam * x, 0.25 * yr))
    return lam * x / (SQRT_2PI * np.hypot(x, yr / lam)), radial


def _boundary_normalized(s, theta):
    # gradients are 0-homogeneous, so evaluate the gaussian gradient at the
    # pulled-back (non-unit) direction and apply the chain rule of the
    # inverse stretch map.
    lam = float(axial_stretch(s))
    gx, gy = gaussian_gradient(s, np.cos(theta) / lam, np.sin(theta))
    return SQRT_2PI * gx / lam, SQRT_2PI * gy


def _boundary_limit(theta):
    x, z = np.cos(theta), np.sin(theta)
    pole = z == 0
    safe = np.where(pole, 1.0, z)
    ax = np.where(pole, np.sign(x), special.erf(x / (SQRT_PI * safe)))
    rad = np.where(pole, 0.0, np.exp(-x * x / (math.pi * safe * safe)))
    return ax, rad


# the offset from which gaussian_volume is linear in s (for m >= 2)
_LINEAR_S = 1e8


def gaussian_volume(dim: int, s):
    """Volume of the gaussian body G(s) in R^dim, vectorized over s >= 0.

    The meridian integral ``kappa_{m-1}/(2 pi)^(m/2) * int_0^pi sin^m t
    (1 + s^2 sin^2 t) exp(-m s^2 cos^2 t / 2) dt`` is an Euler integral for
    1F1 (DLMF 13.4.1).  With a = (m-1)/2 and c = m s^2/2::

        vol = kappa_{m-1}/(2 pi)^(m/2) * [B(1/2, a+1) 1F1(1/2; a+3/2; -c)
                                          + s^2 B(1/2, a+2) 1F1(1/2; a+5/2; -c)]

    Dimensions 1 and 2 use cheaper forms of the same function (hyp1f1 costs
    about five times as much per point as the Bessel pair):
    ``2 axial_stretch(s)/sqrt(2 pi)`` and ``(z + 1/2) i0e(z) + z i1e(z)`` with
    z = s^2/2.  Against mpmath the relative error is below 1e-15 for m = 1, 2
    and below 2e-14 for m = 3 to 20 (47 ulp at m = 3, scipy's ``hyp1f1``).
    For m >= 2 and s >= _LINEAR_S it is ``volume_asymptote(m) * s``, within
    c_m/s^2 < 1e-16 relative, where the closed forms lose digits and overflow.
    """
    m = int(dim)
    s = np.asarray(s, dtype=float)
    if m == 1:  # 2 * lam would overflow from s = 7.2e307
        return 2.0 * (axial_stretch(s) / SQRT_2PI)
    far = s >= _LINEAR_S
    if np.any(far):
        near = gaussian_volume(m, np.where(far, 0.0, s))
        return np.where(far, volume_asymptote(m) * s, near)[()]
    if m == 2:
        z = 0.5 * s * s
        return (z + 0.5) * special.i0e(z) + z * special.i1e(z)
    a = 0.5 * (m - 1)
    c = 0.5 * m * s * s
    return ball_volume(m - 1) / (2 * math.pi) ** (m / 2) * (
        special.beta(0.5, a + 1.0) * special.hyp1f1(0.5, a + 1.5, -c)
        + s * s * special.beta(0.5, a + 2.0) * special.hyp1f1(0.5, a + 2.5, -c)
    )


def _stretched_volume(m: int, s, vol):
    """``axial_stretch(s) * vol / (2 pi)^(m/2)``: the volume of a body of
    volume vol in R^m, stretched by axial_stretch(s) along its axis and
    scaled by 1/sqrt(2 pi).  The product runs at an eighth of its scale,
    which rounds as the plain one does, so that it stays finite for vol <= 8
    (the ball and the limit body) up to the largest stretch."""
    return 8.0 * (axial_stretch(s) * 0.125 * vol / (2 * math.pi) ** (m / 2))


class BodyKind(NamedTuple):
    """The functions of one body kind, in reduced coordinates."""

    support: Callable  # (s, x, yr) -> support value
    boundary: Callable  # (s, theta) -> (axial, radial) point of outer normal (cos, sin)
    volume: Callable  # (dim, s) -> volume, vectorized over s


# The entries look axial_stretch and limit_support up when called, so a
# wrapper bound to those module names sees every call.
BODY_KINDS = {
    # the zonoid of c + xi, with s = |c|; volume :func:`gaussian_volume`
    "gaussian": BodyKind(
        gaussian_support,
        lambda s, theta: gaussian_gradient(s, np.cos(theta), np.sin(theta)),
        gaussian_volume,
    ),
    # the gaussian body pulled back through the inverse stretch map and
    # rescaled by sqrt(2 pi), so it touches the unit sphere at the poles and
    # the equator; volume (2 pi)^(m/2)/axial_stretch(s) times the gaussian's
    "normalized": BodyKind(
        normalized_support,
        _boundary_normalized,
        lambda m, s: (2 * math.pi) ** (m / 2) / axial_stretch(s) * gaussian_volume(m, s),
    ),
    # the limit of the normalized bodies as s -> inf; radial profile
    # exp(-erf_inv(A)^2), and A = erf(u) leaves a Gaussian integral: volume
    # 2*kappa_{m-1}/sqrt(m)
    "limit": BodyKind(
        lambda s, x, yr: limit_support(x, yr),
        lambda s, theta: _boundary_limit(theta),
        lambda m, s: 2.0 * ball_volume(m - 1) / math.sqrt(m),
    ),
    # the outer ellipsoid: the unit ball scaled by 1/sqrt(2 pi) and stretched
    # by axial_stretch(s) along the axis; volume axial_stretch(s)*kappa_m/(2 pi)^(m/2)
    "ellipsoid": BodyKind(
        ellipsoid_support,
        _boundary_ellipsoid,
        lambda m, s: _stretched_volume(m, s, ball_volume(m)),
    ),
}
KINDS = tuple(BODY_KINDS)


@dataclass(frozen=True)
class RevolutionBody:
    """A body of revolution in R^dim described in reduced coordinates."""

    kind: str
    dim: int
    s: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise ValueError("dim must be an integer >= 1")
        if (self.s is None) != (self.kind == "limit"):
            raise ValueError("the limit body takes no mean offset s; the others require one")
        if self.s is not None:
            _check_s(self.s, positive=(self.kind == "normalized"))

    def support(self, x, yr):
        return BODY_KINDS[self.kind].support(self.s, x, yr)

    def boundary(self, theta):
        """Boundary points (axial, radial) with outer normal (cos t, sin t)."""
        return BODY_KINDS[self.kind].boundary(self.s, np.asarray(theta, dtype=float))


def boundary_profile(body: RevolutionBody, n_points: int = 181) -> np.ndarray:
    """Sample the boundary meridian at angles theta in [0, pi].

    Returns an (n_points, 3) array with columns (theta, axial, radial); the
    radial column is 0 at both poles and the axial column decreases strictly,
    which is how convexity shows up in this parametrization.
    """
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    theta = np.linspace(0.0, math.pi, n_points)
    ax, rad = body.boundary(theta)
    return np.column_stack([theta, ax, rad])


def volume(body: RevolutionBody) -> float:
    """Volume of the body, in closed form for every kind: the volume of its
    entry in :data:`BODY_KINDS`."""
    return float(BODY_KINDS[body.kind].volume(body.dim, body.s))


class VolumeBounds(NamedTuple):
    lower: float
    lower_sharp: float
    upper: float


def volume_bounds(dim: int, s) -> VolumeBounds:
    """Closed-form two-sided bounds for the gaussian body volume.

    ``upper`` is the outer-ellipsoid volume; ``lower`` shrinks it by
    inradius^dim of the limit body; ``lower_sharp`` is the sharper bound
    axial_stretch(s) * 2*kappa_{m-1} / (sqrt(m) (2 pi)^(m/2)) coming from the
    limit-body volume, and dominates ``lower`` for every dim.
    """
    s, m = _check_s(s), int(dim)
    upper = float(BODY_KINDS["ellipsoid"].volume(m, s))
    lower = limit_body_inradius() ** m * upper
    limit = BODY_KINDS["limit"].volume(m, s)
    lower_sharp = float(_stretched_volume(m, s, limit))
    return VolumeBounds(lower=lower, lower_sharp=lower_sharp, upper=upper)


def volume_asymptote(dim: int) -> float:
    """Slope of vol(gaussian body) in s as s -> inf:
    kappa_{m-1} / (sqrt(m) (2 pi)^((m-1)/2))."""
    m = int(dim)
    if m < 1:
        raise ValueError("dim must be >= 1")
    return ball_volume(m - 1) / (math.sqrt(m) * (2 * math.pi) ** ((m - 1) / 2))


def limit_boundary_radius(x):
    """Radial coordinate of the limit-body boundary at axial coordinate x.

    ``f(x) = exp(-erf_inv(x)^2)`` for |x| < 1, extended by f(+-1) = 0.  The
    boundary of the limit body is exactly {(x, f(x) w): |x| <= 1, |w| = 1}.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    if np.any(np.abs(x) > 1):
        raise ValueError("limit profile is defined for |x| <= 1")
    interior = np.abs(x) < 1
    safe = np.where(interior, x, 0.0)
    out = np.where(interior, np.exp(-(erf_inv(safe) ** 2)), 0.0)
    return out if out.ndim else float(out)


# the scan of the first quadrant that brackets the minimum of a support
_QUADRANT = np.linspace(0.0, math.pi / 2, 1001)


def _ring_scan(support, angles, n: int):
    """((least, j), (greatest, j)) of ``support(cos t, sin t)`` at t =
    ``angles(j)``, j < n, scanned slice by slice (:func:`grid_map`); a tie
    goes to the lowest j, whatever the number of threads."""

    def extremes(j):
        t = angles(j)
        h = support(np.cos(t), np.sin(t))
        lo, hi = int(np.argmin(h)), int(np.argmax(h))
        return (float(h[lo]), int(j[lo])), (float(h[hi]), int(j[hi]))

    lows, highs = zip(*grid_map(extremes, n))
    return min(lows, key=lambda e: e[0]), max(highs, key=lambda e: e[0])


def _ring_minimum(support, boundary):
    """(t, h(t)) at the one minimum of h(t) = ``support(cos t, sin t)`` on [0,
    pi/2].  The least value of the _QUADRANT scan and its neighbours bracket
    it, and bisection on the sign of h'(t) = -sin t * A + cos t * R, with (A, R)
    = ``boundary(t)`` the boundary point of normal angle t, narrows the bracket
    to adjacent floats, where h is within 2 ulp of its minimum."""
    (_, i), _ = _ring_scan(support, _QUADRANT.__getitem__, _QUADRANT.size)
    a, b = _QUADRANT[[max(i - 1, 0), min(i + 1, _QUADRANT.size - 1)]]

    def slope(t, _):
        ax, rad = boundary(t)
        return -np.sin(t) * ax + np.cos(t) * rad

    # the slope is negative left of the minimum (0 at a pole): all bisect reads of fa
    t = float(bisect(slope, np.array([a]), np.array([b]), np.array([-1.0]))[0])
    return t, float(support(math.cos(t), math.sin(t)))


@lru_cache(maxsize=None)
def limit_inradius_angle() -> float:
    """Angle on the unit circle where the limit support attains its minimum,
    near 0.61044: a 1000-cell scan brackets it, bisected to adjacent floats."""
    return _ring_minimum(limit_support, _boundary_limit)[0]


def limit_body_inradius() -> float:
    """Radius of the largest centered ball inside the limit body, the
    universal constant b-infinity: the minimum of its support function over
    the unit circle, near 0.91035.  At t = :func:`limit_inradius_angle` it
    is cos t * A + sin t * R, with (A, R) the boundary point of normal angle t,
    which rounds correctly there; ``limit_support`` reads 3 ulp high.
    """
    t = limit_inradius_angle()
    ax, rad = _boundary_limit(t)
    return float(math.cos(t) * ax + math.sin(t) * rad)


def limit_inradius_grid(n: int = 1_000_000) -> float:
    """Independent check of :func:`limit_body_inradius`: plain minimum of the
    limit support over an n-point first-quadrant grid, taken slice by slice.

    Each slice computes its own angles j * step, the last of n >= 2 exactly
    pi/2: ``np.linspace(0, pi/2, n)`` bit for bit, with no array of all n.
    n = 1 scans the pole alone; n < 1 raises ValueError."""
    if n < 1:
        raise ValueError(f"the grid needs n >= 1 points, got n = {n}")
    step = 0.5 * math.pi / max(n - 1, 1)

    def angles(j):
        t = j * step
        if n > 1:
            t[j == n - 1] = 0.5 * math.pi
        return t

    return _ring_scan(limit_support, angles, n)[0][0]


def _meridian_minimum(s: float):
    if s == 0.0:  # both bodies are the ball
        return 0.0, 1.0
    return _ring_minimum(partial(normalized_support, s), partial(_boundary_normalized, s))


def sandwich_constant(s) -> float:
    """The sandwich constant b(s) = min over unit u of h_G(u)/h_E(u), s >= 0:
    the inradius of the normalized body, so that b(s) E(s) is inside G(s).

    Both supports are homogeneous of degree 1, and the normalized support at
    (cos t, sin t) is their ratio at the direction with the mean axis shrunk
    by axial_stretch(s), so b(s) is the minimum of ``normalized_support(s, cos
    t, sin t)`` over t in [0, pi/2]: a 1000-cell scan brackets it, and bisection
    on its slope narrows it to adjacent floats, within 2 ulp of mpmath.  b(0) = 1,
    and b falls strictly to :func:`limit_body_inradius` as s grows:
    1 - b(s) ~ 0.02 s^4 near 0, and b(s) - b-infinity ~ 0.195/s^2.
    """
    return _meridian_minimum(_check_s(s))[1]


def mean_stretch_matrix(c: np.ndarray) -> np.ndarray:
    """Symmetric map stretching the c-axis by axial_stretch(|c|), identity on
    the orthogonal complement.  Returns the identity for c = 0."""
    c = np.asarray(c, dtype=float)
    if c.ndim != 1:
        raise ValueError("c must be a vector")
    if not np.all(np.isfinite(c)):
        raise ValueError("c must be finite")
    m = c.shape[0]
    norm = _check_s(scaled_norm(c))
    eye = np.eye(m)
    if norm == 0.0:
        return eye
    unit = c / norm
    return eye + (float(axial_stretch(norm)) - 1.0) * np.outer(unit, unit)


@dataclass(frozen=True)
class GaussianVector:
    """X = matrix @ (mean + xi) with xi standard Gaussian in R^m.

    The zonoid of X is the image of the gaussian body under ``matrix``; its
    support function at u reduces to the axial pair of matrix^T u relative to
    the mean direction.
    """

    matrix: np.ndarray
    mean: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=float)
        mu = np.array(self.mean, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.size == 0:
            raise ValueError("matrix must be square and at least 1 x 1")
        if mu.shape != (mat.shape[0],):
            raise ValueError("mean must be a vector matching the matrix size")
        if not (np.all(np.isfinite(mat)) and np.all(np.isfinite(mu))):
            raise ValueError("matrix and mean must be finite")
        sv = np.linalg.svd(mat, compute_uv=False)
        if sv[-1] <= 1e-12 * sv[0]:
            raise ValueError("matrix is numerically singular")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "mean", mu)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def mean_norm(self) -> float:
        return float(scaled_norm(self.mean))

    def support(self, u):
        """Zonoid support function (1/2) E|<u, X>| at u (vector or batch)."""
        u = np.asarray(u, dtype=float)
        if not np.all(np.isfinite(u)):
            raise ValueError("u must be finite")
        v = u @ self.matrix
        s = self.mean_norm
        # at s = 0 every direction is radial and the body is the ball
        unit = self.mean / s if s > 0 else np.zeros(self.dim)
        x = v @ unit
        yr = np.linalg.norm(np.atleast_2d(v - np.multiply.outer(x, unit)), axis=-1)
        h = gaussian_support(s, np.atleast_1d(x), yr)
        return float(h[0]) if u.ndim == 1 else np.asarray(h).reshape(u.shape[:-1])

    def ellipsoid_matrix(self) -> np.ndarray:
        """Shape matrix of the outer ellipsoid (unit-ball image), before the
        common 1/sqrt(2 pi) scale."""
        return self.matrix @ mean_stretch_matrix(self.mean)


# rounding allowance on both sides of the sandwich in check_inclusion
_INCLUSION_SLACK = 1e-12


@dataclass(frozen=True)
class InclusionReport:
    """Outcome of :func:`check_inclusion`: the least and greatest ratio h_G/h_E,
    and the unit direction where the ratio comes closest to a side."""

    dim: int
    s: float
    n_dirs: int
    seed: int
    min_ratio_lower: float
    max_ratio_upper: float
    worst_direction: Direction
    limit_inradius: float
    slack: float
    passed: bool

    def as_dict(self) -> dict:
        return dict(self.__dict__, worst_direction=self.worst_direction._asdict())


def check_inclusion(dim: int, s, n_dirs: int = 10_000, seed: int = 0) -> InclusionReport:
    """Verify the two-sided ellipsoid sandwich b-infinity <= h_G/h_E <= 1.

    The ratio depends on the meridian angle only: at the direction with the
    mean axis shrunk by axial_stretch(s) from (cos t, sin t), it is
    ``normalized_support(s, cos t, sin t)``, t in [0, pi/2] by symmetry.  Its
    least value is :func:`sandwich_constant`; only the greatest is scanned, at
    the pole, on the equator and at the angles (j + U) (pi/2)/n_dirs, j <
    n_dirs, with U one uniform draw of ``stream(seed, 0)``.  In one dimension
    (only the poles) and at s = 0 (two balls) the ratio is 1.  Both extremes
    must lie in [inradius - 1e-12, 1 + 1e-12]; a violation does not raise, it
    is returned as a failing report with the worst direction as witness.
    """
    s = _check_s(s)
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if n_dirs < 1:
        raise ValueError("n_dirs must be >= 1")
    b = limit_body_inradius()
    u = stream(seed, 0).random()
    step = 0.5 * math.pi / n_dirs

    def angles(j):  # index 0 is the pole, n_dirs + 1 the equator
        return np.clip((j - 1 + u) * step, 0.0, 0.5 * math.pi)

    ratio = partial(normalized_support, s) if dim > 1 and s else lambda x, yr: np.ones_like(x)
    t_lo, lo = _meridian_minimum(s if dim > 1 else 0.0)
    _, (hi, k) = _ring_scan(ratio, angles, n_dirs + 2)
    t = float(angles(np.array([k]))[0]) if 1.0 - hi < lo - b else t_lo
    x, yr = math.cos(t) / float(axial_stretch(s)), math.sin(t)
    return InclusionReport(
        dim=int(dim),
        s=s,
        n_dirs=int(n_dirs),
        seed=int(seed),
        min_ratio_lower=lo,
        max_ratio_upper=hi,
        worst_direction=Direction(x / math.hypot(x, yr), yr / math.hypot(x, yr)),
        limit_inradius=b,
        slack=_INCLUSION_SLACK,
        passed=(lo >= b - _INCLUSION_SLACK) and (hi <= 1.0 + _INCLUSION_SLACK),
    )
