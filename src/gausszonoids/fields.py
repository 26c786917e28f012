"""Zero sets of a deterministic field shifted by small Gaussian noise.

On the flat torus T^m, let X = phi + tau * g where g is the standard
Gaussian harmonic field (on the circle: g(t) = xi1 cos t + xi2 sin t).  At
every point p the expected-zero density of X is governed by a section body::

    zeta(p) = exp(-phi(p)^2 / (2 tau^2)) / sqrt(2 pi) * G(grad phi(p) / tau)

where G(c) is the Gaussian zonoid with mean offset |c|.  The expected number
of zeros of X inside the tube U_r = {|phi| < r} is
``m! * integral_{U_r} vol_m(zeta(p)) dp``, computable three independent ways
(tube quadrature, coarea reduction for fields depending on one coordinate,
and direct Monte Carlo root counting).  As tau -> 0 with r = alpha * tau the
count concentrates on the zero set of phi with the closed-form limit of
:func:`concentration_limit`.
"""
from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from ._tube import (
    GridResolutionError,
    _dphi,
    _fold_breaks,
    _grad_norm,
    _row_panels,
    _section_volume_vec,
    _tube_rows,
    _x2_quad,
)
from .geometry import GaussianVector, gaussian_volume, limit_body_inradius
from .kernels import SQRT_2PI, ball_volume, factorial
from .montecarlo import EstimateWithCI, MCConfig, grid_map, mc_mean

__all__ = [
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


@dataclass(frozen=True)
class AxisProfile:
    """Level-set data for a field depending on the first coordinate only.

    ``slopes_at_level(v)`` returns |F'| at every root of F(x) = v on one
    period; ``level_max`` is the smallest critical value of |F|, the ceiling
    below which all levels are regular.
    """

    slopes_at_level: Callable[[float], np.ndarray]
    level_max: float


@dataclass(frozen=True)
class ScalarFieldSpec:
    """Deterministic field on the flat torus T^dim.

    ``phi`` maps point arrays of shape (..., dim) to values (...); ``grad``
    returns the gradient with shape (..., dim).  ``axis`` is set when the
    field depends on the first coordinate only (enables the coarea path);
    ``zero_set_measure`` is vol_{dim-1} of {phi = 0} when known.
    """

    dim: int
    phi: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    name: str = ""
    axis: AxisProfile | None = None
    zero_set_measure: float | None = None

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise ValueError("dim must be an integer >= 1")


def sine_field(frequency: int = 2, dim: int = 1) -> ScalarFieldSpec:
    """phi(p) = sin(frequency * p_1) on T^dim, with closed-form level data."""
    k = int(frequency)
    if k < 1:
        raise ValueError("frequency must be a positive integer")
    if dim < 1:
        raise ValueError("dim must be >= 1")

    def phi(p):
        p = np.asarray(p, dtype=float)
        return np.sin(k * p[..., 0])

    def grad(p):
        p = np.asarray(p, dtype=float)
        g = np.zeros_like(p)
        g[..., 0] = k * np.cos(k * p[..., 0])
        return g

    def slopes(v: float) -> np.ndarray:
        if abs(v) >= 1.0:
            raise ValueError("level outside the regular range")
        return np.full(2 * k, k * math.sqrt(1.0 - v * v))

    measure = 2.0 * k * (2.0 * math.pi) ** (dim - 1)
    return ScalarFieldSpec(
        dim=int(dim),
        phi=phi,
        grad=grad,
        name=f"sin{k}" + (f"-{dim}d" if dim > 1 else ""),
        axis=AxisProfile(slopes_at_level=slopes, level_max=1.0),
        zero_set_measure=measure,
    )


# the smallest noise scale whose square is a normal float; below it tau^2
# loses digits and then underflows to 0
_TAU_MIN = math.sqrt(sys.float_info.min)


def _check_tau(tau: float):
    if not (math.isfinite(tau) and tau >= _TAU_MIN):
        raise ValueError(f"tau must be positive and finite, and at least {_TAU_MIN:.3g}")


@dataclass(frozen=True)
class TubeSpec:
    """Noise scale tau and tube half-width r (math.inf = whole domain)."""

    tau: float
    r: float

    def __post_init__(self):
        _check_tau(self.tau)
        if not self.r > 0:
            raise ValueError("r must be positive (math.inf allowed)")


# the most cells per axis of any grid, and of the grids on the circle that
# the tube integral and the zero-count scan choose
_MAX_CELLS_1D = 1 << 22


@dataclass(frozen=True)
class GridSpec:
    """Quadrature grid: cells along x1, the n of a row.

    The tube integral runs row by row.  The circle is one row; on the torus
    T^2 the rule in x2 of the integral picks its own rows, and ``resolution``
    does not set how many.  Each row is cut into n cells of width 2 pi / n
    along x1 and scanned once, phi being evaluated at the n + 1 edges: a
    cell is split where it crosses the tube boundary twice, every cell is
    clipped to the tube, bisecting the crossing in a cell whose edges
    disagree, and the clipped cell gets 12-point Gauss-Legendre.  With
    r = inf the cells are whole and no edge is evaluated.

    The sandwich's pointwise check runs on the n^dim grid of the points
    2 pi j / n, j < n, along each axis, one slice of flat indices at a time.
    A resolution runs from 16 to _MAX_CELLS_1D, the cap of
    :func:`grid_for_tube` on the circle.
    """

    resolution: int = 4096

    def __post_init__(self):
        if not 16 <= self.resolution <= _MAX_CELLS_1D:
            raise ValueError(f"resolution must be between 16 and {_MAX_CELLS_1D}")


# -- pointwise section body --------------------------------------------------


def _points(field: ScalarFieldSpec, p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape[-1:] != (field.dim,):
        raise ValueError(f"points must have trailing dimension {field.dim}")
    if not np.all(np.isfinite(p)):
        raise ValueError("points must be finite")
    return p


def section_volume(field: ScalarFieldSpec, p, tau: float) -> float:
    """vol_dim of the section body at p: the zonoid of the field's
    first-order germ, damped by the off-level factor exp(-m phi^2/(2 tau^2))."""
    _check_tau(tau)
    (vol,) = _section_volume_vec(field, tau, _points(field, p), ("gaussian",))
    return float(vol)


def section_support(field: ScalarFieldSpec, p, tau: float, u) -> float:
    """Support function of the section body at p in ambient direction u."""
    _check_tau(tau)
    p = _points(field, p)
    u = np.asarray(u, dtype=float)
    if u.shape != (field.dim,) or not np.all(np.isfinite(u)):
        raise ValueError("u must be a finite vector of the field dimension")
    g = np.asarray(field.grad(p), dtype=float).reshape(field.dim)
    scale = math.exp(-float(field.phi(p)) ** 2 / (2.0 * tau * tau)) / SQRT_2PI
    return scale * GaussianVector(np.eye(field.dim), g / tau).support(u)


# -- tube integrals ----------------------------------------------------------


def _check_tensor_dim(field: ScalarFieldSpec):
    if field.dim > 2:
        raise NotImplementedError("tensor-grid integration is implemented for dim <= 2")


def _grad_max(field: ScalarFieldSpec, n: int = 8192) -> float:
    t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    if field.dim == 1:
        pts = t[:, None]
    else:
        coarse = t[:: max(1, n // 256)]
        a, b = np.meshgrid(coarse, coarse, indexing="ij")
        pts = np.stack([a.ravel(), b.ravel()], axis=-1)
    return float(np.max(_grad_norm(field, pts)))


# the resolution rule: a grid has at least this many cells across the tube
_CELLS_ACROSS = 8


def _max_spacing(r: float, gmax: float) -> float:
    """The widest cell the resolution rule allows for the tube {|phi| < r}:
    1/_CELLS_ACROSS of its narrowest width 2 r / max|grad phi|."""
    if not math.isfinite(r) or gmax <= 0:
        return math.inf
    return 2.0 * r / gmax / _CELLS_ACROSS


def _check_resolution(h: float, tube: TubeSpec, gmax: float):
    h_max = _max_spacing(tube.r, gmax)
    if h > h_max:
        raise GridResolutionError(
            f"grid spacing {h:.3g} exceeds {h_max:.3g}, 1/{_CELLS_ACROSS} of the tube "
            "width; raise the resolution"
        )


def grid_for_tube(field: ScalarFieldSpec, r: float) -> GridSpec:
    """The coarsest power-of-two grid that meets the resolution rule for the
    tube {|phi| < r}: at least 4096 cells on the circle and 256 along x1 on
    T^2 (and per axis in the sandwich's pointwise check), at most 2^22 and
    8192."""
    _check_tensor_dim(field)
    n, cap = (4096, _MAX_CELLS_1D) if field.dim == 1 else (256, 8192)
    h_max = _max_spacing(r, _grad_max(field))
    while 2.0 * math.pi / n > h_max:
        n *= 2
        if n > cap:
            raise GridResolutionError(
                f"tube half-width {r:.3g} needs more than {cap} grid cells per axis"
            )
    return GridSpec(n)


def _integral_1d(field, tube, grid, kinds):
    """The tube integrals on the circle: a single row."""
    _check_resolution(2.0 * math.pi / grid.resolution, tube, _grad_max(field))
    return [float(v) for v in _tube_rows(field, tube, grid, kinds, np.zeros((1, 0)))[:, 0]]


# the x2 rule on T^2: the first and the largest Gauss-Legendre order of a
# piece, and the relative agreement of two orders that ends the doubling
_X2_ORDER = 8
_X2_ORDER_MAX = 512
_X2_TOL = 1e-13
# the least error a piece may claim: rounding in the rows, as in QUADPACK
_ROUNDOFF = 50.0 * np.finfo(float).eps


def _integral_2d(field, tube, grid, kinds):
    """The tube integrals on T^2, and an estimate of their error.

    The row integral F(x2) (:func:`_tube_rows`, ``grid.resolution`` cells
    along x1) is integrated over x2 piecewise, between the breaks of
    :func:`_fold_breaks`, where F is not smooth, or once round the period
    from x2 = 0 when there is none.  A piece [a, b] gets Gauss-Legendre in u
    after x2 = a + (b - a) sin^2(pi u / 2), which makes the square-root
    behaviour of F at a fold smooth, so the rule converges spectrally.  The
    order N of a piece doubles from _X2_ORDER until orders N and 2N agree
    within _X2_TOL of the total; past _X2_ORDER_MAX it raises
    GridResolutionError.  The estimate is the sum over pieces of
    |Q_2N - Q_N|, but at least _ROUNDOFF |Q_2N| each, one per kind."""
    _check_resolution(2.0 * math.pi / grid.resolution, tube, _grad_max(field))
    a = _fold_breaks(field, tube.r, grid.resolution)
    b = np.append(a[1:], a[0] + 2.0 * math.pi)
    order = _X2_ORDER
    q = _x2_quad(field, tube, grid, kinds, a, b, order)
    err = np.zeros_like(q)
    todo = np.arange(a.size)
    while todo.size:
        order *= 2
        if order > _X2_ORDER_MAX:
            raise GridResolutionError(
                f"the x2 rule of the tube integral does not converge in {_X2_ORDER_MAX} "
                "rows per piece"
            )
        q2 = _x2_quad(field, tube, grid, kinds, a[todo], b[todo], order)
        err[:, todo] = np.maximum(np.abs(q2 - q[:, todo]), _ROUNDOFF * np.abs(q2))
        q[:, todo] = q2
        tol = _X2_TOL * np.abs(np.sum(q, axis=1, keepdims=True))
        todo = todo[np.any(err[:, todo] > tol, axis=0)]
    return [float(v) for v in np.sum(q, axis=1)], [float(v) for v in np.sum(err, axis=1)]


def _tube_integral(field, tube, grid, kinds):
    _check_tensor_dim(field)
    if field.dim == 1:
        return _integral_1d(field, tube, grid, kinds)
    totals, _ = _integral_2d(field, tube, grid, kinds)
    return totals


def expected_zeros_integral(
    field: ScalarFieldSpec, tube: TubeSpec, grid: GridSpec
) -> float:
    """Expected zero count in the tube {|phi| < r}, by direct quadrature of
    the section-body volume: m! * integral vol_m(zeta(p)) dp."""
    (total,) = _tube_integral(field, tube, grid, ("gaussian",))
    return factorial(field.dim) * total


_GL24_X, _GL24_W = np.polynomial.legendre.leggauss(24)


def expected_zeros_coarea(field: ScalarFieldSpec, tube: TubeSpec) -> float:
    """Expected zero count via the coarea reduction.

    For a field depending on the first coordinate only, the tube integral
    collapses to a level integral::

        m! (2 pi)^(m/2 - 1) * int_{-r}^{r} e^{-m v^2/(2 tau^2)}
            sum_roots vol_m(G(|F'|/tau)) / |F'|  dv

    over regular levels v, with Gauss-Legendre panels graded toward v = 0
    where the Gaussian weight lives."""
    if field.axis is None:
        raise ValueError("coarea reduction needs a field with axis level data")
    m, tau, r = field.dim, tube.tau, tube.r
    axis = field.axis
    if r >= axis.level_max:
        raise ValueError(
            f"tube half-width {r} reaches the critical level {axis.level_max}; "
            "the coarea reduction needs r below it"
        )
    # the Gaussian weight kills levels beyond ~14 tau/sqrt(m)
    r_eff = min(r, 14.0 * tau / math.sqrt(m))

    breaks = [0.0]
    step = 0.5 * tau / math.sqrt(m)
    while step < r_eff:
        breaks.append(step)
        step *= 2.0
    breaks.append(r_eff)

    weights, sigs = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        for x, w in zip(_GL24_X, _GL24_W):
            v = mid + half * x
            weights.append(half * w * math.exp(-m * v * v / (2.0 * tau * tau)))
            sigs.append(np.asarray(axis.slopes_at_level(v), dtype=float).ravel())
    # one volume call for the roots of every level, summed level by level
    sig = np.concatenate(sigs)
    terms = np.split(gaussian_volume(m, sig / tau) / sig, np.cumsum([x.size for x in sigs])[:-1])
    half_total = 0.0
    for weight, term in zip(weights, terms):
        half_total += weight * float(np.sum(term))

    # the level integrand is even in v
    return float(factorial(m) * (2.0 * math.pi) ** (m / 2 - 1.0) * 2.0 * half_total)


def concentration_limit(dim: int, alpha: float, vol_zero_set: float) -> float:
    """Limit of the expected zero count in the shrinking tube r = alpha*tau:
    (m-1)! kappa_{m-1} / (2 pi)^(m-1) * erf(sqrt(m/2) alpha) * vol_{m-1}(Z).
    A limit past the largest float raises ValueError."""
    m = int(dim)
    if m < 1:
        raise ValueError("dim must be >= 1")
    if not alpha > 0:
        raise ValueError("alpha must be positive (math.inf allowed)")
    if not 0 <= vol_zero_set < math.inf:
        raise ValueError("vol_zero_set must be finite and nonnegative")
    front = factorial(m - 1) * ball_volume(m - 1) / (2.0 * math.pi) ** (m - 1)
    limit = front * math.erf(math.sqrt(m / 2.0) * alpha) * vol_zero_set
    if not math.isfinite(limit):
        raise ValueError(f"the limit exceeds the largest float (m = {m})")
    return limit


# noisy-field values per block of the zero-count scan: 256 KB, that is
# _SCAN_BLOCK // breakpoints samples, each with X at every breakpoint
_SCAN_BLOCK = 1 << 15
# a panel is steep when |dphi/dx1| at both its ends, of one sign, exceeds
# _STEEP tau R, R the largest |xi| of the chunk: twice the largest slope of
# the noise, so that phi' keeps a margin tau R inside the panel
_STEEP = 2.0


def _scan_cells(field: ScalarFieldSpec, tube: TubeSpec) -> int:
    """Cells of the zero-count scan: fine enough that X cannot oscillate
    within one cell (spacing <= tau / (10 max|phi'| + 10)), and with spacing
    at most min(tau, r) / 20.  More than _MAX_CELLS_1D cells raise
    GridResolutionError."""
    tau, r = tube.tau, tube.r
    spacing = min(min(tau, r) / 20.0, tau / (10.0 * _grad_max(field) + 10.0))
    if spacing * _MAX_CELLS_1D < 2.0 * math.pi:
        raise GridResolutionError(
            f"noise scale tau={tau:.3g} with tube half-width {r:.3g} needs more than "
            f"{_MAX_CELLS_1D} scan cells"
        )
    return int(math.ceil(2.0 * math.pi / spacing))


def _zero_counter(field: ScalarFieldSpec, tube: TubeSpec, n: int):
    """Per-sample zero counts in the tube, on the n-cell scan of the circle.

    The cells are split at the turns of |phi| that cross r twice and clipped
    to the tube by :func:`_row_panels`, in the tube integral's one pass over
    the cell edges.  With at most one root of X per cell, X changes sign on
    a panel exactly when it has a root inside the tube.  Consecutive panels
    share their ends, and runs of them need not be looked inside: a chunk
    draws its normals at once and takes R, the largest |xi| among them, and
    a panel is steep when dphi/dx1 at its two ends (evaluated once) has one
    sign and exceeds _STEEP tau R in size.  As with one root per cell, the
    scan is fine enough that phi' moves by less than the margin tau R inside
    a cell, so |phi'| > tau R >= |tau g'| on a run of steep panels (the
    noise's slope is at most |xi| <= R): X' = phi' + tau g' keeps the sign
    of phi', X is monotone there, and it has a root on the run exactly when
    its signs at the run's two ends differ.  X is evaluated only at the
    breakpoints, every end but those inside a run of steep panels: its
    deterministic parts once per run, and its noise for a block of samples
    from one matrix product, which is compared with -phi (the sign of X).
    A sample counts the sign changes between consecutive breakpoints that
    bound panels, not those across the gaps between the tube's components,
    as one product with 0/1 weights: the sums are integers below 2^24,
    exact in float32.  With no steep panel every end is a breakpoint and
    this is the count panel by panel."""
    tau = tube.tau
    lo, hi, _ = _row_panels(field, tube.r, n, np.zeros((1, 0)))
    ends = np.unique(np.concatenate([lo, hi]))
    panel = np.zeros(ends[1:].shape, dtype=bool)  # no ends in an empty tube
    panel[np.searchsorted(ends, lo)[lo < hi]] = True  # the panel [ends[j], ends[j + 1]]
    level = -np.asarray(field.phi(ends[:, None]), dtype=float)
    noise = tau * np.stack([np.cos(ends), np.sin(ends)])
    slope = _dphi(field, ends[:, None])
    a, b = slope[:-1], slope[1:]
    # the least |phi'| at the ends of each panel on which phi' keeps one sign
    steepness = np.where(panel & ((a < 0.0) == (b < 0.0)), np.minimum(np.abs(a), np.abs(b)), 0.0)

    def sample(rng, n_draw):
        xi = rng.standard_normal((n_draw, 2))
        steep = steepness > _STEEP * tau * np.max(np.hypot(*xi.T))
        at = np.ones(ends.size, dtype=bool)
        at[1:-1] = ~(steep[:-1] & steep[1:])  # the ends inside a steep run drop out
        at = np.flatnonzero(at)
        weight = panel[at[:-1]].astype(np.float32)
        noise_at, level_at = noise[:, at], level[at]
        rows = max(1, _SCAN_BLOCK // max(1, at.size))
        counts = np.empty(n_draw)
        for r0 in range(0, n_draw, rows):
            neg = xi[r0 : r0 + rows] @ noise_at < level_at
            counts[r0 : r0 + rows] = (neg[:, 1:] != neg[:, :-1]) @ weight
        return counts

    return sample


def mc_zero_count_circle(field: ScalarFieldSpec, tube: TubeSpec, cfg: MCConfig) -> EstimateWithCI:
    """Monte Carlo count of zeros of X = phi + tau*(xi1 cos + xi2 sin) on the
    circle that land inside {|phi| < r}.

    The scan grid of :func:`_scan_cells` is fine enough that X cannot
    oscillate within one cell.  Cells that cross the tube
    boundary twice (a tube narrower than a cell, a dip of |phi| below r) are
    split at the turn of |phi|; the cells are then clipped to the tube
    exactly as in the tube integral, and a sample counts the clipped panels
    on which X changes sign; no root of X is bisected.  On a run of panels
    where phi is steeper than the chunk's noise can bend (:func:`_zero_counter`)
    X is monotone, so the run is counted from its two ends alone.
    """
    if field.dim != 1:
        raise ValueError("the root-counting model is one-dimensional")
    n = _scan_cells(field, tube)
    return mc_mean(_zero_counter(field, tube, n), cfg)


# -- the pointwise two-sided envelope ----------------------------------------


@dataclass(frozen=True)
class SandwichReport:
    """Pointwise and integrated comparison of the section-body volume against
    its outer-ellipsoid envelope, scaled below by the limit-body inradius."""

    dim: int
    tau: float
    r: float
    n_points: int
    slack: float
    limit_inradius: float
    max_lower_violation: float
    max_upper_violation: float
    min_ratio: float
    max_ratio: float
    count: float
    count_upper: float
    count_lower: float
    passed_pointwise: bool
    passed_counts: bool
    passed: bool

    def as_dict(self) -> dict:
        return asdict(self)


# the section body and its outer-ellipsoid envelope
_BODIES = ("gaussian", "ellipsoid")


def envelope_sandwich(
    field: ScalarFieldSpec,
    tau: float,
    grid: GridSpec,
    r: float = math.inf,
    slack: float = 1e-10,
) -> SandwichReport:
    """Check b^m * vol(ellipsoid section) <= vol(gaussian section) <=
    vol(ellipsoid section) pointwise on a grid, b the limit-body inradius,
    and compare the integrated zero counts the two bodies predict over the
    tube {|phi| < r}."""
    tube = TubeSpec(tau, r)
    _check_tensor_dim(field)
    m, n = field.dim, grid.resolution
    step = 2.0 * math.pi / n  # t = j * step is np.linspace(0, 2 pi, n, endpoint=False)
    bm = limit_body_inradius() ** m

    def extremes(j):
        # the flat index j of the grid t^m is the point (t[j mod n], t[j div n])
        pts = np.stack([j % n, j // n][:m], axis=-1) * step
        vol_body, vol_ell = _section_volume_vec(field, tau, pts, _BODIES)
        pos = vol_ell > 1e-300
        ratio = vol_body[pos] / vol_ell[pos]
        return (
            float(np.max(bm * vol_ell - vol_body)),
            float(np.max(vol_body - vol_ell)),
            float(np.min(ratio)) if ratio.size else math.inf,
            float(np.max(ratio)) if ratio.size else -math.inf,
        )

    # max and min do not depend on the order of the slices
    low, up, lows, highs = zip(*grid_map(extremes, n**m))
    low_viol, up_viol, rmin, rmax = max(low), max(up), min(lows), max(highs)
    pointwise = low_viol <= slack and up_viol <= slack

    count, count_up = (
        factorial(m) * total for total in _tube_integral(field, tube, grid, _BODIES)
    )
    tol = slack * max(1.0, count_up)
    counts_ok = bm * count_up - tol <= count <= count_up + tol

    return SandwichReport(
        dim=m,
        tau=tau,
        r=r,
        n_points=n**m,
        slack=slack,
        limit_inradius=limit_body_inradius(),
        max_lower_violation=low_viol,
        max_upper_violation=up_viol,
        min_ratio=rmin,
        max_ratio=rmax,
        count=count,
        count_upper=count_up,
        count_lower=bm * count_up,
        passed_pointwise=pointwise,
        passed_counts=counts_ok,
        passed=pointwise and counts_ok,
    )

