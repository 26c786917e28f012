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

from .geometry import BODY_KINDS, gaussian_support, gaussian_volume, limit_body_inradius
from .kernels import SQRT_2PI, ball_volume, bisect
from .montecarlo import EstimateWithCI, MCConfig, mc_mean, parallel_map

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


class GridResolutionError(ValueError):
    """The requested grid cannot resolve the tube (fewer than 8 cells across),
    or resolving it would take more cells than the grid allows."""


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


@dataclass(frozen=True)
class GridSpec:
    """Quadrature grid: cells per axis.

    The tube integral runs row by row.  The circle is one row; the torus T^2
    has n rows at x2 = (j + 1/2) h, each of weight h = 2 pi / n (the periodic
    midpoint rule).  Each row is cut into n cells of width h along x1; every
    cell is clipped to the tube, bisecting the crossing in a cell whose edges
    disagree, and the clipped cell gets 12-point Gauss-Legendre.
    """

    resolution: int = 4096

    def __post_init__(self):
        if self.resolution < 16:
            raise ValueError("resolution must be >= 16")


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
    gn = float(np.linalg.norm(g))
    scale = math.exp(-float(field.phi(p)) ** 2 / (2.0 * tau * tau)) / SQRT_2PI
    unit = g / gn if gn > 0 else np.zeros_like(g)  # at gn = 0 the body is the ball
    x = float(u @ unit)
    yr = float(np.linalg.norm(u - x * unit))
    return scale * float(gaussian_support(gn / tau, x, yr))


# -- tube integrals ----------------------------------------------------------


def _section_volume_vec(field, tau, pts, kinds):
    """Section volumes on a batch of points, one array per kind of BODY_KINDS
    in kinds: the body of offset |grad phi|/tau times (2 pi)^(-m/2) exp(-m
    phi^2/(2 tau^2)).  The field and its gradient are evaluated once for all."""
    m = field.dim
    phi = np.asarray(field.phi(pts), dtype=float)
    g = np.asarray(field.grad(pts), dtype=float)
    s = np.linalg.norm(g, axis=-1) / tau
    scale = (2.0 * math.pi) ** (-m / 2) * np.exp(-m * phi * phi / (2.0 * tau * tau))
    return [scale * BODY_KINDS[kind].volume(m, s) for kind in kinds]


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
    return float(np.max(np.linalg.norm(field.grad(pts), axis=-1)))


# the resolution rule: a grid has at least this many cells across the tube
_CELLS_ACROSS = 8
# the most cells of a grid on the circle, for the tube integral and the
# zero-count scan alike
_MAX_CELLS_1D = 1 << 22


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
    tube {|phi| < r}: at least 4096 cells on the circle and 256 per axis on
    T^2, at most 2^22 and 8192."""
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


# scan points per block of rows, and nodes per volume evaluation: bounds the
# memory of each thread
_BLOCK = 1 << 18
_GL12_X, _GL12_W = np.polynomial.legendre.leggauss(12)


def _at(t, y):
    """Points with first coordinate t and the others y, broadcast to t's shape."""
    if y.shape[-1] == 0:  # the circle: a view, not a copy of a long row
        return t[..., None]
    y = np.broadcast_to(y, t.shape + y.shape[-1:])
    return np.concatenate([t[..., None], y], axis=-1)


def _grid(t, y):
    """The (rows, t.size, dim) points pairing every abscissa t with every row y."""
    return _at(np.broadcast_to(t, (y.shape[0], t.size)), y[:, None])


def _row_blocks(rows, n):
    """Blocks of rows, about _BLOCK points each at n points per row."""
    step = max(1, _BLOCK // n)
    return (rows[j : j + step] for j in range(0, rows.shape[0], step))


def _abs_phi(field, pts):
    """|phi| at points of any leading shape, passed to phi as one (N, dim) array."""
    vals = field.phi(pts.reshape(-1, pts.shape[-1]))
    return np.abs(np.asarray(vals, dtype=float)).reshape(pts.shape[:-1])


def _row_panels(field, r, edges, y):
    """Panels [lo, hi], and the row of each, covering {|phi| < r} on the
    cells of a block of rows y.

    The cells with an edge inside are kept, and each cell whose edges
    disagree is clipped at its crossing, found by bisection, so the tube
    cutoff adds no first-order error."""
    excess = _abs_phi(field, _grid(edges, y)) - r
    inside = excess < 0.0
    ri, ci = np.nonzero(inside[:, :-1] | inside[:, 1:])
    lo, hi = edges[ci], edges[ci + 1]
    left_in = inside[ri, ci]
    cut = np.nonzero(left_in != inside[ri, ci + 1])[0]
    yc = y[ri[cut]]
    c = bisect(
        lambda t: _abs_phi(field, _at(t, yc)) - r,
        lo[cut], hi[cut], excess[ri[cut], ci[cut]], 60,
    )
    lo[cut] = np.where(left_in[cut], lo[cut], c)
    hi[cut] = np.where(left_in[cut], c, hi[cut])
    return lo, hi, ri


def _tube_turns(field: ScalarFieldSpec, r: float, edges: np.ndarray) -> np.ndarray:
    """The turns of |phi| at which a cell of the scan crosses the level r twice.

    A cell whose edges lie on one side of r reaches the other side only
    around a turn of |phi| (a sign change of phi*phi'), e.g. a zero of phi
    in a tube narrower than the cell.  With at most one turn per cell, each
    such turn, found by bisection, splits its cell into two that cross r
    once."""

    def slope(t):  # phi*phi' has the sign of d|phi|/dt
        p = t[:, None]
        return np.asarray(field.phi(p), dtype=float) * np.asarray(field.grad(p), dtype=float)[:, 0]

    s = slope(edges)
    out = _abs_phi(field, edges[:, None]) >= r
    falls = s < 0.0
    # only a minimum of |phi| between edges outside the tube, or a maximum
    # between edges inside it, can cross r
    ci = np.nonzero((falls[:-1] != falls[1:]) & (out[:-1] == out[1:]) & (falls[:-1] == out[:-1]))[0]
    turn = bisect(slope, edges[ci], edges[ci + 1], s[ci], 60)
    return turn[(_abs_phi(field, turn[:, None]) >= r) != out[ci]]


def _circle_edges(field: ScalarFieldSpec, r: float, n: int) -> np.ndarray:
    """Edges of the n-cell grid of the circle, with every cell that crosses
    the level r twice split at its turn of |phi| (:func:`_tube_turns`)."""
    edges = np.linspace(0.0, 2.0 * math.pi, n + 1)
    if math.isfinite(r):
        edges = np.sort(np.concatenate([edges, _tube_turns(field, r, edges)]))
    return edges


def _tube_rows(field, tube, grid, kinds, rows, row_weight, edges):
    """Row quadrature of the section volumes over the tube {|phi| < r}, one
    total per entry of kinds.

    Each row (fixed trailing coordinates ``rows[j]``) is integrated over the
    first coordinate on the cells between ``edges``, with panels from
    :func:`_row_panels` and 12-point Gauss-Legendre on each; the row sums
    are weighted by ``row_weight``.  Blocks of rows are scanned, bisected and
    evaluated together, one block per task of :func:`parallel_map`, and the
    partial sums are added in block order."""
    _check_resolution(2.0 * math.pi / grid.resolution, tube, _grad_max(field))
    step = _BLOCK // _GL12_X.size

    def block_sums(y):
        lo, hi, ri = _row_panels(field, tube.r, edges, y)
        sums = []
        for k in range(0, lo.size, step):
            a, b = lo[k : k + step, None], hi[k : k + step, None]
            half = 0.5 * (b - a)
            pts = _at(0.5 * (a + b) + half * _GL12_X, y[ri[k : k + step], None])
            vols = _section_volume_vec(field, tube.tau, pts, kinds)
            sums.append([float(np.sum(half * _GL12_W * vals)) for vals in vols])
        return sums

    totals = [0.0] * len(kinds)
    for sums in parallel_map(block_sums, list(_row_blocks(rows, grid.resolution))):
        for part in sums:
            for i, value in enumerate(part):
                totals[i] += value
    return [total * row_weight for total in totals]


def _integral_1d(field, tube, grid, kinds):
    """The tube integrals on the circle: a single row, on the n-cell grid
    split at the turns of |phi| that cross r twice inside one cell."""
    edges = _circle_edges(field, tube.r, grid.resolution)
    return _tube_rows(field, tube, grid, kinds, np.zeros((1, 0)), 1.0, edges)


def _integral_2d(field, tube, grid, kinds):
    """The tube integrals on T^2: n rows at x2 = (j + 1/2) h of weight h, the
    periodic midpoint rule, which converges exponentially in x2 for smooth
    periodic row integrals."""
    n = grid.resolution
    h = 2.0 * math.pi / n
    rows = ((np.arange(n) + 0.5) * h)[:, None]
    edges = np.linspace(0.0, 2.0 * math.pi, n + 1)
    return _tube_rows(field, tube, grid, kinds, rows, h, edges)


def _tube_integral(field, tube, grid, kinds):
    _check_tensor_dim(field)
    return (_integral_1d if field.dim == 1 else _integral_2d)(field, tube, grid, kinds)


def expected_zeros_integral(
    field: ScalarFieldSpec, tube: TubeSpec, grid: GridSpec
) -> float:
    """Expected zero count in the tube {|phi| < r}, by direct quadrature of
    the section-body volume: m! * integral vol_m(zeta(p)) dp."""
    (total,) = _tube_integral(field, tube, grid, ("gaussian",))
    return math.factorial(field.dim) * total


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

    half_total = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        for x, w in zip(_GL24_X, _GL24_W):
            v = mid + half * x
            sig = np.asarray(axis.slopes_at_level(v), dtype=float)
            term = float(np.sum(gaussian_volume(m, sig / tau) / sig))
            half_total += half * w * math.exp(-m * v * v / (2.0 * tau * tau)) * term

    # the level integrand is even in v
    return math.factorial(m) * (2.0 * math.pi) ** (m / 2 - 1.0) * 2.0 * half_total


def concentration_limit(dim: int, alpha: float, vol_zero_set: float) -> float:
    """Limit of the expected zero count in the shrinking tube r = alpha*tau:
    (m-1)! kappa_{m-1} / (2 pi)^(m-1) * erf(sqrt(m/2) alpha) * vol_{m-1}(Z)."""
    m = int(dim)
    if m < 1:
        raise ValueError("dim must be >= 1")
    if not alpha > 0:
        raise ValueError("alpha must be positive (math.inf allowed)")
    if not vol_zero_set >= 0:
        raise ValueError("vol_zero_set must be nonnegative")
    front = math.factorial(m - 1) * ball_volume(m - 1) / (2.0 * math.pi) ** (m - 1)
    return front * math.erf(math.sqrt(m / 2.0) * alpha) * vol_zero_set


# noisy-field values per block of the zero-count scan, sized to stay in cache
_SCAN_BLOCK = 1 << 15


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
    to the tube by :func:`_row_panels`.  With at most one root of X per
    cell, X changes sign on a panel exactly when it has a root inside the
    tube.  The deterministic parts of X are evaluated once per panel end, and
    each block of samples gets X at all ends from one matrix product."""
    tau = tube.tau
    edges = _circle_edges(field, tube.r, n)
    lo, hi, _ = _row_panels(field, tube.r, edges, np.zeros((1, 0)))
    ends = np.concatenate([lo, hi])
    phi = np.asarray(field.phi(ends[:, None]), dtype=float)
    noise = tau * np.stack([np.cos(ends), np.sin(ends)])
    rows = max(1, _SCAN_BLOCK // max(1, ends.size))

    def sample(rng, n_draw):
        xi = rng.standard_normal((n_draw, 2))
        counts = np.zeros(n_draw, dtype=np.int64)
        for r0 in range(0, n_draw, rows):
            x = xi[r0 : r0 + rows] @ noise + phi
            change = x[:, : lo.size] * x[:, lo.size :] < 0.0
            counts[r0 : r0 + rows] = np.count_nonzero(change, axis=1)
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
    on which X changes sign; no root of X is bisected.
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
    t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)

    bm = limit_body_inradius() ** m

    def extremes(item):
        y, k = item
        chunk = _grid(t, y).reshape(-1, m)[k : k + _BLOCK]
        vol_body, vol_ell = _section_volume_vec(field, tau, chunk, _BODIES)
        pos = vol_ell > 1e-300
        ratio = vol_body[pos] / vol_ell[pos]
        return (
            float(np.max(bm * vol_ell - vol_body)),
            float(np.max(vol_body - vol_ell)),
            float(np.min(ratio)) if ratio.size else math.inf,
            float(np.max(ratio)) if ratio.size else -math.inf,
        )

    # the grid t^m, a block of rows (and a chunk of _BLOCK points) at a time;
    # max and min do not depend on the order of the chunks
    blocks = _row_blocks(t[:, None] if m == 2 else np.zeros((1, 0)), n)
    items = [(y, k) for y in blocks for k in range(0, y.shape[0] * n, _BLOCK)]
    low, up, lows, highs = zip(*parallel_map(extremes, items))
    low_viol, up_viol, rmin, rmax = max(low), max(up), min(lows), max(highs)
    pointwise = low_viol <= slack and up_viol <= slack

    count, count_up = (
        math.factorial(m) * total for total in _tube_integral(field, tube, grid, _BODIES)
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

