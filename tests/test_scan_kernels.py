"""The unchecked kernels of the grid scans give the bits of the checked
functions, whose float operations they repeat without the checks, the
masking passes and the reductions over short axes.

The references below are the masked forms of the public functions, written
out here: each kernel, and the public function that now calls it, must
reproduce them byte for byte on dense grids with the edge cases."""
import math

import numpy as np
import pytest
from scipy import special

from gausszonoids import (
    ScalarFieldSpec, axial_stretch, limit_support, normalized_support, sine_field,
)
from gausszonoids._tube import _section_volume_vec
from gausszonoids.geometry import _normalized_support, ball_volume, gaussian_volume
from gausszonoids.kernels import SQRT_2PI, SQRT_HALF_PI, SQRT_PI, _axial_stretch, _limit_support

TINY = 5e-324  # the least subnormal


def _axial_stretch_ref(s):
    return np.exp(-0.5 * np.minimum(np.abs(s), 64.0) ** 2) + SQRT_HALF_PI * s * special.erf(
        s / math.sqrt(2.0)
    )


def _limit_support_ref(x, z):
    scale = np.maximum(np.abs(x), np.abs(z))
    pos = scale > 0
    xs = x / np.where(pos, scale, 1.0)
    zs = np.abs(z) / np.where(pos, scale, 1.0)
    zsafe = np.where(zs > 0, zs, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = np.where(zs > 0, xs / (SQRT_PI * zsafe), np.where(xs >= 0, np.inf, -np.inf))
        core = zs * np.exp(-xs * xs / (math.pi * zsafe * zsafe)) + xs * special.erf(t)
    core = np.where(zs > 0, core, np.abs(xs))
    return np.where(pos, scale * core, 0.0)


def _normalized_support_ref(s, x, yr):
    lam = float(_axial_stretch_ref(s))
    d = np.hypot(x, lam * yr)
    safe = np.where(d > 0, d, 1.0)
    # where d/lam is subnormal, the quotient is taken at d scaled by 2^k
    k = np.where(d / lam < np.finfo(float).tiny, np.frexp(lam)[1] - np.frexp(safe)[1] - 1, 0)
    h = np.ldexp(np.ldexp(d, k) / lam * _axial_stretch_ref(x * s / safe), -k)
    return np.where(d > 0, h, 0.0)


def _directions():
    """(x, yr), yr >= 0: the half circle on 20,001 angles, so both poles and
    the equator, then subnormal, tiny and lopsided directions; the zero
    direction comes last."""
    t = np.linspace(0.0, math.pi, 20_001)
    x, yr = np.cos(t), np.sin(t)
    t = np.linspace(0.0, 0.5 * math.pi, 20_001)  # the scans' own quadrant
    edges = [
        (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (TINY, 1.0), (-TINY, 1.0), (1.0, TINY),
        (TINY, TINY), (-TINY, TINY), (2.2e-308, 1e-310), (1e-310, 3e-320), (3.0, 1e-300),
        (1e-300, 3.0), (1e-160, 1e-160), (0.6, 0.8), (0.0, 0.0),
    ]
    ex, ey = np.array(edges).T
    return np.concatenate([x, np.cos(t), ex]), np.concatenate([yr, np.sin(t), ey])


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert bad.size == 0, f"{bad.size} differ, first {got[bad[:5]]} for {want[bad[:5]]}"


def test_limit_support_kernel_is_the_masked_form():
    x, z = _directions()
    want = _limit_support_ref(x, z)
    _same_bits(limit_support(x, z), want)
    _same_bits(_limit_support(x[:-1], z[:-1]), want[:-1])  # NaN at the zero direction
    _same_bits(limit_support(x, -z), want)  # even in z
    assert limit_support(0.0, 0.0) == 0.0


@pytest.mark.parametrize("s", [1e-3, 1.0, 50.0, 1e8, 1e300])
def test_normalized_support_kernel_is_the_masked_form(s):
    x, yr = _directions()
    want = _normalized_support_ref(s, x, yr)
    _same_bits(normalized_support(s, x, yr), want)
    lam = float(axial_stretch(s))
    _same_bits(_normalized_support(s, lam, x[:-1], yr[:-1]), want[:-1])
    assert normalized_support(s, 0.0, 0.0) == 0.0


def test_axial_stretch_kernel_is_the_masked_form():
    s = np.concatenate([
        [0.0, -0.0, TINY, -TINY, 2.2e-308, 38.6, 64.0, 1e154, 1e300, 1.7e308, -1.7e308],
        np.linspace(-70.0, 70.0, 20_001),
        np.logspace(-320, 308, 20_001),
    ])
    with np.errstate(over="ignore"):  # past 1.4e308 the stretch is inf
        want = _axial_stretch_ref(s)
        _same_bits(_axial_stretch(s), want)
        _same_bits(axial_stretch(s), want)


def _field(dim, grad):
    return ScalarFieldSpec(dim, lambda p: np.sin(p[..., 0]) + 0.3, grad)


def _section_volumes_ref(field, tau, pts):
    m = field.dim
    phi = field.phi(pts)
    s = np.linalg.norm(field.grad(pts), axis=-1) / tau
    scale = (2.0 * math.pi) ** (-m / 2) * np.exp(-m * phi * phi / (2.0 * tau * tau))
    body = 2.0 * (_axial_stretch_ref(s) / SQRT_2PI) if m == 1 else gaussian_volume(m, s)
    ell = 8.0 * (_axial_stretch_ref(s) * 0.125 * ball_volume(m) / (2 * math.pi) ** (m / 2))
    return scale * body, scale * ell


@pytest.mark.parametrize("field", [
    sine_field(2, dim=2),
    sine_field(5),
    # gradients of zero, and of zero in one component
    _field(2, lambda p: np.zeros_like(p)),
    _field(2, lambda p: np.stack([np.round(np.cos(p[..., 0]), 1), 0.0 * p[..., 1]], axis=-1)),
    _field(1, lambda p: np.round(np.cos(p), 1)),
    _field(2, lambda p: np.stack([np.cos(p[..., 0]), TINY * np.sin(p[..., 1])], axis=-1)),
], ids=["sin2-2d", "sin5", "flat-2d", "rounded-2d", "rounded-1d", "subnormal-2d"])
@pytest.mark.parametrize("tau", [1e-3, 0.05, 1.0])
def test_section_volume_kernels_are_the_masked_form(field, tau):
    # the sandwich's grid, then a block of the tube rule's (rows, nodes, dim) points
    if field.dim == 2:
        t = np.arange(256) * (2.0 * math.pi / 256)
        pts = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
    else:
        pts = np.arange(65_536)[:, None] * (2.0 * math.pi / 65_536)
    for p in (pts, pts[: 12 * 100].reshape(100, 12, field.dim)):
        body, ell = _section_volume_vec(field, tau, p, ("gaussian", "ellipsoid"))
        want_body, want_ell = _section_volumes_ref(field, tau, p)
        _same_bits(body, want_body)
        _same_bits(ell, want_ell)
