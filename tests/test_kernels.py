"""Scalar kernels against an independent quadrature oracle and frozen values."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special

from gausszonoids import (
    axial_stretch,
    axial_stretch_deriv,
    ball_volume,
    erf,
    erf_inv,
    erf_log_slope,
    folded_normal_mean,
    limit_support,
)
from gausszonoids.geometry import _LINEAR_S, _M2_SERIES_S, gaussian_volume
from gausszonoids.kernels import _LINEAR_STRETCH, SQRT_HALF_PI, _axial_stretch, bisect, piecewise


def simpson_erf(t: float, tol: float = 1e-14) -> float:
    """Adaptive Simpson quadrature of (2/sqrt(pi)) exp(-u^2), written from
    scratch so the library's erf is checked against something it does not use."""

    def f(u):
        return math.exp(-u * u)

    def rec(a, b, fa, fb, fm, whole, eps):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6 * (fa + 4 * flm + fm)
        right = (b - m) / 6 * (fm + 4 * frm + fb)
        if abs(left + right - whole) < 15 * eps:
            return left + right + (left + right - whole) / 15
        return rec(a, m, fa, fm, flm, left, eps / 2) + rec(
            m, b, fm, fb, frm, right, eps / 2
        )

    if t == 0.0:
        return 0.0
    sign, t = math.copysign(1.0, t), abs(t)
    mid = 0.5 * t
    whole = t / 6 * (f(0.0) + 4 * f(mid) + f(t))
    val = rec(0.0, t, f(0.0), f(t), f(mid), whole, tol)
    return sign * 2.0 / math.sqrt(math.pi) * val


def test_erf_against_simpson_oracle():
    for t in np.linspace(-4.0, 4.0, 33):
        assert erf(float(t)) == pytest.approx(simpson_erf(float(t)), abs=5e-14)


def test_erf_frozen_value():
    assert erf(1.0) == pytest.approx(0.8427007929497148, abs=2e-16)


def test_erf_vectorized():
    t = np.array([-1.0, 0.0, 2.5])
    v = erf(t)
    assert v.shape == (3,)
    assert v[1] == 0.0
    assert v[0] == -erf(1.0)


@given(st.floats(-5.5, 5.5))
def test_erf_is_odd(t):
    assert erf(-t) == pytest.approx(-erf(t), abs=1e-15)


@given(st.floats(-5.0, 5.0), st.floats(1e-3, 5.0))
def test_erf_strictly_increasing(t, dt):
    assert erf(t + dt) > erf(t)


def test_erf_inv_roundtrip():
    for p in (-0.999, -0.5, 0.0, 0.123, 0.97):
        assert erf(erf_inv(p)) == pytest.approx(p, abs=1e-14)
    with pytest.raises(ValueError):
        erf_inv(1.0)


def test_folded_normal_mean():
    # mu = 0 reduces to the half-normal mean
    assert folded_normal_mean(0.0, 1.0) == pytest.approx(math.sqrt(2 / math.pi), rel=1e-15)
    assert folded_normal_mean(3.0, 1.0) == pytest.approx(3.000764308634096, rel=1e-15)
    # dominated by |mu| when the width vanishes
    assert folded_normal_mean(-2.0, 1e-8) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ValueError):
        folded_normal_mean(0.0, 0.0)


def test_folded_normal_mean_by_quadrature():
    # direct Gauss-Hermite style check on a dense trapezoid grid
    mu, sig = 1.3, 0.7
    u = np.linspace(-12.0, 12.0, 200_001)
    dens = np.exp(-((u - mu) ** 2) / (2 * sig**2)) / (sig * math.sqrt(2 * math.pi))
    val = np.trapezoid(np.abs(u) * dens, u)
    assert folded_normal_mean(mu, sig) == pytest.approx(float(val), rel=1e-8)


def test_axial_stretch_values():
    assert axial_stretch(0.0) == 1.0
    assert axial_stretch(1.0) == pytest.approx(1.462155051604782, rel=1e-15)
    assert axial_stretch(2.0) == pytest.approx(2.527911309881829, rel=1e-15)
    # large-s asymptote sqrt(pi/2) s
    assert axial_stretch(40.0) == pytest.approx(math.sqrt(math.pi / 2) * 40.0, rel=1e-12)


def test_axial_stretch_matches_folded_mean():
    # lambda(s) is the folded normal mean scaled by sqrt(pi/2)
    for s in (0.0, 0.4, 1.7, 6.0):
        assert axial_stretch(s) == pytest.approx(
            math.sqrt(math.pi / 2) * folded_normal_mean(s, 1.0), rel=1e-14
        )


def _axial_stretch_full(s):
    """The full formula at every s, with the exp and erf of each."""
    return np.exp(-0.5 * np.minimum(np.abs(s), 64.0) ** 2) + SQRT_HALF_PI * s * special.erf(
        s / math.sqrt(2.0)
    )


def _same_bits(got, want):
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert bad.size == 0, f"{bad.size} differ, first at s = {bad[:5]}"


def test_axial_stretch_linear_range_is_the_full_formula_bit_for_bit():
    # from |s| = 8.38 on the kernel skips exp and erf; 10^6 offsets across
    # that edge, then a geometric grid to the last finite stretch
    near_edge = np.linspace(8.0, 9.0, 500_000)
    far = np.geomspace(8.0, 1.4e308, 100_000)
    edges = [8.3744, 8.38, math.nextafter(8.38, 0.0), math.nextafter(8.38, 9.0), 0.0, -0.0]
    s = np.concatenate([near_edge, -near_edge, far, -far, edges])
    want = _axial_stretch_full(s)
    _same_bits(_axial_stretch(s), want)
    _same_bits(axial_stretch(s), want)
    # at a power-of-two scale, as the 1-D volume takes it
    _same_bits(_axial_stretch(s, 0.25), 0.25 * want)
    # 0-d inputs keep their return type
    for v in (0.0, 1.0, 8.38, -8.38, 50.0, -1e300):
        _same_bits(axial_stretch(v), _axial_stretch_full(np.asarray(v)))
        _same_bits(_axial_stretch(np.asarray(v)), _axial_stretch_full(np.asarray(v)))
    # the unchecked kernel passes inf and NaN through as the formula does
    odd = np.array([math.inf, -math.inf, math.nan])
    _same_bits(_axial_stretch(odd), _axial_stretch_full(odd))
    for v in odd:
        with pytest.raises(ValueError):
            axial_stretch(v)


def _around(edge):
    return [edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf), 0.5 * edge, 2.0 * edge]


def test_piecewise_takes_a_0d_input_as_its_one_element_batch():
    # a 0-d x picks its branch with no reduction; the value and the type are
    # those the batch path gives, on both sides of each edge and at NaN
    for v in _around(_LINEAR_STRETCH) + [-_LINEAR_STRETCH, -0.0, math.inf, math.nan]:
        _same_bits(_axial_stretch(np.asarray(v)), _axial_stretch(np.array([v]))[0])
    for m, edges in ((1, [_LINEAR_S]), (2, [_M2_SERIES_S, _LINEAR_S]), (3, [_LINEAR_S])):
        for v in [0.0] + [w for e in edges for w in _around(e)]:
            _same_bits(gaussian_volume(m, np.asarray(v)), gaussian_volume(m, np.array([v]))[0])

    def far(x):
        return x + 1.0

    def near(x):
        return x - 1.0

    for v in _around(2.0) + [-2.0, math.nan]:
        got = piecewise(np.asarray(v), 2.0, far, near)
        _same_bits(np.asarray(got)[()], piecewise(np.array([v]), 2.0, far, near)[0])
        assert math.isnan(v) or got == (v + 1.0 if abs(v) >= 2.0 else v - 1.0)


def test_axial_stretch_deriv_by_finite_differences():
    h = 1e-6
    for s in (0.1, 0.9, 3.0):
        fd = (axial_stretch(s + h) - axial_stretch(s - h)) / (2 * h)
        assert axial_stretch_deriv(s) == pytest.approx(fd, rel=1e-8)
    assert axial_stretch_deriv(0.0) == 0.0


def test_limit_support_frozen_and_edges():
    d = 1 / math.sqrt(2)
    assert limit_support(d, d) == pytest.approx(0.9209640610618379, rel=1e-14)
    # z = 0 extension by continuity
    assert limit_support(0.7, 0.0) == 0.7
    assert limit_support(-0.7, 0.0) == 0.7
    assert limit_support(0.0, 1.0) == pytest.approx(1.0)


@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.1, 7.0))
def test_limit_support_positively_homogeneous(x, z, lam):
    assert limit_support(lam * x, lam * z) == pytest.approx(
        lam * limit_support(x, z), rel=1e-12, abs=1e-12
    )


@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_limit_support_even_in_z(x, z):
    assert limit_support(x, -z) == limit_support(x, z)


def test_erf_log_slope():
    assert erf_log_slope(1.0) == pytest.approx(0.4925917963926311, rel=1e-14)
    # t erf'(t)/erf(t) -> 1 as t -> 0
    assert erf_log_slope(1e-6) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        erf_log_slope(0.0)


def test_ball_volume():
    assert ball_volume(0) == 1.0
    assert ball_volume(1) == 2.0
    assert ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
    assert ball_volume(3) == pytest.approx(4 * math.pi / 3, rel=1e-15)
    # dimension recursion kappa_m = 2 pi / m * kappa_{m-2}
    for m in range(2, 12):
        assert ball_volume(m) == pytest.approx(
            2 * math.pi / m * ball_volume(m - 2), rel=1e-14
        )
    with pytest.raises(ValueError):
        ball_volume(-1)


def test_kernels_reject_nonfinite():
    for fn in (axial_stretch, axial_stretch_deriv):
        with pytest.raises(ValueError):
            fn(math.nan)
    with pytest.raises(ValueError):
        limit_support(math.inf, 1.0)


def scalar_bisect(f, a, b):
    """The rule one bracket at a time: halve [a, b] until its midpoint is one
    of its ends.  That midpoint, and the number of evaluations of f."""
    fa, steps = f(a), 0
    while a < (mid := 0.5 * (a + b)) < b:
        fm, steps = f(mid), steps + 1
        if (fm < 0) == (fa < 0):
            a, fa = mid, fm
        else:
            b = mid
    return mid, steps


def _counted_bisect(f, a, b):
    """bisect on f, and how often it evaluated each bracket."""
    calls = []

    def counted(t, i):
        calls.append(i)
        return f(t, i)

    got = bisect(counted, a, b, f(a, np.arange(a.size)))
    return got, np.bincount(np.concatenate(calls), minlength=a.size).tolist()


def test_bisect_matches_scalar_loop():
    # each bracket ends where the scalar loop ends, after its own steps
    def f(t, i=None):
        return np.abs(np.sin(2.0 * t)) - 0.3

    a = np.array([0.1, 1.4, 1.7, 3.2, 4.8])
    b = a + 0.2
    got, steps = _counted_bisect(f, a, b)
    want = [scalar_bisect(lambda t: float(f(np.array([t]))[0]), x, y) for x, y in zip(a, b)]
    assert got.tolist() == [root for root, _ in want]
    assert steps == [n for _, n in want]
    assert all(40 <= n <= 60 for n in steps)
    assert np.all(np.abs(f(got)) < 1e-15)


def test_bisect_ends_within_one_ulp_of_a_tiny_root():
    # floats are dense near 0: the root 1e-300 takes over a thousand halvings
    # of [0, 1], and the bracket beside it stops after its own
    roots = np.array([1e-300, 0.3])
    got, steps = _counted_bisect(lambda t, i: t - roots[i], np.zeros(2), np.ones(2))
    assert abs(got[0] - roots[0]) <= math.ulp(roots[0])
    assert abs(got[1] - roots[1]) <= math.ulp(roots[1])
    assert steps == [scalar_bisect(lambda t: t - r, 0.0, 1.0)[1] for r in roots]
    assert steps[0] > 1000 and steps[1] < 60


def test_bisect_without_brackets_never_calls_f():
    def f(t, i):
        raise AssertionError("f called without brackets")

    empty = np.zeros(0)
    assert bisect(f, empty, empty, empty).shape == (0,)
