"""Bodies of revolution: supports, gradients, volumes, and the sandwich."""
import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from gausszonoids import (
    KINDS,
    Direction,
    GaussianVector,
    MCConfig,
    RevolutionBody,
    axial_stretch,
    ball_volume,
    boundary_profile,
    check_inclusion,
    ellipsoid_support,
    gaussian_gradient,
    gaussian_support,
    gaussian_volume,
    limit_body_inradius,
    limit_boundary_radius,
    limit_inradius_angle,
    limit_inradius_grid,
    limit_support,
    mean_stretch_matrix,
    normalized_support,
    sandwich_constant,
    stream,
    volume,
    volume_asymptote,
    volume_bounds,
)
from gausszonoids.geometry import _M2_SERIES, _M2_SERIES_S, BODY_KINDS
from gausszonoids.kernels import SQRT_HALF_PI

SQRT_2PI = math.sqrt(2 * math.pi)


# -- support functions ---------------------------------------------------------


def test_zero_offset_is_a_ball():
    # G(0) = B / sqrt(2 pi)
    for x, yr in ((1.0, 0.0), (0.3, 0.4), (0.0, 2.0)):
        assert gaussian_support(0.0, x, yr) == pytest.approx(
            math.hypot(x, yr) / SQRT_2PI, rel=1e-15
        )


def test_axis_support_is_the_stretch():
    for s in (0.0, 0.5, 1.0, 2.0, 5.0):
        assert gaussian_support(s, 1.0, 0.0) == pytest.approx(
            axial_stretch(s) / SQRT_2PI, rel=1e-14
        )


def test_support_against_expectation_oracle():
    """h(u) = (1/2) E|<u, c + xi>| straight from the definition."""
    rng = stream(314, 0)
    n = 400_000
    for s, x, yr in ((0.7, 1.0, 0.0), (1.5, 0.6, 0.8), (3.0, -0.4, 1.1)):
        # <u, c + xi> is Gaussian with mean x*s and std |u| in the reduced plane
        u_norm = math.hypot(x, yr)
        draws = x * s + u_norm * rng.standard_normal(n)
        est = 0.5 * np.mean(np.abs(draws))
        se = 0.5 * np.std(np.abs(draws)) / math.sqrt(n)
        assert abs(gaussian_support(s, x, yr) - est) < 4 * se


def test_support_is_even_in_x_and_homogeneous():
    rng = stream(11, 0)
    s = 1.3
    for _ in range(50):
        x, yr = rng.normal(), abs(rng.normal())
        h = gaussian_support(s, x, yr)
        assert gaussian_support(s, -x, yr) == pytest.approx(h, rel=1e-14)
        assert gaussian_support(s, 3.0 * x, 3.0 * yr) == pytest.approx(
            3.0 * h, rel=1e-13
        )


def test_support_convexity_on_random_pairs():
    # subadditivity h(u+v) <= h(u) + h(v) in the reduced plane
    rng = stream(2718, 0)
    u = rng.normal(size=(10_000, 2))
    v = rng.normal(size=(10_000, 2))
    for s in (0.0, 1.0, 4.0):
        hu = gaussian_support(s, u[:, 0], np.abs(u[:, 1]))
        hv = gaussian_support(s, v[:, 0], np.abs(v[:, 1]))
        w = u + v
        # the radial part folds: |yr_u + yr_v| bounds reached when aligned
        hw = gaussian_support(s, w[:, 0], np.abs(u[:, 1]) + np.abs(v[:, 1]))
        assert np.all(hw <= hu + hv + 1e-12)


def test_gradient_matches_finite_differences():
    h = 1e-6
    for s, x, yr in ((0.5, 0.8, 0.6), (2.0, -0.3, 1.2), (5.0, 1.0, 0.1)):
        gx, gy = gaussian_gradient(s, x, yr)
        fx = (gaussian_support(s, x + h, yr) - gaussian_support(s, x - h, yr)) / (2 * h)
        fy = (gaussian_support(s, x, yr + h) - gaussian_support(s, x, yr - h)) / (2 * h)
        assert gx == pytest.approx(fx, abs=5e-9)
        assert gy == pytest.approx(fy, abs=5e-9)


def test_gradient_euler_identity():
    # h is 1-homogeneous: <u, grad h(u)> = h(u)
    for s, x, yr in ((0.9, 0.4, 0.7), (3.0, -1.0, 0.5)):
        gx, gy = gaussian_gradient(s, x, yr)
        assert x * gx + yr * gy == pytest.approx(gaussian_support(s, x, yr), rel=1e-13)


def test_normalized_support_touches_ball_at_poles_and_equator():
    for s in (0.3, 1.0, 4.0, 50.0):
        assert normalized_support(s, 1.0, 0.0) == pytest.approx(1.0, rel=1e-13)
        assert normalized_support(s, 0.0, 1.0) == pytest.approx(1.0, rel=1e-13)


def test_normalized_pullback_identity():
    # h_norm(x, y) = sqrt(2 pi) h_G(x / stretch, y)
    for s in (0.4, 1.0, 2.5):
        lam = axial_stretch(s)
        for x, yr in ((0.6, 0.8), (1.0, 0.4), (0.0, 1.0)):
            assert normalized_support(s, x, yr) == pytest.approx(
                SQRT_2PI * gaussian_support(s, x / lam, yr), rel=1e-13
            )


def test_normalized_converges_to_limit_support():
    d = Direction(math.cos(0.8), math.sin(0.8))
    gap = abs(normalized_support(200.0, d.x, d.yr) - limit_support(d.x, d.yr))
    assert gap < 1e-4
    closer = abs(normalized_support(400.0, d.x, d.yr) - limit_support(d.x, d.yr))
    assert closer < gap


# -- monotonicity ---------------------------------------------------------------


def test_normalized_support_strictly_decreasing_in_s():
    svals = np.linspace(0.05, 8.0, 160)
    for x, yr in ((0.5, math.sqrt(3) / 2), (0.9, math.sqrt(1 - 0.81)), (0.2, 0.6)):
        vals = np.array([normalized_support(s, x, yr) for s in svals])
        assert np.all(np.diff(vals) < -1e-12)


def test_gaussian_support_strictly_increasing_along_ray():
    tvals = np.linspace(0.0, 5.0, 100)
    for x, yr in ((1.0, 0.0), (0.7, 0.7), (0.05, 1.0)):
        vals = np.array([gaussian_support(t * 1.0, x, yr) for t in tvals])
        assert np.all(np.diff(vals) > 1e-12 * abs(x))


# -- boundary profiles ----------------------------------------------------------


def test_profile_at_zero_offset_is_a_circle():
    prof = boundary_profile(RevolutionBody("gaussian", 2, 0.0), 91)
    radius = np.hypot(prof[:, 1], prof[:, 2])
    assert np.allclose(radius, 1 / SQRT_2PI, atol=1e-12)


def test_profile_parametrizes_the_support_boundary():
    # points on the boundary satisfy <u(theta), point> = h(u(theta))
    body = RevolutionBody("gaussian", 3, 1.5)
    prof = boundary_profile(body, 61)
    theta = prof[:, 0]
    lhs = np.cos(theta) * prof[:, 1] + np.sin(theta) * prof[:, 2]
    rhs = np.array([body.support(math.cos(t), math.sin(t)) for t in theta])
    assert np.allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_boundary_is_the_support_gradient(kind):
    # the boundary point of outer normal u is the gradient of the support at u
    body = RevolutionBody(kind, 3, None if kind == "limit" else 1.3)
    theta = np.array([0.3, 1.0, 1.9, 2.8])
    x, yr = np.cos(theta), np.sin(theta)
    ax, rad = body.boundary(theta)
    # Euler's identity of a 1-homogeneous function
    assert np.allclose(x * ax + yr * rad, body.support(x, yr), rtol=1e-13, atol=0)
    h = 1e-6
    fx = (body.support(x + h, yr) - body.support(x - h, yr)) / (2 * h)
    fy = (body.support(x, yr + h) - body.support(x, yr - h)) / (2 * h)
    assert np.allclose(ax, fx, rtol=0, atol=5e-9)
    assert np.allclose(rad, fy, rtol=0, atol=5e-9)


def test_limit_boundary_radius_roundtrip():
    from gausszonoids import erf

    for u in (0.1, 0.7, 1.8):
        assert limit_boundary_radius(erf(u)) == pytest.approx(
            math.exp(-u * u), rel=1e-12
        )
    assert limit_boundary_radius(1.0) == 0.0
    assert limit_boundary_radius(-1.0) == 0.0


@pytest.mark.filterwarnings("error")
def test_limit_body_ends_take_the_general_expressions():
    # at a pole, and where sin t squared underflows, x/(sqrt(pi) z) is +-inf:
    # erf gives the end +-1 and exp the radius 0, with no branch and no warning
    for t, end in ((0.0, 1.0), (5e-324, 1.0), (1e-300, 1.0), (math.pi, -1.0)):
        ax, rad = BODY_KINDS["limit"].boundary(None, np.asarray(t))
        assert (ax, rad) == (end, 0.0), t
    assert RevolutionBody("limit", 2).boundary(1e-300) == (1.0, 0.0)
    ax, rad = BODY_KINDS["limit"].boundary(None, np.asarray(math.pi / 2))
    assert rad == 1.0 and abs(ax) < 1e-16  # the equator
    np.testing.assert_array_equal(limit_boundary_radius(np.array([-1.0, 1.0])), [0.0, 0.0])
    assert limit_boundary_radius(0.0) == 1.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", KINDS)
def test_boundary_takes_normal_angles_in_zero_to_pi_only(kind):
    # every kind refuses an angle outside [0, pi] alike, and -0.0 is the pole (h, 0)
    body = RevolutionBody(kind, 2, None if kind == "limit" else 1.0)
    for t in (-0.1, math.pi + 0.1, math.nan, [0.5, math.nan], [-0.1, 0.5]):
        with pytest.raises(ValueError, match=r"must lie in \[0, pi\]"):
            body.boundary(t)
    h = body.support(1.0, 0.0)
    for t in (-0.0, 0.0):
        ax, rad = body.boundary(t)
        assert ax == pytest.approx(h, rel=1e-15) and rad == 0.0, t
    assert body.boundary(-0.0) == body.boundary(0.0)


# -- the universal constant -------------------------------------------------------


def test_inradius_value_and_bracket():
    b = limit_body_inradius()
    assert 0.905 < b < 0.915
    # b-infinity = 0.91034591079451240524 from mpmath at 40 digits, rounded
    assert b == 0.9103459107945124


def test_inradius_grid_scan_agrees():
    assert limit_inradius_grid(1_000_000) == pytest.approx(
        limit_body_inradius(), abs=1e-8
    )


def test_inradius_grid_needs_a_point():
    assert limit_inradius_grid(1) == 1.0  # the pole alone
    for n in (0, -3):
        with pytest.raises(ValueError, match=f"n = {n}"):
            limit_inradius_grid(n)


def test_inradius_angle():
    t = limit_inradius_angle()
    assert t == pytest.approx(0.61044, abs=1e-4)
    # root of the ring slope, from mpmath at 40 digits
    assert t == pytest.approx(0.61044084323456695351, rel=1e-15)
    # stationarity: the ring derivative vanishes at the argmin
    h = 1e-5
    ring = lambda a: limit_support(math.cos(a), math.sin(a))
    assert abs(ring(t + h) - ring(t - h)) / (2 * h) < 1e-3


# -- volumes ---------------------------------------------------------------------


def test_volume_closed_form_dim1():
    for s in (0.0, 0.5, 2.0, 10.0):
        assert volume(RevolutionBody("gaussian", 1, s)) == pytest.approx(
            2 * axial_stretch(s) / SQRT_2PI, rel=1e-12
        )


def test_volume_at_zero_offset():
    for m in range(1, 7):
        assert volume(RevolutionBody("gaussian", m, 0.0)) == pytest.approx(
            ball_volume(m) / (2 * math.pi) ** (m / 2), rel=1e-11
        )


def test_volume_inside_bounds():
    for m in (1, 2, 3, 4):
        for s in (0.0, 0.5, 1.0, 2.0, 5.0, 100.0):
            v = volume(RevolutionBody("gaussian", m, s))
            vb = volume_bounds(m, s)
            assert max(vb.lower, vb.lower_sharp) <= v * (1 + 1e-12)
            assert v <= vb.upper * (1 + 1e-12)


def test_volume_normalized_identity():
    # vol(normalized) = (2 pi)^(m/2) vol(gaussian) / stretch
    for m, s in ((2, 0.7), (3, 1.5), (4, 3.0)):
        lhs = volume(RevolutionBody("normalized", m, s))
        rhs = (2 * math.pi) ** (m / 2) * volume(
            RevolutionBody("gaussian", m, s)
        ) / axial_stretch(s)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_volume_limit_body_closed_form():
    for m in range(1, 7):
        assert volume(RevolutionBody("limit", m)) == pytest.approx(
            2 * ball_volume(m - 1) / math.sqrt(m), rel=1e-9
        )


def test_normalized_volume_approaches_limit_volume():
    v200 = volume(RevolutionBody("normalized", 3, 200.0))
    vlim = volume(RevolutionBody("limit", 3))
    assert v200 == pytest.approx(vlim, rel=1e-3)
    assert v200 > vlim  # the normalized bodies shrink toward the limit


def test_volume_asymptote_at_s50():
    for m in (2, 3):
        v = volume(RevolutionBody("gaussian", m, 50.0))
        assert v / 50.0 == pytest.approx(volume_asymptote(m), rel=0.01)


def test_volume_matches_mpmath():
    """Closed forms against the meridian integral at 40 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        _check_volumes_against(mp)


# the offsets of the meridian check; for m >= 2 the volume is linear in s
# from s = 1e8 on, which the far offsets reach
_MERIDIAN_S = (0.0, 0.3, 1.0, 3.0, 10.0, 50.0, 436.0, 1200.0, 1e4)
_MERIDIAN_FAR_S = (1e8, 1e20, 1e50, 1e200)


def _meridian_volume(mp, m, s):
    """The gaussian volume as its meridian integral, written in u = cos t and
    split 4 and 16 Gaussian widths 1/sqrt(c) from the equator."""
    e = mp.mpf(m - 1) / 2
    front = 2 * mp.pi**e / mp.gamma(e + 1) / (2 * mp.pi) ** (mp.mpf(m) / 2)
    ss = mp.mpf(s) ** 2
    c = m * ss / 2

    def f(u):
        return (1 - u * u) ** e * (1 + ss * (1 - u * u)) * mp.exp(-c * u * u)

    widths = [k / mp.sqrt(c) for k in (4, 16)] if c else []
    pts = sorted({mp.mpf(0), mp.mpf(1), *(w for w in widths if w < 1)})
    return front * mp.quad(f, pts)


def _ball_times_factor(mp, m, s):
    """kappa_m (2 pi)^(-m/2) 1F1(-1/2; m/2; -m s^2/2): the ball of radius
    1/sqrt(2 pi), the body at s = 0, times one hypergeometric factor."""
    half = mp.mpf(m) / 2
    ball = mp.pi**half / mp.gamma(half + 1) / (2 * mp.pi) ** half
    return ball * mp.hyp1f1(-mp.mpf(1) / 2, half, -m * mp.mpf(s) ** 2 / 2)


def _check_volumes_against(mp):
    for m in range(1, 9):
        for s in _MERIDIAN_S + (_MERIDIAN_FAR_S if m >= 2 else ()):
            expect = float(_meridian_volume(mp, m, s))
            got = volume(RevolutionBody("gaussian", m, s))
            assert got == pytest.approx(expect, rel=1e-13), (m, s)


def test_volume_is_the_ball_times_one_hypergeometric_factor():
    """The form that gaussian_volume's docstring states, against the meridian
    integral at 40 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for m in range(1, 9):
            for s in _MERIDIAN_S:
                err = abs(_ball_times_factor(mp, m, s) / _meridian_volume(mp, m, s) - 1)
                assert err < 1e-30, (m, s, float(err))


def test_zonoid_and_ellipsoid_volumes_agree_at_zero_offset():
    # both bodies are the ball of radius 1/sqrt(2 pi), and both volumes are its
    # volume times a factor that is exactly 1 at s = 0
    for m in range(1, 61):
        assert gaussian_volume(m, 0.0) == BODY_KINDS["ellipsoid"].volume(m, 0.0), m
    assert volume(RevolutionBody("gaussian", 4, 0.0)) == 0.125  # pi^2/2 / (2 pi)^2


def test_one_dimensional_volume_is_the_ellipsoid_segment_bit_for_bit():
    s = np.concatenate([
        [0.0, 5e-324, 8.38, math.nextafter(8.38, 0.0), np.finfo(float).max],
        np.linspace(0.0, 20.0, 100_001),
        np.geomspace(1e-300, 1.79e308, 200_001),
    ])
    got = gaussian_volume(1, s)
    want = BODY_KINDS["ellipsoid"].volume(1, s)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.filterwarnings("error")
def test_high_dimensional_volume_keeps_the_pair_of_hypergeometric_terms():
    """scipy's single 1F1(-1/2; m/2; -c) returns inf from m = 100 (at s =
    0.87, for one); the pair of a = 1/2 terms stays finite and accurate."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for m in (100, 171):
            for s in (0.6, 0.87, 5.0):
                got = gaussian_volume(m, s)
                assert math.isfinite(got)
                assert got == pytest.approx(float(_ball_times_factor(mp, m, s)), rel=1e-13), (m, s)


def test_volume_second_term_at_large_offset():
    # 1F1(-1/2; m/2; -c) ~ Gamma(m/2)/Gamma((m+1)/2) sqrt(c) (1 + (m-1)/(4c))
    # (DLMF 13.7.2), so vol = A_m s + B_m/s + O(s^-3), B_m = A_m (m-1)/(2m)
    s = 1e3
    for m in range(2, 11):
        slope = volume_asymptote(m)
        second = (gaussian_volume(m, s) - slope * s) * s
        assert second == pytest.approx(slope * (m - 1) / (2 * m), abs=1e-5), m
    # the values measured for m = 2 to 5
    for m, b in ((2, 1 / (4 * math.sqrt(math.pi))), (3, 1 / (6 * math.sqrt(3))),
                 (4, 1 / (8 * SQRT_2PI)), (5, math.sqrt(5) / 100)):
        assert volume_asymptote(m) * (m - 1) / (2 * m) == pytest.approx(b, rel=1e-15)


def test_volume_closed_forms_are_within_their_stated_error():
    """The closed forms against 1F1 of the Euler integral at 40 digits: the
    Bessel forms of m = 1, 2 within 1e-15, and scipy's hyp1f1 of m >= 3
    within 2e-14 (it reads 47 ulp at m = 3)."""
    mp = pytest.importorskip("mpmath")
    offsets = np.concatenate([[0.0], np.geomspace(1e-4, 1e12, 100), np.linspace(0.5, 10, 24)])
    half = mp.mpf(1) / 2
    with mp.workdps(40):
        for m in (1, 2, 3, 4, 5, 7, 10, 20):
            a = mp.mpf(m - 1) / 2
            front = mp.pi**a / mp.gamma(a + 1) / (2 * mp.pi) ** (mp.mpf(m) / 2)
            for s, got in zip(offsets, gaussian_volume(m, offsets)):
                ss = mp.mpf(s) ** 2
                core = mp.beta(half, a + 1) * mp.hyp1f1(half, a + 3 * half, -m * ss / 2)
                core += ss * mp.beta(half, a + 2) * mp.hyp1f1(half, a + 5 * half, -m * ss / 2)
                err = abs(mp.mpf(float(got)) / (front * core) - 1)
                assert err <= (1e-15 if m <= 2 else 2e-14), (m, s, float(err))


@pytest.mark.filterwarnings("error")
def test_one_dimensional_volume_is_finite_up_to_the_largest_float():
    # the segment 2*axial_stretch(s)/sqrt(2 pi), about s: below 1.43e308 the
    # plain formula is finite and gives the bits, above it no longer is
    s = np.geomspace(1.0, 1.79e308, 20_001)
    s = np.concatenate([s, [1.43e308, 1.5e308, np.finfo(float).max]])
    with np.errstate(over="ignore"):
        stretch = np.exp(-0.5 * np.minimum(s, 64.0) ** 2) + SQRT_HALF_PI * s * special.erf(
            s / math.sqrt(2.0)
        )
        want = 2.0 * (stretch / SQRT_2PI)
    got = gaussian_volume(1, s)
    finite = np.isfinite(want)
    assert 0 < np.count_nonzero(~finite) and s[~finite].min() > 1.4e308
    np.testing.assert_array_equal(got[finite].view(np.uint64), want[finite].view(np.uint64))
    np.testing.assert_allclose(got[~finite], s[~finite], rtol=1e-15)  # the largest float too
    # in 1-D the outer ellipsoid is the same segment, and as finite
    np.testing.assert_array_equal(BODY_KINDS["ellipsoid"].volume(1, s), got)


def _m2_script():
    pytest.importorskip("mpmath")
    path = Path(__file__).resolve().parents[1] / "tools" / "m2_volume_series.py"
    spec = importlib.util.spec_from_file_location("m2_volume_series", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_m2_series_coefficients_are_the_script_output():
    script = _m2_script()
    assert _M2_SERIES == script.coefficients()
    exact = script.exact_coefficients()
    assert exact[:3] == [Fraction(1, 4), Fraction(1, 64), Fraction(3, 512)]
    # dyadic rationals, so the frozen floats are exact, and all positive
    assert [Fraction(c) for c in _M2_SERIES] == exact[1:]
    assert all(c > 0 for c in _M2_SERIES)


def test_m2_volume_series_is_within_its_ulp_bound():
    """On z = s^2/2 in [30, 5e15] the series is within 2.5 ulp of mpmath at
    the exact s, and no worse than the Bessel pair it replaces there."""
    script = _m2_script()
    z = np.concatenate([np.geomspace(30.0, 5e15, 1200), np.linspace(30.0, 60.0, 300)])
    s = np.sqrt(2.0 * z)
    assert s.min() >= _M2_SERIES_S
    zz = 0.5 * s * s
    bessel = (zz + 0.5) * special.i0e(zz) + zz * special.i1e(zz)
    want = [script.reference_volume(si) for si in s]
    mpf = script.mpmath.mpf

    def ulps(got):
        return max(float(abs(mpf(float(g)) - w) / math.ulp(float(w))) for g, w in zip(got, want))

    series, pair = ulps(gaussian_volume(2, s)), ulps(bessel)
    assert series <= 2.5, series
    assert series <= pair, (series, pair)


def test_m2_volume_increases_across_z_30():
    # the Bessel pair below s = sqrt(60), the series from it on
    s = _M2_SERIES_S * (1.0 + 1e-6 * np.arange(-2000, 2001))
    v = gaussian_volume(2, s)
    assert np.all(np.diff(v) > 0)
    below, at = math.nextafter(_M2_SERIES_S, 0.0), _M2_SERIES_S
    assert 0.5 * below * below < 30.0 <= 0.5 * at * at
    assert gaussian_volume(2, at) == pytest.approx(gaussian_volume(2, below), rel=1e-15)


def test_volume_ellipsoid():
    # stretched ball / sqrt(2 pi): vol = stretch * kappa_m / (2 pi)^(m/2)
    for m, s in ((2, 1.0), (3, 2.0)):
        assert volume(RevolutionBody("ellipsoid", m, s)) == pytest.approx(
            axial_stretch(s) * ball_volume(m) / (2 * math.pi) ** (m / 2), rel=1e-11
        )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan])
def test_public_volumes_refuse_a_non_finite_offset(s):
    # the section volumes of fields read these forms too; gaussian_volume
    # refuses a negative offset as well, before any arithmetic on it
    # refuses a negative offset as well, before any arithmetic on it, and so
    # does the ellipsoid's, which used to take -s for s
    for m in (1, 2, 3, 8):
        for bad in (s, -1.0, -1e160, np.array([1.0, s])):
            for vol in (gaussian_volume, BODY_KINDS["ellipsoid"].volume):
                with pytest.raises(ValueError, match="must be finite and nonnegative"):
                    vol(m, bad)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["gaussian", "normalized", "ellipsoid"])
def test_supports_are_homogeneous_bit_for_bit(kind):
    # h(2^k u) = 2^k h(u) wherever that is finite; a support past the
    # largest float raises, with no overflow warning first
    support = BODY_KINDS[kind].support
    t = np.linspace(0.0, math.pi / 2, 91)
    x = np.concatenate([np.cos(t), [2.0, -1.5, 0.3, 0.0, 1.0, 1e-300]])
    yr = np.concatenate([np.sin(t), [0.0, 0.7, 1e-3, 1.9, 1.0, 0.0]])
    for s in (1.0, 1e155, 1e308):
        h = support(s, x, yr)
        for k in (1, 2, 100):
            with np.errstate(over="ignore"):
                want = np.ldexp(h, k)
            finite = np.isfinite(want)
            got = support(s, np.ldexp(x[finite], k), np.ldexp(yr[finite], k))
            np.testing.assert_array_equal(got, want[finite])
            if not np.all(finite):
                with pytest.raises(ValueError, match="exceeds the largest float"):
                    support(s, np.ldexp(x, k), np.ldexp(yr, k))


@pytest.mark.filterwarnings("error")
def test_normalized_volume_is_finite_up_to_the_largest_float():
    # (2 pi)^(m/2)/axial_stretch(s) with the stretch at 1/8 scale: the same
    # quotient wherever the plain one is finite, and past 1.43e308 the limit
    # body's volume, about 2, 2.83 and 3.63 in dimensions 1 to 3
    s = np.concatenate([np.linspace(0.0, 20.0, 2_001), np.geomspace(1e-300, 1.4e308, 2_001)])
    for m in (1, 2, 3, 8):
        got = BODY_KINDS["normalized"].volume(m, s)
        want = (2 * math.pi) ** (m / 2) / axial_stretch(s) * gaussian_volume(m, s)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        limit = BODY_KINDS["limit"].volume(m, None)
        for big in (1.5e308, np.finfo(float).max):
            assert BODY_KINDS["normalized"].volume(m, big) == pytest.approx(limit, rel=1e-15)


@pytest.mark.filterwarnings("error")
def test_normalized_support_keeps_its_digits_where_the_stretch_is_huge():
    # d/axial_stretch(s) is subnormal or 0 there; the support at a pole is |x|
    assert normalized_support(1e100, 1e-300, 0.0) == 1e-300
    assert normalized_support(1e308, 1.0, 0.0) == 1.0
    assert normalized_support(1e308, 2.0, 0.0) == 2.0
    assert normalized_support(1e308, -2.0, 0.0) == 2.0
    assert check_inclusion(3, 1e308).max_ratio_upper == 1.0
    # h(2^-k u) = 2^-k h(u), bit for bit, down to directions of size 2^-1000
    # whose components stay normal floats
    t = np.linspace(0.0, math.pi, 181)
    x, yr = np.cos(t), np.sin(t)
    x[np.abs(x) < 1e-15] = 0.0
    yr[yr < 1e-15] = 0.0
    x, yr = np.append(x, 0.6), np.append(yr, 0.8)
    for s in (1.0, 1e8, 1e100, 1e308):
        h = normalized_support(s, x, yr)
        for k in (100, 500, 1000):
            got = normalized_support(s, np.ldexp(x, -k), np.ldexp(yr, -k))
            np.testing.assert_array_equal(got, np.ldexp(h, -k), err_msg=f"s={s} k={k}")


# -- the sandwich ------------------------------------------------------------------


def test_ellipsoid_dominates_gaussian_support():
    rng = stream(99, 0)
    for s in (0.0, 0.5, 1.0, 2.0, 5.0, 100.0):
        u = rng.normal(size=(2_000, 2))
        x, yr = u[:, 0], np.abs(u[:, 1])
        hg = gaussian_support(s, x, yr)
        he = ellipsoid_support(s, x, yr)
        b = limit_body_inradius()
        assert np.all(hg <= he * (1 + 1e-12))
        assert np.all(hg >= b * he * (1 - 1e-12))


def test_check_inclusion_reports():
    rep = check_inclusion(3, 1.0, n_dirs=10_000, seed=7)
    assert rep.passed
    assert rep.min_ratio_lower >= limit_body_inradius() - rep.slack
    assert rep.max_ratio_upper <= 1 + rep.slack
    d = rep.as_dict()
    assert d["dim"] == 3 and d["n_dirs"] == 10_000
    assert isinstance(rep.worst_direction, Direction)


def test_inclusion_min_ratio_saturates_at_large_offset():
    # at s = 100 the worst sampled ratio sits at the universal constant
    rep = check_inclusion(2, 100.0, n_dirs=10_000, seed=2024)
    assert rep.min_ratio_lower == pytest.approx(limit_body_inradius(), abs=1e-3)


def test_check_inclusion_deterministic():
    a = check_inclusion(2, 1.0, n_dirs=2_000, seed=5)
    b = check_inclusion(2, 1.0, n_dirs=2_000, seed=5)
    assert a == b


def _sandwich_reference(mp, s, t0):
    """b(s) at 32 digits: the normalized support at the root of its slope
    -sin t * A + cos t * R, (A, R) the boundary point of normal angle t."""
    with mp.workdps(32):
        s = mp.mpf(s)
        lam = mp.exp(-s * s / 2) + mp.sqrt(mp.pi / 2) * s * mp.erf(s / mp.sqrt(2))

        def jet(t):  # h and the slope of the normalized support at angle t
            x, y = mp.cos(t) / lam, mp.sin(t)
            sigma = mp.hypot(x, y)
            w = x * s / sigma
            e, g = mp.exp(-w * w / 2), mp.sqrt(2 * mp.pi) / 2 * s * mp.erf(w / mp.sqrt(2))
            a, r = (x / sigma * e + g) / lam, y / sigma * e
            return sigma * e + x * g, -mp.sin(t) * a + mp.cos(t) * r

        return jet(mp.findroot(lambda t: jet(t)[1], mp.mpf(t0)))[0]


@pytest.mark.parametrize("s", [0.1, 0.5, 1.0, 2.0, 10.0, 1000.0])
def test_sandwich_constant_matches_mpmath(s):
    mp = pytest.importorskip("mpmath")
    t0 = 0.61 if s > 2 else 0.75
    assert sandwich_constant(s) == pytest.approx(float(_sandwich_reference(mp, s, t0)), rel=1e-15)


def test_sandwich_constant_falls_from_one_to_b_infinity():
    b_inf = limit_body_inradius()
    b = np.array([sandwich_constant(s) for s in np.geomspace(0.05, 1e4, 60)])
    assert sandwich_constant(0.0) == 1.0
    assert np.all(np.diff(b) < 0) and b[0] < 1.0 and b[-1] > b_inf
    # the two asymptotes: 1 - b ~ 0.0208 s^4 near 0, b - b_inf ~ 0.1946/s^2
    for s in (0.01, 0.02):
        assert (1.0 - sandwich_constant(s)) / s**4 == pytest.approx(0.02083, rel=1e-3)
    for s in (100.0, 1000.0, 1e4):
        assert (sandwich_constant(s) - b_inf) * s**2 == pytest.approx(0.19456, rel=1e-3)
    assert sandwich_constant(1e300) == pytest.approx(b_inf, rel=1e-15)


def test_quadrant_scan_brackets_the_one_minimum():
    """What the 1001-angle bracket of b(s) rests on: the slope -sin t * A +
    cos t * R of the support on the unit circle changes sign once between pi/8
    and 3 pi/8, and the least support of the quadrant lies between them.  Below
    s ~ 0.002 the body is the ball to within rounding, and the slope is noise."""
    t = np.linspace(math.pi / 8, 3 * math.pi / 8, 20_001)
    q = np.linspace(0.0, math.pi / 2, 20_001)
    bodies = [RevolutionBody("normalized", 2, float(s)) for s in np.geomspace(0.01, 1e300, 200)]
    for body in [*bodies, RevolutionBody("limit", 2)]:
        ax, rad = body.boundary(t)
        slope = -np.sin(t) * ax + np.cos(t) * rad
        assert slope[0] < 0.0 < slope[-1], body
        assert np.count_nonzero(np.diff(slope > 0.0)) == 1, body
        least = q[np.argmin(body.support(np.cos(q), np.sin(q)))]
        assert math.pi / 8 < least < 3 * math.pi / 8, body


@pytest.mark.parametrize("s", [0.5, 1.0, 50.0, 1e300])
def test_inclusion_minimum_is_the_sandwich_constant(s):
    b = sandwich_constant(s)
    for m in (2, 3, 6):
        for seed in (0, 3):
            for n in (1, 2, 3, 10, 1000):
                rep = check_inclusion(m, s, n_dirs=n, seed=seed)
                assert rep.passed and rep.min_ratio_lower == b
                assert rep.max_ratio_upper == pytest.approx(1.0, abs=1e-15)


def test_inclusion_at_a_huge_offset_reaches_b_infinity():
    rep = check_inclusion(3, 1e300, n_dirs=300_000, seed=2)
    assert rep.passed
    assert rep.min_ratio_lower == pytest.approx(limit_body_inradius(), rel=1e-15)


def test_inclusion_ratio_is_one_on_the_line_and_at_zero_offset():
    # in one dimension the directions are the poles; at s = 0 both bodies are the ball
    for m, s in ((1, 0.0), (1, 3.0), (1, 1e300), (2, 0.0), (5, 0.0)):
        rep = check_inclusion(m, s, n_dirs=100, seed=1)
        assert rep.passed
        assert rep.min_ratio_lower == 1.0 and rep.max_ratio_upper == 1.0
        assert rep.worst_direction == Direction(1.0, 0.0)


# -- linear algebra pieces -----------------------------------------------------------


def test_mean_stretch_matrix():
    assert np.allclose(mean_stretch_matrix(np.zeros(3)), np.eye(3))
    c = np.array([2.0, 0.0])
    t = mean_stretch_matrix(c)
    assert t[0, 0] == pytest.approx(axial_stretch(2.0))
    assert t[1, 1] == 1.0
    # rotation equivariance: T_{Qc} = Q T_c Q^T
    ang = 0.7
    q = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    assert np.allclose(mean_stretch_matrix(q @ c), q @ t @ q.T, atol=1e-14)


def test_gaussian_vector_validation():
    with pytest.raises(ValueError):
        GaussianVector(np.zeros((2, 2)), np.zeros(2))  # singular
    with pytest.raises(ValueError):
        GaussianVector(np.eye(2), np.zeros(3))  # shape mismatch
    with pytest.raises(ValueError, match="at least 1 x 1"):
        GaussianVector(np.eye(0), np.zeros(0))  # no singular value to test
    gv = GaussianVector(np.eye(2), np.array([1.0, 0.0]))
    assert gv.dim == 2
    assert gv.mean_norm == 1.0


def test_gaussian_vector_support_matches_reduced_form():
    mat = np.array([[1.0, 0.3], [0.0, 0.8]])
    c = np.array([0.7, -0.2])
    gv = GaussianVector(mat, c)
    u = np.array([0.6, 0.8])
    # reduce by hand: X = M(c + xi), <u, X> has mean <M^T u, c>, std |M^T u|
    w = mat.T @ u
    s = float(np.linalg.norm(c))
    x = float(w @ c) / (s * np.linalg.norm(w))
    yr = math.sqrt(max(0.0, 1 - x * x))
    expect = float(np.linalg.norm(w)) * gaussian_support(s, x, yr)
    assert gv.support(u) == pytest.approx(expect, rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_gaussian_vector_support_of_a_huge_direction():
    # |u| = 1.4e200: the squares of its radial part overflow unless they are
    # scaled, and the support is homogeneous of degree 1
    gv = GaussianVector(np.eye(2), np.array([1.0, 0.0]))
    big, unit = gv.support(np.array([1e200, 1e200])), gv.support(np.array([1.0, 1.0]))
    assert abs(big - 1e200 * unit) <= np.spacing(big)
    # each direction of a batch is scaled on its own, so a huge one does not
    # push the squares of a tiny one below the least float
    many = gv.support(np.array([[1e200, 1e200], [3e300, -4e300], [1e-300, 1e-300]]))
    assert many[0] == big
    assert abs(many[1] - 1e300 * gv.support(np.array([3.0, -4.0]))) <= np.spacing(many[1])
    assert abs(many[2] - 1e-300 * unit) <= np.spacing(many[2])


def test_body_validation():
    with pytest.raises(ValueError):
        RevolutionBody("gaussian", 0, 1.0)
    with pytest.raises(ValueError):
        RevolutionBody("limit", 2, 1.0)  # limit takes no offset
    with pytest.raises(ValueError):
        RevolutionBody("normalized", 2, 0.0)  # needs s > 0
    with pytest.raises(ValueError):
        RevolutionBody("disk", 2, 1.0)
