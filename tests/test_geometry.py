"""Bodies of revolution: supports, gradients, volumes, and the sandwich."""
import math

import numpy as np
import pytest

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
    """Closed forms against the meridian integral at 40 digits, written in
    u = cos t and split 4 and 16 Gaussian widths 1/sqrt(c) from the equator."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        _check_volumes_against(mp)


def _check_volumes_against(mp):
    for m in range(1, 9):
        e = mp.mpf(m - 1) / 2
        front = 2 * mp.pi**e / mp.gamma(e + 1) / (2 * mp.pi) ** (mp.mpf(m) / 2)
        # for m >= 2, where the volume is linear in s from s = 1e8 on
        far = (1e8, 1e20, 1e50, 1e200) if m >= 2 else ()
        for s in (0.0, 0.3, 1.0, 3.0, 10.0, 50.0, 436.0, 1200.0, 1e4, *far):
            ss = mp.mpf(s) ** 2
            c = m * ss / 2

            def f(u):
                return (1 - u * u) ** e * (1 + ss * (1 - u * u)) * mp.exp(-c * u * u)

            widths = [k / mp.sqrt(c) for k in (4, 16)] if c else []
            pts = sorted({mp.mpf(0), mp.mpf(1), *(w for w in widths if w < 1)})
            expect = float(front * mp.quad(f, pts))
            got = volume(RevolutionBody("gaussian", m, s))
            assert got == pytest.approx(expect, rel=1e-13), (m, s)


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


def test_volume_ellipsoid():
    # stretched ball / sqrt(2 pi): vol = stretch * kappa_m / (2 pi)^(m/2)
    for m, s in ((2, 1.0), (3, 2.0)):
        assert volume(RevolutionBody("ellipsoid", m, s)) == pytest.approx(
            axial_stretch(s) * ball_volume(m) / (2 * math.pi) ** (m / 2), rel=1e-11
        )


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


def test_body_validation():
    with pytest.raises(ValueError):
        RevolutionBody("gaussian", 0, 1.0)
    with pytest.raises(ValueError):
        RevolutionBody("limit", 2, 1.0)  # limit takes no offset
    with pytest.raises(ValueError):
        RevolutionBody("normalized", 2, 0.0)  # needs s > 0
    with pytest.raises(ValueError):
        RevolutionBody("disk", 2, 1.0)
