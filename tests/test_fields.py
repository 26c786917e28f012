"""Zero counting for smooth periodic fields: three routes, one answer."""
import math
import sys

import numpy as np
import pytest
from scipy import integrate, special

import gausszonoids as gz
from test_kernels import scalar_bisect
from gausszonoids import (
    GridResolutionError,
    GridSpec,
    MCConfig,
    RevolutionBody,
    TubeSpec,
    concentration_limit,
    envelope_sandwich,
    expected_zeros_coarea,
    expected_zeros_integral,
    grid_for_tube,
    mc_zero_count_circle,
    section_support,
    section_volume,
    sine_field,
    volume,
)

SIN2 = sine_field(2)
SIN2_2D = sine_field(2, dim=2)
# one independent full-circle value, frozen after computing it with mpmath
# quadrature of the closed-form section-volume integrand
WHOLE_CIRCLE_TAU1 = 3.0168479124524823


def test_field_spec_basics():
    f = SIN2
    assert f.dim == 1
    assert f.name == "sin2"
    assert f.zero_set_measure == pytest.approx(4.0)  # four zeros, counted
    p = np.array([[0.3], [1.1]])
    assert f.phi(p).shape == (2,)
    assert f.grad(p).shape == (2, 1)
    assert np.allclose(f.phi(np.array([[math.pi / 4]])), [1.0])
    # on T^2 the zero set is 2k circles of length 2 pi
    assert SIN2_2D.dim == 2
    assert SIN2_2D.zero_set_measure == pytest.approx(4 * 2 * math.pi)


def test_sine_field_validation():
    with pytest.raises(ValueError):
        sine_field(0)
    with pytest.raises(ValueError):
        sine_field(2, dim=0)
    with pytest.raises(ValueError):
        SIN2.axis.slopes_at_level(1.0)  # |v| must stay below the level cap
    with pytest.raises(NotImplementedError):
        expected_zeros_integral(sine_field(2, dim=3), TubeSpec(0.1, 0.3), GridSpec())


def test_tube_and_grid_validation():
    with pytest.raises(ValueError):
        TubeSpec(0.0, 1.0)
    with pytest.raises(ValueError):
        TubeSpec(1e-3, 0.0)
    TubeSpec(1e-3, math.inf)  # whole domain is fine
    with pytest.raises(ValueError):
        GridSpec(resolution=8)
    # the cap of the circle's grids holds for every grid
    GridSpec(gz.fields._MAX_CELLS_1D)
    with pytest.raises(ValueError):
        GridSpec(gz.fields._MAX_CELLS_1D + 1)


# --- local section bodies ------------------------------------------------

def test_section_support_large_tau_is_spherical():
    # tau >> |phi|, |grad|: the section tends to the ball of radius 1/(2 pi)
    p = np.array([0.37])
    for u in ([1.0], [-1.0]):
        got = section_support(SIN2, p, 1e3, np.array(u))
        assert got == pytest.approx(1 / (2 * math.pi), rel=1e-3)


def test_section_support_off_zero_set_is_tiny():
    # away from the zero set with tau tiny, the Gaussian weight crushes it
    p = np.array([math.pi / 4])  # phi = 1 there
    tau = 1e-3
    got = section_support(SIN2, p, tau, np.array([1.0]))
    bound = math.exp(-1.0 / (4 * tau**2))
    assert got <= bound  # both underflow to 0 in float64, and that is the point
    assert got == 0.0


def test_section_support_on_zero_set_orthogonal_direction():
    # on the zero set, directions orthogonal to the gradient see the plain
    # Gaussian width 1/(2 pi) with no tilt correction
    p = np.array([0.0, 0.123])
    got = section_support(SIN2_2D, p, 0.05, np.array([0.0, 1.0]))
    assert got == pytest.approx(1 / (2 * math.pi), rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_section_support_of_a_huge_direction():
    # homogeneous of degree 1 past |u| = 1.3e154, where the squares of the
    # radial part of u would overflow
    p = np.array([0.3, 0.1])
    big = section_support(SIN2_2D, p, 0.1, np.array([1e200, 1e200]))
    unit = section_support(SIN2_2D, p, 0.1, np.array([1.0, 1.0]))
    assert abs(big - 1e200 * unit) <= np.spacing(big)


def test_section_volume_positive_and_even():
    vol_plus = section_volume(SIN2, np.array([0.2]), 0.5)
    vol_minus = section_volume(SIN2, np.array([-0.2]), 0.5)
    assert vol_plus > 0
    assert vol_plus == pytest.approx(vol_minus, rel=1e-12)


# --- the three routes ----------------------------------------------------

def _every_axis_field(m):
    """phi = sum_j 0.3 sin(x_j + j)/(j + 1) on T^m: every component of its
    gradient is nonzero at almost every point."""
    shift = np.arange(m, dtype=float)
    amp = 0.3 / (shift + 1.0)
    return gz.ScalarFieldSpec(
        m, lambda p: np.sum(amp * np.sin(p + shift), axis=-1), lambda p: amp * np.cos(p + shift)
    )


@pytest.mark.parametrize("m", [1, 2, 3, 7, 8])
@pytest.mark.parametrize("kind", ["gaussian", "ellipsoid"])
def test_section_volumes_are_the_body_volumes(m, kind):
    # (2 pi)^(-m/2) e^{-m phi^2/(2 tau^2)} vol(body of offset |grad phi|/tau);
    # the squares of the gradient are summed in order, numpy's norm in its own
    # order (pairwise from 8 terms), so the offsets agree to rounding only
    field, tau = _every_axis_field(m), 0.3
    pts = gz.stream(17, 0).uniform(0.0, 2.0 * math.pi, (40, m))
    assert np.all(field.grad(pts) != 0.0)
    (got,) = gz.fields._section_volume_vec(field, tau, pts, (kind,))
    phi = field.phi(pts)
    s = np.linalg.norm(field.grad(pts), axis=-1) / tau
    vols = np.array([volume(RevolutionBody(kind, m, float(v))) for v in s])
    scale = (2.0 * math.pi) ** (-m / 2) * np.exp(-m * phi * phi / (2.0 * tau * tau))
    assert np.allclose(got, scale * vols, rtol=1e-15, atol=0)


def test_1d_section_body_is_its_ellipsoid():
    # in 1-D the zonoid and its outer ellipsoid are the same segment
    pts = np.linspace(0.0, 2.0 * math.pi, 1001)[:, None]
    zonoid, ellipsoid = gz.fields._section_volume_vec(SIN2, 0.05, pts, ("gaussian", "ellipsoid"))
    np.testing.assert_array_max_ulp(zonoid, ellipsoid, maxulp=1)
    rep = envelope_sandwich(SIN2, 0.05, GridSpec(4096))
    assert rep.min_ratio == rep.max_ratio == 1.0
    assert rep.max_upper_violation == 0.0 and rep.count_upper == rep.count


def test_whole_circle_frozen_value():
    got = expected_zeros_integral(SIN2, TubeSpec(1.0, math.inf), GridSpec(4096))
    assert got == pytest.approx(WHOLE_CIRCLE_TAU1, rel=1e-10)


def _midpoint_count(field, tube, n):
    """Reference rule: m! times the section volume at the midpoint of every
    cell of the n^m grid whose midpoint lies in the tube, times h^m."""
    m, h = field.dim, 2 * math.pi / n
    mids = (np.arange(n) + 0.5) * h
    total = 0.0
    for rows in np.array_split(mids, 16) if m == 2 else [None]:
        axes = (mids,) if m == 1 else (mids, rows)
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
        phi, s = field.phi(pts), np.linalg.norm(field.grad(pts), axis=-1) / tube.tau
        vol = np.exp(-m * phi**2 / (2 * tube.tau**2)) * gz.geometry.gaussian_volume(m, s)
        total += np.sum(vol[np.abs(phi) < tube.r])
    return math.factorial(m) * total * h**m / (2 * math.pi) ** (m / 2)


def test_rules_agree():
    tube = TubeSpec(0.05, 0.3)
    a = expected_zeros_integral(SIN2, tube, GridSpec(4096))
    b = _midpoint_count(SIN2, tube, 8192)
    assert a == pytest.approx(b, rel=1e-6)


def test_integral_matches_coarea_dim1():
    tube = TubeSpec(3e-2, 0.4)
    n_int = expected_zeros_integral(SIN2, tube, GridSpec(8192))
    n_coa = expected_zeros_coarea(SIN2, tube)
    assert n_int == pytest.approx(n_coa, rel=1e-9)


def test_integral_matches_coarea_dim2():
    tube = TubeSpec(5e-2, 0.4)
    n_int = expected_zeros_integral(SIN2_2D, tube, GridSpec(512))
    n_coa = expected_zeros_coarea(SIN2_2D, tube)
    assert n_int == pytest.approx(n_coa, rel=5e-3)


def test_rows_match_coarea_dim2():
    # the rows bisect every tube crossing, so the sin2-2d count meets the
    # coarea value to rounding, and refining the grid changes nothing
    tube = TubeSpec(5e-2, 5e-2)
    n_coa = expected_zeros_coarea(SIN2_2D, tube)
    n_1024 = expected_zeros_integral(SIN2_2D, tube, GridSpec(1024))
    n_2048 = expected_zeros_integral(SIN2_2D, tube, GridSpec(2048))
    assert n_1024 == pytest.approx(n_coa, rel=1e-9)
    assert abs(n_2048 - n_1024) <= 1e-8


def _mixed_field():
    # depends on both coordinates, so neither the coarea route nor a
    # constant row integral applies
    def phi(p):
        p = np.asarray(p, dtype=float)
        return np.sin(p[..., 0]) + 0.5 * np.sin(2 * p[..., 1]) + 0.3

    def grad(p):
        p = np.asarray(p, dtype=float)
        return np.stack([np.cos(p[..., 0]), np.cos(2 * p[..., 1])], axis=-1)

    return gz.ScalarFieldSpec(2, phi, grad, name="mixed")


def test_rows_converge_on_a_genuinely_2d_field():
    field, tube = _mixed_field(), TubeSpec(0.1, 0.2)
    coarse = expected_zeros_integral(field, tube, GridSpec(512))
    fine = expected_zeros_integral(field, tube, GridSpec(2048))
    mid = _midpoint_count(field, tube, 2048)
    assert coarse == pytest.approx(fine, rel=1e-7)
    # the midpoint reference rule cuts the tube first order in the cell size
    assert mid == pytest.approx(fine, rel=5e-5)


def _volume_2d(phi, grad_sq, tau):
    """The section volume on T^2 at a point where phi and |grad phi|^2 take
    these values."""
    z = 0.5 * grad_sq / tau**2
    g2 = (z + 0.5) * special.i0e(z) + z * special.i1e(z)
    return math.exp(-phi * phi / tau**2) / (2 * math.pi) * g2


def _mixed_row(x2, r, tau):
    """The row integral of the mixed field's section volume at height x2, by
    adaptive quadrature between the roots of |phi| = r in x1 (from arcsin)."""
    c = 0.5 * math.sin(2 * x2) + 0.3

    def vol(x1):
        return _volume_2d(math.sin(x1) + c, math.cos(x1) ** 2 + math.cos(2 * x2) ** 2, tau)

    cuts = [0.0, 2 * math.pi]
    v = r - c  # phi = r where sin x1 = v
    if abs(v) < 1:
        cuts += [math.asin(v) % (2 * math.pi), math.pi - math.asin(v)]
    # phi = -r where 1 + sin x1 = d, written so that it keeps its digits
    # near the saddle (3 pi/2, pi/4), where d -> 0
    d = math.sin(x2 - math.pi / 4) ** 2 + 0.2 - r
    if 0 < d < 2:
        w = 2 * math.asin(math.sqrt(d / 2))
        cuts += [1.5 * math.pi - w, 1.5 * math.pi + w]
    cuts.sort()
    return sum(
        integrate.quad(vol, a, b, epsabs=0.0, epsrel=2e-14, limit=200)[0]
        for a, b in zip(cuts[:-1], cuts[1:])
        if abs(math.sin(0.5 * (a + b)) + c) < r
    )


def _mixed_reference(r, tau=0.1):
    """Nested adaptive quadrature of the mixed field's zero count: the outer
    integral in x2 breaks at the multiples of pi/4 (the critical points of
    phi) and at the folds, where sin 2 x2 = (0.7 - r)/0.5."""
    cuts = [k * math.pi / 4 for k in range(9)]
    v = (0.7 - r) / 0.5
    if v <= 1:
        folds = (0.5 * math.asin(v), 0.5 * (math.pi - math.asin(v)))
        cuts += [h + k * math.pi for h in folds for k in (0, 1)]
    cuts = sorted(set(cuts))
    return 2 * sum(
        integrate.quad(_mixed_row, a, b, args=(r, tau), epsabs=0.0, epsrel=2e-14, limit=200)[0]
        for a, b in zip(cuts[:-1], cuts[1:])
    )


# r = 0.2 puts the saddle of phi on the tube boundary; r = 0.25 has folds
@pytest.mark.parametrize("r, frozen", [(0.2, 5.0568033378786), (0.25, 5.0794696139359)])
def test_mixed_field_meets_the_nested_quadrature(r, frozen):
    field, tube = _mixed_field(), TubeSpec(0.1, r)
    ref = _mixed_reference(r)
    assert ref == pytest.approx(frozen, rel=1e-13)
    got = expected_zeros_integral(field, tube, grid_for_tube(field, r))
    assert got == pytest.approx(ref, rel=1e-11)
    # the x2 rule's estimate bounds the error whatever the cells along x1
    for n in (256, 512, 1024, 2048):
        (total,), (err,) = gz.fields._integral_2d(field, tube, GridSpec(n), ("gaussian",))
        assert abs(2 * total - ref) <= 2 * err
        assert err <= 1e-11 * total


def _cos_sin_field():
    # phi = cos x1 + 2 sin x2 passes 0 on both branches of critical points
    # along the rows, x1 = 0 and x1 = pi
    def phi(p):
        p = np.asarray(p, dtype=float)
        return np.cos(p[..., 0]) + 2 * np.sin(p[..., 1])

    def grad(p):
        p = np.asarray(p, dtype=float)
        return np.stack([-np.sin(p[..., 0]), 2 * np.cos(p[..., 1])], axis=-1)

    return gz.ScalarFieldSpec(2, phi, grad, name="cos-sin")


def _cos_sin_row(x2, r, tau):
    """The row integral of the cos-sin field's section volume at height x2,
    by adaptive quadrature between the roots of |phi| = r in x1 (from
    arccos)."""
    c = 2 * math.sin(x2)

    def vol(x1):
        return _volume_2d(math.cos(x1) + c, math.sin(x1) ** 2 + 4 * math.cos(x2) ** 2, tau)

    cuts = [0.0, 2 * math.pi]
    for v in (r - c, -r - c):  # phi = +-r where cos x1 = v
        if abs(v) < 1:
            cuts += [math.acos(v), 2 * math.pi - math.acos(v)]
    cuts.sort()
    return sum(
        integrate.quad(vol, a, b, epsabs=0.0, epsrel=2e-14, limit=200)[0]
        for a, b in zip(cuts[:-1], cuts[1:])
        if abs(math.cos(0.5 * (a + b)) + c) < r
    )


def _cos_sin_folds(r):
    """The eight folds of the cos-sin field's tube: the heights where a row
    extremum +-1 + 2 sin x2 of phi is +-r."""
    levels = ((r - 1) / 2, (-r - 1) / 2, (r + 1) / 2, (1 - r) / 2)
    return sorted(h for w in map(math.asin, levels) for h in (w % (2 * math.pi), math.pi - w))


def _cos_sin_reference(r, tau):
    """Nested adaptive quadrature of the cos-sin field's zero count: the
    outer integral in x2 breaks at the multiples of pi/2 and at the folds."""
    cuts = sorted([k * math.pi / 2 for k in range(5)] + _cos_sin_folds(r))
    return 2 * sum(
        integrate.quad(_cos_sin_row, a, b, args=(r, tau), epsabs=0.0, epsrel=2e-14, limit=200)[0]
        for a, b in zip(cuts[:-1], cuts[1:])
    )


def test_folds_where_phi_passes_zero_on_a_branch():
    # |phi| - r is positive at both ends of each monotone part of a branch,
    # where phi runs between -1 and 3 (x1 = 0) or -3 and 1 (x1 = pi): its
    # folds show only as sign changes of phi - r and phi + r
    r, field, tube = 0.05, _cos_sin_field(), TubeSpec(0.1, 0.05)
    tops = [0.5 * math.pi, 1.5 * math.pi]
    breaks = gz._tube._fold_breaks(field, r, 256)
    np.testing.assert_allclose(breaks, sorted(tops + _cos_sin_folds(r)), rtol=0, atol=1e-12)
    ref = _cos_sin_reference(r, 0.1)
    assert ref == pytest.approx(2.2168515578906938, rel=1e-13)
    (total,), (err,) = gz.fields._integral_2d(
        field, tube, grid_for_tube(field, r), ("gaussian",)
    )
    assert 2 * total == pytest.approx(ref, rel=1e-12)
    assert abs(2 * total - ref) <= 2 * err


def test_x2_estimate_bounds_the_error_on_sin2_2d():
    tube = TubeSpec(5e-2, 5e-2)
    (total,), (err,) = gz.fields._integral_2d(SIN2_2D, tube, GridSpec(1024), ("gaussian",))
    n_coa = expected_zeros_coarea(SIN2_2D, tube)
    assert abs(2 * total - n_coa) <= 2 * err <= 1e-13 * n_coa


def _counted(field):
    """The field, and a list that gets the number of points of each call of
    its phi."""
    points = []

    def phi(p):
        points.append(p.size // p.shape[-1])
        return field.phi(p)

    return gz.ScalarFieldSpec(field.dim, phi, field.grad, name=field.name), points


def test_torus_integral_evaluates_few_points():
    # the rows come from the x2 rule, not one per cell: at 4096 cells along
    # x1 the integral calls phi at under 160,000 points, 0.6 % of the 4096^2
    # points plus the bisections (25.4 M) of one midpoint row per cell
    counted, points = _counted(SIN2_2D)
    tube = TubeSpec(0.05, 0.05)
    got = expected_zeros_integral(counted, tube, GridSpec(4096))
    assert sum(points) < 160_000
    assert got == pytest.approx(expected_zeros_coarea(SIN2_2D, tube), rel=1e-14)


def test_tube_rows_take_one_pass():
    # at 4100 cells each peak of |sin 2 x1| lies mid-cell, and |phi| < r =
    # 0.999999 but within 0.47 cells of it: each of the four cells holding
    # one is split at its turn into two panels that cross r once.  phi is
    # evaluated once at the n + 1 edges, at the 12 nodes of each panel, at
    # each turn, and at every bisection step of the rule (test_kernels), to
    # adjacent floats, of each turn and each crossing
    n, r, turns = 4100, 0.999999, 4
    counted, points = _counted(SIN2)
    expected_zeros_integral(counted, TubeSpec(0.1, r), GridSpec(n))

    def at(fn, t):
        return float(fn(np.array([[t]])).ravel()[0])

    edges, steps = np.linspace(0.0, 2.0 * math.pi, n + 1), 0
    for c in np.floor((0.25 + 0.5 * np.arange(turns)) * math.pi / (edges[1] - edges[0])):
        lo, hi = edges[int(c)], edges[int(c) + 1]
        turn, k = scalar_bisect(lambda t: at(SIN2.phi, t) * at(SIN2.grad, t), lo, hi)
        crossing = lambda t: abs(at(SIN2.phi, t)) - r
        steps += k + scalar_bisect(crossing, lo, turn)[1] + scalar_bisect(crossing, turn, hi)[1]
    assert 40 * 3 * turns <= steps <= 60 * 3 * turns
    assert sum(points) == n + 1 + 12 * (n + turns) + turns + steps
    # r = inf keeps the cells whole and evaluates no edge: phi is evaluated
    # on the pointwise check's n points and at the nodes of the n cells
    counted, points = _counted(SIN2)
    envelope_sandwich(counted, 0.05, GridSpec(4096))
    assert sum(points) == 4096 + 12 * 4096


def test_torus_rows_split_at_their_turns():
    # the circle's in-cell dip on T^2: phi does not depend on x2, so the
    # count is 2! * 2 pi times the row integral over the one interval where
    # |phi| < r, which lies inside cell 1000 of the 4096 cells along x1
    t0 = 2.0 * math.pi * 1000.5 / 4096
    dip = gz.ScalarFieldSpec(
        2,
        lambda p: np.cos(p[..., 0] - t0) - 1.01 + 5e-8,
        lambda p: np.stack([-np.sin(p[..., 0] - t0), np.zeros_like(p[..., 1])], axis=-1),
        name="dip-2d",
    )
    tau, half = 0.5, math.acos(1.0 - 5e-8)  # |phi| < 0.01 on |x1 - t0| < half
    row, _ = integrate.quad(
        lambda x: section_volume(dip, np.array([x, 0.0]), tau),
        t0 - half, t0 + half, epsabs=0.0, epsrel=1e-13,
    )
    got = expected_zeros_integral(dip, TubeSpec(tau, 0.01), GridSpec(4096))
    assert got == pytest.approx(2 * 2 * math.pi * row, rel=1e-12)


def test_x2_rule_refuses_what_it_cannot_resolve():
    # phi = sin x2 has no critical points along the rows, so the jumps of
    # its row integral are no breaks, and the orders never agree
    rows_only = gz.ScalarFieldSpec(
        2,
        lambda p: np.sin(p[..., 1]),
        lambda p: np.stack([np.zeros_like(p[..., 0]), np.cos(p[..., 1])], axis=-1),
        name="sin-x2",
    )
    with pytest.raises(GridResolutionError, match="does not converge"):
        expected_zeros_integral(rows_only, TubeSpec(0.1, 0.1), GridSpec(256))
    # sin x1 + b sin 2 x1 gains two critical points along x1 as b grows
    # past 1/4, so those of some adjacent probe rows cannot pair
    births = gz.ScalarFieldSpec(
        2,
        lambda p: np.sin(p[..., 0]) + 0.5 * np.cos(p[..., 1]) * np.sin(2 * p[..., 0]),
        lambda p: np.stack(
            [
                np.cos(p[..., 0]) + np.cos(p[..., 1]) * np.cos(2 * p[..., 0]),
                -0.5 * np.sin(p[..., 1]) * np.sin(2 * p[..., 0]),
            ],
            axis=-1,
        ),
        name="births",
    )
    with pytest.raises(GridResolutionError, match="do not pair"):
        expected_zeros_integral(births, TubeSpec(0.1, 0.3), GridSpec(256))


def test_whole_torus_matches_scalar_quadrature():
    # r = inf: every cell is whole; sin2-2d is constant along x2, so the
    # torus integral is 2 pi times a circle integral done here by adaptive
    # quadrature of the scalar section volume
    tau = 0.5
    circle, _ = integrate.quad(
        lambda x: section_volume(SIN2_2D, np.array([x, 0.0]), tau),
        0.0, 2 * math.pi, epsabs=0.0, epsrel=1e-13, limit=200,
    )
    got = expected_zeros_integral(SIN2_2D, TubeSpec(tau, math.inf), GridSpec(256))
    assert got == pytest.approx(2 * 2 * math.pi * circle, rel=1e-11)


# 1-D values of the earlier arc-by-arc quadrature, which the cell-by-cell
# row rule must keep to 1e-13: grf integral --taus 0.1,0.03,0.01,0.003
# --alpha 1 (grids of 4096, 4096, 8192 and 32768 cells) and the sandwich
# counts at tau=0.05 on 4096 cells
FROZEN_1D = (
    (0.1, 4096, 2.730757968548338),
    (0.03, 4096, 2.7307579685483434),
    (0.01, 8192, 2.7307579685484193),
    (0.003, 32768, 2.730757968548213),
)


def test_1d_values_frozen():
    for tau, n, value in FROZEN_1D:
        got = expected_zeros_integral(SIN2, TubeSpec(tau, tau), GridSpec(n))
        assert got == pytest.approx(value, rel=1e-13)
    rep = envelope_sandwich(SIN2, 0.05, GridSpec(4096))
    assert rep.count == pytest.approx(3.999999999999996, rel=1e-13)
    assert rep.count_upper == pytest.approx(3.9999999999999956, rel=1e-13)


@pytest.mark.parametrize("field", [SIN2, SIN2_2D, sine_field(3, dim=2), sine_field(5)])
def test_coarea_is_the_level_by_level_sum_bit_for_bit(field):
    # the route evaluates the volumes of every level's roots in one call;
    # written out here is its sum with one call per level
    m, (nodes, weights) = field.dim, np.polynomial.legendre.leggauss(24)
    for tau, r in ((0.1, 0.1), (0.03, 0.5), (0.003, 0.003)):
        r_eff = min(r, 14.0 * tau / math.sqrt(m))
        breaks, step = [0.0], 0.5 * tau / math.sqrt(m)
        while step < r_eff:
            breaks.append(step)
            step *= 2.0
        breaks.append(r_eff)
        total = 0.0
        for a, b in zip(breaks[:-1], breaks[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            for x, w in zip(nodes, weights):
                v = mid + half * x
                sig = field.axis.slopes_at_level(v)
                term = float(np.sum(gz.geometry.gaussian_volume(m, sig / tau) / sig))
                total += half * w * math.exp(-m * v * v / (2.0 * tau * tau)) * term
        want = float(math.factorial(m) * (2.0 * math.pi) ** (m / 2 - 1.0) * 2.0 * total)
        assert expected_zeros_coarea(field, TubeSpec(tau, r)) == want


def test_coarea_needs_axis_and_room():
    bare = gz.ScalarFieldSpec(1, SIN2.phi, SIN2.grad)
    with pytest.raises(ValueError):
        expected_zeros_coarea(bare, TubeSpec(0.1, 0.2))
    with pytest.raises(ValueError):
        expected_zeros_coarea(SIN2, TubeSpec(0.1, 1.5))  # r beyond the level cap


def test_mc_agrees_with_integral():
    # tau comparable to the signal so individual counts genuinely vary
    tube = TubeSpec(0.6, math.inf)
    expect = expected_zeros_integral(SIN2, tube, GridSpec(8192))
    est = mc_zero_count_circle(SIN2, tube, MCConfig(samples=4000, seed=7))
    assert est.std_error > 0
    assert abs(est.mean - expect) < 4 * est.std_error


def test_mc_null_field_counts_its_own_zeros():
    # phi = 0 has no randomness to smooth: the smoothed field is pure noise
    # times the kernel, and a stationary Gaussian on the circle with these
    # spectral weights crosses zero exactly twice per harmonic pair
    null = gz.ScalarFieldSpec(
        1,
        lambda p: np.zeros(p.shape[0]),
        lambda p: np.zeros_like(p),
        name="null",
    )
    est = mc_zero_count_circle(null, TubeSpec(0.5, math.inf), MCConfig(samples=64, seed=1))
    assert est.mean == 2.0
    assert est.std_error == 0.0


def _scan_and_bisect_counts(field, tube, n, xi):
    """Reference zero counts: a sign scan of X over the cells that meet the
    inflated tube, a bisection of every root, and the test |phi(root)| < r."""
    tau, r = tube.tau, tube.r
    gmax = gz.fields._grad_max(field)
    h = 2.0 * math.pi / n
    t = h * np.arange(n)
    phig = field.phi(t[:, None])
    if math.isfinite(r):
        near = np.abs(phig) < r + 2.0 * gmax * h
        keep = near | np.roll(near, -1)
    else:
        keep = np.ones(n, dtype=bool)
    left = t[keep]
    right = left + h

    def noisy(x1, x2):  # X at u, for the samples i of x1 and x2
        return lambda u, i=slice(None): field.phi(u[:, None]) + tau * (
            x1[i] * np.cos(u) + x2[i] * np.sin(u)
        )

    x1, x2 = xi[:, 0:1], xi[:, 1:2]
    xl = noisy(x1, x2)(left)
    xr = noisy(x1, x2)(right)
    ia, ib = np.nonzero(xl * xr < 0.0)
    root = gz.kernels.bisect(noisy(xi[ia, 0], xi[ia, 1]), left[ib], right[ib], xl[ia, ib])
    if math.isfinite(r):
        ia = ia[np.abs(field.phi(root[:, None])) < r]
    return np.bincount(ia, minlength=xi.shape[0])


def _shifted_sine(shift=0.3):
    return gz.ScalarFieldSpec(
        1,
        lambda p: np.sin(2.0 * p[..., 0]) + shift,
        lambda p: 2.0 * np.cos(2.0 * p[..., :1]),
        name=f"sin2+{shift:g}",
    )


# the middle of a scan cell at spacing 0.024 (262 cells)
_T0 = 2.0 * math.pi * 54.5 / 262


def _cosine_cap(top):
    """phi = top - 1 + cos(t - _T0): one turn of |phi|, to |top|, inside a cell."""
    return gz.ScalarFieldSpec(
        1,
        lambda p: top - 1.0 + np.cos(p[..., 0] - _T0),
        lambda p: -np.sin(p[..., :1] - _T0),
        name=f"cap{top:g}",
    )


@pytest.mark.parametrize(
    "field, tau, r, spacing, samples",
    [
        (SIN2, 0.1, 0.1, None, 4000),
        (SIN2, 0.003, 0.003, None, 1000),
        (sine_field(6), 0.05, 0.5, None, 1000),
        (SIN2, 0.6, math.inf, None, 4000),
        (_shifted_sine(), 0.2, 0.25, None, 4000),
        # a tube 0.001 wide around each zero of phi, inside one 0.003 cell
        (SIN2, 0.1, 0.001, 0.003, 20000),
        # |phi| dips below r inside a cell whose edges lie outside the tube,
        # and rises above r inside a cell whose edges lie inside it
        (_cosine_cap(-2e-3), 0.5, 2e-3 + 1e-5, 0.024, 20000),
        (_cosine_cap(0.01 + 1e-5), 0.5, 0.01, 0.024, 20000),
        # runs that are only partly steep: the tube holds the minimum of phi,
        # and 936 of its 1,210 panels are steep (280 breakpoints) ...
        (_shifted_sine(0.97), 0.02, 0.05, None, 20000),
        # ... and 259 of 319 panels of a wide tube (70 breakpoints)
        (SIN2, 0.2, 0.5, None, 20000),
    ],
)
def test_panel_counts_match_scan_and_bisection(field, tau, r, spacing, samples):
    # the sign change of X on a clipped panel is exactly a root in the tube;
    # without a spacing the scan takes its own cell count (2095 cells at
    # spacing 0.003, 262 at 0.024)
    tube = TubeSpec(tau, r)
    n = gz.fields._scan_cells(field, tube) if spacing is None else math.ceil(2 * math.pi / spacing)
    counts = gz.fields._zero_counter(field, tube, n)(gz.stream(5, 0), samples)
    xi = gz.stream(5, 0).standard_normal((samples, 2))
    expect = _scan_and_bisect_counts(field, tube, n, xi)
    assert np.array_equal(counts, expect)
    assert counts.sum() > 0


class _Normals(np.ndarray):
    """Normals that record the columns of each matrix they multiply."""

    def __array_finalize__(self, obj):
        self.columns = getattr(obj, "columns", None)

    def __matmul__(self, other):
        self.columns.append(np.shape(other)[-1])
        return np.asarray(self) @ other


class _RecordingStream:
    """A stream whose normals record the noise products they enter."""

    def __init__(self, rng):
        self.rng, self.columns = rng, []

    def standard_normal(self, shape):
        xi = self.rng.standard_normal(shape).view(_Normals)
        xi.columns = self.columns
        return xi


def test_zero_counter_evaluates_the_noise_at_the_ends_of_runs():
    # the tube's components lie on five runs of steep panels in [0, 2 pi]
    # (the one around 0 is cut there) on sin2 at tau = r = 0.003, and on
    # thirteen on sin6 at r = 0.5: X is evaluated at the two ends of each
    # run.  No panel is steep on the whole circle at tau = 0.6: every end
    for field, tube, ends, columns, samples in [
        (SIN2, TubeSpec(0.003, 0.003), 133, 10, 4000),
        (sine_field(6), TubeSpec(0.05, 0.5), 2958, 26, 1000),
        (SIN2, TubeSpec(0.6, math.inf), 316, 316, 4000),
    ]:
        counted, points = _counted(field)
        n = gz.fields._scan_cells(field, tube)
        counter = gz.fields._zero_counter(counted, tube, n)
        assert points[-1] == ends  # phi is evaluated once at each distinct end
        rng = _RecordingStream(gz.stream(6, 0))
        counts = counter(rng, samples)
        assert rng.columns and max(rng.columns) == columns
        xi = gz.stream(6, 0).standard_normal((samples, 2))
        assert np.array_equal(counts, _scan_and_bisect_counts(field, tube, n, xi))
        assert counts.max() >= 2
    # a tube that phi never enters has no ends, and no zeros
    far = gz.ScalarFieldSpec(1, lambda p: 2.0 + np.sin(p[..., 0]), lambda p: np.cos(p[..., :1]))
    est = mc_zero_count_circle(far, TubeSpec(0.1, 0.5), MCConfig(samples=100, seed=1))
    assert est.mean == 0.0 and est.std_error == 0.0


def test_zero_count_scan_refuses_more_cells_than_the_cap():
    # tau = 1e-6 needs 1.9e8 cells: refused before anything is allocated
    with pytest.raises(GridResolutionError, match="scan cells"):
        mc_zero_count_circle(SIN2, TubeSpec(1e-6, 1e-6), MCConfig(samples=10))
    assert gz.fields._scan_cells(SIN2, TubeSpec(1e-4, 1e-4)) <= gz.fields._MAX_CELLS_1D


def test_grid_for_tube_refuses_dim_3():
    # the tensor-grid integral stops at T^2, so no grid is sized beyond it
    with pytest.raises(NotImplementedError):
        grid_for_tube(sine_field(2, dim=3), 0.1)


def test_integral_resolution_guard():
    with pytest.raises(GridResolutionError):
        expected_zeros_integral(SIN2, TubeSpec(1e-4, 1e-3), GridSpec(16))


def test_integral_catches_a_dip_inside_one_cell():
    # |phi| dips below r = 0.01 only around t0, the middle of cell 1000 of
    # the 4096-cell grid, whose edges lie outside the tube; at 8192 cells t0
    # is an edge, and 65536 cells resolve the dip outright
    t0 = 2.0 * math.pi * 1000.5 / 4096
    dip = gz.ScalarFieldSpec(
        1,
        lambda p: np.cos(p[..., 0] - t0) - 1.01 + 5e-8,
        lambda p: -np.sin(p[..., :1] - t0),
        name="dip",
    )
    tube = TubeSpec(0.5, 0.01)
    fine = expected_zeros_integral(dip, tube, GridSpec(65536))
    assert fine == pytest.approx(2.0128e-4, rel=1e-4)
    for n in (4096, 8192):
        assert expected_zeros_integral(dip, tube, GridSpec(n)) == pytest.approx(fine, rel=1e-12)


# --- concentration -------------------------------------------------------

def test_concentration_limit_values():
    # dim 1: (m-1)! kappa_0 / (2 pi)^0 = 1 and the erf factor
    assert concentration_limit(1, math.inf, 4.0) == pytest.approx(4.0, rel=1e-15)
    assert concentration_limit(1, 1.0, 4.0) == pytest.approx(
        4.0 * special.erf(math.sqrt(0.5)), rel=1e-15
    )
    # dim 2: 1! kappa_1 / (2 pi) = 1/pi
    assert concentration_limit(2, math.inf, math.pi) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ValueError):
        concentration_limit(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        concentration_limit(1, -1.0, 1.0)
    for vol in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="vol_zero_set must be finite and nonnegative"):
            concentration_limit(1, 1.0, vol)
    # finite factors whose product passes the largest float
    with pytest.raises(ValueError, match="exceeds the largest float"):
        concentration_limit(100, 1.0, 1e300)


def test_concentration_limit_stops_where_the_factorial_overflows():
    # the constant holds (m-1)!, and 170! is the largest below the largest float
    assert math.isfinite(concentration_limit(171, 1.0, 1.0))
    with pytest.raises(ValueError, match="171! overflows a float"):
        concentration_limit(172, 1.0, 1.0)


def test_routes_return_python_floats():
    # the CLI's CSV writer prints repr(v), which differs for numpy scalars
    tube = TubeSpec(3e-2, 0.4)
    assert type(expected_zeros_coarea(SIN2, tube)) is float
    assert type(expected_zeros_integral(SIN2, tube, GridSpec(4096))) is float


def test_sweep_sits_on_the_limit():
    # deviations decay like exp(-c/tau^2), far below quadrature noise for
    # every tau here, so test a floor rather than literal monotonicity
    limit = concentration_limit(1, 1.0, SIN2.zero_set_measure)
    for tau in (1e-1, 3e-2, 1e-2, 3e-3):
        n = expected_zeros_coarea(SIN2, TubeSpec(tau, tau))
        assert abs(n / limit - 1) < 1e-10
    assert limit == pytest.approx(4.0 * special.erf(math.sqrt(0.5)), rel=1e-15)


def test_regime_split():
    # r = tau^(1/2): alpha -> inf, everything is caught
    tau = 1e-3
    wide = expected_zeros_coarea(SIN2, TubeSpec(tau, math.sqrt(tau)))
    assert wide == pytest.approx(4.0, rel=2e-2)
    # r = tau^2: alpha -> 0, the tube outruns the zeros
    narrow = expected_zeros_coarea(SIN2, TubeSpec(tau, tau**2))
    assert narrow <= 0.02 * 4.0


# --- sandwich ------------------------------------------------------------

def test_sandwich_dim1_is_exact():
    rep = envelope_sandwich(SIN2, 0.05, GridSpec(512))
    assert rep.passed
    assert rep.min_ratio == pytest.approx(1.0, abs=1e-12)
    assert rep.max_ratio == pytest.approx(1.0, abs=1e-12)


def test_sandwich_dim2_respects_inradius():
    rep = envelope_sandwich(SIN2_2D, 0.05, GridSpec(128))
    assert rep.passed_pointwise
    assert rep.limit_inradius == pytest.approx(gz.limit_body_inradius(), rel=1e-12)
    assert rep.min_ratio >= rep.limit_inradius**2 - 1e-12
    assert rep.max_ratio <= 1.0 + 1e-12
    d = rep.as_dict()
    for key in ("dim", "tau", "min_ratio", "max_ratio", "count", "passed"):
        assert key in d
    assert d["passed"] == rep.passed


def test_tau_whose_square_is_not_normal_is_refused():
    # below sqrt(float min) tau^2 loses digits, then underflows to 0
    tiny = math.sqrt(sys.float_info.min)
    assert TubeSpec(tiny, 1.0).tau == tiny
    p = np.array([0.2])
    for tau in (tiny / 2, 1e-300, math.inf):
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            TubeSpec(tau, 1.0)
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            section_volume(SIN2, p, tau)
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            section_support(SIN2, p, tau, np.array([1.0]))


def test_sandwich_checks_its_inputs_like_the_tube_integral():
    for tau in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            envelope_sandwich(SIN2, tau, GridSpec(64))
    with pytest.raises(ValueError, match="r must be positive"):
        envelope_sandwich(SIN2, 0.1, GridSpec(64), r=0.0)
    with pytest.raises(NotImplementedError):
        envelope_sandwich(sine_field(2, dim=3), 0.1, GridSpec(64))


def _grad_max_by_norm(field, n=8192):
    # the resolution rule's sample of |grad phi|, taken by np.linalg.norm
    t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    if field.dim == 1:
        pts = t[:, None]
    else:
        a, b = np.meshgrid(t[:: n // 256], t[:: n // 256], indexing="ij")
        pts = np.stack([a.ravel(), b.ravel()], axis=-1)
    return float(np.max(np.linalg.norm(field.grad(pts), axis=-1)))


@pytest.mark.parametrize(
    "field", [sine_field(k, dim=d) for k in range(1, 7) for d in (1, 2)] + [_mixed_field()],
    ids=lambda f: f.name,
)
def test_grad_max_takes_the_section_volumes_norm(field):
    # |grad phi| in the resolution rule is the in-order sum of squares of the
    # section volumes, and the same float as the norm form on these fields
    assert gz.fields._grad_max(field) == _grad_max_by_norm(field)
