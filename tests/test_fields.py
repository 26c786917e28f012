"""Zero counting for smooth periodic fields: three routes, one answer."""
import math
import sys

import numpy as np
import pytest
from scipy import integrate, special

import gausszonoids as gz
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


def test_section_volume_positive_and_even():
    vol_plus = section_volume(SIN2, np.array([0.2]), 0.5)
    vol_minus = section_volume(SIN2, np.array([-0.2]), 0.5)
    assert vol_plus > 0
    assert vol_plus == pytest.approx(vol_minus, rel=1e-12)


# --- the three routes ----------------------------------------------------

@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("kind", ["gaussian", "ellipsoid"])
def test_section_volumes_are_the_body_volumes(m, kind):
    # (2 pi)^(-m/2) e^{-m phi^2/(2 tau^2)} vol(body of offset |grad phi|/tau)
    field, tau = sine_field(2, dim=m), 0.3
    pts = gz.stream(17, 0).uniform(0.0, 2.0 * math.pi, (40, m))
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
    inflated tube, a 40-step bisection of every root, and the test
    |phi(root)| < r."""
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

    def noisy(x1, x2):
        return lambda u: field.phi(u[:, None]) + tau * (x1 * np.cos(u) + x2 * np.sin(u))

    x1, x2 = xi[:, 0:1], xi[:, 1:2]
    xl = noisy(x1, x2)(left)
    xr = noisy(x1, x2)(right)
    ia, ib = np.nonzero(xl * xr < 0.0)
    root = gz.kernels.bisect(noisy(xi[ia, 0], xi[ia, 1]), left[ib], right[ib], xl[ia, ib], 40)
    if math.isfinite(r):
        ia = ia[np.abs(field.phi(root[:, None])) < r]
    return np.bincount(ia, minlength=xi.shape[0])


def _shifted_sine():
    return gz.ScalarFieldSpec(
        1,
        lambda p: np.sin(2.0 * p[..., 0]) + 0.3,
        lambda p: 2.0 * np.cos(2.0 * p[..., :1]),
        name="sin2+0.3",
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
