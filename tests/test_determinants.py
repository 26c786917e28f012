"""Random determinants against mixed-volume identities and brackets."""
import dataclasses
import json
import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from gausszonoids import (
    EstimateWithCI,
    FrameSpec,
    ball_volume,
    GaussianVector,
    MCConfig,
    RevolutionBody,
    axial_stretch,
    check_determinant_bounds,
    determinant_bracket,
    expected_absdet_mc,
    folded_normal_mean,
    gaussian_volume,
    iid_square_bounds,
    limit_body_inradius,
    mixed_area,
    mixed_volume_coeff,
    mixed_volume_ellipsoids_mc,
    stream,
    volume,
)
from gausszonoids.cli import main


def iid_frame(m, k, s=0.0, matrix=None):
    mat = np.eye(m) if matrix is None else np.asarray(matrix, dtype=float)
    c = np.zeros(m)
    c[0] = s
    return FrameSpec(m, [GaussianVector(mat, c) for _ in range(k)])


def test_coeff_values():
    # m!/((2 pi)^(k/2) (m-k)! kappa_{m-k})
    assert mixed_volume_coeff(1, 1) == pytest.approx(1 / math.sqrt(2 * math.pi))
    assert mixed_volume_coeff(2, 2) == pytest.approx(2 / (2 * math.pi))
    assert mixed_volume_coeff(2, 1) == pytest.approx(
        2 / (math.sqrt(2 * math.pi) * 1 * 2.0)
    )
    assert mixed_volume_coeff(3, 3) == pytest.approx(6 / (2 * math.pi) ** 1.5)
    with pytest.raises(ValueError):
        mixed_volume_coeff(2, 3)


def test_dimension_constants_stop_at_170():
    # 170! is the largest factorial below the largest float
    assert math.isfinite(mixed_volume_coeff(170, 1))
    with pytest.raises(ValueError, match="171! overflows a float"):
        mixed_volume_coeff(171, 1)
    with pytest.raises(ValueError, match="171! overflows a float"):
        iid_square_bounds(171, np.eye(171), 0.0)


def test_folded_moment_identity():
    # k = m = 1: E|s + xi| is the folded normal mean
    est = expected_absdet_mc(iid_frame(1, 1, s=3.0), MCConfig(samples=200_000, seed=2))
    assert abs(est.mean - folded_normal_mean(3.0, 1.0)) < 4 * est.std_error


def test_centered_square_is_one():
    est = expected_absdet_mc(iid_frame(2, 2), MCConfig(samples=200_000, seed=3))
    assert abs(est.mean - 1.0) < 4 * est.std_error


def test_square_frame_volume_identity():
    # E|det Gamma| = m! |det M| vol(G(s)) for m iid columns M(c + xi)
    mat = np.array([[1.0, 0.5], [0.0, 2.0]])
    s = 1.2
    est = expected_absdet_mc(iid_frame(2, 2, s=s, matrix=mat), MCConfig(samples=400_000, seed=4))
    expect = 2 * abs(np.linalg.det(mat)) * volume(RevolutionBody("gaussian", 2, s))
    assert abs(est.mean - expect) < 4 * est.std_error


def test_mixed_area_oracle_disc():
    # MV(B, B) = area of the unit disc
    assert mixed_area(np.eye(2), np.eye(2)) == pytest.approx(math.pi, rel=1e-15)


def test_mixed_area_against_perimeter():
    """2 MV(K, B) equals the perimeter of K, with K in either slot."""
    a, b = axial_stretch(1.0), 1.0
    shape = np.diag([a, b])
    perimeter = 4 * a * special.ellipe(1 - (b / a) ** 2)
    assert mixed_area(shape, np.eye(2)) == pytest.approx(perimeter / 2, rel=1e-15)
    assert mixed_area(np.eye(2), shape) == pytest.approx(perimeter / 2, rel=1e-15)


def test_mixed_area_bilinear_scaling():
    shape = np.diag([1.5, 0.7])
    base = mixed_area(shape, np.eye(2))
    assert mixed_area(3 * shape, np.eye(2)) == pytest.approx(3 * base, rel=1e-15)
    assert mixed_area(shape, 3 * np.eye(2)) == pytest.approx(3 * base, rel=1e-15)


def test_mixed_area_rejects_garbage():
    # non-finite, not 2x2, singular
    for shape in (
        np.array([[1.0, np.nan], [0.0, 1.0]]),
        np.array([[1.0, np.inf], [0.0, 1.0]]),
        np.eye(3),
        np.ones(2),
        np.array([[1.0, 2.0], [2.0, 4.0]]),
        np.zeros((2, 2)),
    ):
        with pytest.raises(ValueError):
            mixed_area(shape, np.eye(2))
        with pytest.raises(ValueError):
            mixed_area(np.eye(2), shape)


def _support_integral(shape_a, shape_c):
    """(1/2) int_0^2pi (h_A h_C - h_A' h_C') dtheta, with h(theta) = |M^T u(theta)|
    and h' = (M^T u) . (M^T u') / h, by adaptive quadrature."""

    def h_and_deriv(mat, theta):
        v = mat.T @ np.array([np.cos(theta), np.sin(theta)])
        dv = mat.T @ np.array([-np.sin(theta), np.cos(theta)])
        h = math.hypot(*v)
        return h, float(v @ dv) / h

    def integrand(theta):
        ha, da = h_and_deriv(shape_a, theta)
        hc, dc = h_and_deriv(shape_c, theta)
        return 0.5 * (ha * hc - da * dc)

    return integrate.quad(integrand, 0.0, 2 * math.pi, epsabs=0.0, epsrel=1e-13, limit=200)[0]


@pytest.mark.parametrize("shape_a, shape_c", [
    (np.array([[1.0, 0.4], [0.0, 1.0]]), np.array([[0.8, 0.0], [0.3, 1.2]])),
    (np.diag([axial_stretch(2.0), 1.0]), np.array([[0.5, -1.5], [2.0, 0.25]])),
    (np.array([[3.0, 1.0], [-1.0, 0.2]]), np.eye(2)),
])
def test_mixed_area_matches_the_support_integral(shape_a, shape_c):
    expect = _support_integral(shape_a, shape_c)
    assert mixed_area(shape_a, shape_c) == pytest.approx(expect, rel=1e-12)
    assert mixed_area(shape_c, shape_a) == pytest.approx(expect, rel=1e-12)
    # MV(K, K) = area(K) = pi |det A|
    for shape in (shape_a, shape_c):
        area = math.pi * abs(np.linalg.det(shape))
        assert mixed_area(shape, shape) == pytest.approx(area, rel=1e-14)


def test_mixed_volume_mc_matches_exact_area():
    shapes = [np.diag([2.0, 1.0]), np.eye(2)]
    mv = mixed_volume_ellipsoids_mc(shapes, 2, MCConfig(samples=300_000, seed=6))
    exact = mixed_area(shapes[0], shapes[1])
    assert abs(mv.mean - exact) < 4 * mv.std_error


@pytest.mark.parametrize("m, k, s", [(5, 3, 1.0), (3, 2, 2.0), (4, 1, 0.5), (6, 2, 30.0)])
def test_shared_shape_mixed_volume_matches_mc(m, k, s):
    frame = iid_frame(m, k, s)
    mv = determinant_bracket(frame, MCConfig(samples=1)).mixed_volume
    assert mv.std_error == 0.0 and mv.n_samples == 0
    shapes = [col.ellipsoid_matrix() for col in frame.columns]
    est = mixed_volume_ellipsoids_mc(shapes, m, MCConfig(samples=200_000, seed=m + k))
    assert abs(mv.mean - est.mean) < 4 * est.std_error


def expected_absdet(m, k, s):
    """E sqrt(det(Gamma^T Gamma)) for k iid columns c + xi in R^m, |c| = s:
    Gamma^T Gamma is noncentral Wishart with rank-one noncentrality k s^2
    (Muirhead 1982, Thm 10.3.7), so E = chi(m, k) 1F1(-1/2; m/2; -k s^2/2)."""
    chi = math.prod(
        math.sqrt(2) * math.gamma((m - i + 1) / 2) / math.gamma((m - i) / 2) for i in range(k)
    )
    return chi * special.hyp1f1(-0.5, m / 2, -k * s * s / 2)


OFFSETS = (0.0, 0.1, 1.0, 2.0, 10.0, 1e4)


@pytest.mark.parametrize("m", [1, 2, 3, 10])
def test_expected_absdet_oracle_meets_the_volume_identity(m):
    # k = m: E|det Gamma| = m! vol(G(s))
    for s in OFFSETS:
        volume_side = math.factorial(m) * float(gaussian_volume(m, s))
        assert expected_absdet(m, m, s) == pytest.approx(volume_side, rel=2e-15, abs=0)


def test_bracket_theorem_without_sampling():
    # b^k <= E / upper <= 1, with equality on the right for centered frames
    b = limit_body_inradius()
    for m in range(1, 11):
        for k in range(1, m + 1):
            for s in OFFSETS:
                rep = determinant_bracket(iid_frame(m, k, s), MCConfig(samples=1))
                assert rep.mixed_volume.n_samples == 0
                ratio = expected_absdet(m, k, s) / rep.upper
                assert b**k <= ratio <= 1 + 1e-14, (m, k, s, ratio)
                assert rep.lower == pytest.approx(b**k * rep.upper, rel=1e-15)
                if s == 0.0:
                    assert ratio == pytest.approx(1.0, rel=1e-14), (m, k)


def padded_mixed_volume(shapes, dim, cfg):
    """Reference: the k shapes padded with m - k standard Gaussian columns;
    the square determinant identity gives MV = E|det| (2 pi)^(m/2) / m!."""
    zero = np.zeros(dim)
    cols = [GaussianVector(a, zero) for a in shapes]
    cols += [GaussianVector(np.eye(dim), zero)] * (dim - len(shapes))
    est = expected_absdet_mc(FrameSpec(dim, cols), cfg)
    scale = (2 * math.pi) ** (dim / 2) / math.factorial(dim)
    return est.mean * scale, est.std_error * scale


@pytest.mark.parametrize("m, k", [(3, 1), (5, 3), (6, 2)])
def test_thin_mixed_volume_matches_the_padded_frame(m, k):
    rng = stream(40 + m, 0)
    shapes = [np.eye(m) + 0.3 * rng.standard_normal((m, m)) for _ in range(k)]
    thin = mixed_volume_ellipsoids_mc(shapes, m, MCConfig(samples=100_000, seed=1))
    mean, se = padded_mixed_volume(shapes, m, MCConfig(samples=100_000, seed=2))
    assert abs(thin.mean - mean) < 4 * math.hypot(thin.std_error, se)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_thin_mixed_volume_of_the_ball(m):
    # MV(B, B[m-1]) = vol(B) = kappa_m
    mv = mixed_volume_ellipsoids_mc([np.eye(m)], m, MCConfig(samples=100_000, seed=3))
    assert abs(mv.mean - ball_volume(m)) < 4 * mv.std_error


def axis_means_frame(tmp_path, m, k, s):
    """A manifest of k identity columns with means s*e_1, ..., s*e_k, whose
    outer ellipsoids differ, so the bracket draws its mixed volume; and the
    frame it describes."""
    means = s * np.eye(m)[:k]
    manifest = tmp_path / "frame.json"
    manifest.write_text(json.dumps({"m": m, "columns": [{"c": c.tolist()} for c in means]}))
    return str(manifest), FrameSpec(m, [GaussianVector(np.eye(m), c) for c in means])


def test_det_check_m5_k3_thin_frame_has_the_smaller_error(capsys, tmp_path):
    manifest, frame = axis_means_frame(tmp_path, 5, 3, 1.0)
    code = main(["det", "check", "--manifest", manifest, "--samples", "50000"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["verdict"] == "PASS"
    # the bracket's mixed volume is drawn on the seed after the CLI's seed 0
    shapes = [col.ellipsoid_matrix() for col in frame.columns]
    _, padded_se = padded_mixed_volume(shapes, 5, MCConfig(samples=50_000, seed=1))
    assert 0 < report["mixed_volume"]["std_error"] < padded_se


def test_bracket_after_the_largest_seed_draws_seed_zero(capsys, tmp_path):
    # the mixed volume takes the seed after the run's, and 2^64 - 1 wraps to 0
    manifest, frame = axis_means_frame(tmp_path, 3, 2, 1.0)
    code = main(["det", "bounds", "--manifest", manifest, "--samples", "2000",
                 "--seed", str((1 << 64) - 1)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    shapes = [col.ellipsoid_matrix() for col in frame.columns]
    mv = mixed_volume_ellipsoids_mc(shapes, 3, MCConfig(samples=2000, seed=0))
    assert report["mixed_volume"] == mv.as_dict()


def test_centered_identity_via_bounds_report_m2():
    cols = [
        GaussianVector(np.array([[1.0, 0.4], [0.0, 1.0]]), np.zeros(2)),
        GaussianVector(np.array([[0.8, 0.0], [0.3, 1.2]]), np.zeros(2)),
    ]
    rep = check_determinant_bounds(FrameSpec(2, cols), MCConfig(samples=300_000, seed=8))
    assert rep.passed
    # centered frames hit the upper bound: estimate = coeff * MV
    assert abs(rep.estimate.mean - rep.upper) < 4 * rep.se_upper
    assert rep.mixed_volume.std_error == 0.0  # planar oracle is exact


def test_centered_identity_m3_mc_vs_mc():
    cols = [
        GaussianVector(np.diag([1.0, 0.7, 1.3]), np.zeros(3)),
        GaussianVector(np.eye(3), np.zeros(3)),
    ]
    rep = check_determinant_bounds(FrameSpec(3, cols), MCConfig(samples=300_000, seed=9))
    assert rep.passed
    assert rep.mixed_volume.std_error > 0.0
    assert abs(rep.estimate.mean - rep.upper) < 4 * rep.se_upper


def test_shifted_frame_sits_inside_the_bracket():
    rep = check_determinant_bounds(iid_frame(2, 2, s=2.0), MCConfig(samples=300_000, seed=10))
    assert rep.passed
    ratio = rep.estimate.mean / rep.upper
    b = limit_body_inradius()
    assert b**2 - 4 * rep.se_upper / rep.upper <= ratio <= 1 + 4 * rep.se_upper / rep.upper


def test_iid_square_bounds_bracket_mc():
    mat = np.array([[1.0, 0.2], [0.1, 0.9]])
    s = 1.5
    sq = iid_square_bounds(2, mat, s)
    est = expected_absdet_mc(iid_frame(2, 2, s=s, matrix=mat), MCConfig(samples=400_000, seed=12))
    assert sq.lower - 4 * est.std_error <= est.mean <= sq.upper + 4 * est.std_error
    # asymptote: E|det| / s approaches the slope for large s
    est50 = expected_absdet_mc(iid_frame(2, 2, s=50.0, matrix=mat), MCConfig(samples=200_000, seed=13))
    sq50 = iid_square_bounds(2, mat, 50.0)
    assert est50.mean / 50.0 == pytest.approx(sq50.asymptote_slope, rel=0.02)


def test_estimator_reproducible():
    cfg = MCConfig(samples=50_000, seed=21)
    frame = iid_frame(3, 2, s=0.5)
    assert expected_absdet_mc(frame, cfg) == expected_absdet_mc(frame, cfg)


def _per_sample(frame, monkeypatch):
    """The per-sample callback that expected_absdet_mc hands to mc_mean."""
    from gausszonoids import determinants

    callbacks = []
    monkeypatch.setattr(
        determinants, "mc_mean", lambda sample, cfg: callbacks.append(sample) or EstimateWithCI(0.0, 0.0, 0)
    )
    expected_absdet_mc(frame, MCConfig(samples=1))
    return callbacks[0]


def _frames(frame, xi):
    """Each sample's m x k frame, shape (n, m, k)."""
    cols = [col.matrix @ (col.mean + xi[:, j]).T for j, col in enumerate(frame.columns)]
    return np.stack(cols, axis=-1).transpose(1, 0, 2)


def _qr_volumes(gamma):
    """prod |R_ii| of the QR factorization of each frame."""
    r = np.linalg.qr(gamma, mode="r")
    return np.prod(np.abs(np.diagonal(r, axis1=-2, axis2=-1)), axis=-1)


def _mixed_frame(m, k, seed):
    """k columns with distinct matrices (a random rotation times the same
    scaling, condition number 4) and distinct random means."""
    rng = np.random.default_rng(seed)
    scale = np.diag(np.linspace(0.5, 2.0, m))
    cols = []
    for _ in range(k):
        rotation = np.linalg.qr(rng.standard_normal((m, m)))[0]
        cols.append(GaussianVector(rotation @ scale, rng.standard_normal(m)))
    return FrameSpec(m, cols)


def _assert_agree(got, gamma, expect):
    # both factorizations are backward stable, so a sample's two values
    # differ by about cond * eps: 1e-12 on a well-conditioned frame, more on
    # the near-singular draws among thousands (cond up to about 1e5)
    rel = np.abs(got - expect) / expect
    cond = np.linalg.cond(gamma)
    assert np.all(rel <= 10.0 * np.finfo(float).eps * cond)
    assert np.all(rel[cond < 1e3] < 1e-12)


def _spy(monkeypatch, name):
    calls = []
    real = getattr(np.linalg, name)
    monkeypatch.setattr(np.linalg, name, lambda *a, **kw: calls.append(name) or real(*a, **kw))
    return calls


@pytest.mark.parametrize("m", [2, 5, 10])
@pytest.mark.parametrize("distinct", [False, True])
def test_square_frame_lu_matches_qr(m, distinct, monkeypatch):
    # a square frame that is not shared takes QR; LU determinants of the same
    # frames are the independent reference
    scale = np.diag(np.linspace(0.5, 2.0, m))
    frame = _mixed_frame(m, m, seed=m) if distinct else iid_frame(m, m, s=0.7, matrix=scale)
    assert not frame.shared
    sample = _per_sample(frame, monkeypatch)
    det_calls = _spy(monkeypatch, "det")
    got = sample(stream(9, 0), 2000)
    assert det_calls == []
    gamma = _frames(frame, stream(9, 0).standard_normal((2000, m, m)))
    _assert_agree(got, gamma, np.abs(np.linalg.det(gamma)))


def test_thin_frame_takes_qr(monkeypatch):
    frame = _mixed_frame(5, 3, seed=3)
    sample = _per_sample(frame, monkeypatch)
    det_calls, qr_calls = _spy(monkeypatch, "det"), _spy(monkeypatch, "qr")
    got = sample(stream(9, 0), 500)
    assert det_calls == [] and qr_calls == ["qr"]
    gamma = _frames(frame, stream(9, 0).standard_normal((500, 3, 5)))
    _assert_agree(got, gamma, _qr_volumes(gamma))


def test_shared_frames():
    # identity columns whose means agree up to sign, and nothing else
    c = np.array([1.0, -2.0, 0.5])
    assert FrameSpec(3, [GaussianVector(np.eye(3), v) for v in (c, -c, c)]).shared
    assert iid_frame(3, 2, s=0.0).shared and iid_frame(1, 1, s=-3.0).shared
    for cols in (
        [GaussianVector(np.eye(3), c), GaussianVector(np.eye(3), c * (1 + 1e-15))],
        [GaussianVector(np.eye(3), c), GaussianVector(np.eye(3), c[[1, 0, 2]])],
        [GaussianVector(np.eye(3), c), GaussianVector(2 * np.eye(3), c)],
    ):
        assert not FrameSpec(3, cols).shared
    assert not iid_frame(3, 3, s=1.0, matrix=np.diag([1.0, 1.0, -1.0])).shared


@pytest.mark.parametrize("nu", range(1, 10))
def test_chi_pairs_have_the_gamma_law(nu):
    # Legendre's duplication formula: chi_nu chi_{nu+1} ~ Gamma(nu), whose
    # first two moments are nu and nu (nu + 1)
    chis, gamma = (stats.chi(nu), stats.chi(nu + 1)), stats.gamma(nu)
    for order, exact in ((1, nu), (2, nu * (nu + 1))):
        moment = chis[0].moment(order) * chis[1].moment(order)
        assert moment == pytest.approx(exact, rel=1e-14)
        assert gamma.moment(order) == pytest.approx(exact, rel=1e-14)
    rng = stream(80 + nu, 0)
    pair = np.sqrt(rng.chisquare(nu, 20_000) * rng.chisquare(nu + 1, 20_000))
    assert stats.kstest(pair, stats.gamma(nu).cdf).pvalue > 1e-3


def ex2_absdet(m, k, s):
    """E det(Gamma^T Gamma) = k! [C(m, k) + s^2 C(m-1, k-1)], by Cauchy-Binet
    over the k x k minors."""
    return math.factorial(k) * (math.comb(m, k) + s * s * math.comb(m - 1, k - 1))


SHARED_GRID = [
    (1, 1, 0.0), (1, 1, 10.0), (4, 1, 2.0), (2, 2, 0.0), (3, 2, 0.5), (5, 3, 1.0),
    (7, 4, 10.0), (4, 4, 10.0), (10, 10, 0.5), (6, 6, 0.0),
    # several pairs of chis and no leftover one
    (6, 5, 1.0), (8, 7, 2.0),
]


@pytest.mark.parametrize("i", range(len(SHARED_GRID)))
def test_shared_sampler_meets_the_exact_moments(i):
    m, k, s = SHARED_GRID[i]
    n = 200_000
    est = expected_absdet_mc(iid_frame(m, k, s), MCConfig(samples=n, seed=70 + i))
    mean = expected_absdet(m, k, s)
    assert abs(est.mean - mean) < 4 * est.std_error
    se = math.sqrt((ex2_absdet(m, k, s) - mean**2) / n)
    assert est.std_error == pytest.approx(se, rel=0.05, abs=0)


def _rotated(frame):
    """The frame with every column Q (c + xi) for one fixed orthogonal Q:
    its volumes have the shared frame's law, through the QR route."""
    q = np.linalg.qr(stream(77, 0).standard_normal((frame.dim, frame.dim)))[0]
    return FrameSpec(frame.dim, [GaussianVector(q, col.mean) for col in frame.columns])


@pytest.mark.parametrize(
    "m, k, s",
    [(3, 1, 0.5), (3, 2, 0.5), (5, 3, 1.0), (7, 4, 10.0), (4, 4, 2.0), (6, 5, 1.0), (8, 7, 2.0)],
)
def test_shared_sampler_matches_the_qr_route(m, k, s, monkeypatch):
    frame = iid_frame(m, k, s)
    rotated = _rotated(frame)
    assert frame.shared and not rotated.shared
    exact = _per_sample(frame, monkeypatch)(stream(5, 0), 50_000)
    exact += s if k == 1 else 0.0  # the k = 1 sampler draws |c + xi| - s
    brute = _per_sample(rotated, monkeypatch)(stream(6, 0), 50_000)
    assert stats.ks_2samp(exact, brute).pvalue > 1e-3


def test_frame_validation():
    with pytest.raises(ValueError):
        FrameSpec(2, [])
    with pytest.raises(ValueError):
        FrameSpec(1, [GaussianVector(np.eye(2), np.zeros(2))] * 2)  # k > m
    with pytest.raises(ValueError):
        FrameSpec(2, [GaussianVector(np.eye(3), np.zeros(3))])  # wrong ambient dim


def test_bounds_report_verdict_follows_its_bracket():
    # the verdict is computed from the report's own fields, so a corrupted
    # bracket (the CLI's --self-test) fails by the same 4-SE rule
    rep = check_determinant_bounds(iid_frame(2, 2, s=1.0), MCConfig(samples=20_000, seed=4))
    assert rep.passed
    mean = rep.estimate.mean
    empty = dataclasses.replace(rep, lower=1.5 * mean, upper=0.5 * mean)
    assert not empty.passed
    assert empty.estimate == rep.estimate and empty.se_lower == rep.se_lower
    # just inside and just outside the 4-SE window on each side
    assert dataclasses.replace(rep, lower=mean + 3.9 * rep.se_lower).passed
    assert not dataclasses.replace(rep, lower=mean + 4.1 * rep.se_lower).passed
    assert dataclasses.replace(rep, upper=mean - 3.9 * rep.se_upper).passed
    assert not dataclasses.replace(rep, upper=mean - 4.1 * rep.se_upper).passed
    assert "passed" not in rep.as_dict()
