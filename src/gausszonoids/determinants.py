"""Expected absolute determinants of Gaussian frames vs mixed volumes.

For a random m x k frame Gamma whose columns are independent integrable
random vectors, E sqrt(det(Gamma^T Gamma)) equals
``m!/((m-k)! kappa_{m-k}) * MV(K_1, ..., K_k, B[m-k])`` where K_j is the
zonoid of column j, B the unit ball, and MV the mixed volume normalized so
that MV(K, ..., K) = vol(K).  For Gaussian columns M_j (c_j + xi) the zonoid
slots carry a common (2 pi)^(-1/2) scale, absorbed into
:func:`mixed_volume_coeff`; for centered columns the identity is an equality
against the outer ellipsoids, and for shifted columns it brackets the
expectation between the ellipsoid value and its inradius^k shrinkage.

Shared frames (:attr:`FrameSpec.shared`) draw determinants from their exact law
and, like planar frames, have an exact mixed volume, after the QR factorization
of a Gaussian matrix (Muirhead 1982, *Aspects of Multivariate Statistical Theory*).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special

from .geometry import GaussianVector, _check_s, limit_body_inradius
from .kernels import axial_stretch, ball_volume, factorial
from .montecarlo import EstimateWithCI, MCConfig, mc_mean

__all__ = [
    "FrameSpec",
    "mixed_volume_coeff",
    "expected_absdet_mc",
    "mixed_area",
    "mixed_volume_ellipsoids_mc",
    "DeterminantBracket",
    "determinant_bracket",
    "DeterminantBoundsReport",
    "check_determinant_bounds",
]


@dataclass(frozen=True)
class FrameSpec:
    """m x k random frame: column j is columns[j].matrix @ (mean + xi)."""

    dim: int
    columns: tuple[GaussianVector, ...]

    def __init__(self, dim: int, columns: Sequence[GaussianVector]):
        cols = tuple(columns)
        if not 1 <= len(cols) <= dim:
            raise ValueError("need 1 <= k <= dim columns")
        for col in cols:
            if col.dim != dim:
                raise ValueError("column dimension mismatch")
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "columns", cols)

    @property
    def k(self) -> int:
        return len(self.columns)

    @property
    def shared(self) -> bool:
        """Identity columns +-c + xi for one c: one outer ellipsoid, iid up to signs."""
        c, eye = self.columns[0].mean, np.eye(self.dim)
        same = [np.array_equal(col.mean, c) or np.array_equal(col.mean, -c) for col in self.columns]
        return all(same) and all(np.array_equal(col.matrix, eye) for col in self.columns)


def mixed_volume_coeff(m: int, k: int) -> float:
    """Constant alpha(m, k) = m! / ((2 pi)^(k/2) (m-k)! kappa_{m-k}) linking
    E sqrt(det(Gamma^T Gamma)) to the mixed volume of the outer ellipsoids."""
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    return factorial(m) / ((2 * math.pi) ** (k / 2) * factorial(m - k) * ball_volume(m - k))


def _chi(rng: np.random.Generator, nu: int, n: int) -> np.ndarray:
    """n draws of chi_nu: |z| at nu = 1, else sqrt(2 Gamma(nu/2)) (numpy is
    slow at gamma shape 1/2)."""
    if nu == 1:
        return np.abs(rng.standard_normal(n))
    x = rng.standard_gamma(nu / 2, n)
    x *= 2.0
    return np.sqrt(x, out=x)


def expected_absdet_mc(frame: FrameSpec, cfg: MCConfig) -> EstimateWithCI:
    """Monte Carlo estimate of E sqrt(det(Gamma^T Gamma)).

    Each chunk of :func:`~gausszonoids.montecarlo.mc_mean` is filled in one
    pass, its variates drawn one after another from the chunk's stream.

    A shared frame (|c| = s) draws each sample from its exact law: rotated on
    the right, Gamma has columns sqrt(k) c + xi_1 and k - 1 centered ones, so
    its volume is |column 1| = hypot(z + sqrt(k) s, chi_{m-1}) times that of
    the others projected off it, prod_{i=1}^{k-1} chi_{m-i} (Bartlett).  By
    Legendre's duplication formula chi_{nu+1} chi_nu has the law of
    Gamma(nu), so the product is drawn as Gamma(m-2) Gamma(m-4) ..., one
    gamma per pair of chis, times chi_{m-k+1} when k is even.  A chunk draws
    z, column 1's chi, each pair's gamma, then the leftover chi, and
    multiplies each factor into the sample in place.  At k = 1 a sample is
    |c + xi| - s in a form that does not cancel where c + xi rounds to c,
    and s is added to the mean; at m = 1 there is no chi and a chunk draws
    z alone.  A product past the largest float is left to mc_mean to refuse.
    Other frames draw the m x k normals of each chunk and take prod |R_ii|
    of each frame's QR factorization.
    """
    m, k = frame.dim, frame.k
    s = frame.columns[0].mean_norm
    if frame.shared:
        pairs = m - 2 * np.arange(1, (k + 1) // 2)  # the gamma shapes of the chi pairs

        def volumes(rng: np.random.Generator, n: int) -> np.ndarray:
            z = rng.standard_normal(n)
            if m == 1:  # |s + z| - s, as below with r = chi_0 = 0
                return z * ((s + 0.5 * z) / (0.5 * np.abs(s + z) + 0.5 * s))
            r = _chi(rng, m - 1, n)
            if k == 1:
                # (z (2s + z) + r^2) / (hypot(s + z, r) + s), halved so it cannot overflow
                half = 0.5 * np.hypot(s + z, r) + 0.5 * s
                return z * ((s + 0.5 * z) / half) + r * (0.5 * r / half)
            vol = np.hypot(z + math.sqrt(k) * s, r)
            with np.errstate(over="ignore"):  # mc_mean refuses a volume past the largest float
                for shape in pairs:
                    vol *= rng.standard_gamma(shape, n)
                if k % 2 == 0:
                    vol *= _chi(rng, m - k + 1, n)
            return vol

    else:
        mats = np.stack([col.matrix.T for col in frame.columns])  # (k, m, m)
        means = np.stack([col.mean for col in frame.columns])  # (k, m)

        def volumes(rng: np.random.Generator, n: int) -> np.ndarray:
            xi = rng.standard_normal((n, k, m)) + means
            r = np.linalg.qr(np.matmul(xi.transpose(1, 0, 2), mats).transpose(1, 2, 0), mode="r")
            return np.prod(np.abs(np.diagonal(r, axis1=-2, axis2=-1)), axis=-1)

    est = mc_mean(volumes, cfg)
    return est._replace(mean=s + est.mean) if frame.shared and k == 1 else est


def mixed_area(shape_a, shape_c) -> float:
    """Mixed area MV(A@B, C@B) of the ellipses that the 2x2 matrices A and C
    make of the unit disc B.

    A map of determinant 1 keeps mixed areas, so MV(A@B, C@B) =
    |det A| MV(B, A^-1 C@B) = |det A| perimeter(A^-1 C@B) / 2, and an ellipse
    with semi-axes s_1 >= s_2 has perimeter 4 s_1 ellipe(1 - s_2^2/s_1^2).
    Raises on a non-finite, non-2x2 or singular matrix.
    """
    a, c = (np.asarray(x, dtype=float) for x in (shape_a, shape_c))
    dets = []
    for mat in (a, c):
        if mat.shape != (2, 2) or not np.all(np.isfinite(mat)):
            raise ValueError("shapes must be finite 2x2 matrices")
        # the cross product, not np.linalg.det, whose log-sum loses 1e-14 at 1e155
        (p, q), (r, t) = mat.tolist()
        dets.append(p * t - q * r)
        if not math.isfinite(dets[-1]) or dets[-1] == 0.0:
            raise ValueError("shapes must be nonsingular with a finite determinant")
    s1, s2 = np.linalg.svd(np.linalg.solve(a, c), compute_uv=False)
    return abs(dets[0]) * 2.0 * s1 * float(special.ellipe(1.0 - (s2 / s1) ** 2))


def mixed_volume_ellipsoids_mc(
    shapes: Sequence[np.ndarray], dim: int, cfg: MCConfig
) -> EstimateWithCI:
    """Estimate MV(shape_1@B, ..., shape_k@B, B[m-k]) by Monte Carlo.

    The thin m x k frame of centered columns shape_j @ xi has E sqrt(det(Gamma^T
    Gamma)) = mixed_volume_coeff(m, k) * MV; the ball slots take no columns.
    """
    k = len(shapes)
    if not 1 <= k <= dim:
        raise ValueError("need 1 <= len(shapes) <= dim")
    zero = np.zeros(dim)
    cols = [GaussianVector(np.asarray(a, dtype=float), zero) for a in shapes]
    est = expected_absdet_mc(FrameSpec(dim, cols), cfg)
    # 1 / mixed_volume_coeff(dim, k), as a product: at k = m it is (2 pi)^(m/2)/m!
    scale = (2 * math.pi) ** (k / 2) * factorial(dim - k) * ball_volume(dim - k)
    scale /= factorial(dim)
    return EstimateWithCI(est.mean * scale, est.std_error * scale, est.n_samples)


@dataclass(frozen=True)
class DeterminantBracket:
    """lower <= E sqrt(det(Gamma^T Gamma)) <= upper for an m x k frame:
    upper = coeff * MV of the outer ellipsoids, lower = b^k * upper."""

    dim: int
    k: int
    coeff: float
    mixed_volume: EstimateWithCI
    lower: float
    upper: float

    def as_dict(self) -> dict:
        return {
            "m": self.dim,
            "k": self.k,
            "coeff": self.coeff,
            "mixed_volume": self.mixed_volume.as_dict(),
            "bounds": {"lower": self.lower, "upper": self.upper},
        }


def determinant_bracket(frame: FrameSpec, cfg: MCConfig) -> DeterminantBracket:
    """The two-sided mixed-volume bracket on E sqrt(det(Gamma^T Gamma)).

    The outer-ellipsoid mixed volume MV is exact (standard error 0, n 0) in
    two cases:

    - a planar frame: :func:`mixed_area` of the two shapes, or of the shape
      and the unit disc when k = 1;
    - a shared frame (outer ellipsoid I + (lam-1) u u^T, lam = axial_stretch(s)):
      with G = QR standard, the squared first row of Q is Beta(k/2, (m-k)/2) and
      independent of R, so MV = chi(m, k) lam 2F1(-1/2, (m-k)/2; m/2; 1 - 1/lam^2)
      / coeff, with
      chi(m, k) = E sqrt(det(G^T G)) = 2^(k/2) Gamma((m+1)/2) / Gamma((m-k+1)/2)
      (Pfaff's form of 2F1(-1/2, k/2; m/2; 1 - lam^2), which cannot overflow).

    Other frames estimate MV by :func:`mixed_volume_ellipsoids_mc` on the
    seed after ``cfg.seed`` (0 after 2**64 - 1), so it is independent of a
    determinant estimate drawn with ``cfg``.  A mixed volume or a bound past
    the largest float raises ValueError.
    """
    m, k = frame.dim, frame.k
    shapes = [col.ellipsoid_matrix() for col in frame.columns]
    alpha = mixed_volume_coeff(m, k)
    if m == 2:
        mv = EstimateWithCI(mixed_area(shapes[0], shapes[1] if k == 2 else np.eye(2)), 0.0, 0)
    elif frame.shared:
        lam = float(axial_stretch(_check_s(frame.columns[0].mean_norm)))
        pfaff = special.hyp2f1(-0.5, (m - k) / 2, m / 2, 1.0 - (1.0 / lam) ** 2)
        chi = 2 ** (k / 2) * math.gamma((m + 1) / 2) / math.gamma((m - k + 1) / 2)
        mv = EstimateWithCI(chi * lam * pfaff / alpha, 0.0, 0)
    else:
        mv_cfg = MCConfig(samples=cfg.samples, seed=(cfg.seed + 1) % (1 << 64))
        mv = mixed_volume_ellipsoids_mc(shapes, m, mv_cfg)
    if not math.isfinite(alpha * mv.mean):  # then neither is the mixed volume, or a bound
        raise ValueError("the mixed volume or its bracket exceeds the float range")
    b = limit_body_inradius()
    return DeterminantBracket(m, k, alpha, mv, b**k * alpha * mv.mean, alpha * mv.mean)


@dataclass(frozen=True)
class DeterminantBoundsReport(DeterminantBracket):
    """The bracket against a Monte Carlo estimate, with the pooled standard
    errors of each side."""

    estimate: EstimateWithCI
    se_lower: float
    se_upper: float

    @property
    def passed(self) -> bool:
        """The estimate lies in the bracket widened by 4 pooled standard
        errors on each side."""
        mean = self.estimate.mean
        return self.lower - 4 * self.se_lower <= mean <= self.upper + 4 * self.se_upper

    def as_dict(self) -> dict:
        d = super().as_dict()
        d.update(self.estimate.as_dict())
        d["bounds"].update(se_lower=self.se_lower, se_upper=self.se_upper)
        return d


def check_determinant_bounds(frame: FrameSpec, cfg: MCConfig) -> DeterminantBoundsReport:
    """Check the bracket of :func:`determinant_bracket` against
    :func:`expected_absdet_mc` drawn with ``cfg``; the verdict is the
    report's ``passed``.
    """
    bracket = determinant_bracket(frame, cfg)
    est = expected_absdet_mc(frame, cfg)
    alpha, mv_se = bracket.coeff, bracket.mixed_volume.std_error
    se_lower = math.hypot(est.std_error, limit_body_inradius() ** bracket.k * alpha * mv_se)
    se_upper = math.hypot(est.std_error, alpha * mv_se)
    return DeterminantBoundsReport(
        **vars(bracket), estimate=est, se_lower=se_lower, se_upper=se_upper
    )
