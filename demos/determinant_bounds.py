"""
Expected determinants and mixed volumes
=======================================

For a random matrix whose columns are independent Gaussian vectors, the
expected absolute determinant equals (up to factorials) the mixed volume of
the columns' expectation bodies.  Replacing each body by its enclosing
ellipsoid gives computable two-sided bounds that are tight within the
universal factor b^k.
"""
import numpy as np

from gausszonoids import (
    FrameSpec,
    GaussianVector,
    MCConfig,
    check_determinant_bounds,
    expected_absdet_mc,
    folded_normal_mean,
    gaussian_volume,
    limit_body_inradius,
)

cfg = MCConfig(samples=300_000, seed=17)

# 1x1 sanity: |det| is just |mean + noise|, a folded normal
one = FrameSpec(1, [GaussianVector(np.eye(1), np.array([2.0]))])
est = expected_absdet_mc(one, cfg)
print(f"scalar case  mc {est.mean:.5f} +- {est.std_error:.5f}   "
      f"closed form {folded_normal_mean(2.0, 1.0):.5f}\n")

# centered columns: the ellipsoid bounds collapse onto the exact identity
cols = [
    GaussianVector(np.array([[1.0, 0.4], [0.0, 1.0]]), np.zeros(2)),
    GaussianVector(np.array([[0.9, 0.0], [0.2, 1.1]]), np.zeros(2)),
]
rep = check_determinant_bounds(FrameSpec(2, cols), cfg)
print("centered 2x2 frame")
print(f"  estimate     {rep.estimate.mean:.5f} +- {rep.estimate.std_error:.5f}")
print(f"  coeff * MV   {rep.upper:.5f}  (exact planar mixed area)\n")

# shifted columns: the estimate slides from the upper bound toward b^2 * upper
b = limit_body_inradius()
print("iid columns with mean s*e1, m = k = 2")
print("  s      estimate/upper   floor b^2")
for i, s in enumerate((0.5, 2.0, 10.0)):
    frame = FrameSpec(2, [GaussianVector(np.eye(2), np.array([s, 0.0]))] * 2)
    rep = check_determinant_bounds(frame, MCConfig(samples=300_000, seed=20 + i))
    print(f"  {s:<5}  {rep.estimate.mean / rep.upper:.5f}          {b**2:.5f}")

# iid square frames: E|det| = m! |det M| vol G(s), exact, no bracket needed
mat = np.array([[1.0, 0.2], [0.1, 0.9]])
frame = FrameSpec(2, [GaussianVector(mat, np.array([2.0, 0.0]))] * 2)
est = expected_absdet_mc(frame, cfg)
exact = 2 * abs(np.linalg.det(mat)) * float(gaussian_volume(2, 2.0))
print(f"\niid square frame M(c + xi), |c| = 2: mc {est.mean:.5f} +- {est.std_error:.5f}   "
      f"exact {exact:.5f}")
