"""
Ellipsoid sandwich and volume bounds
====================================

Stretching the ball of radius 1/sqrt(2 pi) along the mean axis gives an
ellipsoid that contains the Gaussian zonoid; shrinking that ellipsoid by
the universal ratio b (about 0.91) fits it back inside.  The ratio is the
inradius of the limit body and does not depend on the dimension or the
offset.  Volumes inherit the same squeeze.
"""
import math

import numpy as np

from gausszonoids import (
    RevolutionBody,
    check_inclusion,
    limit_body_inradius,
    limit_inradius_angle,
    volume,
    volume_bounds,
)

b = limit_body_inradius(1e-10)
print(f"universal ratio b = {b:.12f}")
print(f"attained at angle  {limit_inradius_angle():.6f} rad on the profile circle\n")

# the support ratio depends only on the angle to the mean axis, so a scan of
# that angle confirms the squeeze; its minimum is sandwich_constant(s)
print("inclusion check, m = 3, 20000 meridian angles per offset")
print("  s     min h_G/h_ell   max h_G/h_ell")
for s in (0.5, 2.0, 10.0):
    rep = check_inclusion(3, s, n_dirs=20_000, seed=7)
    print(f"  {s:<4}  {rep.min_ratio_lower:.6f}        {rep.max_ratio_upper:.6f}")
print("every ratio sits inside [b, 1] =", f"[{b:.6f}, 1]")
print("(the min drifts down toward b as the offset grows)\n")

# the volume bracket: ball term, sharp limit-body term, ellipsoid term
print("volume(G(s)) against its bracket, m = 3")
print("  s      lower(ball)  lower(sharp)  volume       upper(ellipsoid)")
for s in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0):
    vb = volume_bounds(3, s)
    v = volume(RevolutionBody("gaussian", 3, s))
    print(f"  {s:<5}  {vb.lower:.6f}     {vb.lower_sharp:.6f}      {v:.6f}     {vb.upper:.6f}")

# large offset: volume grows linearly with slope set by the equator ball
slope = volume(RevolutionBody("gaussian", 3, 50.0)) / 50.0
print(f"\nvolume(G(50))/50 = {slope:.6f} vs slope constant "
      f"{math.pi / (math.sqrt(3) * 2 * math.pi):.6f}")
