"""
Zeros of a smoothed field concentrate on the unperturbed zero set
=================================================================

Perturb a fixed function phi by tau times a smooth Gaussian field and count
the zeros falling in the tube {|phi| < r}.  As tau shrinks with r = alpha*tau
the expected count converges to erf(sqrt(m/2)*alpha) times the measure of the
zero set of phi: zeros concentrate, and alpha tunes how many the tube keeps.
Three independent routes compute the same number.
"""
import math

from gausszonoids import (
    GridSpec,
    MCConfig,
    TubeSpec,
    concentration_limit,
    envelope_sandwich,
    expected_zeros_coarea,
    expected_zeros_integral,
    mc_zero_count_circle,
    sine_field,
)

field = sine_field(2)  # phi = sin(2t) on the circle, four zeros
alpha = 1.0
limit = concentration_limit(1, alpha, field.zero_set_measure)
print(f"limit value erf(1/sqrt 2) * 4 = {limit:.12f}\n")

print("tau sweep at r = alpha * tau")
print("  tau      quadrature        level integral    rel err vs limit")
for tau in (1e-1, 3e-2, 1e-2, 3e-3):
    tube = TubeSpec(tau, alpha * tau)
    n_int = expected_zeros_integral(field, tube, GridSpec(32768))
    n_coa = expected_zeros_coarea(field, tube)
    print(f"  {tau:<7}  {n_int:.12f}    {n_coa:.12f}    {abs(n_int / limit - 1):.1e}")
print("(the finite-tau deviation decays like exp(-c/tau^2): already below"
      "\n quadrature noise at tau = 0.1)\n")

# Monte Carlo route: simulate the random field, count sign changes
tube = TubeSpec(3e-3, 3e-3)
est = mc_zero_count_circle(field, tube, MCConfig(samples=50_000, seed=5))
print(f"simulated count  {est.mean:.4f} +- {est.std_error:.4f}  "
      f"({est.n_samples} fields)\n")

# widening or narrowing the tube against tau flips the regime
tau = 1e-3
wide = expected_zeros_coarea(field, TubeSpec(tau, math.sqrt(tau)))
narrow = expected_zeros_coarea(field, TubeSpec(tau, tau * tau))
print(f"r = sqrt(tau):  {wide:.6f}  (alpha -> inf, every zero is caught)")
print(f"r = tau^2:      {narrow:.6f}  (alpha -> 0, the tube outruns the zeros)\n")

# the count formula integrates local section volumes; replacing each section
# by its enclosing ellipsoid bounds the count within the universal factor
rep = envelope_sandwich(sine_field(2, dim=2), 0.05, GridSpec(96))
print("ellipsoid comparison field on the 2-torus, tau = 0.05")
print(f"  section/ellipsoid volume ratio in [{rep.min_ratio:.6f}, {rep.max_ratio:.6f}]")
print(f"  floor b^2 = {rep.limit_inradius**2:.6f}; "
      f"count {rep.count:.4f} in [{rep.count_lower:.4f}, {rep.count_upper:.4f}]")
