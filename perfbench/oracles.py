"""mpmath reference values for every checked output of the benchmark.

Nothing here imports gausszonoids: each value comes from a closed form or an
mpmath quadrature or root find, evaluated at 40 significant digits.

    python3 perfbench/oracles.py            # rebuild perfbench/oracles.json
    python3 perfbench/oracles.py --check    # rebuild in memory, compare with
                                            # the stored file, cross-check routes

An oracle is named by a request tuple such as ``("volume", 2, 500.0)``; the
workloads list the requests their checks need (``workloads.oracle_requests``)
and the stored file maps ``key(request)`` to a decimal string.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import mpmath as mp

from workloads import key, oracle_requests

HERE = Path(__file__).resolve().parent
ORACLE_FILE = HERE / "oracles.json"
DPS = 40  # working precision; stored strings keep 32 significant digits
STORED_DIGITS = 32


def _x(value) -> mp.mpf:
    """The double the program parses from the same decimal, exactly."""
    return mp.mpf(float(value))


# -- closed forms --------------------------------------------------------------


def axial_stretch(s):
    return mp.exp(-s * s / 2) + mp.sqrt(mp.pi / 2) * s * mp.erf(s / mp.sqrt(2))


def ball_volume(m: int):
    return mp.pi ** (mp.mpf(m) / 2) / mp.gamma(mp.mpf(m) / 2 + 1)


def body_volume(m: int, s):
    """vol_m of the Gaussian zonoid G(s), DLMF 13.4.1 (Euler integral of 1F1):
    kappa_{m-1}/(2 pi)^(m/2) [B(1/2, a+1) 1F1(1/2; a+3/2; -c)
    + s^2 B(1/2, a+2) 1F1(1/2; a+5/2; -c)], a = (m-1)/2, c = m s^2/2."""
    a = mp.mpf(m - 1) / 2
    c = m * s * s / 2
    half = mp.mpf(1) / 2
    core = mp.beta(half, a + 1) * mp.hyp1f1(half, a + mp.mpf(3) / 2, -c)
    core += s * s * mp.beta(half, a + 2) * mp.hyp1f1(half, a + mp.mpf(5) / 2, -c)
    return ball_volume(m - 1) / (2 * mp.pi) ** (mp.mpf(m) / 2) * core


def body_volume_quad(m: int, s):
    """Second route: mpmath quadrature of the meridian integral
    int_0^pi sin^m t (1 + s^2 sin^2 t) exp(-m s^2 cos^2 t / 2) dt."""

    def f(t):
        sn = mp.sin(t)
        return sn**m * (1 + s * s * sn * sn) * mp.exp(-m * s * s * mp.cos(t) ** 2 / 2)

    # the integrand concentrates at width ~1/s around pi/2
    width = 1 / max(s, mp.mpf(1))
    pts = [mp.mpf(0), mp.pi]
    pts += [mp.pi / 2 + c * width for c in (-16, -4, -1, 0, 1, 4, 16) if abs(c * width) < mp.pi / 2]
    pts = sorted(pts)
    return ball_volume(m - 1) / (2 * mp.pi) ** (mp.mpf(m) / 2) * mp.quad(f, pts)


def limit_ring(t):
    """Limit-body support on the unit circle at angle t in (0, pi/2]."""
    x, z = mp.cos(t), mp.sin(t)
    return z * mp.exp(-(x * x) / (mp.pi * z * z)) + x * mp.erf(x / (mp.sqrt(mp.pi) * z))


def limit_ring_slope(t):
    # d/dt with the gradient (erf(x/(sqrt(pi) z)), exp(-x^2/(pi z^2)))
    x, z = mp.cos(t), mp.sin(t)
    return -z * mp.erf(x / (mp.sqrt(mp.pi) * z)) + x * mp.exp(-(x * x) / (mp.pi * z * z))


def t_star():
    return mp.findroot(limit_ring_slope, mp.mpf("0.61"))


def b_infinity():
    return limit_ring(t_star())


def folded_mean(s):
    """E|s + xi| for xi ~ N(0, 1)."""
    return mp.sqrt(2 / mp.pi) * mp.exp(-s * s / 2) + s * mp.erf(s / mp.sqrt(2))


def mv_coeff(m: int, k: int):
    return mp.factorial(m) / (
        (2 * mp.pi) ** (mp.mpf(k) / 2) * mp.factorial(m - k) * ball_volume(m - k)
    )


def absdet_ex2(m: int, k: int, s):
    """E det(G^T G) for m x k G with iid columns N(s e_1, I): Cauchy-Binet
    over k-row minors, each E det^2 = k! (1 + |c_S|^2)."""
    return mp.factorial(k) * (mp.binomial(m, k) + s * s * mp.binomial(m - 1, k - 1))


def _level_integral(m: int, k: int, tau, r, weight):
    """m! (2 pi)^(m/2 - 1) 2k * 2 int_0^vmax e^{-m v^2/(2 tau^2)} weight(sigma/tau)/sigma dv
    for phi = sin(k x_1) on T^m (coarea over levels v; sigma = k sqrt(1 - v^2)
    at each of the 2k roots)."""
    vmax = mp.mpf(1) if mp.isinf(r) else r

    def f(v):
        sig = k * mp.sqrt(1 - v * v)
        return mp.exp(-m * v * v / (2 * tau * tau)) * weight(sig / tau) / sig

    pts = [mp.mpf(0)]
    step = tau / 4
    while step < vmax:
        pts.append(step)
        step *= 2
    pts.append(vmax)
    front = mp.factorial(m) * (2 * mp.pi) ** (mp.mpf(m) / 2 - 1) * 2 * k * 2
    return front * mp.quad(f, pts)


def _tube_integral(m: int, k: int, tau, r, weight):
    """Second route: the same count as an integral over x_1 inside the tube
    (no coarea), using the symmetry of the 2k zeros of sin(k x_1)."""
    tmax = mp.pi / (2 * k) if mp.isinf(r) else mp.asin(r) / k

    def f(t):
        v = mp.sin(k * t)
        return mp.exp(-m * v * v / (2 * tau * tau)) * weight(k * mp.cos(k * t) / tau)

    pts = [mp.mpf(0)]
    step = tau / (4 * k)
    while step < tmax:
        pts.append(step)
        step *= 2
    pts.append(tmax)
    front = mp.factorial(m) * (2 * mp.pi) ** (mp.mpf(m) / 2 - 1) * 2 * k * 2
    return front * mp.quad(f, pts)


def zero_count(m, k, tau, r, route=_level_integral):
    """Expected zeros of sin(k x_1) + tau g in the tube {|phi| < r}:
    m! int vol_m(section body), the section volume being
    (2 pi)^(-m/2) e^{-m phi^2/(2 tau^2)} vol_m(G(|grad phi|/tau))."""
    return route(m, k, tau, r, lambda s: body_volume(m, s))


def envelope_count(m, k, tau, r, route=_level_integral):
    """The same count with each section body replaced by its outer ellipsoid,
    of volume (2 pi)^(-m/2) kappa_m axial_stretch(s)."""
    return route(
        m, k, tau, r,
        lambda s: ball_volume(m) * axial_stretch(s) / (2 * mp.pi) ** (mp.mpf(m) / 2),
    )


def concentration_limit(m, k, alpha):
    measure = 2 * k * (2 * mp.pi) ** (m - 1)
    front = mp.factorial(m - 1) * ball_volume(m - 1) / (2 * mp.pi) ** (m - 1)
    return front * mp.erf(mp.sqrt(mp.mpf(m) / 2) * alpha) * measure


def profile_theta(n, j):
    return mp.pi * j / (n - 1)


def profile_point(s, theta):
    """Boundary point (axial, radial) of G(s) with outer normal (cos, sin)."""
    x, y = mp.cos(theta), mp.sin(theta)
    w = s * x
    e = mp.exp(-w * w / 2) / mp.sqrt(2 * mp.pi)
    return x * e + s / 2 * mp.erf(w / mp.sqrt(2)), y * e


def evaluate(request: tuple):
    kind, *a = request
    if kind == "binfty":
        return b_infinity()
    if kind == "tstar":
        return t_star()
    if kind == "volume":
        return body_volume(int(a[0]), _x(a[1]))
    if kind == "vol_upper":
        m, s = int(a[0]), _x(a[1])
        return axial_stretch(s) * ball_volume(m) / (2 * mp.pi) ** (mp.mpf(m) / 2)
    if kind == "vol_lower":
        return b_infinity() ** int(a[0]) * evaluate(("vol_upper", *a))
    if kind == "vol_lower_sharp":
        m, s = int(a[0]), _x(a[1])
        return axial_stretch(s) * 2 * ball_volume(m - 1) / (
            mp.sqrt(m) * (2 * mp.pi) ** (mp.mpf(m) / 2)
        )
    if kind == "vol_asymptote":
        m = int(a[0])
        return ball_volume(m - 1) / (mp.sqrt(m) * (2 * mp.pi) ** (mp.mpf(m - 1) / 2))
    if kind == "folded_mean":
        return folded_mean(_x(a[0]))
    if kind == "absdet":  # E|det| of an iid square frame: m! vol_m(G(s))
        return mp.factorial(int(a[0])) * body_volume(int(a[0]), _x(a[1]))
    if kind == "folded_var":  # Var|s + xi| = 1 + s^2 - (E|s + xi|)^2
        s = _x(a[0])
        return 1 + s * s - folded_mean(s) ** 2
    if kind == "absdet_var":  # Var|det| of an iid square frame
        m, s = int(a[0]), _x(a[1])
        return absdet_ex2(m, m, s) - (mp.factorial(m) * body_volume(m, s)) ** 2
    if kind == "absdet_ex2":
        return absdet_ex2(int(a[0]), int(a[1]), _x(a[2]))
    if kind == "mv_coeff":
        return mv_coeff(int(a[0]), int(a[1]))
    if kind == "ellipse_area":  # mixed area of two copies of the planar outer ellipse
        return mp.pi * axial_stretch(_x(a[0]))
    if kind == "planar_upper":
        return mv_coeff(2, 2) * mp.pi * axial_stretch(_x(a[0]))
    if kind == "planar_lower":
        return b_infinity() ** 2 * evaluate(("planar_upper", *a))
    if kind == "zeros":
        return zero_count(int(a[0]), int(a[1]), _x(a[2]), _x(a[3]))
    if kind == "envelope":
        return envelope_count(int(a[0]), int(a[1]), _x(a[2]), _x(a[3]))
    if kind == "envelope_lower":
        return b_infinity() ** int(a[0]) * evaluate(("envelope", *a))
    if kind == "conc_limit":
        return concentration_limit(int(a[0]), int(a[1]), _x(a[2]))
    if kind == "profile_theta":
        return profile_theta(int(a[0]), int(a[1]))
    if kind in ("profile_axial", "profile_radial"):
        s, n, j = _x(a[0]), int(a[1]), int(a[2])
        point = profile_point(s, profile_theta(n, j))
        return point[0] if kind == "profile_axial" else point[1]
    raise ValueError(f"unknown oracle request {request!r}")


def build(requests) -> dict:
    with mp.workdps(DPS):
        return {
            key(req): mp.nstr(evaluate(req), STORED_DIGITS, strip_zeros=False)
            for req in requests
        }


def load(path: Path = ORACLE_FILE) -> dict:
    with open(path) as fh:
        return json.load(fh)["values"]


def _cross_checks(requests) -> list[str]:
    """Second routes that share no formula with the stored values."""
    problems = []
    with mp.workdps(DPS):
        tol = mp.mpf(10) ** -28

        def agree(label, a, b):
            if abs(a - b) > tol * max(abs(a), abs(b), mp.mpf(1) / 10**6):
                problems.append(f"{label}: {mp.nstr(a, 20)} vs {mp.nstr(b, 20)}")

        for req in requests:
            kind, *a = req
            if kind == "volume":
                m, s = int(a[0]), _x(a[1])
                agree(key(req) + " quad", body_volume(m, s), body_volume_quad(m, s))
                if m == 1:
                    agree(key(req) + " m=1", body_volume(m, s), 2 * axial_stretch(s) / mp.sqrt(2 * mp.pi))
            elif kind == "folded_mean":
                s = _x(a[0])
                agree(key(req) + " vol_1", folded_mean(s), body_volume(1, s))
            elif kind in ("zeros", "envelope"):
                m, k, tau, r = int(a[0]), int(a[1]), _x(a[2]), _x(a[3])
                fn = zero_count if kind == "zeros" else envelope_count
                agree(key(req) + " tube", fn(m, k, tau, r), fn(m, k, tau, r, route=_tube_integral))
        t = t_star()
        for dt in (mp.mpf(10) ** -8, -mp.mpf(10) ** -8):
            if not limit_ring(t + dt) > limit_ring(t):
                problems.append(f"t_star is not a minimum (step {dt})")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", help="rebuild and compare, write nothing")
    args = ap.parse_args(argv)
    requests = oracle_requests()
    values = build(requests)
    if not args.check:
        with open(ORACLE_FILE, "w") as fh:
            json.dump({"dps": DPS, "values": values}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(values)} oracle values to {ORACLE_FILE.name}")
        return 0
    stored = load()
    problems = _cross_checks(requests)
    for k, v in values.items():
        if k not in stored:
            problems.append(f"{k}: missing from {ORACLE_FILE.name}")
        elif stored[k] != v:
            problems.append(f"{k}: stored {stored[k]} rebuilt {v}")
    for line in problems:
        print("MISMATCH", line)
    print(f"{len(values)} oracle values rebuilt, {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
