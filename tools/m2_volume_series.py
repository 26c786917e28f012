"""Coefficients of the large-z series of the 2-D gaussian body volume.

With z = s^2/2 the volume is ``(z + 1/2) i0e(z) + z i1e(z)``, and Hankel's
expansion of I_nu (DLMF 10.40.1),

    I_nu(z) e^-z ~ (2 pi z)^(-1/2) * sum_k (-1)^k a_k(nu) z^-k,
    a_k(nu) = (4nu^2 - 1^2)(4nu^2 - 3^2)...(4nu^2 - (2k-1)^2) / (k! 8^k),

turns it into ``(2 z + 1/4 + sum_{k>=1} c_k z^-k) / sqrt(2 pi z)`` with

    c_k = (-1)^k a_k(0) / 2 - (-1)^k (a_{k+1}(0) + a_{k+1}(1)).

The c_k are rationals, computed exactly here and rounded once to floats;
``gausszonoids.geometry`` keeps the rounded values frozen in source.
:func:`reference_volume` is the volume in mpmath at any precision, the
oracle the tests hold the series to.

Run ``python tools/m2_volume_series.py`` to print the coefficients as
they appear in the source.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial

import mpmath

# terms of the truncated series; from z = 30 on the first omitted one,
# c_12 z^-12, is below 2e-18 of the leading 2 z
TERMS = 11


def hankel_a(k: int, nu: int) -> Fraction:
    """a_k(nu) of DLMF 10.17.1, exactly."""
    num = 1
    for j in range(1, k + 1):
        num *= 4 * nu * nu - (2 * j - 1) ** 2
    return Fraction(num, factorial(k) * 8**k)


def exact_coefficients(terms: int = TERMS) -> list[Fraction]:
    """c_0 = 1/4, c_1, ..., c_terms of the series, exactly."""
    return [
        Fraction((-1) ** k, 2) * hankel_a(k, 0)
        - (-1) ** k * (hankel_a(k + 1, 0) + hankel_a(k + 1, 1))
        for k in range(terms + 1)
    ]


def coefficients(terms: int = TERMS) -> tuple[float, ...]:
    """c_1, ..., c_terms, each rounded once to the nearest float."""
    return tuple(float(c) for c in exact_coefficients(terms)[1:])


def reference_volume(s, dps: int = 40):
    """The 2-D volume ``exp(-z) * ((z + 1/2) I_0(z) + z I_1(z))``, z = s^2/2,
    in mpmath at dps digits; s is taken exactly as the float it is."""
    with mpmath.workdps(dps):
        z = mpmath.mpf(s) ** 2 / 2
        return +(mpmath.exp(-z) * ((z + 0.5) * mpmath.besseli(0, z) + z * mpmath.besseli(1, z)))


def main() -> None:
    exact = exact_coefficients()
    assert exact[0] == Fraction(1, 4)
    print("_M2_SERIES = (  # c_1 .. c_%d" % TERMS)
    for k, c in enumerate(coefficients(), start=1):
        print(f"    {c!r},  # {exact[k]}")
    print(")")


if __name__ == "__main__":
    main()
