"""Derive the monomial coefficients behind bellbound.specfun.bessel_j.

Below the Hankel seam at x = 16, bessel_j evaluates J0(x) = P0(t) and
J1(x) = x P1(t), each P a polynomial in t = x^2 / 128 - 1 on [-1, 1),
summed by Horner's rule on frozen monomial coefficients. This script
computes them in 50-digit mpmath arithmetic, independent of the
platform's floating-point types. P is fitted at 64 first-kind Chebyshev
nodes (whose aliasing error is far below float64 resolution) and its
Chebyshev series kept up to the last coefficient above 1e-18. The series
is then turned into monomials by greedy rounding: round its highest-degree
monomial coefficient to float64, subtract that rounded term from the
series and read the next degree from what is left, down to the constant.
Each rounding error is thus absorbed by the degrees below it instead of
piling up as a bias; plain rounding of the exact coefficients biases J0
by about -1e-15 over [0, 16). The constant term of P0 is then moved by
the few ulps that make Horner's rule return J0(0) = 1 exactly.

Run from the repository root:

    PYTHONPATH=src python scripts/bessel_chebyshev.py          # print the block
    PYTHONPATH=src python scripts/bessel_chebyshev.py --check  # compare

The first form prints the constants block for specfun.py; --check derives
the coefficients again and exits 1 unless they equal the frozen ones.
"""

import argparse
import math
import sys

import mpmath
import numpy as np

from bellbound import specfun

NODES = 64
CUTOFF = 1e-18
U_MAX = 256  # u = x^2 at the Hankel seam


def p_function(order, u):
    """P0(u) = J0(sqrt u) and P1(u) = J1(sqrt u) / sqrt u."""
    if order == 0:
        return mpmath.besselj(0, mpmath.sqrt(u))
    if u == 0:
        return mpmath.mpf(1) / 2
    return mpmath.besselj(1, mpmath.sqrt(u)) / mpmath.sqrt(u)


def _chebyshev_coefficient(k, angles, values):
    """The T_k coefficient of the values at the nodes cos(angles)."""
    c = 2 * mpmath.fsum(v * mpmath.cos(k * a) for a, v in zip(angles, values)) / NODES
    return c / 2 if k == 0 else c


def chebyshev_series(order):
    """P_order's Chebyshev coefficients in t, exact to 50 digits, by degree."""
    with mpmath.workdps(50):
        angles = [mpmath.pi * (j + mpmath.mpf(1) / 2) / NODES for j in range(NODES)]
        values = [p_function(order, (1 + mpmath.cos(a)) * U_MAX / 2) for a in angles]
        c = [_chebyshev_coefficient(k, angles, values) for k in range(NODES)]
        return c[: max(k for k in range(NODES) if abs(c[k]) > CUTOFF) + 1]


def monomial_series(order):
    """Float64 monomial coefficients of P_order in t = u / 128 - 1."""
    with mpmath.workdps(50):
        residual = chebyshev_series(order)
        coef = [0.0] * len(residual)
        for k in range(len(residual) - 1, -1, -1):
            # t^k = 2^(1 - k) sum_j C(k, (k - j) / 2) T_j over j = k, k - 2, ...,
            # the T_0 term halved; so T_k leads with 2^(k - 1) t^k
            coef[k] = float(residual[k] * 2 ** max(k - 1, 0))
            for j in range(k, -1, -2):
                share = mpmath.binomial(k, (k - j) // 2) * mpmath.mpf(2) ** (1 - k)
                residual[j] -= coef[k] * (share / 2 if j == 0 else share)
        return coef


def pin_j0_at_zero(p0):
    """Move P0's constant term until Horner's rule returns J0(0) == 1."""
    start = np.array([-1.0])
    while (value := specfun._horner(p0, start)[0]) != 1.0:
        p0[0] = math.nextafter(p0[0], math.inf if value < 1.0 else -math.inf)
    return p0


def derive():
    """Both tables, with P0's constant term pinned so that J0(0) == 1."""
    return tuple(pin_j0_at_zero(monomial_series(0))), tuple(monomial_series(1))


def render(series):
    lines = [
        "# Monomial coefficients of J0(x) and J1(x)/x in t = x^2/128 - 1 for",
        "# 0 <= x < 16, indexed by power; generated by scripts/bessel_chebyshev.py.",
        "_J_MONOMIAL = (",
    ]
    for coef in series:
        lines.append("    (")
        for i in range(0, len(coef), 3):
            lines.append("        " + " ".join(f"{c!r}," for c in coef[i : i + 3]))
        lines.append("    ),")
    lines.append(")")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the frozen coefficients instead of printing")
    args = parser.parse_args(argv)
    series = derive()
    if not args.check:
        print(render(series))
        return 0
    frozen = specfun._J_MONOMIAL
    for order, (new, old) in enumerate(zip(series, frozen)):
        if new != old:
            gap = max((abs(a - b) for a, b in zip(new, old)), default=0.0)
            print(f"order {order}: {len(new)} derived vs {len(old)} frozen "
                  f"coefficients, largest difference {gap:.3e}")
            return 1
    print(f"frozen coefficients match ({', '.join(str(len(c)) for c in series)} terms)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
