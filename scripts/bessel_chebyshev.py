"""Derive the Chebyshev coefficients behind bellbound.specfun.bessel_j.

Below the Hankel seam at x = 16, bessel_j evaluates J0(x) = P0(u) and
J1(x) = x P1(u) with u = x^2, each P a Chebyshev series in
t = u / 128 - 1 on [-1, 1]. This script computes the series in 50-digit
mpmath arithmetic, independent of the platform's floating-point types:
interpolation at 64 first-kind Chebyshev nodes, whose aliasing error is
far below float64 resolution at the degrees kept, rounding to float64 and
truncation after the last coefficient above 1e-18. The constant term of
P0 is then moved by the few ulps that make the float64 recurrence return
J0(0) = 1 exactly.

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


def chebyshev_series(order):
    """Float64 coefficients of P_order in T_k(t), t = u / 128 - 1."""
    with mpmath.workdps(50):
        angles = [mpmath.pi * (j + mpmath.mpf(1) / 2) / NODES for j in range(NODES)]
        values = [p_function(order, (1 + mpmath.cos(a)) * U_MAX / 2) for a in angles]
        coef = [
            2 * mpmath.fsum(v * mpmath.cos(k * a) for a, v in zip(angles, values))
            / NODES
            for k in range(NODES)
        ]
        coef[0] /= 2
        last = max(k for k, c in enumerate(coef) if abs(c) > CUTOFF)
        return [float(c) for c in coef[: last + 1]]


def derive():
    """Both series, with P0's constant term pinned so that J0(0) == 1."""
    p0, p1 = chebyshev_series(0), chebyshev_series(1)
    start = np.array([-1.0])
    while (value := specfun._clenshaw(p0, start)[0]) != 1.0:
        p0[0] = math.nextafter(p0[0], math.inf if value < 1.0 else -math.inf)
    return tuple(p0), tuple(p1)


def render(series):
    lines = [
        "# Chebyshev coefficients of J0(x) and J1(x)/x in t = x^2/128 - 1 for",
        "# 0 <= x < 16, indexed by order; generated by scripts/bessel_chebyshev.py.",
        "_J_CHEBYSHEV = (",
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
    frozen = specfun._J_CHEBYSHEV
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
