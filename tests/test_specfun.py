"""Special-function checks against independent oracles."""

import math
from fractions import Fraction

import numpy as np
import scipy.special

from bellbound.specfun import (
    _j_asymptotic,
    _j_series,
    assoc_laguerre,
    assoc_laguerre_seq,
    bessel_j,
    laguerre,
)

from oracles import laguerre_sum


def laguerre_series_exact(n, a, x):
    """Exact rational term-by-term sum of the defining series."""
    xf = Fraction(x)
    total = Fraction(0)
    for k in range(n + 1):
        c = math.comb(n + a, n - k)
        total += Fraction((-1) ** k * c, math.factorial(k)) * xf**k
    return float(total)


def test_laguerre_low_orders():
    assert laguerre(0, 7.3) == 1.0
    assert laguerre(1, 2.0) == -1.0
    # 1 - 2x + x^2/2 at x = 2
    assert abs(laguerre(2, 2.0) - laguerre_series_exact(2, 0, 2.0)) < 1e-14
    assert abs(laguerre(2, 2.0) - (-1.0)) < 1e-14


def test_assoc_laguerre_low_orders():
    assert assoc_laguerre(0, 3, 5.0) == 1.0
    assert abs(assoc_laguerre(1, 1, 1.0) - 1.0) < 1e-14
    assert abs(assoc_laguerre(1, 1, 1.0) - laguerre_series_exact(1, 1, 1.0)) < 1e-14


def test_assoc_index_zero_matches_laguerre():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(0, 40))
        x = float(rng.uniform(0, 60))
        assert assoc_laguerre(n, 0, x) == laguerre(n, x)


def test_recurrence_matches_exact_series():
    rng = np.random.default_rng(11)
    xs = rng.uniform(0.0, 50.0, size=100)
    for n in (1, 2, 5, 13, 27, 50):
        for x in xs:
            got = laguerre(n, float(x))
            want = laguerre_series_exact(n, 0, float(x))
            assert abs(got - want) <= 1e-9 * max(abs(got), abs(want), 1.0)


def test_assoc_recurrence_matches_exact_series():
    rng = np.random.default_rng(12)
    for _ in range(60):
        n = int(rng.integers(0, 30))
        a = int(rng.integers(0, 12))
        x = float(rng.uniform(0, 40))
        got = assoc_laguerre(n, a, x)
        want = laguerre_series_exact(n, a, x)
        assert abs(got - want) <= 1e-9 * max(abs(got), abs(want), 1.0)


def test_no_overflow_at_large_order():
    v = laguerre(200, 400.0)
    assert math.isfinite(v)
    v = assoc_laguerre(200, 7, 400.0)
    assert math.isfinite(v)


def test_seq_agrees_with_scalar():
    x = np.linspace(0.0, 30.0, 17)
    table = assoc_laguerre_seq(12, 3, x)
    assert table.shape == (13, 17)
    for n in (0, 4, 12):
        assert np.allclose(table[n], assoc_laguerre(n, 3, x), rtol=0, atol=1e-10)


def test_scipy_cross_check_laguerre():
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(0, 60))
        a = int(rng.integers(0, 10))
        x = float(rng.uniform(0, 80))
        want = scipy.special.eval_genlaguerre(n, a, x)
        got = assoc_laguerre(n, a, x)
        assert abs(got - want) <= 1e-8 * max(abs(want), 1.0)


def test_bessel_trivial_values():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0


def test_bessel_rejects_bad_input():
    for bad in (-1.0, np.array([0.5, -2.0])):
        try:
            bessel_j(0, bad)
        except ValueError:
            continue
        raise AssertionError("negative argument must be rejected")
    try:
        bessel_j(2, 1.0)
    except ValueError:
        pass
    else:
        raise AssertionError("only orders 0 and 1 exist here")


def _series_j0(x):
    # independent local series, converges fast for x < 4
    total = term = 1.0
    for k in range(1, 40):
        term *= -(x * x / 4.0) / (k * k)
        total += term
    return total


def test_first_j0_root():
    # bisection on the local series oracle
    a, b = 2.0, 3.0
    for _ in range(70):
        m = 0.5 * (a + b)
        if _series_j0(a) * _series_j0(m) <= 0:
            b = m
        else:
            a = m
    root = 0.5 * (a + b)
    assert abs(root - 2.404825557695773) < 1e-12
    assert abs(bessel_j(0, root)) < 1e-10
    assert abs(bessel_j(0, 2.404825557695773)) < 1e-10


def test_bessel_against_scipy():
    x = np.concatenate(
        [
            np.linspace(0.0, 20.0, 401),
            np.geomspace(20.0, 1e4, 200),
        ]
    )
    for order, ref in ((0, scipy.special.j0), (1, scipy.special.j1)):
        got = bessel_j(order, x)
        assert np.max(np.abs(got - ref(x))) < 1e-12


def test_bessel_seam_continuity():
    for order in (0, 1):
        lo = _j_series(order, np.array([8.0]), np.float64)[0]
        hi = _j_series(order, np.array([8.0]), np.longdouble)[0]
        assert abs(lo - hi) < 1e-10
        lo = _j_series(order, np.array([16.0]), np.longdouble)[0]
        hi = _j_asymptotic(order, np.array([16.0]))[0]
        assert abs(lo - hi) < 1e-10


def test_bessel_derivative_relation():
    # d/dx J0 = -J1 by central differences
    rng = np.random.default_rng(17)
    xs = rng.uniform(0.5, 40.0, size=50)
    h = 1e-6
    for x in xs:
        der = (bessel_j(0, x + h) - bessel_j(0, x - h)) / (2 * h)
        assert abs(der + bessel_j(1, x)) < 1e-6


def test_laguerre_sum_trivial():
    assert abs(laguerre_sum(0.0, 1.0, 60) - math.e) < 1e-12
    assert laguerre_sum(4.0, 0.0, 7) == 1.0


def test_laguerre_sum_closed_form():
    want = scipy.special.j0(2 * math.sqrt(6.0)) * math.exp(2.0)
    assert abs(laguerre_sum(3.0, 2.0, 80) - want) < 1e-9


def test_laguerre_sum_grid_convergence():
    for x in np.linspace(0.0, 8.0, 10):
        for y in np.linspace(0.0, 8.0, 10):
            want = bessel_j(0, 2 * math.sqrt(x * y)) * math.exp(y)
            assert abs(laguerre_sum(float(x), float(y), 120) - want) < 1e-8
