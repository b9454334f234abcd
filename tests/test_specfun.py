"""Special-function checks against independent oracles."""

import importlib.util
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special

import bellbound
from bellbound import specfun
from bellbound.fock import _displacement_amplitudes
from bellbound.specfun import _j_asymptotic, bessel_j, laguerre_scaled

from oracles import assoc_laguerre, assoc_laguerre_seq, j_series, laguerre, laguerre_sum

REPO = Path(__file__).resolve().parent.parent


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


def test_seq_order_array_matches_scalar_orders_bitwise():
    # one sweep over an order axis gives each order's own sweep, bit for bit
    x = np.concatenate([np.linspace(0.0, 30.0, 17), [0.37, 144.0, 7152.0]])
    orders = np.arange(9)
    table = assoc_laguerre_seq(40, orders, x[:, None])
    assert table.shape == (41, x.size, orders.size)
    for a in orders:
        assert np.array_equal(table[:, :, a], assoc_laguerre_seq(40, int(a), x))
    # the order may sit on any axis, and a scalar x broadcasts against it
    assert np.array_equal(assoc_laguerre_seq(5, orders, 2.5)[:, 4],
                          assoc_laguerre_seq(5, 4, 2.5))
    try:
        assoc_laguerre_seq(3, np.array([0, -1]), x)
    except ValueError:
        pass
    else:
        raise AssertionError("a negative order must be rejected")


def test_scipy_cross_check_laguerre():
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(0, 60))
        a = int(rng.integers(0, 10))
        x = float(rng.uniform(0, 80))
        want = scipy.special.eval_genlaguerre(n, a, x)
        got = assoc_laguerre(n, a, x)
        assert abs(got - want) <= 1e-8 * max(abs(want), 1.0)


def test_scaled_laguerre_matches_unscaled_oracle():
    # e^{-x/2} L_n(x) from its own recurrence, against the unscaled one times
    # e^{-x/2} where that does not overflow; every value lies in [-1, 1]
    x = np.array([0.0, 0.37, 2.0, 11.5, 40.0, 144.0])
    got = laguerre_scaled(60, x)
    assert got.shape == (61, 6)
    want = np.exp(-0.5 * x) * assoc_laguerre_seq(60, 0, x)
    assert np.max(np.abs(got - want)) < 1e-13
    assert np.max(np.abs(got)) <= 1.0
    assert laguerre_scaled(0, 3.0).shape == (1,)
    # far out every value is 0, an infinite x included, with no overflow
    assert not np.any(laguerre_scaled(200, np.array([1e4, np.inf])))
    with pytest.raises(ValueError, match="n_max"):
        laguerre_scaled(-1, 1.0)


def test_scaled_laguerre_and_amplitudes_share_the_start_refusal():
    # both recurrences start from e^{-x/2}; from x = 1500 on it is 0, which
    # leaves levels from x/5 on wrong, and both refuse them with one message
    messages = []
    for run in (lambda top: laguerre_scaled(top, 1500.0),
                lambda top: _displacement_amplitudes(np.array([1500.0]), top)):
        with pytest.raises(ValueError, match="normal range") as err:
            run(300)
        messages.append(str(err.value))
        assert not np.any(run(299))
    assert messages[0] == messages[1]
    # through x = 1416 any level is taken
    assert np.all(np.isfinite(laguerre_scaled(2000, np.array([0.0, 1416.0]))))
    # past it the start e^{-x/2} is subnormal; a start scaled by 2^64 keeps
    # every value right up to x = 1500, past level x/5 too (these levels
    # read 0 or wrong values from the unscaled start)
    x = np.array([1417.0, 1450.0, 1490.0, 1499.9])
    got = laguerre_scaled(380, x)
    amp = _displacement_amplitudes(x, 380)
    for i, xi in enumerate(x):
        with mpmath.workdps(40):
            lag = [mpmath.mpf(1), 1 - mpmath.mpf(xi)]
            for k in range(1, 380):
                lag.append(((2 * k + 1 - xi) * lag[k] - k * lag[k - 1]) / (k + 1))
            want = np.array([float(v * mpmath.exp(-mpmath.mpf(xi) / 2)) for v in lag])
        assert np.max(np.abs(got[:, i] - want)) < 1e-15
        assert np.max(np.abs(np.diagonal(amp[:, :, i]) - want)) < 1e-14
        assert np.max(np.abs(want)) > 1e-3


def test_bessel_trivial_values():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    got = bessel_j(0, np.array([[0.0, 3.0], [20.0, 0.0]]))
    assert got.shape == (2, 2) and got[0, 0] == 1.0 and got[1, 1] == 1.0
    assert bessel_j(1, np.array([0.0, 20.0]))[0] == 0.0


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
        lo = j_series(order, np.array([8.0]), np.float64)[0]
        hi = j_series(order, np.array([8.0]), np.longdouble)[0]
        assert abs(lo - hi) < 1e-10
        lo = j_series(order, np.array([16.0]), np.longdouble)[0]
        hi = _j_asymptotic((order,), np.array([16.0]))[0][0]
        assert abs(lo - hi) < 1e-10


def test_bessel_against_mpmath():
    x = np.concatenate(
        [np.linspace(0.0, 40.0, 4001), [8.0, 16.0, np.nextafter(16.0, 0.0)]]
    )
    with mpmath.workdps(30):
        for order in (0, 1):
            want = np.array([float(mpmath.besselj(order, v)) for v in x])
            assert np.max(np.abs(bessel_j(order, x) - want)) <= 2e-14


def test_bessel_shipped_seam():
    below = np.nextafter(16.0, 0.0)
    for order in (0, 1):
        assert abs(bessel_j(order, below) - bessel_j(order, 16.0)) <= 5e-14


def test_frozen_chebyshev_coefficients_rederive():
    src = str(Path(bellbound.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "bessel_chebyshev.py"), "--check"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def _window_means(seed=16, n=4000, windows=8):
    """Per-window mean error of J0 and J1 against mpmath on [0, 16)."""
    x = np.random.default_rng(seed).uniform(0.0, 16.0, n)
    which = np.minimum((x * (windows / 16.0)).astype(int), windows - 1)
    with mpmath.workdps(30):
        want = [np.array([float(mpmath.besselj(order, v)) for v in x])
                for order in (0, 1)]

    def means():
        errors = [bessel_j(order, x) - want[order] for order in (0, 1)]
        return np.array([[e[which == w].mean() for w in range(windows)]
                         for e in errors])

    return means


def test_bessel_polynomial_band_unbiased(monkeypatch):
    # the greedy rounding leaves no window-wide bias; rounding each exact
    # coefficient on its own and pinning J0(0) == 1 through the constant
    # term shifts J0 by about -1e-15 everywhere, which this check sees
    means = _window_means()
    assert np.max(np.abs(means())) < 7e-16
    loader = importlib.util.spec_from_file_location(
        "bessel_chebyshev", REPO / "scripts" / "bessel_chebyshev.py")
    script = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(script)
    with mpmath.workdps(50):
        plain = [[float(c) for c in np.polynomial.chebyshev.cheb2poly(
                     np.array(script.chebyshev_series(order), dtype=object))]
                 for order in (0, 1)]
    monkeypatch.setattr(specfun, "_J_MONOMIAL",
                        (script.pin_j0_at_zero(plain[0]), plain[1]))
    assert np.max(np.abs(means())) > 1e-15


def test_bessel_one_band_arrays_match_mixed_bitwise():
    # an array below the seam skips the gathers and gives the same bits;
    # one above it takes the mixed path, checked here against that path too
    rng = np.random.default_rng(21)
    low = np.concatenate([[0.0, 8.0, np.nextafter(16.0, 0.0)],
                          rng.uniform(0.0, 16.0, 997)])
    high = np.concatenate([[16.0, 1e4], rng.uniform(16.0, 200.0, 998)])
    mixed = rng.permutation(np.concatenate([low, high]))
    for order in (0, 1):
        got = dict(zip(mixed, bessel_j(order, mixed)))
        for band in (low, high):
            one = bessel_j(order, band)
            assert np.array_equal(one, [got[v] for v in band])
        assert bessel_j(order, low[:1])[0] == 1.0 - order
    assert bessel_j(0, 0.0) == 1.0 and bessel_j(1, 0.0) == 0.0
    assert bessel_j(0, np.empty((0, 3))).shape == (0, 3)
    # a NaN beside a negative argument does not let it through
    with pytest.raises(ValueError):
        bessel_j(0, np.array([np.nan, -1.0]))


def test_bessel_joint_orders_match_single_calls():
    # one call for (0, 1) splits the bands once: J0 keeps its own call's
    # bits, J1 stays within 2 ulp of its own, on mixed arrays with exact 0
    # and the seam 16 itself, and on an array below the seam
    rng = np.random.default_rng(23)
    x = rng.permutation(np.concatenate([[0.0, 16.0, 0.0, 16.0, np.nextafter(16.0, 0.0)],
                                        rng.uniform(0.0, 16.0, 500),
                                        rng.uniform(16.0, 120.0, 500)])).reshape(3, -1)
    for arr in (x, x[x < 16.0]):
        j0, j1 = bessel_j((0, 1), arr)
        assert j0.shape == j1.shape == arr.shape
        assert np.array_equal(j0, bessel_j(0, arr))
        one = bessel_j(1, arr)
        assert np.all(np.abs(j1 - one) <= 2.0 * np.spacing(np.abs(one)))
    assert bessel_j((0, 1), 0.0) == (1.0, 0.0)
    assert bessel_j((1, 0), 16.0) == (bessel_j(1, 16.0), bessel_j(0, 16.0))
    for bad in ((), (0, 2), 2):
        with pytest.raises(ValueError, match="order"):
            bessel_j(bad, 1.0)
    # a NaN beside a negative argument does not let it through
    with pytest.raises(ValueError, match="x >= 0"):
        bessel_j((0, 1), np.array([np.nan, -1.0]))


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
