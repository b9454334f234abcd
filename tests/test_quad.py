"""Integration engine checks against closed forms."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.special

from bellbound.phasespace import SingleParticleCase, _excited_component
from bellbound.quad import (
    _STALL_1D,
    IntegrationSpec,
    QuadratureError,
    QuadResult,
    _gauss_legendre,
    integrate_1d,
    integrate_radial_pair,
)
from bellbound.specfun import bessel_j
from oracles import R_MAX, assoc_laguerre_seq, laguerre, mc_integrate, relative_sweep

SPEC = IntegrationSpec()


def test_gauss_legendre_rules_shared_and_read_only():
    x, w = _gauss_legendre(96)
    assert _gauss_legendre(96)[0] is x
    ref_x, ref_w = np.polynomial.legendre.leggauss(96)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    with pytest.raises(ValueError):
        x[0] = 0.0


def test_spec_validation():
    # no field cuts a radial range: each route reads it off its symbol
    assert [f.name for f in dataclasses.fields(IntegrationSpec)] == [
        "abs_tol", "mc_samples", "seed", "sigma_step", "sigma_max"]
    with pytest.raises(ValueError):
        IntegrationSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        IntegrationSpec(mc_samples=100)
    with pytest.raises(ValueError, match="seed"):
        IntegrationSpec(seed=-1)
    with pytest.raises(ValueError):
        QuadResult(1.0, -1e-3, 10)


def test_integrate_1d_closed_forms():
    got = integrate_1d(lambda u: np.exp(-u / 2), 0.0, 1.0, SPEC)
    assert abs(got.value - 2 * (1 - math.exp(-0.5))) < 1e-12
    # normalization of 2 e^{-2s} with the tail beyond the cutoff < 1e-30
    got = integrate_1d(lambda s: 2 * np.exp(-2 * s), 0.0, 36.0, SPEC)
    assert abs(got.value - 1.0) < 1e-10


def test_integrate_1d_split_additivity():
    f = lambda x: np.where(x < 0.3, 1.0, 2.0)
    whole = integrate_1d(f, 0.0, 1.0, SPEC, (0.3,)).value
    left = integrate_1d(f, 0.0, 0.3, SPEC, (0.3,)).value
    right = integrate_1d(f, 0.3, 1.0, SPEC, (0.3,)).value
    assert abs(whole - 1.7) < 1e-12
    assert abs(whole - (left + right)) < 1e-12


def test_integrate_1d_error_estimate_honest():
    # oscillatory and peaked integrands with known antiderivatives
    cases = []
    for k in range(1, 11):
        cases.append((lambda x, k=k: np.sin(k * x), (1 - math.cos(2.0 * k)) / k))
    for c in (0.5, 1.0, 1.5, 2.0, 2.5):
        cases.append(
            (
                lambda x, c=c: np.exp(-c * x * x),
                math.sqrt(math.pi / c) / 2 * scipy.special.erf(2.0 * math.sqrt(c)),
            )
        )
    for p in (2, 3, 4, 5, 6):
        cases.append((lambda x, p=p: x**p, 2.0 ** (p + 1) / (p + 1)))
    spec = IntegrationSpec(abs_tol=1e-10)
    assert len(cases) == 20
    for f, exact in cases:
        got = integrate_1d(f, 0.0, 2.0, spec)
        true_err = abs(got.value - exact)
        assert got.error_estimate <= 1e-10
        assert true_err <= max(3 * got.error_estimate, 5e-13)


@pytest.mark.parametrize("abs_tol", [1e-9, 1e-12])
@pytest.mark.parametrize("a", [0.01, 0.25, 2.25, 9.0])
def test_integrate_1d_error_covers_laguerre_closed_form(a, abs_tol):
    # int_0^a e^{-2s} L_n(4s) ds = (-1)^n [1 - e^{-2a} (2 sum_{j<n} (-1)^j
    # L_j(4a) + (-1)^n L_n(4a))] / 2, the integral behind every eigenvalue
    spec = IntegrationSpec(abs_tol=abs_tol)
    signs = (-1.0) ** np.arange(64)
    lag = signs * assoc_laguerre_seq(63, 0, 4.0 * a)
    below = np.concatenate(([0.0], np.cumsum(lag)[:-1]))
    exact = signs * (1.0 - math.exp(-2.0 * a) * (2.0 * below + lag)) / 2.0
    for n in range(64):
        got = integrate_1d(lambda s: np.exp(-2.0 * s) * laguerre(n, 4.0 * s), 0.0, a, spec)
        assert abs(got.value - exact[n]) <= got.error_estimate + 1e-14, n


def test_integrate_1d_slow_progress_is_no_stall():
    # sin(1/x) down to 1e-4 takes about 50,000 evaluations, and its summed
    # error keeps setting new lows on the way: only a stalled error stops
    lo = 1e-4
    res = integrate_1d(lambda x: np.sin(1.0 / x), lo, 1.0, IntegrationSpec(abs_tol=1e-10))
    u = 1.0 / lo
    _, ci = scipy.special.sici([1.0, u])
    exact = math.sin(1.0) - math.sin(u) / u + ci[1] - ci[0]
    assert res.evaluations > 2 * _STALL_1D
    assert abs(res.value - exact) <= res.error_estimate


def test_integrate_1d_budget_raises():
    # ~3e7 oscillations near the left end cannot be resolved in the budget
    spec = IntegrationSpec(abs_tol=1e-12)
    with pytest.raises(QuadratureError):
        integrate_1d(lambda x: np.sin(1.0 / x), 1e-8, 1.0, spec)


def kernel(r1, d):
    return (4 / math.pi**2) * (1 - 4 * d * d) * np.exp(-2 * d * d) * bessel_j(0, 4 * d * r1)


def closed_component(r1, r2):
    # the single-particle route's closed components I(r1, r2): None is the
    # full plane, and one slot must be
    assert r1 is None or r2 is None
    return _excited_component(r1, r2, SingleParticleCase())[0]


def test_radial_pair_relative_route():
    # the full alpha' plane is the test oracle's relative sweep
    value, _ = relative_sweep(kernel, SPEC)
    assert abs(value - 1.0) < 1e-7
    value, _ = relative_sweep(kernel, SPEC, r1_max=0.5)
    assert abs(value - closed_component(0.5, None)) < 1e-7
    assert abs(closed_component(0.5, None) - (1 - 2 * math.exp(-0.5))) < 1e-15
    value, _ = relative_sweep(kernel, SPEC, r1_max=0.8)
    assert abs(value - closed_component(0.8, None)) < 1e-7


@pytest.mark.parametrize("r0", [0.1, 0.2, 0.3, 0.45, 0.5, 0.55, 0.8, 1.2])
def test_radial_pair_error_covers_closed_forms(r0):
    # a panel as short as [0, 0.1] must gain nodes between levels, or the
    # level difference cannot see its error; the full alpha' plane is the
    # test oracle's relative sweep, on the same levels
    for r1_max, closed in ((None, 1.0), (r0, closed_component(r0, None))):
        value, gap = relative_sweep(kernel, SPEC, r1_max, splits=(r0,))
        assert abs(value - closed) <= gap + 1e-14, r1_max
    got = integrate_radial_pair(kernel, SPEC, R_MAX, r0, splits=(r0,))
    assert abs(got.value - closed_component(None, r0)) <= got.error_estimate + 1e-14


def test_radial_pair_direct_route_gaussian():
    # a Gaussian in |alpha| alone: the alpha' disc contributes its area
    def f(r1, d):
        return np.exp(-r1 * r1) / math.pi**2

    got = integrate_radial_pair(f, SPEC, r1_max=R_MAX, r2_max=1.0)
    assert abs(got.value - 1.0) < 1e-9
    got = integrate_radial_pair(f, SPEC, r1_max=2.0, r2_max=1.0)
    assert abs(got.value - (1 - math.exp(-4.0))) < 1e-9


def test_radial_pair_angle_dependence():
    # the angle enters through d: alpha' = alpha + delta with both
    # Gaussians of unit width makes |alpha'| Gaussian of variance 2, so the
    # disc |alpha'| < R2 carries 1 - exp(-R2^2 / 2) of the unit total
    def f(r1, d):
        return np.exp(-r1 * r1 - d * d) / math.pi**2

    got = integrate_radial_pair(f, SPEC, r1_max=R_MAX, r2_max=1.0)
    assert abs(got.value - (1 - math.exp(-0.5))) < 1e-9
    # the engine and the test oracle's relative sweep both reach the unit
    # total; the engine misses the exp(-R_MAX^2 / 2) mass beyond its disc
    direct = integrate_radial_pair(f, SPEC, r1_max=R_MAX, r2_max=R_MAX)
    relative, _ = relative_sweep(f, SPEC)
    assert abs(direct.value - 1.0) < 1e-7
    assert abs(relative - 1.0) < 1e-8


def test_radial_pair_relative_route_jump_in_separation():
    # a step in d lands on a panel edge of the test oracle's inner radial axis
    def f(r1, d):
        return np.exp(-r1 * r1 - d * d) * (d < 1.0) / math.pi**2

    value, _ = relative_sweep(f, SPEC, splits=(1.0,))
    assert abs(value - (1 - math.exp(-36.0)) * (1 - math.exp(-1.0))) < 1e-12


def test_radial_pair_counts_evaluations():
    # evaluations reports the values actually computed
    for r2_max in (R_MAX, 0.5):
        seen = []

        def counted(r1, d):
            seen.append(np.broadcast(r1, d).size)
            return kernel(r1, d)

        got = integrate_radial_pair(counted, SPEC, R_MAX, r2_max)
        assert got.evaluations == sum(seen)


def test_integrate_1d_rejects_scalar_integrand():
    with pytest.raises(ValueError, match="shape"):
        integrate_1d(lambda x: 1.0, 0.0, 1.0, SPEC)


def test_mc_constant():
    got = mc_integrate(lambda p: np.full(p.shape[0], 2.5), 2, [(0, 1), (0, 1)], IntegrationSpec(mc_samples=10_000))
    assert got.value == 2.5
    assert got.error_estimate == 0.0


def disk_indicator(pts):
    return 4.0 * (pts[:, 0] ** 2 + pts[:, 1] ** 2 < 1.0)


def test_mc_disk_area():
    spec = IntegrationSpec(mc_samples=1_000_000, seed=42)
    got = mc_integrate(disk_indicator, 2, [(0, 1), (0, 1)], spec)
    assert abs(got.value - math.pi) < 3 * got.error_estimate
    assert got.error_estimate < 3e-3


def test_mc_deterministic():
    spec = IntegrationSpec(mc_samples=200_000, seed=7)
    a = mc_integrate(disk_indicator, 2, [(0, 1), (0, 1)], spec, strata=4)
    b = mc_integrate(disk_indicator, 2, [(0, 1), (0, 1)], spec, strata=4)
    assert a.value == b.value
    assert a.error_estimate == b.error_estimate
    c = mc_integrate(disk_indicator, 2, [(0, 1), (0, 1)], spec, strata=4, stream_key=(3,))
    assert c.value != a.value


def test_mc_error_scaling():
    # doubling the sample count should shrink the error by about sqrt(2)
    errs = {n: [] for n in (100_000, 200_000)}
    for n in errs:
        for seed in range(10, 20):
            spec = IntegrationSpec(mc_samples=n, seed=seed)
            got = mc_integrate(disk_indicator, 2, [(0, 1), (0, 1)], spec)
            errs[n].append(got.value - math.pi)
    rms = {n: math.sqrt(np.mean(np.square(v))) for n, v in errs.items()}
    ratio = rms[100_000] / rms[200_000]
    assert math.sqrt(2) * 0.7 <= ratio <= math.sqrt(2) * 1.3


def test_mc_stratified_consistent():
    spec = IntegrationSpec(mc_samples=400_000, seed=11)
    plain = mc_integrate(disk_indicator, 2, [(0, 1), (0, 1)], spec)
    strat = mc_integrate(disk_indicator, 2, [(0, 1), (0, 1)], spec, strata=8)
    assert abs(plain.value - strat.value) < 3 * (plain.error_estimate + strat.error_estimate)
    assert strat.error_estimate <= plain.error_estimate * 1.1
