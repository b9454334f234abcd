"""Integration engine checks against closed forms."""

import math

import numpy as np
import pytest
import scipy.special

from bellbound.quad import (
    IntegrationSpec,
    QuadratureError,
    QuadResult,
    integrate_1d,
    integrate_radial_pair,
    mc_integrate,
)
from bellbound.specfun import bessel_j

SPEC = IntegrationSpec()


def test_spec_validation():
    with pytest.raises(ValueError):
        IntegrationSpec(r_max=-1.0)
    with pytest.raises(ValueError):
        IntegrationSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        IntegrationSpec(mc_samples=100)
    with pytest.raises(ValueError):
        QuadResult(1.0, -1e-3, 10, "adaptive")


def test_integrate_1d_closed_forms():
    got = integrate_1d(lambda u: np.exp(-u / 2), 0.0, 1.0, SPEC)
    assert abs(got.value - 2 * (1 - math.exp(-0.5))) < 1e-12
    # normalization of 2 e^{-2s} with the tail beyond the cutoff < 1e-30
    got = integrate_1d(lambda s: 2 * np.exp(-2 * s), 0.0, 36.0, SPEC)
    assert abs(got.value - 1.0) < 1e-10


def test_integrate_1d_split_additivity():
    f = lambda x: np.where(x < 0.3, 1.0, 2.0)
    spec = IntegrationSpec(split_points=(0.3,))
    whole = integrate_1d(f, 0.0, 1.0, spec).value
    left = integrate_1d(f, 0.0, 0.3, spec).value
    right = integrate_1d(f, 0.3, 1.0, spec).value
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


def test_integrate_1d_budget_raises():
    # ~3e7 oscillations near the left end cannot be resolved in the budget
    spec = IntegrationSpec(abs_tol=1e-12)
    with pytest.raises(QuadratureError):
        integrate_1d(lambda x: np.sin(1.0 / x), 1e-8, 1.0, spec)


def kernel(r1, d):
    return (4 / math.pi**2) * (1 - 4 * d * d) * np.exp(-2 * d * d) * bessel_j(0, 4 * d * r1)


def closed_inner_full(a):
    # integral of the kernel over alpha' = full plane, |alpha| < a
    return 1.0 - math.exp(-2 * a * a) * (1 + 4 * a * a)


def test_radial_pair_relative_route():
    got = integrate_radial_pair(kernel, SPEC, r1_max=None, r2_max=None)
    assert abs(got.value - 1.0) < 1e-7
    got = integrate_radial_pair(kernel, SPEC, r1_max=0.5, r2_max=None)
    assert abs(got.value - closed_inner_full(0.5)) < 1e-7
    assert abs(closed_inner_full(0.5) - (1 - 2 * math.exp(-0.5))) < 1e-15
    got = integrate_radial_pair(kernel, SPEC, r1_max=0.8, r2_max=None)
    assert abs(got.value - closed_inner_full(0.8)) < 1e-7


def test_radial_pair_direct_route_gaussian():
    # a Gaussian in |alpha| alone: the alpha' disc contributes its area
    def f(r1, d):
        return np.exp(-r1 * r1) / math.pi**2

    got = integrate_radial_pair(f, SPEC, r1_max=None, r2_max=1.0)
    assert abs(got.value - 1.0) < 1e-9
    got = integrate_radial_pair(f, SPEC, r1_max=2.0, r2_max=1.0)
    assert abs(got.value - (1 - math.exp(-4.0))) < 1e-9


def test_radial_pair_angle_dependence():
    # the angle enters through d: alpha' = alpha + delta with both
    # Gaussians of unit width makes |alpha'| Gaussian of variance 2, so the
    # disc |alpha'| < R2 carries 1 - exp(-R2^2 / 2) of the unit total
    def f(r1, d):
        return np.exp(-r1 * r1 - d * d) / math.pi**2

    got = integrate_radial_pair(f, SPEC, r1_max=None, r2_max=1.0)
    assert abs(got.value - (1 - math.exp(-0.5))) < 1e-9
    # both routes reach the unit total; the direct one misses the
    # exp(-r_max^2 / 2) mass beyond its disc
    direct = integrate_radial_pair(f, SPEC, r1_max=None, r2_max=SPEC.r_max)
    relative = integrate_radial_pair(f, SPEC, r1_max=None, r2_max=None)
    assert abs(direct.value - 1.0) < 1e-7
    assert abs(relative.value - 1.0) < 1e-8


def test_radial_pair_relative_route_jump_in_separation():
    # a step in d lands on a panel edge of the inner radial axis
    def f(r1, d):
        return np.exp(-r1 * r1 - d * d) * (d < 1.0) / math.pi**2

    spec = IntegrationSpec(split_points=(1.0,))
    got = integrate_radial_pair(f, spec)
    assert abs(got.value - (1 - math.exp(-36.0)) * (1 - math.exp(-1.0))) < 1e-12


def test_radial_pair_counts_evaluations():
    # evaluations reports the values actually computed on either route
    for r2_max in (None, 0.5):
        seen = []

        def counted(r1, d):
            seen.append(np.broadcast(r1, d).size)
            return kernel(r1, d)

        got = integrate_radial_pair(counted, SPEC, r2_max=r2_max)
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
