"""Single-particle and bi-partite bound pipelines."""

import math
from dataclasses import replace

import numpy as np
import pytest

from bellbound.fock import DensityMatrix, FockOperator, bell_pair_state, displacement_element
from bellbound.phasespace import (
    SEPARATION_STEP,
    BipartiteCase,
    SigmaCurve,
    SingleParticleCase,
    _displaced_level_weights,
    _relative_profile,
    bp_hv_bound,
    bp_qm_mean,
    coarse_parity_bound,
    sigma_curve,
    sp_hv_bound,
    sp_hv_bound_generic,
)
from bellbound.quad import IntegrationSpec, QuadratureError
from bellbound.weyl import RadialSymbol, quantize_radial, sign_step, unit_symbol

QM = 4.0 * math.exp(-0.5) - 1.0
CORE_FULL = 1.0 - 2.0 * math.exp(-0.5)
# checked against an independent nested adaptive quadrature of the kernel
FULL_CORE = 0.1158701443
CORE_CORE = 0.0515436419


def diagonal_state(weights, dim=64):
    p = np.zeros(dim, dtype=complex)
    p[: len(weights)] = weights
    return DensityMatrix(FockOperator(np.diag(p), hermitian=True))


def test_single_particle_case_defaults():
    case = SingleParticleCase()
    assert case.symbol.jumps == (0.5,)
    assert case.state.dim == 64
    assert abs(case.state.entries[1, 1] - 1.0) < 1e-12
    # the jump is registered as a quadrature split point
    assert 0.5 in case.spec.split_points
    custom = SingleParticleCase(spec=IntegrationSpec(split_points=(1.25,)))
    assert custom.spec.split_points == (0.5, 1.25)
    with pytest.raises(ValueError):
        SingleParticleCase(state=bell_pair_state(8))


def test_kernel_route_components():
    rep = sp_hv_bound(SingleParticleCase())
    comps = rep.notes["components"]
    assert abs(comps["full_full"] - 1.0) < 1e-9
    assert abs(comps["core_full"] - CORE_FULL) < 1e-9
    assert abs(comps["full_core"] - FULL_CORE) < 1e-8
    assert abs(comps["core_core"] - CORE_CORE) < 1e-8
    expected = 1.0 - 2.0 * CORE_FULL - 2.0 * FULL_CORE + 4.0 * CORE_CORE
    assert abs(rep.hv_bound - expected) < 1e-7
    assert abs(rep.qm_mean - QM) < 1e-12
    assert abs(rep.qm_second_moment - QM * QM) < 1e-12
    assert rep.notes["violation"] is True
    assert rep.bound_difference > 0.5
    assert rep.notes["error_estimate"] < 1e-6


def test_kernel_route_unit_symbol():
    rep = sp_hv_bound(SingleParticleCase(symbol=unit_symbol()))
    assert abs(rep.hv_bound - 1.0) < 1e-6
    assert abs(rep.qm_mean - 1.0) < 1e-12
    assert list(rep.notes["components"]) == ["full_full"]


def test_kernel_route_rejects():
    vac = np.zeros(32)
    vac[0] = 1.0
    with pytest.raises(ValueError, match="first excited"):
        sp_hv_bound(SingleParticleCase(state=DensityMatrix.from_state(vac)))
    bump = RadialSymbol(lambda r: np.exp(-r * r), far_value=0.0)
    with pytest.raises(ValueError, match="sign-step"):
        sp_hv_bound(SingleParticleCase(symbol=bump))


def test_generic_route_matches_kernel():
    case = SingleParticleCase()
    kernel = sp_hv_bound(case).hv_bound
    generic, info = sp_hv_bound_generic(case.state, case.symbol, n_max=24, details=True)
    assert abs(generic - kernel) < 5e-3
    # tail estimate must cover the actual truncation gap
    assert abs(generic - kernel) < info["n_tail"] + 1e-6
    better = sp_hv_bound_generic(case.state, case.symbol, n_max=32)
    assert abs(better - kernel) < 5e-5


def test_generic_route_identity_symbol():
    case = SingleParticleCase()
    assert abs(sp_hv_bound_generic(case.state, unit_symbol()) - 1.0) < 1e-9
    mixed = diagonal_state([0.2, 0.5, 0.3])
    assert abs(sp_hv_bound_generic(mixed, unit_symbol()) - 1.0) < 1e-9


def test_displaced_weights_against_matrix_elements():
    r = np.array([0.3, 0.9, 1.7])
    got = _displaced_level_weights([1], [1.0], 6, r)
    x = r * r
    for n in range(7):
        if n == 0:
            closed = x * np.exp(-x)
        else:
            closed = np.exp(-x) * x ** (n - 1) * (n - x) ** 2 / math.factorial(n)
        direct = np.array(
            [abs(displacement_element(1, n, complex(ri))) ** 2 for ri in r]
        )
        assert np.allclose(got[n], closed, atol=1e-12)
        assert np.allclose(got[n], direct, atol=1e-12)
    mixed = _displaced_level_weights([0, 2], [0.4, 0.6], 5, r)
    direct = sum(
        w * np.array([abs(displacement_element(m, n, complex(ri))) ** 2 for ri in r])
        for m, w in ((0, 0.4), (2, 0.6))
        for n in [3]
    )
    assert np.allclose(mixed[3], direct, atol=1e-12)


def test_generic_route_error_control():
    case = SingleParticleCase()
    with pytest.raises(QuadratureError, match="n_max"):
        sp_hv_bound_generic(case.state, case.symbol, n_max=8)
    with pytest.raises(ValueError, match="n_max"):
        sp_hv_bound_generic(case.state, case.symbol, n_max=40)
    tilted = np.zeros((16, 16), dtype=complex)
    tilted[1, 1] = 0.9
    tilted[0, 0] = 0.1
    tilted[0, 1] = tilted[1, 0] = 0.05
    with pytest.raises(ValueError, match="diagonal"):
        sp_hv_bound_generic(
            DensityMatrix(FockOperator(tilted, hermitian=True)), case.symbol
        )
    open_symbol = RadialSymbol(lambda r: np.sign(r - 0.5))
    with pytest.raises(ValueError, match="far value"):
        sp_hv_bound_generic(case.state, open_symbol)


def test_coarse_parity_reproduces_second_moment():
    # the even/odd lumping keeps enough coherence that the bound equals
    # tr(rho B^2): no violation from parity-coarse collapses
    case = SingleParticleCase()
    assert abs(coarse_parity_bound(case.state, unit_symbol()) - 1.0) < 1e-6
    step = coarse_parity_bound(case.state, case.symbol)
    assert abs(step - QM * QM) < 1e-6
    assert step > QM * QM - 1e-6
    lam = quantize_radial(sign_step(0.5), 64).eigenvalues
    mixed = diagonal_state([0.3, 0.2, 0.5], dim=64)
    second = float(0.3 * lam[0] ** 2 + 0.2 * lam[1] ** 2 + 0.5 * lam[2] ** 2)
    assert abs(coarse_parity_bound(mixed, sign_step(0.5)) - second) < 1e-6


def test_bipartite_case_validation():
    case = BipartiteCase()
    assert case.symbol.jumps == (SEPARATION_STEP,)
    assert case.state.modes == 2
    assert SEPARATION_STEP in case.spec.split_points
    single = np.zeros(16)
    single[1] = 1.0
    with pytest.raises(ValueError, match="two-mode"):
        BipartiteCase(state=DensityMatrix.from_state(single))
    blend = 0.5 * bell_pair_state(8).entries + 0.5 * np.diag(
        np.eye(64)[0].astype(complex)
    )
    with pytest.raises(ValueError, match="pure"):
        BipartiteCase(state=DensityMatrix(FockOperator(blend, modes=2, hermitian=True)))


def test_relative_profile():
    rel = _relative_profile(sign_step(SEPARATION_STEP))
    assert np.allclose(rel.jumps, (0.5,))
    assert rel.far_value == 1.0
    assert np.allclose(rel(np.array([0.3, 0.8])), [-1.0, 1.0])
    lam = quantize_radial(rel, 2).eigenvalues
    assert abs(lam[1] - QM) < 1e-9


def test_bp_qm_mean_quadrature():
    assert abs(bp_qm_mean(BipartiteCase()) - QM) < 1e-12
    lopsided = np.zeros(16)
    lopsided[0] = lopsided[1] = 1.0
    with pytest.raises(ValueError, match="phase symmetric"):
        bp_qm_mean(BipartiteCase(state=DensityMatrix.from_state(lopsided, modes=2)))


def test_sigma_curve_closed_modes():
    spec = IntegrationSpec(mc_samples=200_000, sigma_max=1.0)
    case = BipartiteCase(spec=spec)
    j = SEPARATION_STEP
    unit = sigma_curve(case, mode="unit_unit")
    s = unit.points
    closed = 2.0 * s * np.exp(-s * s)
    assert np.all(np.abs(unit.values - closed) < 4.0 * unit.errors + 1e-12)
    disc = sigma_curve(case, mode="disc_unit")
    c = 0.5 * (1.0 - math.exp(-j * j) * (2.0 * j * j + 1.0))
    closed = 4.0 * c * s * np.exp(-s * s)
    assert np.all(np.abs(disc.values - closed) < 4.0 * disc.errors + 1e-12)
    assert disc.values[0] == 0.0 and disc.errors[0] == 0.0
    with pytest.raises(ValueError, match="mode"):
        sigma_curve(case, mode="both_unit")


def test_sigma_curve_grid_and_determinism():
    spec = IntegrationSpec(mc_samples=100_000, sigma_max=0.5)
    case = BipartiteCase(spec=spec)
    curve = sigma_curve(case, mode="disc_unit")
    assert np.allclose(curve.points, 0.05 * np.arange(11))
    again = sigma_curve(case, mode="disc_unit")
    assert np.array_equal(curve.values, again.values)
    assert np.array_equal(curve.errors, again.errors)
    reseeded = BipartiteCase(spec=replace(spec, seed=43))
    other = sigma_curve(reseeded, mode="disc_unit")
    assert not np.array_equal(curve.values, other.values)


def test_sigma_curve_sample_policy():
    # starving the sampler must trip the 15 percent error policy, not
    # silently return a noise curve
    case = BipartiteCase(spec=IntegrationSpec(mc_samples=10_000))
    with pytest.raises(QuadratureError, match="raise mc_samples"):
        sigma_curve(case)


def test_sigma_curve_container():
    pts = 0.05 * np.arange(10)
    vals = np.exp(-pts)
    errs = np.full(10, 1e-3)
    curve = SigmaCurve(pts, vals, errs)
    assert curve.pairs[0] == (0.0, 1.0)
    with pytest.raises(ValueError):
        curve.points[0] = 1.0
    with pytest.raises(ValueError):
        SigmaCurve(pts, vals, errs[:-1])
    with pytest.raises(ValueError):
        SigmaCurve(pts + 0.05, vals, errs)
    with pytest.raises(ValueError):
        SigmaCurve(pts, vals, -errs)
    with pytest.raises(ValueError):
        SigmaCurve(pts[:4], vals[:4], errs[:4])


def test_sigma_curve_integral():
    pts = 0.1 * np.arange(21)
    vals = np.exp(-2.0 * pts)
    errs = np.full(21, 1e-4)
    value, err, tail = SigmaCurve(pts, vals, errs).integral()
    assert abs(value - np.trapezoid(vals, pts)) < 1e-15
    # exponential tail: mass beyond the grid is f_end / rate
    assert abs(tail - vals[-1] / 2.0) < 0.1 * tail
    assert err < 5e-3
    noisy = vals.copy()
    noisy[-2] = -1e-4
    _, _, tail2 = SigmaCurve(pts, noisy, errs).integral()
    assert abs(tail2 - 2.0 * np.max(np.abs(noisy[-5:]))) < 1e-12


def test_bp_unit_symbol_report():
    rep = bp_hv_bound(BipartiteCase(symbol=unit_symbol()))
    assert abs(rep.hv_bound - 1.0) < 1e-6
    assert abs(rep.qm_mean - 1.0) < 1e-9
    assert list(rep.notes["components"]) == ["unit_unit"]
    assert rep.notes["violation"] is False


def test_bp_rejects_foreign_curve_and_state():
    case = BipartiteCase()
    bad = SigmaCurve(
        0.1 * np.arange(10), np.ones(10), np.full(10, 1e-3)
    )
    with pytest.raises(ValueError, match="grid"):
        bp_hv_bound(case, curve=bad)
    vac = np.zeros(36)
    vac[0] = 1.0
    with pytest.raises(ValueError, match="pair state"):
        bp_hv_bound(BipartiteCase(state=DensityMatrix.from_state(vac, modes=2)))


def test_bp_short_grid_raises():
    # a grid that cuts the curve mid-decay produces a tail estimate the
    # error policy must reject
    pts = 0.05 * np.arange(25)
    short = SigmaCurve(pts, 0.3 * pts * np.exp(-pts * pts), np.full(25, 1e-4))
    with pytest.raises(QuadratureError, match="sigma-curve error"):
        bp_hv_bound(BipartiteCase(), curve=short)
