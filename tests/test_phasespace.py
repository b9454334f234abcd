"""Single-particle and bi-partite bound pipelines."""

import math
from dataclasses import fields, replace

import mpmath
import numpy as np
import pytest

from bellbound import fock, phasespace
from bellbound.fock import DensityMatrix, FockOperator, bell_pair_state
from bellbound.phasespace import (
    _COLLAPSE_LEVELS,
    _SIGMA_G_MAX,
    _SIGMA_LEVELS,
    SEPARATION_STEP,
    BipartiteCase,
    SigmaCurve,
    SingleParticleCase,
    _arc_table,
    _collapsed_arc,
    _collapsed_cells,
    _diagonal_weights,
    _displaced_level_weights,
    _displaced_parity,
    _excited_component,
    _excited_kernel,
    _full_disc_mean,
    _kernel_moments_inner,
    _level_transitions,
    _pair_arc_table,
    _parity_tail,
    _reduced_pair_integral,
    _relative_profile,
    _sigma_level,
    bp_hv_bound,
    bp_qm_mean,
    coarse_parity_bound,
    sigma_curve,
    sign_disc,
    sp_hv_bound,
    sp_hv_bound_generic,
)
from bellbound.quad import (IntegrationSpec, QuadratureError, _gl_segmented,
                            integrate_radial_pair)
from bellbound.specfun import bessel_j, laguerre_scaled
from bellbound.weyl import (RadialSymbol, piecewise_symbol, quantize_radial, sign_step,
                            unit_symbol)
from oracles import (arc_fraction, coarse_parity_integrand, displacement_element,
                     kernel_moments_inner, pair_qm_quadrature, radial_eigenvalues,
                     relative_sweep, sigma_level_full_square, sigma_point)

QM = 4.0 * math.exp(-0.5) - 1.0
CORE_FULL = 1.0 - 2.0 * math.exp(-0.5)
# checked against an independent nested adaptive quadrature of the kernel
FULL_CORE = 0.1158701443
CORE_CORE = 0.0515436419


# -1 inside 0.3, 1/2 up to 0.8, 1 beyond
TWO_STEP = RadialSymbol(
    lambda r: np.select([r < 0.3, r < 0.8], [-1.0, 0.5], 1.0), "two steps",
    (0.3, 0.8), 1.0, 0.8,
)
# a separation profile: -1 inside 0.4, 1/2 up to 0.9, 1 beyond
PAIR_TWO_STEP = piecewise_symbol((0.4, 0.9), (-1.0, 0.5, 1.0), "two steps")
# structure a symbol leaves undeclared: -1 on a ring behind the unit
# profile's far value, and a dip to -1 on (1.5, 1.75) past a declared step
RING = RadialSymbol(lambda r: np.where((1.0 < r) & (r < 1.5), -1.0, 1.0), "ring",
                    (), 1.0, 0.0)


def dipped_step(r0):
    return RadialSymbol(
        lambda r: np.where((r < r0) | ((1.5 < r) & (r < 1.75)), -1.0, 1.0),
        "dipped step", (r0,), 1.0, r0,
    )


def diagonal_state(weights, dim=64):
    p = np.zeros(dim, dtype=complex)
    p[: len(weights)] = weights
    return DensityMatrix(FockOperator(np.diag(p), hermitian=True))


def test_single_particle_case_defaults():
    case = SingleParticleCase()
    assert case.symbol.jumps == (0.5,)
    assert case.state.dim == 64
    assert abs(case.state.entries[1, 1] - 1.0) < 1e-12
    # the case keeps the spec it is given: panel edges come from the symbol
    spec = IntegrationSpec(r_max=7.0)
    assert SingleParticleCase(spec=spec).spec is spec
    with pytest.raises(ValueError):
        SingleParticleCase(state=bell_pair_state(8))


def test_truncating_r_max_is_refused():
    # the sigma curve's separation rule and the generic route's disc cut end
    # at r_max and count no mass beyond it; the case classes keep the floor
    # for every route they feed
    short = IntegrationSpec(r_max=4.5)
    state = SingleParticleCase().state
    for build in (
        lambda: SingleParticleCase(spec=short),
        lambda: BipartiteCase(spec=short),
        lambda: sp_hv_bound_generic(state, sign_step(0.5), spec=short),
    ):
        with pytest.raises(ValueError, match="r_max"):
            build()
    assert SingleParticleCase(spec=IntegrationSpec(r_max=5.0)).spec.r_max == 5.0
    # the coarse parity bound counts its own tail past r_max: 4.5 is exact to
    # rounding, while at 3.0 the tail passes abs_tol and is refused by name
    assert abs(coarse_parity_bound(state, sign_step(0.5), spec=short) - QM * QM) < 1e-12
    with pytest.raises(QuadratureError, match="r_max") as info:
        coarse_parity_bound(state, sign_step(0.5), spec=IntegrationSpec(r_max=3.0))
    assert info.value.knob == "r_max"
    # a symbol without a far value has no tail to count and keeps the floor
    with pytest.raises(ValueError, match="r_max"):
        coarse_parity_bound(state, RadialSymbol(lambda r: np.exp(-r * r)), spec=short)


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


# sp_hv_bound (core_full, full_core, core_core, total) per sign-step radius
# and the default bp_hv_bound total, recorded from the Clenshaw-band Bessel
# scheme; a faster kernel evaluation may move them by rounding only
SP_PINS = {
    0.45: (-0.20722802765383874, 0.09644571777224066, 0.04514457871561662,
           1.4021429346256626),
    0.5: (-0.21306131942526685, 0.1158701442507462, 0.051543641935492754,
          1.4005569180910125),
    0.55: (-0.20682448287375776, 0.13610307945866335, 0.05651407376724349,
           1.367499101899163),
}
BP_PIN = 1.2711649288075457


@pytest.mark.parametrize("r0", sorted(SP_PINS))
def test_kernel_route_values_pinned(r0):
    rep = sp_hv_bound(SingleParticleCase(symbol=sign_step(r0)))
    comps = rep.notes["components"]
    got = (comps["core_full"], comps["full_core"], comps["core_core"], rep.hv_bound)
    assert comps["full_full"] == 1.0
    assert np.max(np.abs(np.subtract(got, SP_PINS[r0]))) <= 1e-14


def test_bp_default_total_pinned():
    assert abs(bp_hv_bound(BipartiteCase()).hv_bound - BP_PIN) <= 1e-12


def test_kernel_route_unit_symbol():
    rep = sp_hv_bound(SingleParticleCase(symbol=unit_symbol()))
    assert abs(rep.hv_bound - 1.0) < 1e-6
    assert abs(rep.qm_mean - 1.0) < 1e-12
    assert list(rep.notes["components"]) == ["full_full"]


def component_radii(symbol):
    # the region names of sp_hv_bound's bilinear form and their disc radii
    names = ["full"] + [f"core{k}" if k > 1 else "core"
                        for k in range(1, len(symbol.jumps) + 1)]
    return dict(zip(names, (None, *symbol.jumps)))


@pytest.mark.parametrize(
    "symbol",
    [sign_step(r0) for r0 in (0.1, 0.3, 0.45, 0.5, 0.55, 0.8, 1.2, 2.0)]
    + [piecewise_symbol((0.3, 0.8), (-1.0, 0.5, 1.0), "two steps")],
    ids=["0.1", "0.3", "0.45", "0.5", "0.55", "0.8", "1.2", "2.0", "two-step"],
)
def test_kernel_route_closed_components_match_quadrature(symbol):
    # every component with a full-plane slot is closed; the radial pair
    # engine on the same kernel is the independent route, and the test
    # oracle's relative sweep where the symbol side is the full plane
    case = SingleParticleCase(symbol=symbol)
    rep = sp_hv_bound(case)
    comps, errs = rep.notes["components"], rep.notes["component_errors"]
    radii = component_radii(symbol)
    closed = [(a, b) for a in radii for b in radii if "full" in (a, b)]
    assert len(closed) == 2 * len(radii) - 1
    for a, b in closed:
        if radii[b] is None:
            value, error = relative_sweep(_excited_kernel, case.spec, radii[a],
                                          splits=symbol.jumps)
        else:
            got = integrate_radial_pair(_excited_kernel, case.spec, case.spec.r_max, radii[b],
                                        splits=symbol.jumps)
            value, error = got.value, got.error_estimate
        name = f"{a}_{b}"
        assert abs(comps[name] - value) <= errs[name] + error + 1e-14
    assert comps["full_full"] == 1.0 and errs["full_full"] == 0.0


@pytest.mark.parametrize("R", [0.05, 0.1, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
def test_full_disc_mean_error_covers_finer_mean(R):
    value, error = _excited_component(None, R, SingleParticleCase())
    assert value == _full_disc_mean(R, 64)
    assert abs(value - _full_disc_mean(R, 256)) <= error


def test_kernel_route_quadratures_only_disc_pairs(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return integrate_radial_pair(*args, **kwargs)

    monkeypatch.setattr(phasespace, "integrate_radial_pair", counted)
    two = piecewise_symbol((0.3, 0.8), (-1.0, 0.5, 1.0), "two steps")
    for symbol, count in ((sign_step(0.5), 1), (unit_symbol(), 0), (two, 4)):
        calls.clear()
        sp_hv_bound(SingleParticleCase(symbol=symbol))
        assert len(calls) == count
        assert all(None not in kw.values() for kw in calls)


def test_kernel_route_rejects():
    vac = np.zeros(32)
    vac[0] = 1.0
    with pytest.raises(ValueError, match="first excited"):
        sp_hv_bound(SingleParticleCase(state=DensityMatrix.from_state(vac)))
    bump = RadialSymbol(lambda r: np.exp(-r * r), far_value=0.0)
    with pytest.raises(ValueError, match="sign-step"):
        sp_hv_bound(SingleParticleCase(symbol=bump))


def test_undeclared_symbols_are_refused():
    # at a few probe radii these look like the unit profile and sign_step(0.5);
    # with no levels declared every closed route must refuse, not guess
    for symbol in (RING, dipped_step(0.5)):
        with pytest.raises(ValueError, match="levels"):
            sp_hv_bound(SingleParticleCase(symbol=symbol))
    for symbol in (RING, dipped_step(SEPARATION_STEP)):
        case = BipartiteCase(symbol=symbol)
        with pytest.raises(ValueError, match="levels"):
            bp_hv_bound(case)
        with pytest.raises(ValueError, match="levels"):
            sigma_curve(case)


def test_refusal_hints_fit_their_route():
    # only the single-particle refusal points at the generic route
    with pytest.raises(ValueError, match="sp_hv_bound_generic"):
        sp_hv_bound(SingleParticleCase(symbol=RING))
    # and the hint names what that route needs: a symbol without a declared
    # far value is refused by both, each saying so
    bare = RadialSymbol(lambda r: np.sign(r - 0.5))
    with pytest.raises(ValueError, match="declared far value"):
        sp_hv_bound(SingleParticleCase(symbol=bare))
    with pytest.raises(ValueError, match="declared far value"):
        sp_hv_bound_generic(SingleParticleCase().state, bare)
    with pytest.raises(ValueError, match="levels") as info:
        bp_hv_bound(BipartiteCase(symbol=RING))
    assert "sp_hv_bound_generic" not in str(info.value)


def assert_two_step_form(rep):
    # the report of levels (-1, 0.5, 1) is its bilinear form: c_inf = 1 on the
    # plane, then the drops 0.5 - (-1) and 1 - 0.5 at the jumps
    c = {"full": 1.0, "core": -1.5, "core2": -0.5}
    comps, errs = rep.notes["components"], rep.notes["component_errors"]
    assert len(comps) == 9
    pairs = [(a, b) for b in c for a in c]
    total = sum(c[a] * c[b] * comps[f"{a}_{b}"] for a, b in pairs)
    err = sum(abs(c[a] * c[b]) * errs[f"{a}_{b}"] for a, b in pairs)
    assert rep.hv_bound == pytest.approx(total, rel=1e-14, abs=0.0)
    assert rep.notes["error_estimate"] == pytest.approx(err, rel=1e-14, abs=0.0)


def test_kernel_route_takes_declared_steps():
    two = piecewise_symbol((0.3, 0.8), (-1.0, 0.5, 1.0), "two steps")
    state = diagonal_state([0.0, 1.0], dim=128)
    rep = sp_hv_bound(SingleParticleCase(symbol=two, state=state))
    assert_two_step_form(rep)
    generic, info = sp_hv_bound_generic(state, two, n_max=48, details=True)
    budget = info["n_tail"] + info["quad_error"] + rep.notes["error_estimate"]
    assert abs(rep.hv_bound - generic) < budget
    # the generic route takes the declared far share in closed form and the
    # function-only one by quadrature: they agree within both errors and the
    # closed form's rounding bound
    undeclared, other = sp_hv_bound_generic(state, TWO_STEP, n_max=48, details=True)
    bound = quantize_radial(two, 2).error_estimates[1]
    assert abs(undeclared - generic) <= info["quad_error"] + other["quad_error"] + bound
    # the bi-partite route takes the same declared steps
    assert len(bp_hv_bound(BipartiteCase(symbol=two)).notes["components"]) == 9


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


def test_displaced_weights_read_one_amplitude_sweep(monkeypatch):
    # the weights square fock's bounded amplitude table: one table, up to the
    # highest level and the lowest level of any pair, and no sweep of their own
    tables = []

    def counted(x, top, n_max):
        tables.append((top, n_max))
        return fock._displacement_amplitudes(x, top, n_max)

    def refused(*args):
        raise AssertionError("level weights must not run a sweep of their own")

    monkeypatch.setattr(phasespace, "_displacement_amplitudes", counted)
    monkeypatch.setattr(phasespace, "laguerre_scaled", refused)
    _displaced_level_weights([0, 2], [0.4, 0.6], 30, np.linspace(0.0, 6.0, 161))
    assert tables == [(30, 2)]


def outer_nodes(symbol):
    # the fine outer level of sp_hv_bound_generic at n_max 24
    r_hi = min(6.0, symbol.far_radius + 3.4)
    return _gl_segmented(0.0, r_hi, 192, (*symbol.jumps, symbol.far_radius))[0]


@pytest.mark.parametrize(
    "symbol",
    [sign_step(0.45), sign_step(0.5), sign_step(0.55), sign_step(1.2), TWO_STEP],
    ids=["0.45", "0.5", "0.55", "1.2", "two-step"],
)
def test_kernel_moments_match_angular_sweep(symbol):
    nodes = outer_nodes(symbol)
    got = _kernel_moments_inner(symbol, 24, nodes, 48)[0]
    want = kernel_moments_inner(symbol, 24, nodes, 48, 96)
    assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "symbol", [sign_step(0.5), sign_step(0.55), sign_step(1.2), TWO_STEP],
    ids=["0.5", "0.55", "1.2", "two-step"],
)
def test_kernel_moments_tail_bound_covers_more_levels(symbol, monkeypatch):
    # the same identity with 40 more levels moves K_n by less than the bound
    tried = []

    def recorded(x, m, n):
        tried.append(m.size - 1)
        return _level_transitions(x, m, n)

    monkeypatch.setattr(phasespace, "_level_transitions", recorded)
    nodes = outer_nodes(symbol)
    got, tail, _ = _kernel_moments_inner(symbol, 24, nodes, 48)
    m_max = tried[-1] + 40
    rho, w = _gl_segmented(0.0, symbol.far_radius, 48, symbol.jumps)
    weighted = 2.0 * math.pi * w * rho * (symbol(rho) - symbol.far_value)
    m, n = np.arange(m_max + 1), np.arange(25)
    p = _level_transitions(rho * rho, m[:, None], n)
    lag = laguerre_scaled(m_max, 4.0 * nodes**2)
    more = ((-1.0) ** np.add.outer(m, n) * (p @ weighted)).T @ lag
    assert np.all(np.abs(got - more).max(axis=1) <= tail)


def test_generic_route_matches_angular_sweep_route(monkeypatch):
    # the whole bound with the sweep's moments at both levels (n_theta twice
    # n_rho, as that route ran them) agrees to rounding
    state = SingleParticleCase().state
    fast = {(r0, n_max): sp_hv_bound_generic(state, sign_step(r0), n_max=n_max)
            for r0 in (0.45, 0.5, 0.55) for n_max in (24, 32)}

    def swept(symbol, n_max, r, n_rho):
        _, tail, weight = _kernel_moments_inner(symbol, n_max, r, n_rho)
        return kernel_moments_inner(symbol, n_max, r, n_rho, 2 * n_rho), tail, weight

    monkeypatch.setattr(phasespace, "_kernel_moments_inner", swept)
    for (r0, n_max), value in fast.items():
        assert abs(sp_hv_bound_generic(state, sign_step(r0), n_max=n_max) - value) < 1e-13


def test_generic_route_error_carries_m_tail(monkeypatch):
    # a tail of delta on every K_n reaches quad_error through the outer sum,
    # (8/pi) int |r B| sum_n c_n dr with sum_n c_n <= 1 on [0, R0 + 3.4]
    state, symbol, delta = SingleParticleCase().state, sign_step(0.5), 1e-6
    base = sp_hv_bound_generic(state, symbol, details=True)[1]["quad_error"]

    def padded(*args):
        k, tail, weight = _kernel_moments_inner(*args)
        return k, tail + delta, weight

    monkeypatch.setattr(phasespace, "_kernel_moments_inner", padded)
    grown = sp_hv_bound_generic(state, symbol, details=True)[1]["quad_error"] - base
    most = delta * (8.0 / math.pi) * 3.9**2 / 2.0
    assert 0.5 * most < grown <= most * (1.0 + 1e-9)


def test_wide_disc_names_n_max():
    # the level table stays in [0, 1] at any far radius, so a disc too wide
    # for 24 collapse levels ends in the n-tail check, which names n_max
    state = SingleParticleCase().state
    for R in (3.0, 5.0, 8.0, 12.0):
        with pytest.raises(QuadratureError, match="n_max"):
            sp_hv_bound_generic(state, sign_step(R))


def test_kernel_moments_build_one_table_per_level_count(monkeypatch):
    counts = {"table": 0, "sweep": 0}

    def counter(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(phasespace, "_displacement_amplitudes",
                        counter("table", phasespace._displacement_amplitudes))
    monkeypatch.setattr(phasespace, "laguerre_scaled",
                        counter("sweep", laguerre_scaled))
    # 0.5 stops at the first level count n_max + 16, 1.2 at the second
    for r0, tables in ((0.5, 1), (1.2, 2)):
        counts.update(table=0, sweep=0)
        _kernel_moments_inner(sign_step(r0), 24, np.linspace(0.0, 4.0, 50), 48)
        assert counts == {"table": tables, "sweep": 1}


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
    assert abs(coarse_parity_bound(case.state, unit_symbol()) - 1.0) < 1e-12
    step = coarse_parity_bound(case.state, case.symbol)
    assert abs(step - QM * QM) < 1e-12
    assert step > QM * QM - 1e-12
    lam = quantize_radial(sign_step(0.5), 64).eigenvalues
    mixed = diagonal_state([0.3, 0.2, 0.5], dim=64)
    second = float(0.3 * lam[0] ** 2 + 0.2 * lam[1] ** 2 + 0.5 * lam[2] ** 2)
    assert abs(coarse_parity_bound(mixed, sign_step(0.5)) - second) < 1e-12


@pytest.mark.parametrize("symbol", [unit_symbol(), sign_step(0.5)],
                         ids=["unit", "sign_step"])
def test_coarse_parity_matches_second_moment_past_low_levels(symbol):
    # the dense route cut its integral where the displaced state leaked
    # past the truncation: |12> gave -0.0498 for the sign step, not 0.99356
    lam = radial_eigenvalues(symbol, 64)
    for n in range(13):
        got = coarse_parity_bound(diagonal_state([0.0] * n + [1.0]), symbol)
        assert abs(got - lam[n] ** 2) < 1e-12, n
    weights = 0.7 ** np.arange(13)
    weights /= weights.sum()
    got = coarse_parity_bound(diagonal_state(weights), symbol)
    assert abs(got - float(weights @ lam[:13] ** 2)) < 1e-12


def test_coarse_parity_high_level_stays_finite():
    # the displaced parity of |300> reads e^{-x/2} L_300(x) out to r_max 30,
    # where the unscaled L_300 overflowed (the bound ended in "stopped at
    # error nan"); the bound is lam_300^2, 0.99034427243970667 to 17 digits
    rho = diagonal_state([0.0] * 300 + [1.0], dim=700)
    got = coarse_parity_bound(rho, sign_step(0.5), IntegrationSpec(r_max=30.0))
    assert abs(got - 0.99034427243970667) < 1e-13


def test_coarse_parity_integrand_matches_dense_oracle():
    # tr_even(rho~ B~) - tr_odd(rho~ B~) = tr(Pi {rho~, B~}) / 2 is the
    # displaced parity of the weights p_n lam_n, while the dim-64 truncation
    # holds the displaced state (about 1e-15 to r = 3.2, 6e-12 at r = 4)
    symbol = sign_step(0.5)
    lam = quantize_radial(symbol, 64).eigenvalues
    r = np.linspace(0.0, 3.0, 61)
    for state in (SingleParticleCase().state, diagonal_state([0.3, 0.2, 0.5])):
        levels, probs = _diagonal_weights(state)
        fast = 4.0 * r * symbol(r) * _displaced_parity(levels, probs * lam[levels], r)
        dense = coarse_parity_integrand(state, symbol, lam, r)
        assert np.max(np.abs(dense - fast)) < 1e-12


def test_coarse_parity_tail_names_r_max():
    # |L_n(x)| <= L_n(-x) bounds the integral past r_max; for |20> it is
    # 5.1e-6 at r_max 6 and 6.3e-15 at 7
    assert abs(_parity_tail(1, 6.0) / 7.9088736552e-30 - 1.0) < 1e-9
    for n, r_max in ((3, 2.0), (20, 6.0)):
        x = mpmath.mpf(4 * r_max * r_max)
        want = mpmath.quad(lambda t: mpmath.exp(-t / 2) * mpmath.laguerre(n, 0, -t) / 2,
                           [x, mpmath.inf])
        assert abs(_parity_tail(n, r_max) / float(want) - 1.0) < 1e-12
    state = diagonal_state([0.0] * 20 + [1.0])
    with pytest.raises(QuadratureError, match="r_max") as err:
        coarse_parity_bound(state, unit_symbol())
    assert err.value.knob == "r_max"
    got = coarse_parity_bound(state, unit_symbol(), IntegrationSpec(r_max=7.0))
    assert abs(got - 1.0) < 1e-12


def test_bipartite_case_validation():
    case = BipartiteCase()
    assert case.symbol.jumps == (SEPARATION_STEP,)
    spec = IntegrationSpec(r_max=7.0)
    assert BipartiteCase(spec=spec).spec is spec
    # the pair state is fixed: the case holds a profile and a spec only
    assert [f.name for f in fields(BipartiteCase)] == ["symbol", "spec"]
    with pytest.raises(TypeError):
        BipartiteCase(state=bell_pair_state(8))
    with pytest.raises(ValueError, match="r_max"):
        BipartiteCase(spec=IntegrationSpec(r_max=4.0))


def test_pair_routes_build_no_fock_state(monkeypatch):
    # every pair route is a closed reduction for the antisymmetric pair
    # state: none of them builds a Fock matrix
    def refuse(self):
        raise AssertionError("a pair route built a Fock operator")

    monkeypatch.setattr(FockOperator, "__post_init__", refuse)
    case = BipartiteCase(spec=PINNED_SPEC)
    assert bp_hv_bound(BipartiteCase()).qm_mean == bp_qm_mean(case)
    assert sigma_curve(case).points.size == 6


def test_relative_profile():
    rel = _relative_profile(sign_step(SEPARATION_STEP))
    assert np.allclose(rel.jumps, (0.5,)) and rel.levels == (-1.0, 1.0)
    assert rel.far_value == 1.0
    assert np.allclose(rel(np.array([0.3, 0.8])), [-1.0, 1.0])
    lam = quantize_radial(rel, 2).eigenvalues
    assert abs(lam[1] - QM) < 1e-9


def test_bp_qm_mean_quadrature():
    # the relative-mode eigenvalue against the test oracle's phase-space
    # quadrature of W(s, t) B(t)
    case = BipartiteCase()
    assert bp_qm_mean(case) == bp_hv_bound(case).qm_mean
    assert abs(bp_qm_mean(case) - QM) < 1e-12
    assert abs(bp_qm_mean(case) - pair_qm_quadrature(bell_pair_state(8), case)[0]) < 1e-12
    lopsided = np.zeros(16)
    lopsided[0] = lopsided[1] = 1.0
    with pytest.raises(ValueError, match="phase symmetric"):
        pair_qm_quadrature(DensityMatrix.from_state(lopsided, modes=2), case)
    bump = RadialSymbol(lambda r: np.exp(-r * r), far_value=0.0)
    with pytest.raises(ValueError, match="declared levels"):
        bp_qm_mean(BipartiteCase(symbol=bump))


def closed_curve(case, profile):
    """The curve route with A = 1, both levels as sigma_curve takes them:
    (points, fine level, the largest level gap at every s > 0)."""
    spec = case.spec
    pts = spec.sigma_step * np.arange(round(spec.sigma_max / spec.sigma_step) + 1)
    coarse, fine = (sigma_level_full_square(spec, pts, level, profile, None)
                    for level in _SIGMA_LEVELS)
    return pts, fine, np.where(pts > 0.0, np.max(np.abs(fine - coarse)), 0.0)


disc_profile = piecewise_symbol((SEPARATION_STEP,), (1.0, 0.0), "inner disc")


def test_sigma_curve_closed_modes():
    # with A = 1 the curve is closed: 2 s exp(-s^2) for B = 1, and
    # 4 C s exp(-s^2) for B = 1{d < j}, C the inner-disc moment
    case = BipartiteCase(spec=IntegrationSpec(sigma_max=1.0))
    j = SEPARATION_STEP
    s, values, errors = closed_curve(case, unit_symbol())
    closed = 2.0 * s * np.exp(-s * s)
    assert np.all(np.abs(values - closed) < 4.0 * errors + 1e-12)
    s, values, errors = closed_curve(case, disc_profile)
    c = 0.5 * (1.0 - math.exp(-j * j) * (2.0 * j * j + 1.0))
    closed = 4.0 * c * s * np.exp(-s * s)
    assert np.all(np.abs(values - closed) < 4.0 * errors + 1e-12)
    assert values[0] == 0.0 and errors[0] == 0.0


def test_sigma_curve_grid_and_determinism():
    case = BipartiteCase(spec=IntegrationSpec(sigma_max=0.5))
    curve = sigma_curve(case)
    assert np.allclose(curve.points, 0.05 * np.arange(11))
    fields = ("points", "values", "errors")
    again = sigma_curve(case)
    assert all(np.array_equal(getattr(curve, f), getattr(again, f)) for f in fields)
    # no random numbers: the seed the Monte Carlo oracle reads changes nothing
    other = sigma_curve(BipartiteCase(spec=replace(case.spec, seed=43)))
    assert all(np.array_equal(getattr(curve, f), getattr(other, f)) for f in fields)


# the default sign-step curve on the benchmark's grid and on the default grid
# to s = 1: a change that moves values by rounding only keeps every value and
# error within 1e-14 of these
PINNED_CURVES = {
    (0.3, 1.5): ([0.0, 0.05501870575578106, 0.08241858131013215, 0.0751048157865318,
                  0.04743440438011238, 0.01942015559728376], 1.7027930495877586e-05),
    (0.05, 1.0): ([0.0, 0.010056629287688574, 0.01995520686754955, 0.02954152402480436,
                   0.03866893249992655, 0.04720181604511456, 0.055018705755781064,
                   0.06201494331555187, 0.0681048144433272, 0.07322309579237576,
                   0.07732598132245055, 0.08039137768034196, 0.08241858131013215,
                   0.0834273718511659, 0.08345657595269017, 0.08256217217068104,
                   0.08081502052814077, 0.07829830923278512, 0.07510481578653178,
                   0.0713340803304496, 0.06708958578259705], 1.708487881381393e-05),
}


PINNED_SPEC = IntegrationSpec(sigma_step=0.3, sigma_max=1.5)


@pytest.mark.parametrize("grid", PINNED_CURVES)
def test_sigma_curve_pinned(grid):
    values, error = PINNED_CURVES[grid]
    case = BipartiteCase(spec=IntegrationSpec(sigma_step=grid[0], sigma_max=grid[1]))
    curve = sigma_curve(case)
    assert np.allclose(curve.points, grid[0] * np.arange(len(values)), rtol=0.0, atol=1e-15)
    assert np.max(np.abs(curve.values - values)) <= 1e-14
    errors = np.where(curve.points > 0.0, error, 0.0)
    assert np.max(np.abs(curve.errors - errors)) <= 1e-14
    again = sigma_curve(case)
    assert np.array_equal(curve.values, again.values)
    assert np.array_equal(curve.errors, again.errors)


def test_sigma_curve_takes_one_bessel_call_per_point_and_level(monkeypatch):
    # J0 and J1 of each point's arguments share one band split
    calls = []

    def counted(order, x):
        calls.append(order)
        return bessel_j(order, x)

    monkeypatch.setattr(phasespace, "bessel_j", counted)
    curve = sigma_curve(BipartiteCase(spec=IntegrationSpec(sigma_step=0.3, sigma_max=1.5)))
    assert calls == [(0, 1)] * (len(_SIGMA_LEVELS) * np.count_nonzero(curve.points))


def test_sigma_curve_refuses_non_finite_points():
    # past float64 range the route's squares overflow: the point fails by
    # name, with no floating-point warning on the way
    spec = IntegrationSpec(sigma_step=1e299, sigma_max=1e300)
    with pytest.raises(QuadratureError, match="not finite: sigma_max"):
        sigma_curve(BipartiteCase(spec=spec))
    # the separation rule ends where the arc table vanishes, so an r_max past
    # float64 range gives a finite curve
    far = sigma_curve(BipartiteCase(spec=replace(PINNED_SPEC, r_max=1e300)))
    assert np.all(np.isfinite(far.values)) and np.all(np.isfinite(far.errors))


def test_sigma_curve_separation_rule_ends_where_the_arc_table_vanishes():
    # inside the joint cut g1^2 + g2^2 <= _SIGMA_G_MAX^2 the two displacements
    # move the separation by at most g1 + g2 <= sqrt(2) _SIGMA_G_MAX, so past
    # j + sqrt(2) _SIGMA_G_MAX the cut table is exactly 0 and a larger r_max
    # changes no bit; a rule spread to r_max 1e10 once missed the Gaussian
    # support at both levels alike (f(0.6) = 0.0152 against 0.0824)
    j = SEPARATION_STEP
    g = np.linspace(1e-3, _SIGMA_G_MAX, 200)
    end = j + math.sqrt(2.0) * _SIGMA_G_MAX
    assert np.all(_pair_arc_table(np.array([end, 12.0]), g, j, 24) == 0.0)
    # off the kept pairs the uncut table still reaches that far
    assert np.any(_arc_table(np.array(end), g[:, None], g[None, :], j, 24) > 0.0)
    near, far = (sigma_curve(BipartiteCase(spec=replace(PINNED_SPEC, r_max=r)))
                 for r in (20.0, 1e10))
    for name in ("points", "values", "errors"):
        assert np.array_equal(getattr(near, name), getattr(far, name))
    # and its error covers the gap to the default r_max
    values, _ = PINNED_CURVES[(0.3, 1.5)]
    assert np.all(np.abs(far.values - values) <= far.errors)


@pytest.mark.parametrize("jump", [SEPARATION_STEP, 0.4])
def test_sigma_curve_matches_full_square_oracle(jump):
    # the joint cut and the theta pairing move the curve by rounding only:
    # the uncut, all-theta route gives the same values and errors
    case = BipartiteCase(symbol=sign_step(jump), spec=PINNED_SPEC)
    curve = sigma_curve(case)
    coarse, fine = (sigma_level_full_square(case.spec, curve.points, level, case.symbol, jump)
                    for level in _SIGMA_LEVELS)
    errors = np.where(curve.points > 0.0, np.max(np.abs(fine - coarse)), 0.0)
    assert np.max(np.abs(curve.values - fine)) <= 1e-15
    assert np.max(np.abs(curve.errors - errors)) <= 1e-15


@pytest.mark.parametrize("level", _SIGMA_LEVELS)
def test_sigma_joint_cut_drops_negligible_weight(level):
    # the pairs outside g1^2 + g2^2 <= _SIGMA_G_MAX^2 carry at most 2e-16 of
    # the displacement weight m(g1) m(g2), and their arc table cells are 0
    gn, gw = _gl_segmented(0.0, _SIGMA_G_MAX, level[1], ())
    m = gw * 4.0 * gn * np.exp(-2.0 * gn * gn)
    weight = np.multiply.outer(m, m)
    dropped = np.add.outer(gn * gn, gn * gn) > _SIGMA_G_MAX ** 2
    assert 0.0 < weight[dropped].sum() <= 2e-16 * weight.sum()
    _, _, arc = _level_arc_table(level)
    assert np.all(arc[:, dropped] == 0.0)
    # theta and pi - theta pair off, so the angle rule needs an even count
    assert level[3] % 2 == 0
    with pytest.raises(ValueError, match="even node count"):
        _sigma_level(PINNED_SPEC, np.zeros(1), level[:3] + (level[3] + 1,), disc_profile,
                     SEPARATION_STEP)


def test_sigma_curve_gate_message_reads_sigma():
    # sigma is printed to four significant digits, never as a 100-digit fixed
    # point number
    spec = IntegrationSpec(sigma_step=2e99, sigma_max=1e100)
    with pytest.raises(QuadratureError, match=r"at sigma = \d\.?\d*e\+99 is "):
        sigma_curve(BipartiteCase(spec=spec))


def test_sigma_curve_error_gate():
    # a jump radius far below the node spacing leaves the indicator
    # unresolved: the 15 percent gate must refuse the curve and name the
    # point, not return a noise curve
    case = BipartiteCase(symbol=sign_step(0.02), spec=IntegrationSpec(sigma_max=1.0))
    with pytest.raises(QuadratureError, match=r"at sigma = 0\.05 is "):
        sigma_curve(case)


def _level_arc_table(level):
    spec = BipartiteCase().spec
    dn = _gl_segmented(0.0, spec.r_max, level[0], (SEPARATION_STEP,))[0]
    gn = _gl_segmented(0.0, _SIGMA_G_MAX, level[1], ())[0]
    return dn, gn, _pair_arc_table(dn, gn, SEPARATION_STEP, level[2])


@pytest.mark.parametrize("level, tol", zip(_SIGMA_LEVELS, (2e-4, 1e-5)))
def test_arc_table_matches_psi_oracle(level, tol):
    # sampled cells with a window, and the corner d ~ g1 ~ g2 ~ j where the
    # window's two square-root ends meet and the rule is worst (9.6e-5 and
    # 3.7e-6 at the coarse and fine level)
    dn, gn, arc = _level_arc_table(level)
    j = SEPARATION_STEP
    kd, kg = int(np.argmin(np.abs(dn - j))), int(np.argmin(np.abs(gn - j)))
    cells = [(kd, kg, kg), (kd, kg, kg + 1), (kd - 1, kg, kg), (kd + 1, kg - 1, kg)]
    live = np.argwhere((arc > 0.0) & (arc < 1.0))
    rng = np.random.default_rng(12)
    cells += [tuple(c) for c in live[rng.choice(len(live), 24, replace=False)]]
    for k, i2, i1 in cells:
        assert abs(arc[k, i2, i1] - arc_fraction(dn[k], gn[i1], gn[i2], j)) < tol
    # the diagonal g1 = g2 on the collapsed pair integrals' own cells, whose
    # separation nodes depend on g
    d, g, _ = _collapsed_cells(j, 64, 64, (j,))
    diag = _arc_table(d, g, g, j, level[2])
    live = np.flatnonzero((diag > 0.0) & (diag < 1.0))
    for k in rng.choice(live, 12, replace=False):
        assert abs(diag[k] - arc_fraction(d[k], g[k], g[k], j)) < tol


@pytest.mark.parametrize("level", _SIGMA_LEVELS)
def test_arc_table_symmetric_and_exact_outside_window(level):
    dn, gn, arc = _level_arc_table(level)
    assert np.array_equal(arc, arc.transpose(0, 2, 1))
    d, g2, g1 = dn[:, None, None], gn[:, None], gn
    j = SEPARATION_STEP
    # |g1 e^{i phi1} - g2 e^{i phi2}| stays below |d - j| or above d + j:
    # the displaced point never meets the circle of radius j
    inside = np.broadcast_to(g1 + g2 < np.abs(d - j) - 1e-9, arc.shape)
    outside = np.broadcast_to(np.abs(g1 - g2) > d + j + 1e-9, arc.shape)
    near = np.broadcast_to(d < j, arc.shape)
    assert (inside & near).any() and (inside & ~near).any() and outside.any()
    assert np.all(arc[inside & near] == 1.0)
    assert np.all(arc[(inside & ~near) | outside] == 0.0)


@pytest.fixture(scope="module")
def default_curve():
    return sigma_curve(BipartiteCase())


def test_sigma_curve_error_covers_finer_level(default_curve):
    # the node levels converge unevenly, so check the reported error against
    # a level finer in every direction at every point of the default grid
    case = BipartiteCase()
    finer = _sigma_level(case.spec, default_curve.points, (192, 96, 32, 16), case.symbol,
                         SEPARATION_STEP)
    assert default_curve.points.size == 55
    gap = np.abs(default_curve.values - finer)
    assert np.all(gap <= default_curve.errors)
    assert default_curve.errors[1] < 1e-4


@pytest.mark.parametrize("jump", [0.3, 1.5])
def test_sigma_curve_error_covers_finer_level_at_other_jumps(jump):
    case = BipartiteCase(symbol=sign_step(jump),
                         spec=IntegrationSpec(sigma_step=0.3, sigma_max=1.5))
    curve = sigma_curve(case)
    finer = _sigma_level(case.spec, curve.points, (192, 96, 32, 16), case.symbol, jump)
    assert np.all(np.abs(curve.values - finer) <= curve.errors)


def test_sigma_curve_matches_monte_carlo_oracle(default_curve):
    case = BipartiteCase()
    for index in (6, 18, 30):
        s = float(default_curve.points[index])
        value, sigma = sigma_point(case, SEPARATION_STEP, s, index)
        assert abs(default_curve.values[index] - value) < 4.0 * sigma


def test_sigma_curve_container():
    pts = 0.05 * np.arange(10)
    vals = np.exp(-pts)
    errs = np.full(10, 1e-3)
    curve = SigmaCurve(pts, vals, errs)
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
    vals = np.exp(-0.5 * pts)
    errs = np.full(21, 1e-4)
    errs[0] = 0.0
    value, err = SigmaCurve(pts, vals, errs).integral()
    # the grid's trapezoid alone: the mass past s = 2 is not estimated
    assert value == np.trapezoid(vals, pts)
    assert abs(value - 2.0 * (1.0 - math.exp(-1.0))) < 1e-3
    # every point carries the shared bound: the error is its trapezoid
    assert err == pytest.approx(1.95e-4, rel=1e-12)


def test_bp_unit_symbol_report():
    rep = bp_hv_bound(BipartiteCase(symbol=unit_symbol()))
    assert abs(rep.hv_bound - 1.0) < 1e-6
    assert abs(rep.qm_mean - 1.0) < 1e-9
    assert list(rep.notes["components"]) == ["full_full"]
    assert rep.notes["violation"] is False


def test_collapsed_kernel_closed_component():
    # with A = 1 and B = 1{d < j} the collapsed integral is full_core, which
    # is closed: the cells resolve the kernel to rounding
    for j in (0.3, SEPARATION_STEP, 1.5):
        d, _, w = _collapsed_cells(j, *_COLLAPSE_LEVELS[0][:2], (j,))
        assert abs(w @ (d < j) - _reduced_pair_integral(j)) < 1e-14


def regions(symbol):
    # bp_hv_bound's region names and radii, the full plane at infinity
    cores = {(f"core{k}" if k > 1 else "core"): r for k, r in enumerate(symbol.jumps, 1)}
    return {"full": math.inf, **cores}


@pytest.mark.parametrize(
    "symbol",
    [pytest.param(sign_step(j), id=str(j)) for j in (0.3, SEPARATION_STEP, 1.5)]
    + [pytest.param(PAIR_TWO_STEP, id="two-step")],
)
def test_sign_disc_error_covers_finer_level(symbol):
    # every collapsed component against a level finer in every direction
    case = BipartiteCase(symbol=symbol)
    rep = bp_hv_bound(case)
    comps, errs = rep.notes["components"], rep.notes["component_errors"]
    for name1, r1 in list(regions(symbol).items())[1:]:
        d, wa = _collapsed_arc(r1, (192, 192, 32), symbol.jumps)
        for name2, r2 in regions(symbol).items():
            name = f"{name1}_{name2}"
            assert abs(comps[name] - wa @ (d < r2)) <= errs[name]
    if len(symbol.jumps) == 1:
        # the panels at the diagonal's kinks keep the level gap near 1e-6
        assert sign_disc(rep)[1] <= 2e-6
        assert rep.notes["error_estimate"] <= 3e-6
    # the bound reads no sigma grid: a grid far too short changes nothing
    short = BipartiteCase(symbol=symbol, spec=IntegrationSpec(sigma_max=0.3))
    assert bp_hv_bound(short).notes["components"] == comps


def test_bp_two_step_profile():
    case = BipartiteCase(symbol=PAIR_TWO_STEP)
    rep = bp_hv_bound(case)
    assert rep.qm_mean == bp_qm_mean(case)
    assert abs(rep.qm_mean - pair_qm_quadrature(bell_pair_state(8), case)[0]) < 1e-12
    assert_two_step_form(rep)
    # the full arc side is closed
    comps, errs = rep.notes["components"], rep.notes["component_errors"]
    assert comps["full_core2"] == _reduced_pair_integral(0.9)
    assert errs["full_core"] == errs["full_core2"] == 0.0
    assert rep.notes["violation"] is True
    # the signed disc is a sign-step quantity
    with pytest.raises(ValueError, match="one-jump"):
        sign_disc(rep)


def simpson(values, step):
    weights = np.ones(values.size)
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
    return step / 3.0 * float(weights @ values)


def test_disc_disc_component_matches_curve_route():
    # I(0.9, 0.4), arc radius 0.9 against the profile disc 0.4, which no sign
    # step has: it is the integral over s of the sigma curve of the profile
    # 1{d < 0.4} at arc radius 0.9. As in criterion 8, the curve runs to
    # s = 8 at a finer level whose points carry their largest gap to the
    # fine level, with an s^-p tail past 8, p in [2.5, 3.5]; Simpson's rule
    # carries its gap to the rule on every other node
    rep = bp_hv_bound(BipartiteCase(symbol=PAIR_TWO_STEP))
    value = rep.notes["components"]["core2_core"]
    case = BipartiteCase(symbol=piecewise_symbol((0.4,), (1.0, 0.0)))
    s = 0.2 * np.arange(41)
    fine, finer = (_sigma_level(case.spec, s, level, case.symbol, 0.9)
                   for level in (_SIGMA_LEVELS[1], (192, 96, 32, 16)))
    tails = [finer[-1] * s[-1] / (p - 1.0) for p in (2.5, 3.5)]
    rule = simpson(finer, 0.2)
    route = rule + 0.5 * sum(tails)
    tol = (float(np.max(np.abs(finer - fine))) * s[-1] + abs(rule - simpson(finer[::2], 0.4))
           + 0.5 * abs(tails[0] - tails[1]) + rep.notes["component_errors"]["core2_core"])
    assert abs(route - value) <= tol < 1e-4
    # the kernel is not symmetric in its slots: I(0.4, 0.9) is far off
    assert abs(route - rep.notes["components"]["core_core2"]) > 100.0 * tol


def test_bp_reads_one_arc_table_per_jump_and_level(monkeypatch):
    # each jump's diagonal table serves every profile slot of its row
    calls = []

    def counted(*args):
        calls.append(args)
        return _arc_table(*args)

    monkeypatch.setattr(phasespace, "_arc_table", counted)
    for symbol, tables in ((sign_step(SEPARATION_STEP), 2), (PAIR_TWO_STEP, 4)):
        calls.clear()
        bp_hv_bound(BipartiteCase(symbol=symbol))
        assert len(calls) == tables


def test_bp_default_sign_disc():
    rep = bp_hv_bound(BipartiteCase())
    comps, errs = rep.notes["components"], rep.notes["component_errors"]
    value, error = sign_disc(rep)
    assert value == comps["core_full"] - 2.0 * comps["core_core"]
    assert error == errs["core_full"] + 2.0 * errs["core_core"]
    assert abs(value - 0.0774787) < 2e-6
    assert rep.hv_bound == pytest.approx(1.27117, abs=1e-5)
