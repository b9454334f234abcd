"""Integration engine checks against closed forms."""

import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from bellbound import quad
from bellbound.phasespace import (SingleParticleCase, _excited_component, _excited_kernel,
                                  sp_hv_bound)
from bellbound.quad import (
    IntegrationSpec,
    QuadratureError,
    QuadResult,
    _gauss_legendre,
    _gl_panels,
    integrate_radial_pair,
)
from bellbound.specfun import bessel_j
from bellbound.weyl import RadialSymbol, piecewise_symbol, quantize_radial, sign_step
from oracles import R_MAX, mc_integrate, radial_eigenvalues_exact, relative_sweep

SPEC = IntegrationSpec()
REPO = Path(__file__).resolve().parent.parent


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


def panel_integral(f, cuts, width):
    """f integrated by the fixed 21-node panels of _gl_panels."""
    x, w = _gl_panels(cuts, width)
    return float(w @ f(x))


def test_integrate_1d_closed_forms():
    got = panel_integral(lambda u: np.exp(-u / 2), (0.0, 1.0), 0.5)
    assert abs(got - 2 * (1 - math.exp(-0.5))) < 1e-15
    # normalization of 2 e^{-2s} with the tail beyond the cutoff < 1e-30
    got = panel_integral(lambda s: 2 * np.exp(-2 * s), (0.0, 36.0), 0.5)
    assert abs(got - 1.0) < 1e-14


def test_integrate_1d_split_additivity():
    # a cut makes a jump a panel edge, so the step integrates exactly
    f = lambda x: np.where(x < 0.3, 1.0, 2.0)
    whole = panel_integral(f, (0.0, 0.3, 1.0), 0.5)
    left = panel_integral(f, (0.0, 0.3), 0.5)
    right = panel_integral(f, (0.3, 1.0), 0.5)
    assert abs(whole - 1.7) < 1e-15
    assert abs(whole - (left + right)) < 1e-15
    x, _ = _gl_panels((0.0, 0.3, 1.0), 0.5)
    assert x.size == 3 * 21 and np.all(np.diff(x) > 0)


def test_integrate_1d_error_estimate_honest():
    # oscillatory and peaked integrands with known antiderivatives: the gap
    # between panel widths 0.5 and 1 covers the error at width 0.5
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
    assert len(cases) == 20
    for f, exact in cases:
        fine = panel_integral(f, (0.0, 2.0), 0.5)
        gap = abs(fine - panel_integral(f, (0.0, 2.0), 1.0))
        assert gap <= 1e-10
        assert abs(fine - exact) <= max(3 * gap, 5e-15)


@pytest.mark.parametrize("abs_tol", [1e-9, 1e-12])
@pytest.mark.parametrize("a", [0.01, 0.25, 2.25, 9.0])
def test_integrate_1d_error_covers_laguerre_closed_form(a, abs_tol):
    # the 1-D integrals behind a spectrum: 1{r < sqrt a} given by its function
    # alone takes quantize_radial's swept quadrature, lam_n = 2 (-1)^n
    # int_0^a e^{-2s} L_n(4s) ds, and its reported error covers the gap to
    # the closed form, the jump's Laguerre partial sums in 80 digits
    jump = math.sqrt(a)
    disc = RadialSymbol(lambda r: np.where(r < jump, 1.0, 0.0), jumps=(jump,),
                        far_value=0.0, far_radius=jump)
    got = quantize_radial(disc, 64, IntegrationSpec(abs_tol=abs_tol))
    exact = radial_eigenvalues_exact(piecewise_symbol((jump,), (1.0, 0.0)), 64)
    gap = np.array([abs(float(g - e)) for g, e in zip(got.eigenvalues, exact)])
    assert np.all(gap <= got.error_estimates)
    assert np.all(got.error_estimates <= abs_tol)


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


@pytest.mark.parametrize("radius, abs_tol, refused", [
    (0.5, 1e-13, False),
    (2.0, 1e-12, False),
    # level 144's gap is 1.1e-10 here, so the ladder takes level 216
    (4.2, 1e-12, False),
    # below the rounding of every level
    (1.5, 1e-17, True),
])
def test_radial_pair_error_within_abs_tol_or_refused(radius, abs_tol, refused):
    # the ladder's one rule: a returned error is within abs_tol, at whatever
    # level; otherwise the tolerance is refused by name
    spec = IntegrationSpec(abs_tol=abs_tol)
    args = (_excited_kernel, spec, radius, radius)
    if refused:
        with pytest.raises(QuadratureError, match="its last level gap, above") as exc:
            integrate_radial_pair(*args, splits=(radius,))
        assert exc.value.knob == "abs_tol"
    else:
        got = integrate_radial_pair(*args, splits=(radius,))
        assert got.error_estimate <= abs_tol


def test_kernel_route_keeps_the_default_tolerance():
    # level 144's gap on core_core is 2.8e-9, above the default 1e-9
    rep = sp_hv_bound(SingleParticleCase(symbol=sign_step(4.3)))
    assert rep.notes["component_errors"]["core_core"] <= SPEC.abs_tol


def test_radial_pair_rung_certifies_the_first_level(monkeypatch):
    # the (24, 24, 16) rung is swept first and never returned: the default
    # core_core agrees with it at level 96 and stops there, while a disc
    # that level 96 does not resolve is certified at level 144 as before
    sweeps = []
    sweep = quad._sweep_direct

    def counted(f, rn, rw, sn, sw, n_ang):
        sweeps.append(n_ang)
        return sweep(f, rn, rw, sn, sw, n_ang)

    monkeypatch.setattr(quad, "_sweep_direct", counted)
    sp_hv_bound(SingleParticleCase())
    assert sweeps == [16, 64]
    flagship = integrate_radial_pair(_excited_kernel, SPEC, 0.5, 0.5, splits=(0.5,))
    assert flagship.evaluations == 599_040
    sweeps.clear()
    wide = integrate_radial_pair(_excited_kernel, SPEC, 2.0, 2.0, splits=(2.0,))
    assert sweeps == [16, 64, 96]
    assert wide.evaluations == 24 * 24 * 16 + 96 * 96 * 64 + 144 * 144 * 96


def test_pair_ladder_levels_script_marks_the_returned_level(capsys):
    # the per-level tool sweeps every level and marks the one the ladder
    # returns; it exits 1 unless integrate_radial_pair agrees with the mark
    loader = importlib.util.spec_from_file_location(
        "pair_ladder_levels", REPO / "scripts" / "pair_ladder_levels.py")
    script = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(script)
    assert script.main(["0.5,0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert len(lines) == len(quad._PAIR_LEVELS)
    assert all(str(level) in line for level, line in zip(quad._PAIR_LEVELS, lines))
    marked = [line for line in lines if "returned" in line]
    assert len(marked) == 1 and "(96, 96, 64)" in marked[0] and "599,040" in marked[0]


def test_radial_pair_short_ladder_refuses(monkeypatch):
    monkeypatch.setattr(quad, "_PAIR_LEVELS", ((8, 8, 2), (8, 8, 3)))
    with pytest.raises(QuadratureError, match=r"stopped at error \S+, its last level "
                       r"gap, above 1e-09") as exc:
        integrate_radial_pair(_excited_kernel, SPEC, 1.0, 1.0, splits=(1.0,))
    assert exc.value.knob == "abs_tol"


@pytest.mark.parametrize("values, stop", [
    # a gap in (abs_tol, 1e-8] takes the next level
    ((0.0, 5e-9, 5e-9 + 1e-12, 7.0), 3),
    # a last gap within ten times abs_tol is refused
    ((2.0, 0.0, 1.0, 0.5, 0.5 + 5e-9), None),
    # growing gaps run on up the ladder
    ((0.0, 1e-3, 1e-2, 1e-2 + 1e-10), 4),
    ((0.0, 1e-4, 1e-3, 1e-2, 1e-1), None),
], ids=["refines", "no_grace", "growing_gaps_converge", "growing_gaps_refused"])
def test_radial_pair_stops_at_first_gap_within_abs_tol(monkeypatch, values, stop):
    # each level's value is scripted, the rung's first; the ladder stops at
    # the first gap within abs_tol and returns that level, or runs every
    # level and refuses
    sweeps = iter(values)
    monkeypatch.setattr(quad, "_sweep_direct", lambda *args: next(sweeps))
    if stop is None:
        with pytest.raises(QuadratureError) as exc:
            integrate_radial_pair(kernel, SPEC, 1.0, 1.0)
        assert exc.value.knob == "abs_tol"
        assert f"{abs(values[-1] - values[-2]):.2e}" in str(exc.value)
        assert next(sweeps, None) is None
    else:
        got = integrate_radial_pair(kernel, SPEC, 1.0, 1.0)
        assert got.value == values[stop - 1]
        assert got.error_estimate == abs(values[stop - 1] - values[stop - 2])
        assert len(list(sweeps)) == len(values) - stop


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
