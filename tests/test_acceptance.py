"""Acceptance gate: every shipped claim, one printed line each.

Run with -s to see the lines. Three quoted reference values for the
single-particle cross components are not reproduced by any evaluation of
the defining integrals; those stay as strict xfails with the measured
values pinned next to them rather than widening a tolerance until the
discrepancy disappears.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from bellbound import (
    BipartiteCase,
    Decomposition,
    IntegrationSpec,
    SigmaCurve,
    SingleParticleCase,
    bell_eigenvalue_generating,
    bell_pair_state,
    bell_report,
    bp_hv_bound,
    chsh_decomposition,
    coarse_parity_bound,
    hv_bound,
    quantize_radial,
    sign_step,
    sp_hv_bound,
    sp_hv_bound_generic,
    unit_symbol,
    wigner,
)
from bellbound.cli import _TRUNCATION_DEFAULTS, RunConfig, run
from bellbound.fock import DensityMatrix, FockOperator
from bellbound.quad import integrate_1d
from bellbound.specfun import _j_asymptotic, _j_series, bessel_j, laguerre

from oracles import laguerre_sum

QM = 4.0 / math.sqrt(math.e) - 1.0
# cross components of the sign-step kernel, frozen from an independent
# nested adaptive quadrature; the quoted reference values differ
FULL_CORE = 0.1158701443
CORE_CORE = 0.0515436419
SP_TOTAL = 1.4005569181


def announce(name, ok, detail):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def default_config(command, **overrides):
    base = dict(
        command=command,
        truncation=_TRUNCATION_DEFAULTS[command],
        r_max=6.0,
        abs_tol=1e-9,
        mc_samples=2_000_000,
        seed=42,
        sigma_step=0.05,
        sigma_max=2.7,
        n_max=10,
        state="fock1",
        points=200,
        output_format="json",
        output_path=None,
    )
    base.update(overrides)
    return RunConfig(**base)


def random_density(rng, dim, modes=1):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityMatrix(FockOperator(m, modes=modes, hermitian=True))


def random_family(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    u, _ = np.linalg.qr(g)
    return [FockOperator(np.outer(u[:, k], u[:, k].conj()), hermitian=True)
            for k in range(dim)]


@pytest.fixture(scope="module")
def sp_documents():
    cfg = default_config("single-particle")
    t0 = time.perf_counter()
    first = run(cfg)
    t1 = time.perf_counter()
    second = run(cfg)
    t2 = time.perf_counter()
    return {"first": json.loads(first), "second": json.loads(second),
            "t_first": t1 - t0, "t_second": t2 - t1}


@pytest.fixture(scope="module")
def sigma_documents():
    cfg = default_config("sigma-curve")
    t0 = time.perf_counter()
    first = run(cfg)
    t1 = time.perf_counter()
    second = run(cfg)
    t2 = time.perf_counter()
    return {"first": json.loads(first), "second": json.loads(second),
            "t_first": t1 - t0, "t_second": t2 - t1}


@pytest.fixture(scope="module")
def bp_results(sigma_documents):
    comp = sigma_documents["first"]["components"]
    curve = SigmaCurve(np.array(comp["points"]), np.array(comp["values"]),
                       np.array(comp["errors"]))
    t0 = time.perf_counter()
    report = bp_hv_bound(BipartiteCase(), curve=curve)
    repeat = bp_hv_bound(BipartiteCase(), curve=curve)
    return {"report": report, "repeat": repeat,
            "seconds": time.perf_counter() - t0}


def test_criterion_01_chsh_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_hv = 0.0
    worst_recon = 0.0
    settings = [None]
    for _ in range(20):
        dirs = {}
        for key in ("a", "a'", "b", "b'"):
            v = rng.normal(size=3)
            dirs[key] = tuple(v / np.linalg.norm(v))
        settings.append(dirs)
    for cfg in settings:
        dec = chsh_decomposition(2, settings=cfg)
        mats = np.stack([p.entries for _, p in dec.terms])
        weights = np.array([w for w, _ in dec.terms])
        collapsed = np.einsum("u,uij,jk,ukl->il", weights, mats,
                              dec.target.entries, mats)
        worst_recon = max(worst_recon, float(np.max(np.abs(
            collapsed - 4.0 * np.eye(4)))))
        rho = bell_pair_state(2) if cfg is None else random_density(rng, 4, 2)
        worst_hv = max(worst_hv, abs(hv_bound(rho, dec) - 4.0))
    elapsed = time.perf_counter() - t0
    announce("1", worst_recon < 1e-10 and worst_hv < 1e-10 and elapsed < 1.0,
             f"reconstruction residual {worst_recon:.1e}, "
             f"|hv-4| {worst_hv:.1e}, {elapsed:.2f}s")


def test_criterion_02_identity_decomposition():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        fam = random_family(rng, dim)
        dec = Decomposition(
            tuple((1.0, p) for p in fam),
            FockOperator(np.eye(dim, dtype=complex), hermitian=True))
        worst = max(worst, abs(hv_bound(random_density(rng, dim), dec) - 1.0))
    sp_kernel = sp_hv_bound(SingleParticleCase(symbol=unit_symbol())).hv_bound
    vec = np.zeros(64)
    vec[1] = 1.0
    sp_generic = sp_hv_bound_generic(DensityMatrix.from_state(vec),
                                     unit_symbol())
    bp = bp_hv_bound(BipartiteCase(symbol=unit_symbol())).hv_bound
    quad_worst = max(abs(sp_kernel - 1.0), abs(sp_generic - 1.0),
                     abs(bp - 1.0))
    elapsed = time.perf_counter() - t0
    announce("2", worst < 1e-8 and quad_worst < 1e-6 and elapsed < 30.0,
             f"discrete |hv-1| {worst:.1e}, quadrature |hv-1| "
             f"{quad_worst:.1e}, {elapsed:.2f}s")


def test_criterion_03_bound_difference_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        fam = random_family(rng, dim)
        w = rng.uniform(-1.0, 1.0, size=dim)
        target = FockOperator(
            sum(wk * p.entries for wk, p in zip(w, fam)), hermitian=True)
        rep = bell_report(random_density(rng, dim),
                          Decomposition(tuple(zip(w, fam)), target))
        worst = max(worst, abs(rep.qm_second_moment - rep.hv_bound
                               - rep.bound_difference))
    elapsed = time.perf_counter() - t0
    announce("3", worst < 1e-8 and elapsed < 30.0,
             f"max |second - hv - difference| {worst:.1e}, {elapsed:.2f}s")


def test_criterion_04_eigenvalue_routes():
    t0 = time.perf_counter()
    by_quadrature = quantize_radial(sign_step(0.5), 64).eigenvalues
    by_generating = np.array([bell_eigenvalue_generating(n)
                              for n in range(11)])
    gap = float(np.max(np.abs(by_quadrature[:11] - by_generating)))
    lam1_quad = abs(by_quadrature[1] - QM)
    lam1_gen = abs(by_generating[1] - QM)
    elapsed = time.perf_counter() - t0
    announce("4", lam1_quad < 1e-9 and lam1_gen < 1e-9 and gap < 1e-8
             and elapsed < 5.0,
             f"|lambda_1 - (4/sqrt(e)-1)| {max(lam1_quad, lam1_gen):.1e}, "
             f"route gap {gap:.1e}, {elapsed:.2f}s")


def test_criterion_05_single_particle_components(sp_documents):
    t0 = time.perf_counter()
    doc = sp_documents["first"]
    comps = doc["components"]
    res = doc["results"]
    checks = {
        "full_full": abs(comps["full_full"] - 1.0) < 1e-6,
        "core_full": abs(comps["core_full"]
                         - (1.0 - 2.0 * math.exp(-0.5))) < 1e-6,
        "full_core": abs(comps["full_core"] - FULL_CORE) < 1e-8,
        "core_core": abs(comps["core_core"] - CORE_CORE) < 1e-8,
        "total": abs(res["hv_bound"] - SP_TOTAL) < 1e-6,
        "violation": res["violation"] is True,
        "qm_square": abs(res["qm_mean"] ** 2 - QM * QM) < 1e-6,
    }
    elapsed = sp_documents["t_first"] + time.perf_counter() - t0
    failed = [k for k, ok in checks.items() if not ok]
    announce("5", not failed and elapsed < 120.0,
             f"measured components pinned, total {res['hv_bound']:.10f}, "
             f"qm^2 {res['qm_mean'] ** 2:.10f}, {elapsed:.2f}s"
             + (f"; failed {failed}" if failed else ""))


@pytest.mark.xfail(strict=True, reason="quoted reference value 0.0184 "
                   "disagrees with the direct quadrature of the component "
                   "integral; the measured value is pinned in "
                   "test_criterion_05_single_particle_components")
def test_criterion_05_reference_full_core(sp_documents):
    value = sp_documents["first"]["components"]["full_core"]
    print(f"criterion 5 (reference full_core = 0.0184 +- 2%): FAIL "
          f"(measured {value:.10f})")
    assert abs(value - 0.0184) <= 0.02 * 0.0184


@pytest.mark.xfail(strict=True, reason="quoted reference value 0.0082 "
                   "disagrees with the direct quadrature of the component "
                   "integral; the measured value is pinned in "
                   "test_criterion_05_single_particle_components")
def test_criterion_05_reference_core_core(sp_documents):
    value = sp_documents["first"]["components"]["core_core"]
    print(f"criterion 5 (reference core_core = 0.0082 +- 2%): FAIL "
          f"(measured {value:.10f})")
    assert abs(value - 0.0082) <= 0.02 * 0.0082


@pytest.mark.xfail(strict=True, reason="quoted reference total 1.422 follows "
                   "from the two disputed cross components; the measured "
                   "total is pinned in "
                   "test_criterion_05_single_particle_components")
def test_criterion_05_reference_total(sp_documents):
    value = sp_documents["first"]["results"]["hv_bound"]
    print(f"criterion 5 (reference total = 1.422 +- 2e-3): FAIL "
          f"(measured {value:.10f})")
    assert abs(value - 1.422) <= 2e-3


@pytest.mark.xfail(strict=True, reason="the quoted 2.0337 rounds the closed "
                   "form (4/sqrt(e)-1)^2 = 2.03382... the wrong way, so a "
                   "1e-6 band around it cannot contain the computed square")
def test_criterion_05_reference_qm_square(sp_documents):
    value = sp_documents["first"]["results"]["qm_mean"] ** 2
    print(f"criterion 5 (reference qm^2 = 2.0337 +- 1e-6): FAIL "
          f"(measured {value:.10f})")
    assert abs(value - 2.0337) <= 1e-6


def test_criterion_06_route_equivalence():
    t0 = time.perf_counter()
    vec = np.zeros(64)
    vec[1] = 1.0
    generic = sp_hv_bound_generic(DensityMatrix.from_state(vec),
                                  sign_step(0.5), n_max=24)
    kernel = sp_hv_bound(SingleParticleCase()).hv_bound
    gap = abs(generic - kernel)
    elapsed = time.perf_counter() - t0
    announce("6", gap < 5e-3 and elapsed < 300.0,
             f"|generic - kernel| {gap:.2e} at n_max 24, {elapsed:.2f}s")


def test_criterion_07_bipartite_components(sigma_documents, bp_results):
    rep = bp_results["report"]
    comps = rep.notes["components"]
    checks = {
        "unit_unit": abs(comps["unit_unit"] - 1.0) < 1e-6,
        "disc_unit": abs(comps["disc_unit"]
                         - (1.0 - 2.0 / math.sqrt(math.e))) < 1e-6,
        "sign_disc": abs(comps["sign_disc"] - 0.078) <= 0.1 * 0.078,
        "total": abs(rep.hv_bound - 1.27) <= 0.05,
        "violation": rep.notes["violation"] is True,
    }
    elapsed = sigma_documents["t_first"] + bp_results["seconds"]
    failed = [k for k, ok in checks.items() if not ok]
    announce("7", not failed and elapsed < 1200.0,
             f"I_11 {comps['unit_unit']:.8f}, I_theta1 "
             f"{comps['disc_unit']:.8f}, I_Btheta {comps['sign_disc']:.6f}, "
             f"total {rep.hv_bound:.6f}, {elapsed:.1f}s"
             + (f"; failed {failed}" if failed else ""))


def test_criterion_08_curve_shape(sigma_documents, bp_results):
    doc = sigma_documents["first"]
    points = np.array(doc["components"]["points"])
    values = np.array(doc["components"]["values"])
    errors = np.array(doc["components"]["errors"])
    finite = bool(np.all(np.isfinite(values))) and values[0] == 0.0
    # smooth before looking at shape: the tail sits at the MC noise floor
    kernel = np.ones(5) / 5.0
    smooth = np.convolve(values, kernel, mode="valid")
    interior = np.flatnonzero(
        (smooth[1:-1] > smooth[:-2]) & (smooth[1:-1] >= smooth[2:])) + 1
    significant = [i for i in interior if smooth[i] > 0.25 * np.max(smooth)]
    peak = int(np.argmax(values))
    single_max = len(significant) == 1 and 0 < peak < len(values) - 1
    tail_small = bool(np.all(np.abs(values[-5:]) < 0.25 * np.max(values)))
    noise = float(np.mean(errors[-5:]))
    tail_trend = abs(smooth[-1]) <= abs(smooth[-5]) + 2.0 * noise
    integral = doc["results"]["integral"]
    recomputed = float(np.trapezoid(values, points))
    consistent = abs(integral - recomputed) < 1e-12
    sign_disc = bp_results["report"].notes["components"]["sign_disc"]
    reproduced = abs(integral - sign_disc) <= doc["results"]["integral_error"]
    ok = (finite and single_max and tail_small and tail_trend and consistent
          and reproduced)
    announce("8", ok,
             f"peak f={np.max(values):.5f} at s={points[peak]:.2f}, "
             f"f(0)={values[0]}, tail |f| max "
             f"{np.max(np.abs(values[-5:])):.5f}, integral {integral:.6f}")


def test_criterion_09_wigner_properties():
    t0 = time.perf_counter()
    vec = np.zeros(8)
    vec[1] = 1.0
    excited = DensityMatrix.from_state(vec)
    axis = np.linspace(-2.0, 2.0, 41)
    grid = axis[None, :] + 1j * axis[:, None]
    w = wigner(excited, grid)
    radii = np.abs(grid)
    off_ring = np.abs(radii - 0.5) > 1e-9
    sign_match = bool(np.all((w[off_ring] < 0.0) == (radii[off_ring] < 0.5)))
    # trace in the (q, p) plane: d q d p = 2 d^2 alpha
    norm = integrate_1d(
        lambda r: 4.0 * np.pi * r * wigner(excited, r + 0j),
        0.0, 8.0, IntegrationSpec(r_max=8.0))
    norm_ok = abs(norm.value - 1.0) < 1e-8
    pair = bell_pair_state(8)
    origin = float(wigner(pair, np.array([[0j, 0j]]))[0])
    origin_ok = abs(origin + 1.0 / math.pi**2) < 1e-8
    case = SingleParticleCase()
    coarse = coarse_parity_bound(case.state, case.symbol)
    no_violation = not (QM * QM > coarse + 1e-6)
    elapsed = time.perf_counter() - t0
    announce("9", sign_match and norm_ok and origin_ok and no_violation,
             f"sign pattern ok, norm {norm.value:.10f}, W(0,0) "
             f"{origin:.10f}, coarse parity bound {coarse:.6f} >= qm^2 "
             f"{QM * QM:.6f} - 1e-6, {elapsed:.2f}s")


def test_criterion_10_determinism(sp_documents, sigma_documents, bp_results):
    t0 = time.perf_counter()
    pairs = {"single-particle": sp_documents, "sigma-curve": sigma_documents}
    stable = {}
    for name, docs in pairs.items():
        a = dict(docs["first"])
        b = dict(docs["second"])
        a.pop("timing_seconds")
        b.pop("timing_seconds")
        stable[name] = a == b
    stable["bipartite"] = bp_results["report"] == bp_results["repeat"]
    cfg = default_config("eigenvalues")
    a = json.loads(run(cfg))
    b = json.loads(run(cfg))
    a.pop("timing_seconds")
    b.pop("timing_seconds")
    stable["eigenvalues"] = a == b
    elapsed = (time.perf_counter() - t0 + sp_documents["t_second"]
               + sigma_documents["t_second"])
    failed = [k for k, ok in stable.items() if not ok]
    announce("10", not failed,
             "repeat runs bit-identical apart from the clock "
             f"({', '.join(stable)}), {elapsed:.1f}s"
             + (f"; failed {failed}" if failed else ""))


def test_special_function_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)

    def series(n, x):
        xf = Fraction(x)
        total = Fraction(0)
        for k in range(n + 1):
            total += Fraction((-1) ** k * math.comb(n, n - k),
                              math.factorial(k)) * xf**k
        return float(total)

    worst_rec = 0.0
    for n in (1, 2, 5, 13, 20):
        for x in rng.uniform(0.0, 30.0, size=25):
            got = laguerre(n, float(x))
            want = series(n, float(x))
            worst_rec = max(worst_rec, abs(got - want)
                            / max(abs(got), abs(want), 1.0))
    worst_sum = 0.0
    for x in np.linspace(0.0, 8.0, 5):
        for y in np.linspace(0.0, 8.0, 5):
            closed = bessel_j(0, 2.0 * math.sqrt(x * y)) * math.exp(y)
            worst_sum = max(worst_sum,
                            abs(laguerre_sum(float(x), float(y), 120) - closed))
    worst_seam = 0.0
    for order in (0, 1):
        lo = _j_series(order, np.array([8.0]), np.float64)[0]
        hi = _j_series(order, np.array([8.0]), np.longdouble)[0]
        worst_seam = max(worst_seam, abs(lo - hi))
        lo = _j_series(order, np.array([16.0]), np.longdouble)[0]
        hi = _j_asymptotic(order, np.array([16.0]))[0]
        worst_seam = max(worst_seam, abs(lo - hi))
    elapsed = time.perf_counter() - t0
    announce("special functions",
             worst_rec <= 1e-9 and worst_sum < 1e-8 and worst_seam < 1e-10
             and elapsed < 10.0,
             f"recurrence vs series {worst_rec:.1e}, sum vs closed form "
             f"{worst_sum:.1e}, seam {worst_seam:.1e}, {elapsed:.2f}s")
