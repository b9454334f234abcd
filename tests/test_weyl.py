"""Symbol maps, Wigner functions and radial quantization."""

import math
import warnings

import numpy as np
import pytest

from bellbound.fock import (
    DensityMatrix,
    FockOperator,
    bell_pair_state,
    number_projector,
    trace_product,
)
from bellbound.quad import IntegrationSpec, QuadratureError
from bellbound.weyl import (
    RadialSymbol,
    bell_eigenvalue_generating,
    piecewise_symbol,
    quantize_radial,
    sign_step,
    symbol_of,
    unit_symbol,
    wigner,
)
from oracles import (laguerre, peak_traced, quantizer, radial_eigenvalues,
                     radial_eigenvalues_exact)

STEP_EV0 = 2.0 * math.exp(-0.5) - 1.0
STEP_EV1 = 4.0 * math.exp(-0.5) - 1.0


def test_radial_symbol_factories():
    u = unit_symbol()
    assert np.allclose(u(np.linspace(0, 5, 11)), 1.0)
    assert u.far_value == 1.0 and u.jumps == ()
    s = sign_step(0.5)
    assert np.allclose(s(np.array([0.1, 0.49, 0.51, 3.0])), [-1, -1, 1, 1])
    assert s.jumps == (0.5,) and s.far_value == 1.0 and s.far_radius == 0.5
    with pytest.raises(ValueError):
        sign_step(0.0)
    with pytest.raises(ValueError):
        RadialSymbol(lambda r: r, jumps=(-1.0,))
    # jumps out of order or past float range, and a far radius short of the
    # last jump, which would fold [0.5, 0.8] of this profile into the far
    # value when quantized
    for jumps in ((0.8, 0.3), (0.3, 0.3), (0.3, math.inf), (math.nan,), (10**400,),
                  ("0.5",)):
        with pytest.raises(ValueError, match="jumps"):
            RadialSymbol(lambda r: r, jumps=jumps)
    two = lambda r: np.select([r < 0.3, r < 0.8], [-1.0, 0.5], 1.0)
    with pytest.raises(ValueError, match="far_radius"):
        RadialSymbol(two, "two steps", (0.3, 0.8), 1.0, 0.5)
    # a far value that is not a finite float is refused where it is declared;
    # every route ends where it holds, so a symbol must declare one
    for far in (math.nan, math.inf, -math.inf, None, 10**400, "1"):
        with pytest.raises(ValueError, match="far_value"):
            RadialSymbol(two, "x", (0.5,), far, 0.5)


def test_radial_symbol_refuses_non_finite_levels():
    # levels feed the closed-form spectrum and the pair routes' bilinear
    # form, so a NaN or infinite one is refused where it is declared
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="levels"):
            RadialSymbol(lambda r: r, "x", (0.5,), 1.0, 0.5, (bad, 1.0))


def test_radial_symbol_refuses_a_far_radius_past_float_range():
    # every route integrates in s = r^2 up to far_radius^2, so the far radius
    # and its square must both be finite, and it must be a number
    for far_radius in (math.inf, 1e200, math.nan, 10**400, "1"):
        with pytest.raises(ValueError, match="far_radius"):
            RadialSymbol(lambda r: np.exp(-r * r), "x", (), 0.0, far_radius)


def test_piecewise_symbol_declares_its_levels():
    two = piecewise_symbol((0.3, 0.8), (-1.0, 0.5, 1.0), "two steps")
    r = np.array([0.0, 0.29, 0.3, 0.79, 0.8, 5.0])
    assert np.array_equal(two(r), [-1.0, -1.0, 0.5, 0.5, 1.0, 1.0])
    assert two.levels == (-1.0, 0.5, 1.0)
    assert two.far_value == 1.0 and two.far_radius == 0.8
    assert sign_step(0.5).levels == (-1.0, 1.0)
    assert unit_symbol().levels == (1.0,) and unit_symbol().far_radius == 0.0
    # the declared profile takes the closed form and the same function given
    # alone the swept quadrature; they agree within their two reported errors
    plain = RadialSymbol(two.fn, jumps=(0.3, 0.8), far_value=1.0, far_radius=0.8)
    closed, quadrature = quantize_radial(two, 8), quantize_radial(plain, 8)
    gap = np.abs(closed.eigenvalues - quadrature.eigenvalues)
    assert np.all(gap <= quadrature.error_estimates + closed.error_estimates)
    assert np.all(gap < 1e-13)
    with pytest.raises(ValueError, match="levels"):
        piecewise_symbol((0.3, 0.8), (-1.0, 1.0))
    for levels in ((-1.0, math.inf), (10**400, 1.0), ("-1", 1.0)):
        with pytest.raises(ValueError, match="levels"):
            piecewise_symbol((0.3,), levels)
    with pytest.raises(ValueError, match="positive"):
        piecewise_symbol((0.0,), (-1.0, 1.0))
    # levels given directly must agree with the far fields
    with pytest.raises(ValueError, match="levels"):
        RadialSymbol(two.fn, jumps=(0.3, 0.8), far_value=0.5, far_radius=0.8,
                     levels=(-1.0, 0.5, 1.0))


def test_symbol_of_number_states():
    # Smb[|n><n|](alpha) = 2 (-1)^n e^{-2|a|^2} L_n(4 |a|^2)
    assert abs(symbol_of(number_projector(1, 32), 0.0) + 2.0) < 1e-12
    rng = np.random.default_rng(21)
    pts = (rng.uniform(-1, 1, 12) + 1j * rng.uniform(-1, 1, 12)) * 1.05
    x = np.abs(pts) ** 2
    for n in (0, 1, 3, 5):
        want = 2.0 * (-1.0) ** n * np.exp(-2 * x) * laguerre(n, 4 * x)
        # the truncation right at the level is as exact as a deep one
        for dim in (n + 1, n + 2, 64):
            got = symbol_of(number_projector(n, dim), pts)
            assert np.max(np.abs(got - want)) < 1e-12, (n, dim)
    # level 149, where the unscaled factors x^(a/2) L_n^(a)(x) once overflowed
    pts = np.array([0.3, 1.5 + 2.0j, -3.0j, 4.5 + 1.0j, 6.0])
    x = np.abs(pts) ** 2
    want = -2.0 * np.exp(-2 * x) * laguerre(149, 4 * x)
    assert np.max(np.abs(symbol_of(number_projector(149, 150), pts) - want)) < 1e-13
    # far points give exact zeros, with no overflow on the way and no point
    # pulled in along its ray first; at 8e307 + 8e307j even |2 alpha| passes
    # float64
    far = np.array([1e200, 25.0, 1e5j, 29.9 + 29.9j, -1e200 - 1e200j, 8e307 + 8e307j])
    for n, dim in ((0, 64), (3, 64), (63, 64), (149, 150)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = symbol_of(number_projector(n, dim), far)
        assert np.array_equal(got, np.zeros(6)), n
    # scalar input comes back as a scalar
    assert np.isscalar(symbol_of(number_projector(0, 16), 0.3 + 0.1j))


def test_symbol_of_offdiagonal_and_residue():
    # Smb[|0><1|](alpha) = 4 alpha e^{-2|alpha|^2}, genuinely complex
    entries = np.zeros((32, 32), dtype=complex)
    entries[0, 1] = 1.0
    op = FockOperator(entries)
    a = 0.4 - 0.7j
    got = symbol_of(op, a)
    want = 4.0 * a * math.exp(-2 * abs(a) ** 2)
    assert abs(got - want) < 1e-10
    # hermitian input gives a real symbol
    h = FockOperator(entries + entries.conj().T, hermitian=True)
    val = symbol_of(h, np.array([a, -a]))
    assert val.dtype.kind == "f"
    assert abs(val[0] - 2 * want.real) < 1e-10


def test_symbol_fast_path_matches_quantizer_trace():
    # the closed low-level rows must agree with a trace against a quantizer
    # built at a truncation deep enough to be faithful
    vec = np.zeros(64, dtype=complex)
    vec[0], vec[1] = 1.0, 0.5j
    rho = DensityMatrix.from_state(vec)
    pts = np.array([0.2 + 0.1j, -0.8j, 1.3])
    fast = symbol_of(rho.op, pts)
    slow = [2 * math.pi * trace_product(rho.op, quantizer(a, 64)).real for a in pts]
    assert np.max(np.abs(fast - np.array(slow))) < 1e-12


def test_wigner_single_mode():
    vac = DensityMatrix.from_state([1.0, 0.0])
    one = DensityMatrix.from_state([0.0, 1.0])
    assert abs(wigner(vac, 0j) - 1 / math.pi) < 1e-12
    assert abs(wigner(one, 0j) + 1 / math.pi) < 1e-12
    pts = np.linspace(-3, 3, 121)
    grid = pts[:, None] + 1j * pts[None, :]
    w = wigner(one, grid)
    x = np.abs(grid) ** 2
    want = np.exp(-2 * x) * (4 * x - 1) / math.pi
    assert np.max(np.abs(w - want)) < 1e-12
    # d^2x = 2 d^2alpha, so the lattice sum times 2 h^2 approximates 1
    h = pts[1] - pts[0]
    assert abs(2 * h * h * w.sum() - 1.0) < 1e-6


def test_wigner_bell_pair():
    rho = bell_pair_state(16)
    assert abs(wigner(rho, np.zeros(2)) + 1 / math.pi**2) < 1e-12
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.2, 1.2, (40, 2)) + 1j * rng.uniform(-1.2, 1.2, (40, 2))
    w = wigner(rho, pts)
    a1, a2 = pts[:, 0], pts[:, 1]
    want = (np.exp(-2 * (np.abs(a1) ** 2 + np.abs(a2) ** 2))
            * (2 * np.abs(a1 - a2) ** 2 - 1) / math.pi**2)
    assert np.max(np.abs(w - want)) < 1e-10
    with pytest.raises(ValueError):
        wigner(rho, 0.3 + 0.1j)


def test_two_mode_general_route_agrees():
    # support above level 1: compare against the occupied 3x3 block of a
    # quantizer truncated deep enough to be faithful there (a dim-6 one is
    # not: dropping levels >= 6 inside D Pi D^dagger moves pi times that
    # block by up to 9e-2 at these points)
    dim = 6
    vec = np.zeros(dim * dim, dtype=complex)
    vec[0 * dim + 2] = 1.0
    vec[2 * dim + 0] = -1.0
    rho = DensityMatrix.from_state(vec, modes=2)
    pts = np.array([[0.3 + 0.2j, -0.1j], [0.0j, 0.5 + 0.4j], [1.1 - 0.3j, 0.7j]])
    vals = symbol_of(rho.op, pts)
    rho4 = rho.entries.reshape(dim, dim, dim, dim)[:3, :3, :3, :3]
    for (a1, a2), got in zip(pts, vals):
        q1 = quantizer(a1, 40).entries[:3, :3]
        q2 = quantizer(a2, 40).entries[:3, :3]
        want = (2 * math.pi) ** 2 * np.einsum("abcd,ca,db->", rho4, q1, q2)
        assert abs(got - want.real) < 1e-12


def test_symbol_memory_is_bounded():
    # the displacement blocks are built a bounded number of points at a time;
    # all 4,000 32x32 blocks at once would take 65 MB for the entries alone
    rng = np.random.default_rng(8)
    a = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    op = FockOperator(a + a.conj().T, hermitian=True)
    pts = rng.uniform(-2, 2, 4000) + 1j * rng.uniform(-2, 2, 4000)
    assert peak_traced(symbol_of, op, pts) < 64e6


def test_quantize_radial_unit():
    exp = quantize_radial(unit_symbol(), 24)
    assert np.max(np.abs(exp.eigenvalues - 1.0)) < 1e-12
    assert exp.dim == 24
    op = exp.operator()
    assert op.hermitian
    assert np.allclose(op.entries, np.eye(24))


def test_quantize_radial_step():
    exp = quantize_radial(sign_step(0.5), 16)
    assert abs(exp.eigenvalues[0] - STEP_EV0) < 1e-9
    assert abs(exp.eigenvalues[1] - STEP_EV1) < 1e-9
    # the one-excitation eigenvalue beats the classical extreme of the symbol
    assert exp.eigenvalues[1] > 1.0 + 0.4
    assert np.max(exp.eigenvalues) == exp.eigenvalues[1]
    assert np.max(np.abs(exp.eigenvalues)) < 1.5


@pytest.mark.parametrize("symbol", [
    *(sign_step(r0) for r0 in (0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0)),
    piecewise_symbol((0.3, 0.8), (-1.0, 0.5, 1.0)),
    piecewise_symbol((0.4, 1.1, 2.0), (2.0, -1.0, 0.25, -0.5)),
], ids=lambda sym: sym.description or f"{len(sym.jumps)} steps")
def test_quantize_radial_matches_closed_form(symbol):
    # every level's quadrature against the jumps' Laguerre partial sums
    got = quantize_radial(symbol, 64).eigenvalues
    assert np.max(np.abs(got - radial_eigenvalues(symbol, 64))) < 1e-13


EXACT_SYMBOLS = [
    *(sign_step(r0) for r0 in (0.5, 2.0, 3.0, 4.0)),
    piecewise_symbol((0.3, 0.8), (-1.0, 0.5, 1.0)),
    piecewise_symbol((0.4, 1.1, 2.0), (2.0, -1.0, 0.25, -0.5)),
]


def symbol_id(sym):
    return sym.description or f"{len(sym.jumps)} steps"


def function_only(symbol):
    """The same profile given by its function alone, without its levels."""
    return RadialSymbol(symbol.fn, jumps=symbol.jumps, far_value=symbol.far_value,
                        far_radius=symbol.far_radius)


@pytest.mark.parametrize("symbol", EXACT_SYMBOLS, ids=symbol_id)
def test_closed_form_error_covers_exact_spectrum(symbol):
    # the declared symbol's rounding bound covers its gap to an 80-digit
    # evaluation, and the quadrature of the same profile, given without its
    # levels, lands within 1e-13
    got = quantize_radial(symbol, 64)
    exact = radial_eigenvalues_exact(symbol, 64)
    gap = np.array([abs(float(g - e)) for g, e in zip(got.eigenvalues, exact)])
    assert np.all(gap <= got.error_estimates)
    assert np.all(got.error_estimates <= 1e-12)
    quadrature = quantize_radial(function_only(symbol), 64).eigenvalues
    assert np.max(np.abs(quadrature - got.eigenvalues)) < 1e-13


@pytest.mark.parametrize("dim", [8, 64])
@pytest.mark.parametrize("symbol", EXACT_SYMBOLS, ids=symbol_id)
def test_swept_error_covers_exact_spectrum(symbol, dim):
    # given by its function alone, the profile takes the swept quadrature,
    # whose own error, width gap plus rounding bound, covers its gap to the
    # 80-digit evaluation of the closed form
    got = quantize_radial(function_only(symbol), dim)
    exact = radial_eigenvalues_exact(symbol, dim)
    gap = np.array([abs(float(g - e)) for g, e in zip(got.eigenvalues, exact)])
    assert np.all(gap <= got.error_estimates)
    assert np.all(got.error_estimates <= 1e-11)


def test_swept_panels_narrow_with_dim():
    # L_{dim-1}(4s) turns faster with dim, so the panels narrow with it: a
    # fixed width of 1/2 leaves the dim-300 levels 6.5e-5 apart from width 1
    for dim in (200, 300):
        closed = quantize_radial(sign_step(2.0), dim)
        swept = quantize_radial(function_only(sign_step(2.0)), dim)
        assert np.max(np.abs(swept.eigenvalues - closed.eigenvalues)) < 1e-13
        assert np.max(swept.error_estimates) < 1e-11


def test_swept_spectrum_refuses_a_tolerance_below_its_error():
    plain = function_only(EXACT_SYMBOLS[-1])
    worst = float(np.max(quantize_radial(plain, 64).error_estimates))
    assert quantize_radial(plain, 64, IntegrationSpec(abs_tol=worst)).dim == 64
    with pytest.raises(QuadratureError, match="swept spectrum stopped at error") as exc:
        quantize_radial(plain, 64, IntegrationSpec(abs_tol=worst / 2))
    assert exc.value.knob == "abs_tol"


def test_quantize_radial_refuses_a_dim_that_is_no_count():
    # a float or a bool is refused by name on both routes, not run as the
    # integer it rounds to or raised from inside numpy
    for symbol in (sign_step(0.5), function_only(sign_step(0.5))):
        for dim in (2.5, 4.0, True, 0, "3"):
            with pytest.raises(ValueError, match="dim"):
                quantize_radial(symbol, dim)
        assert quantize_radial(symbol, np.int64(4)).dim == 4


def test_quantize_radial_gaussian():
    # B(r) = e^{-r^2} has eigenvalues 2 / 3^{n+1} exactly; absolute accuracy
    # reaches machine level, relative accuracy only down to the quadrature
    # floor, which the 2 / 3^25 tail sits below. At far radius 100 or 1e3
    # the Gaussian fills a sliver of [0, far_radius^2]; the sweep ends where
    # every Laguerre factor has fallen below 1e-17, so its nodes stay on it
    for far_radius in (6.0, 100.0, 1e3):
        sym = RadialSymbol(lambda r: np.exp(-r * r), "gaussian", far_value=0.0,
                           far_radius=far_radius)
        for dim in (25, 48, 64):
            exp = quantize_radial(sym, dim, IntegrationSpec(abs_tol=1e-13))
            want = 2.0 / 3.0 ** (np.arange(dim) + 1.0)
            gap = np.abs(exp.eigenvalues - want)
            assert np.max(gap) < 1e-13 and np.all(gap <= exp.error_estimates)
            assert np.max(gap[:11] / want[:11]) < 1e-9


def test_quantize_radial_refuses_a_reach_past_the_recurrence_range_by_dim():
    # the reach scan stops at s = 374, short of x = 4s = 1500, where the
    # Laguerre recurrence refuses levels >= x/5: dim 310 still computes at
    # far radius 100, while dim 320's factors reach 1e-17 there and the
    # refusal names dim instead of the recurrence
    sym = RadialSymbol(lambda r: np.exp(-r * r), "gaussian", far_value=0.0, far_radius=100.0)
    exp = quantize_radial(sym, 310)
    gap = np.abs(exp.eigenvalues - 2.0 / 3.0 ** (np.arange(310) + 1.0))
    assert np.max(gap) < 1e-13 and np.all(gap <= exp.error_estimates)
    with pytest.raises(ValueError, match="dim 320 "):
        quantize_radial(sym, 320)


def test_gaussian_round_trip():
    # quantize then take the symbol back: e^{-r^2} maps to itself, out to
    # radii where a trace against the truncated quantizer loses 6e-9
    sym = RadialSymbol(lambda r: np.exp(-r * r), "gaussian", far_value=0.0, far_radius=6.0)
    op = quantize_radial(sym, 48).operator()
    radii = np.array([0.0, 0.4, 0.9, 1.5, 2.0, 2.5, 3.0])
    got = symbol_of(op, radii.astype(complex))
    assert np.max(np.abs(got - np.exp(-(radii**2)))) < 1e-12


def test_generating_function_route():
    assert abs(bell_eigenvalue_generating(0) - STEP_EV0) < 1e-10
    assert abs(bell_eigenvalue_generating(1) - STEP_EV1) < 1e-10
    direct = quantize_radial(sign_step(0.5), 11).eigenvalues
    for n in range(11):
        assert abs(bell_eigenvalue_generating(n) - direct[n]) < 1e-8
    for bad in (-1, 21, 1.5):
        with pytest.raises(ValueError):
            bell_eigenvalue_generating(bad)


def test_quantize_radial_custom_spec():
    spec = IntegrationSpec(abs_tol=1e-10)
    exp = quantize_radial(sign_step(0.5), 4, spec)
    assert abs(exp.eigenvalues[1] - STEP_EV1) < 1e-9
    assert np.all(exp.error_estimates <= 1e-8)
