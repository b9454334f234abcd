"""Operator algebra on the truncated Fock basis."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.linalg

from bellbound import fock
from bellbound.fock import (
    CollapseError,
    DensityMatrix,
    FockOperator,
    _displacement_amplitudes,
    _displacement_entries,
    bell_pair_state,
    displacement,
    identity,
    luders_collapse,
    number_projector,
    parity,
    tensor,
    trace_product,
)
from oracles import displacement_element, quantizer


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (m + m.conj().T)


def test_operator_validation():
    with pytest.raises(ValueError):
        FockOperator(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        FockOperator(np.eye(4), modes=3)
    # two-mode entries must factor into equal mode sizes
    with pytest.raises(ValueError):
        FockOperator(np.eye(6), modes=2)
    with pytest.raises(ValueError):
        FockOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), hermitian=True)
    # the residue is read on the support block: a defect inside a sparse
    # support still raises, and an all-zero operator passes
    sparse = np.zeros((64, 64), dtype=complex)
    sparse[3, 40] = 0.5
    sparse[40, 3] = 0.5 + 1e-9j
    with pytest.raises(ValueError, match="residue"):
        FockOperator(sparse, hermitian=True)
    assert FockOperator(np.zeros((4, 4)), hermitian=True).hermitian
    op = FockOperator(np.eye(2))
    assert not op.entries.flags.writeable


def test_operator_algebra():
    a = random_hermitian(5, 10)
    b = random_hermitian(5, 11) + 0.3j * np.eye(5)
    fa = FockOperator(a, hermitian=True)
    fb = FockOperator(b)
    assert np.allclose((fa @ fb).entries, a @ b)
    assert np.allclose((fa + fb).entries, a + b)
    assert np.allclose((fa - fb).entries, a - b)
    assert np.allclose((2.5j * fa).entries, 2.5j * a)
    assert np.allclose(fb.dagger().entries, b.conj().T)
    assert abs(fb.trace() - np.trace(b)) < 1e-12
    assert fa.dim == 5 and fa.modes == 1
    with pytest.raises(ValueError):
        fa @ FockOperator(np.eye(4))


def test_bell_pair_state_memory():
    # a rank-one state on 1024 two-mode levels holds its 16.8 MB entries and
    # one validated copy; a full-size hermitian residue would add 50 MB
    tracemalloc.start()
    try:
        bell_pair_state(32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_identity_number_parity():
    eye = identity(6)
    assert abs(eye.trace() - 6) < 1e-14
    p2 = number_projector(2, 6)
    assert p2.is_projector()
    assert abs(trace_product(p2, p2) - 1) < 1e-14
    total = sum((number_projector(n, 6).entries for n in range(6)), np.zeros((6, 6)))
    assert np.allclose(total, np.eye(6))
    with pytest.raises(ValueError):
        number_projector(6, 6)
    pi = parity(5)
    assert np.allclose(np.diag(pi.entries), [1, -1, 1, -1, 1])
    assert np.allclose((pi @ pi).entries, np.eye(5))


def test_displacement_element_adjoint_symmetry():
    # <m|D(a)|n> = conj(<n|D(-a)|m>) since D(a)^H = D(-a)
    rng = np.random.default_rng(4)
    for _ in range(20):
        m, n = rng.integers(0, 30, 2)
        a = complex(*rng.uniform(-1.5, 1.5, 2))
        lhs = displacement_element(m, n, a)
        rhs = displacement_element(n, m, -a).conjugate()
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_displacement_matches_exponential():
    # exponentiating the truncated generator agrees on the low corner where
    # neither route feels the cutoff
    dim, corner = 100, 50
    ladder = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    for a in (0.3 + 0.2j, -1.1 + 0.7j, 2.0, 1.4j):
        ref = scipy.linalg.expm(a * ladder.conj().T - np.conj(a) * ladder)
        mine = displacement(a, dim).entries
        assert np.max(np.abs((ref - mine)[:corner, :corner])) < 1e-10


def test_displacement_entries_batch_matches_scalar():
    alphas = np.array([0.0, 0.3 + 0.2j, -1.1 + 0.7j, 2.5j, 3.0 - 1.0j])
    batch = _displacement_entries(alphas, 40)
    assert batch.shape == (alphas.size, 40, 40)
    for a, entries in zip(alphas, batch):
        assert np.max(np.abs(entries - displacement(a, 40).entries)) < 1e-15


def cahill_glauber_amplitude_mp(n, a, x):
    """e^{-x/2} sqrt(n!/(n+a)!) L_n^{(a)}(x) at the working mpmath precision.

    The series terms of L_n^{(a)} are (-x)^k binom(n+a, n-k) / k!, each from
    the previous one.
    """
    term = mpmath.binomial(n + a, n)
    lag = term
    for k in range(n):
        term *= -x * (n - k) / ((k + 1) * (k + 1 + a))
        lag += term
    return mpmath.exp(-x / 2) * mpmath.sqrt(
        mpmath.factorial(n) / mpmath.factorial(n + a)) * lag


def cahill_glauber_mp(alpha, dim):
    """<m|D(alpha)|n> from the Laguerre series summed in 60-digit arithmetic.

    With n = min(row, col), a = |row - col| and x = |alpha|^2 the element is
    the amplitude times alpha^a on and below the diagonal, (-conj(alpha))^a
    above it.
    """
    out = np.empty((dim, dim), dtype=complex)
    with mpmath.workdps(60):
        z = mpmath.mpc(alpha.real, alpha.imag)
        x = abs(z) ** 2
        for n in range(dim):
            for a in range(dim - n):
                amp = cahill_glauber_amplitude_mp(n, a, x)
                out[n + a, n] = complex(amp * z**a)
                out[n, n + a] = complex(amp * (-mpmath.conj(z)) ** a)
    return out


@pytest.mark.parametrize("dim", [2, 8, 40, 64])
def test_displacement_entries_against_mpmath(dim):
    alphas = np.array([0.3 + 0.2j, -1.1 + 0.7j, 2.5j, 4.0 - 3.0j, -8.0, 5.6 + 5.6j])
    batch = _displacement_entries(alphas, dim)
    for a, entries in zip(alphas, batch):
        assert np.max(np.abs(entries - cahill_glauber_mp(a, dim))) < 5e-14


def test_displacement_entries_dim150_against_mpmath():
    # sampled entries of dim 150 at |alpha| up to 8; the series cancels so
    # deeply there that 60 digits are off by 6.8e-6 at (149, 149), alpha = 8,
    # so the reference sums it in 200
    rng = np.random.default_rng(150)
    alphas = np.array([0.3 + 0.2j, 2.5j, 4.0 - 3.0j, -7.9 + 1.2j, 5.6 + 5.6j, 8.0])
    batch = _displacement_entries(alphas, 150)
    corners = [(149, 149), (149, 0), (0, 149), (140, 130), (100, 120)]
    for alpha, entries in zip(alphas, batch):
        picks = corners + [tuple(map(int, rng.integers(0, 150, 2))) for _ in range(25)]
        with mpmath.workdps(200):
            z = mpmath.mpc(alpha.real, alpha.imag)
            for row, col in picks:
                a = abs(row - col)
                amp = cahill_glauber_amplitude_mp(min(row, col), a, abs(z) ** 2)
                want = complex(amp * (z if row >= col else -mpmath.conj(z)) ** a)
                assert abs(entries[row, col] - want) < 5e-14, (alpha, row, col)


def test_displacement_entries_build_one_amplitude_table(monkeypatch):
    # every entry comes from one bounded table over the dim levels, however
    # many points
    tops = []

    def counted(x, top, *rest):
        tops.append(top)
        return _displacement_amplitudes(x, top, *rest)

    monkeypatch.setattr(fock, "_displacement_amplitudes", counted)
    alphas = np.array([0.3 + 0.2j, -1.1 + 0.7j, 2.5j])
    _displacement_entries(alphas, 64)
    assert tops == [63]
    _displacement_entries(0.7 - 0.1j, 64)
    assert tops == [63, 63]


def test_displacement_stays_finite_past_float64_factors():
    # x^(a/2) and L_n^(a)(x) pass float64 here, but no amplitude does: at dim
    # 520 (any alpha) and at |alpha| = 85 (dim 150) the entries stay finite
    for alpha, dim in ((0.1, 520), (0.5, 520), (60 + 60j, 150)):
        entries = displacement(alpha, dim).entries
        assert np.all(np.isfinite(entries)), (alpha, dim)
    # and the protected block of the dim-520 one is unitary to rounding
    d = displacement(0.5, 520).entries
    assert np.abs((d.conj().T @ d - np.eye(520))[:200, :200]).max() < 1e-13
    # far out every amplitude is 0 in float64, an infinite x included
    assert not np.any(_displacement_amplitudes(np.array([1e4, np.inf]), 40))


def test_displacement_refuses_levels_past_a_subnormal_start():
    # past x = 1416 the start e^{-x/2} is subnormal (0 past 1490): tables
    # below level x/5 are still right, since every amplitude there is under
    # 1e-20, but one that reaches level x/5 would read wrong or zero values
    # (<600|D(39)|600> is 0.0184, not 0)
    with pytest.raises(ValueError, match="normal range"):
        displacement(39.0, 620)
    with pytest.raises(ValueError, match="normal range"):
        _displacement_amplitudes(np.array([1.0, 1500.0]), 300)
    assert not np.any(_displacement_amplitudes(np.array([1500.0]), 299))
    assert np.all(np.isfinite(displacement(39.0, 300).entries))
    # an infinite x reaches no level at all
    assert not np.any(_displacement_amplitudes(np.array([np.inf]), 600))


def test_displacement_protected_block_unitarity():
    # at dim 64 the cutoff tail of a displaced level-n state reaches back into
    # columns n >= 20 for |a| = 2; the measured defect is 3.5e-3 at column 31
    # and < 1e-8 only through column 19
    eye = np.eye(64)
    for t in np.linspace(0.0, 2 * np.pi, 7):
        d = displacement(2.0 * np.exp(1j * t), 64).entries
        gap = np.abs(d.conj().T @ d - eye)
        assert gap[:, :20].max() < 3e-8
    assert gap[:, :32].max() > 1e-4  # the half-block genuinely is not clean
    # a 32-column protected block needs dim >= 96 to be unitary at 1e-8 and
    # dim >= 128 for the squared quantizer to be an involution at 1e-8
    eye = np.eye(128)
    for t in np.linspace(0.0, 2 * np.pi, 5):
        a = 2.0 * np.exp(1j * t)
        d = displacement(a, 128).entries
        assert np.abs((d.conj().T @ d - eye)[:, :32]).max() < 1e-8
        q = math.pi * quantizer(a, 128).entries
        assert np.abs((q @ q - eye)[:, :32]).max() < 1e-8


def test_displacement_composition():
    # D(a) D(b) = e^{i Im(a conj(b))} D(a+b)
    rng = np.random.default_rng(3)
    for _ in range(6):
        a, b = (complex(*rng.uniform(-1, 1, 2)) for _ in range(2))
        lhs = displacement(a, 64).entries @ displacement(b, 64).entries
        rhs = np.exp(1j * (a * b.conjugate()).imag) * displacement(a + b, 64).entries
        assert np.abs((lhs - rhs)[:, :32]).max() < 1e-7
    d = displacement(0.8 - 0.5j, 48)
    prod = d.entries @ displacement(-(0.8 - 0.5j), 48).entries
    assert np.abs((prod - np.eye(48))[:, :20]).max() < 1e-8


def test_parity_conjugates_displacement():
    # Pi D(b) = D(-b) Pi holds entrywise even after truncation
    for b in (0.7 - 0.3j, 1.5j, -2.1):
        pi = parity(40).entries
        lhs = pi @ displacement(b, 40).entries
        rhs = displacement(-b, 40).entries @ pi
        assert np.max(np.abs(lhs - rhs)) < 1e-15


def hermite_wavefunctions(k_max, q):
    out = [np.pi**-0.25 * np.exp(-q * q / 2)]
    if k_max >= 1:
        out.append(math.sqrt(2) * q * out[0])
    for j in range(1, k_max):
        out.append(math.sqrt(2 / (j + 1)) * q * out[-1]
                   - math.sqrt(j / (j + 1)) * out[-2])
    return out


def test_quantizer_position_kernel():
    # D Pi D^H sends |q'> to e^{2 i p0 (q' - q0)} |2 q0 - q'> with
    # q0 = sqrt(2) Re a, p0 = sqrt(2) Im a, so the quantizer matrix elements
    # are position-space integrals against reflected Hermite functions
    a = 0.3 + 0.2j
    q0, p0 = math.sqrt(2) * a.real, math.sqrt(2) * a.imag
    q = np.linspace(-8.0, 8.0, 4001)
    psi = hermite_wavefunctions(5, q)
    psi_ref = hermite_wavefunctions(5, 2 * q0 - q)
    qz = quantizer(a, 64)
    assert qz.hermitian
    phase = np.exp(2j * p0 * (q - q0))
    for m in range(6):
        for n in range(6):
            val = np.trapezoid(psi[m] * phase * psi_ref[n], q) / math.pi
            assert abs(val - qz.entries[m, n]) < 1e-6
    # vacuum diagonal in closed form; the trace itself is not stable under
    # truncation (alternating parity sum)
    assert abs(qz.entries[0, 0] - math.exp(-2 * abs(a) ** 2) / math.pi) < 1e-12


def test_luders_collapse():
    plus = DensityMatrix.from_state([1.0, 1.0, 0.0])
    post, prob = luders_collapse(plus, number_projector(0, 3))
    assert abs(prob - 0.5) < 1e-12
    assert np.allclose(post.entries, number_projector(0, 3).entries)
    with pytest.raises(CollapseError):
        luders_collapse(plus, number_projector(2, 3))
    # a non-trivial projector keeps coherence inside its range
    p01 = FockOperator(np.diag([1.0, 1.0, 0.0]).astype(complex), hermitian=True)
    state = DensityMatrix.from_state([1.0, 1.0, 1.0])
    post, prob = luders_collapse(state, p01)
    assert abs(prob - 2.0 / 3.0) < 1e-12
    assert abs(post.entries[0, 1] - 0.5) < 1e-12
    assert abs(post.entries[2, 2]) < 1e-15


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(FockOperator(np.array([[0.5, 0.4], [0.1, 0.5]])))
    with pytest.raises(ValueError):
        DensityMatrix(FockOperator(0.5 * np.eye(3)))
    with pytest.raises(ValueError):
        DensityMatrix(FockOperator(np.diag([1.5, -0.5]).astype(complex)))
    padded = np.zeros((40, 40), dtype=complex)
    padded[:2, :2] = np.diag([1.5, -0.5])
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(FockOperator(padded))
    drift = np.diag([0.7, 0.3]).astype(complex) * (1 + 5e-7)
    rho = DensityMatrix(FockOperator(drift))
    assert abs(np.trace(rho.entries) - 1.0) < 1e-14
    # a residue under the density check's 1e-10 survives renormalization:
    # the renormalized copy keeps the caller's unflagged operator
    skew = np.diag([0.6, 0.4 + 1e-9]).astype(complex)
    skew[0, 1] = 5e-11
    rho = DensityMatrix(FockOperator(skew))
    assert not rho.op.hermitian
    assert abs(np.trace(rho.entries) - 1.0) < 1e-14


def test_tensor_layout():
    # second mode runs fastest: |n1, n2> sits at index n1 * dim + n2
    dim = 4
    p = tensor(number_projector(1, dim), number_projector(3, dim))
    assert p.modes == 2 and p.dim == dim
    idx = 1 * dim + 3
    expect = np.zeros((dim * dim, dim * dim))
    expect[idx, idx] = 1.0
    assert np.allclose(p.entries, expect)
    assert p.hermitian
    with pytest.raises(ValueError):
        tensor(number_projector(0, 3), number_projector(0, 4))
    with pytest.raises(ValueError):
        tensor(p, number_projector(0, 4))


def test_bell_pair_state():
    rho = bell_pair_state(8)
    assert rho.modes == 2 and rho.dim == 8 and rho.op.hermitian
    assert np.trace(rho.entries) == 1.0  # nothing left to renormalize
    vec = np.zeros(64)
    vec[0 * 8 + 1], vec[1 * 8 + 0] = 1.0 / math.sqrt(2), -1.0 / math.sqrt(2)
    assert np.max(np.abs(rho.entries - np.outer(vec, vec.conj()))) < 1e-15
    purity = trace_product(rho.op, rho.op).real
    assert abs(purity - 1.0) < 1e-12
    # one excitation shared between the modes
    n1 = tensor(FockOperator(np.diag(np.arange(8.0) + 0j), hermitian=True),
                identity(8))
    assert abs(trace_product(rho.op, n1) - 0.5) < 1e-12
    # antisymmetric under exchanging the modes
    swapped = rho.entries.reshape(8, 8, 8, 8).transpose(1, 0, 3, 2).reshape(64, 64)
    assert np.allclose(swapped, rho.entries)


def test_trace_product():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    assert abs(trace_product(FockOperator(a), FockOperator(b)) - np.trace(a @ b)) < 1e-12
    assert abs(trace_product(a, b) - np.trace(a @ b)) < 1e-12


def test_sequential_commuting_measurements():
    # collapsing on one of two commuting projectors, then measuring the other,
    # reproduces the joint probability of the pair
    rho = DensityMatrix.from_state(np.array([1.0, 2.0, 0.5, -1.0]) / math.sqrt(6.25))
    pa = FockOperator(np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex), hermitian=True)
    pb = FockOperator(np.diag([0.0, 1.0, 0.0, 1.0]).astype(complex), hermitian=True)
    post, prob_a = luders_collapse(rho, pa)
    joint = prob_a * trace_product(post.op, pb).real
    direct = trace_product(rho.op, pa @ pb).real
    assert abs(joint - direct) < 1e-12
