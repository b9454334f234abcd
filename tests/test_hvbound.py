"""Deterministic bounds against projective decompositions."""

import math

import numpy as np
import pytest

from bellbound.fock import (
    DensityMatrix,
    FockOperator,
    bell_pair_state,
    identity,
    number_projector,
)
from bellbound.hvbound import (
    TSIRELSON_SETTINGS,
    BellReport,
    Decomposition,
    bell_report,
    bound_difference,
    chsh_decomposition,
    collapsed_operator,
    hv_bound,
    qm_mean,
)

from oracles import (
    CollapseError,
    commuting_joint_distribution,
    luders_collapse,
    padded_chsh_decomposition,
    random_family,
)


def random_density(dim, seed, modes=1):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    return DensityMatrix(FockOperator(rho, modes=modes, hermitian=True))


def diag_projector(levels, dim):
    entries = np.zeros((dim, dim), dtype=complex)
    for k in levels:
        entries[k, k] = 1.0
    return FockOperator(entries, hermitian=True)


def test_decomposition_validation():
    p0 = number_projector(0, 3)
    p1 = number_projector(1, 3)
    p2 = number_projector(2, 3)
    target = FockOperator(np.diag([1.0, -2.0, 0.5]).astype(complex), hermitian=True)
    dec = Decomposition(((1.0, p0), (-2.0, p1), (0.5, p2)), target, label="diag")
    assert np.allclose(dec.weights, [1.0, -2.0, 0.5])
    assert len(dec.projectors) == 3
    not_proj = FockOperator(0.5 * np.eye(3, dtype=complex), hermitian=True)
    with pytest.raises(ValueError):
        Decomposition(((1.0, not_proj),), target)
    with pytest.raises(ValueError):
        Decomposition(((1.0, p0),), target)  # does not reconstruct
    with pytest.raises(ValueError):
        Decomposition((), target)
    # idempotent but oblique: P rho P is then no collapsed state
    oblique = FockOperator([[1.0, 1.0], [0.0, 0.0]])
    rest = FockOperator([[0.0, -1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="term 0 projector is not hermitian"):
        Decomposition(((1.0, oblique), (-1.0, rest)), oblique - rest)


def test_commuting_decomposition_closes_gap():
    # commuting projectors: the bound equals the second moment and the
    # commutator sum vanishes
    dim = 5
    ps = [number_projector(n, dim) for n in range(dim)]
    weights = [1.0, -0.7, 0.4, 2.0, -1.2]
    target = FockOperator(np.diag(np.array(weights, dtype=complex)), hermitian=True)
    dec = Decomposition(tuple(zip(weights, ps)), target)
    rho = random_density(dim, 31)
    second = qm_mean(rho, target @ target)
    assert abs(hv_bound(rho, dec) - second) < 1e-10
    assert abs(bound_difference(rho, dec)) < 1e-10


def test_chsh_tsirelson_point():
    dec = chsh_decomposition()
    assert len(dec.terms) == 16
    # every local observable is dichotomous: B^2 = 4 I + commutator part, so
    # check directly on the reconstruction
    singlet = bell_pair_state(2)
    mean = qm_mean(singlet, dec.target)
    assert abs(mean - 2.0 * math.sqrt(2.0)) < 1e-12
    assert abs(hv_bound(singlet, dec) - 4.0) < 1e-12
    assert abs(qm_mean(singlet, dec.target @ dec.target) - 8.0) < 1e-12


def test_chsh_bound_is_state_independent():
    dec = chsh_decomposition()
    for seed in range(4):
        rho = random_density(4, seed, modes=2)
        assert abs(hv_bound(rho, dec) - 4.0) < 1e-10


def test_padded_chsh_keeps_the_qubit_numbers():
    # levels the singlet never occupies, on which every observable is +1,
    # move none of the numbers: the bound, the mean and the collapse of the
    # operator to hv_bound times the identity
    for dim in (3, 8):
        dec = padded_chsh_decomposition(dim)
        rho = bell_pair_state(dim)
        hv = hv_bound(rho, dec)
        assert abs(hv - 4.0) < 1e-10
        assert abs(qm_mean(rho, dec.target) - 2.0 * math.sqrt(2.0)) < 1e-12
        collapsed = collapsed_operator(dec).entries
        assert np.max(np.abs(collapsed - hv * np.eye(dim * dim))) < 1e-10


def test_chsh_inputs_refused_by_name():
    # a NaN passes every `residue > tol` refusal, so each check is written
    # to refuse it
    nan_direction = {**TSIRELSON_SETTINGS, "a": (math.nan, 0.0, 0.0)}
    with pytest.raises(ValueError, match="unit vector"):
        chsh_decomposition(settings=nan_direction)
    nan_entries = FockOperator(np.full((2, 2), math.nan, dtype=complex))
    with pytest.raises(ValueError, match="idempotent"):
        Decomposition(((1.0, nan_entries),), identity(2))
    with pytest.raises(ValueError, match="reconstruct"):
        Decomposition(((1.0, identity(2)),), nan_entries)
    lacking = {k: v for k, v in TSIRELSON_SETTINGS.items() if k != "b'"}
    with pytest.raises(ValueError, match="direction \"b'\""):
        chsh_decomposition(settings=lacking)


def test_bell_report_consistency():
    dec = chsh_decomposition()
    singlet = bell_pair_state(2)
    rep = bell_report(singlet, dec)
    assert isinstance(rep, BellReport)
    assert rep.label == "chsh"
    assert abs(rep.qm_mean**2 - rep.qm_second_moment) < 1e-10  # eigenstate
    assert abs(rep.bound_difference - (rep.qm_second_moment - rep.hv_bound)) < 1e-8
    assert abs(rep.bound_difference - 4.0) < 1e-10
    assert rep.notes["identity_residual"] < 1e-10


def collapse_route(rho, dec):
    """sum_u w_u Tr(rho_u B) Tr(rho P_u), skipping outcomes below the floor."""
    total = 0.0
    for w, p in dec.terms:
        try:
            post, prob = luders_collapse(rho, p)
        except CollapseError:
            continue
        total += w * qm_mean(post, dec.target) * prob
    return total


def random_decomposition(rng, dim):
    # two random bases, so the projectors do not commute and the bound
    # differs from the second moment
    fam = random_family(rng, dim) + random_family(rng, dim)
    weights = rng.uniform(0.5, 1.5, size=2 * dim)
    target = FockOperator(sum(w * p.entries for w, p in zip(weights, fam)),
                          hermitian=True)
    return Decomposition(tuple(zip(weights, fam)), target)


def test_hv_bound_matches_collapse_route():
    rng = np.random.default_rng(27)
    for dim in range(2, 7):
        for _ in range(4):
            dec = random_decomposition(rng, dim)
            rho = random_density(dim, int(rng.integers(1 << 30)))
            assert abs(hv_bound(rho, dec) - collapse_route(rho, dec)) < 1e-12


def test_zero_probability_outcomes_add_nothing():
    # the vacuum never reaches levels 1 and 2: the collapse route skips
    # those outcomes, and in Tr(rho C) they add exactly 0
    dim = 3
    ps = [number_projector(n, dim) for n in range(dim)]
    weights = [0.8, -0.3, 1.1]
    target = FockOperator(np.diag(np.array(weights, dtype=complex)), hermitian=True)
    dec = Decomposition(tuple(zip(weights, ps)), target)
    vacuum = DensityMatrix.from_state([1.0, 0.0, 0.0])
    rep = bell_report(vacuum, dec)
    # only the vacuum term survives: w_0 * Tr(rho_0 B) * p_0 = 0.8^2
    assert abs(rep.hv_bound - 0.64) < 1e-12
    assert abs(rep.hv_bound - collapse_route(vacuum, dec)) < 1e-12
    assert rep.notes["identity_residual"] < 1e-12


def test_hv_bound_is_linear_in_the_state():
    rng = np.random.default_rng(12)
    dim, p = 5, 0.3
    dec = random_decomposition(rng, dim)
    rho1, rho2 = random_density(dim, 40), random_density(dim, 41)
    mix = DensityMatrix(FockOperator(p * rho1.entries + (1 - p) * rho2.entries,
                                     hermitian=True))
    want = p * hv_bound(rho1, dec) + (1 - p) * hv_bound(rho2, dec)
    assert abs(hv_bound(mix, dec) - want) <= 1e-14 * abs(want)


def test_joint_distribution_for_commuting_families():
    dim = 4
    fam_a = [diag_projector((0, 1), dim), diag_projector((2, 3), dim)]
    fam_b = [diag_projector((0, 2), dim), diag_projector((1, 3), dim)]
    rho = random_density(dim, 8)
    joint = commuting_joint_distribution(rho, [fam_a, fam_b], seed=2)
    assert joint.shape == (2, 2)
    assert abs(joint.sum() - 1.0) < 1e-12
    assert np.all(joint > -1e-14)
    for k in range(2):
        assert abs(joint[k, :].sum() - qm_mean(rho, fam_a[k])) < 1e-10
        assert abs(joint[:, k].sum() - qm_mean(rho, fam_b[k])) < 1e-10
    # diagonal joint values are direct products of commuting projectors
    want = qm_mean(rho, fam_a[0] @ fam_b[0])
    assert abs(joint[0, 0] - want) < 1e-10


def test_joint_distribution_rejects_noncommuting():
    dim = 2
    up = FockOperator(np.diag([1.0, 0.0]).astype(complex), hermitian=True)
    down = FockOperator(np.diag([0.0, 1.0]).astype(complex), hermitian=True)
    plus = FockOperator(0.5 * np.ones((2, 2), dtype=complex), hermitian=True)
    minus = FockOperator(np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex),
                         hermitian=True)
    rho = random_density(dim, 3)
    with pytest.raises(ValueError):
        commuting_joint_distribution(rho, [[up, down], [plus, minus]])
    with pytest.raises(ValueError):
        commuting_joint_distribution(rho, [[up, up]])  # not a resolution


def test_qm_mean_guard():
    rho = random_density(3, 1)
    upper = np.triu(np.ones((3, 3), dtype=complex), 1)
    val = qm_mean(rho, FockOperator(upper + upper.conj().T))
    assert isinstance(val, float)
