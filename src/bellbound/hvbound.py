"""Deterministic hidden-variable bounds for projective Bell operators.

A Bell operator decomposed as B = sum_u w_u P_u over projectors admits the
deterministic bound sum_u w_u Tr(rho_u B) Tr(rho P_u), with rho_u the state
after collapsing on P_u. Using P_u^2 = P_u the bound telescopes to
sum_{u,v} w_u w_v Tr(rho P_u P_v P_u), and its gap to the second moment
Tr(rho B^2) is the commutator double sum computed by bound_difference; the
gap closes exactly when the projectors commute.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .fock import (
    CollapseError,
    FockOperator,
    luders_collapse,
    tensor,
    trace_product,
)

__all__ = [
    "BellReport",
    "Decomposition",
    "bell_report",
    "bound_difference",
    "chsh_decomposition",
    "hv_bound",
    "qm_mean",
]


@dataclass(frozen=True)
class Decomposition:
    """Weighted projector decomposition B = sum_u w_u P_u.

    check_block limits the idempotence and reconstruction checks to the
    leading block of that size, for projectors assembled on a truncated basis
    whose high corner is not faithful.
    """

    terms: tuple
    target: FockOperator
    label: str = ""
    check_block: Optional[int] = None

    def __post_init__(self):
        terms = tuple((float(w), p) for w, p in self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise ValueError("decomposition needs at least one term")
        blk = slice(None) if self.check_block is None else slice(self.check_block)
        for _, p in terms:
            if p.entries.shape != self.target.entries.shape or p.modes != self.target.modes:
                raise ValueError("projector shape or mode count mismatch")
            res = p.entries @ p.entries - p.entries
            if np.max(np.abs(res[blk, blk])) >= 1e-10:
                raise ValueError("term is not idempotent")
        total = sum(w * p.entries for w, p in terms)
        gap = np.max(np.abs((total - self.target.entries)[blk, blk]))
        if gap >= 1e-8:
            raise ValueError(f"terms reconstruct the target only to {gap:.2e}")

    @property
    def weights(self):
        return np.array([w for w, _ in self.terms])

    @property
    def projectors(self):
        return tuple(p for _, p in self.terms)


def qm_mean(rho, op):
    """Tr(rho B) with a guard on the imaginary residue."""
    val = trace_product(rho.op if hasattr(rho, "op") else rho, op)
    if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
        raise ValueError(f"expectation came out complex ({val.imag:.2e})")
    return val.real


def _hv_bound_terms(rho, decomposition):
    """Deterministic bound plus the count of outcomes below the floor."""
    total = 0.0
    skipped = 0
    for w, p in decomposition.terms:
        try:
            post, prob = luders_collapse(rho, p)
        except CollapseError:
            skipped += 1
            continue
        total += w * qm_mean(post, decomposition.target) * prob
    return total, skipped


def hv_bound(rho, decomposition):
    """sum_u w_u Tr(rho_u B) Tr(rho P_u) over the decomposition."""
    return _hv_bound_terms(rho, decomposition)[0]


def bound_difference(rho, decomposition):
    """The literal commutator double sum sum_{u,v} w_u w_v Tr(rho P_u [P_u, P_v])."""
    rho_m = rho.entries
    terms = decomposition.terms
    total = 0.0 + 0.0j
    for wu, pu in terms:
        left = rho_m @ pu.entries
        for wv, pv in terms:
            comm = pu.entries @ pv.entries - pv.entries @ pu.entries
            total += wu * wv * np.einsum("ij,ji->", left, comm)
    if abs(total.imag) > 1e-9 * max(1.0, abs(total.real)):
        raise ValueError("commutator sum came out complex")
    return total.real


def _spin_block(direction, dim):
    """direction . sigma on the first two levels, +1 on the rest."""
    nx, ny, nz = (float(c) for c in direction)
    norm = math.sqrt(nx * nx + ny * ny + nz * nz)
    if abs(norm - 1.0) > 1e-12:
        raise ValueError("spin direction must be a unit vector")
    m = np.eye(dim, dtype=complex)
    m[:2, :2] = np.array([[nz, nx - 1j * ny], [nx + 1j * ny, -nz]])
    return m


def _spin_projectors(direction, dim):
    a = _spin_block(direction, dim)
    eye = np.eye(dim, dtype=complex)
    up = FockOperator(0.5 * (eye + a), hermitian=True)
    # the complement keeps nothing outside the qubit block
    down = FockOperator(0.5 * (eye - a), hermitian=True)
    return up, down

TSIRELSON_SETTINGS = {
    "a": (0.0, 0.0, 1.0),
    "a'": (1.0, 0.0, 0.0),
    "b": (-1.0 / math.sqrt(2), 0.0, -1.0 / math.sqrt(2)),
    "b'": (1.0 / math.sqrt(2), 0.0, -1.0 / math.sqrt(2)),
}


def chsh_decomposition(dim=2, settings=None):
    """The four-correlator Bell operator as 16 weighted product projectors.

    Each local observable is dichotomous (+1/-1) at any truncation: the spin
    part lives on the first two levels and the remaining levels are assigned
    +1. Default settings realize the maximal quantum value 2 sqrt(2) on the
    two-level singlet.
    """
    if dim < 2:
        raise ValueError("need at least two levels per mode")
    if settings is None:
        settings = TSIRELSON_SETTINGS
    proj = {k: _spin_projectors(v, dim) for k, v in settings.items()}
    pair_sign = {("a", "b"): 1.0, ("a", "b'"): 1.0, ("a'", "b"): 1.0,
                 ("a'", "b'"): -1.0}
    terms = []
    for (left, right), eps in pair_sign.items():
        for s, ps in zip((1.0, -1.0), proj[left]):
            for t, qt in zip((1.0, -1.0), proj[right]):
                terms.append((eps * s * t, tensor(ps, qt)))
    target = sum(w * p.entries for w, p in terms)
    target_op = FockOperator(0.5 * (target + target.conj().T), modes=2,
                             hermitian=True)
    return Decomposition(tuple(terms), target_op, label="chsh")


@dataclass(frozen=True)
class BellReport:
    """Quantum mean, second moment and deterministic bound of one operator."""

    label: str
    qm_mean: float
    qm_second_moment: float
    hv_bound: float
    bound_difference: float
    skipped_terms: int
    notes: dict = field(default_factory=dict)


def bell_report(rho, decomposition):
    """Evaluate one state against one decomposition, with cross-checks.

    The commutator double sum must reproduce Tr(rho B^2) - hv_bound; a
    mismatch means the decomposition or the collapse arithmetic is wrong, so
    it raises instead of reporting nonsense.
    """
    mean = qm_mean(rho, decomposition.target)
    second = qm_mean(rho, decomposition.target @ decomposition.target)
    hv, skipped = _hv_bound_terms(rho, decomposition)
    diff = bound_difference(rho, decomposition)
    gap = abs(diff - (second - hv))
    scale = max(1.0, abs(second), abs(hv))
    if skipped == 0 and gap > 1e-8 * scale:
        raise ValueError(f"commutator sum disagrees with moments by {gap:.2e}")
    return BellReport(
        label=decomposition.label,
        qm_mean=mean,
        qm_second_moment=second,
        hv_bound=hv,
        bound_difference=diff,
        skipped_terms=skipped,
        notes={"identity_residual": gap},
    )
