"""Deterministic hidden-variable bounds for projective Bell operators.

A Bell operator decomposed as B = sum_u w_u P_u over projectors admits the
deterministic bound sum_u w_u Tr(rho_u B) Tr(rho P_u), with rho_u the state
after collapsing on P_u. Since Tr(rho_u B) Tr(rho P_u) = Tr(P_u rho P_u B),
the bound is Tr(rho C), the mean of the one collapsed operator
C = sum_u w_u P_u B P_u, and so linear in rho. An outcome of probability
zero has P_u rho P_u = 0 and adds exactly 0, so no probability floor is
needed. Using P_u^2 = P_u the bound telescopes to
sum_{u,v} w_u w_v Tr(rho P_u P_v P_u), and its gap to the second moment
Tr(rho B^2) is the commutator double sum computed by bound_difference; the
gap closes exactly when the projectors commute.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .fock import FockOperator, tensor, trace_product

__all__ = [
    "BellReport",
    "Decomposition",
    "bell_report",
    "bound_difference",
    "chsh_decomposition",
    "collapsed_operator",
    "hv_bound",
    "qm_mean",
]


@dataclass(frozen=True)
class Decomposition:
    """Weighted projector decomposition B = sum_u w_u P_u."""

    terms: tuple
    target: FockOperator
    label: str = ""

    def __post_init__(self):
        terms = tuple((float(w), p) for w, p in self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise ValueError("decomposition needs at least one term")
        for k, (_, p) in enumerate(terms):
            if p.entries.shape != self.target.entries.shape or p.modes != self.target.modes:
                raise ValueError("projector shape or mode count mismatch")
            res = p.entries @ p.entries - p.entries
            # written so that a NaN residue fails the check too
            if not np.max(np.abs(res)) < 1e-10:
                raise ValueError(f"term {k} is not idempotent")
            # an oblique projector is idempotent too, but P rho P is then no
            # collapsed state; a flagged operator passed the stricter 1e-12
            if not p.hermitian:
                skew = np.max(np.abs(p.entries - p.entries.conj().T))
                if not skew < 1e-10:
                    raise ValueError(f"term {k} projector is not hermitian, "
                                     f"residue {skew:.2e}")
        total = sum(w * p.entries for w, p in terms)
        gap = np.max(np.abs(total - self.target.entries))
        if not gap < 1e-8:
            raise ValueError(f"terms reconstruct the target only to {gap:.2e}")

    @property
    def weights(self):
        return np.array([w for w, _ in self.terms])

    @property
    def projectors(self):
        return tuple(p for _, p in self.terms)


def qm_mean(rho, op):
    """Tr(rho B) with a guard on the imaginary residue."""
    val = trace_product(rho, op)
    if not abs(val.imag) <= 1e-9 * max(1.0, abs(val.real)):
        raise ValueError(f"expectation came out complex ({val.imag:.2e})")
    return val.real


def collapsed_operator(decomposition):
    """C = sum_u w_u P_u B P_u, summed term by term in decomposition order."""
    target = decomposition.target.entries
    collapsed = np.zeros_like(target)
    for w, p in decomposition.terms:
        collapsed += w * (p.entries @ target @ p.entries)
    return FockOperator(collapsed, decomposition.target.modes)


def hv_bound(rho, decomposition):
    """sum_u w_u Tr(rho_u B) Tr(rho P_u) over the decomposition, as Tr(rho C)."""
    return qm_mean(rho, collapsed_operator(decomposition))


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
    if not abs(total.imag) <= 1e-9 * max(1.0, abs(total.real)):
        raise ValueError("commutator sum came out complex")
    return total.real


def _spin_block(direction):
    """direction . sigma on the qubit of levels 0 and 1."""
    nx, ny, nz = (float(c) for c in direction)
    norm = math.sqrt(nx * nx + ny * ny + nz * nz)
    if not abs(norm - 1.0) <= 1e-12:  # a NaN component fails too
        raise ValueError("spin direction must be a unit vector")
    return np.array([[nz, nx - 1j * ny], [nx + 1j * ny, -nz]])


def _spin_projectors(direction):
    a = _spin_block(direction)
    eye = np.eye(2, dtype=complex)
    up = FockOperator(0.5 * (eye + a), hermitian=True)
    down = FockOperator(0.5 * (eye - a), hermitian=True)
    return up, down


TSIRELSON_SETTINGS = {
    "a": (0.0, 0.0, 1.0),
    "a'": (1.0, 0.0, 0.0),
    "b": (-1.0 / math.sqrt(2), 0.0, -1.0 / math.sqrt(2)),
    "b'": (1.0 / math.sqrt(2), 0.0, -1.0 / math.sqrt(2)),
}


def chsh_decomposition(settings=None):
    """The four-correlator Bell operator as 16 weighted product projectors.

    Each local observable is the dichotomous (+1/-1) spin n . sigma on the
    qubit of levels 0 and 1, where the singlet lives, so every projector is
    a 4 x 4 two-mode matrix. `settings` maps each of a, a', b, b' to a unit
    direction; the default realizes the maximal quantum value 2 sqrt(2) on
    the singlet.
    """
    if settings is None:
        settings = TSIRELSON_SETTINGS
    missing = [k for k in ("a", "a'", "b", "b'") if k not in settings]
    if missing:
        raise ValueError(f"settings lack the direction {missing[0]!r}")
    proj = {k: _spin_projectors(v) for k, v in settings.items()}
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
    notes: dict = field(default_factory=dict)


def bell_report(rho, decomposition):
    """Evaluate one state against one decomposition, with cross-checks.

    The commutator double sum must reproduce Tr(rho B^2) - hv_bound; a
    mismatch means the decomposition or the collapse arithmetic is wrong, so
    it raises instead of reporting nonsense.
    """
    mean = qm_mean(rho, decomposition.target)
    second = qm_mean(rho, decomposition.target @ decomposition.target)
    hv = hv_bound(rho, decomposition)
    diff = bound_difference(rho, decomposition)
    gap = abs(diff - (second - hv))
    scale = max(1.0, abs(second), abs(hv))
    if not gap <= 1e-8 * scale:
        raise ValueError(f"commutator sum disagrees with moments by {gap:.2e}")
    return BellReport(
        label=decomposition.label,
        qm_mean=mean,
        qm_second_moment=second,
        hv_bound=hv,
        bound_difference=diff,
        notes={"identity_residual": gap},
    )
