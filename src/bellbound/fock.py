"""Truncated Fock-space operator algebra.

Number projectors, parity, displacement operators in closed form, the
displaced-parity quantizer, tensor products, traces and projective state
collapse. Operators are dense complex matrices on the first `dim` levels;
two-mode operators live on the Kronecker basis |n1, n2> with n2 fastest.

Conventions: hbar = 1 and the length scale is 1, so alpha = (q + i p)/sqrt(2)
is dimensionless.
"""

import math
from dataclasses import dataclass

import numpy as np

from .specfun import assoc_laguerre, assoc_laguerre_seq

__all__ = [
    "PROBABILITY_FLOOR",
    "CollapseError",
    "FockOperator",
    "DensityMatrix",
    "bell_pair_state",
    "displacement",
    "displacement_element",
    "identity",
    "luders_collapse",
    "number_projector",
    "parity",
    "quantizer",
    "tensor",
    "trace_product",
]

# Below this outcome probability a collapse is treated as impossible instead
# of dividing by a denormal.
PROBABILITY_FLOOR = 1e-12

class CollapseError(ValueError):
    """Measurement outcome with probability at or below the floor."""


@dataclass(frozen=True)
class FockOperator:
    """Dense complex operator on the truncated oscillator basis."""

    entries: np.ndarray
    modes: int = 1
    hermitian: bool = False

    def __post_init__(self):
        entries = np.array(self.entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("entries must be a square matrix")
        if self.modes not in (1, 2):
            raise ValueError("modes must be 1 or 2")
        if self.modes == 2:
            side = entries.shape[0]
            if math.isqrt(side) ** 2 != side:
                raise ValueError("two-mode entries must have square-number size")
        if self.hermitian:
            residue = np.max(np.abs(entries - entries.conj().T))
            if residue >= 1e-12:
                raise ValueError(f"hermitian flag set but residue {residue:.2e}")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self):
        """Per-mode truncation size."""
        side = self.entries.shape[0]
        return side if self.modes == 1 else math.isqrt(side)

    def dagger(self):
        return FockOperator(self.entries.conj().T, self.modes, self.hermitian)

    def trace(self):
        return complex(np.trace(self.entries))

    def is_projector(self, tol=1e-10):
        p = self.entries
        return bool(np.max(np.abs(p @ p - p)) < tol)

    def __matmul__(self, other):
        self._compatible(other)
        return FockOperator(self.entries @ other.entries, self.modes)

    def __add__(self, other):
        self._compatible(other)
        return FockOperator(self.entries + other.entries, self.modes)

    def __sub__(self, other):
        self._compatible(other)
        return FockOperator(self.entries - other.entries, self.modes)

    def __rmul__(self, scalar):
        return FockOperator(np.asarray(self.entries) * scalar, self.modes)

    def _compatible(self, other):
        if not isinstance(other, FockOperator):
            raise TypeError("expected a FockOperator")
        if other.modes != self.modes or other.entries.shape != self.entries.shape:
            raise ValueError("operator shape or mode count mismatch")


@dataclass(frozen=True)
class DensityMatrix:
    """Trace-one positive operator; renormalizes a small truncation tail."""

    op: FockOperator

    def __post_init__(self):
        entries = self.op.entries
        residue = np.max(np.abs(entries - entries.conj().T))
        if residue >= 1e-10:
            raise ValueError(f"density matrix must be hermitian, residue {residue:.2e}")
        tr = float(np.real(np.trace(entries)))
        if abs(tr - 1.0) > 1e-6:
            raise ValueError(f"trace {tr} too far from 1 to renormalize")
        if abs(tr - 1.0) > 0:
            op = FockOperator(entries / tr, self.op.modes, hermitian=True)
            object.__setattr__(self, "op", op)
        # the spectrum is that of the occupied block plus zeros
        ent = self.op.entries
        live = np.flatnonzero(np.any(ent != 0, axis=0) | np.any(ent != 0, axis=1))
        lowest = float(np.min(np.linalg.eigvalsh(ent[np.ix_(live, live)])))
        if lowest < -1e-10:
            raise ValueError(f"negative eigenvalue {lowest:.2e}")

    @classmethod
    def from_state(cls, vec, modes=1):
        vec = np.asarray(vec, dtype=complex)
        vec = vec / np.linalg.norm(vec)
        return cls(FockOperator(np.outer(vec, vec.conj()), modes, hermitian=True))

    @property
    def entries(self):
        return self.op.entries

    @property
    def dim(self):
        return self.op.dim

    @property
    def modes(self):
        return self.op.modes


def identity(dim, modes=1):
    side = dim if modes == 1 else dim * dim
    return FockOperator(np.eye(side, dtype=complex), modes, hermitian=True)


def number_projector(n, dim):
    """Rank-one projector |n><n|."""
    if not 0 <= n < dim:
        raise ValueError(f"level {n} outside truncation {dim}")
    entries = np.zeros((dim, dim), dtype=complex)
    entries[n, n] = 1.0
    return FockOperator(entries, hermitian=True)


def parity(dim):
    """diag(+1, -1, +1, ...), the photon-number parity."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    signs = (-1.0) ** np.arange(dim)
    return FockOperator(np.diag(signs.astype(complex)), hermitian=True)


def displacement_element(row, col, alpha):
    """<row| D(alpha) |col> in closed form.

    With n = min(row, col) and a = |row - col| the element is
    e^{-|alpha|^2/2} sqrt(n!/(n+a)!) L_n^{(a)}(|alpha|^2) times alpha^a above
    the diagonal mirror (row >= col) and (-conj(alpha))^a below it, from
    <n|D(alpha)|n+a> = conj(<n+a|D(-alpha)|n>).
    """
    if row < 0 or col < 0:
        raise ValueError("indices must be nonnegative")
    alpha = complex(alpha)
    n = min(row, col)
    a = abs(row - col)
    x = abs(alpha) ** 2
    amp = math.exp(-0.5 * x + 0.5 * (math.lgamma(n + 1) - math.lgamma(n + a + 1)))
    amp *= assoc_laguerre(n, a, x)
    shift = alpha**a if row >= col else (-alpha.conjugate()) ** a
    return amp * shift


def _displacement_entries(alpha, dim):
    """D(alpha) entries, diagonal by diagonal, shape alpha.shape + (dim, dim)."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    alpha = np.asarray(alpha, dtype=complex)[..., None]
    x = np.hypot(alpha.real, alpha.imag) ** 2
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(dim)])
    entries = np.zeros(alpha.shape[:-1] + (dim, dim), dtype=complex)
    for a in range(dim):
        n = np.arange(dim - a)
        amp = np.exp(-0.5 * x + 0.5 * (log_fact[n] - log_fact[n + a]))
        amp = amp * np.moveaxis(assoc_laguerre_seq(dim - 1 - a, a, x[..., 0]), 0, -1)
        entries[..., n + a, n] = amp * alpha**a
        if a > 0:
            entries[..., n, n + a] = amp * (-alpha.conj()) ** a
    return entries


def displacement(alpha, dim):
    """D(alpha) on the truncated basis: _displacement_entries at one alpha."""
    return FockOperator(_displacement_entries(complex(alpha), dim))


def quantizer(alpha, dim):
    """(1/pi) D(alpha) Pi D(alpha)^dagger, the displaced-parity kernel.

    pi times this operator is the parity reflected about alpha, a unitary
    involution; the 1/pi prefactor makes it the kernel of the symbol maps.
    """
    d = displacement(alpha, dim).entries
    signs = (-1.0) ** np.arange(dim)
    entries = (d * signs[None, :]) @ d.conj().T / math.pi
    entries = 0.5 * (entries + entries.conj().T)
    return FockOperator(entries, hermitian=True)


def luders_collapse(rho, p):
    """Post-measurement state and outcome probability (P rho P / tr, tr)."""
    prob = trace_product(rho.op, p)
    if abs(prob.imag) > 1e-9:
        raise ValueError("projector and state gave a complex probability")
    prob = prob.real
    if prob <= PROBABILITY_FLOOR:
        raise CollapseError(f"outcome probability {prob:.3e} below floor")
    post = p.entries @ rho.entries @ p.entries / prob
    post = 0.5 * (post + post.conj().T)
    state = DensityMatrix(FockOperator(post, rho.modes, hermitian=True))
    return state, prob


def tensor(a, b):
    """Kronecker product on the two-mode basis, second index fastest."""
    if a.modes != 1 or b.modes != 1:
        raise ValueError("tensor expects single-mode factors")
    if a.dim != b.dim:
        raise ValueError("tensor factors must share the truncation")
    return FockOperator(
        np.kron(a.entries, b.entries), modes=2,
        hermitian=a.hermitian and b.hermitian,
    )


def _pair_vector(dim):
    """(|0>|1> - |1>|0>)/sqrt(2) on the two-mode basis, n2 fastest."""
    vec = np.zeros(dim * dim, dtype=complex)
    vec[0 * dim + 1] = 1.0 / math.sqrt(2)
    vec[1 * dim + 0] = -1.0 / math.sqrt(2)
    return vec


def bell_pair_state(dim):
    """(|0>|1> - |1>|0>)/sqrt(2) as a two-mode density matrix."""
    if dim < 2:
        raise ValueError("need at least two levels per mode")
    return DensityMatrix.from_state(_pair_vector(dim), modes=2)


def trace_product(a, b):
    """tr(A B) for FockOperator or raw array arguments."""
    am = a.entries if hasattr(a, "entries") else np.asarray(a)
    bm = b.entries if hasattr(b, "entries") else np.asarray(b)
    return complex(np.einsum("ij,ji->", am, bm))
