"""Truncated Fock-space operator algebra.

Number projectors, parity, displacement operators from one bounded amplitude
recurrence over the levels they read, tensor products and traces. Operators
are dense complex matrices on the first `dim` levels; two-mode operators
live on the Kronecker basis |n1, n2> with n2 fastest.

Conventions: hbar = 1 and the length scale is 1, so alpha = (q + i p)/sqrt(2)
is dimensionless.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .specfun import _recurrence_start

__all__ = [
    "FockOperator",
    "DensityMatrix",
    "bell_pair_state",
    "displacement",
    "identity",
    "number_projector",
    "parity",
    "tensor",
    "trace_product",
]


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
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        if self.hermitian:
            # every row and column outside the support is zero, so the
            # support block holds the whole residue
            block = entries[np.ix_(self.support, self.support)]
            residue = np.max(np.abs(block - block.conj().T), initial=0.0)
            if not residue <= 1e-12:  # a NaN entry fails too
                raise ValueError(f"hermitian flag set but residue {residue:.2e}")

    @property
    def dim(self):
        """Per-mode truncation size."""
        side = self.entries.shape[0]
        return side if self.modes == 1 else math.isqrt(side)

    @cached_property
    def support(self):
        """Basis indices of the rows and columns that hold a nonzero entry."""
        nonzero = self.entries != 0
        live = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
        live.setflags(write=False)
        return live

    def __matmul__(self, other):
        self._compatible(other)
        return FockOperator(self.entries @ other.entries, self.modes)

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
        # a flagged operator already passed FockOperator's stricter 1e-12 check
        if not self.op.hermitian:
            residue = np.max(np.abs(entries - entries.conj().T))
            if not residue <= 1e-10:
                raise ValueError(
                    f"density matrix must be hermitian, residue {residue:.2e}")
        tr = float(np.real(np.trace(entries)))
        if not abs(tr - 1.0) <= 1e-6:
            raise ValueError(f"trace {tr} too far from 1 to renormalize")
        if abs(tr - 1.0) > 0:
            op = FockOperator(entries / tr, self.op.modes, self.op.hermitian)
            object.__setattr__(self, "op", op)
        # the spectrum is that of the occupied block plus zeros
        live = self.op.support
        lowest = float(np.min(np.linalg.eigvalsh(self.op.entries[np.ix_(live, live)])))
        if not lowest >= -1e-10:
            raise ValueError(f"negative eigenvalue {lowest:.2e}")

    @classmethod
    def from_state(cls, vec, modes=1):
        vec = np.asarray(vec, dtype=complex)
        norm = np.linalg.norm(vec)
        if not 0.0 < norm < math.inf:
            raise ValueError(f"state vector norm {norm} is not positive and finite")
        vec = vec / norm
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


def _displacement_amplitudes(x, top, n_max=None):
    """B[n, m, i] = e^{-x/2} sqrt(n!/m!) x^{(m-n)/2} L_n^{(m-n)}(x) at a 1-D x[i].

    |<m|D(alpha)|n>| up to sign at x = |alpha|^2 (Cahill and Glauber), for
    n <= m <= top and n <= n_max (default top); zero below the diagonal.
    Laguerre's recurrence runs on B itself, one row n at a time over every
    column m at once,
        B[n+1, m] = ((m + n - x) B[n, m-1] - sqrt(n (m-1)) B[n-1, m-2]) / sqrt((n+1) m),
    from B[0, m] = e^{-x/2} x^{m/2} / sqrt(m!), a running product. Every B is
    an element of a unitary, so it lies in [-1, 1] and no factor overflows.
    The start is specfun._recurrence_start's, as for the table's diagonal,
    the scaled Laguerre values.
    """
    n_max = top if n_max is None else min(n_max, top)
    start, x, scale = _recurrence_start(top, x)
    cols = np.arange(top + 1.0)
    root = np.sqrt(cols)
    rows = np.arange(n_max)[:, None]
    # [n, m] coefficients of the step to row n + 1; column 0 is never read
    inv = np.divide(1.0, root[rows + 1] * root, out=np.zeros((n_max, top + 1)),
                    where=cols > 0)
    gain = (cols + rows) * inv
    back = root[rows] * np.sqrt(np.maximum(cols - 1.0, 0.0)) * inv
    kernel = gain[..., None] - inv[..., None] * x
    table = np.zeros((n_max + 1, top + 1, x.size))
    first = table[0]
    first[0] = start
    first[1:] = np.multiply.outer(1.0 / root[1:], np.sqrt(x))
    for m in range(top):
        first[m + 1] *= first[m]
    for n in range(n_max):
        new = table[n + 1, n + 1:]
        np.multiply(kernel[n, n + 1:], table[n, n:top], out=new)
        if n:
            new -= back[n, n + 1:, None] * table[n - 1, n - 1:top - 1]
    if scale is not None:
        table /= scale
    return table


def _displacement_entries(alpha, dim):
    """D(alpha) entries, shape alpha.shape + (dim, dim).

    <m|D(alpha)|n> = u^m B[n, m] conj(u)^n on and below the diagonal and
    u^m (-1)^(n-m) B[m, n] conj(u)^n above it, with u = alpha/|alpha| (1 where
    |alpha|^2 underflows to 0, which leaves no off-diagonal B and where
    1/|alpha| may overflow): D(alpha) is D(|alpha|) rotated by the phase,
    whose powers are running products. The result views a table whose level
    axes lead, so every pass runs along the points.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    flat = np.asarray(alpha, dtype=complex).ravel()
    with np.errstate(over="ignore"):  # past float64, |alpha| and x read as inf
        r = np.abs(flat)
        x = r * r
    amp = _displacement_amplitudes(x, dim - 1)
    signs = (-1.0) ** np.arange(dim)
    above = np.triu(np.outer(signs, signs), 1)[..., None]
    u = np.divide(flat, r, out=np.ones_like(flat), where=x > 0)
    phase = np.empty((dim, flat.size), dtype=complex)
    phase[0] = 1.0
    for m in range(1, dim):
        np.multiply(phase[m - 1], u, out=phase[m])
    entries = phase[:, None] * phase.conj()
    entries[np.arange(dim), np.arange(dim)] = 1.0  # |u|^2n, exactly 1 in full
    entries *= amp.transpose(1, 0, 2) + above * amp
    return np.moveaxis(entries.reshape(dim, dim, *np.shape(alpha)), (0, 1), (-2, -1))


def displacement(alpha, dim):
    """D(alpha) on the truncated basis: _displacement_entries at one alpha."""
    return FockOperator(_displacement_entries(complex(alpha), dim))


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


def bell_pair_state(dim):
    """(|0>|1> - |1>|0>)/sqrt(2) as a two-mode density matrix.

    The projector's entries are written out as exactly +-1/2, so its trace
    is exactly one: DensityMatrix keeps it as built, with no renormalized
    copy to check for hermiticity a second time.
    """
    if dim < 2:
        raise ValueError("need at least two levels per mode")
    entries = np.zeros((dim * dim, dim * dim), dtype=complex)
    pair = np.ix_([1, dim], [1, dim])  # |0>|1> and |1>|0>, n2 fastest
    entries[pair] = [[0.5, -0.5], [-0.5, 0.5]]
    return DensityMatrix(FockOperator(entries, modes=2, hermitian=True))


def trace_product(a, b):
    """tr(A B) of two FockOperators or DensityMatrices."""
    return complex(np.einsum("ij,ji->", a.entries, b.entries))
