"""Phase-space symbols of truncated Fock operators.

The symbol map used throughout is Smb[A](alpha) = 2 pi Tr(A Delta(alpha))
with Delta the displaced-parity quantizer, and the inverse map
A = integral d^2x Smb(x) Delta(x) over d^2x = dq dp = 2 d^2alpha. Wigner
functions are symbols of density matrices over 2 pi, normalized so that
integral W d^2x = 1.

A rotation-invariant symbol quantizes to an operator diagonal in the number
basis; its eigenvalues are Laguerre transforms of the radial profile and, for
the sign-step profile, coefficients of an explicit generating function.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .fock import FockOperator, quantizer, trace_product
from .quad import IntegrationSpec, integrate_1d
from .specfun import laguerre

__all__ = [
    "RadialSymbol",
    "SpectralExpansion",
    "bell_eigenvalue_generating",
    "quantize_radial",
    "sign_step",
    "symbol_of",
    "unit_symbol",
    "wigner",
]


@dataclass(frozen=True)
class RadialSymbol:
    """Rotation-invariant phase-space profile r -> B(r).

    jumps lists the radii of step discontinuities so quadratures can split
    there; far_value, when set, is the exact constant value for all
    r >= far_radius, which lets the quantizer trade the infinite tail for a
    closed-form contribution.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    description: str = ""
    jumps: tuple = ()
    far_value: Optional[float] = None
    far_radius: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "jumps", tuple(float(j) for j in self.jumps))
        if any(j < 0 for j in self.jumps):
            raise ValueError("jump radii must be nonnegative")
        if self.far_value is not None and self.far_radius < 0:
            raise ValueError("far_radius must be nonnegative")

    def __call__(self, r):
        return self.fn(np.asarray(r, dtype=float))


def unit_symbol():
    """B(r) = 1 everywhere."""
    return RadialSymbol(lambda r: np.ones_like(r), "unit", (), 1.0, 0.0)


def sign_step(r0=0.5):
    """B(r) = -1 inside radius r0 and +1 outside."""
    r0 = float(r0)
    if r0 <= 0:
        raise ValueError("step radius must be positive")
    return RadialSymbol(lambda r: np.where(r < r0, -1.0, 1.0),
                        f"sign step at {r0}", (r0,), 1.0, r0)


def _delta_rows(pts):
    """<m|Delta(alpha)|n> for m, n <= 1 in closed form, shape pts + (2, 2)."""
    # e^{-2|alpha|^2} is exactly 0 from |alpha| = 20 on, so capping the
    # modulus at 30 changes no value; it keeps |alpha|^2 finite, and 0 times
    # (4x - 1) out of NaN, at any finite point
    x = np.minimum(np.abs(pts), 30.0) ** 2
    g = np.exp(-2 * x) / math.pi
    d = np.empty(pts.shape + (2, 2), dtype=complex)
    d[..., 0, 0] = g
    d[..., 1, 1] = g * (4 * x - 1)
    d[..., 1, 0] = 2 * g * pts
    d[..., 0, 1] = 2 * g * np.conj(pts)
    return d


def _support_within_two(entries, modes, dim):
    if modes == 1:
        return bool(np.max(np.abs(entries[2:, :]), initial=0) < 1e-13
                    and np.max(np.abs(entries[:, 2:]), initial=0) < 1e-13)
    r4 = np.abs(entries.reshape(dim, dim, dim, dim))
    for axis in range(4):
        sl = [slice(None)] * 4
        sl[axis] = slice(2, None)
        if r4[tuple(sl)].size and r4[tuple(sl)].max() > 1e-13:
            return False
    return True


def _symbol_values(op, flat_points):
    dim = op.dim
    if op.modes == 1:
        if _support_within_two(op.entries, 1, dim):
            rho = op.entries[:2, :2]
            return 2 * math.pi * np.einsum("nm,pmn->p", rho, _delta_rows(flat_points))
        vals = np.empty(flat_points.shape, dtype=complex)
        for i, a in enumerate(flat_points):
            vals[i] = 2 * math.pi * trace_product(op, quantizer(complex(a), dim))
        return vals
    pref = (2 * math.pi) ** 2
    if _support_within_two(op.entries, 2, dim):
        rho4 = op.entries.reshape(dim, dim, dim, dim)[:2, :2, :2, :2]
        d1 = _delta_rows(flat_points[:, 0])
        d2 = _delta_rows(flat_points[:, 1])
        return pref * np.einsum("abcd,pca,pdb->p", rho4, d1, d2)
    rho4 = op.entries.reshape(dim, dim, dim, dim)
    vals = np.empty(flat_points.shape[0], dtype=complex)
    for i, (a1, a2) in enumerate(flat_points):
        q1 = quantizer(complex(a1), dim).entries
        q2 = quantizer(complex(a2), dim).entries
        vals[i] = pref * np.einsum("abcd,ca,db->", rho4, q1, q2)
    return vals


def symbol_of(op, alpha):
    """Smb[A] at one phase point or an array of them.

    Two-mode operators take points with a trailing axis of length 2. Hermitian
    operators give a real symbol; a residual imaginary part above 1e-9
    (relative) is an error rather than something to discard silently.
    """
    pts = np.asarray(alpha, dtype=complex)
    if op.modes == 2:
        if pts.ndim == 0 or pts.shape[-1] != 2:
            raise ValueError("two-mode symbols take points with a trailing pair axis")
        out_shape = pts.shape[:-1]
        vals = _symbol_values(op, pts.reshape(-1, 2))
    else:
        out_shape = pts.shape
        vals = _symbol_values(op, np.atleast_1d(pts).ravel())
    if op.hermitian:
        scale = max(1.0, float(np.max(np.abs(vals.real), initial=0.0)))
        if np.max(np.abs(vals.imag), initial=0.0) > 1e-9 * scale:
            raise ValueError("hermitian operator produced a complex symbol")
        vals = vals.real
    vals = vals.reshape(out_shape)
    return vals[()] if vals.ndim == 0 else vals


def wigner(state, points):
    """W = Smb[rho] / (2 pi)^modes as a real array shaped like points."""
    vals = symbol_of(state.op, points) / (2 * math.pi) ** state.modes
    arr = np.asarray(vals)
    if np.iscomplexobj(arr):
        if np.max(np.abs(arr.imag), initial=0.0) > 1e-9:
            raise ValueError("Wigner function came out complex")
        arr = arr.real
        return arr[()] if arr.ndim == 0 else arr
    return vals


@dataclass(frozen=True)
class SpectralExpansion:
    """Eigenvalues of a radially quantized symbol in the number basis."""

    eigenvalues: np.ndarray
    error_estimates: np.ndarray
    symbol: RadialSymbol

    @property
    def dim(self):
        return len(self.eigenvalues)

    def operator(self):
        return FockOperator(np.diag(self.eigenvalues.astype(complex)),
                            hermitian=True)


def quantize_radial(symbol, dim, spec=None):
    """Operator eigenvalues of a radial symbol.

    In s = r^2 the n-th eigenvalue is 2 (-1)^n integral B(sqrt s)
    e^{-2s} L_n(4s) ds over [0, inf). When the symbol reports an exact far
    value the tail is folded in analytically through
    lam_n = far_value + 2 (-1)^n integral (B - far_value) e^{-2s} L_n(4s) ds
    over the bounded support, which costs nothing in accuracy; otherwise the
    integral is cut at r_max^2 and the e^{-2s} weight buries the remainder.
    """
    if spec is None:
        spec = IntegrationSpec()
    if dim < 1:
        raise ValueError("dim must be at least 1")
    s_max = spec.r_max**2
    if symbol.far_value is None:
        base, upper = 0.0, s_max
    else:
        base, upper = symbol.far_value, min(s_max, symbol.far_radius**2)
    splits = tuple(j * j for j in symbol.jumps if 0.0 < j * j < upper)
    local = replace(spec, split_points=splits)
    values = np.empty(dim)
    errors = np.empty(dim)
    for n in range(dim):
        if upper <= 0.0:
            values[n], errors[n] = base, 0.0
            continue
        sign = -1.0 if n % 2 else 1.0

        def integrand(s, n=n):
            return (symbol(np.sqrt(s)) - base) * np.exp(-2 * s) * laguerre(n, 4 * s)

        res = integrate_1d(integrand, 0.0, upper, local)
        values[n] = base + 2.0 * sign * res.value
        errors[n] = 2.0 * res.error_estimate
    return SpectralExpansion(values, errors, symbol)


def bell_eigenvalue_generating(n):
    """Sign-step eigenvalues from the generating function route.

    The coefficients c_n of G(t) = 2 (1 - e^{(1/2)(t+1)/(t-1)}) / (t+1) give
    the eigenvalues as 1 - (-1)^n c_n. Coefficients come from a Cauchy
    integral on the circle |t| = 0.4 sampled at 256 points; the 0.4^-n
    amplification of roundoff caps the usable order at 20, where the result
    is still good to about 1e-7.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError("order must be an integer")
    if not 0 <= n <= 20:
        raise ValueError("order must lie in [0, 20]")
    m = 256
    radius = 0.4
    z = radius * np.exp(2j * np.pi * np.arange(m) / m)
    g = 2.0 * (1.0 - np.exp(0.5 * (z + 1.0) / (z - 1.0))) / (z + 1.0)
    c_n = np.fft.fft(g)[n].real / (m * radius**n)
    return 1.0 - (1.0 if n % 2 == 0 else -1.0) * c_n
