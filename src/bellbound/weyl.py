"""Phase-space symbols of truncated Fock operators.

The symbol map used throughout is Smb[A](alpha) = 2 pi Tr(A Delta(alpha))
with Delta the displaced-parity quantizer, and the inverse map
A = integral d^2x Smb(x) Delta(x) over d^2x = dq dp = 2 d^2alpha. Wigner
functions are symbols of density matrices over 2 pi, normalized so that
integral W d^2x = 1.

Symbols use Royer's identity Delta(alpha) = D(alpha) Pi D(alpha)^dagger / pi
= D(2 alpha) Pi / pi, whose elements <m|D(2 alpha)|n> have a closed form, so
the trace is exact on the block of levels the operator occupies.

A rotation-invariant symbol quantizes to an operator diagonal in the number
basis; its eigenvalues are Laguerre transforms of the radial profile, in
closed form for declared levels, and for the sign-step profile coefficients
of an explicit generating function too.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .fock import FockOperator, _displacement_entries
from .quad import IntegrationSpec, QuadratureError, integrate_1d
from .specfun import laguerre_scaled

__all__ = [
    "RadialSymbol",
    "SpectralExpansion",
    "bell_eigenvalue_generating",
    "piecewise_symbol",
    "quantize_radial",
    "sign_step",
    "symbol_of",
    "unit_symbol",
    "wigner",
]


@dataclass(frozen=True)
class RadialSymbol:
    """Rotation-invariant phase-space profile r -> B(r).

    jumps lists the radii of step discontinuities, positive and increasing,
    so quadratures can split there; far_value, when set, is the exact
    constant value for all r >= far_radius (at or past the last jump), which
    lets the quantizer trade the infinite tail for a closed-form
    contribution. levels, declared by piecewise_symbol, are the values on
    [0, r_1), [r_1, r_2), ..., [r_k, inf).

    The far declaration is trusted, not probed: quantize_radial and
    sp_hv_bound_generic take far_value from far_radius on without reading
    the function there, while coarse_parity_bound reads the function on
    [0, r_max]. A declaration the function contradicts therefore makes
    those routes disagree.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    description: str = ""
    jumps: tuple = ()
    far_value: Optional[float] = None
    far_radius: float = 0.0
    levels: Optional[tuple] = None

    def __post_init__(self):
        jumps = tuple(map(float, self.jumps))
        object.__setattr__(self, "jumps", jumps)
        last = max(jumps, default=0.0)
        # 0 < r_1 < ... < r_k < inf, which no NaN passes
        if not all(a < b for a, b in zip((0.0, *jumps), (*jumps, math.inf))):
            raise ValueError(f"jumps must be finite, positive and increasing: {jumps}")
        if self.far_value is not None and not self.far_radius >= last:
            raise ValueError(f"far_radius {self.far_radius} is short of the last jump")
        if self.levels is not None:
            object.__setattr__(self, "levels", tuple(map(float, self.levels)))
            if (len(self.levels) != len(jumps) + 1 or self.far_radius != last
                    or self.far_value != self.levels[-1]):
                raise ValueError("levels need one value per region, the last "
                                 "one far_value from far_radius = the last jump")

    def __call__(self, r):
        return self.fn(np.asarray(r, dtype=float))


def piecewise_symbol(jumps, levels, description=""):
    """B(r) = levels[k] on [r_k, r_{k+1}), with r_0 = 0 and r_{K+1} = inf.

    The one place a declared symbol is built: its function, far value (the
    last level) and far radius (the last jump, 0 with none) share the levels.
    """
    edges, table = np.array(jumps, dtype=float), np.array(levels, dtype=float)
    if table.shape != (edges.size + 1,) or not np.all(np.isfinite(table)):
        raise ValueError(f"{edges.size} jumps need {edges.size + 1} finite "
                         f"levels, got {levels}")
    return RadialSymbol(lambda r: table[np.searchsorted(edges, r, side="right")],
                        description, edges, float(table[-1]),
                        float(max(edges, default=0.0)), table)


def unit_symbol():
    """B(r) = 1 everywhere."""
    return piecewise_symbol((), (1.0,), "unit")


def sign_step(r0=0.5):
    """B(r) = -1 inside radius r0 and +1 outside."""
    return piecewise_symbol((r0,), (-1.0, 1.0), f"sign step at {float(r0)}")


# entries of the k x k displacement blocks built per pass of the symbol map
# (256 kB of complex values), so memory stays flat in the point count and k;
# larger passes speed up high k but raise the peak heap of k = 2 grids
_SYMBOL_BLOCK = 1 << 14


def _symbol_values(op, points):
    """Smb[op] at points of shape (n, modes)."""
    # k: every nonzero entry lies in levels 0..k-1 of each mode
    levels = op.support if op.modes == 1 else np.divmod(op.support, op.dim)
    k = 1 + int(np.max(levels, initial=0))
    # tr(A Delta) = tr(Pi A D(2 alpha)) / pi per mode: parity signs on the
    # operator's row levels, and 2 pi / pi leaves a factor 2 per mode
    parity = 2.0 * (-1.0) ** np.arange(k)
    rho = op.entries.reshape((op.dim,) * 2 * op.modes)[(slice(k),) * 2 * op.modes]
    # weights against the level-leading tables: one mode sums rho[n, m] D[m, n];
    # two modes sum rho[a, b, c, d] D1[c, a] D2[d, b], D1 by a matmul into
    # rows (d, b), then D2 by a multiply-sum
    if op.modes == 1:
        weights = (parity[:, None] * rho).T.reshape(k * k)
    else:
        rho = np.multiply.outer(parity, parity)[:, :, None, None] * rho
        weights = rho.transpose(3, 1, 2, 0).reshape(k * k, k * k)
    vals = np.empty(len(points), dtype=complex)
    step = max(1, _SYMBOL_BLOCK // (k * k))
    for lo in range(0, len(points), step):
        pts = points[lo : lo + step].T
        entries = _displacement_entries(2 * pts, k)
        table = np.moveaxis(entries, (-2, -1), (0, 1)).reshape(k * k, *pts.shape)
        part = weights @ table[:, 0]
        vals[lo : lo + step] = part if op.modes == 1 else (part * table[:, 1]).sum(axis=0)
    return vals


def symbol_of(op, alpha):
    """Smb[A] at one phase point or an array of them.

    With k the occupied prefix (every nonzero entry of A lies in levels
    0..k-1 of each mode) the symbol is 2 sum_{m,n<k} A_nm (-1)^n
    <m|D(2 alpha)|n> per mode, from Delta(alpha) = D(2 alpha) Pi / pi: exact
    on that block, with no truncated quantizer in between.

    Two-mode operators take points with a trailing axis of length 2. Hermitian
    operators give a real symbol; a residual imaginary part above 1e-9
    (relative) is an error rather than something to discard silently.
    """
    pts = np.asarray(alpha, dtype=complex)
    if op.modes == 2:
        if pts.ndim == 0 or pts.shape[-1] != 2:
            raise ValueError("two-mode symbols take points with a trailing pair axis")
        out_shape = pts.shape[:-1]
    else:
        out_shape = pts.shape
    vals = _symbol_values(op, pts.reshape(-1, op.modes))
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

    In s = r^2 the n-th eigenvalue is 2 (-1)^n integral B(sqrt s) e^{-2s}
    L_n(4s) ds over [0, inf), with b_n = e^{-X/2} L_n(X) read at X = 4s.
    Declared levels close it: lam_n = levels[-1] + sum_k c_k [1 - (2 sum_{j<n}
    (-1)^j b_j(X_k) + (-1)^n b_n(X_k))], c_k the drop at jump r_k and
    X_k = 4 r_k^2, with the rounding bound eps (2 (n + 1) sum_k |c_k| +
    |lam_n|) as its error; an abs_tol below it is refused. Other symbols
    take one quadrature per level: with an exact far value, lam_n = far_value
    + 2 (-1)^n integral (B - far_value) e^{-2s} L_n(4s) ds over the bounded
    support, which reads no r_max; otherwise cut at r_max^2, where the
    e^{-2s} weight buries the remainder.
    """
    if spec is None:
        spec = IntegrationSpec()
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if symbol.levels is not None:
        levels = np.array(symbol.levels)
        drops = levels[:-1] - levels[1:]
        n = np.arange(dim)
        lag = (-1.0) ** n[:, None] * laguerre_scaled(dim - 1, 4.0 * np.square(symbol.jumps))
        values = levels[-1] + (1.0 - (2.0 * np.cumsum(lag, axis=0) - lag)) @ drops
        errors = np.finfo(float).eps * (2.0 * (n + 1) * np.abs(drops).sum() + np.abs(values))
        if not errors.max() <= spec.abs_tol:
            raise QuadratureError(
                f"the closed-form spectrum stopped at error {errors.max():.2e}, its "
                f"rounding bound, above {spec.abs_tol}", knob="abs_tol")
        return SpectralExpansion(values, errors, symbol)
    if symbol.far_value is None:
        base, upper = 0.0, spec.r_max**2
    else:
        base, upper = symbol.far_value, symbol.far_radius**2
    splits = [j * j for j in symbol.jumps]
    values = np.empty(dim)
    errors = np.empty(dim)
    for n in range(dim):
        if upper <= 0.0:
            values[n], errors[n] = base, 0.0
            continue
        sign = -1.0 if n % 2 else 1.0

        def integrand(s, n=n):
            return (symbol(np.sqrt(s)) - base) * laguerre_scaled(n, 4 * s)[n]

        res = integrate_1d(integrand, 0.0, upper, spec, splits)
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
