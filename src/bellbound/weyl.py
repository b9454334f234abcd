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
closed form for declared levels, from one Laguerre sweep over fixed
Gauss-Legendre panels for a profile given by its function alone, and for
the sign-step profile coefficients of an explicit generating function too.
"""

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .fock import FockOperator, _displacement_entries
from .quad import IntegrationSpec, QuadratureError, _gl_panels
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


def _real(name, value):
    """value as a float, or a ValueError naming the field it was given for."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{name} takes real numbers within float64's range")


@dataclass(frozen=True)
class RadialSymbol:
    """Rotation-invariant phase-space profile r -> B(r).

    jumps lists the radii of step discontinuities, positive and increasing,
    so quadratures can split there; far_value, which every symbol declares,
    is the exact constant value for all r >= far_radius (at or past the last
    jump), which lets each route trade the infinite tail for a closed-form
    contribution. levels, declared by piecewise_symbol, are the values on
    [0, r_1), [r_1, r_2), ..., [r_k, inf).

    The far declaration is trusted, not probed: every route takes far_value
    from far_radius on without reading the function there, so a declaration
    the function contradicts moves all of them alike.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    description: str = ""
    jumps: tuple = ()
    far_value: Optional[float] = None
    far_radius: float = 0.0
    levels: Optional[tuple] = None

    def __post_init__(self):
        jumps = tuple(_real("jumps", j) for j in self.jumps)
        object.__setattr__(self, "jumps", jumps)
        last = max(jumps, default=0.0)
        # 0 < r_1 < ... < r_k < inf, which no NaN passes
        if not all(a < b for a, b in zip((0.0, *jumps), (*jumps, math.inf))):
            raise ValueError(f"jumps must be finite, positive and increasing: {jumps}")
        far_value = _real("far_value", self.far_value)
        if not math.isfinite(far_value):
            raise ValueError(f"far_value must be declared and finite, got {far_value}")
        far_radius = _real("far_radius", self.far_radius)
        # the routes integrate in s = r^2 up to far_radius^2
        if not math.isfinite(far_radius * far_radius):
            raise ValueError(f"far_radius must be finite with a finite square, "
                             f"got {far_radius}")
        if not far_radius >= last:
            raise ValueError(f"far_radius {far_radius} is short of the last jump")
        object.__setattr__(self, "far_value", far_value)
        object.__setattr__(self, "far_radius", far_radius)
        if self.levels is not None:
            levels = tuple(_real("levels", v) for v in self.levels)
            object.__setattr__(self, "levels", levels)
            if (len(levels) != len(jumps) + 1 or far_radius != last
                    or far_value != levels[-1] or not all(map(math.isfinite, levels))):
                raise ValueError("levels need one finite value per region, the last "
                                 "one far_value from far_radius = the last jump")

    def __call__(self, r):
        return self.fn(np.asarray(r, dtype=float))


def piecewise_symbol(jumps, levels, description=""):
    """B(r) = levels[k] on [r_k, r_{k+1}), with r_0 = 0 and r_{K+1} = inf.

    The one place a declared symbol is built: its function, far value (the
    last level) and far radius (the last jump, 0 with none) share the levels.
    """
    edges = np.array([_real("jumps", j) for j in jumps], dtype=float)
    table = np.array([_real("levels", v) for v in levels], dtype=float)
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


# the top level's phase 2 sqrt(nu s), nu = 4 dim - 2, is widest across a first
# panel [0, w]; 21 nodes resolve about 40 radians of it, so the coarse
# panels, 2w wide, need dim w <= 50
_DIM_WIDTH = 50.0
# nodes x levels per block of the Laguerre sweep (2 MB of table)
_SWEEP_BLOCK = 1 << 18
# the last whole s the reach scan takes: x = 4s stays below 1500, where
# laguerre_scaled refuses levels >= x/5
_REACH_S_MAX = 374


def _laguerre_reach(dim, upper):
    """min(upper, s_cut): past s_cut every |e^{-2s} L_n(4s)|, n < dim, stays
    below 1e-17 (s_cut is 22, 33, 103 and 254 at dims 2, 8, 64 and 200).

    Past its largest zero, below s = n + 1/2, each factor has one hump and
    then decays, so s_cut is one past the last whole s, scanned up to
    2 dim + 40, where one still reaches 1e-17. The scan stops at
    _REACH_S_MAX, short of x = 4s = 1500, where laguerre_scaled refuses
    levels >= x/5: a dim whose levels still reach 1e-17 there, and whose
    symbol reaches farther, is refused with ValueError naming dim.
    """
    top = math.ceil(min(upper, 2.0 * dim + 40.0))
    s = np.arange(min(top, _REACH_S_MAX) + 1.0)
    reached = np.max(np.abs(laguerre_scaled(dim - 1, 4.0 * s)), axis=0) >= 1e-17
    if top > _REACH_S_MAX and reached[-1]:
        raise ValueError(
            f"dim {dim} is too large for this symbol's far radius: its Laguerre "
            f"factors still reach 1e-17 at s = {_REACH_S_MAX}, and past x = 4s = 1500 "
            "they leave float64's normal range")
    return min(upper, s[reached][-1] + 1.0)


def _swept_spectrum(symbol, dim):
    """(lam, gap, mass) of a symbol given by its function alone: lam at panel
    width w, its gap to width 2 w, and the fine rule's integral of
    |B - far_value|, all from one Laguerre sweep over both node sets."""
    base = symbol.far_value
    upper = _laguerre_reach(dim, symbol.far_radius**2)
    cuts = sorted({0.0, upper, *(j * j for j in symbol.jumps if j * j < upper)})
    width = min(0.5, _DIM_WIDTH / dim)
    (fine, w_fine), (coarse, w_coarse) = (_gl_panels(cuts, h) for h in (width, 2 * width))
    s = np.concatenate((fine, coarse))
    drop = symbol(np.sqrt(s)) - base
    weights = np.zeros((s.size, 2))
    weights[: fine.size, 0] = w_fine * drop[: fine.size]
    weights[fine.size :, 1] = w_coarse * drop[fine.size :]
    sums = np.zeros((dim, 2))
    step = max(1, _SWEEP_BLOCK // dim)
    for lo in range(0, s.size, step):
        sums += laguerre_scaled(dim - 1, 4.0 * s[lo : lo + step]) @ weights[lo : lo + step]
    sums *= 2.0 * (-1.0) ** np.arange(dim)[:, None]
    return base + sums[:, 0], np.abs(sums[:, 0] - sums[:, 1]), np.abs(weights[:, 0]).sum()


def quantize_radial(symbol, dim, spec=None):
    """Operator eigenvalues of a radial symbol.

    In s = r^2 the n-th eigenvalue is 2 (-1)^n integral B(sqrt s) e^{-2s}
    L_n(4s) ds over [0, inf), with b_n = e^{-X/2} L_n(X) read at X = 4s.
    Declared levels close it: lam_n = levels[-1] + sum_k c_k [1 - (2 sum_{j<n}
    (-1)^j b_j(X_k) + (-1)^n b_n(X_k))], c_k the drop at jump r_k and
    X_k = 4 r_k^2, with the rounding bound eps (2 (n + 1) sum_k |c_k| +
    |lam_n|) as its error. Other symbols take lam_n = far_value + 2 (-1)^n
    integral (B - far_value) b_n(4s) ds, for every n from one sweep
    (_swept_spectrum): 21-node panels cut at the squared jumps, on
    [0, far_radius^2] up to where every b_n has decayed (_laguerre_reach),
    at widths w = min(1/2, 50 / dim) and 2 w. Their error is the width gap
    plus the rounding bound eps (4 (n + 1) M + |lam_n|), M the integral of
    |B - far_value|. Either route refuses an abs_tol below its error; the
    sweep raises ValueError naming dim where its levels would reach past
    x = 4s = 1500.
    """
    if spec is None:
        spec = IntegrationSpec()
    if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool) or dim < 1:
        raise ValueError(f"dim must be an integer of at least 1, got {dim!r}")
    n = np.arange(dim)
    eps = np.finfo(float).eps
    if symbol.levels is not None:
        levels = np.array(symbol.levels)
        drops = levels[:-1] - levels[1:]
        lag = (-1.0) ** n[:, None] * laguerre_scaled(dim - 1, 4.0 * np.square(symbol.jumps))
        values = levels[-1] + (1.0 - (2.0 * np.cumsum(lag, axis=0) - lag)) @ drops
        errors = eps * (2.0 * (n + 1) * np.abs(drops).sum() + np.abs(values))
        route = "closed-form spectrum", "its rounding bound"
    elif symbol.far_radius == 0.0:
        # B is far_value everywhere, and so is every eigenvalue
        return SpectralExpansion(np.full(dim, symbol.far_value), np.zeros(dim), symbol)
    else:
        values, gap, mass = _swept_spectrum(symbol, dim)
        errors = gap + eps * (4.0 * (n + 1) * mass + np.abs(values))
        route = "swept spectrum", "its width gap and rounding bound"
    if not errors.max() <= spec.abs_tol:
        raise QuadratureError(
            f"the {route[0]} stopped at error {errors.max():.2e}, {route[1]}, "
            f"above {spec.abs_tol}", knob="abs_tol")
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
