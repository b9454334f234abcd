"""Deterministic bounds for the two concrete measurement setups.

Single particle: a piecewise-constant radial symbol, the sign step by
default, measured on the first excited state of one mode. Bi-partite: a
piecewise-constant profile of the separation of two modes, the sign step by
default, measured on the antisymmetric pair state. Both bounds are one
bilinear form over pairs of regions of the declared levels
(_bilinear_report), each setup passing its own pair integral of collapse
probabilities; they are compared against the quantum mean of the quantized
symbol, and the quantum mean squared exceeding the bound is the violation.

Conventions follow the rest of the package: hbar = 1, alpha = (q + ip)/sqrt 2,
and all integrals over phase space carry d^2 alpha.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .fock import DensityMatrix, _displacement_amplitudes
from .hvbound import BellReport
from .quad import (
    IntegrationSpec,
    QuadratureError,
    _gl_segmented,
    integrate_1d,
    integrate_radial_pair,
)
from .specfun import bessel_j, laguerre_scaled
from .weyl import RadialSymbol, piecewise_symbol, quantize_radial, sign_step

__all__ = [
    "SEPARATION_STEP",
    "SingleParticleCase",
    "BipartiteCase",
    "SigmaCurve",
    "sp_hv_bound",
    "sp_hv_bound_generic",
    "coarse_parity_bound",
    "bp_qm_mean",
    "bp_hv_bound",
    "sign_disc",
    "sigma_curve",
]

# jump radius of the default pair symbol, in the separation |alpha_1 - alpha_2|
SEPARATION_STEP = math.sqrt(0.5)

_DEFAULT_SP_DIM = 64
# the largest n-tail estimate of the generic route, relative to its bound
_N_TAIL_TOL = 5e-3


def _check_r_max(spec):
    # the sigma curve's separation rule and the generic route's disc cut end
    # at r_max and count no mass beyond it
    if spec.r_max < 5.0:
        raise ValueError(f"r_max must be at least 5, got {spec.r_max}")


def _panel_edges(symbol):
    """The radii where a quadrature of the symbol starts a new panel: its
    jumps, and its far radius when positive."""
    far = (float(symbol.far_radius),) if symbol.far_radius > 0 else ()
    return tuple(sorted({*symbol.jumps, *far}))


def _first_excited(dim):
    vec = np.zeros(dim)
    vec[1] = 1.0
    return DensityMatrix.from_state(vec)


@dataclass(frozen=True)
class SingleParticleCase:
    """One radial symbol measured on one single-mode state.

    Defaults reproduce the flagship setup: the sign step at radius 1/2 on
    the first excited state. The case keeps the spec it is given; every
    quadrature downstream takes its panel edges from the symbol's jumps.
    An r_max below 5 is refused.
    """

    symbol: RadialSymbol = field(default_factory=lambda: sign_step(0.5))
    state: DensityMatrix = field(
        default_factory=lambda: _first_excited(_DEFAULT_SP_DIM)
    )
    spec: IntegrationSpec = field(default_factory=IntegrationSpec)

    def __post_init__(self):
        if self.state.modes != 1:
            raise ValueError("single-particle case needs a single-mode state")
        _check_r_max(self.spec)


@dataclass(frozen=True)
class BipartiteCase:
    """A separation profile measured on the antisymmetric pair state.

    The profile is a radial symbol of the separation |alpha_1 - alpha_2|;
    the default steps from -1 to +1 at SEPARATION_STEP, and bp_hv_bound takes
    any profile with declared levels. The state is fixed, (|0,1> - |1,0>)/sqrt 2:
    every pair route is a closed reduction for it and holds no Fock matrix.
    An r_max below 5 is refused.
    """

    symbol: RadialSymbol = field(
        default_factory=lambda: sign_step(SEPARATION_STEP)
    )
    spec: IntegrationSpec = field(default_factory=IntegrationSpec)

    def __post_init__(self):
        _check_r_max(self.spec)


@dataclass(frozen=True)
class SigmaCurve:
    """f(|sigma|) sampled on a uniform grid, with per-point quadrature errors."""

    points: np.ndarray
    values: np.ndarray
    errors: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        errs = np.asarray(self.errors, dtype=float)
        if not (pts.shape == vals.shape == errs.shape and pts.ndim == 1):
            raise ValueError("points, values and errors must be equal-length 1d")
        if pts.size < 6:
            raise ValueError("need at least six grid points")
        if pts[0] != 0.0 or np.any(np.diff(pts) <= 0):
            raise ValueError("points must start at 0 and increase")
        if np.any(errs < 0):
            raise ValueError("errors must be nonnegative")
        for name, arr in (("points", pts), ("values", vals), ("errors", errs)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def integral(self):
        """(value, error): the trapezoids of the values and of the per-point
        error bounds over the grid; nothing beyond the grid is counted."""
        return (float(np.trapezoid(self.values, self.points)),
                float(np.trapezoid(self.errors, self.points)))


def _first_level_mean(symbol, spec):
    """The quantized symbol's mean on |1>: its eigenvalue lam_1."""
    return float(quantize_radial(symbol, 2, spec).eigenvalues[1])


def _bilinear_report(label, case, pair, one_mode, fallback=""):
    """The bound of a declared symbol B = c_inf + sum_k c_k 1{r < r_k} (c_inf
    the last level, c_k the drop at jump r_k) as the bilinear form

        total = sum_kl c_k c_l I(r_k, r_l)

    over the regions full (r = None, the plane), core, core2, ... (the discs
    inside each jump). pair(r1, r2, case) gives I and its error; the
    component r1_r2 is named first slot first. The quantum mean is the first
    eigenvalue of one_mode(symbol). A symbol without levels is refused, with
    fallback appended to the message. Returns a BellReport with the components
    and their errors in notes["components"] / notes["component_errors"];
    notes["violation"] says whether the squared quantum mean clears the bound
    plus its error.
    """
    lv = case.symbol.levels
    if lv is None:
        raise ValueError(f"the {label} bound needs declared levels, as sign-step or "
                         f"piecewise_symbol give{fallback}")
    regions = [("full", None, lv[-1])] + [
        (f"core{k}" if k > 1 else "core", r, lv[k - 1] - lv[k])
        for k, r in enumerate(case.symbol.jumps, 1)
    ]
    comps, errs, total, err = {}, {}, 0.0, 0.0
    for name2, r2, c2 in regions:
        for name1, r1, c1 in regions:
            value, error = pair(r1, r2, case)
            name = f"{name1}_{name2}"
            comps[name] = value
            errs[name] = error
            total += c1 * c2 * value
            err += abs(c1 * c2) * error
    qm = _first_level_mean(one_mode(case.symbol), case.spec)
    return BellReport(
        label=label,
        qm_mean=qm,
        qm_second_moment=qm * qm,
        hv_bound=total,
        bound_difference=qm * qm - total,
        skipped_terms=0,
        notes={
            "components": comps,
            "component_errors": errs,
            "error_estimate": err,
            "violation": bool(qm * qm > total + err),
        },
    )


# ---------------------------------------------------------------------------
# single particle


def _excited_kernel(r1, d):
    # collapse sum for the first excited state in closed form: the state
    # side enters through its radius r1, the symbol side only through the
    # separation d; J0 carries the full broadcast shape, so it takes the
    # products in place
    d2 = d * d
    out = bessel_j(0, 4.0 * d * r1)
    out *= (4.0 / math.pi**2) * (1.0 - 4.0 * d2)
    out *= np.exp(-2.0 * d2)
    return out


def _full_disc_mean(R, n):
    # the kernel over the full alpha plane and the disc |alpha'| < R: J0 as
    # the phi mean of exp(i x cos phi) leaves a complex Gaussian integral,
    # here by the n-node midpoint rule on (0, pi)
    phi = (np.arange(n) + 0.5) * (math.pi / n)
    a = 2.0 - 4.0j * np.cos(phi)
    e = np.exp(-4.0 * R * R / a)
    return float(np.mean(1.0 - e - 16.0 * R * R * e / a**2).real)


def _excited_component(r1, r2, case):
    """(value, error) of I(r1, r2), the kernel over |alpha| < r1, |alpha'| < r2.

    None is the full plane. Three components are closed: the kernel
    integrates to 1 over the plane, and to 1 - (4 R^2 + 1) exp(-2 R^2) with
    the state side in the disc R, both exact. With the symbol side in the
    disc R it is Re <1 - E - 16 R^2 E / a^2>_phi with a = 2 - 4i cos phi and
    E = exp(-4 R^2 / a); the mean is of a smooth periodic function, which
    the midpoint rule resolves to rounding, and its error is the 64-node
    mean's gap to the 32-node one. Only the disc-disc components are
    quadratures, panelled at the case symbol's jumps.
    """
    if r2 is None:
        if r1 is None:
            return 1.0, 0.0
        return 1.0 - math.exp(-2.0 * r1 * r1) * (1.0 + 4.0 * r1 * r1), 0.0
    if r1 is None:
        fine = _full_disc_mean(r2, 64)
        return fine, abs(fine - _full_disc_mean(r2, 32))
    res = integrate_radial_pair(_excited_kernel, case.spec, r1_max=r1, r2_max=r2,
                                splits=_panel_edges(case.symbol))
    return res.value, res.error_estimate


def sp_hv_bound(case):
    """Deterministic bound for the single-particle setup, closed kernel route.

    Restricted to the first excited state, whose collapse sum has the closed
    kernel (4/pi^2)(1 - 4 d^2) exp(-2 d^2) J0(4 d r), and to symbols that
    declare levels. The bound is _bilinear_report's form, I restricting the
    state side (first slot) and the symbol side to discs. The sign step
    gives full_full - 2 core_full - 2 full_core + 4 core_core, the unit
    symbol full_full alone. Every component with a full-plane slot is a
    closed form (see _excited_component): full_full = 1 and core_full are
    exact, full_core is a phi mean resolved to about 1e-13. Only the
    disc-disc components, core_core for the sign step, are radial pair
    quadratures.
    """
    state = case.state
    if state.dim < 2 or abs(state.entries[1, 1] - 1.0) > 1e-9:
        raise ValueError(
            "kernel route needs the first excited state; "
            "sp_hv_bound_generic handles other number-diagonal states"
        )
    return _bilinear_report("single-particle", case, _excited_component, lambda s: s,
                            "; sp_hv_bound_generic takes any symbol with a declared "
                            "far value")


def _diagonal_weights(rho):
    """(levels, probabilities) of a number-diagonal state, or raise."""
    if rho.modes != 1:
        raise ValueError("need a single-mode state")
    ent = rho.entries
    off = float(np.max(np.abs(ent - np.diag(np.diag(ent)))))
    if off > 1e-10:
        raise ValueError(f"state must be number-diagonal, off-diagonal {off:.2e}")
    p = np.real(np.diag(ent))
    keep = np.nonzero(p > 1e-14)[0]
    return [int(m) for m in keep], [float(p[m]) for m in keep]


def _level_transitions(x, m, n):
    """|<m|D|n>|^2 = B[min(m, n), max(m, n)]^2 at x = |alpha|^2."""
    low, high = np.minimum(m, n), np.maximum(m, n)
    amp = _displacement_amplitudes(x, int(high.max()), int(low.max()))
    return amp[low, high] ** 2


def _displaced_level_weights(levels, probs, n_max, r):
    """c_n(r) = <n| D(r)^dag rho D(r) |n> for a number-diagonal rho, n <= n_max."""
    x = np.asarray(r, dtype=float) ** 2
    terms = _level_transitions(x, np.array(levels)[:, None], np.arange(n_max + 1))
    return np.tensordot(probs, terms, 1)


def _displaced_parity(levels, probs, r):
    """<Pi>_{D(r)^dag rho D(r)} = sum_m p_m (-1)^m exp(-2r^2) L_m(4r^2)."""
    x4 = 4.0 * np.asarray(r, dtype=float) ** 2
    lag = laguerre_scaled(max(levels), x4)
    out = np.zeros_like(x4)
    for m, pm in zip(levels, probs):
        out += pm * (-1.0) ** m * lag[m]
    return out


def _kernel_moments_inner(symbol, n_max, r, n_rho):
    """(K, tail, weight): the disc part of the kernel moments and its bounds.

    K_n(r) = int d^2 b B(|b|) exp(-2 d^2) L_n(4 d^2), d = |b - r|, is the far
    value's full-plane moment pi (-1)^n / 2 plus K[n], the integral of
    B - far_value over the disc |b| < far_radius. A circle |b| = rho
    averages |n>'s Wigner function to sum_m (-1)^(m+n) exp(-2 r^2) L_m(4 r^2)
    P_mn with P_mn = |<m|D(rho)|n>|^2 (Cahill and Glauber), so K[n] is
    sum_m (-1)^(m+n) exp(-2 r^2) L_m(4 r^2) M_mn, M_mn = 2 pi int rho
    (B - far_value) P_mn d rho. As sum_m P_mn = 1 and |exp(-x/2) L_m(x)| <= 1,
    the levels past m_max move K[n] by at most tail[n] = 2 pi int rho
    |B - far_value| (1 - sum_{m <= m_max} P_mn) d rho. m_max grows from
    n_max + 16, doubling the headroom, until max(tail) is below 1e-13 of
    weight = 2 pi int rho |B - far_value| d rho, with which its rounding
    floor scales, or stops shrinking.
    """
    R0 = float(symbol.far_radius)
    rho, w_rho = _gl_segmented(0.0, R0, n_rho, symbol.jumps)
    weighted = 2.0 * math.pi * w_rho * rho * (symbol(rho) - symbol.far_value)
    weight = float(np.abs(weighted).sum())
    n = np.arange(n_max + 1)
    headroom, last = 16, math.inf
    while True:
        m = np.arange(n_max + headroom + 1)
        p = _level_transitions(rho * rho, m[:, None], n)
        tail = np.abs(1.0 - p.sum(axis=0)) @ np.abs(weighted)
        if tail.max() <= 1e-13 * weight or tail.max() >= last:
            break
        headroom, last = 2 * headroom, tail.max()
    moments = (-1.0) ** np.add.outer(m, n) * (p @ weighted)
    lag = laguerre_scaled(m[-1], 4.0 * r * r)
    return moments.T @ lag, tail, weight


def sp_hv_bound_generic(rho, symbol, n_max=24, spec=None, details=False):
    """Collapse-sum bound for any number-diagonal single-mode state.

    The bound is (8/pi) int r B(r) sum_n c_n(r) K_n(r) dr with c_n the
    collapse weights of the displaced state and K_n the kernel moments of
    the symbol. The far value's share of K_n, summed over all n, leaves
    4 far_value int r B(r) <Pi>(r) dr against the displaced parity of the
    state, which is far_value sum_m p_m lam_m with lam_m the eigenvalues of
    quantize_radial and their errors, so no level truncation touches it;
    only the disc where the symbol departs from its far value is expanded
    over collapse levels n <= n_max.

    Each disc part is K_n(r) = sum_m (-1)^(m+n) exp(-2 r^2) L_m(4 r^2) M_mn
    with M_mn = 2 pi int rho (B - far_value) |<m|D(rho)|n>|^2 d rho, the
    circle average of |n>'s Wigner function; the bound on the levels
    m > m_max it drops (see _kernel_moments_inner) joins the quadrature error.

    The n-tail of the disc part is estimated from the geometric decay of
    its per-level contributions plus a worst-case weight for the levels
    beyond n_max; if the estimate exceeds _N_TAIL_TOL times the bound the
    result is not trustworthy and a QuadratureError is raised. Pass
    details=True for (value, info) with the per-level terms and the tail.
    """
    if spec is None:
        spec = IntegrationSpec()
    _check_r_max(spec)
    levels, probs = _diagonal_weights(rho)
    if not 1 <= n_max <= rho.dim // 2:
        raise ValueError(f"n_max must lie in [1, {rho.dim // 2}] for dim {rho.dim}")
    if symbol.far_value is None:
        raise ValueError("generic route needs a symbol with a declared far value")
    spectrum = quantize_radial(symbol, max(levels) + 1, spec)
    value = symbol.far_value * float(np.dot(probs, spectrum.eigenvalues[levels]))
    quad_err = abs(symbol.far_value) * float(np.dot(probs, spectrum.error_estimates[levels]))
    per_level = np.zeros(n_max + 1)
    tail = 0.0
    R0 = float(symbol.far_radius)
    if R0 > 0.0:
        # the disc correction decays like exp(-2 (r - R0)^2) in the center
        # radius, so the integration range can stop well short of r_max
        r_hi = min(spec.r_max, R0 + 3.4)

        def disc_terms(n_outer, n_rho):
            nodes, w = _gl_segmented(0.0, r_hi, n_outer, _panel_edges(symbol))
            c = _displaced_level_weights(levels, probs, n_max, nodes)
            k, m_tail, disc_area = _kernel_moments_inner(symbol, n_max, nodes, n_rho)
            outer = (8.0 / math.pi) * w * nodes * symbol(nodes)
            dropped = float(np.abs(outer) @ (m_tail @ c))
            # the disc's absolute weight bounds each level beyond n_max
            deficit = np.maximum(1.0 - c.sum(axis=0), 0.0)
            damp = np.exp(-2.0 * np.maximum(nodes - R0, 0.0) ** 2)
            beyond = disc_area * float(np.abs(outer) @ (deficit * damp))
            return np.sum(outer[None, :] * c * k, axis=1), dropped, beyond

        coarse = disc_terms(128, 32)[0]
        per_level, dropped, beyond = disc_terms(192, 48)
        value += float(per_level.sum())
        quad_err += abs(float(per_level.sum() - coarse.sum())) + dropped
        mags = np.abs(per_level)
        geo = 0.0
        if mags[-1] > 0 and mags[-2] > 0:
            q = mags[-1] / mags[-2]
            if q < 0.75:
                geo = float(mags[-1] * q / (1.0 - q))
            else:
                geo = float(mags[-1] * 4.0)
        tail = geo + beyond
        if tail > _N_TAIL_TOL * max(abs(value), 1e-3):
            raise QuadratureError(
                f"n-tail estimate {tail:.2e} above tolerance; raise n_max"
            )
    if details:
        info = {
            "n_tail": tail,
            "quad_error": quad_err,
            "per_level": per_level,
            "levels": levels,
        }
        return float(value), info
    return float(value)


def _parity_tail(n, r_max):
    """(1/2) int_X^inf e^{-x/2} L_n(-x) dx, X = 4 r_max^2, summed in logarithms:
    as |L_n(x)| <= L_n(-x) = sum_k C(n, k) x^k / k!, it bounds the tail of |n>'s
    displaced parity integral; x^k / k! gives 2^k e^{-X/2} sum_{i<=k} (X/2)^i / i!."""
    y = 2.0 * r_max * r_max
    k = np.arange(n + 1)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, n + 1)))))
    log_poisson = np.logaddexp.accumulate(k * math.log(y) - y - log_fact)
    log_binom = log_fact[n] - log_fact - log_fact[::-1]
    return float(np.exp(log_binom + k * math.log(2.0) + log_poisson).sum())


def coarse_parity_bound(rho, symbol, spec=None):
    """Bound from parity-resolved collapses instead of level-resolved ones.

    At every center the rank-one projections are lumped into the even and
    odd parity blocks of the displaced number basis; the collapsed state
    keeps its coherence inside each block. With rho~ and B~ the state and
    the quantized symbol conjugated to the center,

        bound = 4 int r B(r) [tr_even(rho~ B~) - tr_odd(rho~ B~)] dr,

    where tr_even keeps the even-even block of both factors. That sandwich
    is tr(Pi {rho~, B~}) / 2: for a number-diagonal rho (p_n), the only kind
    taken, and the symbol's eigenvalues lam_n, the displaced parity sum_n p_n
    lam_n (-1)^n exp(-2r^2) L_n(4r^2). The integral is tr(rho B^2) = sum_n
    p_n lam_n^2: collapses this coarse can never produce a violation, for
    any radial symbol, and this function exists to exhibit that.

    The integral is one integrate_1d call on [0, r_max]. Past r_max a
    declared symbol is its far value, so the dropped tail is at most
    |far_value| sum_n p_n |lam_n| _parity_tail(n, r_max); above abs_tol it
    raises QuadratureError naming r_max. A symbol without a far value has no
    tail to count, so it keeps the r_max >= 5 floor of the other routes.
    """
    if spec is None:
        spec = IntegrationSpec()
    counted = symbol.far_value is not None
    if not counted:
        _check_r_max(spec)
    levels, probs = _diagonal_weights(rho)
    weights = probs * quantize_radial(symbol, max(levels) + 1, spec).eigenvalues[levels]
    tail = 0.0 if not counted else abs(symbol.far_value) * sum(
        abs(w) * _parity_tail(n, spec.r_max) for n, w in zip(levels, weights))
    if not tail <= spec.abs_tol:
        raise QuadratureError(f"the tail past r_max {spec.r_max} is up to {tail:.2e}, "
                              f"above {spec.abs_tol}", knob="r_max")

    def integrand(r):
        return 4.0 * r * symbol(r) * _displaced_parity(levels, weights, r)

    return integrate_1d(integrand, 0.0, spec.r_max, spec, _panel_edges(symbol)).value


# ---------------------------------------------------------------------------
# bi-partite


def _relative_profile(symbol):
    """The separation profile as a radial symbol of the relative mode.

    The relative mode carries (alpha_1 - alpha_2)/sqrt 2, so a profile in
    the separation t becomes r -> B(sqrt 2 r): the same levels, at jump
    radii over sqrt 2.
    """
    if symbol.levels is None:
        raise ValueError("the pair quantum mean needs a profile with declared levels, "
                         "as sign_step or piecewise_symbol give")
    return piecewise_symbol([j / math.sqrt(2.0) for j in symbol.jumps], symbol.levels,
                            "relative-mode " + (symbol.description or "profile"))


def bp_qm_mean(case):
    """Quantum mean of the separation profile on the antisymmetric pair state.

    The pair state holds the relative mode (alpha_1 - alpha_2)/sqrt 2 in its
    first excited level and the other mode in its vacuum, so the mean is
    the first eigenvalue of the relative-mode profile: the qm_mean of
    bp_hv_bound's report, bit for bit.
    """
    return _first_level_mean(_relative_profile(case.symbol), case.spec)


# (n_d, n_g, n_win, n_theta) per node level of the sigma curve: the
# separation modulus, the two displacement moduli, the arc table's window
# nodes and the separation angle. The kinks of the arc table make the
# convergence algebraic and uneven, so the coarse level, which only serves
# the error estimate, halves every count: its difference to the fine level
# then bounds the fine level's own error with room to spare.
_SIGMA_LEVELS = ((64, 32, 8, 8), (128, 64, 16, 12))
# displacement moduli run to where exp(-2 g^2) falls below 1e-17, and the
# arc table keeps the pairs g1^2 + g2^2 <= _SIGMA_G_MAX^2, where the joint
# weight exp(-2 (g1^2 + g2^2)) falls as far: the pairs dropped carry about
# 1e-16 of it at both node levels
_SIGMA_G_MAX = 4.5
# grids longer than this are refused instead of left running
_SIGMA_MAX_POINTS = 10_000
# separation nodes per block of the arc table, which bounds its temporaries
# (the window buffers hold n_win times the block's live cells); a single
# pass per level over the crossing angles and gathers is no faster
_ARC_BLOCK = 8
# (n_g, n_d, n_win) per node level of the collapsed pair integrals of
# bp_hv_bound; the coarse level serves the error estimate only
_COLLAPSE_LEVELS = ((64, 64, 16), (128, 128, 24))


def _arc_table(d, g1, g2, j, n_win):
    """A(d, g1, g2): chance that |d + g1 e^{i phi1} - g2 e^{i phi2}| < j.

    Both displacement angles are uniform, so g1 e^{i phi1} - g2 e^{i phi2}
    has a uniform direction and, independently of it, the modulus
    rho(psi)^2 = g1^2 + g2^2 - 2 g1 g2 cos psi with psi uniform on (0, pi).
    At fixed rho the chance is the arc fraction a = 1 - arccos(kappa)/pi,
    kappa = (j^2 - d^2 - rho^2)/(2 d rho). rho grows with psi, and a is
    1{d < j} below rho = |d - j| and 0 above d + j, so with psi_a and psi_b
    the closed-form angles where rho crosses the two,

        A = [1{d < j} psi_a + int_{psi_a}^{psi_b} a dpsi] / pi.

    The window integral is Gauss-Legendre in t on (0, pi) with
    psi = psi_a + (psi_b - psi_a)(1 - cos t)/2, which absorbs the
    square-root ends; cells with an empty window take the closed part
    alone. d, g1 and g2 broadcast against each other, and A is evaluated
    on every cell of their common shape: the sigma curve passes a block of
    separation nodes against the pairs g1 <= g2, the collapsed pair
    integrals their cells on the diagonal g1 = g2.
    """
    sq = g1 * g1 + g2 * g2
    prod = 2.0 * g1 * g2
    psi_a, psi_b = (np.arccos(np.clip((sq - e * e) / prod, -1.0, 1.0))
                    for e in (np.abs(d - j), d + j))
    width = psi_b - psi_a
    out = np.where(d < j, psi_a, 0.0)
    live = np.flatnonzero(width > 0.0)
    dk, gap, prod, psi_a, width = (np.broadcast_to(x, out.shape).reshape(-1)[live]
                                   for x in (d, (g1 - g2) ** 2, prod, psi_a, width))
    t, tw = _gl_segmented(0.0, math.pi, n_win, ())
    tw = 0.5 * np.sin(t) * tw
    # window-leading, (n_win, live cells), so that numpy's inner loops run
    # along the cells, in place. rho^2 = (g1 - g2)^2 + q with
    # q = prod (1 - cos psi) = 2 prod / (1 + cot^2(psi/2)), free of
    # cancellation at small psi, and kappa = (c - q) / (2 d rho) with the
    # cell constant c = j^2 - d^2 - (g1 - g2)^2. numpy's tan runs vectorized
    # where its cos does not, and psi/2 is exactly half of psi's node.
    c = j * j - dk * dk
    c -= gap
    dk *= 2.0
    prod *= 2.0
    q = np.multiply.outer(0.25 * (1.0 - np.cos(t)), width)
    q += 0.5 * psi_a
    np.tan(q, out=q)
    q *= q
    np.reciprocal(q, out=q)
    q += 1.0
    np.divide(prod, q, out=q)
    kappa = c - q
    q += gap
    np.sqrt(q, out=q)
    q *= dk
    kappa /= q
    np.clip(kappa, -1.0, 1.0, out=kappa)
    np.arccos(kappa, out=kappa)
    out.reshape(-1)[live] += width * (tw.sum() - (tw @ kappa) / math.pi)
    return out / math.pi


def _pair_arc_table(dn, gn, j, n_win):
    """The arc table on the product grid, indexed [d, g2, g1]: the pairs
    g1 <= g2 inside the joint cut g1^2 + g2^2 <= _SIGMA_G_MAX^2 a block of
    separation nodes at a time, mirrored; every cell outside the cut is 0."""
    lo, hi = np.triu_indices(gn.size)
    kept = gn[lo] ** 2 + gn[hi] ** 2 <= _SIGMA_G_MAX ** 2
    lo, hi = lo[kept], hi[kept]
    out = np.zeros((dn.size, gn.size, gn.size))
    for start in range(0, dn.size, _ARC_BLOCK):
        pairs = _arc_table(dn[start:start + _ARC_BLOCK, None], gn[lo], gn[hi], j, n_win)
        block = out[start:start + _ARC_BLOCK]
        block[:, lo, hi] = pairs
        block[:, hi, lo] = pairs
    return out


def _sigma_level(spec, pts, level, profile, j):
    """f at every grid point from one node level of the factored route.

    Rotating all three displacements by -arg(e) leaves the indicator alone,
    so its average over the two displacement angles is A(d, g1, g2) and the
    kernel's separation-angle average splits off:

        f(s) = 4 s int dd d B(d) int dg1 dg2 m(g1) m(g2) A(d, g1, g2)
               <kern(s, d, theta, g1, g2)>_theta,  m(g) = 4 g exp(-2 g^2).

    For fixed (s, d, theta) the (g1, g2) double sum is three bilinear forms
    u^T A_d v, done for all (d, theta) by one batched matmul. The second
    slot at theta is the first at pi - theta and A_d is exactly symmetric,
    so the nodes theta and pi - theta give equal terms: the forms run over
    the first half of the (even) n_theta nodes, and the sum is doubled. The
    radial symbol profile gives B on the separation nodes, which are
    panelled at its jumps, and A is the arc table of radius j. Inside the
    joint cut the two displacements move the separation by at most
    g1 + g2 <= sqrt(2) _SIGMA_G_MAX, so A is exactly 0 past
    j + sqrt(2) _SIGMA_G_MAX, where the separation rule ends if r_max lies
    beyond.
    """
    n_d, n_g, n_win, n_theta = level
    if n_theta % 2:
        raise ValueError(f"the separation angle takes an even node count; got {n_theta}")
    half = n_theta // 2
    d_max = min(spec.r_max, j + math.sqrt(2.0) * _SIGMA_G_MAX)
    dn, dw = _gl_segmented(0.0, d_max, n_d, _panel_edges(profile))
    gn, gw = _gl_segmented(0.0, _SIGMA_G_MAX, n_g, ())
    g_sq = gn * gn
    m = gw * 4.0 * gn * np.exp(-2.0 * g_sq)
    arc = _pair_arc_table(dn, gn, j, n_win)
    wd = dw * dn * profile(dn)
    cos_t = np.cos((np.arange(n_theta) + 0.5) * (math.pi / n_theta))
    # the three right-hand blocks u and their products u^T A_d, reused per point
    rhs = np.empty((dn.size, 3 * half, gn.size))
    lhs = np.empty_like(rhs)
    values = np.zeros(pts.size)
    for i, s in enumerate(pts):
        if s == 0.0:
            continue
        # y = 4 a1 g with a1 = |s + d e^{i theta}| / 2; the second slot's
        # a2(theta) = a1(pi - theta) is the first slot reversed along theta
        a1 = np.multiply.outer(2.0 * s * dn, cos_t)
        a1 += (s * s + dn * dn)[:, None]
        y = np.multiply.outer(2.0 * np.sqrt(a1), gn)
        j0, rat = bessel_j((0, 1), y)
        j0 *= m
        rat /= y
        rat *= g_sq * m
        rhs[:, :half] = j0[:, ::-1][:, :half]
        np.multiply(rhs[:, :half], 2.0 * g_sq, out=rhs[:, half:-half])
        rhs[:, -half:] = rat[:, ::-1][:, :half]
        np.matmul(rhs, arc, out=lhs)
        lhs0, lhs1, lhs2 = np.split(lhs, 3, axis=1)
        lhs0 *= 1.0 - 2.0 * g_sq
        lhs0 -= lhs1
        kern = (np.einsum("dtg,dtg->d", lhs0, j0[:, :half])
                - 16.0 * (s * s - dn * dn) * np.einsum("dtg,dtg->d", lhs2, rat[:, :half]))
        values[i] = 8.0 * s / n_theta * float(wd @ kern)
    return values


def sigma_curve(case):
    """The reduced integrand f(|sigma|) on the uniform grid, by quadrature.

    Every grid point comes from the factored route of _sigma_level at the
    two node levels of _SIGMA_LEVELS; the finer one gives the value. The
    level difference at a single point can pass through zero where the two
    levels' errors cross, so every point carries the largest difference
    over the curve as its error. f(0) vanishes with the phase-space measure
    and is set exactly. The result is deterministic and has no knob beyond
    the IntegrationSpec's r_max and grid. The curve is a
    diagnostic of the sign step: its integral over s is sign_disc of
    bp_hv_bound's report, which takes it by collapse instead.

    Raises ValueError for grids of fewer than six or more than
    _SIGMA_MAX_POINTS points, and QuadratureError naming sigma_max when a
    value is not finite, or when any point's error passes 15 percent of the larger
    of the point itself and a fifth of the curve maximum (the floor keeps
    near-zero points from tripping the relative test).
    """
    levels = case.symbol.levels
    if levels != (-1.0, 1.0):
        raise ValueError(f"the sigma curve takes the sign-step levels (-1.0, 1.0) "
                         f"only; got levels {levels}")
    spec = case.spec
    ratio = spec.sigma_max / spec.sigma_step
    size = math.floor(min(ratio, _SIGMA_MAX_POINTS) + 1e-9) + 1
    if not 6 <= size <= _SIGMA_MAX_POINTS:
        raise ValueError(
            f"sigma_max {spec.sigma_max} / sigma_step {spec.sigma_step} = "
            f"{ratio:.4g} steps; the grid needs six to {_SIGMA_MAX_POINTS} points"
        )
    pts = spec.sigma_step * np.arange(size)
    # past float64 range a level goes to inf or NaN, which fails its point below
    with np.errstate(over="ignore", invalid="ignore"):
        coarse, values = (_sigma_level(spec, pts, lev, case.symbol, case.symbol.jumps[0])
                          for lev in _SIGMA_LEVELS)
    finite = np.isfinite(coarse) & np.isfinite(values)
    if not finite.all():
        raise QuadratureError(
            f"f at sigma = {pts[np.argmin(finite)]:.4g} is not finite: sigma_max "
            f"{spec.sigma_max:g} is too large for float64")
    errors = np.where(pts > 0.0, np.max(np.abs(values - coarse)), 0.0)
    floor = 0.2 * float(np.max(np.abs(values)))
    scale = np.maximum(np.abs(values), floor)
    bad = np.nonzero(errors > 0.15 * scale)[0]
    if bad.size:
        worst = int(bad[np.argmax(errors[bad] / scale[bad])])
        raise QuadratureError(
            f"quadrature error at sigma = {pts[worst]:.4g} is "
            f"{errors[worst]:.2e} against f = {values[worst]:.2e}"
        )
    return SigmaCurve(pts, values, errors)


def _reduced_pair_integral(t_hi):
    """int_0^inf ds int_0^thi dt 4 s t (2 t^2 - 1) exp(-(s^2 + t^2)), exactly.

    The integrand factors: the s integral is 1 and the t integral is
    1 - (2 T^2 + 1) e^{-T^2}, whose second term is exactly 0 in float64 well
    before T^2 = 1000 (and at T = inf).
    """
    x = t_hi * t_hi
    return 1.0 if x > 1e3 else 1.0 - (2.0 * x + 1.0) * math.exp(-x)


def _collapsed_cells(j, n_g, n_d, splits):
    """(d, g, w) with sum w F = int dg int dd d 16 g e^{-4g^2} (1 - 8g^2)
    J0(4gd) F(d, g) over d < j + 2g, where the arc table's diagonal lives.

    Panels sit at its kinks, g = j/2 and d = j, |j - 2g|, and at the
    separations in splits; g stops where exp(-4 g^2) passes below 1e-17, as
    the curve's cut in exp(-2 g^2).
    """
    gn, gw = _gl_segmented(0.0, _SIGMA_G_MAX / math.sqrt(2.0), n_g, (0.5 * j,))
    rules = [_gl_segmented(0.0, j + 2.0 * g, n_d, (j, abs(j - 2.0 * g), *splits))
             for g in gn]
    sizes = [len(r[0]) for r in rules]
    d, dw = (np.concatenate(x) for x in zip(*rules))
    g = np.repeat(gn, sizes)
    kernel = 16.0 * g * np.exp(-4.0 * g * g) * (1.0 - 8.0 * g * g) * bessel_j(0, 4 * g * d)
    return d, g, np.repeat(gw, sizes) * dw * d * kernel


def _collapsed_arc(j, level, splits):
    """(d, w A_j(d, g, g)) on _collapsed_cells at one node level."""
    d, g, w = _collapsed_cells(j, level[0], level[1], splits)
    return d, w * _arc_table(d, g, g, j, level[2])


def bp_hv_bound(case):
    """Deterministic bound for the bi-partite setup.

    Any separation profile with declared levels, through _bilinear_report.
    The first slot of I(r, r') is the arc side, the chance A_r that the
    collapse-displaced separation stays inside r (A = 1 on the full plane);
    the second is the profile side 1{d < r'}. Both factors reach sigma only
    through J0(2 g1 |sigma + delta|) J0(2 g2 |sigma - delta|) and their
    gradients, so over the sigma plane the closure of the Hankel transform,
    int J0(k r) J0(k' r) r dr = delta(k - k')/k, sets g1 = g2:

        I(r, r') = int dd d 1{d < r'} int dg 16 g e^{-4g^2} (1 - 8g^2)
                   J0(4gd) A_r(d, g, g).

    A full arc side leaves the closed 1 - (2 r'^2 + 1) e^{-r'^2}, exact. A
    disc takes _collapsed_arc's table once per jump and level of
    _COLLAPSE_LEVELS, and every profile slot reads it as a dot product: the
    finer level gives the value, the gap the error. No sigma grid enters;
    the sign step's curve integrates to sign_disc of the report.

    The quantum mean is bp_qm_mean's, the first eigenvalue of the
    relative-mode profile.
    """
    jumps = case.symbol.jumps
    tables = {r: [_collapsed_arc(r, level, jumps) for level in _COLLAPSE_LEVELS]
              for r in jumps}

    def pair(r1, r2, _case):
        r2 = math.inf if r2 is None else r2
        if r1 is None:
            return _reduced_pair_integral(r2), 0.0
        coarse, fine = (float(wa @ (d < r2)) for d, wa in tables[r1])
        return fine, abs(fine - coarse)

    return _bilinear_report("bipartite", case, pair, _relative_profile)


def sign_disc(report):
    """(value, error) of core_full - 2 core_core in the bp_hv_bound report of
    a one-jump profile: its sigma curve integrated over the plane."""
    c, e = report.notes["components"], report.notes["component_errors"]
    if len(c) != 4:
        raise ValueError(f"sign_disc needs a one-jump profile; got components {sorted(c)}")
    return c["core_full"] - 2.0 * c["core_core"], e["core_full"] + 2.0 * e["core_core"]
