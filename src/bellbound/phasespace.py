"""Deterministic bounds for the two concrete measurement setups.

Single particle: a radial sign-step symbol measured on the first excited
state of one mode. Bi-partite: the same step in the separation of two modes,
measured on the antisymmetric pair state. Both admit a bound assembled from
collapse probabilities, compared against the quantum mean of the quantized
symbol; the quantum mean squared exceeding the bound is the violation.

Conventions follow the rest of the package: hbar = 1, alpha = (q + ip)/sqrt 2,
and all integrals over phase space carry d^2 alpha.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .fock import DensityMatrix, _displacement_entries, _pair_vector, bell_pair_state
from .hvbound import BellReport
from .quad import (
    IntegrationSpec,
    QuadratureError,
    _gl_segmented,
    integrate_1d,
    integrate_radial_pair,
    mc_integrate,
)
from .specfun import assoc_laguerre, assoc_laguerre_seq, bessel_j
from .weyl import RadialSymbol, quantize_radial, sign_step, wigner

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
    "sigma_curve",
]

# jump radius of the default pair symbol, in the separation |alpha_1 - alpha_2|
SEPARATION_STEP = math.sqrt(0.5)

_DEFAULT_SP_DIM = 64
_DEFAULT_BP_DIM = 32


def _merge_jump_splits(spec, symbol):
    splits = set(spec.split_points)
    splits.update(symbol.jumps)
    if symbol.far_radius > 0:
        splits.add(float(symbol.far_radius))
    return replace(spec, split_points=tuple(sorted(splits)))


def _first_excited(dim):
    vec = np.zeros(dim)
    vec[1] = 1.0
    return DensityMatrix.from_state(vec)


@dataclass(frozen=True)
class SingleParticleCase:
    """One radial symbol measured on one single-mode state.

    Defaults reproduce the flagship setup: the sign step at radius 1/2 on
    the first excited state. The symbol's jump radii are folded into the
    integration spec as split points, so every quadrature downstream sees
    the discontinuity as a panel edge.
    """

    symbol: RadialSymbol = field(default_factory=lambda: sign_step(0.5))
    state: DensityMatrix = field(
        default_factory=lambda: _first_excited(_DEFAULT_SP_DIM)
    )
    spec: IntegrationSpec = field(default_factory=IntegrationSpec)

    def __post_init__(self):
        if self.state.modes != 1:
            raise ValueError("single-particle case needs a single-mode state")
        object.__setattr__(self, "spec", _merge_jump_splits(self.spec, self.symbol))


@dataclass(frozen=True)
class BipartiteCase:
    """A separation symbol measured on a two-mode pair state.

    The symbol profile is a function of the separation |alpha_1 - alpha_2|;
    the default steps at SEPARATION_STEP. The state must be pure within
    1e-12 in tr(rho^2): the reduced bound formulas project onto one vector.
    """

    symbol: RadialSymbol = field(
        default_factory=lambda: sign_step(SEPARATION_STEP)
    )
    state: DensityMatrix = field(
        default_factory=lambda: bell_pair_state(_DEFAULT_BP_DIM)
    )
    spec: IntegrationSpec = field(default_factory=IntegrationSpec)

    def __post_init__(self):
        if self.state.modes != 2:
            raise ValueError("bi-partite case needs a two-mode state")
        ent = self.state.entries
        purity = float(np.real(np.einsum("ij,ji->", ent, ent)))
        if abs(purity - 1.0) > 1e-12:
            raise ValueError(f"pair state must be pure, tr(rho^2) = {purity}")
        object.__setattr__(self, "spec", _merge_jump_splits(self.spec, self.symbol))


@dataclass(frozen=True)
class SigmaCurve:
    """f(|sigma|) sampled on a uniform grid, with per-point MC errors."""

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

    @property
    def pairs(self):
        return list(zip(self.points.tolist(), self.values.tolist()))

    def integral(self):
        """(value, error, tail): trapezoid over the grid plus an error budget.

        The error combines propagated per-point MC errors with a
        step-halving estimate of the discretization error. The tail is the
        mass of an exponential fitted to the last five points; it stands in
        for everything beyond the grid and is reported as uncertainty, not
        added to the value.
        """
        pts, vals, errs = self.points, self.values, self.errors
        value = float(np.trapezoid(vals, pts))
        halved = float(np.trapezoid(vals[::2], pts[::2]))
        disc = abs(value - halved) / 3.0
        w = np.empty_like(pts)
        w[0] = 0.5 * (pts[1] - pts[0])
        w[-1] = 0.5 * (pts[-1] - pts[-2])
        w[1:-1] = 0.5 * (pts[2:] - pts[:-2])
        mc = float(math.sqrt(np.sum((w * errs) ** 2)))
        tv = vals[-5:]
        if np.all(tv > 0):
            slope = float(np.polyfit(pts[-5:], np.log(tv), 1)[0])
            if slope < 0:
                tail = float(tv[-1] / -slope)
            else:
                tail = float(np.max(tv) * 2.0)
        else:
            # sign changes mean the tail level is set by noise or a slow
            # negative approach to zero; per-point data cannot resolve the
            # decay, so assume two units of decay length
            tail = float(np.max(np.abs(tv)) * 2.0)
        return value, mc + disc, tail


def _step_radius(symbol):
    """None for the unit profile, the jump radius for the sign-step family."""
    probes = np.array([0.17, 0.83, 1.9])
    if not symbol.jumps:
        if symbol.far_value == 1.0 and np.allclose(symbol(probes), 1.0, atol=1e-12):
            return None
    elif len(symbol.jumps) == 1 and symbol.far_value == 1.0:
        r0 = float(symbol.jumps[0])
        inside = float(symbol(np.array([0.5 * r0]))[0])
        outside = symbol(np.array([1.5 * r0, 4.0 * r0]))
        if inside == -1.0 and np.all(outside == 1.0):
            return r0
    raise ValueError("closed route covers the unit and sign-step profiles only")


# ---------------------------------------------------------------------------
# single particle


def _excited_kernel(r1, d):
    # collapse sum for the first excited state in closed form: the state
    # side enters through its radius r1, the symbol side only through the
    # separation d
    return (
        (4.0 / math.pi**2)
        * (1.0 - 4.0 * d * d)
        * np.exp(-2.0 * d * d)
        * bessel_j(0, 4.0 * d * r1)
    )


def sp_hv_bound(case):
    """Deterministic bound for the single-particle setup, closed kernel route.

    Restricted to the first excited state, whose collapse sum has the closed
    kernel (4/pi^2)(1 - 4 d^2) exp(-2 d^2) J0(4 d r). The sign-step symbol
    splits the double phase-space integral into four region pieces,

        total = full_full - 2 core_full - 2 full_core + 4 core_core,

    where core restricts to the disc inside the jump radius, first slot the
    state side and second slot the symbol side. The unit symbol keeps only
    full_full, which integrates to 1 exactly.

    Returns a BellReport; the components and their quadrature errors sit in
    notes["components"] / notes["component_errors"], and notes["violation"]
    says whether the squared quantum mean clears the bound plus its error.
    """
    state = case.state
    if state.dim < 2 or abs(state.entries[1, 1] - 1.0) > 1e-9:
        raise ValueError(
            "kernel route needs the first excited state; "
            "sp_hv_bound_generic handles other number-diagonal states"
        )
    r0 = _step_radius(case.symbol)
    spec = case.spec
    comps = {}
    errs = {}
    res = integrate_radial_pair(_excited_kernel, spec)
    comps["full_full"] = res.value
    errs["full_full"] = res.error_estimate
    if r0 is None:
        total = res.value
        err = res.error_estimate
    else:
        pieces = {
            "core_full": {"r1_max": r0},
            "full_core": {"r2_max": r0},
            "core_core": {"r1_max": r0, "r2_max": r0},
        }
        for name, kw in pieces.items():
            part = integrate_radial_pair(_excited_kernel, spec, **kw)
            comps[name] = part.value
            errs[name] = part.error_estimate
        total = (
            comps["full_full"]
            - 2.0 * comps["core_full"]
            - 2.0 * comps["full_core"]
            + 4.0 * comps["core_core"]
        )
        err = (
            errs["full_full"]
            + 2.0 * errs["core_full"]
            + 2.0 * errs["full_core"]
            + 4.0 * errs["core_core"]
        )
    qm = float(quantize_radial(case.symbol, 2, spec).eigenvalues[1])
    return BellReport(
        label="single-particle",
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


def _displaced_level_weights(levels, probs, n_max, r):
    """c_n(r) = <n| D(r)^dag rho D(r) |n> for a number-diagonal rho.

    Closed per-element form: with m the source level, nm = min(m, n),
    a = |m - n| and x = r^2,

        |<m|D(r)|n>|^2 = exp(-x) (nm! / (nm + a)!) x^a L_nm^(a)(x)^2.

    Returns shape (n_max + 1, r.size).
    """
    x = np.asarray(r, dtype=float) ** 2
    out = np.zeros((n_max + 1,) + x.shape)
    for m, pm in zip(levels, probs):
        for n in range(n_max + 1):
            nm = min(m, n)
            a = abs(m - n)
            log_ratio = math.lgamma(nm + 1) - math.lgamma(nm + a + 1)
            poly = assoc_laguerre(nm, a, x)
            out[n] += pm * math.exp(log_ratio) * np.exp(-x) * x**a * poly * poly
    return out


def _displaced_parity(levels, probs, r):
    """<Pi>_{D(r)^dag rho D(r)} = sum_m p_m (-1)^m exp(-2r^2) L_m(4r^2)."""
    x4 = 4.0 * np.asarray(r, dtype=float) ** 2
    lag = assoc_laguerre_seq(max(levels), 0, x4)
    out = np.zeros_like(x4)
    for m, pm in zip(levels, probs):
        out += pm * (-1.0) ** m * lag[m]
    return np.exp(-0.5 * x4) * out


def _kernel_moments_inner(symbol, n_max, r, n_rho, n_theta):
    """Disc correction to the kernel moments, shape (n_max + 1, r.size).

    K_n(r) = int d^2 a' B(|a'|) exp(-2 d^2) L_n(4 d^2) with d = |a' - r|
    splits into the far value's full-plane moment, pi (-1)^n / 2 exactly,
    plus this integral of B - far_value over the disc where they differ.
    """
    fv = symbol.far_value
    r = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.zeros((n_max + 1, r.size))
    R0 = float(symbol.far_radius)
    if R0 <= 0.0:
        return out
    rho, w_rho = _gl_segmented(0.0, R0, n_rho, symbol.jumps)
    diff = symbol(rho) - fv
    theta = (np.arange(n_theta) + 0.5) * (math.pi / n_theta)
    w_theta = 2.0 * math.pi / n_theta  # the integrand is even in theta
    cos_t = np.cos(theta)
    radial = (w_rho * rho * diff)[None, :, None]
    for i in range(0, r.size, 16):
        rr = r[i : i + 16][:, None, None]
        d2 = np.maximum(
            rr * rr
            + rho[None, :, None] ** 2
            - 2.0 * rr * rho[None, :, None] * cos_t[None, None, :],
            0.0,
        )
        lag = assoc_laguerre_seq(n_max, 0, 4.0 * d2)
        out[:, i : i + 16] = w_theta * np.sum(
            lag * (radial * np.exp(-2.0 * d2))[None], axis=(2, 3)
        )
    return out


def sp_hv_bound_generic(rho, symbol, n_max=24, spec=None, details=False):
    """Collapse-sum bound for any number-diagonal single-mode state.

    The bound is (8/pi) int r B(r) sum_n c_n(r) K_n(r) dr with c_n the
    collapse weights of the displaced state and K_n the kernel moments of
    the symbol. The far value's share of K_n is summed over all n in closed
    form against the displaced parity of the state, so no level truncation
    touches it; only the disc where the symbol departs from its far value
    is expanded over collapse levels n <= n_max.

    The n-tail of the disc part is estimated from the geometric decay of
    its per-level contributions plus a worst-case weight for the levels
    beyond n_max; if the estimate exceeds rel_tol times the bound the
    result is not trustworthy and a QuadratureError is raised. Pass
    details=True for (value, info) with the per-level terms and the tail.
    """
    if spec is None:
        spec = IntegrationSpec()
    spec = _merge_jump_splits(spec, symbol)
    levels, probs = _diagonal_weights(rho)
    if not 1 <= n_max <= rho.dim // 2:
        raise ValueError(f"n_max must lie in [1, {rho.dim // 2}] for dim {rho.dim}")
    if symbol.far_value is None:
        raise ValueError("generic route needs a symbol with a declared far value")

    def base_integrand(r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        return 4.0 * symbol.far_value * r * symbol(r) * _displaced_parity(levels, probs, r)

    base = integrate_1d(base_integrand, 0.0, spec.r_max, spec)
    value = base.value
    quad_err = base.error_estimate
    per_level = np.zeros(n_max + 1)
    tail = 0.0
    R0 = float(symbol.far_radius)
    if R0 > 0.0:
        # the disc correction decays like exp(-2 (r - R0)^2) in the center
        # radius, so the integration range can stop well short of r_max
        r_hi = min(spec.r_max, R0 + 3.4)

        def disc_terms(n_outer, n_rho, n_theta):
            nodes, w = _gl_segmented(0.0, r_hi, n_outer, spec.split_points)
            c = _displaced_level_weights(levels, probs, n_max, nodes)
            k = _kernel_moments_inner(symbol, n_max, nodes, n_rho, n_theta)
            outer = w * nodes * symbol(nodes)
            return (8.0 / math.pi) * np.sum(outer[None, :] * c * k, axis=1), nodes, w, c

        coarse, _, _, _ = disc_terms(128, 32, 64)
        fine, nodes, w, c = disc_terms(192, 48, 96)
        per_level = fine
        value += float(per_level.sum())
        quad_err += abs(float(fine.sum() - coarse.sum()))
        # absolute weight of the disc region, for the worst-case tail
        rho_n, rho_w = _gl_segmented(0.0, R0, 48, symbol.jumps)
        disc_area = 2.0 * math.pi * float(
            np.sum(rho_w * rho_n * np.abs(symbol(rho_n) - symbol.far_value))
        )
        mags = np.abs(per_level)
        geo = 0.0
        if mags[-1] > 0 and mags[-2] > 0:
            q = mags[-1] / mags[-2]
            if q < 0.75:
                geo = float(mags[-1] * q / (1.0 - q))
            else:
                geo = float(mags[-1] * 4.0)
        deficit = np.maximum(1.0 - c.sum(axis=0), 0.0)
        damp = np.exp(-2.0 * np.maximum(nodes - R0, 0.0) ** 2)
        beyond = (8.0 / math.pi) * disc_area * float(
            np.sum(np.abs(w * nodes * symbol(nodes)) * deficit * damp)
        )
        tail = geo + beyond
        if tail > spec.rel_tol * max(abs(value), 1e-3):
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


def coarse_parity_bound(rho, symbol, spec=None):
    """Bound from parity-resolved collapses instead of level-resolved ones.

    At every center the rank-one projections are lumped into the even and
    odd parity blocks of the displaced number basis; the collapsed state
    keeps its coherence inside each block. With rho~ and B~ the state and
    the quantized symbol conjugated to the center,

        bound = 4 int r B(r) [tr_even(rho~ B~) - tr_odd(rho~ B~)] dr,

    where tr_even keeps the even-even block of both factors.

    The block sandwich collapses to tr(rho~ {Pi, B~}) / 2, so the whole
    integral reproduces the quantum second moment tr(rho B^2) identically:
    collapses this coarse can never produce a violation, for any radial
    symbol, and this function exists to exhibit that. Needs a
    number-diagonal state (the radial reduction assumes phase symmetry).
    The radial integral is one integrate_1d call, cut where the displaced
    state starts to leak past the truncation.
    """
    if spec is None:
        spec = IntegrationSpec()
    spec = _merge_jump_splits(spec, symbol)
    levels, probs = _diagonal_weights(rho)
    dim = rho.dim
    lam = quantize_radial(symbol, dim, spec).eigenvalues
    p = np.real(np.diag(rho.entries))
    # stop where the displaced state would leak past the truncation
    scan = np.linspace(0.0, spec.r_max, 161)
    weights = _displaced_level_weights(levels, probs, dim - 1, scan)
    short = np.maximum(1.0 - weights.sum(axis=0), 0.0)
    bad = np.nonzero(short > 1e-9)[0]
    r_cut = float(scan[-1] if bad.size == 0 else scan[max(bad[0] - 1, 1)])
    if r_cut < 1.5:
        raise QuadratureError(
            f"truncation {dim} only covers displacements to {r_cut:.2f}"
        )

    def integrand(r):
        d = _displacement_entries(r, dim)
        dh = np.conj(np.swapaxes(d, -1, -2))
        rt = (dh * p) @ d
        bt = (dh * lam) @ d
        te = np.einsum("ijk,ikj->i", rt[:, ::2, ::2], bt[:, ::2, ::2])
        to = np.einsum("ijk,ikj->i", rt[:, 1::2, 1::2], bt[:, 1::2, 1::2])
        worst = max(np.max(np.abs(te.imag)), np.max(np.abs(to.imag)))
        if worst > 1e-9:
            raise ValueError(f"parity traces picked up imaginary part {worst:.2e}")
        return 4.0 * r * symbol(r) * (te.real - to.real)

    return integrate_1d(integrand, 0.0, r_cut, spec).value


# ---------------------------------------------------------------------------
# bi-partite


def _pair_state_checked(case):
    vec = _pair_vector(case.state.dim)
    overlap = float(np.real(vec.conj() @ case.state.entries @ vec))
    if abs(overlap - 1.0) > 1e-9:
        raise ValueError(
            "the reduced bi-partite formulas are specific to the "
            f"antisymmetric pair state; overlap {overlap:.6f}"
        )


def _relative_profile(symbol):
    """The separation profile as a radial symbol of the relative mode.

    The relative mode carries (alpha_1 - alpha_2)/sqrt 2, so a profile in
    the separation t becomes r -> B(sqrt 2 r) with rescaled jump radii.
    """
    root2 = math.sqrt(2.0)
    return RadialSymbol(
        lambda r: symbol(root2 * np.asarray(r, dtype=float)),
        description="relative-mode " + (symbol.description or "profile"),
        jumps=tuple(j / root2 for j in symbol.jumps),
        far_value=symbol.far_value,
        far_radius=symbol.far_radius / root2,
    )


def bp_qm_mean(case):
    """Quantum mean of the separation symbol, phase-space route.

    (2 pi)^2 int s ds int t dt W(s, t) B(t) over real representatives
    alpha_1 = (s + t)/2, alpha_2 = (s - t)/2, which covers every orbit of
    the two phase rotations exactly once. That requires a state whose
    Wigner function depends only on the two moduli |sigma| and |delta|;
    the symmetry is probed at a test point before being relied on. The
    integral is the relative route of integrate_radial_pair, r1 = s, d = t.
    """
    state = case.state
    s0, t0 = 0.8 + 0.0j, 1.1 + 0.0j
    ref = None
    for phase_s, phase_t in ((0.0, 0.0), (0.9, 0.0), (0.0, 2.1), (1.7, 0.6)):
        sigma = s0 * np.exp(1j * phase_s)
        delta = t0 * np.exp(1j * phase_t)
        pts = np.array([[(sigma + delta) / 2.0, (sigma - delta) / 2.0]])
        val = float(wigner(state, pts)[0])
        if ref is None:
            ref = val
        elif abs(val - ref) > 1e-9 * max(1.0, abs(ref)):
            raise ValueError("state is not phase symmetric in the pair coordinates")

    def f(s, t):
        pts = np.stack([(s + t) / 2.0, (s - t) / 2.0], axis=-1).astype(complex)
        return wigner(state, pts) * case.symbol(t)

    return integrate_radial_pair(f, case.spec).value


def _sigma_integrand(s, j, symbol, mode, x):
    """Reduced six-dimensional integrand at center modulus s.

    Columns of x: separation modulus d and its angle, two uniforms u_i that
    substitute the displacement moduli through g_i = sqrt(-ln u_i / 2)
    (g exp(-2 g^2) dg = du / 4 exactly, the 1/16 stays in the prefactor),
    and the two displacement angles. mode picks the pair of symbol factors:
    "full" keeps the signed profile against the collapse-displaced
    indicator, the validation modes "disc_unit" and "unit_unit" replace
    them by closed-form pairs.
    """
    d = x[:, 0]
    e = d * np.exp(1j * x[:, 1])
    u1 = np.maximum(x[:, 2], 1e-12)
    u2 = np.maximum(x[:, 3], 1e-12)
    g1 = np.sqrt(-np.log(u1) / 2.0)
    g2 = np.sqrt(-np.log(u2) / 2.0)
    a1 = 0.5 * np.abs(s + e)
    a2 = 0.5 * np.abs(s - e)
    y1 = 4.0 * a1 * g1
    y2 = 4.0 * a2 * g2
    term = (1.0 - 2.0 * g1 * g1 - 2.0 * g2 * g2) * bessel_j(0, y1) * bessel_j(0, y2)
    with np.errstate(invalid="ignore", divide="ignore"):
        rat1 = np.where(y1 > 1e-6, bessel_j(1, y1) / y1, 0.5 - y1 * y1 / 16.0)
        rat2 = np.where(y2 > 1e-6, bessel_j(1, y2) / y2, 0.5 - y2 * y2 / 16.0)
    cross = 16.0 * g1 * g1 * g2 * g2 * (s * s - d * d) * rat1 * rat2
    kern = term - cross
    if mode == "full":
        first = symbol(d)
        w = e + g1 * np.exp(1j * x[:, 4]) - g2 * np.exp(1j * x[:, 5])
        keep = (np.abs(w) < j).astype(float)
    elif mode == "disc_unit":
        first = (d < j).astype(float)
        keep = 1.0
    else:  # unit_unit
        first = 1.0
        keep = 1.0
    return d * kern * first * keep


_SIGMA_STRATA = 12


def _sigma_point(case, j, s, index, mode):
    if s == 0.0:
        return 0.0, 0.0
    spec = case.spec
    two_pi = 2.0 * math.pi
    bounds = [
        (0.0, spec.r_max),
        (0.0, two_pi),
        (0.0, 1.0),
        (0.0, 1.0),
        (0.0, two_pi),
        (0.0, two_pi),
    ]
    res = mc_integrate(
        lambda x: _sigma_integrand(s, j, case.symbol, mode, x),
        6,
        bounds,
        spec,
        strata=_SIGMA_STRATA,
        stream_key=(index,),
    )
    scale = (8.0 / math.pi**3) * s / 16.0
    return scale * res.value, scale * res.error_estimate


def sigma_curve(case, mode="full"):
    """The reduced integrand f(|sigma|) on the uniform grid, by Monte Carlo.

    One stratified six-dimensional MC integral per grid point, streams
    keyed by the grid index so the curve is reproducible bit for bit for a
    given IntegrationSpec. f(0) vanishes with the phase-space measure and
    is set exactly.

    mode is a validation hook: "disc_unit" and "unit_unit" replace the two
    symbol factors by pairs whose curve is known in closed form
    (4 C s exp(-s^2) with C the inner-disc moment, and 2 s exp(-s^2)).

    Raises QuadratureError when any point's MC error passes 15 percent of
    the larger of the point itself and a fifth of the curve maximum (the
    floor keeps near-zero points from tripping the relative test).
    """
    _pair_state_checked(case)
    if mode not in ("full", "disc_unit", "unit_unit"):
        raise ValueError(f"unknown mode {mode!r}")
    j = None
    if mode != "unit_unit":
        j = _step_radius(case.symbol)
        if j is None:
            raise ValueError("sigma reduction needs the sign-step profile")
    spec = case.spec
    n = int(math.floor(spec.sigma_max / spec.sigma_step + 1e-9))
    pts = spec.sigma_step * np.arange(n + 1)
    if pts.size < 6:
        raise ValueError(
            f"sigma_max {spec.sigma_max} and sigma_step {spec.sigma_step} give "
            f"{pts.size} grid points; need at least six"
        )
    values = np.empty(pts.size)
    errors = np.empty(pts.size)
    for i, s in enumerate(pts):
        values[i], errors[i] = _sigma_point(case, j, float(s), i, mode)
    floor = 0.2 * float(np.max(np.abs(values)))
    scale = np.maximum(np.abs(values), floor)
    bad = np.nonzero(errors > 0.15 * scale)[0]
    if bad.size:
        worst = int(bad[np.argmax(errors[bad] / scale[bad])])
        raise QuadratureError(
            f"MC error at sigma = {pts[worst]:.2f} is "
            f"{errors[worst]:.2e} against f = {values[worst]:.2e}; "
            "raise mc_samples"
        )
    return SigmaCurve(pts, values, errors)


def _reduced_pair_quad(spec, t_hi):
    """int_0^rmax ds int_0^thi dt 4 s t (2 t^2 - 1) exp(-(s^2 + t^2))."""

    def outer(svals):
        svals = np.atleast_1d(np.asarray(svals, dtype=float))
        out = np.empty_like(svals)
        for i, s in enumerate(svals):
            inner = integrate_1d(
                lambda t: 4.0 * s * t * (2.0 * t * t - 1.0) * np.exp(-(s * s + t * t)),
                0.0,
                t_hi,
                spec,
            )
            out[i] = inner.value
        return out

    res = integrate_1d(outer, 0.0, spec.r_max, spec)
    return res.value, res.error_estimate + spec.abs_tol * spec.r_max


def bp_hv_bound(case, curve=None):
    """Deterministic bound for the bi-partite setup.

    The product of the two symbol factors is split into three pieces,

        total = unit_unit - 2 disc_unit - 2 sign_disc,

    where disc means the factor is replaced by the indicator of separations
    inside the jump radius and sign keeps the full signed profile. The
    first two reduce to the closed kernel 4 s t (2t^2 - 1) exp(-(s^2+t^2))
    and go by nested quadrature (unit_unit integrates to 1 exactly, kept as
    a consistency component); only sign_disc needs the six-dimensional
    Monte Carlo, integrated over a SigmaCurve (computed here unless one is
    passed in). The curve's fitted tail beyond the grid enters the error
    budget, never the value.

    The quantum mean in the report comes from the first eigenvalue of the
    relative-mode profile; bp_qm_mean is the quadrature cross-check.
    """
    _pair_state_checked(case)
    r0 = _step_radius(case.symbol)
    spec = case.spec
    comps = {}
    errs = {}
    i11, e11 = _reduced_pair_quad(spec, spec.r_max)
    comps["unit_unit"] = i11
    errs["unit_unit"] = e11
    tail = 0.0
    if r0 is None:
        total = i11
        err = e11
    else:
        idu, edu = _reduced_pair_quad(spec, r0)
        comps["disc_unit"] = idu
        errs["disc_unit"] = edu
        if curve is None:
            curve = sigma_curve(case)
        elif curve.points[0] != 0.0 or abs(
            curve.points[1] - curve.points[0] - spec.sigma_step
        ) > 1e-12:
            raise ValueError("sigma curve grid does not match the spec")
        isd, esd, tail = curve.integral()
        if esd + tail > 0.15 * max(abs(isd), 1e-6):
            raise QuadratureError(
                f"sigma-curve error {esd + tail:.2e} above 15 percent of {isd:.2e}"
            )
        comps["sign_disc"] = isd
        errs["sign_disc"] = esd + tail
        total = i11 - 2.0 * idu - 2.0 * isd
        err = e11 + 2.0 * edu + 2.0 * (esd + tail)
    qm = float(quantize_radial(_relative_profile(case.symbol), 2, spec).eigenvalues[1])
    return BellReport(
        label="bipartite",
        qm_mean=qm,
        qm_second_moment=qm * qm,
        hv_bound=total,
        bound_difference=qm * qm - total,
        skipped_terms=0,
        notes={
            "components": comps,
            "component_errors": errs,
            "error_estimate": err,
            "sigma_tail": tail,
            "violation": bool(qm * qm > total + err),
        },
    )
