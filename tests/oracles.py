"""Reference implementations that only the tests use.

Each one is an independent route to a quantity the package computes
another way; none sits on a production path. peak_traced, the one
measuring helper, reads a call's peak traced memory.
"""

import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np

from bellbound.fock import (
    DensityMatrix,
    FockOperator,
    _displacement_entries,
    displacement,
    tensor,
    trace_product,
)
from bellbound.hvbound import TSIRELSON_SETTINGS, Decomposition, _spin_projectors, qm_mean
from bellbound.phasespace import (
    _SIGMA_G_MAX,
    _SIGMA_REACH,
    _arc_table,
    _displaced_level_weights,
    _kernel_moments_inner,
    _panel_edges,
)
from bellbound.quad import QuadResult, _gl_segmented
from bellbound.specfun import bessel_j
from bellbound.weyl import piecewise_symbol, wigner

# where the oracles' radial ranges end, in |alpha|, far out on the Gaussian
# envelopes they integrate
R_MAX = 6.0


def peak_traced(fn, *args):
    """The peak memory, in bytes, that tracemalloc traces during fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def laguerre(n, x):
    """Laguerre polynomial L_n(x), three-term recurrence upward in n."""
    return assoc_laguerre(n, 0, x)


def assoc_laguerre(n, a, x):
    """Associated Laguerre polynomial L_n^{(a)}(x).

    The last row of assoc_laguerre_seq, well conditioned for x >= 0.
    """
    if n < 0 or a < 0:
        raise ValueError("n and a must be nonnegative")
    cur = assoc_laguerre_seq(n, a, x)[n]
    return cur if cur.ndim else float(cur)


def assoc_laguerre_seq(n_max, a, x):
    """All of L_0^{(a)}(x) .. L_{n_max}^{(a)}(x) from one recurrence sweep.

    The unscaled polynomials, a reference for the package's scaled values
    e^{-x/2} L_n(x) (they overflow where those do not). The order a may be an
    integer array broadcasting against x, each order bit for bit its own
    call. The degree leads the result, then the shape of a and x.
    """
    if n_max < 0 or np.any(np.asarray(a) < 0):
        raise ValueError("n_max and a must be nonnegative")
    x = np.asarray(x, dtype=float)
    cur = np.ones(np.broadcast_shapes(np.shape(a), x.shape))
    prev = np.zeros_like(cur)
    out = np.empty((n_max + 1,) + cur.shape)
    out[0] = cur
    for k in range(n_max):
        prev, cur = cur, ((2 * k + 1 + a - x) * cur - (k + a) * prev) / (k + 1)
        out[k + 1] = cur
    return out


def j_series(order, x, dtype):
    """Power series of J0 or J1 summed in the given floating dtype.

    Bessel oracle for the seams: in long double the series keeps float64
    digits through x = 16, where cancellation ruins a float64 sum.
    """
    half = np.asarray(x, dtype=dtype) / 2
    t = half * half
    term = np.ones_like(t) if order == 0 else half.copy()
    total = term.copy()
    for k in range(1, 64):
        term = term * (-t) / (k * (k + order))
        total = total + term
        if k % 8 == 0 and float(np.max(np.abs(term))) < 1e-25:
            break
    return np.asarray(total, dtype=np.float64)


def laguerre_sum(x, y, n_terms):
    """Partial sum over n < n_terms of y^n / n! * L_n(x).

    Convergence oracle for the closed form J0(2 sqrt(x y)) e^y.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    coef = np.cumprod(np.concatenate(([1.0], y / np.arange(1.0, n_terms))))
    return float(coef @ assoc_laguerre_seq(n_terms - 1, 0, x))


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


def quantizer(alpha, dim):
    """(1/pi) D(alpha) Pi D(alpha)^dagger, the displaced-parity kernel.

    pi times this operator is the parity reflected about alpha, a unitary
    involution; the 1/pi prefactor makes it the kernel of the symbol maps.
    This is the truncated product, which drops the levels >= dim inside
    D Pi D^dagger; weyl.symbol_of uses the exact elements instead.
    """
    d = displacement(alpha, dim).entries
    signs = (-1.0) ** np.arange(dim)
    entries = (d * signs[None, :]) @ d.conj().T / math.pi
    entries = 0.5 * (entries + entries.conj().T)
    return FockOperator(entries, hermitian=True)


def coarse_parity_integrand(rho, symbol, lam, r):
    """The coarse parity bound's integrand 4 r B(r) [tr_even - tr_odd].

    Dense route: rho~ = D^dag rho D and B~ = D^dag diag(lam) D on the
    truncated basis at each center r, with tr_even (tr_odd) the trace of
    the even-even (odd-odd) blocks of rho~ B~. Exact while the displaced
    state stays inside the truncation.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    d = _displacement_entries(r, rho.dim)
    dh = np.conj(np.swapaxes(d, -1, -2))
    rt = (dh * np.real(np.diag(rho.entries))) @ d
    bt = (dh * lam) @ d
    even = np.einsum("ijk,ikj->i", rt[:, ::2, ::2], bt[:, ::2, ::2])
    odd = np.einsum("ijk,ikj->i", rt[:, 1::2, 1::2], bt[:, 1::2, 1::2])
    return 4.0 * r * symbol(r) * (even - odd)


def radial_eigenvalues(symbol, dim):
    """Eigenvalues lam_0 .. lam_{dim-1} of a declared radial symbol, closed form.

    With c_k = levels[k-1] - levels[k] and X_k = 4 r_k^2 at the k-th jump,
    lam_n = levels[-1] + sum_k c_k [1 - e^{-X_k/2} (2 sum_{j<n} (-1)^j
    L_j(X_k) + (-1)^n L_n(X_k))], the coefficient form of the generating
    function behind weyl.bell_eigenvalue_generating.
    """
    lam = np.full(dim, symbol.levels[-1])
    signs = (-1.0) ** np.arange(dim)
    for k, jump in enumerate(symbol.jumps, start=1):
        x = 4.0 * jump * jump
        lag = signs * assoc_laguerre_seq(dim - 1, 0, x)
        below = np.concatenate(([0.0], np.cumsum(lag)[:-1]))
        c = symbol.levels[k - 1] - symbol.levels[k]
        lam += c * (1.0 - math.exp(-0.5 * x) * (2.0 * below + lag))
    return lam


def radial_eigenvalues_exact(symbol, dim, digits=80):
    """radial_eigenvalues as mpf values, exact but for e^{-X_k/2}.

    X_k = 4 r_k^2 is formed in rationals from the float jump, the recurrence
    in Fractions gives each L_j(X_k) exactly, as its series would, and
    e^{-X_k/2} is taken at the given digits: a reference for the package's
    closed form and its rounding bound.
    """
    with mpmath.workdps(digits):
        lam = [mpmath.mpf(symbol.levels[-1])] * dim
        for k, jump in enumerate(symbol.jumps, start=1):
            x = 4 * Fraction(jump) ** 2
            lag = [Fraction(1), 1 - x]
            for j in range(1, dim - 1):
                lag.append(((2 * j + 1 - x) * lag[j] - j * lag[j - 1]) / (j + 1))
            scale = mpmath.exp(-mpmath.mpf(x.numerator) / x.denominator / 2)
            c = mpmath.mpf(symbol.levels[k - 1]) - mpmath.mpf(symbol.levels[k])
            below = Fraction(0)
            for n in range(dim):
                term = (-1) ** n * lag[n]
                inner = 2 * below + term
                lam[n] += c * (1 - scale * mpmath.mpf(inner.numerator) / inner.denominator)
                below += term
        return lam


def kernel_moments_inner(symbol, n_max, r, n_rho, n_theta):
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


# Below this outcome probability a collapse is treated as impossible instead
# of dividing by a denormal.
PROBABILITY_FLOOR = 1e-12


class CollapseError(ValueError):
    """Measurement outcome with probability at or below the floor."""


def luders_collapse(rho, p):
    """Post-measurement state and outcome probability (P rho P / tr, tr).

    The per-outcome route to the collapse bound: sum_u w_u Tr(rho_u B) p_u
    over the outcomes above the floor is hv_bound's Tr(rho C).
    """
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


def random_family(rng, dim):
    """Rank-one projectors onto the columns of a random unitary."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    u, _ = np.linalg.qr(g)
    return [FockOperator(np.outer(u[:, k], u[:, k].conj()), hermitian=True)
            for k in range(dim)]


def commuting_joint_distribution(rho, families, seed=0):
    """Joint outcome distribution of commuting projective measurements.

    families is a sequence of projector lists, each resolving the identity.
    A random hermitian combination of all projectors is diagonalized to find
    the common eigenbasis; if any projector fails to be diagonal there the
    families do not commute and no joint distribution exists.
    """
    if not families or any(len(f) == 0 for f in families):
        raise ValueError("families must be non-empty lists of projectors")
    dim = families[0][0].entries.shape[0]
    for fam in families:
        total = sum(p.entries for p in fam)
        if np.max(np.abs(total - np.eye(dim))) > 1e-10:
            raise ValueError("family does not resolve the identity")
    flat = [p for fam in families for p in fam]
    rng = np.random.default_rng(seed)
    for _ in range(4):
        combo = sum(rng.uniform(0.5, 1.5) * p.entries for p in flat)
        _, basis = np.linalg.eigh(combo)
        rotated = [basis.conj().T @ p.entries @ basis for p in flat]
        off = max(np.max(np.abs(r - np.diag(np.diag(r)))) for r in rotated)
        if off < 1e-10:
            break
    else:
        raise ValueError("projector families do not commute")
    weights = np.real(np.diag(basis.conj().T @ rho.entries @ basis))
    indicators = [np.real(np.diag(r)).round().astype(int) for r in rotated]
    shape = tuple(len(f) for f in families)
    joint = np.zeros(shape)
    offsets = np.cumsum([0] + [len(f) for f in families])[:-1]
    for b in range(dim):
        idx = []
        for fi, fam in enumerate(families):
            hits = [k for k in range(len(fam))
                    if indicators[offsets[fi] + k][b] == 1]
            if len(hits) != 1:
                raise ValueError("basis state not classified by a family")
            idx.append(hits[0])
        joint[tuple(idx)] += weights[b]
    for fi, fam in enumerate(families):
        margin = joint.sum(axis=tuple(k for k in range(len(families)) if k != fi))
        direct = np.array([qm_mean(rho, p) for p in fam])
        if np.max(np.abs(margin - direct)) > 1e-10:
            raise ValueError("joint distribution fails to reproduce a margin")
    return joint


MC_CHUNK = 262_144


def padded_chsh_decomposition(dim):
    """The default CHSH decomposition with each mode embedded in `dim` levels.

    Each 2 x 2 spin projector is padded, up by the identity on levels
    2 .. dim - 1 and down by zero, so each local observable up - down is +1
    outside the qubit block. The target is the correlator sum of those
    observables, built apart from the 16 product projectors.
    """
    def padded(p, rest):
        entries = np.diag([0.0, 0.0] + [rest] * (dim - 2)).astype(complex)
        entries[:2, :2] = p.entries
        return FockOperator(entries, hermitian=True)

    proj = {}
    for key, direction in TSIRELSON_SETTINGS.items():
        up, down = _spin_projectors(direction)
        proj[key] = (padded(up, 1.0), padded(down, 0.0))
    pair_sign = {("a", "b"): 1.0, ("a", "b'"): 1.0, ("a'", "b"): 1.0,
                 ("a'", "b'"): -1.0}
    terms = []
    target = np.zeros((dim * dim, dim * dim), dtype=complex)
    for (left, right), eps in pair_sign.items():
        for s, ps in zip((1.0, -1.0), proj[left]):
            for t, qt in zip((1.0, -1.0), proj[right]):
                terms.append((eps * s * t, tensor(ps, qt)))
        obs = [up.entries - down.entries for up, down in (proj[left], proj[right])]
        target += eps * np.kron(*obs)
    return Decomposition(tuple(terms), FockOperator(target, modes=2, hermitian=True))


def mc_integrate(f, dims, bounds, spec, strata=None, stream_key=()):
    """Monte Carlo integral of f over a box, optionally stratified.

    f maps an (n, dims) array of points to n values. Stratification splits
    the first coordinate into equal slabs. Sampling streams are keyed by
    (spec.seed, *stream_key, stratum, chunk) with a fixed chunk size, so
    results are bit-reproducible and independent of scheduling. The
    standard error is reported, never raised.
    """
    if not 1 <= dims <= 8:
        raise ValueError("dims must be between 1 and 8")
    box = [(float(lo), float(hi)) for lo, hi in bounds]
    if len(box) != dims:
        raise ValueError("bounds must list one interval per dimension")
    if any(hi <= lo for lo, hi in box):
        raise ValueError("empty interval in bounds")
    n_strata = int(strata) if strata else 1
    edges = np.linspace(box[0][0], box[0][1], n_strata + 1)
    base = spec.mc_samples // n_strata
    extra = spec.mc_samples % n_strata
    lows = np.array([lo for lo, _ in box])
    spans = np.array([hi - lo for lo, hi in box])
    value = 0.0
    variance = 0.0
    evals = 0
    for s_idx in range(n_strata):
        n = base + (1 if s_idx < extra else 0)
        if n == 0:
            continue
        slab_lows = lows.copy()
        slab_spans = spans.copy()
        slab_lows[0] = edges[s_idx]
        slab_spans[0] = edges[s_idx + 1] - edges[s_idx]
        volume = float(np.prod(slab_spans))
        sum1 = 0.0
        sum2 = 0.0
        done = 0
        chunk_idx = 0
        while done < n:
            take = min(MC_CHUNK, n - done)
            rng = np.random.default_rng(
                (int(spec.seed), *map(int, stream_key), s_idx, chunk_idx)
            )
            pts = slab_lows + rng.random((take, dims)) * slab_spans
            vals = np.asarray(f(pts), dtype=float)
            sum1 += float(np.sum(vals))
            sum2 += float(np.sum(vals * vals))
            done += take
            chunk_idx += 1
        mean = sum1 / n
        value += volume * mean
        if n > 1:
            sample_var = max(sum2 / n - mean * mean, 0.0) * n / (n - 1)
            variance += volume * volume * sample_var / n
        evals += n
    return QuadResult(value, math.sqrt(variance), evals)


def sigma_integrand(s, j, symbol, x):
    """The sigma curve's six-dimensional integrand at center modulus s.

    Columns of x: separation modulus d and its angle, two uniforms u_i that
    substitute the displacement moduli through g_i = sqrt(-ln u_i / 2)
    (g exp(-2 g^2) dg = du / 4 exactly, the 1/16 stays in the prefactor),
    and the two displacement angles. The signed profile meets the indicator
    that the collapse-displaced separation stays inside the jump radius j.
    """
    d = x[:, 0]
    e = d * np.exp(1j * x[:, 1])
    g1 = np.sqrt(-np.log(np.maximum(x[:, 2], 1e-12)) / 2.0)
    g2 = np.sqrt(-np.log(np.maximum(x[:, 3], 1e-12)) / 2.0)
    y1 = 2.0 * np.abs(s + e) * g1
    y2 = 2.0 * np.abs(s - e) * g2
    term = (1.0 - 2.0 * g1 * g1 - 2.0 * g2 * g2) * bessel_j(0, y1) * bessel_j(0, y2)
    with np.errstate(invalid="ignore", divide="ignore"):
        rat1 = np.where(y1 > 1e-6, bessel_j(1, y1) / y1, 0.5 - y1 * y1 / 16.0)
        rat2 = np.where(y2 > 1e-6, bessel_j(1, y2) / y2, 0.5 - y2 * y2 / 16.0)
    cross = 16.0 * g1 * g1 * g2 * g2 * (s * s - d * d) * rat1 * rat2
    w = e + g1 * np.exp(1j * x[:, 4]) - g2 * np.exp(1j * x[:, 5])
    keep = np.abs(w) < j
    return d * (term - cross) * symbol(d) * keep


SIGMA_STRATA = 12


def sigma_point(case, j, s, index=0):
    """(value, standard error) of one sigma-curve point by stratified MC.

    The streams are keyed by the grid index, as a curve would key them.
    """
    spec = case.spec
    two_pi = 2.0 * math.pi
    bounds = [(0.0, R_MAX), (0.0, two_pi), (0.0, 1.0), (0.0, 1.0),
              (0.0, two_pi), (0.0, two_pi)]
    res = mc_integrate(lambda x: sigma_integrand(s, j, case.symbol, x), 6,
                       bounds, spec, strata=SIGMA_STRATA, stream_key=(index,))
    scale = (8.0 / math.pi**3) * s / 16.0
    return scale * res.value, scale * res.error_estimate


def arc_fraction(d, g1, g2, j):
    """A(d, g1, g2) of the sigma curve's arc table, by mpmath in psi.

    The chance that |d + g1 e^{i phi1} - g2 e^{i phi2}| < j with both angles
    uniform: g1 e^{i phi1} - g2 e^{i phi2} has a uniform direction and the
    modulus rho(psi) at the uniform angle psi = phi1 - phi2, so A is the psi
    mean over (0, pi) of the arc fraction 1 - arccos(kappa)/pi. tanh-sinh
    integrates each piece between the crossing angles, where rho passes
    |d - j| and d + j and the integrand has square-root kinks.
    """
    with mpmath.workdps(30):
        d, g1, g2, j = (mpmath.mpf(float(v)) for v in (d, g1, g2, j))

        def arc(psi):
            rho_sq = g1 * g1 + g2 * g2 - 2 * g1 * g2 * mpmath.cos(psi)
            if rho_sq == 0:
                return mpmath.mpf(d < j)
            kappa = (j * j - d * d - rho_sq) / (2 * d * mpmath.sqrt(rho_sq))
            return 1 - mpmath.acos(min(max(kappa, -1), 1)) / mpmath.pi

        cuts = [mpmath.mpf(0), mpmath.pi]
        for e in (abs(d - j), d + j):
            c = (g1 * g1 + g2 * g2 - e * e) / (2 * g1 * g2)
            if -1 < c < 1:
                cuts.append(mpmath.acos(c))
        return float(mpmath.quad(arc, sorted(cuts)) / mpmath.pi)


def sigma_level_full_square(spec, pts, level, profile, j):
    """The sigma curve's factored route at one node level, uncut.

    The route of phasespace._sigma_level without its two shortcuts: the
    arc table fills every (g1, g2) pair of the product grid, where the
    package keeps only the joint cut g1^2 + g2^2 <= _SIGMA_G_MAX^2, and every
    separation-angle node is summed instead of one of each pair theta,
    pi - theta. The separation rule ends where the route's does, at
    j + _SIGMA_REACH. The two differ by the Gaussian weight outside the cut
    and by rounding. A j of None sets A = 1, the route's closed mode, whose
    curve has a closed form; its rule ends at R_MAX.
    """
    n_d, n_g, n_win, n_theta = level
    d_max = R_MAX if j is None else j + _SIGMA_REACH
    dn, dw = _gl_segmented(0.0, d_max, n_d, _panel_edges(profile))
    gn, gw = _gl_segmented(0.0, _SIGMA_G_MAX, n_g, ())
    g_sq = gn * gn
    m = gw * 4.0 * gn * np.exp(-2.0 * g_sq)
    if j is None:
        arc = np.ones((1, n_g, n_g))
    else:
        arc = _arc_table(dn[:, None, None], gn[:, None], gn[None, :], j, n_win)
    wd = dw * dn * profile(dn)
    cos_t = np.cos((np.arange(n_theta) + 0.5) * (math.pi / n_theta))
    values = np.zeros(pts.size)
    for i, s in enumerate(pts):
        if s == 0.0:
            continue
        # the first slot at theta; the second slot's a2(theta) = a1(pi - theta)
        a1 = np.multiply.outer(2.0 * s * dn, cos_t) + (s * s + dn * dn)[:, None]
        y = np.multiply.outer(2.0 * np.sqrt(a1), gn)
        j0, j1 = bessel_j((0, 1), y)
        j0 *= m
        rat = j1 / y * g_sq * m
        u0, u2 = j0[:, ::-1], rat[:, ::-1]
        lhs0 = (u0 @ arc) * (1.0 - 2.0 * g_sq) - (2.0 * g_sq * u0) @ arc
        lhs2 = u2 @ arc
        kern = (np.einsum("dtg,dtg->d", lhs0, j0)
                - 16.0 * (s * s - dn * dn) * np.einsum("dtg,dtg->d", lhs2, rat))
        values[i] = 4.0 * s / n_theta * float(wd @ kern)
    return values


# the relative sweep's node count per radial axis, one per level
SWEEP_LEVELS = (96, 144, 216, 320)


def relative_sweep(f, spec, r1_max=None, splits=()):
    """(value, gap) of int d^2 alpha int d^2 alpha' f(|alpha|, |alpha - alpha'|)
    over |alpha| < r1_max (R_MAX when None) and the full alpha' plane.

    In relative coordinates alpha' = alpha + delta the separation is the
    inner radius and both angles integrate exactly to 2 pi, so the value is
    (2 pi)^2 int r1 dr1 int d dd f(r1, d), with d cut at R_MAX. Both
    radial axes take Gauss-Legendre rules of SWEEP_LEVELS nodes, panelled
    at the splits. The oracle's own rule stops the sweep at the first level
    within max(spec.abs_tol, 1e-8) of the one before, or at the last level,
    and never refuses. Its callers check within the returned gap, or against
    closed forms at fixed bounds, so the 1e-8 floor only spares them the
    finest levels. The value is that level's and the gap is its distance to
    the level before.
    """
    r1_max = R_MAX if r1_max is None else float(r1_max)
    tol = max(spec.abs_tol, 1e-8)
    prev = None
    for n in SWEEP_LEVELS:
        rn, rw = _gl_segmented(0.0, r1_max, n, splits)
        sn, sw = _gl_segmented(0.0, R_MAX, n, splits)
        r1, d = rn[:, None], sn[None, :]
        vals = np.asarray(f(r1, d), dtype=float)
        value = (2.0 * np.pi) ** 2 * float(np.sum(rw[:, None] * r1 * sw * d * vals))
        if prev is not None and abs(value - prev) <= tol:
            break
        prev = value
    return value, abs(value - prev)


def level_pair(r1, r2, splits=()):
    """I(r1, r2) of the first excited state's kernel by the level route.

    The kernel over |alpha| < r1, |alpha'| < r2 is the generic route's sum
    with the outer symbol 1{r < r1} and the inner symbol 1{|b| < r2}:
    (8/pi) int_0^r1 r sum_n c_n(r) K_n(r) dr, with c_n the collapse weights
    of |1> displaced to r and K_n the kernel moments of the inner disc,
    whose far value 0 adds no full-plane moment. No Bessel function and no
    ladder: 192 outer nodes panelled at the splits, 48 disc nodes, n <= 32.
    """
    nodes, weights = _gl_segmented(0.0, float(r1), 192, splits)
    c = _displaced_level_weights([1], [1.0], 32, nodes)
    k, _, _ = _kernel_moments_inner(piecewise_symbol([r2], (1.0, 0.0)), 32, nodes, 48)
    return (8.0 / math.pi) * float((weights * nodes) @ np.sum(c * k, axis=0))


def pair_qm_quadrature(state, case):
    """(value, gap) of case's separation profile's quantum mean on a two-mode
    state, in phase space.

    (2 pi)^2 int s ds int t dt W(s, t) B(t) over real representatives
    alpha_1 = (s + t)/2, alpha_2 = (s - t)/2, which covers every orbit of
    the two phase rotations exactly once: the relative sweep with r1 = s and
    d = t. That needs a state whose Wigner function depends only on the
    moduli |sigma| and |delta|; the symmetry is probed at a test point, and
    a state without it is refused with ValueError.
    """
    ref = None
    for phase_s, phase_t in ((0.0, 0.0), (0.9, 0.0), (0.0, 2.1), (1.7, 0.6)):
        sigma = 0.8 * np.exp(1j * phase_s)
        delta = 1.1 * np.exp(1j * phase_t)
        val = float(wigner(state, np.array([[(sigma + delta) / 2.0,
                                             (sigma - delta) / 2.0]]))[0])
        if ref is None:
            ref = val
        elif abs(val - ref) > 1e-9 * max(1.0, abs(ref)):
            raise ValueError("state is not phase symmetric in the pair coordinates")

    def f(s, t):
        pts = np.stack([(s + t) / 2.0, (s - t) / 2.0], axis=-1).astype(complex)
        return wigner(state, pts) * case.symbol(t)

    return relative_sweep(f, case.spec, splits=case.symbol.jumps)
