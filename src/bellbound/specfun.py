"""Special functions used by the operator and integral machinery.

Scaled Laguerre values e^{-x/2} L_n(x) by upward recurrence and Bessel
J0/J1 on the nonnegative half line: below x = 16 a polynomial in x^2, by
Horner on frozen monomial coefficients, greedy-rounded, and the Hankel
asymptotic form from there on. All functions accept scalars or numpy
arrays, are pure and compute in float64 only, so results do not depend on
the platform's long double.
"""

from fractions import Fraction

import numpy as np

__all__ = [
    "laguerre_scaled",
    "bessel_j",
]

# The seam of bessel_j. Below it the polynomial in u = x^2 is accurate
# to about 6e-15, with no cancellation to fight; from it on the
# Hankel asymptotic form is accurate to about 1e-14 at the order used here.
_SEAM = 16.0
_ASYMPTOTIC_TERMS = 28
# Monomial coefficients of J0(x) and J1(x)/x in t = x^2/128 - 1 for
# 0 <= x < 16, indexed by power; generated by scripts/bessel_chebyshev.py.
_J_MONOMIAL = (
    (
        -0.10912268766620964, 1.2191121429906173, 1.1364069311640463,
        -7.259536050059323, 2.4142335544403664, 9.68387083654262,
        -10.645074821855214, 1.7461625432720187, 4.555007672839699,
        -4.824967950645295, 2.7229128719059346, -1.0717482979072743,
        0.3223358495838805, -0.07769497953719054, 0.015470903062932447,
        -0.0026002745365855057, 0.00037497028250289, -4.699857453010922e-05,
        5.174985494792435e-06, -5.050704788106389e-07, 4.4014469173074494e-08,
        -3.4503100087177572e-09, 2.5028287034737135e-10, -1.6084351476276776e-11,
    ),
    (
        -0.019048627234228392, -0.03551271659887644, 0.3402907523465307,
        -0.1508895971525229, -0.7565524091048922, 0.9979757645489247,
        -0.1909865281703769, -0.5693759591049439, 0.6785111180594927,
        -0.42545513623541054, 0.18420673870282248, -0.06043797179659959,
        0.015781792718461776, -0.0033842600458403186, 0.0006094393445716725,
        -9.374256949587632e-05, 1.2483996284263698e-05, -1.4554656174873196e-06,
        1.4994285745303633e-07, -1.37540785396513e-08, 1.1321068625855524e-09,
        -8.612335206880472e-11, 5.785286959398733e-12,
    ),
)


def _recurrence_start(top, x):
    """(start, x, scale) of a recurrence from e^{-x/2} up to level top.

    Past x = 1416, where e^{-x/2} is subnormal, the start is e^{-x/2} 2^64,
    normal to x = 1505, and the caller divides by scale (None if no point
    needs it). From x = 1500 on (x comes back capped there) the start is 0,
    and every value below level x/5 under 1e-20; higher levels are refused.
    """
    x = np.asarray(x, dtype=float)
    zero = x >= 1500.0
    if 5 * top >= 1500 and np.any(zero & (5 * top >= x)):
        raise ValueError(f"a recurrence from e^(-x/2) up to level {top} at x = "
                         f"{float(np.max(x)):.6g} leaves float64's normal range: "
                         "from x = 1500 on, levels must stay below x/5")
    x = np.minimum(x, 1500.0)
    lifted = x > 1416.0
    if not lifted.any():
        return np.exp(-0.5 * x), x, None
    half = np.exp(-0.25 * x)  # normal, so the lifted start keeps its bits
    start = np.where(lifted, half * (half * 2.0**64), np.exp(-0.5 * x))
    return np.where(zero, 0.0, start), x, np.where(lifted, 2.0**64, 1.0)


def laguerre_scaled(n_max, x):
    """e^{-x/2} L_0(x) .. e^{-x/2} L_{n_max}(x) for x >= 0, degree leading.

    Laguerre's recurrence on the scaled values, from e^{-x/2}
    (_recurrence_start) and (1 - x) e^{-x/2}: the diagonal of fock's
    displacement amplitudes, so each lies in [-1, 1] and none overflows.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    start, x, scale = _recurrence_start(n_max, x)
    out = np.zeros((n_max + 1,) + x.shape)
    out[0] = start
    for k in range(n_max):  # row -1, still 0 at k = 0, stands for L_{-1}
        out[k + 1] = ((2 * k + 1 - x) * out[k] - k * out[k - 1]) / (k + 1)
    if scale is not None:
        out /= scale
    return out


def _hankel_coefficients(order):
    """(P, Q) coefficients of the Hankel expansion in z = 1/x^2.

    The m-th term of the expansion is c_m / x^m with
    c_m = prod_{k <= m} (4 order^2 - (2k - 1)^2) / (8k), formed exactly in
    rationals. Even m feed P and odd m feed Q / x, with the signs
    alternating in pairs: P = 1 - c_2 z + c_4 z^2 - ..., Q x = c_1 - c_3 z + ...
    """
    mu = 4 * order * order
    c = Fraction(1)
    p, q = [1.0], []
    for m in range(1, _ASYMPTOTIC_TERMS + 1):
        c *= Fraction(mu - (2 * m - 1) ** 2, 8 * m)
        sign = -1.0 if m % 4 >= 2 else 1.0
        (q if m % 2 else p).append(sign * float(c))
    return tuple(p), tuple(q)


_HANKEL = tuple(_hankel_coefficients(order) for order in (0, 1))


def _horner(coef, z):
    """sum_k coef[k] z^k by Horner's rule, in place on one buffer."""
    out = np.full_like(z, coef[-1])
    for c in coef[-2::-1]:
        out *= z
        out += c
    return out


def _j_asymptotic(orders, x):
    # Hankel expansion: J = sqrt(2/(pi x)) (P cos chi - Q sin chi) with
    # chi = x - (2 order + 1) pi/4. Terms decrease through the order kept
    # here for every x >= 16. chi_1 = chi_0 - pi/2, so J1 = sqrt(2/(pi x))
    # (P sin chi_0 + Q cos chi_0), and one tau = tan(chi_0/2) serves both
    # orders: cos chi_0 and sin chi_0 are 1 - tau^2 and 2 tau over
    # 1 + tau^2, which joins the amplitude. numpy's tan runs vectorized
    # where its cos and sin take the scalar libm path (4 against 12-24 ns
    # per argument, numpy 2.4 on x86-64). Returns one array per order.
    out = []
    z = 1.0 / (x * x)
    tau = 0.5 * x
    tau -= np.pi / 8
    np.tan(tau, out=tau)
    amp = tau * tau
    cos = 1.0 - amp
    amp += 1.0
    np.divide(np.sqrt(2.0 / (np.pi * x)), amp, out=amp)
    sin = tau
    sin *= 2.0
    for order in orders:
        p_coef, q_coef = _HANKEL[order]
        p = _horner(p_coef, z)
        q = _horner(q_coef, z)
        q /= x
        p *= sin if order else cos
        q *= cos if order else sin
        if order:
            p += q
        else:
            p -= q
        p *= amp
        out.append(p)
    return out


def _j_polynomial(orders, x):
    # J0 = P0(t), J1 = x P1(t), t = x^2/128 - 1 on [-1, 1); one array per order
    t = x * x
    t *= 1.0 / 128.0
    t -= 1.0
    out = []
    for order in orders:
        p = _horner(_J_MONOMIAL[order], t)
        if order:
            p *= x
        out.append(p)
    return out


def bessel_j(order, x):
    """Bessel function J0(x) or J1(x) for x >= 0.

    order is 0, 1 or a tuple of them, such as (0, 1); a tuple gives a tuple
    of results, one per order, from one pass over x: one band split, one
    t = x^2/128 - 1 and one tangent of the Hankel half-phase. Each order's
    values are those of its own call.

    Below x = 16, J0(x) = P0(x^2) and J1(x) = x P1(x^2) with P0, P1 fixed
    polynomials, by Horner on frozen monomial coefficients, greedy-rounded
    (derived in mpmath by scripts/bessel_chebyshev.py, so that their
    rounding leaves no bias); J0(0) = 1 and J1(0) = 0 exactly. From 16 on,
    the Hankel asymptotic expansion, its P and Q series frozen per order
    and summed by Horner's rule in 1/x^2. Both stay within 2e-14 of the
    true value. An array that lies below 16 is evaluated without the
    gather and scatter. Negative arguments are rejected because every
    caller passes a modulus.
    """
    orders = order if isinstance(order, tuple) else (order,)
    if not orders or any(o not in (0, 1) for o in orders):
        raise ValueError("order must be 0, 1 or a tuple of them")
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    # fmin skips NaN, so a NaN cannot hide a negative argument
    if np.fmin.reduce(flat, initial=np.inf) < 0:
        raise ValueError("bessel_j expects x >= 0")
    if flat.max(initial=-np.inf) < _SEAM:
        out = _j_polynomial(orders, flat)
    else:
        # integer indices: a boolean gather or scatter on a mixed mask costs
        # several times as much
        out = [np.empty_like(flat) for _ in orders]
        hi = flat >= _SEAM
        for band, part in ((np.flatnonzero(hi), _j_asymptotic),
                           (np.flatnonzero(~hi), _j_polynomial)):
            for row, values in zip(out, part(orders, flat.take(band))):
                row[band] = values
    got = tuple(float(row[0]) if x.ndim == 0 else row.reshape(x.shape) for row in out)
    return got if isinstance(order, tuple) else got[0]
