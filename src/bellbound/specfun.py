"""Special functions used by the operator and integral machinery.

Laguerre and associated Laguerre polynomials by upward recurrence and
Bessel J0/J1 on the nonnegative half line: a float64 Chebyshev expansion
in x^2 below x = 16 and the Hankel asymptotic form from there on. All
functions accept scalars or numpy arrays, are pure and compute in float64
only, so results do not depend on the platform's long double.
"""

from fractions import Fraction

import numpy as np

__all__ = [
    "laguerre",
    "assoc_laguerre",
    "assoc_laguerre_seq",
    "bessel_j",
]

# The seam of bessel_j. Below it the Chebyshev series in u = x^2 is
# accurate to about 4e-15, with no cancellation to fight; from it on the
# Hankel asymptotic form is accurate to about 1e-14 at the order used here.
_SEAM = 16.0
_ASYMPTOTIC_TERMS = 28
# Arguments per Clenshaw pass; the recurrence's buffers then stay in
# cache instead of streaming through memory once per term.
_CLENSHAW_BLOCK = 32768

# Chebyshev coefficients of J0(x) and J1(x)/x in t = x^2/128 - 1 for
# 0 <= x < 16, indexed by order; generated by scripts/bessel_chebyshev.py.
_J_CHEBYSHEV = (
    (
        0.029463999590974177, -0.11010843052990106, 0.02553425776878477,
        -0.16951592398218499, 0.022200378167043643, -0.06902453196491139,
        0.22791497667500515, -0.2055547138399103, 0.09986426185034321,
        -0.03191393688692502, 0.007385263085965114, -0.0013103792567849537,
        0.00018523589254524584, -2.1448541310698738e-05, 2.0777662537973135e-06,
        -1.7123343976994822e-07, 1.2169995467604185e-08, -7.544462540815381e-10,
        4.1188593289172724e-11, -1.9967610937657387e-12, 8.657650939938552e-14,
        -3.378672628122662e-15, 1.1934417264336173e-16, -3.834808224744028e-18,
    ),
    (
        0.04225910742796213, -0.07444933527560388, 0.08107732640186485,
        -0.07285344416505483, 0.065185208528535, -0.07007839689417437,
        0.054400125409017605, -0.027344338767610915, 0.009435031756537223,
        -0.0023782733050251117, 0.0004592370070895608, -7.037859066101349e-05,
        8.794137569732918e-06, -9.151309565463038e-07, 8.066766226155603e-08,
        -6.108220509979256e-09, 4.019873693927925e-10, -2.3222776177163183e-11,
        1.187796911975406e-12, -5.4192452003526783e-14, 2.2200125519986062e-15,
        -8.213362891083214e-17, 2.7586397931092898e-18,
    ),
)


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

    The order a may be an integer array broadcasting against x, each order
    bit for bit its own call. The degree leads the result, then the shape of
    a and x; the recurrence makes every degree anyway, so batches get them free.
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


def _clenshaw(coef, t):
    """sum_k coef[k] T_k(t) by Clenshaw's recurrence, on three reused buffers."""
    t2 = t + t
    b1 = np.full_like(t, coef[-1])
    b2 = np.zeros_like(t)
    tmp = np.empty_like(t)
    for c in coef[-2:0:-1]:
        np.multiply(t2, b1, out=tmp)
        tmp -= b2
        tmp += c
        b1, b2, tmp = tmp, b1, b2
    np.multiply(t, b1, out=tmp)
    tmp -= b2
    tmp += coef[0]
    return tmp


def _j_chebyshev(order, x):
    # J0 = P0(u), J1 = x P1(u), u = x^2 mapped to t = u/128 - 1 on [-1, 1)
    coef = _J_CHEBYSHEV[order]
    out = np.empty_like(x)
    for i in range(0, x.size, _CLENSHAW_BLOCK):
        xb = x[i : i + _CLENSHAW_BLOCK]
        p = _clenshaw(coef, xb * xb * (1.0 / 128.0) - 1.0)
        if order == 1:
            p *= xb
        out[i : i + _CLENSHAW_BLOCK] = p
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


def _j_asymptotic(order, x):
    # Hankel expansion: J = sqrt(2/(pi x)) (P cos chi - Q sin chi) with
    # chi = x - (2 order + 1) pi/4. Terms decrease through the order kept
    # here for every x >= 16.
    x = np.asarray(x, dtype=float)
    p_coef, q_coef = _HANKEL[order]
    z = 1.0 / (x * x)
    p = _horner(p_coef, z)
    q = _horner(q_coef, z)
    q /= x
    chi = x - (2 * order + 1) * np.pi / 4
    p *= np.cos(chi)
    q *= np.sin(chi)
    p -= q
    p *= np.sqrt(2.0 / (np.pi * x))
    return p


def bessel_j(order, x):
    """Bessel function J0(x) or J1(x) for x >= 0.

    Below x = 16, J0(x) = P0(x^2) and J1(x) = x P1(x^2) with P0, P1 fixed
    Chebyshev series (coefficients derived in mpmath by
    scripts/bessel_chebyshev.py and frozen here), evaluated by Clenshaw's
    recurrence; J0(0) = 1 and J1(0) = 0 exactly. From 16 on, the Hankel
    asymptotic expansion, its P and Q series frozen per order and summed by
    Horner's rule in 1/x^2. Both stay within 2e-14 of the true value.
    Negative arguments are rejected because every caller passes a modulus.
    """
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("bessel_j expects x >= 0")
    flat = x.ravel()
    out = np.empty_like(flat)
    hi = flat >= _SEAM
    if hi.any():
        out[hi] = _j_asymptotic(order, flat[hi])
    lo = ~hi
    out[lo] = _j_chebyshev(order, flat[lo])
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)
