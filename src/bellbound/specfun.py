"""Special functions used by the operator and integral machinery.

Laguerre and associated Laguerre polynomials by upward recurrence and
Bessel J0/J1 on the nonnegative half line. All functions accept scalars or
numpy arrays and are pure.
"""

import numpy as np

__all__ = [
    "laguerre",
    "assoc_laguerre",
    "assoc_laguerre_seq",
    "bessel_j",
]

# Branch seams for bessel_j. Below 8 the float64 power series keeps 12+
# digits; between 8 and 16 cancellation eats float64, so the series runs in
# long double; from 16 on the Hankel asymptotic form is already past its
# smallest term at the order used here.
_SEAM_LOW = 8.0
_SEAM_HIGH = 16.0
_ASYMPTOTIC_TERMS = 28


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

    Returns an array with the degree on the leading axis; the recurrence
    produces every intermediate order anyway, so batch callers get them for
    free.
    """
    if n_max < 0 or a < 0:
        raise ValueError("n_max and a must be nonnegative")
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + x.shape)
    prev = np.zeros_like(x)
    cur = np.ones_like(x)
    out[0] = cur
    for k in range(n_max):
        prev, cur = cur, ((2 * k + 1 + a - x) * cur - (k + a) * prev) / (k + 1)
        out[k + 1] = cur
    return out


def _j_series(order, x, dtype):
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


def _j_asymptotic(order, x):
    # Hankel expansion: J = sqrt(2/(pi x)) (P cos chi - Q sin chi) with
    # chi = x - (2 order + 1) pi/4. Terms decrease through the order kept
    # here for every x >= 16.
    x = np.asarray(x, dtype=float)
    mu = 4.0 * order * order
    d = np.ones_like(x)
    p = np.ones_like(x)
    q = np.zeros_like(x)
    for m in range(1, _ASYMPTOTIC_TERMS + 1):
        d = d * (mu - (2 * m - 1) ** 2) / (8.0 * m * x)
        if m % 2 == 1:
            q = q + d if m % 4 == 1 else q - d
        else:
            p = p - d if m % 4 == 2 else p + d
    chi = x - (2 * order + 1) * np.pi / 4
    return np.sqrt(2.0 / (np.pi * x)) * (p * np.cos(chi) - q * np.sin(chi))


def bessel_j(order, x):
    """Bessel function J0(x) or J1(x) for x >= 0.

    Power series below the high seam (long double in the cancellation-prone
    middle band), Hankel asymptotic expansion above it. Negative arguments
    are rejected because every caller passes a modulus.
    """
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("bessel_j expects x >= 0")
    scalar = x.ndim == 0
    xv = np.atleast_1d(x)
    out = np.empty_like(xv)
    lo = xv < _SEAM_LOW
    mid = (xv >= _SEAM_LOW) & (xv < _SEAM_HIGH)
    hi = xv >= _SEAM_HIGH
    if lo.any():
        out[lo] = _j_series(order, xv[lo], np.float64)
    if mid.any():
        out[mid] = _j_series(order, xv[mid], np.longdouble)
    if hi.any():
        out[hi] = _j_asymptotic(order, xv[hi])
    return float(out[0]) if scalar else out
