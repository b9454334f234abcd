"""Integration rules and the radial-pair engine.

Every quadrature is Gauss-Legendre at fixed node levels, with the gap
between two levels as its error: _gl_segmented sizes one rule per panel
from a node count, _gl_panels cuts panels of a given width, and
integrate_radial_pair sweeps phase-space double integrals up a ladder of
levels, returning the first within spec.abs_tol of the one before and
refusing by abs_tol past the last. The ladder starts at a coarse rung that
is never returned: where the first production level already agrees with it,
that level is certified without the next level's sweep. Every routine is
deterministic: the same IntegrationSpec gives the same bits, and no
production path draws a random number.

integrate_radial_pair takes f(r1, d) of the state-side radius and the
separation, on arrays that broadcast against each other.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IntegrationSpec",
    "QuadResult",
    "QuadratureError",
    "integrate_radial_pair",
]


class QuadratureError(RuntimeError):
    """An integral could not be driven to its tolerance.

    knob names the IntegrationSpec field to raise, where one decides the
    failure, so that a front end can name its own setting for it.
    """

    def __init__(self, message, knob=None):
        super().__init__(message)
        self.knob = knob


@dataclass(frozen=True)
class IntegrationSpec:
    """Tolerances and the sigma grid for all integration.

    No field sets where a radial integral ends: each route reads its range
    off the symbol it integrates.

    mc_samples and seed drive only the Monte Carlo cross-check of the sigma
    curve, which lives with the tests; no production path reads them. They
    keep their checks so that a spec written for that cross-check stays
    valid.
    """

    abs_tol: float = 1e-9
    mc_samples: int = 2_000_000
    seed: int = 42
    sigma_step: float = 0.05
    sigma_max: float = 2.7

    def __post_init__(self):
        for name in ("abs_tol", "sigma_step", "sigma_max"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.mc_samples < 10_000:
            raise ValueError("mc_samples must be at least 10^4")


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be nonnegative")


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n):
    """The n-point Gauss-Legendre rule on [-1, 1], solved once per n.

    The arrays are read-only because every caller shares them.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _gl_segmented(a, b, n, splits):
    """Gauss-Legendre nodes/weights on [a, b], panelled at interior splits."""
    cuts = sorted({a, b, *(s for s in splits if a < s < b)})
    nodes = []
    weights = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        # every panel grows with n, so a level difference sees short ones too
        share = max(8, round(n / 12), round(n * (hi - lo) / (b - a)))
        x, w = _gauss_legendre(share)
        mid = 0.5 * (lo + hi)
        h = 0.5 * (hi - lo)
        nodes.append(mid + h * x)
        weights.append(h * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _gl_panels(cuts, width):
    """(nodes, weights) of 21-node Gauss-Legendre panels at most width wide,
    cut at every point of the sorted cuts."""
    x, w = _gauss_legendre(21)
    nodes, weights = [], []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        edges = np.linspace(lo, hi, 1 + math.ceil((hi - lo) / width))
        half = 0.5 * np.diff(edges)[:, None]
        nodes.append((edges[:-1, None] + half * (1.0 + x)).ravel())
        weights.append((half * w).ravel())
    return np.concatenate(nodes), np.concatenate(weights)


# (n1, n2, n_ang) per refinement level; the first, a quarter of the next on
# each radial axis, is never returned: it only certifies (96, 96, 64)
_PAIR_LEVELS = ((24, 24, 16), (96, 96, 64), (144, 144, 96), (216, 216, 144),
                (320, 320, 216))
# r1 rows per block of the sweep: a block's arrays stay in cache
_PAIR_BLOCK = 4


def _sweep_direct(f, rn, rw, sn, sw, n_ang):
    ang = (np.arange(n_ang) + 0.5) * (np.pi / n_ang)
    w_ang = 2.0 * np.pi / n_ang  # integrand even in the angle
    cos_a = np.cos(ang)
    s = sn[None, :, None]
    weight = np.outer(rw * rn, sw * sn)
    total = 0.0
    for i in range(0, rn.size, _PAIR_BLOCK):
        r1 = rn[i : i + _PAIR_BLOCK][:, None, None]
        d = (-2.0 * r1 * s) * cos_a
        d += r1 * r1 + s * s
        np.maximum(d, 0.0, out=d)
        np.sqrt(d, out=d)
        vals = np.broadcast_to(np.asarray(f(r1, d), dtype=float), d.shape)
        total += float(np.vdot(weight[i : i + _PAIR_BLOCK], vals.sum(axis=2))) * w_ang
    return 2.0 * np.pi * total


def integrate_radial_pair(f, spec, r1_max, r2_max, splits=()):
    """Double phase-space integral over |alpha| < r1_max, |alpha'| < r2_max.

    f(r1, d) takes the modulus r1 = |alpha| and the separation
    d = |alpha - alpha'|, as arrays that broadcast against each other, and
    returns values that broadcast to their common shape. The integrand
    therefore depends on alpha' through the separation alone.

    Both radial axes are panelled at the splits, the radii where the
    integrand or a symbol behind it jumps. The inner radius is
    |alpha'|, and a midpoint rule in the angle between the points supplies
    the separation.

    The first level of _PAIR_LEVELS within spec.abs_tol of the level before
    is returned, with that gap as its error; past the last level the ladder
    is refused with QuadratureError naming abs_tol. The first level, a
    quarter of the second on each radial axis, has no level before it and
    is never returned: where the second level lies within abs_tol of it,
    two sweeps certify the second, and any other integrand goes on up the
    ladder for 0.36 % more evaluations than without the rung.
    """
    prev, gap, evals = None, math.inf, 0
    for n1, n2, n_ang in _PAIR_LEVELS:
        rn, rw = _gl_segmented(0.0, float(r1_max), n1, splits)
        sn, sw = _gl_segmented(0.0, float(r2_max), n2, splits)
        value = _sweep_direct(f, rn, rw, sn, sw, n_ang)
        evals += rn.size * sn.size * n_ang
        if prev is not None:
            gap = abs(value - prev)
            if gap <= spec.abs_tol:
                return QuadResult(value, gap, evals)
        prev = value
    raise QuadratureError(
        f"the radial pair quadrature stopped at error {gap:.2e}, its last level "
        f"gap, above {spec.abs_tol}", knob="abs_tol")
