"""Integration engines.

Adaptive 1D Gauss-Legendre quadrature with registered discontinuities,
iterated radial quadrature for phase-space double integrals, and seeded
chunked Monte Carlo for the high-dimensional remainders. Every routine is
deterministic given the same IntegrationSpec.

Each engine takes one vectorized integrand shape:

- integrate_1d: f(x) maps an array of nodes to an array of the same shape;
- integrate_radial_pair: f(r1, d) of the state-side radius and the
  separation, on arrays that broadcast against each other;
- mc_integrate: f(x) maps an (n, dims) array of points to n values.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IntegrationSpec",
    "QuadResult",
    "QuadratureError",
    "integrate_1d",
    "integrate_radial_pair",
    "mc_integrate",
]


class QuadratureError(RuntimeError):
    """An integral could not be driven to its tolerance."""


@dataclass(frozen=True)
class IntegrationSpec:
    """Cutoffs, tolerances, sample counts and the seed for all integration."""

    r_max: float = 6.0
    abs_tol: float = 1e-9
    rel_tol: float = 5e-3
    mc_samples: int = 2_000_000
    seed: int = 42
    sigma_step: float = 0.05
    sigma_max: float = 2.7
    split_points: tuple = ()

    def __post_init__(self):
        for name in ("r_max", "abs_tol", "rel_tol", "sigma_step", "sigma_max"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.mc_samples < 10_000:
            raise ValueError("mc_samples must be at least 10^4")
        object.__setattr__(
            self, "split_points", tuple(float(s) for s in self.split_points)
        )


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    evaluations: int
    method: str

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be nonnegative")


_GL_COARSE = np.polynomial.legendre.leggauss(10)
_GL_FINE = np.polynomial.legendre.leggauss(21)
_BUDGET_1D = 1_000_000


def _eval_vec(f, xs):
    ys = np.asarray(f(xs), dtype=float)
    if ys.shape != xs.shape:
        raise ValueError(
            f"integrand returned shape {ys.shape} for nodes of shape {xs.shape}"
        )
    return ys


def _panel(f, a, b):
    mid = 0.5 * (a + b)
    h = 0.5 * (b - a)
    coarse = h * np.dot(_GL_COARSE[1], _eval_vec(f, mid + h * _GL_COARSE[0]))
    fine = h * np.dot(_GL_FINE[1], _eval_vec(f, mid + h * _GL_FINE[0]))
    return float(fine), abs(float(fine) - float(coarse)), 31


def integrate_1d(f, a, b, spec):
    """Adaptive quadrature of f on [a, b] honoring spec.split_points.

    f maps an array of nodes to an array of values of the same shape; any
    other result raises ValueError. Each panel carries a 21-point
    Gauss-Legendre value and the difference against a 10-point rule as its
    error; the worst panel is bisected until the summed error reaches
    spec.abs_tol or the evaluation budget runs out.
    """
    a = float(a)
    b = float(b)
    if not a < b:
        raise ValueError("need a < b")
    cuts = sorted({a, b, *(float(s) for s in spec.split_points if a < s < b)})
    heap = []
    evals = 0
    counter = 0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        fine, err, n = _panel(f, lo, hi)
        evals += n
        counter += 1
        heapq.heappush(heap, (-err, counter, lo, hi, fine))
    while True:
        total_err = sum(-item[0] for item in heap)
        if total_err <= spec.abs_tol:
            value = sum(item[4] for item in sorted(heap, key=lambda t: t[2]))
            return QuadResult(value, total_err, evals, "adaptive")
        if evals >= _BUDGET_1D:
            raise QuadratureError(
                f"1d quadrature spent {evals} evaluations on [{a}, {b}] "
                f"without reaching {spec.abs_tol}"
            )
        _, _, lo, hi, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        for seg in ((lo, mid), (mid, hi)):
            fine, err, n = _panel(f, *seg)
            evals += n
            counter += 1
            heapq.heappush(heap, (-err, counter, seg[0], seg[1], fine))


def _gl_segmented(a, b, n, splits):
    """Gauss-Legendre nodes/weights on [a, b], panelled at interior splits."""
    cuts = sorted({a, b, *(s for s in splits if a < s < b)})
    nodes = []
    weights = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        share = max(8, int(round(n * (hi - lo) / (b - a))))
        x, w = np.polynomial.legendre.leggauss(share)
        mid = 0.5 * (lo + hi)
        h = 0.5 * (hi - lo)
        nodes.append(mid + h * x)
        weights.append(h * w)
    return np.concatenate(nodes), np.concatenate(weights)


# (n1, n2, n_ang) per refinement level; the angle count serves the direct
# route only
_PAIR_LEVELS = ((96, 96, 64), (144, 144, 96), (216, 216, 144), (320, 320, 216))
_PAIR_BLOCK = 16


def _sweep_relative(f, rn, rw, sn, sw):
    # alpha' = alpha + delta: the separation is the inner radius, and both
    # angles integrate to 2 pi because f sees neither
    r1 = rn[:, None]
    d = sn[None, :]
    vals = np.asarray(f(r1, d), dtype=float)
    return (2.0 * np.pi) ** 2 * float(np.sum(rw[:, None] * r1 * sw * d * vals))


def _sweep_direct(f, rn, rw, sn, sw, n_ang):
    ang = (np.arange(n_ang) + 0.5) * (np.pi / n_ang)
    w_ang = 2.0 * np.pi / n_ang  # integrand even in the angle
    cos_a = np.cos(ang)
    s = sn[None, :, None]
    ws = sw[None, :, None]
    total = 0.0
    for i in range(0, rn.size, _PAIR_BLOCK):
        r1 = rn[i : i + _PAIR_BLOCK][:, None, None]
        w1 = rw[i : i + _PAIR_BLOCK][:, None, None]
        d2 = r1 * r1 + s * s - 2.0 * r1 * s * cos_a
        d = np.sqrt(np.maximum(d2, 0.0))
        vals = np.broadcast_to(np.asarray(f(r1, d), dtype=float), d.shape)
        total += float(np.sum(w1 * r1 * ws * s * vals)) * w_ang
    return 2.0 * np.pi * total


def integrate_radial_pair(f, spec, r1_max=None, r2_max=None):
    """Double phase-space integral over |alpha| < R1, |alpha'| < R2.

    f(r1, d) takes the modulus r1 = |alpha| and the separation
    d = |alpha - alpha'|, as arrays that broadcast against each other, and
    returns values that broadcast to their common shape. The integrand
    therefore depends on alpha' through the separation alone.
    A None radius means the full plane, cut off at spec.r_max (the Gaussian
    factors in every integrand served here make the tail negligible).

    Both radial axes are panelled at spec.split_points. When the alpha'
    region is the full plane (r2_max None) the pair is taken in relative
    coordinates alpha' = alpha + delta: the separation is the inner radius,
    both angles integrate exactly to 2 pi, and the value is
    (2 pi)^2 int r1 dr1 int d dd f(r1, d) on one radial-radial grid. For a
    disc of alpha' the inner radius is |alpha'| and a midpoint rule in the
    angle between the points supplies the separation.
    """
    cap = spec.r_max
    R1 = cap if r1_max is None else float(r1_max)
    R2 = cap if r2_max is None else float(r2_max)
    tol = max(spec.abs_tol, 1e-8)
    prev = None
    prev_err = None
    value = math.nan
    evals = 0
    for n1, n2, n_ang in _PAIR_LEVELS:
        rn, rw = _gl_segmented(0.0, R1, n1, spec.split_points)
        sn, sw = _gl_segmented(0.0, R2, n2, spec.split_points)
        if r2_max is None:
            value = _sweep_relative(f, rn, rw, sn, sw)
            evals += rn.size * sn.size
        else:
            value = _sweep_direct(f, rn, rw, sn, sw, n_ang)
            evals += rn.size * sn.size * n_ang
        if prev is not None:
            err = abs(value - prev)
            if err <= tol:
                return QuadResult(value, err, evals, "adaptive")
            if prev_err is not None and err >= prev_err:
                raise QuadratureError(
                    f"radial pair quadrature stalled at error {err:.3e}"
                )
            prev_err = err
        prev = value
    if prev_err is not None and prev_err <= 10 * tol:
        return QuadResult(value, prev_err, evals, "adaptive")
    raise QuadratureError(
        f"radial pair quadrature did not reach {tol:.1e} (last error {prev_err})"
    )


_MC_CHUNK = 262_144


def mc_integrate(f, dims, bounds, spec, strata=None, stream_key=()):
    """Monte Carlo integral of f over a box, optionally stratified.

    f maps an (n, dims) array of points to n values. Stratification splits
    the first coordinate into equal slabs. Sampling streams are keyed by
    (seed, *stream_key, stratum, chunk) with a fixed chunk size, so results
    are bit-reproducible and independent of scheduling. The standard error
    is reported, never raised.
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
            take = min(_MC_CHUNK, n - done)
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
    return QuadResult(value, math.sqrt(variance), evals, "mc")
