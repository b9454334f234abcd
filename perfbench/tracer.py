"""Outside-in span tracer for bellbound's layers.

The tracer never edits the package. It replaces each public function of the
layer modules, in every bellbound namespace that binds it, by a wrapper that
records a span (name, start, end, parent, op id), and wraps the callbacks
handed to the three quadrature engines so that time inside an integrand is
its own span. Spans stay in memory until the run writes them out.

The wrapper's own bookkeeping (argument statistics, span records) is timed
and subtracted from the spans that contain it, so self times and coverage
describe the program, and the bookkeeping shows only in the traced op's
wall time (trace.overhead_s).
"""

import functools
import gzip
import importlib
import inspect
import json
from collections import defaultdict
from dataclasses import dataclass
from statistics import median
from time import perf_counter

import numpy as np

LAYERS = ("specfun", "quad", "fock", "weyl", "hvbound", "phasespace", "cli")
ENGINES = ("quad.integrate_1d", "quad.integrate_radial_pair", "quad.mc_integrate")
# bessel_j argument bands: the float64 series, the long-double series and
# the Hankel expansion
BESSEL_SEAMS = (8.0, 16.0)

# per_layer metric names, grouped by the span they read; every name is
# reported on every workload, as 0 where the workload never enters the span
COUNTED = {
    "specfun": ("assoc_laguerre_seq", "assoc_laguerre", "laguerre"),
    "fock": ("displacement", "bell_pair_state", "luders_collapse"),
    "weyl": ("quantize_radial", "symbol_of", "wigner", "bell_eigenvalue_generating"),
    "hvbound": ("bell_report", "chsh_decomposition"),
    "phasespace": ("sp_hv_bound", "sp_hv_bound_generic", "coarse_parity_bound",
                   "bp_qm_mean", "sigma_curve"),
    "cli": ("run",),
}
ENGINE_STATS = {
    "quad.integrate_radial_pair": ("calls", "self_s", "integrand_s",
                                   "evaluations", "errors"),
    "quad.mc_integrate": ("calls", "self_s", "integrand_s", "samples",
                          "samples_per_s"),
    "quad.integrate_1d": ("calls", "self_s", "integrand_s", "evaluations",
                          "errors"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    net: float  # end - start minus the tracer's bookkeeping inside
    cost: float  # the tracer's bookkeeping inside and around this span
    info: dict | None
    error: str | None


def _bessel_info(args, kwargs, result):
    x = np.asarray(args[1] if len(args) > 1 else kwargs["x"], dtype=float).ravel()
    lo, hi = BESSEL_SEAMS
    n_lo = int(np.count_nonzero(x < lo))
    n_hi = int(np.count_nonzero(x >= hi))
    return {
        "args": int(x.size),
        "args_lo": n_lo,
        "args_mid": int(x.size) - n_lo - n_hi,
        "args_hi": n_hi,
        "distinct": int(np.unique(x).size),
    }


def _engine_info(args, kwargs, result):
    return {"evaluations": int(result.evaluations)}


def _wigner_info(args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    points = args[1] if len(args) > 1 else kwargs["points"]
    return {"points": int(np.asarray(points).size // state.modes)}


INFO = {
    "specfun.bessel_j": _bessel_info,
    "weyl.wigner": _wigner_info,
    **{name: _engine_info for name in ENGINES},
}


def public_functions(module):
    """The functions a layer module exports: its __all__, else public defs."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return {
        n: getattr(module, n)
        for n in names
        if inspect.isfunction(getattr(module, n))
        and getattr(module, n).__module__ == module.__name__
    }


class Tracer:
    """Records spans around bellbound's public functions while installed."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []  # [span index, bookkeeping time inside] per open span
        self._patches = []

    def install(self):
        package = importlib.import_module("bellbound")
        modules = [importlib.import_module(f"bellbound.{m}") for m in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, fn in public_functions(module).items():
                wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for module in [package, *modules]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self):
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def _wrap(self, name, fn):
        info_of = INFO.get(name)
        callback = f"{name}.integrand" if name in ENGINES else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = perf_counter()
            if callback is not None:
                if args:
                    args = (self._wrap(callback, args[0]), *args[1:])
                else:
                    kwargs["f"] = self._wrap(callback, kwargs["f"])
            parent = self._stack[-1][0] if self._stack else None
            frame = [len(self.spans), 0.0]
            self.spans.append(None)
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(frame, name, parent, entered, start, None,
                            type(exc).__name__)
                raise
            end = perf_counter()
            info = info_of(args, kwargs, result) if info_of else None
            self._close(frame, name, parent, entered, start, info, None, end)
            return result

        return traced

    def _close(self, frame, name, parent, entered, start, info, error, end=None):
        if end is None:
            end = perf_counter()
        self._stack.pop()
        index, inside = frame
        span = Span(name, start, end, parent, self.op, end - start - inside,
                    0.0, info, error)
        self.spans[index] = span
        span.cost = inside + (start - entered) + (perf_counter() - end)
        if self._stack:
            self._stack[-1][1] += span.cost

    def write(self, path):
        """Write every span as one JSON line to a gzip file."""
        with gzip.open(path, "wt") as handle:
            for i, s in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "net_s": s.net,
                    "tracer_s": s.cost, "info": s.info, "error": s.error,
                }) + "\n")

    def op_metrics(self, op, wall_s):
        """Per-layer metrics of one traced op that took wall_s seconds."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s.op == op]
        child_net = defaultdict(float)
        for _, s in spans:
            if s.parent is not None:
                child_net[s.parent] += s.net
        by_name = defaultdict(list)
        for i, s in spans:
            by_name[s.name].append((s, s.net - child_net[i]))

        def calls(name):
            return len(by_name[name])

        def self_s(name):
            return sum(own for _, own in by_name[name])

        def total(name, key):
            return sum(s.info[key] for s, _ in by_name[name] if s.info)

        def outer_time(name):
            # time in spans of this name not nested in another one, so an
            # integrand that runs a nested integration counts once
            out = 0.0
            for s, _ in by_name[name]:
                up = s.parent
                while up is not None and self.spans[up].name != name:
                    up = self.spans[up].parent
                if up is None:
                    out += s.net
            return out

        out = {}
        for layer, names in COUNTED.items():
            for fn in names:
                out[f"{layer}.{fn}.calls"] = calls(f"{layer}.{fn}")
                out[f"{layer}.{fn}.self_s"] = self_s(f"{layer}.{fn}")
        out["weyl.wigner.points"] = total("weyl.wigner", "points")

        bessel = "specfun.bessel_j"
        n_args = total(bessel, "args")
        out.update({
            f"{bessel}.calls": calls(bessel),
            f"{bessel}.self_s": self_s(bessel),
            f"{bessel}.args": n_args,
            f"{bessel}.args_lo": total(bessel, "args_lo"),
            f"{bessel}.args_mid": total(bessel, "args_mid"),
            f"{bessel}.args_hi": total(bessel, "args_hi"),
            f"{bessel}.ns_per_arg": 1e9 * self_s(bessel) / n_args if n_args else 0.0,
            f"{bessel}.unique_ratio": total(bessel, "distinct") / n_args if n_args else 0.0,
        })

        for engine in ENGINES:
            engine_total = outer_time(engine)
            count = total(engine, "evaluations")
            stats = {
                "calls": calls(engine),
                "self_s": self_s(engine),
                "integrand_s": outer_time(f"{engine}.integrand"),
                "evaluations": count,
                "samples": count,
                "samples_per_s": count / engine_total if engine_total else 0.0,
                "errors": sum(s.error == "QuadratureError" for s, _ in by_name[engine]),
            }
            for key in ENGINE_STATS[engine]:
                out[f"{engine}.{key}"] = stats[key]

        top = [s for _, s in spans if s.parent is None]
        traced_wall = wall_s - sum(s.cost for s in top)
        out["trace.coverage"] = sum(s.net for s in top) / traced_wall
        return out


def median_metrics(per_op):
    """Median of each metric over the traced ops."""
    return {key: median(m[key] for m in per_op) for key in per_op[0]}
