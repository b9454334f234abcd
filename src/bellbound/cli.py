"""Batch command line for the collapse bound pipelines.

Every run writes one result document. JSON documents carry the command,
the requested quantities, the component breakdown, error estimates, the
full configuration echo (seed included) and the wall-clock time, so a run
can be repeated bit for bit from its own output; only timing_seconds
varies between repeats. CSV is available for the two grid-valued
commands (wigner, sigma-curve) and holds the grid alone.

Exit codes: 0 success, 1 usage error, 2 quadrature failure.
"""

import argparse
import dataclasses
import json
import sys
import time

import numpy as np

from . import __version__
from .fock import DensityMatrix, bell_pair_state
from .hvbound import bell_report, chsh_decomposition
from .phasespace import (
    BipartiteCase,
    SingleParticleCase,
    bp_hv_bound,
    sigma_curve,
    sp_hv_bound,
)
from .quad import IntegrationSpec, QuadratureError
from .weyl import bell_eigenvalue_generating, quantize_radial, sign_step, wigner

_COMMANDS = ("chsh", "single-particle", "bipartite", "eigenvalues", "wigner",
             "sigma-curve")
_GRID_COMMANDS = ("wigner", "sigma-curve")
# Fock cutoff when none is requested: qubit algebra for chsh, converged
# cutoffs for the phase-space pipelines, two occupied levels for wigner
_TRUNCATION_DEFAULTS = {
    "chsh": 2,
    "single-particle": 64,
    "bipartite": 32,
    "eigenvalues": 64,
    "wigner": 8,
    "sigma-curve": 32,
}
_WIGNER_STATES = ("fock0", "fock1", "bell")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """One resolved invocation; echoed verbatim into every JSON document."""

    command: str
    truncation: int
    r_max: float
    abs_tol: float
    mc_samples: int
    seed: int
    sigma_step: float
    sigma_max: float
    n_max: int
    state: str
    points: int
    output_format: str
    output_path: str | None


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems, but 2 is reserved for
    # non-convergence here, so reroute to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--truncation", type=int, default=None,
                        help="Fock space cutoff (default depends on the command)")
    common.add_argument("--r-max", type=float, default=6.0,
                        help="radial integration range, and the grid half-width "
                             "for wigner (default 6)")
    common.add_argument("--abs-tol", type=float, default=1e-9,
                        help="absolute quadrature tolerance (default 1e-9)")
    common.add_argument("--mc-samples", type=int, default=2_000_000,
                        help="Monte Carlo samples per curve point (default 2000000)")
    common.add_argument("--seed", type=int, default=42,
                        help="Monte Carlo seed (default 42)")
    common.add_argument("--sigma-step", type=float, default=0.05,
                        help="separation grid spacing (default 0.05)")
    common.add_argument("--sigma-max", type=float, default=2.7,
                        help="separation grid end (default 2.7)")
    common.add_argument("--n-max", type=int, default=10,
                        help="highest Fock order in the eigenvalue table, "
                             "at most 20 (default 10)")
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        dest="output_format",
                        help="csv is available for wigner and sigma-curve only")
    common.add_argument("--out", default=None, dest="output_path",
                        help="output file (default: stdout)")

    parser = _Parser(prog="bellbound",
                     description="collapse Bell-bound computations")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("chsh", parents=[common],
                   help="four-correlator bound on the singlet")
    sub.add_parser("single-particle", parents=[common],
                   help="sign-step bound on the first excited state")
    sub.add_parser("bipartite", parents=[common],
                   help="separation sign-step bound on the pair state")
    sub.add_parser("eigenvalues", parents=[common],
                   help="sign-step operator spectrum by two routes")
    wig = sub.add_parser("wigner", parents=[common],
                         help="Wigner function on a square grid")
    wig.add_argument("--state", choices=_WIGNER_STATES, default="fock1",
                     help="fock0, fock1, or the pair state on the "
                          "(alpha, 0) slice (default fock1)")
    wig.add_argument("--points", type=int, default=200,
                     help="grid points per axis (default 200)")
    sub.add_parser("sigma-curve", parents=[common],
                   help="per-separation bound density f(s)")
    return parser


def _resolve_config(args):
    truncation = args.truncation
    if truncation is None:
        truncation = _TRUNCATION_DEFAULTS[args.command]
    if truncation < 2:
        raise ValueError("truncation must be at least 2")
    if args.output_format == "csv" and args.command not in _GRID_COMMANDS:
        raise ValueError("csv output is available for wigner and sigma-curve only")
    return RunConfig(
        command=args.command,
        truncation=truncation,
        r_max=args.r_max,
        abs_tol=args.abs_tol,
        mc_samples=args.mc_samples,
        seed=args.seed,
        sigma_step=args.sigma_step,
        sigma_max=args.sigma_max,
        n_max=args.n_max,
        state=getattr(args, "state", "fock1"),
        points=getattr(args, "points", 200),
        output_format=args.output_format,
        output_path=args.output_path,
    )


def _integration_spec(cfg: RunConfig) -> IntegrationSpec:
    return IntegrationSpec(r_max=cfg.r_max, abs_tol=cfg.abs_tol,
                           mc_samples=cfg.mc_samples, seed=cfg.seed,
                           sigma_step=cfg.sigma_step, sigma_max=cfg.sigma_max)


def _report_payload(rep):
    results = {
        "qm_mean": float(rep.qm_mean),
        "qm_second_moment": float(rep.qm_second_moment),
        "hv_bound": float(rep.hv_bound),
        "bound_difference": float(rep.bound_difference),
        "violation": bool(rep.notes["violation"]),
    }
    components = {k: float(v) for k, v in rep.notes["components"].items()}
    errors = {k: float(v) for k, v in rep.notes["component_errors"].items()}
    errors["total"] = float(rep.notes["error_estimate"])
    if "sigma_tail" in rep.notes:
        errors["sigma_tail"] = float(rep.notes["sigma_tail"])
    return results, components, errors


def _run_chsh(cfg, spec):
    dec = chsh_decomposition(cfg.truncation)
    rep = bell_report(bell_pair_state(cfg.truncation), dec)
    mats = np.stack([p.entries for _, p in dec.terms])
    weights = np.array([w for w, _ in dec.terms])
    # sum_u w_u P_u B P_u must equal hv_bound times the identity: the
    # collapse of the operator is state independent for these settings
    collapsed = np.einsum("u,uij,jk,ukl->il", weights, mats,
                          dec.target.entries, mats)
    eye = np.eye(mats.shape[1])
    residual = float(np.max(np.abs(collapsed - rep.hv_bound * eye)))
    results = {
        "qm_mean": float(rep.qm_mean),
        "qm_second_moment": float(rep.qm_second_moment),
        "hv_bound": float(rep.hv_bound),
        "bound_difference": float(rep.bound_difference),
        "reconstruction_residual": residual,
        "violation": bool(rep.qm_second_moment > rep.hv_bound),
    }
    errors = {"identity_residual": float(rep.notes["identity_residual"]),
              "reconstruction_residual": residual}
    return results, {}, errors, None


def _run_single_particle(cfg, spec):
    vec = np.zeros(cfg.truncation)
    vec[1] = 1.0
    case = SingleParticleCase(state=DensityMatrix.from_state(vec), spec=spec)
    results, components, errors = _report_payload(sp_hv_bound(case))
    return results, components, errors, None


def _run_bipartite(cfg, spec):
    case = BipartiteCase(state=bell_pair_state(cfg.truncation), spec=spec)
    results, components, errors = _report_payload(bp_hv_bound(case))
    return results, components, errors, None


def _run_eigenvalues(cfg, spec):
    if not 1 <= cfg.n_max <= 20:
        raise ValueError(f"n_max must lie in [1, 20], got {cfg.n_max}")
    if cfg.n_max + 1 > cfg.truncation:
        raise ValueError("truncation must exceed n_max")
    expansion = quantize_radial(sign_step(0.5), cfg.truncation, spec)
    by_quadrature = [float(v) for v in expansion.eigenvalues[: cfg.n_max + 1]]
    by_generating = [float(bell_eigenvalue_generating(k))
                     for k in range(cfg.n_max + 1)]
    gap = max(abs(a - b) for a, b in zip(by_quadrature, by_generating))
    results = {"lambda_1": by_quadrature[1], "max_route_gap": gap}
    components = {"quadrature": by_quadrature, "generating": by_generating}
    return results, components, {"route_gap": gap}, None


def _run_wigner(cfg, spec):
    if cfg.points < 2:
        raise ValueError("need at least two grid points per axis")
    axis = np.linspace(-cfg.r_max, cfg.r_max, cfg.points)
    grid = axis[None, :] + 1j * axis[:, None]
    if cfg.state == "bell":
        pair = bell_pair_state(cfg.truncation)
        pts = np.stack([grid, np.zeros_like(grid)], axis=-1)
        values = wigner(pair, pts)
    else:
        vec = np.zeros(cfg.truncation)
        vec[0 if cfg.state == "fock0" else 1] = 1.0
        values = wigner(DensityMatrix.from_state(vec), grid)
    flat = values.ravel()
    results = {
        "w_min": float(np.min(flat)),
        "w_max": float(np.max(flat)),
        "negative_points": int(np.sum(flat < 0.0)),
        "grid_points": int(flat.size),
    }
    components = {}
    rows = np.column_stack([grid.real.ravel(), grid.imag.ravel(), flat])
    return results, components, {}, (("re_alpha", "im_alpha", "w"), rows)


def _run_sigma_curve(cfg, spec):
    case = BipartiteCase(state=bell_pair_state(cfg.truncation), spec=spec)
    curve = sigma_curve(case)
    value, err, tail = curve.integral()
    peak = int(np.argmax(curve.values))
    results = {
        "integral": float(value),
        "integral_error": float(err),
        "tail_estimate": float(tail),
        "max_value": float(curve.values[peak]),
        "argmax": float(curve.points[peak]),
    }
    components = {
        "points": [float(v) for v in curve.points],
        "values": [float(v) for v in curve.values],
        "errors": [float(v) for v in curve.errors],
    }
    rows = np.column_stack([curve.points, curve.values, curve.errors])
    return results, components, {"integral": float(err), "tail": float(tail)}, \
        (("s", "f", "error"), rows)


_RUNNERS = {
    "chsh": _run_chsh,
    "single-particle": _run_single_particle,
    "bipartite": _run_bipartite,
    "eigenvalues": _run_eigenvalues,
    "wigner": _run_wigner,
    "sigma-curve": _run_sigma_curve,
}


def _render_csv(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def run(cfg: RunConfig) -> str:
    """Execute one resolved configuration and return the document text."""
    start = time.perf_counter()
    results, components, errors, grid = _RUNNERS[cfg.command](
        cfg, _integration_spec(cfg))
    elapsed = time.perf_counter() - start
    if cfg.output_format == "csv":
        header, rows = grid
        return _render_csv(header, rows)
    doc = {
        "command": cfg.command,
        "config": dataclasses.asdict(cfg),
        "results": results,
        "components": components,
        "errors": errors,
        "timing_seconds": elapsed,
        "tool_version": __version__,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        text = run(cfg)
    except QuadratureError as exc:
        print(f"bellbound: did not converge: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"bellbound: error: {exc}", file=sys.stderr)
        return 1
    if cfg.output_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(cfg.output_path, "w") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"bellbound: cannot write output: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
