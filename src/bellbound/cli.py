"""Batch command line for the collapse bound pipelines.

Every run writes one result document. JSON documents carry the command,
the requested quantities, the component breakdown, error estimates, the
full configuration echo and the wall-clock time, so a run can be repeated
bit for bit from its own output; only timing_seconds varies between
repeats. Each command takes only the flags that change its document and
refuses every other one; the echo holds the default of every flag the
command does not take, and the command's fixed Fock cutoff. CSV is
available for the two grid-valued commands (wigner, sigma-curve) and
holds the grid alone.

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
from .hvbound import bell_report, chsh_decomposition, collapsed_operator
from .phasespace import (
    BipartiteCase,
    SingleParticleCase,
    bp_hv_bound,
    sigma_curve,
    sign_disc,
    sp_hv_bound,
)
from .quad import IntegrationSpec, QuadratureError
from .weyl import bell_eigenvalue_generating, quantize_radial, sign_step, wigner

# each command's Fock cutoff in the config echo, which no flag replaces:
# qubit algebra for chsh, a converged cutoff for single-particle, two
# occupied levels for wigner. eigenvalues, bipartite and sigma-curve build
# no Fock matrix; they echo the cutoff their earlier documents held, so
# those documents stay byte-identical
_TRUNCATION_DEFAULTS = {
    "chsh": 2,
    "single-particle": 64,
    "bipartite": 32,
    "eigenvalues": 64,
    "wigner": 8,
    "sigma-curve": 32,
}

# every flag once, with the RunConfig field it sets and that field's
# default, which also stands on every command that does not take the flag
_FLAGS = {
    "--r-max": dict(type=float, default=6.0,
                    help="grid half-width for wigner; separation range for "
                         "sigma-curve, at least 5 (default 6)"),
    "--abs-tol": dict(type=float, default=1e-9,
                      help="largest rounding bound the closed-form spectrum "
                           "may carry (default 1e-9)"),
    "--n-max": dict(type=int, default=10,
                    help="highest Fock order in the table, at most 20 (default 10)"),
    "--state": dict(choices=("fock0", "fock1", "bell"), default="fock1",
                    help="fock0, fock1, or the pair state on the (alpha, 0) "
                         "slice (default fock1)"),
    "--points": dict(type=int, default=200,
                     help="grid points per axis, in [2, 1024] (default 200)"),
    "--sigma-step": dict(type=float, default=0.05,
                         help="separation grid spacing (default 0.05)"),
    "--sigma-max": dict(type=float, default=2.7,
                        help="separation grid end (default 2.7)"),
    "--format": dict(choices=("json", "csv"), default="json", dest="output_format",
                     help="csv holds the grid alone (default json)"),
    "--out": dict(default=None, dest="output_path",
                  help="output file (default: stdout)"),
}

# each command's help line and the flags its route reads
_COMMANDS = {
    "chsh": ("four-correlator bound on the singlet", ("--out",)),
    "single-particle": ("sign-step bound on the first excited state", ("--out",)),
    "bipartite": ("separation sign-step bound on the pair state", ("--out",)),
    "eigenvalues": ("sign-step operator spectrum by two routes",
                    ("--abs-tol", "--n-max", "--out")),
    "wigner": ("Wigner function on a square grid",
               ("--r-max", "--state", "--points", "--format", "--out")),
    "sigma-curve": ("per-separation bound density f(s)",
                    ("--r-max", "--sigma-step", "--sigma-max", "--format", "--out")),
}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """One resolved invocation; echoed verbatim into every JSON document."""

    command: str
    truncation: int
    r_max: float
    abs_tol: float
    sigma_step: float
    sigma_max: float
    n_max: int
    state: str
    points: int
    output_format: str
    output_path: str | None


_RETIRED_FLAGS = ("--mc-samples", "--seed")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems, but 2 is reserved for
    # non-convergence here, so reroute to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(prog="bellbound",
                     description="collapse Bell-bound computations")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, flags) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=summary)
        for flag in flags:
            cmd.add_argument(flag, **_FLAGS[flag])
        cmd.set_defaults(**{kw.get("dest", flag[2:].replace("-", "_")): kw["default"]
                            for flag, kw in _FLAGS.items() if flag not in flags})
        # the Monte Carlo sigma curve's settings, kept hidden so that a run
        # still passing them is refused by name rather than as unknown
        for flag in _RETIRED_FLAGS:
            cmd.add_argument(flag, default=None, help=argparse.SUPPRESS)
    return parser


def _resolve_config(args):
    for flag in _RETIRED_FLAGS:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise ValueError(f"{flag} is retired: the sigma curve is "
                             "computed by deterministic quadrature")
    if not 2 <= args.points <= 1024:  # the wigner grid holds points^2 values
        raise ValueError(f"points {args.points} per axis must lie in [2, 1024]: "
                         "the grid may hold at most 2^20 values")
    fields = {f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)
              if f.name != "truncation"}
    return RunConfig(**fields, truncation=_TRUNCATION_DEFAULTS[args.command])


def _integration_spec(cfg: RunConfig) -> IntegrationSpec:
    return IntegrationSpec(r_max=cfg.r_max, abs_tol=cfg.abs_tol,
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
    return results, components, errors


def _run_chsh(cfg, spec):
    dec = chsh_decomposition()
    rep = bell_report(bell_pair_state(2), dec)
    # C = sum_u w_u P_u B P_u must equal hv_bound times the identity: the
    # bound Tr(rho C) is state independent for these settings
    collapsed = collapsed_operator(dec).entries
    eye = np.eye(collapsed.shape[0])
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
    case = BipartiteCase(spec=spec)
    results, components, errors = _report_payload(bp_hv_bound(case))
    return results, components, errors, None


def _run_eigenvalues(cfg, spec):
    if not 1 <= cfg.n_max <= 20:
        raise ValueError(f"n_max must lie in [1, 20], got {cfg.n_max}")
    expansion = quantize_radial(sign_step(0.5), cfg.n_max + 1, spec)
    # the closed form keeps the "quadrature" key that earlier documents used
    by_closed_form = [float(v) for v in expansion.eigenvalues]
    by_generating = [float(bell_eigenvalue_generating(k))
                     for k in range(cfg.n_max + 1)]
    gap = max(abs(a - b) for a, b in zip(by_closed_form, by_generating))
    results = {"lambda_1": by_closed_form[1], "max_route_gap": gap}
    components = {"quadrature": by_closed_form, "generating": by_generating}
    return results, components, {"route_gap": gap}, None


def _run_wigner(cfg, spec):
    if not np.isfinite(2.0 * cfg.r_max):
        raise ValueError(f"r_max {cfg.r_max} is too large for a finite grid")
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
    case = BipartiteCase(spec=spec)
    curve = sigma_curve(case)
    value, err = curve.integral()
    # what the grid misses: sign_disc integrates f over the plane
    disc, disc_err = sign_disc(bp_hv_bound(case))
    peak = int(np.argmax(curve.values))
    results = {
        "integral": value,
        "integral_error": err,
        "beyond_grid": disc - value,
        "max_value": float(curve.values[peak]),
        "argmax": float(curve.points[peak]),
    }
    columns = (curve.points, curve.values, curve.errors)
    components = dict(zip(("points", "values", "errors"), (c.tolist() for c in columns)))
    errors = {"integral": err, "beyond_grid": disc_err + err}
    return results, components, errors, (("s", "f", "error"), np.column_stack(columns))


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
        # name the flag to raise only where this command takes it
        flag = f"--{exc.knob.replace('_', '-')}" if exc.knob else None
        hint = f"; raise {flag}" if flag in _COMMANDS[args.command][1] else ""
        print(f"bellbound: did not converge: {exc}{hint}", file=sys.stderr)
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
