"""The benchmark's workloads: inputs drawn from a seed, one operation, checks.

Each workload builds its inputs once per run (the set-up the benchmark
times), then repeats one operation in a closed loop with a single client.
Every operation's result is canonicalised to plain JSON values so that two
runs can be compared bit for bit, and checked against references that are
computed outside the timed region.

Inputs follow the library's defaults except where a value is stated, so a
change to a default shows up in the benchmark.
"""

import json
import math
import random
from pathlib import Path

import numpy as np

import bellbound as bb
from bellbound import cli

HERE = Path(__file__).resolve().parent
REFERENCE_CURVE = HERE / "reference_sigma.json"

# The sign-step radius is drawn once per run from this band, so a change
# cannot win only at the flagship radius 0.5.
R0_BAND = (0.45, 0.55)
# Grid of the sigma-curve workload: short enough to repeat, long enough to
# keep the peak and pass the library's 15 % per-point gate at the default
# sample count.
SIGMA_STEP = 0.3
SIGMA_MAX = 1.5
# Dimension of the single-mode state of the single-particle and quadrature
# workloads.
SP_DIM = 64
GENERIC_N_MAX = 24
MC_METRICS = ("phasespace.sigma_curve.mc_error", "phasespace.sigma_curve.mc_err2_s")
QUADRATURE_COMMANDS = (
    ("chsh",),
    ("eigenvalues",),
    ("wigner",),
    ("wigner", "--state", "bell"),
)


def draw_inputs(seed):
    """The scalar inputs of every workload; the same seed gives the same ones.

    The MC seed is drawn from [1, 2^31), so it never equals 0, the seed of the
    committed reference curve.
    """
    rng = random.Random(seed)
    return {"r0": rng.uniform(*R0_BAND), "mc_seed": rng.randrange(1, 2**31)}


def lambda_1(r0):
    """Closed form of the first eigenvalue of sign_step(r0)."""
    return -1.0 + math.exp(-2.0 * r0 * r0) * (2.0 + 8.0 * r0 * r0)


def _first_excited(dim):
    vec = np.zeros(dim)
    vec[1] = 1.0
    return bb.DensityMatrix.from_state(vec)


def _within(failures, label, value, target, tol):
    if not abs(value - target) <= tol:
        failures.append(f"{label} = {value!r}, want {target!r} within {tol:g}")


def _report(rep):
    notes = rep.notes
    return {
        "qm_mean": rep.qm_mean,
        "hv_bound": rep.hv_bound,
        "bound_difference": rep.bound_difference,
        "components": dict(notes["components"]),
        "component_errors": dict(notes["component_errors"]),
        "error_estimate": notes["error_estimate"],
        "violation": notes["violation"],
    }


class SingleParticleWorkload:
    """sp_hv_bound on the first excited state: the kernel quadrature route."""

    name = "single-particle"
    used_inputs = ("r0",)
    monte_carlo = False

    def build(self, seed):
        drawn = draw_inputs(seed)
        case = bb.SingleParticleCase(
            symbol=bb.sign_step(drawn["r0"]), state=_first_excited(SP_DIM)
        )
        return {"drawn": drawn, "case": case}

    def op(self, inputs):
        return _report(bb.sp_hv_bound(inputs["case"]))

    def reference(self, inputs):
        case = inputs["case"]
        generic = bb.sp_hv_bound_generic(case.state, case.symbol, n_max=GENERIC_N_MAX)
        return {"generic": generic}

    def check(self, result, ref, inputs):
        r0 = inputs["drawn"]["r0"]
        failures = []
        _within(failures, "full_full", result["components"]["full_full"], 1.0, 1e-8)
        _within(failures, "qm_mean", result["qm_mean"], lambda_1(r0), 1e-12)
        _within(failures, "hv_bound vs generic route", result["hv_bound"],
                ref["generic"], 5e-3)
        return failures

    def layer_metrics(self, result, op_s):
        return {name: 0.0 for name in MC_METRICS}


class SigmaCurveWorkload:
    """sigma_curve on a short grid: the stratified 6-D Monte Carlo."""

    name = "sigma-curve"
    used_inputs = ("mc_seed",)
    monte_carlo = True

    def build(self, seed, mc_seed=None):
        drawn = draw_inputs(seed)
        if mc_seed is not None:
            drawn["mc_seed"] = mc_seed
        spec = bb.IntegrationSpec(
            sigma_step=SIGMA_STEP, sigma_max=SIGMA_MAX, seed=drawn["mc_seed"]
        )
        return {"drawn": drawn, "case": bb.BipartiteCase(spec=spec)}

    def op(self, inputs):
        curve = bb.sigma_curve(inputs["case"])
        return {
            "points": curve.points.tolist(),
            "values": curve.values.tolist(),
            "errors": curve.errors.tolist(),
        }

    def reference(self, inputs):
        return json.loads(REFERENCE_CURVE.read_text())

    def check(self, result, ref, inputs):
        failures = []
        if result["points"] != ref["points"]:
            return [f"grid {result['points']} differs from reference {ref['points']}"]
        for s, v, e, rv, re in zip(result["points"], result["values"],
                                   result["errors"], ref["values"], ref["errors"]):
            _within(failures, f"f({s:g})", v, rv, 4.0 * math.hypot(e, re))
        return failures

    def layer_metrics(self, result, op_s):
        # root-sum-square of the per-point MC errors, and the MC cost of
        # reaching it, which a change of sample count alone leaves unchanged
        mc_error = math.sqrt(sum(e * e for e in result["errors"]))
        return dict(zip(MC_METRICS, (mc_error, mc_error * mc_error * op_s)))


def _resolved_config(argv):
    # the CLI's own resolution, so the documents use its default flags
    return cli._resolve_config(cli.build_parser().parse_args(list(argv)))


def _wigner_reference(doc):
    """Summary of the closed-form Wigner function on the document's grid.

    fock1: (1/pi) (4|a|^2 - 1) exp(-2|a|^2). Pair state on the (a, 0) slice:
    (1/pi^2) (2|a|^2 - 1) exp(-2|a|^2), from the relative mode in |1> and the
    centre of mass in |0>.
    """
    cfg = doc["config"]
    axis = np.linspace(-cfg["r_max"], cfg["r_max"], cfg["points"])
    x = axis[None, :] ** 2 + axis[:, None] ** 2
    if cfg["state"] == "bell":
        w = (2.0 * x - 1.0) * np.exp(-2.0 * x) / math.pi**2
    else:
        w = (4.0 * x - 1.0) * np.exp(-2.0 * x) / math.pi
    return {
        "w_min": float(w.min()),
        "w_max": float(w.max()),
        "negative_points": int(np.sum(w < 0.0)),
        "grid_points": int(w.size),
    }


class QuadratureWorkload:
    """CLI documents and the 1-D quadrature cross-checks; no Bessel, no MC."""

    name = "quadrature"
    used_inputs = ("r0",)
    monte_carlo = False

    def build(self, seed):
        drawn = draw_inputs(seed)
        r0 = drawn["r0"]
        return {
            "drawn": drawn,
            "configs": [_resolved_config(argv) for argv in QUADRATURE_COMMANDS],
            "rho1": _first_excited(SP_DIM),
            "symbol": bb.sign_step(r0),
            "pair_case": bb.BipartiteCase(symbol=bb.sign_step(math.sqrt(2.0) * r0)),
        }

    def op(self, inputs):
        docs = []
        for cfg in inputs["configs"]:
            doc = json.loads(cli.run(cfg))
            doc.pop("timing_seconds")
            docs.append(doc)
        rho1, symbol = inputs["rho1"], inputs["symbol"]
        return {
            "documents": docs,
            "generic": bb.sp_hv_bound_generic(rho1, symbol, n_max=GENERIC_N_MAX),
            "coarse": bb.coarse_parity_bound(rho1, symbol),
            "pair_qm_mean": bb.bp_qm_mean(inputs["pair_case"]),
        }

    def reference(self, inputs):
        case = bb.SingleParticleCase(symbol=inputs["symbol"], state=inputs["rho1"])
        return {"kernel_route": bb.sp_hv_bound(case).hv_bound}

    def check(self, result, ref, inputs):
        r0 = inputs["drawn"]["r0"]
        lam = lambda_1(r0)
        failures = []
        _within(failures, "coarse_parity_bound", result["coarse"], lam * lam, 1e-6)
        # the relative mode of sign_step(sqrt 2 r0) is sign_step(r0)
        _within(failures, "bp_qm_mean", result["pair_qm_mean"], lam, 1e-8)
        _within(failures, "sp_hv_bound_generic vs kernel route", result["generic"],
                ref["kernel_route"], 5e-3)
        chsh, eig, *wigners = result["documents"]
        res = chsh["results"]
        _within(failures, "chsh hv_bound", res["hv_bound"], 4.0, 1e-10)
        _within(failures, "chsh qm_mean", res["qm_mean"], 2.0 * math.sqrt(2.0), 1e-10)
        _within(failures, "chsh reconstruction_residual",
                res["reconstruction_residual"], 0.0, 1e-10)
        _within(failures, "chsh identity_residual",
                chsh["errors"]["identity_residual"], 0.0, 1e-10)
        res = eig["results"]
        _within(failures, "eigenvalues lambda_1", res["lambda_1"], lambda_1(0.5), 1e-9)
        _within(failures, "eigenvalues max_route_gap", res["max_route_gap"], 0.0, 1e-8)
        n_table = eig["config"]["n_max"] + 1
        for route in ("quadrature", "generating"):
            if len(eig["components"][route]) != n_table:
                failures.append(f"eigenvalues {route} table is not {n_table} long")
        for doc in wigners:
            want = _wigner_reference(doc)
            got = doc["results"]
            label = f"wigner {doc['config']['state']}"
            for key in ("w_min", "w_max"):
                _within(failures, f"{label} {key}", got[key], want[key], 1e-12)
            for key in ("negative_points", "grid_points"):
                if got[key] != want[key]:
                    failures.append(f"{label} {key} = {got[key]}, want {want[key]}")
        return failures

    def layer_metrics(self, result, op_s):
        return {name: 0.0 for name in MC_METRICS}


WORKLOADS = {
    wl.name: wl
    for wl in (SingleParticleWorkload(), SigmaCurveWorkload(), QuadratureWorkload())
}
