"""Regenerate the reference curve of the sigma-curve workload.

The curve is computed with the workload's own inputs at MC seed 0, which
the benchmark's seed draws never produce, and written to
reference_sigma.json next to this file. Run from the repository root:

    python3 perfbench/make_reference.py

Regenerate it only on a commit whose sigma curve is trusted: the benchmark
accepts a run's curve when every point lies within four combined standard
errors of this one.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_SEED = 0


def main():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import REFERENCE_CURVE, WORKLOADS

    wl = WORKLOADS["sigma-curve"]
    inputs = wl.build(0, mc_seed=REFERENCE_SEED)
    curve = wl.op(inputs)
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True).stdout.strip()
    spec = inputs["case"].spec
    doc = {
        "source_commit": sha or None,
        "mc_seed": REFERENCE_SEED,
        "mc_samples": spec.mc_samples,
        "sigma_step": spec.sigma_step,
        "sigma_max": spec.sigma_max,
        **curve,
    }
    REFERENCE_CURVE.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {REFERENCE_CURVE}")


if __name__ == "__main__":
    main()
