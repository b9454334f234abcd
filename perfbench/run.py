"""bellbound benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; bellbound is imported from src/.
The workload's inputs are drawn from --seed. The run repeats the
workload's operation in a closed loop (one client, one process) until
--seconds have passed, checks every result against references computed
outside the timed region, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
measured untraced. With --trace 1 the run makes one untraced op, then
traced ops, and reports the per-layer metrics; traced results must equal
the untraced one bit for bit. A result file stamped with the code and
machine identity goes to perfbench/out/, with the spans of a traced run
beside it.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# set-up is timed in this many fresh interpreters; the median is reported
SETUP_STARTS = 7
MIN_COVERAGE = 0.95
OPENBLAS_THREAD_QUERIES = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
)


def parse_args(workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def cold_setup_seconds(workload, seed):
    times = []
    for _ in range(SETUP_STARTS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, check=True, timeout=150,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "bellbound").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for query in OPENBLAS_THREAD_QUERIES:
            fn = getattr(lib, query, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def stamp(wl, seed, inputs):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "workload": wl.name,
        "seed": seed,
        "inputs": {k: inputs["drawn"][k] for k in wl.used_inputs},
    }


def timed_op(wl, inputs):
    """(wall seconds, cpu seconds, result or None, error text or None)."""
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        result = wl.op(inputs)
        error = None
    except Exception as exc:  # an op that raises counts as failed
        traceback.print_exc(file=sys.stderr)
        result, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - wall, time.process_time() - cpu, result, error


def run_for(seconds, op, tracer=None):
    """Repeat op until seconds have passed; at least once."""
    ops = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.op = len(ops)
        ops.append(op())
    return ops


def main():
    sys.path[:0] = [str(SRC), str(HERE)]
    if not (SRC / "bellbound" / "__init__.py").is_file():
        print(f"perfbench: no bellbound package under {SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer, median_metrics
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(WORKLOADS)
    wl = WORKLOADS[args.workload]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)
    base = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"

    setup = [] if args.trace else cold_setup_seconds(wl.name, args.seed)
    inputs = wl.build(args.seed)

    def op():
        return timed_op(wl, inputs)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_for(args.seconds, op, tracer)
        finally:
            tracer.uninstall()
        # the untraced op runs last, on caches as warm as the traced ones'
        ops = [op(), *traced]
    else:
        ops = run_for(args.seconds, op)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ref = wl.reference(inputs)
    failures = []
    for i, (_, _, result, error) in enumerate(ops):
        problems = [error] if error else wl.check(result, ref, inputs)
        if tracer is not None and i > 0 and result != ops[0][2]:
            problems.append("traced result differs from the untraced one")
        failures.append(problems)
    failed = sum(bool(p) for p in failures)
    walls = [w for w, _, _, _ in ops]
    results = [r for _, _, r, _ in ops]

    if tracer is None:
        op_s = statistics.median(walls)
        metrics = {"op_s": op_s, "setup_s": statistics.median(setup),
                   "peak_rss_mb": peak_rss_mb}
        shown = dict(metrics)
        if wl.monte_carlo and results[0] is not None:
            # the MC error metrics need no trace, so untraced runs show them
            shown.update(wl.layer_metrics(results[0], op_s))
    else:
        per_op = [tracer.op_metrics(k, w) for k, w in enumerate(walls[1:])]
        metrics = median_metrics(per_op)
        metrics["trace.overhead_s"] = statistics.median(walls[1:]) - walls[0]
        metrics["run.cpu_per_wall"] = sum(c for _, c, _, _ in ops) / sum(walls)
        if results[0] is not None:
            metrics.update(wl.layer_metrics(results[0], walls[0]))
        shown = metrics
        tracer.write(base.with_suffix(".spans.jsonl.gz"))
    correct = failed == 0
    if tracer is not None and metrics["trace.coverage"] < MIN_COVERAGE:
        correct = False
        failures.append([f"trace.coverage {metrics['trace.coverage']:.3f} "
                         f"below {MIN_COVERAGE}"])

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    shown = {name: {"value": v, "unit": units[name]} for name, v in shown.items()}
    reported = {m["name"]: shown[m["name"]] for m in wanted}
    doc = {
        "stamp": stamp(wl, args.seed, inputs),
        "trace": args.trace,
        "seconds": args.seconds,
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "error_rate": failed / len(ops),
        "metrics": shown,
        "op_wall_s": walls,
        "setup_s_samples": setup,
        "failures": [p for p in failures if p],
        "first_result": results[0],
    }
    base.with_suffix(".json").write_text(json.dumps(doc, indent=2) + "\n")

    for name, entry in shown.items():
        print(f"{wl.name} {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"{wl.name} error_rate = {doc['error_rate']:g} "
          f"({failed} of {len(ops)} ops failed)")
    for problems in doc["failures"]:
        print(f"{wl.name} FAILED: {'; '.join(problems)}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": reported}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
