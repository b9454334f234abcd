"""Time and value every level of the radial-pair ladder on given disc pairs.

bellbound.quad.integrate_radial_pair sweeps a double integral up the node
levels of quad._PAIR_LEVELS and returns the first level whose gap to the
level before is within abs_tol. This script sweeps every level of that
ladder for the single-particle kernel phasespace._excited_kernel over the
discs |alpha| < r1, |alpha'| < r2, both axes panelled at r1 and r2, as
sp_hv_bound panels a sign step's core_core at its jump. Each line is one
level: its node counts (n1, n2, n_ang), its evaluations, its value, its gap
to the level before, the wall seconds of its sweep, and a mark on the level
the ladder returns at --abs-tol, with the ladder's summed evaluations.
A pair the ladder refuses is marked "refused".

Run from the repository root:

    PYTHONPATH=src python scripts/pair_ladder_levels.py            # default core_core
    PYTHONPATH=src python scripts/pair_ladder_levels.py 2.0,2.0 4.2,4.2 --abs-tol 1e-12

Each pair is r1,r2; the default is the default sign step's 0.5,0.5. The
script also calls integrate_radial_pair and exits 1 unless it returns the
marked level's value and evaluations, or refuses where the mark says so.
"""

import argparse
import sys
import time

from bellbound import quad
from bellbound.phasespace import _excited_kernel
from bellbound.quad import IntegrationSpec, QuadratureError, integrate_radial_pair


def ladder_levels(r1, r2):
    """One (level, evaluations, value, gap, seconds) row per ladder level."""
    rows, prev = [], None
    for level in quad._PAIR_LEVELS:
        n1, n2, n_ang = level
        start = time.perf_counter()
        rn, rw = quad._gl_segmented(0.0, r1, n1, (r1, r2))
        sn, sw = quad._gl_segmented(0.0, r2, n2, (r1, r2))
        value = quad._sweep_direct(_excited_kernel, rn, rw, sn, sw, n_ang)
        seconds = time.perf_counter() - start
        gap = None if prev is None else abs(value - prev)
        rows.append((level, rn.size * sn.size * n_ang, value, gap, seconds))
        prev = value
    return rows


def _pair(text):
    r1, r2 = (float(v) for v in text.split(","))
    if not (r1 > 0.0 and r2 > 0.0):
        raise argparse.ArgumentTypeError(f"radii must be positive, got {text}")
    return r1, r2


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("pairs", nargs="*", type=_pair, default=[(0.5, 0.5)],
                        metavar="R1,R2")
    parser.add_argument("--abs-tol", type=float, default=IntegrationSpec().abs_tol)
    args = parser.parse_args(argv)
    spec = IntegrationSpec(abs_tol=args.abs_tol)
    agree = True
    print(f"{'r1':>5} {'r2':>5}  {'level':<16} {'evaluations':>11} "
          f"{'value':>22} {'gap':>9} {'seconds':>8}")
    for r1, r2 in args.pairs:
        rows = ladder_levels(r1, r2)
        stop = next((i for i, row in enumerate(rows)
                     if row[3] is not None and row[3] <= spec.abs_tol), None)
        # what the ladder should return: the marked value and the evaluations up to it
        want = None if stop is None else (rows[stop][2],
                                          sum(row[1] for row in rows[:stop + 1]))
        for i, (level, evals, value, gap, seconds) in enumerate(rows):
            gap_text = "-" if gap is None else f"{gap:.2e}"
            mark = f"  <- returned, {want[1]:,} evaluations" if i == stop else ""
            print(f"{r1:5.2f} {r2:5.2f}  {str(level):<16} {evals:11,d} "
                  f"{value:22.17g} {gap_text:>9} {seconds:8.4f}{mark}")
        if stop is None:
            print(f"{r1:5.2f} {r2:5.2f}  refused at abs_tol {spec.abs_tol}")
        try:
            got = integrate_radial_pair(_excited_kernel, spec, r1, r2, splits=(r1, r2))
        except QuadratureError:
            agree = agree and want is None
        else:
            agree = agree and (got.value, got.evaluations) == want
    if not agree:
        print("integrate_radial_pair disagrees with the marked levels", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
