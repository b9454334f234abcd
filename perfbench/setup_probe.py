"""Time one cold set-up: import bellbound and build a workload's inputs.

Started in a fresh interpreter by run.py, once per cold start:

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the seconds taken as its only line.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    start = time.perf_counter()
    from workloads import WORKLOADS  # imports bellbound


    WORKLOADS[workload].build(seed)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
