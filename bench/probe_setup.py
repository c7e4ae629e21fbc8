"""Set-up time of one workload in a fresh process.

Imports rotsum and builds every truncation, plan, observable and operation
the workload uses, then prints the elapsed seconds on stdout.  ``run.py``
starts this script several times and reports the median as ``setup_s``.

    python3 bench/probe_setup.py --workload billiard_rays --seed 1
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    args = ap.parse_args()
    workloads.build(args.workload, args.seed, args.size)
    print(repr(time.perf_counter() - T0))


if __name__ == "__main__":
    main()
