"""nucd benchmark: time to accuracy end to end, per-module spans when traced.

    python3 perfbench/run.py --workload linsys-race --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the repository root; the package is imported from ./src.  A run
repeats passes of one workload until --seconds have elapsed (at least one
pass), each pass on inputs drawn from (--seed, pass number), and reports
medians.  --trace 0 prints the end-to-end metrics; --trace 1 alternates
untraced and traced passes and prints the per-layer metrics.  The last line
of output is one JSON object; the exit code is nonzero when any output
check fails.  --workload all runs every workload in its own process, one
after another.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

# Pinned before numpy loads so every BLAS call in the program is serial.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("linsys-race", "sparse-lasso", "beta-sweep", "sparse-ingest")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def run_all(args) -> int:
    """Each workload in a fresh interpreter, one at a time."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        status |= subprocess.run(cmd, cwd=ROOT).returncode
    return status


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nucd", "__init__.py")):
        print(f"nucd sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import measure  # needs nucd importable

    return measure.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)


if __name__ == "__main__":
    sys.exit(main())
