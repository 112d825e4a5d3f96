"""Benchmark of hqmoduli against the working tree (``src/``).

    python3 bench/run.py --workload congruence --seed 1 --seconds 30 --trace 0

Workloads (see ``bench/README.md``): ``congruence``, ``triangle-grid`` and
``cli-oneshot``.  Each is one client in a closed loop with one operation
in flight.  Inputs are made from ``--seed`` before timing; making them is
repeated three times and counted in ``setup_s``.  Every answer
is checked, and a wrong answer or an exception counts as failed.

With ``--trace 0`` the run times the closed loop for ``--seconds`` and
reports the end-to-end metrics.  With ``--trace 1`` it alternates
untraced and traced passes over one period of the input mix and reports
the per-layer metrics; it also writes the cProfile top 10 by self time.
``--ops N`` runs exactly N operations, on the first N inputs of the pool
at most, instead of a timed loop (the untimed mode).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record,
with the environment and an input fingerprint, goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("congruence", "triangle-grid", "cli-oneshot")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=None,
                    help="run exactly this many ops, on at most as many "
                         "inputs, instead of a timed loop")
    args = ap.parse_args(argv)
    if args.seconds <= 0 or (args.ops is not None and args.ops < 1):
        ap.error("--seconds and --ops must be positive")
    return args


def pin_threads() -> None:
    """One BLAS/OpenMP thread, set before numpy loads; the CLI processes
    inherit it."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hqmoduli" / "__init__.py").is_file():
        sys.stderr.write(f"no hqmoduli sources under {SRC}\n")
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import hqmoduli
    import harness  # imports numpy and every hqmoduli module
    import_s = time.perf_counter() - start
    if Path(hqmoduli.__file__).resolve().parent != SRC / "hqmoduli":
        sys.stderr.write(f"hqmoduli imported from {hqmoduli.__file__}, "
                         f"not from {SRC}\n")
        return 2
    return harness.main(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
