"""Run one kplab benchmark workload and print its metrics as JSON.

From the root of a checkout:

    python3 kplabbench/run.py --workload report_small --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is the run's record
(environment, seed, tail percentile, worst residual).  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run.  kplab is imported from ``src/`` next to this directory and
from nowhere else, so the run fails without printing a result when the
sources are missing.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# One BLAS thread: the ops are mostly elementwise, and a single thread
# keeps runs steady on a small machine shared with other processes.
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # must happen before numpy is first imported
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "kplab" / "__init__.py").is_file():
        print(f"run.py: no kplab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import measure

    if args.workload not in measure.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(measure.WORKLOADS)}")
    return measure.run(args.workload, args.seed, args.seconds, bool(args.trace),
                       src, root / ".kplabbench", BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
