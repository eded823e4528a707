"""Entry point: python3 bench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>, from the repository root.

Runs seedforge from the `src/` tree of the checkout it sits in and prints
one JSON result object as the last line of stdout. Exits 1 when an
operation failed or an output check did not hold, 2 when there is no
seedforge source tree to run.
"""

import time

PROCESS_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# One BLAS thread, set before numpy loads. With a BLAS thread per core
# beside the pipeline's own two, each of the dedup scan's small
# matrix-vector products waits on every BLAS thread, and on a shared
# 2-core VM one stalled core stretches a 0.7 s scan to 2-18 s.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "seedforge", "cli.py")):
        print(f"bench: no seedforge sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [ROOT, SRC]
    from bench import harness
    sys.exit(harness.main(sys.argv[1:], PROCESS_START))
