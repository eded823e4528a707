"""One `seedforge run` in a fresh interpreter, timed stage by stage.

    python3 -m bench.blas_probe <config> <workdir>

with the repository root and `src/` on PYTHONPATH. Prints one JSON line:
the wall seconds of the run and the summed seconds of its dedup stages.
The benchmark starts it without its single-thread BLAS pin, to show what
a user with numpy's default BLAS threads gets.
"""

import json
import sys
import time

from seedforge.config import load_config
from seedforge.pipeline import run_pipeline


def main(config_path: str, workdir: str) -> None:
    config = load_config(config_path)
    marks: list[tuple[str, float]] = []
    start = time.perf_counter()
    run_pipeline(config, workdir,
                 stage_hook=lambda name: marks.append(
                     (name, time.perf_counter())))
    end = time.perf_counter()
    ends = [t for _, t in marks[1:]] + [end]
    dedup_s = sum(stop - begin for (name, begin), stop in zip(marks, ends)
                  if name.startswith("dedup"))
    print(json.dumps({"seconds": end - start, "dedup_s": dedup_s}))


if __name__ == "__main__":
    main(*sys.argv[1:3])
