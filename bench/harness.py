"""Benchmark harness: set-up, the timed loop, checks and the result line.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run, which also
reports tracing overhead against the untraced iterations of the same run.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from bench import tracing
from bench.workloads import (MAX_CONCURRENT, WORKLOADS, Iteration, Session,
                             Workload, add_stats, provider_calls)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".bench_runs")
SETUP_REPEATS = 5


def load_spec() -> dict:
    """BENCHMARK.json: the metric names and units the result line uses."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def units(spec: dict, key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[key]}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def machine_facts() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "budget.max_concurrent": MAX_CONCURRENT,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
            "platform": platform.platform()}


def _cli_startup_seconds() -> float:
    """Wall time of a fresh interpreter importing the seedforge CLI."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import seedforge.cli"], cwd=ROOT,
                   env=env, check=True, timeout=120)
    return time.perf_counter() - start


def measure_setup(workload: Workload, seed: int, base: str
                  ) -> tuple[float, dict]:
    """Median CLI start-up plus median input set-up, each repeated
    SETUP_REPEATS times. The last input directory is the one the run
    uses."""
    startup = [_cli_startup_seconds() for _ in range(SETUP_REPEATS)]
    prepare = []
    for repeat in range(SETUP_REPEATS):
        start = time.perf_counter()
        directory = tempfile.mkdtemp(prefix="inputs-", dir=base)
        workload.setup(seed, directory)
        prepare.append(time.perf_counter() - start)
        if repeat < SETUP_REPEATS - 1:
            shutil.rmtree(directory)
    detail = {"cli_startup_s": startup, "input_setup_s": prepare}
    return _median(startup) + _median(prepare), detail


def _iteration_figures(it: Iteration) -> dict:
    primary = [op for op in it.ops if op.primary]
    seconds = sum(op.seconds for op in primary)
    items = sum(op.items for op in primary)
    stats: dict = {}
    for op in it.ops:
        add_stats(stats, op.stats)
    return {"items_per_s": items / seconds if seconds and items else 0.0,
            "primary_s": seconds, "items": items,
            "provider_calls_per_item":
                provider_calls(stats) / items if items else 0.0,
            "request_chars_per_item":
                stats.get("request_chars", 0) / items if items else 0.0,
            "stats": stats}


def end_to_end(figures: list[dict], setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "items_per_s": _median([f["items_per_s"] for f in figures]),
        "provider_calls_per_item":
            _median([f["provider_calls_per_item"] for f in figures]),
        "request_chars_per_item":
            _median([f["request_chars_per_item"] for f in figures]),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _layer_figures(workload: Workload, it: Iteration, spans) -> dict:
    figures = _iteration_figures(it)
    ablation_seconds = {op.kind.split(".", 1)[1]: op.seconds
                        for op in it.ops if op.kind.startswith("ablate.")}
    return tracing.layer_metrics(
        spans, workers=MAX_CONCURRENT,
        pairs=sum(op.items for op in it.ops if op.kind == "eval"),
        dedup_records=sum(op.items for op in it.ops if op.dedup),
        ablation_seconds=ablation_seconds,
        gateway_stats=figures["stats"], cache_bytes=it.cache_bytes,
        distinct_token_share=workload.distinct_token_share)


class _Loop:
    """Counts the seconds spent in timed commands and says whether to
    start another iteration: only when it is expected to end less than
    half an iteration past the budget."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.measured: list[float] = []

    def more(self) -> bool:
        if not self.measured:
            return True
        spent = sum(self.measured)
        return spent + _median(self.measured) / 2 < self.seconds

    def add(self, it: Iteration) -> Iteration:
        self.measured.append(sum(op.seconds for op in it.ops))
        return it


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        process_start: float, label: str | None = None) -> dict:
    label = label or workload.name
    os.makedirs(RUNS_DIR, exist_ok=True)
    base = tempfile.mkdtemp(prefix=f"tmp-{label}-", dir=RUNS_DIR)
    root_logger = logging.getLogger()
    handler = logging.FileHandler(os.path.join(base, "seedforge.log"),
                                  encoding="utf-8")
    handler.setFormatter(logging.Formatter(
        "%(levelname)s %(name)s: %(message)s"))
    old_level = root_logger.level
    root_logger.addHandler(handler)
    root_logger.setLevel(logging.INFO)
    session = Session()
    tracer = None
    try:
        setup_s, setup_detail = measure_setup(workload, seed, base)
        in_process_setup = time.perf_counter() - process_start
        # A traced run spends the first half of its time untraced, as the
        # base the tracing overhead is measured against.
        loop = _Loop(seconds / 2 if trace else seconds)
        iterations = []
        while loop.more():
            iterations.append(loop.add(workload.iteration(session)))
        layer = None
        spans_file = None
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
            session.tracer = tracer
            loop.seconds = seconds
            traced, per_iteration, all_spans = [], [], []
            while not traced or loop.more():
                it = loop.add(workload.iteration(session))
                spans = tracer.take()
                all_spans.extend(spans)
                per_iteration.append(_layer_figures(workload, it, spans))
                per_iteration[-1]["trace.spans"] = len(spans)
                traced.append(it)
            tracer.uninstall()
            session.tracer = None
            plain_s = _median([_iteration_figures(it)["primary_s"]
                               for it in iterations])
            traced_s = _median([_iteration_figures(it)["primary_s"]
                                for it in traced])
            layer = {name: _median([m[name] for m in per_iteration])
                     for name in per_iteration[0]}
            layer["trace.overhead_s"] = traced_s - plain_s
            layer["trace.overhead_share"] = ((traced_s - plain_s) / plain_s
                                             if plain_s else 0.0)
            spans_dir = os.path.join(RUNS_DIR, "spans")
            os.makedirs(spans_dir, exist_ok=True)
            spans_file = os.path.join(spans_dir,
                                      f"{label}-seed{seed}.jsonl.gz")
            tracer.write(all_spans, spans_file)
            iterations.extend(traced)
        figures = [_iteration_figures(it) for it in iterations]
        e2e = end_to_end(figures, setup_s)
        # Outside the timed loop and after peak_rss_mb is read; the child's
        # memory does not count toward this process's peak anyway.
        probe = workload.default_blas_build(ROOT) if trace else None
    finally:
        if tracer is not None:
            tracer.uninstall()
        session.close()
        root_logger.removeHandler(handler)
        root_logger.setLevel(old_level)
        handler.close()
        shutil.rmtree(base, ignore_errors=True)
    ops = [op for it in iterations for op in it.ops]
    default_blas = None
    if probe is not None:
        ops.append(probe[0])
        default_blas = {"run_s": probe[0].seconds, **probe[1],
                        "pinned_dedup_s": layer["pipeline.stage.dedup_s"]}
    op_seconds: dict[str, list[float]] = {}
    for op in ops:
        op_seconds.setdefault(op.kind, []).append(op.seconds)
    failed = [op for op in ops if not op.ok]
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": trace, "machine": machine_facts(),
        "iterations": len(iterations),
        "attempted": len(ops), "failed": len(failed),
        "failures": [{"kind": op.kind, "error": op.error,
                      "problems": op.problems} for op in failed],
        "end_to_end": e2e, "per_layer": layer,
        "op_median_s": {kind: _median(v) for kind, v in op_seconds.items()},
        "default_blas": default_blas,
        "setup": {**setup_detail, "in_process_s": in_process_setup},
        "ops": [{"kind": op.kind, "seconds": op.seconds,
                 "items": op.items, "ok": op.ok} for op in ops],
        "manifest_sha256": workload.digests,
        "spans_file": spans_file,
    }


def result_line(result: dict, spec: dict) -> dict:
    key = "per_layer" if result["trace"] else "end_to_end"
    values = result[key]
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units(spec, key).items()}}


def _report(result: dict, spec: dict, unit: str) -> None:
    print(f"workload {result['workload']} seed {result['seed']} "
          f"iterations {result['iterations']} "
          f"machine {json.dumps(result['machine'], sort_keys=True)}")
    e2e_units = units(spec, "end_to_end")
    for name, value in result["end_to_end"].items():
        print(f"  {name} = {value:.6g} {e2e_units[name]}")
    print(f"  (items are {unit})")
    for kind, seconds in result["op_median_s"].items():
        print(f"  {kind} median = {seconds:.6g} s")
    share = result["failed"] / result["attempted"]
    print(f"  failed_ops_share = {share:.6g} ({result['failed']} of "
          f"{result['attempted']} ops)")
    for name, digest in result["manifest_sha256"].items():
        print(f"  sha256 {name} {digest}")
    for failure in result["failures"]:
        print(f"  FAILED {failure['kind']}: {failure['error'] or ''}"
              f"{'; '.join(failure['problems'])}", file=sys.stderr)
    if result["per_layer"] is not None:
        print("  per-layer (median over traced iterations):")
        layer_units = units(spec, "per_layer")
        for name, value in result["per_layer"].items():
            print(f"    {name} = {value:.6g} {layer_units[name]}")
        print("  note: time a provider call waits on the gateway's "
              "concurrency semaphore is not visible from outside "
              "Gateway._call and counts as gateway busy time")
        print(f"  spans -> {result['spans_file']}")
    blas = result["default_blas"]
    if blas is not None:
        print(f"  default BLAS threads, not gated: one cold run "
              f"{blas['run_s']:.6g} s, its dedup stages {blas['dedup_s']:.6g}"
              f" s (single-thread BLAS, traced median: "
              f"{blas['pinned_dedup_s']:.6g} s); manifest bytes "
              f"{'equal' if blas['same_bytes'] else 'DIFFER from'} the "
              f"single-thread build")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="bench/run.py",
        description="Run one seedforge benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv, process_start: float) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]()
    result = run(workload, args.seed, args.seconds, bool(args.trace),
                 process_start)
    results_dir = os.path.join(RUNS_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-"
                                     f"trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
    spec = load_spec()
    _report(result, spec, workload.unit)
    print(json.dumps(result_line(result, spec)))
    return 0 if result["failed"] == 0 else 1
