"""The four workloads and the session that runs CLI commands for them.

Every command goes through `seedforge.cli.main(argv)` in this process.
A workload writes its inputs once in `setup`, then `iteration` runs one
pass of its commands and checks their outputs (untimed). Sizes are
fields, so tests can run the same code at tiny sizes.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

from seedforge import cli, pipeline

from bench import checks, inputs

MAX_CONCURRENT = 2
EMBED_DIM = 256
# One QA pair more per context than the pipeline plans for when it sizes an
# extension epoch (5 pairs + 3 other tasks = 8 records per topic). The
# extension then overshoots its deficit, so every seed runs the same number
# of epochs; with the default 5, seeds run 3 or 4 epochs and build time
# varies by a quarter from seed to seed.
QA_PAIRS = 6
# Mock records never pass cosine 0.95, the default; at 0.8 about 5% are
# removed, so dedup's removal path runs.
THRESHOLD = 0.8
BUILD_FLAGS = checks.VARIANT_FLAGS["full"]
# The environment variables `bench/run.py` sets to pin BLAS to one thread.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_PROBE_TIMEOUT = 90
# Warm rebuilds per cold pass in build-cached. A cold pass takes twice as
# long as a warm one, so with one warm pass a run held only two or three
# samples of the gated warm throughput.
WARM_PASSES = 2


@dataclass
class Op:
    """One timed CLI command.

    primary: counts toward items_per_s. dedup: the command runs the dedup
    stage, so its records count as dedup output.
    """
    kind: str
    seconds: float
    error: str | None
    stats: dict
    primary: bool = False
    dedup: bool = False
    items: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.problems


@dataclass
class Iteration:
    ops: list[Op]
    cache_bytes: int = 0


def add_stats(total: dict, snap: dict) -> dict:
    for key in ("provider_calls", "cache_hits"):
        bucket = total.setdefault(key, {})
        for op, n in snap.get(key, {}).items():
            bucket[op] = bucket.get(op, 0) + n
    for key in ("retries", "request_chars"):
        total[key] = total.get(key, 0) + snap.get(key, 0)
    return total


def provider_calls(stats: dict) -> int:
    return sum(stats.get("provider_calls", {}).values())


class Session:
    """Runs CLI commands, timing each and collecting the gateways it
    builds so their request counters can be read afterwards."""

    def __init__(self):
        self.tracer = None
        self._gateways: list = []
        self._restore = []
        for module in (cli, pipeline):
            original = module.build_gateway
            self._restore.append((module, original))
            module.build_gateway = self._capturing(original)

    def _capturing(self, build_gateway):
        def capture(config):
            gateway = build_gateway(config)
            self._gateways.append(gateway)
            return gateway
        return capture

    def close(self) -> None:
        for module, original in self._restore:
            module.build_gateway = original
        self._restore.clear()

    def cli(self, kind: str, argv: list[str], **flags) -> Op:
        """Run `seedforge <argv>` once, timed. A full garbage collection
        first, not timed, starts every command from the same heap state,
        as a fresh CLI process would."""
        gc.collect()
        first = len(self._gateways)
        span = self.tracer.open(f"op.{kind}") if self.tracer else None
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                error = f"exit code {code}"
        except Exception:  # a command that raises is a failed op
            error = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
        if span is not None:
            self.tracer.close(span)
        stats: dict = {}
        for gateway in self._gateways[first:]:
            add_stats(stats, gateway.stats.snapshot())
        del self._gateways[first:]
        return Op(kind=kind, seconds=seconds, error=error, stats=stats,
                  **flags)


def write_config(path: str, **values) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        for key, value in values.items():
            handle.write(f"{key} = {json.dumps(value)}\n")
    return path


def _fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    return path


def dir_bytes(path: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path)
               if entry.is_file())


class Workload:
    name = ""
    unit = "records"   # what items_per_s counts
    distinct_token_share = 0.0

    def setup(self, seed: int, directory: str) -> None:
        raise NotImplementedError

    def iteration(self, session: Session) -> Iteration:
        raise NotImplementedError

    def default_blas_build(self, root: str) -> tuple[Op, dict] | None:
        return None


@dataclass
class Build(Workload):
    """`seedforge run` to `size` records, then one identical run on the
    same workdir (every stage skipped). With `cached`, a cold pass fills a
    fresh response cache and WARM_PASSES warm passes each rebuild from it
    into a fresh workdir; the warm passes are the timed throughput. The cold pass's
    thousands of small cache-file writes slow down as the VM's disk budget
    drains over consecutive runs, so it is only printed."""
    size: int = 5000
    cultural: int = 250
    general: int = 187
    cached: bool = False

    def __post_init__(self):
        self.name = "build-cached" if self.cached else "build"
        self.reference: tuple[str, str] | None = None
        self.digests: dict[str, str] = {}

    def setup(self, seed: int, directory: str) -> None:
        self.dir = directory
        self.cache = os.path.join(directory, "cache")
        extra = {"cache.dir": self.cache} if self.cached else {}
        self.config = write_config(
            os.path.join(directory, "build.cfg"),
            **{"run.seed": seed, "dataset.size": self.size,
               "topics.cultural": self.cultural,
               "topics.general": self.general,
               "dedup.threshold": THRESHOLD, "tasks.qa_pairs": QA_PAIRS,
               "budget.max_concurrent": MAX_CONCURRENT,
               "provider.embed_dim": EMBED_DIM}, **extra)

    def _run(self, session, kind, workdir, **flags) -> Op:
        op = session.cli(kind, ["run", "--config", self.config,
                                "--workdir", workdir], **flags)
        if op.error is None:
            self._check(op, os.path.join(workdir, pipeline.MANIFEST_FILE))
        return op

    def _check(self, op: Op, manifest: str) -> None:
        digests = checks.manifest_digests(manifest)
        if self.reference is None:
            op.problems = checks.check_manifest(
                manifest, self.size, BUILD_FLAGS, THRESHOLD, EMBED_DIM)
            if not op.problems:
                self.reference = digests
                self.digests[self.name] = digests[0]
        elif digests != self.reference:
            op.problems.append(f"{op.kind}: manifest bytes differ from the "
                               f"first build of this run")
        op.items = self.size

    def iteration(self, session: Session) -> Iteration:
        if not self.cached:
            workdir = _fresh(os.path.join(self.dir, "work"))
            return Iteration([
                self._run(session, "run.cold", workdir, primary=True,
                          dedup=True),
                self._run(session, "run.rerun", workdir)])
        _fresh(self.cache)
        cold = self._run(session, "run.cold",
                         _fresh(os.path.join(self.dir, "cold")),
                         dedup=True)
        cache_bytes = dir_bytes(self.cache) if cold.error is None else 0
        ops = [cold]
        for _ in range(WARM_PASSES):
            warm = self._run(session, "run.warm",
                             _fresh(os.path.join(self.dir, "warm")),
                             primary=True, dedup=True)
            if warm.error is None and provider_calls(warm.stats):
                warm.problems.append(
                    f"run.warm: {provider_calls(warm.stats)} provider calls "
                    f"with a filled cache, expected 0")
            ops.append(warm)
        return Iteration(ops, cache_bytes=cache_bytes)

    def default_blas_build(self, root: str) -> tuple[Op, dict] | None:
        """One more cold `seedforge run`, in a child interpreter started
        without the single-thread BLAS pin, so with numpy's default BLAS
        threads. Its manifest gets the full check. Whether its bytes equal
        this run's first build is returned, not checked: for some seeds
        (seed 1 on a 2-core VM) they differ, because a few records whose
        cosine lies at the dedup threshold flip with the BLAS summation
        order. Returns the op and {dedup_s, same_bytes}.
        `build` only: build-cached runs the same dedup at a smaller size."""
        if self.cached:
            return None
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        env["PYTHONPATH"] = os.pathsep.join(
            [root, os.path.join(root, "src")])
        workdir = _fresh(os.path.join(self.dir, "default-blas"))
        error, seconds, dedup_s = None, 0.0, 0.0
        try:
            out = subprocess.run(
                [sys.executable, "-m", "bench.blas_probe", self.config,
                 workdir], cwd=root, env=env, capture_output=True,
                text=True, timeout=BLAS_PROBE_TIMEOUT)
            if out.returncode != 0:
                error = f"exit code {out.returncode}: {out.stderr[-500:]}"
            else:
                times = json.loads(out.stdout.splitlines()[-1])
                seconds, dedup_s = times["seconds"], times["dedup_s"]
        except subprocess.TimeoutExpired:
            error = f"no result within {BLAS_PROBE_TIMEOUT} s"
        op = Op(kind="run.default_blas", seconds=seconds, error=error,
                stats={})
        same_bytes = False
        if error is None:
            manifest = os.path.join(workdir, pipeline.MANIFEST_FILE)
            op.problems = checks.check_manifest(
                manifest, self.size, BUILD_FLAGS, THRESHOLD, EMBED_DIM)
            same_bytes = checks.manifest_digests(manifest) == self.reference
        return op, {"dedup_s": dedup_s, "same_bytes": same_bytes}


# Share of reference tokens each system perturbs; the file name is the
# system's name in the report.
RATES = {"system_a": 0.2, "system_b": 0.6}


@dataclass
class Eval(Workload):
    """`seedforge eval` on generated pairs for two systems, then
    `seedforge report` on the saved report."""
    pairs: int = 100
    vocabulary: int = 5000

    name = "eval"
    unit = "pairs"

    def __post_init__(self):
        self.first_report: bytes | None = None
        self.first_text: str | None = None
        self.digests: dict[str, str] = {}

    def setup(self, seed: int, directory: str) -> None:
        self.dir = directory
        files = inputs.eval_inputs(seed, self.pairs, RATES, self.vocabulary,
                                   directory)
        self.refs = files["references"]
        self.predictions = list(files["predictions"].values())
        self.distinct_token_share = files["distinct_token_share"]
        self.config = write_config(
            os.path.join(directory, "eval.cfg"),
            **{"budget.max_concurrent": MAX_CONCURRENT,
               "provider.embed_dim": EMBED_DIM})

    def iteration(self, session: Session) -> Iteration:
        report = os.path.join(self.dir, "report.json")
        argv = ["eval", "--config", self.config, "--refs", self.refs,
                "--out", report]
        for path in self.predictions:
            argv += ["--pred", path]
        op = session.cli("eval", argv, primary=True,
                         items=self.pairs * len(RATES))
        ops = [op]
        if op.error is not None:
            return Iteration(ops)
        self._check_report(op, report)
        text_path = os.path.join(self.dir, "report.txt")
        render = session.cli("report", ["report", "--in", report,
                                        "--out", text_path])
        if render.error is None:
            with open(text_path, encoding="utf-8") as handle:
                text = handle.read()
            if self.first_text is None:
                self.first_text = text
            if not text.strip() or text != self.first_text:
                render.problems.append(
                    "report: rendered text is empty or differs from the "
                    "first rendering of this run")
        ops.append(render)
        return Iteration(ops)

    def _check_report(self, op: Op, path: str) -> None:
        with open(path, "rb") as handle:
            blob = handle.read()
        op.problems = checks.check_report(
            json.loads(blob), list(RATES), self.pairs, better="system_a",
            worse="system_b")
        if self.first_report is None:
            self.first_report = blob
            self.digests["report"] = checks.file_sha256(path)
        elif blob != self.first_report:
            op.problems.append("eval: report differs from the first "
                               "report of this run")


ABLATION_ORDER = ("full", "fluency", "diversity", "culture", "none")


@dataclass
class Ablate(Workload):
    """`seedforge ablate` for all five variants at `size` records.
    `culture` samples this iteration's `full` manifest; `none` adapts a
    generated external corpus of `corpus_rows` rows."""
    size: int = 1000
    cultural: int = 50
    general: int = 37
    corpus_rows: int = 400

    name = "ablate"

    def __post_init__(self):
        self.digests: dict[str, str] = {}

    def setup(self, seed: int, directory: str) -> None:
        self.dir = directory
        self.corpus = os.path.join(directory, "external.jsonl")
        inputs.external_corpus(seed, self.corpus_rows, self.corpus)
        self.config = write_config(
            os.path.join(directory, "ablate.cfg"),
            **{"run.seed": seed, "topics.cultural": self.cultural,
               "topics.general": self.general,
               "dedup.threshold": THRESHOLD, "tasks.qa_pairs": QA_PAIRS,
               "budget.max_concurrent": MAX_CONCURRENT,
               "provider.embed_dim": EMBED_DIM})

    def iteration(self, session: Session) -> Iteration:
        out = {v: os.path.join(self.dir, f"{v}.jsonl")
               for v in ABLATION_ORDER}
        ops = []
        for variant in ABLATION_ORDER:
            argv = ["ablate", "--config", self.config, "--variant", variant,
                    "--size", str(self.size), "--out", out[variant]]
            if variant == "culture":
                argv += ["--source", out["full"]]
            elif variant == "none":
                argv += ["--external", self.corpus]
            op = session.cli(f"ablate.{variant}", argv, primary=True,
                             dedup=variant in ("full", "diversity"))
            if op.error is None:
                self._check(op, variant, out[variant])
            ops.append(op)
        return Iteration(ops)

    def _check(self, op: Op, variant: str, path: str) -> None:
        op.problems = checks.check_manifest(path, self.size,
                                            checks.VARIANT_FLAGS[variant])
        digest = checks.file_sha256(path)
        first = self.digests.setdefault(variant, digest)
        if digest != first:
            op.problems.append(f"ablate.{variant}: manifest differs from "
                               f"the first build of this run")
        op.items = self.size


WORKLOADS = {
    "build": lambda: Build(),
    "build-cached": lambda: Build(size=2000, cached=True),
    "eval": lambda: Eval(),
    "ablate": lambda: Ablate(),
}
