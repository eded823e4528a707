"""Command-line surface.

Subcommands mirror the pipeline stages so each can run standalone against
files, plus `run` for the whole checkpointed pipeline, `ablate` for the
property-controlled variants, and `eval`/`report` for scoring. `ablate`
runs a generated variant through `run_pipeline`, as `run` does, in a
temporary workdir beside --out, and a sampled one through
`ablations.sampled_manifest`. Credentials come only from environment
variables named in the config; no secret ever appears on the command
line.

Exit codes: 0 success, 2 configuration error, 3 provider error, 4 build
shortfall, 1 anything else.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import tempfile

from seedforge import ablations
from seedforge.config import (PipelineConfig, default_config, load_config,
                              with_overrides)
from seedforge.contexts import acquire_contexts
from seedforge.dedup import dedup_filter, write_removals
from seedforge.errors import (AlignmentError, BuildError, ConfigError,
                              ProviderError, SeedforgeError)
from seedforge.evalreport import (aggregate_report, load_predictions,
                                  load_references, render_report,
                                  utf8_encodable)
from seedforge.instructions import GENERATION_TASKS, generate_records
from seedforge.pipeline import (MANIFEST_FILE, build_gateway, epoch_topics,
                                read_contexts, read_topics, run_pipeline,
                                write_contexts, write_topics)
from seedforge.records import (parsing, read_json, read_records,
                               write_json, write_records)
from seedforge.tokenizers import TOKENIZERS

logger = logging.getLogger(__name__)

_VARIANT_BY_FLAG = {
    "full": ablations.VARIANT_FULL,
    "fluency": ablations.VARIANT_FLUENCY_ONLY,
    "diversity": ablations.VARIANT_DIVERSITY_ONLY,
    "culture": ablations.VARIANT_CULTURE_ONLY,
    "none": ablations.VARIANT_NO_PROPERTIES,
}

# Command-line options that override a config key.
_OVERRIDES = {"seed": "run.seed", "size": "dataset.size",
              "general": "topics.general", "cultural": "topics.cultural",
              "p_wiki": "context.p_wiki", "threshold": "dedup.threshold"}


def _load_cfg(args) -> PipelineConfig:
    """The config file (or the defaults) with the command's overrides,
    checked like config-file values."""
    path = getattr(args, "config", None)
    config = load_config(path) if path else default_config()
    overrides = {key: getattr(args, name) for name, key in _OVERRIDES.items()
                 if getattr(args, name, None) is not None}
    return with_overrides(config, overrides, where="command line: ")


def cmd_topics(args) -> int:
    config = _load_cfg(args)
    topics = epoch_topics(config, build_gateway(config))
    write_topics(topics, args.out)
    print(f"{len(topics)} topics -> {args.out}")
    return 0


def cmd_contexts(args) -> int:
    config = _load_cfg(args)
    contexts = acquire_contexts(read_topics(args.topics),
                                build_gateway(config), config)
    write_contexts(contexts, args.out)
    print(f"{len(contexts)} contexts -> {args.out}")
    return 0


def cmd_generate(args) -> int:
    config = _load_cfg(args)
    tasks = tuple(args.tasks.split(",")) if args.tasks else GENERATION_TASKS
    unknown = set(tasks) - set(GENERATION_TASKS)
    if unknown:
        raise ConfigError(f"unknown tasks: {', '.join(sorted(unknown))}")
    if len(set(tasks)) != len(tasks):
        raise ConfigError(f"repeated task in --tasks {args.tasks}")
    records, failures = generate_records(
        read_contexts(args.contexts), build_gateway(config), config, tasks)
    write_records(records, args.out)
    print(f"{len(records)} records -> {args.out}"
          + (f" ({len(failures)} task failures skipped)" if failures
             else ""))
    return 0


def cmd_dedup(args) -> int:
    config = _load_cfg(args)
    # The raw embeddings are spooled to a file, as in a pipeline run, and
    # dropped with it.
    with tempfile.TemporaryDirectory() as tmp:
        result = dedup_filter(read_records(args.infile),
                              build_gateway(config),
                              os.path.join(tmp, "vectors.npy"),
                              threshold=config.dedup_threshold)
    write_records(result.kept, args.out)
    if args.removals:
        write_removals(result.removed, args.removals)
    print(f"{len(result.kept)} kept, {len(result.removed)} removed "
          f"-> {args.out}")
    return 0


def cmd_ablate(args) -> int:
    config = _load_cfg(args)
    variant = _VARIANT_BY_FLAG[args.variant]
    reads = ablations.VARIANT_TABLE[variant].source
    for flag, kind in (("source", ablations.DERIVED),
                       ("external", ablations.EXTERNAL)):
        if getattr(args, flag) and reads != kind:
            raise ConfigError(f"--variant {args.variant} does not read "
                              f"--{flag}")
    if reads == ablations.GENERATED:
        # The stages run in a temporary workdir beside --out; its
        # manifest files are moved onto --out.
        with tempfile.TemporaryDirectory(
                prefix=".seedforge-",
                dir=os.path.dirname(os.path.abspath(args.out))) as workdir:
            digest = run_pipeline(config, workdir, variant=variant)
            built = os.path.join(workdir, MANIFEST_FILE)
            os.replace(built, args.out)
            os.replace(built + ".meta.json", args.out + ".meta.json")
    else:
        source = None
        if args.source:
            source = ablations.read_manifest(args.source)
        elif args.external:
            source = ablations.load_external_corpus(
                args.external, pivot=config.run_pivot_language)
        manifest = ablations.sampled_manifest(variant, source,
                                              build_gateway(config), config)
        digest = ablations.write_manifest(manifest, args.out,
                                          config_echo=config.effective())
    print(f"{config.dataset_size} records ({variant}) -> {args.out}")
    print(f"sha256 {digest}")
    return 0


def cmd_eval(args) -> int:
    config = _load_cfg(args)
    gateway = build_gateway(config)
    references = load_references(args.refs)
    predictions, files = {}, {}
    for pred_path in args.pred:
        name = os.path.splitext(os.path.basename(pred_path))[0]
        if not utf8_encodable(name):
            raise ConfigError(f"prediction file {pred_path!r}: its name, "
                              f"the system name, is not valid UTF-8; "
                              f"rename the file")
        if name in predictions:
            raise ConfigError(f"duplicate system name {name!r}; rename "
                              f"one prediction file")
        predictions[name] = load_predictions(pred_path)
        files[name] = pred_path
    try:
        report = aggregate_report(references, predictions, gateway,
                                  tokenizer_name=args.tokenizer)
    except AlignmentError as exc:
        raise AlignmentError(f"{files[exc.system]}: {exc}",
                             exc.system) from None
    write_json(args.out, report)
    print(f"report -> {args.out}")
    return 0


def cmd_report(args) -> int:
    report = read_json(args.infile)
    with parsing(args.infile, "an eval report"):
        text = render_report(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"rendered -> {args.out}")
    else:
        print(text)
    return 0


def cmd_run(args) -> int:
    config = _load_cfg(args)
    digest = run_pipeline(config, args.workdir)
    path = os.path.join(args.workdir, MANIFEST_FILE)
    print(f"{config.dataset_size} records -> {path}")
    print(f"sha256 {digest}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seedforge",
        description="Synthesize and evaluate instruction-tuning datasets "
                    "for a low-resource target language.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat dotted-key config file")
        p.add_argument("--seed", type=int, help="override run.seed")

    p = sub.add_parser("topics", help="generate the topic set")
    common(p)
    p.add_argument("--general", type=int)
    p.add_argument("--cultural", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_topics)

    p = sub.add_parser("contexts", help="acquire one context per topic")
    common(p)
    p.add_argument("--topics", required=True, help="topics JSON file")
    p.add_argument("--p-wiki", dest="p_wiki", type=float,
                   help="probability of sourcing from the wiki")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_contexts)

    p = sub.add_parser("generate", help="generate instruction records")
    common(p)
    p.add_argument("--contexts", required=True, help="contexts JSONL file")
    p.add_argument("--tasks", help="comma-separated subset of "
                   + ",".join(GENERATION_TASKS))
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("dedup", help="semantic near-duplicate filtering")
    common(p)
    p.add_argument("--in", dest="infile", required=True,
                   help="records JSONL file")
    p.add_argument("--threshold", type=float)
    p.add_argument("--out", required=True)
    p.add_argument("--removals", help="also write removal pairs here")
    p.set_defaults(fn=cmd_dedup)

    p = sub.add_parser("ablate", help="build a property-controlled variant")
    common(p)
    p.add_argument("--variant", required=True,
                   choices=sorted(_VARIANT_BY_FLAG))
    p.add_argument("--size", type=int, help="target record count")
    p.add_argument("--source", help="full-build manifest "
                   "(required for --variant culture)")
    p.add_argument("--external", help="external corpus JSONL "
                   "(required for --variant none)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("eval", help="score predictions against references")
    p.add_argument("--config", help="config (gateway for bert_like_f1)")
    p.add_argument("--pred", action="append", required=True,
                   help="predictions JSONL; repeat per system")
    p.add_argument("--refs", required=True, help="references JSONL")
    p.add_argument("--tokenizer", default="unicode_words",
                   choices=sorted(TOKENIZERS))
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("report", help="render a report JSON as text")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("run", help="full checkpointed pipeline")
    p.add_argument("--config", help="flat dotted-key config file")
    p.add_argument("--workdir", required=True)
    p.set_defaults(fn=cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        # A missing output directory fails before any provider call.
        for path in filter(None, (getattr(args, "out", None),
                                  getattr(args, "removals", None))):
            folder = os.path.dirname(os.path.abspath(path))
            if not os.path.isdir(folder):
                raise ConfigError(f"output directory {folder} does not "
                                  f"exist")
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ProviderError as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return 3
    except BuildError as exc:
        print(f"build error: {exc}", file=sys.stderr)
        if exc.achieved is not None:
            print(f"achieved {exc.achieved} records", file=sys.stderr)
        return 4
    except (SeedforgeError, OSError) as exc:
        stage = getattr(exc, "stage", None)
        if stage:
            print(f"error in stage {stage}: {exc}", file=sys.stderr)
            if args.command == "run":  # ablate's workdir is temporary
                print("completed stages are checkpointed; rerun the same "
                      "command to resume", file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
