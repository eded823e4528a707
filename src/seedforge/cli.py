"""Command-line surface.

Subcommands mirror the pipeline stages so each can run standalone against
files, plus `run` for the whole checkpointed pipeline, `ablate` for the
property-controlled variants, and `eval`/`report` for scoring. Credentials
come only from environment variables named in the config; no secret ever
appears on the command line.

Exit codes: 0 success, 2 configuration error, 3 provider error, 4 build
shortfall, 1 anything else.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from seedforge import ablations
from seedforge.config import (PipelineConfig, default_config, load_config,
                              with_overrides)
from seedforge.errors import (BuildError, ConfigError, ProviderError,
                              SeedforgeError)
from seedforge.evalreport import (aggregate_report, join_pairs,
                                  load_predictions, load_references,
                                  render_report)
from seedforge.instructions import GENERATION_TASKS
from seedforge.pipeline import (MANIFEST_FILE, acquire_contexts,
                                build_gateway, context_policy, dedup_records,
                                epoch_topics, generate_records, read_contexts,
                                read_topics, run_pipeline, task_settings,
                                write_contexts, write_topics)
from seedforge.records import (read_json, read_records, write_json,
                               write_records)
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
                                build_gateway(config), config.run_seed,
                                context_policy(config),
                                config.budget_max_concurrent)
    write_contexts(contexts, args.out)
    print(f"{len(contexts)} contexts -> {args.out}")
    return 0


def cmd_generate(args) -> int:
    config = _load_cfg(args)
    tasks = tuple(args.tasks.split(",")) if args.tasks else GENERATION_TASKS
    unknown = set(tasks) - set(GENERATION_TASKS)
    if unknown:
        raise ConfigError(f"unknown tasks: {', '.join(sorted(unknown))}")
    records, failures = generate_records(
        read_contexts(args.contexts), build_gateway(config),
        config.run_seed, task_settings(config), config.budget_max_concurrent,
        tasks)
    write_records(records, args.out)
    print(f"{len(records)} records -> {args.out}"
          + (f" ({len(failures)} task failures skipped)" if failures
             else ""))
    return 0


def cmd_dedup(args) -> int:
    config = _load_cfg(args)
    result = dedup_records(read_records(args.infile), build_gateway(config),
                           config)
    write_records(result.kept, args.out)
    if args.removals:
        write_json(args.removals, [
            {"record_id": r.record_id, "nearest_id": r.nearest_id,
             "similarity": r.similarity} for r in result.removed])
    print(f"{len(result.kept)} kept, {len(result.removed)} removed "
          f"-> {args.out}")
    return 0


def cmd_ablate(args) -> int:
    config = _load_cfg(args)
    gateway = build_gateway(config)
    variant = _VARIANT_BY_FLAG[args.variant]
    if variant in ablations.GENERATED_VARIANTS:
        manifest = ablations.build_generated(
            variant, gateway, config.run_seed, config.dataset_size, config,
            workdir_parent=os.path.dirname(os.path.abspath(args.out)))
    elif variant == ablations.VARIANT_CULTURE_ONLY:
        if not args.source:
            raise ConfigError(
                "--variant culture requires --source (a full-build "
                "manifest to sample from)")
        full = ablations.read_manifest(args.source)
        manifest = ablations.build_culture_only(
            full, gateway, config.run_seed, config,
            sample_count=_sample_count(config))
    else:
        if not args.external:
            raise ConfigError(
                "--variant none requires --external (a prompt/response "
                "JSONL corpus)")
        corpus = ablations.load_external_corpus(
            args.external, pivot=config.run_pivot_language)
        manifest = ablations.build_no_properties(
            corpus, gateway, config.run_seed, config,
            sample_count=_sample_count(config))
    digest = ablations.write_manifest(manifest, args.out,
                                      config_echo=config.effective())
    print(f"{len(manifest.records)} records ({variant}) -> {args.out}")
    print(f"sha256 {digest}")
    return 0


def _sample_count(config: PipelineConfig) -> int:
    size, fanout = config.dataset_size, config.paraphrase_count + 1
    if size % fanout != 0:
        raise ConfigError(
            f"size {size} is not a multiple of the paraphrase fan-out "
            f"{fanout}")
    return size // fanout


def cmd_eval(args) -> int:
    config = _load_cfg(args)
    gateway = build_gateway(config)
    references = load_references(args.refs)
    pairs_by_system = {}
    for pred_path in args.pred:
        name = os.path.splitext(os.path.basename(pred_path))[0]
        if name in pairs_by_system:
            raise ConfigError(f"duplicate system name {name!r}; rename "
                              f"one prediction file")
        pairs_by_system[name] = join_pairs(references,
                                           load_predictions(pred_path))
    report = aggregate_report(pairs_by_system, gateway,
                              tokenizer_name=args.tokenizer)
    write_json(args.out, report)
    print(f"report -> {args.out}")
    return 0


def cmd_report(args) -> int:
    text = render_report(read_json(args.infile))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"rendered -> {args.out}")
    else:
        print(text)
    return 0


def cmd_run(args) -> int:
    config = _load_cfg(args)
    manifest = run_pipeline(config, args.workdir)
    path = os.path.join(args.workdir, MANIFEST_FILE)
    print(f"{len(manifest.records)} records -> {path}")
    print(f"sha256 {ablations.manifest_hash(path)}")
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
    except SeedforgeError as exc:
        stage = getattr(exc, "stage", None)
        if stage:
            print(f"error in stage {stage}: {exc}", file=sys.stderr)
            if args.command == "run":  # ablate's workdir is temporary
                print("completed stages are checkpointed; rerun the same "
                      "command to resume", file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
