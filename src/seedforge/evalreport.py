"""Evaluation harness: per-pair metrics, aggregates, and system comparisons.

Takes prediction/reference pairs for one or more systems, scores every pair
with the full metric battery, aggregates means per task and test set, and
compares systems pairwise with Wilcoxon rank-sum tests. Scoring never runs
model inference; predictions arrive as files.

The tokenizer is part of the report, not an ambient default: Thai has no
whitespace word boundaries, so scores are meaningless without knowing how
the text was split. Every report is labeled with the tokenizer mode.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from statistics import mean

from seedforge import metrics
from seedforge.errors import (AlignmentError, CapabilityError,
                              DegenerateTestError, ValidationError)
from seedforge.records import read_jsonl_lines
from seedforge.stats import wilcoxon_rank_sum
from seedforge.tokenizers import Tokenizer, get_tokenizer

logger = logging.getLogger(__name__)

EVAL_TASKS = ("brainstorming", "classification", "closed_qa",
              "creative_writing", "open_qa", "multiple_choice",
              "summarization")
TEST_SETS = ("culture", "general")

# Metric keys in report order. bert_like_f1 is rendered as a percentage;
# chrf is already on a 0..100 scale.
METRIC_KEYS = ("rouge1_f1", "rouge2_f1", "rouge_l_f1", "rouge_lsum_f1",
               "bleu_sentence", "chrf", "meteor", "squad_f1",
               "bert_like_f1")
COMPARISON_METRIC = "bert_like_f1"

_FOOTER = (
    "bert_like_f1 uses the configured embedding provider with greedy "
    "cosine matching, no idf weighting and no baseline rescaling; its "
    "absolute values are not comparable to published model-based scores. "
    "bleu_sentence applies add-one smoothing to higher-order precisions.")


@dataclass(frozen=True)
class EvalPair:
    id: str
    task: str
    test_set: str
    prediction: str
    reference: str

    def __post_init__(self):
        if not self.id:
            raise ValidationError("pair id must be non-empty")
        if self.task not in EVAL_TASKS:
            raise ValidationError(
                f"pair {self.id}: unknown task {self.task!r}")
        if self.test_set not in TEST_SETS:
            raise ValidationError(
                f"pair {self.id}: unknown test set {self.test_set!r}")


def score_pair(pair: EvalPair, gateway, tokenizer: Tokenizer,
               with_bert: bool = True) -> dict:
    """Every metric for one pair. Empty texts are scored, not rejected."""
    pred, ref = pair.prediction, pair.reference
    scores = {
        "rouge1_f1": metrics.rouge_n(pred, ref, 1, tokenizer).f1,
        "rouge2_f1": metrics.rouge_n(pred, ref, 2, tokenizer).f1,
        "rouge_l_f1": metrics.rouge_l(pred, ref, tokenizer).f1,
        "rouge_lsum_f1": metrics.rouge_lsum(pred, ref, tokenizer).f1,
        "bleu_sentence": metrics.bleu([pred], [ref], tokenizer=tokenizer,
                                      smooth=True),
        "chrf": metrics.chrf(pred, ref),
        "meteor": metrics.meteor(pred, ref, tokenizer=tokenizer),
        "squad_f1": metrics.squad_f1(pred, ref),
    }
    if with_bert:
        scores["bert_like_f1"] = metrics.bert_like_score(
            pred, ref, gateway, tokenizer).f1
    return scores


def generation_lengths(pairs: list[EvalPair], tokenizer: Tokenizer) -> dict:
    """Prediction token counts: per pair, mean per (task, test_set), and
    overall mean."""
    per_pair = {p.id: len(tokenizer(p.prediction)) for p in pairs}
    by_partition: dict = {}
    for pair in pairs:
        by_partition.setdefault((pair.task, pair.test_set), []).append(
            per_pair[pair.id])
    return {
        "per_pair": per_pair,
        "by_task_test_set": {
            f"{task}/{test_set}": mean(vals)
            for (task, test_set), vals in sorted(by_partition.items())},
        "overall": mean(per_pair.values()) if per_pair else 0.0,
    }


def _check_alignment(pairs_by_system: dict[str, list[EvalPair]]) -> None:
    if not pairs_by_system:
        raise ValidationError("no systems to evaluate")
    keys = {}
    for system, pairs in pairs_by_system.items():
        if not pairs:
            raise ValidationError(f"system {system!r} has no pairs")
        ids = [p.id for p in pairs]
        if len(set(ids)) != len(ids):
            dupe = next(i for i in ids if ids.count(i) > 1)
            raise ValidationError(
                f"system {system!r} repeats pair id {dupe!r}")
        keys[system] = {(p.id, p.task, p.test_set) for p in pairs}
    systems = list(keys)
    base = keys[systems[0]]
    for system in systems[1:]:
        if keys[system] != base:
            extra = keys[system] - base
            missing = base - keys[system]
            detail = []
            if missing:
                detail.append(f"missing {sorted(missing)[:3]}")
            if extra:
                detail.append(f"unexpected {sorted(extra)[:3]}")
            raise AlignmentError(
                f"system {system!r} is not aligned with "
                f"{systems[0]!r}: " + "; ".join(detail))


def _partition(pairs: list[EvalPair]) -> dict:
    out: dict = {}
    for pair in pairs:
        out.setdefault((pair.task, pair.test_set), []).append(pair)
    return out


def _mean_scores(rows: list[dict], keys: list[str]) -> dict:
    return {key: mean(row[key] for row in rows)
            for key in keys if all(key in row for row in rows)}


def _score_system(pairs: list[EvalPair], gateway, tokenizer: Tokenizer,
                  notes: list[str], system: str) -> dict:
    with_bert = bool(getattr(gateway, "supports_token_embeddings", False))
    if not with_bert:
        note = (f"{system}: embedding provider has no token-level "
                f"embeddings; bert_like_f1 skipped")
        logger.warning(note)
        notes.append(note)
    per_pair = {}
    for pair in pairs:
        try:
            per_pair[pair.id] = score_pair(pair, gateway, tokenizer,
                                           with_bert=with_bert)
        except CapabilityError as exc:
            # Provider claimed token embeddings but refused them.
            with_bert = False
            notes.append(f"{system}: bert_like_f1 skipped ({exc})")
            per_pair = {p.id: score_pair(p, gateway, tokenizer, False)
                        for p in pairs}
            break
    keys = [k for k in METRIC_KEYS if k != "bert_like_f1" or with_bert]
    parts = _partition(pairs)
    by_task_test_set = {
        f"{task}/{test_set}": _mean_scores(
            [per_pair[p.id] for p in group], keys)
        for (task, test_set), group in sorted(parts.items())}
    by_test_set = {}
    for test_set in TEST_SETS:
        group = [p for p in pairs if p.test_set == test_set]
        if group:
            by_test_set[test_set] = _mean_scores(
                [per_pair[p.id] for p in group], keys)
    corpus_bleu = {
        "by_test_set": {
            test_set: metrics.bleu(
                [p.prediction for p in pairs if p.test_set == test_set],
                [p.reference for p in pairs if p.test_set == test_set],
                tokenizer=tokenizer)
            for test_set in TEST_SETS
            if any(p.test_set == test_set for p in pairs)},
        "overall": metrics.bleu([p.prediction for p in pairs],
                                [p.reference for p in pairs],
                                tokenizer=tokenizer),
    }
    return {
        "pair_count": len(pairs),
        "per_pair": per_pair,
        "by_task_test_set": by_task_test_set,
        "by_test_set": by_test_set,
        "overall": _mean_scores(list(per_pair.values()), keys),
        "corpus_bleu": corpus_bleu,
        "lengths": generation_lengths(pairs, tokenizer),
    }


def _compare(pairs_by_system: dict, report: dict, notes: list[str]) -> list:
    """Pairwise Wilcoxon rank-sum tests between systems.

    Per (task, test_set): on the comparison metric's per-pair values.
    Overall: on prediction token lengths, across all tasks at once.
    """
    systems = list(pairs_by_system)
    comparisons = []
    for i, sys_a in enumerate(systems):
        for sys_b in systems[i + 1:]:
            parts = _partition(pairs_by_system[sys_a])
            for (task, test_set), group in sorted(parts.items()):
                ids = [p.id for p in group]
                entry = {"systems": [sys_a, sys_b], "task": task,
                         "test_set": test_set, "metric": COMPARISON_METRIC}
                values = []
                for system in (sys_a, sys_b):
                    rows = report["per_system"][system]["per_pair"]
                    if any(COMPARISON_METRIC not in rows[pid]
                           for pid in ids):
                        values = None
                        break
                    values.append([rows[pid][COMPARISON_METRIC]
                                   for pid in ids])
                if values is None:
                    continue
                comparisons.append(_run_test(entry, *values, notes))
            lengths_a = report["per_system"][sys_a]["lengths"]["per_pair"]
            lengths_b = report["per_system"][sys_b]["lengths"]["per_pair"]
            entry = {"systems": [sys_a, sys_b], "task": None,
                     "test_set": None, "metric": "prediction_length"}
            comparisons.append(_run_test(
                entry, [float(v) for v in lengths_a.values()],
                [float(v) for v in lengths_b.values()], notes))
    return comparisons


def _run_test(entry: dict, a: list[float], b: list[float],
              notes: list[str]) -> dict:
    try:
        result = wilcoxon_rank_sum(a, b)
        entry.update(statistic=result.statistic, p_value=result.p_value,
                     method=result.method)
    except DegenerateTestError as exc:
        entry.update(statistic=None, p_value=None, method="degenerate")
        notes.append(
            f"{entry['systems'][0]} vs {entry['systems'][1]} on "
            f"{entry['metric']}"
            + (f" ({entry['task']}/{entry['test_set']})"
               if entry["task"] else "")
            + f": {exc}")
    return entry


def aggregate_report(pairs_by_system: dict[str, list[EvalPair]], gateway,
                     tokenizer_name: str = "unicode_words") -> dict:
    """Score all systems and build the full comparison report.

    All systems must cover identical (id, task, test_set) pairs; tasks
    absent from the input are listed in the header notes rather than
    rendered as empty rows.
    """
    _check_alignment(pairs_by_system)
    tokenizer = get_tokenizer(tokenizer_name)
    notes: list[str] = []
    first = next(iter(pairs_by_system.values()))
    present = {p.task for p in first}
    missing = [t for t in EVAL_TASKS if t not in present]
    if missing:
        notes.append("tasks absent from input: " + ", ".join(missing))
    report: dict = {
        "tokenizer": tokenizer_name,
        "systems": list(pairs_by_system),
        "per_system": {},
        "notes": notes,
        "footer": _FOOTER,
    }
    for system, pairs in pairs_by_system.items():
        report["per_system"][system] = _score_system(
            pairs, gateway, tokenizer, notes, system)
    report["comparisons"] = _compare(pairs_by_system, report, notes)
    return report


# -- file loading -------------------------------------------------------------

def _load_jsonl(path: str, required: tuple[str, ...]) -> list[dict]:
    rows = []
    for line_no, row in read_jsonl_lines(path):
        if not isinstance(row, dict):
            raise ValidationError(
                f"{path} line {line_no}: row is not an object")
        for key in required:
            if key not in row:
                raise ValidationError(
                    f"{path} line {line_no}: missing {key!r}")
            if not isinstance(row[key], str):
                raise ValidationError(
                    f"{path} line {line_no}: {key!r} must be a string")
        rows.append(row)
    if not rows:
        raise ValidationError(f"{path}: no rows")
    return rows


def load_references(path: str) -> list[dict]:
    """Rows of {id, task, test_set, reference}."""
    return _load_jsonl(path, ("id", "task", "test_set", "reference"))


def load_predictions(path: str) -> dict[str, str]:
    """Rows of {id, prediction} -> id-keyed map."""
    rows = _load_jsonl(path, ("id", "prediction"))
    out = {}
    for row in rows:
        if row["id"] in out:
            raise ValidationError(
                f"{path}: duplicate prediction id {row['id']!r}")
        out[row["id"]] = row["prediction"]
    return out


def join_pairs(references: list[dict],
               predictions: dict[str, str]) -> list[EvalPair]:
    """Match predictions to references by id; any gap is an error."""
    ref_ids = {r["id"] for r in references}
    missing = sorted(ref_ids - set(predictions))
    if missing:
        raise AlignmentError(
            f"predictions missing for ids {missing[:5]}"
            + (" ..." if len(missing) > 5 else ""))
    extra = sorted(set(predictions) - ref_ids)
    if extra:
        raise AlignmentError(
            f"predictions for unknown ids {extra[:5]}"
            + (" ..." if len(extra) > 5 else ""))
    return [EvalPair(id=r["id"], task=r["task"], test_set=r["test_set"],
                     prediction=predictions[r["id"]],
                     reference=r["reference"])
            for r in references]


# -- text rendering -----------------------------------------------------------

def _fmt(metric: str, value: float | None) -> str:
    if value is None:
        return "-"
    if metric == "bert_like_f1":
        return f"{value * 100:.2f}"
    if metric == "chrf":
        return f"{value:.2f}"
    return f"{value:.4f}"


def _table(title: str, row_labels: list[str], col_labels: list[str],
           cell) -> list[str]:
    """Aligned fixed-width table; cell(row, col) -> str."""
    grid = [[cell(r, c) for c in col_labels] for r in row_labels]
    label_w = max(len(x) for x in row_labels + [title])
    widths = [max(len(col_labels[j]), max((len(row[j]) for row in grid),
                                          default=0))
              for j in range(len(col_labels))]
    lines = [title]
    header = " | ".join([" " * label_w]
                        + [col_labels[j].rjust(widths[j])
                           for j in range(len(col_labels))])
    lines.append(header)
    lines.append("-" * len(header))
    for label, row in zip(row_labels, grid):
        lines.append(" | ".join(
            [label.ljust(label_w)]
            + [row[j].rjust(widths[j]) for j in range(len(col_labels))]))
    return lines


def render_report(report: dict) -> str:
    """Plain-text tables: one block per test set plus overall means and
    the comparison list."""
    systems = report["systems"]
    lines = [f"Evaluation report (tokenizer: {report['tokenizer']})", ""]
    for note in report["notes"]:
        lines.append(f"note: {note}")
    if report["notes"]:
        lines.append("")
    for test_set in TEST_SETS:
        have = [s for s in systems
                if test_set in report["per_system"][s]["by_test_set"]]
        if not have:
            continue

        def cell(metric: str, system: str, _ts=test_set) -> str:
            values = report["per_system"][system]["by_test_set"][_ts]
            return _fmt(metric, values.get(metric))

        lines.extend(_table(f"[{test_set} test set]", list(METRIC_KEYS),
                            have, cell))
        lines.append("")

    def overall_cell(metric: str, system: str) -> str:
        return _fmt(metric, report["per_system"][system]["overall"]
                    .get(metric))

    lines.extend(_table("[all test sets]", list(METRIC_KEYS), systems,
                        overall_cell))
    lines.append("")

    def length_cell(label: str, system: str) -> str:
        return f"{report['per_system'][system]['lengths']['overall']:.2f}"

    lines.extend(_table("[mean prediction length]", ["tokens"], systems,
                        length_cell))
    lines.append("")
    if report.get("comparisons"):
        lines.append("[pairwise comparisons, Wilcoxon rank-sum]")
        for comp in report["comparisons"]:
            where = (f"{comp['task']}/{comp['test_set']}"
                     if comp["task"] else "all tasks")
            if comp["p_value"] is None:
                lines.append(
                    f"  {comp['systems'][0]} vs {comp['systems'][1]} "
                    f"[{comp['metric']}, {where}]: degenerate (no variance)")
            else:
                lines.append(
                    f"  {comp['systems'][0]} vs {comp['systems'][1]} "
                    f"[{comp['metric']}, {where}]: W={comp['statistic']:.3f}"
                    f" p={comp['p_value']:.5f} ({comp['method']})")
        lines.append("")
    lines.append(report["footer"])
    lines.append("")
    return "\n".join(lines)
