"""Evaluation harness: per-pair metrics, aggregates, and system comparisons.

Takes reference rows and one id-keyed prediction map per system, joins
every system to the references by id in one place (join_pairs, called
from aggregate_report), scores every pair with the full metric battery,
aggregates means per task and test set, and compares systems pairwise with
Wilcoxon rank-sum tests. Scoring never runs model inference; predictions
arrive as files.

Each text is tokenized once per report, and each distinct token is
embedded and normalised to unit length once per report: bert_like_score
only looks its rows up. Each system's n-gram overlaps are counted once,
in three tables (report tokens, chrf's characters, squad_f1's tokens),
and ROUGE-1/2, both BLEUs, chrF and the token F1 are formulas of each
pair's rows; corpus BLEU sums the rows of its pairs.

The tokenizer is part of the report, not an ambient default: Thai has no
whitespace word boundaries, so scores are meaningless without knowing how
the text was split. Every report is labeled with the tokenizer mode.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from statistics import mean

import numpy as np

from seedforge import metrics
from seedforge.errors import (AlignmentError, DegenerateTestError,
                              ValidationError)
from seedforge.records import read_jsonl_lines
from seedforge.stats import wilcoxon_rank_sum
from seedforge.tokenizers import Tokenizer, get_tokenizer

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


def _one_token_line(text: str, tokenizer: Tokenizer) -> bool:
    """Whether rouge_lsum sees text as rouge_l does: at most one line
    yields tokens, and together they are the tokens of the whole text."""
    lines = metrics._line_tokens(text, tokenizer)
    return len(lines) <= 1 and (lines[0] if lines else []) == tokenizer(text)


def score_pair(pair: EvalPair, unit_rows, tokenizer: Tokenizer,
               counts: tuple[metrics.Counts, ...]) -> dict:
    """Every metric for one pair. Empty texts are scored, not rejected.
    unit_rows maps tokens to their unit embedding rows (a _TokenVectors);
    counts are the pair's rows of the tables _overlap_rows builds.

    When neither side has more than one line with tokens, rouge_lsum's
    hits are rouge_l's LCS over the same denominators, so rouge_l's score
    is reused instead of recomputed."""
    pred, ref = pair.prediction, pair.reference
    tokens, chars, squad = counts
    rouge_l = metrics.rouge_l(pred, ref, tokenizer).f1
    if _one_token_line(pred, tokenizer) and _one_token_line(ref, tokenizer):
        rouge_lsum = rouge_l
    else:
        rouge_lsum = metrics.rouge_lsum(pred, ref, tokenizer).f1
    return {
        "rouge1_f1": metrics.rouge_n_score(tokens, 1).f1,
        "rouge2_f1": metrics.rouge_n_score(tokens, 2).f1,
        "rouge_l_f1": rouge_l,
        "rouge_lsum_f1": rouge_lsum,
        "bleu_sentence": metrics.bleu_score([tokens], smooth=True),
        "chrf": metrics.chrf_score(chars),
        "meteor": metrics.meteor(pred, ref, tokenizer=tokenizer),
        "squad_f1": metrics.squad_f1_score(squad),
        "bert_like_f1": metrics.bert_like_score(pred, ref, unit_rows,
                                                tokenizer).f1,
    }


def _overlap_rows(pairs: list[EvalPair], splits: list[tuple]
                  ) -> list[tuple[metrics.Counts, ...]]:
    """Each pair's counts from three overlap tables, one call each:
    report tokens at the BLEU orders, which hold ROUGE-1 and -2; chrf's
    characters; and squad_f1's tokens at order 1. splits holds each
    table's (prediction, reference) splitters, as _splitters makes them."""
    tables = [metrics.overlap_counts(
        [(split(p.prediction), split_reference(p.reference))
         for p in pairs], orders)
        for (split, split_reference), orders in zip(
            splits, (metrics.BLEU_ORDER, metrics.CHRF_ORDER, 1))]
    return list(zip(*tables))


def _splitters(tokenizer: Tokenizer) -> list[tuple]:
    """The (prediction, reference) splitters of each overlap table: the
    report's tokenizer, which remembers every text it split, then chrf's
    characters and squad_f1's tokens, whose reference splitters remember
    theirs, since every system's pairs share the references. Callers
    must not mutate what they return."""
    return [(tokenizer, tokenizer)] + [
        (split, functools.lru_cache(maxsize=None)(split))
        for split in (metrics._chrf_chars, metrics._squad_normalize)]


def generation_lengths(pairs: list[EvalPair], tokenizer: Tokenizer) -> dict:
    """Prediction token counts: per pair, mean per (task, test_set), and
    overall mean."""
    per_pair = {p.id: len(tokenizer(p.prediction)) for p in pairs}
    return {
        "per_pair": per_pair,
        "by_task_test_set": {
            f"{task}/{test_set}": mean(per_pair[p.id] for p in group)
            for (task, test_set), group in sorted(_partition(pairs).items())},
        "overall": mean(per_pair.values()) if per_pair else 0.0,
    }


def _partition(pairs: list[EvalPair]) -> dict:
    out: dict = {}
    for pair in pairs:
        out.setdefault((pair.task, pair.test_set), []).append(pair)
    return out


def _mean_scores(rows: list[dict]) -> dict:
    return {key: mean(row[key] for row in rows) for key in METRIC_KEYS}


class _TokenVectors:
    """Unit-length embedding rows of a report's distinct tokens, from one
    embed call for all of them; called with a token list, it returns their
    rows in order.

    Providers embed each input on its own, so a token's row is the one a
    per-pair request would return and the scores do not change. Each row
    is divided by its norm once, in place, 64 rows at a time so that the
    norm's temporaries stay small. Holds distinct tokens x dimension
    float64 values."""

    def __init__(self, gateway, tokens: list[str]):
        self._index = {token: i for i, token in enumerate(tokens)}
        self._unit = np.asarray(gateway.embed(tokens), dtype=np.float64)
        for block in np.split(self._unit, range(64, len(tokens), 64)):
            norms = np.linalg.norm(block, axis=1, keepdims=True)
            if np.any(norms == 0.0):
                raise ValidationError("embedder returned a zero vector for "
                                      "a token")
            block /= norms

    def __call__(self, tokens: list[str]) -> np.ndarray:
        return self._unit[[self._index[t] for t in tokens]]


def _token_vectors(pairs_by_system: dict[str, list[EvalPair]], gateway,
                   tokenizer: Tokenizer) -> _TokenVectors:
    """Embed the sorted distinct tokens of every pair, across systems,
    that bert_like_score looks up: those with tokens on both sides."""
    vocabulary: set[str] = set()
    for pairs in pairs_by_system.values():
        for pair in pairs:
            pred = tokenizer(pair.prediction)
            ref = tokenizer(pair.reference)
            if pred and ref:
                vocabulary.update(pred, ref)
    return _TokenVectors(gateway, sorted(vocabulary))


def _score_system(pairs: list[EvalPair], vectors: _TokenVectors,
                  tokenizer: Tokenizer,
                  splits: list[tuple]) -> dict:
    counts = dict(zip((p.id for p in pairs), _overlap_rows(pairs, splits)))
    per_pair = {pair.id: score_pair(pair, vectors, tokenizer, counts[pair.id])
                for pair in pairs}
    by_test_set = {test_set: group for test_set in TEST_SETS
                   if (group := [p for p in pairs if p.test_set == test_set])}

    def corpus_bleu(group: list[EvalPair]) -> float:
        return metrics.bleu_score([counts[p.id][0] for p in group],
                                  smooth=False)

    return {
        "pair_count": len(pairs),
        "per_pair": per_pair,
        "by_task_test_set": {
            f"{task}/{test_set}": _mean_scores(
                [per_pair[p.id] for p in group])
            for (task, test_set), group in sorted(_partition(pairs).items())},
        "by_test_set": {
            test_set: _mean_scores([per_pair[p.id] for p in group])
            for test_set, group in by_test_set.items()},
        "overall": _mean_scores(list(per_pair.values())),
        "corpus_bleu": {
            "by_test_set": {test_set: corpus_bleu(group)
                            for test_set, group in by_test_set.items()},
            "overall": corpus_bleu(pairs)},
        "lengths": generation_lengths(pairs, tokenizer),
    }


def _compare(systems: list[str], parts: dict, report: dict,
             notes: list[str]) -> list:
    """Pairwise Wilcoxon rank-sum tests between systems.

    Per (task, test_set): on the comparison metric's per-pair values.
    Overall: on prediction token lengths, across all tasks at once.
    """
    scores = report["per_system"]
    comparisons = []
    for i, sys_a in enumerate(systems):
        for sys_b in systems[i + 1:]:
            for (task, test_set), group in sorted(parts.items()):
                values = [[scores[s]["per_pair"][p.id][COMPARISON_METRIC]
                           for p in group] for s in (sys_a, sys_b)]
                comparisons.append(_run_test(
                    {"systems": [sys_a, sys_b], "task": task,
                     "test_set": test_set, "metric": COMPARISON_METRIC},
                    *values, notes))
            lengths = [[float(v) for v in scores[s]["lengths"]["per_pair"]
                        .values()] for s in (sys_a, sys_b)]
            comparisons.append(_run_test(
                {"systems": [sys_a, sys_b], "task": None, "test_set": None,
                 "metric": "prediction_length"}, *lengths, notes))
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


def aggregate_report(references: list[dict],
                     predictions_by_system: dict[str, dict[str, str]],
                     gateway, tokenizer_name: str = "unicode_words") -> dict:
    """Join each system's id-keyed predictions to the reference rows,
    score all systems and build the full comparison report.

    Every system is joined to the same rows, so all systems cover
    identical (id, task, test_set) pairs; tasks absent from the
    references are listed in the header notes rather than rendered as
    empty rows.
    """
    if not predictions_by_system:
        raise ValidationError("no systems to evaluate")
    if not references:
        raise ValidationError("no reference pairs to evaluate")
    pairs_by_system = {system: join_pairs(references, predictions, system)
                       for system, predictions
                       in predictions_by_system.items()}
    # Each distinct text is split once; callers share the returned lists
    # and must not mutate them.
    tokenizer = functools.lru_cache(maxsize=None)(
        get_tokenizer(tokenizer_name))
    splits = _splitters(tokenizer)
    vectors = _token_vectors(pairs_by_system, gateway, tokenizer)
    notes: list[str] = []
    present = {row["task"] for row in references}
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
        report["per_system"][system] = _score_system(pairs, vectors,
                                                     tokenizer, splits)
    first = next(iter(pairs_by_system.values()))
    report["comparisons"] = _compare(list(pairs_by_system),
                                     _partition(first), report, notes)
    return report


# -- file loading -------------------------------------------------------------

def utf8_encodable(text: str) -> bool:
    """Whether text has no lone surrogate, which JSON can carry but a
    UTF-8 report cannot hold."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _load_jsonl(path: str, fields: dict[str, tuple[str, ...] | None]
                ) -> list[dict]:
    """Rows with a string under each key of fields, one of the values that
    fields lists for it unless that is None, and distinct ids that UTF-8
    can encode; fields starts with "id" and ends with the row's text key.
    Texts may hold lone surrogates: the report never echoes them."""
    rows = []
    seen: set[str] = set()
    for line_no, row in read_jsonl_lines(path):
        if not isinstance(row, dict):
            raise ValidationError(
                f"{path} line {line_no}: row is not an object")
        for key, choices in fields.items():
            if key not in row:
                raise ValidationError(
                    f"{path} line {line_no}: missing {key!r}")
            if not isinstance(row[key], str):
                raise ValidationError(
                    f"{path} line {line_no}: {key!r} must be a string")
            if choices is not None and row[key] not in choices:
                raise ValidationError(
                    f"{path} line {line_no}: unknown {key} "
                    f"{row[key]!r}; expected one of {', '.join(choices)}")
        if not utf8_encodable(row["id"]):
            raise ValidationError(f"{path} line {line_no}: id {row['id']!r} "
                                  f"is not encodable as UTF-8")
        if row["id"] in seen:
            raise ValidationError(f"{path} line {line_no}: duplicate "
                                  f"{list(fields)[-1]} id {row['id']!r}")
        seen.add(row["id"])
        rows.append(row)
    if not rows:
        raise ValidationError(f"{path}: no rows")
    return rows


def load_references(path: str) -> list[dict]:
    """Rows of {id, task, test_set, reference}, each task one of
    EVAL_TASKS and each test set one of TEST_SETS."""
    return _load_jsonl(path, {"id": None, "task": EVAL_TASKS,
                              "test_set": TEST_SETS, "reference": None})


def load_predictions(path: str) -> dict[str, str]:
    """Rows of {id, prediction} -> id-keyed map."""
    rows = _load_jsonl(path, {"id": None, "prediction": None})
    return {row["id"]: row["prediction"] for row in rows}


def join_pairs(references: list[dict], predictions: dict[str, str],
               system: str) -> list[EvalPair]:
    """Match `system`'s predictions to references by id; any gap, and any
    reference id that repeats, is an error. An AlignmentError names the
    system."""
    ids = [r["id"] for r in references]
    ref_ids = set(ids)
    if len(ref_ids) != len(ids):
        dupe = next(i for i in ids if ids.count(i) > 1)
        raise ValidationError(f"references repeat pair id {dupe!r}")
    for problem, gap in (("missing for", ref_ids - set(predictions)),
                         ("for unknown", set(predictions) - ref_ids)):
        if gap:
            shown = sorted(gap)[:5]
            raise AlignmentError(
                f"system {system!r}: predictions {problem} ids {shown}"
                + (" ..." if len(gap) > 5 else ""), system)
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
