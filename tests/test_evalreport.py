"""Evaluation report: scoring, alignment, comparisons, rendering."""

import inspect
import math

import numpy as np
import pytest

from seedforge import metrics
from seedforge.errors import AlignmentError, ParseError, ValidationError
from seedforge.evalreport import (EVAL_TASKS, METRIC_KEYS, EvalPair,
                                  _overlap_rows, _splitters, _TokenVectors,
                                  aggregate_report,
                                  generation_lengths, join_pairs,
                                  load_predictions, load_references,
                                  render_report, score_pair)
from seedforge.gateway import Gateway
from seedforge.tokenizers import TOKENIZERS, get_tokenizer

TOK = get_tokenizer("unicode_words")


def pair(pid="p1", task="closed_qa", test_set="culture",
         prediction="แมว นั่ง", reference="แมว นั่ง"):
    return EvalPair(id=pid, task=task, test_set=test_set,
                    prediction=prediction, reference=reference)


def grid_refs():
    """12 reference rows: 2 tasks x 2 test sets x 3 items."""
    return [{"id": f"{task[:2]}-{test_set[:2]}-{i}", "task": task,
             "test_set": test_set,
             "reference": f"ข้อความ อ้างอิง {task} {test_set} ลำดับ {i}"}
            for task in ("closed_qa", "summarization")
            for test_set in ("culture", "general") for i in range(3)]


def grid_predictions(predict):
    """id -> predict(task, test_set, item, reference) for grid_refs()."""
    return {r["id"]: predict(r["task"], r["test_set"], int(r["id"][-1]),
                             r["reference"]) for r in grid_refs()}


def vectors(gateway, *pairs, tokenizer=TOK):
    """Unit rows for every token of pairs, as a report builds them."""
    return _TokenVectors(gateway, sorted(
        {t for p in pairs for t in tokenizer(p.prediction)
         + tokenizer(p.reference)}))


def score(p, gateway, tokenizer=TOK):
    """score_pair with unit rows embedded and n-grams counted for this
    pair alone."""
    return score_pair(p, vectors(gateway, p, tokenizer=tokenizer),
                      tokenizer, _overlap_rows([p], _splitters(tokenizer))[0])


class TestEvalPair:
    def test_validation(self):
        with pytest.raises(ValidationError, match="non-empty"):
            pair(pid="")
        with pytest.raises(ValidationError, match="unknown task"):
            pair(task="poetry")
        with pytest.raises(ValidationError, match="unknown test set"):
            pair(test_set="dev")


class TestScorePair:
    def test_identity_scores_every_metric(self, gateway):
        scores = score(pair(), gateway)
        assert set(scores) == set(METRIC_KEYS)
        assert scores["rouge1_f1"] == 1.0
        assert scores["rouge_l_f1"] == 1.0
        assert scores["bleu_sentence"] == 1.0
        assert scores["squad_f1"] == 1.0
        assert scores["chrf"] == pytest.approx(100.0)
        # two matched tokens in one chunk
        assert scores["meteor"] == 1 - 0.5 / 2 ** 3
        assert scores["bert_like_f1"] == pytest.approx(1.0, abs=1e-9)

    def test_empty_prediction_is_scored(self, gateway):
        scores = score(pair(prediction=""), gateway)
        assert scores["rouge1_f1"] == 0.0
        assert scores["bleu_sentence"] == 0.0

    def test_disjoint_texts_bottom_out(self, gateway):
        scores = score(pair(prediction="ก ข", reference="ค ง"), gateway)
        assert scores["rouge1_f1"] == 0.0
        assert scores["meteor"] == 0.0
        assert scores["squad_f1"] == 0.0

    @pytest.mark.parametrize("name", sorted(TOKENIZERS))
    def test_rouge_lsum_copied_only_when_equal(self, name, gateway):
        tokenizer = get_tokenizer(name)
        texts = ["", " \n ", "ก ข ค", "ก ข ค\n", "\n\nข ก\n \n",
                 "ก ข\nค ก", "ค\nก\nข ข"]
        for pred in texts:
            for ref in texts:
                got = score(pair(prediction=pred, reference=ref),
                            gateway, tokenizer)
                assert got["rouge_lsum_f1"] == metrics.rouge_lsum(
                    pred, ref, tokenizer).f1

    def test_traced_metric_names_are_called_through_the_module(
            self, gateway, monkeypatch):
        """The traced eval wraps each name in bench.tracing.METRIC_FNS on
        seedforge.metrics, so each must stay a function there. Those that
        score_pair calls must be called through the module attribute, or
        they would lose their span without an error; rouge_n, bleu, chrf
        and squad_f1 it derives from the overlap tables instead."""
        from bench.tracing import METRIC_FNS
        called = []
        for name in METRIC_FNS:
            fn = getattr(metrics, name, None)
            assert inspect.isfunction(fn), name

            def counting(*args, _fn=fn, _name=name, **kwargs):
                called.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(metrics, name, counting)
        score(pair(prediction="ก ข\nค", reference="ค\nก ข"), gateway)
        assert set(called) == {"rouge_l", "rouge_lsum", "meteor",
                               "bert_like_score"}


class TestGenerationLengths:
    def test_counts_and_means(self):
        pairs = [pair(pid="a", prediction="หนึ่ง สอง สาม"),
                 pair(pid="b", prediction="หนึ่ง"),
                 pair(pid="c", task="summarization", prediction="a b c d")]
        out = generation_lengths(pairs, TOK)
        assert out["per_pair"] == {"a": 3, "b": 1, "c": 4}
        assert out["by_task_test_set"] == {
            "closed_qa/culture": 2, "summarization/culture": 4}
        assert out["overall"] == pytest.approx(8 / 3)

    def test_empty_input(self):
        out = generation_lengths([], TOK)
        assert out == {"per_pair": {}, "by_task_test_set": {},
                       "overall": 0.0}


class TestAggregateReport:
    def test_two_system_report(self, gateway):
        predictions = {
            "tuned": grid_predictions(lambda t, s, i, ref: ref),
            "base": grid_predictions(
                lambda t, s, i, ref: f"ข้อความ เดา ที่ {i} ยาว กว่า เดิม อีก"),
        }
        report = aggregate_report(grid_refs(), predictions, gateway)
        assert report["systems"] == ["tuned", "base"]
        assert report["tokenizer"] == "unicode_words"
        tuned = report["per_system"]["tuned"]
        assert tuned["pair_count"] == 12
        assert tuned["overall"]["rouge1_f1"] == 1.0
        assert tuned["corpus_bleu"]["overall"] == 1.0
        assert set(tuned["by_test_set"]) == {"culture", "general"}
        assert tuned["by_task_test_set"]["closed_qa/culture"][
            "squad_f1"] == 1.0
        base = report["per_system"]["base"]
        assert base["overall"]["rouge1_f1"] < 1.0
        # 2 tasks x 2 test sets on the embedding metric, 1 length test
        assert len(report["comparisons"]) == 5
        for comp in report["comparisons"][:4]:
            assert comp["metric"] == "bert_like_f1"
            assert comp["method"] in ("exact", "normal")
            assert 0.0 < comp["p_value"] <= 1.0
        assert report["comparisons"][4]["metric"] == "prediction_length"
        absent = [t for t in EVAL_TASKS
                  if t not in ("closed_qa", "summarization")]
        assert any(", ".join(absent) in n for n in report["notes"])

    def test_identical_systems_degenerate_comparison(self, gateway):
        same = grid_predictions(lambda t, s, i, ref: ref)
        report = aggregate_report(grid_refs(), {"a": same, "b": same},
                                  gateway)
        assert all(c["method"] == "degenerate"
                   for c in report["comparisons"]
                   if c["metric"] == "bert_like_f1")
        assert any("no variation" in n for n in report["notes"])

    def test_misaligned_systems_rejected(self, gateway):
        good = grid_predictions(lambda t, s, i, ref: ref)
        short = dict(list(good.items())[:-1])
        with pytest.raises(AlignmentError, match="system 'b': predictions "
                           "missing for ids \\['su-ge-2'\\]"):
            aggregate_report(grid_refs(), {"a": good, "b": short}, gateway)

    def test_duplicate_pair_id_rejected(self, gateway):
        refs = grid_refs()
        with pytest.raises(ValidationError,
                           match="repeat pair id 'cl-cu-0'"):
            aggregate_report(refs + refs[:1],
                             {"a": grid_predictions(lambda *a: "x")},
                             gateway)

    def test_no_systems_rejected(self, gateway):
        with pytest.raises(ValidationError, match="no systems"):
            aggregate_report(grid_refs(), {}, gateway)

    def test_no_pairs_rejected(self, gateway):
        with pytest.raises(ValidationError, match="no reference pairs"):
            aggregate_report([], {"a": {}}, gateway)


class CountingGateway:
    """The mock gateway, recording the texts of every embed request. Each
    row is scaled by a power of two chosen by its text, so the rows are not
    unit length, yet normalise to exactly the mock's unit rows."""

    def __init__(self):
        self.inner = Gateway.mock()
        self.requests = []

    def embed(self, texts):
        self.requests.append(list(texts))
        scale = [2.0 ** (len(text) % 3) for text in texts]
        return self.inner.embed(texts) * np.array(scale)[:, None]


def vocabulary_inputs():
    """References and two systems' predictions with repeated tokens,
    multi-line texts, an empty prediction, and one pair whose empty
    reference keeps its prediction's tokens out of bert_like_score."""
    refs = grid_refs() + [{"id": "no-ref", "task": "open_qa",
                           "test_set": "general", "reference": ""}]
    predictions = {
        "tuned": {**grid_predictions(lambda t, s, i, ref: f"{ref} {ref}"),
                  "no-ref": "เฉพาะ คู่ นี้"},
        "base": {**grid_predictions(
            lambda t, s, i, ref: "" if i == 0 else f"เดา {t}\nลำดับ {i} {i}"),
            "no-ref": "เฉพาะ\nคู่"},
    }
    return refs, predictions


def per_pair_bert_like(pred, ref, gateway, tokenizer=TOK):
    """bert_like_score as each pair once computed it: the pair's raw rows
    from gateway.embed, normalised for that pair alone."""
    pred_tokens, ref_tokens = tokenizer(pred), tokenizer(ref)
    if not pred_tokens and not ref_tokens:
        return 1.0
    if not pred_tokens or not ref_tokens:
        return 0.0
    mat = np.asarray(gateway.embed(pred_tokens + ref_tokens),
                     dtype=np.float64)
    mat = mat / np.linalg.norm(mat, axis=1)[:, None]
    sims = np.clip(mat[:len(pred_tokens)] @ mat[len(pred_tokens):].T, 0.0,
                   None)
    precision = float(sims.max(axis=1).mean())
    recall = float(sims.max(axis=0).mean())
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


class TestTokenVocabulary:
    def test_each_distinct_token_embedded_once(self):
        refs, predictions = vocabulary_inputs()
        counting = CountingGateway()
        report = aggregate_report(refs, predictions, counting)
        pairs = {system: join_pairs(refs, preds, system)
                 for system, preds in predictions.items()}
        scored = {t for system_pairs in pairs.values() for p in system_pairs
                  if TOK(p.prediction) and TOK(p.reference)
                  for t in TOK(p.prediction) + TOK(p.reference)}
        assert "เฉพาะ" not in scored
        assert counting.requests == [sorted(scored)]
        gateway = Gateway.mock()
        for system, system_pairs in pairs.items():
            rows = report["per_system"][system]["per_pair"]
            for p in system_pairs:
                assert rows[p.id] == score(p, gateway)
                assert rows[p.id]["bert_like_f1"] == per_pair_bert_like(
                    p.prediction, p.reference, gateway)


REF_ROWS = """\
{"id": "a", "task": "closed_qa", "test_set": "culture", "reference": "แมว"}
{"id": "b", "task": "open_qa", "test_set": "general", "reference": "หมา"}
"""


class TestLoaders:
    def test_load_references(self, tmp_path):
        path = tmp_path / "refs.jsonl"
        path.write_text(REF_ROWS, encoding="utf-8")
        rows = load_references(str(path))
        assert [r["id"] for r in rows] == ["a", "b"]

    def test_missing_key_names_line(self, tmp_path):
        path = tmp_path / "refs.jsonl"
        path.write_text('{"id": "a", "task": "closed_qa", '
                        '"test_set": "culture"}\n', encoding="utf-8")
        with pytest.raises(ValidationError, match="line 1.*reference"):
            load_references(str(path))

    @pytest.mark.parametrize("key,value", [("task", "poetry"),
                                           ("test_set", "dev")])
    def test_unknown_task_or_test_set_names_line(self, tmp_path, key,
                                                 value):
        path = tmp_path / "refs.jsonl"
        path.write_text(REF_ROWS + REF_ROWS.splitlines()[1].replace(
            '"id": "b"', '"id": "c"').replace(
            {"task": '"open_qa"', "test_set": '"general"'}[key],
            f'"{value}"') + "\n", encoding="utf-8")
        with pytest.raises(ValidationError,
                           match=f"{path} line 3: unknown {key} '{value}'"):
            load_references(str(path))

    def test_non_string_value(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"id": "a", "prediction": 5}\n', encoding="utf-8")
        with pytest.raises(ValidationError, match="must be a string"):
            load_predictions(str(path))

    def test_duplicate_reference_id_names_the_refs_line(self, tmp_path):
        path = tmp_path / "refs.jsonl"
        path.write_text(REF_ROWS + REF_ROWS.splitlines()[0] + "\n",
                        encoding="utf-8")
        with pytest.raises(ValidationError,
                           match=f"{path} line 3: duplicate reference id 'a'"):
            load_references(str(path))

    def test_duplicate_prediction_id(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"id": "a", "prediction": "x"}\n'
                        '{"id": "a", "prediction": "y"}\n', encoding="utf-8")
        with pytest.raises(ValidationError, match="duplicate prediction id"):
            load_predictions(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text("\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="no rows"):
            load_predictions(str(path))

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"id": "a", "prediction": "x"}\n{oops\n',
                        encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            load_predictions(str(path))


class TestJoinPairs:
    REFS = [{"id": "a", "task": "closed_qa", "test_set": "culture",
             "reference": "แมว"},
            {"id": "b", "task": "open_qa", "test_set": "general",
             "reference": "หมา"}]

    def test_join_preserves_reference_order(self):
        pairs = join_pairs(self.REFS, {"b": "x", "a": "y"}, "s")
        assert [p.id for p in pairs] == ["a", "b"]
        assert pairs[0].prediction == "y"
        assert pairs[1].reference == "หมา"

    def test_missing_prediction(self):
        with pytest.raises(AlignmentError,
                           match="system 's': predictions missing for ids "
                           "\\['b'\\]"):
            join_pairs(self.REFS, {"a": "y"}, "s")

    def test_unknown_prediction(self):
        with pytest.raises(AlignmentError,
                           match="system 's': predictions for unknown ids "
                           "\\['c'\\]"):
            join_pairs(self.REFS, {"a": "x", "b": "y", "c": "z"}, "s")


class TestRenderReport:
    def test_renders_tables_and_footer(self, gateway):
        predictions = {
            "tuned": grid_predictions(lambda t, s, i, ref: ref),
            "base": grid_predictions(lambda t, s, i, ref: f"เดา {i} คำ"),
        }
        text = render_report(aggregate_report(grid_refs(), predictions,
                                              gateway))
        assert "Evaluation report (tokenizer: unicode_words)" in text
        assert "[culture test set]" in text
        assert "[general test set]" in text
        assert "[all test sets]" in text
        assert "[mean prediction length]" in text
        assert "[pairwise comparisons, Wilcoxon rank-sum]" in text
        assert "tuned vs base" in text
        assert "bert_like_f1" in text
        assert "no idf weighting" in text
        for line in text.splitlines():
            if line.startswith("rouge1_f1"):
                assert "1.0000" in line
                break
        else:
            pytest.fail("rouge1_f1 row missing")

    def test_capability_gap_renders_dashes(self, gateway):
        report = aggregate_report(
            grid_refs(), {"a": grid_predictions(lambda t, s, i, ref: ref)},
            gateway)
        scores = report["per_system"]["a"]
        for means in [scores["overall"], *scores["by_test_set"].values()]:
            del means["bert_like_f1"]
        text = render_report(report)
        bert_rows = [line for line in text.splitlines()
                     if line.startswith("bert_like_f1")]
        assert bert_rows and all("-" in row for row in bert_rows)

    def test_degenerate_comparison_renders(self, gateway):
        same = grid_predictions(lambda t, s, i, ref: ref)
        text = render_report(aggregate_report(grid_refs(),
                                              {"a": same, "b": same},
                                              gateway))
        assert "degenerate (no variance)" in text
