"""Dataset variant builders: flag derivation, transforms, manifests."""

from collections import Counter
from dataclasses import replace

import pytest

from seedforge import ablations, constants
from seedforge.ablations import (Recipe, VARIANT_CULTURE_ONLY,
                                 VARIANT_DIVERSITY_ONLY, VARIANT_FLUENCY_ONLY,
                                 VARIANT_FULL, VARIANT_NO_PROPERTIES,
                                 VARIANT_TABLE, VARIANTS, DatasetManifest,
                                 PropertyFlags, derive_flags,
                                 finish_manifest, generate_pass,
                                 load_external_corpus, read_manifest,
                                 truncate_records, write_manifest)
from seedforge.config import default_config
from seedforge.errors import (BuildError, ConfigError, ParseError,
                              ProtocolError, ProviderError, ValidationError)
from seedforge.gateway import Gateway
from seedforge.gateway.mock import MockParaphraser, MockTranslator
from seedforge.instructions import InstructionRecord
from seedforge.records import file_sha256
from seedforge.topics import CULTURAL, GENERAL, Topic

from doubles import build_manifest

SMALL = default_config(topics_cultural=8, topics_general=6, dataset_size=50)


def small(**overrides):
    """SMALL with overrides by field name, checked like config values."""
    return default_config(**{"topics_cultural": 8, "topics_general": 6,
                             "dataset_size": 50, **overrides})


def external_corpus(tmp_path, rows):
    path = tmp_path / "ext.jsonl"
    path.write_text("".join(f'{{"prompt": "q{i}", "response": "a{i}"}}\n'
                            for i in range(rows)), encoding="utf-8")
    return load_external_corpus(str(path))


class TestDeriveFlags:
    """Each variant's property flags follow from its recipe, not from a
    lookup table keyed on the variant name."""

    def test_full(self):
        recipe = Recipe(VARIANT_FULL, topics_cultural=400,
                        topics_general=300, dedup=True)
        assert derive_flags(recipe) == PropertyFlags(True, True, True)

    def test_fluency_only(self):
        recipe = Recipe(VARIANT_FLUENCY_ONLY, topics_cultural=0,
                        topics_general=10, dedup=False)
        assert derive_flags(recipe) == PropertyFlags(True, False, False)

    def test_diversity_only(self):
        recipe = Recipe(VARIANT_DIVERSITY_ONLY, topics_cultural=0,
                        topics_general=750, dedup=True,
                        transforms=("round_trip",))
        assert derive_flags(recipe) == PropertyFlags(False, False, True)

    def test_culture_only(self):
        recipe = Recipe(VARIANT_CULTURE_ONLY, topics_cultural=400,
                        topics_general=300, dedup=False,
                        transforms=("translate_pivot", "paraphrase",
                                    "translate_target"))
        assert derive_flags(recipe) == PropertyFlags(False, True, False)

    def test_no_properties(self):
        recipe = Recipe(VARIANT_NO_PROPERTIES, topics_cultural=0,
                        topics_general=0, dedup=False,
                        transforms=("paraphrase", "translate_target"))
        assert derive_flags(recipe) == PropertyFlags(False, False, False)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValidationError, match="unknown variant"):
            Recipe("bespoke", 0, 0, dedup=False)

    def test_unknown_transform_rejected(self):
        with pytest.raises(ValidationError, match="unknown transforms"):
            Recipe(VARIANT_FULL, 1, 1, dedup=True, transforms=("emoji",))


class TestTruncate:
    def test_exact_size_passthrough(self):
        records = list(range(10))
        assert truncate_records(records, 10, 0, "x") == records

    def test_subset_preserves_order(self):
        records = list(range(100))
        out = truncate_records(records, 30, 5, "x")
        assert len(out) == 30
        assert out == sorted(out)
        assert len(set(out)) == 30

    def test_deterministic_per_seed_and_label(self):
        records = list(range(100))
        assert (truncate_records(records, 20, 5, "a")
                == truncate_records(records, 20, 5, "a"))
        assert (truncate_records(records, 20, 5, "a")
                != truncate_records(records, 20, 6, "a"))

    def test_shortfall_reports_achieved(self):
        with pytest.raises(BuildError) as err:
            truncate_records([1, 2, 3], 10, 0, "full")
        assert err.value.achieved == 3
        assert "full" in str(err.value)


def make_record(rec_id="t0000-r00-closed_qa-00", task="closed_qa",
                context="บริบท"):
    return InstructionRecord(
        id=rec_id, task=task, instruction="คำถาม", context=context,
        output="คำตอบ", topic=Topic("วัด", CULTURAL), language="th")


def run_steps(records, gateway, *steps):
    """records through `steps`, as a build runs its recipe's transforms,
    under SMALL's languages: target th, pivot en."""
    recipe = Recipe(VARIANT_DIVERSITY_ONLY, 0, 1, dedup=True,
                    transforms=steps)
    return ablations._run_transforms(records, recipe, gateway, SMALL)


class TestFieldTransforms:
    def test_round_trip_wraps_every_text_field(self, gateway):
        (out,) = run_steps([make_record()], gateway, "round_trip")
        assert out.instruction == "th⟨en⟨คำถาม⟩⟩"
        assert out.context == "th⟨en⟨บริบท⟩⟩"
        assert out.output == "th⟨en⟨คำตอบ⟩⟩"
        assert out.lineage == ("generated", "round_trip(en)")
        assert out.language == "th"

    def test_round_trip_leaves_missing_context_alone(self, gateway):
        src = make_record(task="conversation", context=None)
        (out,) = run_steps([src], gateway, "round_trip")
        assert out.context is None

    def test_translate_switches_language(self, gateway):
        (out,) = run_steps([make_record()], gateway, "translate_pivot")
        assert out.instruction == "en⟨คำถาม⟩"
        assert out.language == "en"
        assert out.lineage == ("generated", "translate(th->en)")


class TestManifestInvariants:
    def test_size_mismatch_rejected(self):
        recipe = Recipe(VARIANT_FULL, 1, 1, dedup=True)
        flags = derive_flags(recipe)
        rec = make_record()
        stamped = InstructionRecord(**{
            **rec.__dict__,
            "flags": {"fluency": True, "culture": True, "diversity": True}})
        with pytest.raises(ValidationError, match="target"):
            DatasetManifest(records=(stamped,), flags=flags, target_size=2,
                            recipe=recipe, seed=0)

    def test_flag_disagreement_rejected(self):
        recipe = Recipe(VARIANT_FULL, 1, 1, dedup=True)
        stale = InstructionRecord(**{
            **make_record().__dict__,
            "flags": {"fluency": False, "culture": True, "diversity": True}})
        with pytest.raises(ValidationError, match="disagree"):
            DatasetManifest(records=(stale,), flags=derive_flags(recipe),
                            target_size=1, recipe=recipe, seed=0)

    def test_finish_manifest_stamps_flags(self):
        recipe = Recipe(VARIANT_FLUENCY_ONLY, 0, 10, dedup=False)
        manifest = finish_manifest([make_record()], recipe, 1, 3)
        assert manifest.records[0].flags == {
            "fluency": True, "culture": False, "diversity": False}
        assert manifest.seed == 3

    def test_finish_manifest_stamps_without_revalidating(self,
                                                         monkeypatch):
        records = [make_record(), make_record("t0001-r00-closed_qa-00")]
        recipe = Recipe(VARIANT_FULL, 1, 1, dedup=True)
        flags = {"fluency": True, "culture": True, "diversity": True}
        expected = [replace(r, flags=flags) for r in records]
        checks = []
        original = InstructionRecord.__post_init__

        def counting(self):
            checks.append(self.id)
            original(self)

        monkeypatch.setattr(InstructionRecord, "__post_init__", counting)
        manifest = finish_manifest(records, recipe, 2, 0)
        assert checks == []
        assert list(manifest.records) == expected
        assert all(type(r) is InstructionRecord for r in manifest.records)
        first, second = manifest.records
        assert first.flags is not second.flags
        first.flags["fluency"] = False
        assert second.flags == flags
        assert records[0].flags is None


class TestGeneratePass:
    def test_order_and_determinism(self, gateway):
        topics = [Topic(f"หัวข้อ {i}", GENERAL) for i in range(3)]
        records, failures = generate_pass(
            gateway, default_config(run_seed=11), topics)
        assert not failures
        assert len(records) == 24
        prefixes = [r.id.split("-")[0] for r in records]
        assert prefixes == sorted(prefixes)
        again, _ = generate_pass(
            Gateway.mock(),
            default_config(run_seed=11, budget_max_concurrent=1), topics)
        assert again == records

    def test_start_index_and_round_in_keys(self, gateway):
        topics = [Topic("ก", GENERAL)]
        config = default_config(run_seed=11, context_p_wiki=0.0)
        records, _ = generate_pass(gateway, config, topics, start_index=7,
                                   round_no=2)
        assert records[0].id.startswith("t0007-r02-")


class TestBuildFull:
    def test_small_build(self, gateway):
        manifest = build_manifest(VARIANT_FULL, gateway, small(run_seed=42))
        assert len(manifest.records) == 50
        assert manifest.flags == PropertyFlags(True, True, True)
        assert manifest.recipe.variant == VARIANT_FULL
        ids = [r.id for r in manifest.records]
        assert len(set(ids)) == 50
        for record in manifest.records:
            assert record.flags == {
                "fluency": True, "culture": True, "diversity": True}
            assert record.lineage == ("generated",)
            assert record.language == "th"

    def test_identical_across_fresh_gateways(self):
        first = build_manifest(VARIANT_FULL, Gateway.mock(),
                               small(run_seed=42))
        second = build_manifest(VARIANT_FULL, Gateway.mock(),
                                small(run_seed=42))
        assert first.records == second.records

    def test_seed_changes_output(self, gateway):
        a = build_manifest(VARIANT_FULL, Gateway.mock(), small(run_seed=1))
        b = build_manifest(VARIANT_FULL, Gateway.mock(), small(run_seed=2))
        assert a.records != b.records


class TestBuildFluencyOnly:
    def test_rerolls_fixed_topics_until_size(self):
        manifest = build_manifest(VARIANT_FLUENCY_ONLY, Gateway.mock(),
                                  small(run_seed=7, dataset_size=100))
        assert len(manifest.records) == 100
        assert manifest.flags == PropertyFlags(True, False, False)
        rounds = {r.id.split("-")[1] for r in manifest.records}
        assert len(rounds) > 1  # 10 topics yield 80 records per round
        topics = {r.id.split("-")[0] for r in manifest.records}
        assert topics <= {f"t{i:04d}" for i in range(10)}
        for record in manifest.records:
            assert record.topic.category == GENERAL


class TestBuildDiversityOnly:
    def test_extends_topics_and_bounces_text(self):
        # The row's 750 topics at 5,000 records are 7 at 45. With one QA
        # pair per context they fall short, so an extension epoch adds
        # topics.
        manifest = build_manifest(
            VARIANT_DIVERSITY_ONLY, Gateway.mock(),
            small(run_seed=9, dataset_size=45, tasks_qa_pairs=1))
        assert len(manifest.records) == 45
        assert manifest.flags == PropertyFlags(False, False, True)
        assert manifest.recipe.topics_general == 7
        indexes = {int(r.id[1:5]) for r in manifest.records}
        assert max(indexes) >= 7
        for record in manifest.records:
            assert record.lineage[-1] == "round_trip(en)"
            assert record.instruction.startswith("th⟨en⟨")
            assert record.output.startswith("th⟨en⟨")


@pytest.fixture(scope="module")
def full():
    return build_manifest(VARIANT_FULL, Gateway.mock(), small(run_seed=42))


class TestBuildCultureOnly:

    def test_default_sample_yields_five_per_record(self, full, gateway):
        manifest = build_manifest(VARIANT_CULTURE_ONLY, gateway,
                                  small(run_seed=42), full)
        # 50 // 5 sampled, each kept alongside 4 paraphrases
        assert manifest.target_size == 50
        assert len(manifest.records) == 50
        assert manifest.flags == PropertyFlags(False, True, False)
        families = {}
        for record in manifest.records:
            stem, _, suffix = record.id.rpartition("-")
            families.setdefault(stem, []).append(suffix)
        assert len(families) == 10
        for suffixes in families.values():
            assert sorted(suffixes) == ["p00", "p01", "p02", "p03", "p04"]

    def test_lineage_chains_follow_recipe(self, full, gateway):
        manifest = build_manifest(VARIANT_CULTURE_ONLY, gateway,
                                  small(run_seed=42), full)
        for record in manifest.records:
            suffix = record.id.rsplit("-", 1)[1]
            if suffix == "p00":
                assert record.lineage == (
                    "generated", "translate(th->en)", "original",
                    "translate(en->th)")
                assert "⟪p" not in record.instruction
            else:
                k = int(suffix[1:])
                assert record.lineage == (
                    "generated", "translate(th->en)", f"paraphrase({k})",
                    "translate(en->th)")
                assert "⟪p" in record.instruction
                assert "⟪p" in record.output
            assert record.language == "th"
            assert record.instruction.startswith("th⟨en⟨")
            assert record.flags == {
                "fluency": False, "culture": True, "diversity": False}

    def test_recipe_names_its_source(self, full, gateway):
        manifest = build_manifest(VARIANT_CULTURE_ONLY, gateway,
                                  small(run_seed=42), full)
        assert manifest.recipe.source == "derived:full"
        assert manifest.recipe.transforms == (
            "translate_pivot", "paraphrase", "translate_target")

    def test_explicit_sample_count(self, full, gateway):
        # dataset.size 15 samples 3 originals
        manifest = build_manifest(VARIANT_CULTURE_ONLY, gateway,
                                  small(run_seed=1, dataset_size=15), full)
        assert len(manifest.records) == 15
        assert len({r.id.rpartition("-")[0] for r in manifest.records}) == 3

    def test_oversample_reports_achieved(self, full, gateway):
        with pytest.raises(BuildError) as err:
            build_manifest(VARIANT_CULTURE_ONLY, gateway,
                           small(run_seed=1, dataset_size=2500), full)
        assert err.value.achieved == 50

    def test_zero_sample_rejected(self, full, gateway):
        # 4 // 5 would sample nothing; no size off the fan-out is accepted
        with pytest.raises(ConfigError, match="fan-out 5"):
            build_manifest(VARIANT_CULTURE_ONLY, gateway,
                           small(run_seed=1, dataset_size=4), full)

    def test_needs_a_manifest_source(self, full, gateway, tmp_path):
        with pytest.raises(ConfigError, match="requires --source"):
            build_manifest(VARIANT_CULTURE_ONLY, gateway, SMALL)
        with pytest.raises(ConfigError, match="requires --source"):
            build_manifest(VARIANT_CULTURE_ONLY, gateway, SMALL,
                           external_corpus(tmp_path, 12))
        fluency = finish_manifest(
            list(full.records),
            replace(full.recipe, variant=VARIANT_FLUENCY_ONLY,
                    topics_cultural=0, dedup=False), 50, 42)
        with pytest.raises(ConfigError, match="not a fluency_only"):
            build_manifest(VARIANT_CULTURE_ONLY, gateway, SMALL, fluency)
        assert gateway.stats.snapshot()["provider_calls"] == {}


EXTERNAL_ROWS = """\
{"prompt": "What is rice?", "response": "A staple grain."}
{"messages": [{"role": "user", "content": "Hi"}, {"role": "assistant", "content": "Hello!"}]}

{"prompt": "Name a river.", "response": "The Chao Phraya."}
"""


class TestExternalCorpus:
    def test_adapts_both_row_shapes(self, tmp_path):
        path = tmp_path / "ext.jsonl"
        path.write_text(EXTERNAL_ROWS, encoding="utf-8")
        records = load_external_corpus(str(path))
        assert [r.id for r in records] == [
            "ext-00000", "ext-00001", "ext-00002"]
        assert records[0].instruction == "What is rice?"
        assert records[1].output == "Hello!"
        assert all(r.task == "conversation" for r in records)
        assert all(r.language == "en" for r in records)
        assert all(r.lineage == ("external",) for r in records)

    def test_row_without_output_is_an_error(self, tmp_path):
        path = tmp_path / "ext.jsonl"
        path.write_text('{"prompt": "hi"}\n', encoding="utf-8")
        with pytest.raises(ValidationError, match="line 1.*no output"):
            load_external_corpus(str(path))

    def test_bad_json_names_the_line(self, tmp_path):
        path = tmp_path / "ext.jsonl"
        path.write_text('{"prompt": "a", "response": "b"}\n{oops\n',
                        encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            load_external_corpus(str(path))

    def test_non_object_row(self, tmp_path):
        path = tmp_path / "ext.jsonl"
        path.write_text('[1, 2]\n', encoding="utf-8")
        with pytest.raises(ValidationError, match="not an object"):
            load_external_corpus(str(path))

    def test_empty_corpus_rejected(self, tmp_path):
        path = tmp_path / "ext.jsonl"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="no usable rows"):
            load_external_corpus(str(path))


class TestBuildNoProperties:
    def test_translates_paraphrased_external_rows(self, tmp_path, gateway):
        manifest = build_manifest(VARIANT_NO_PROPERTIES, gateway,
                                  small(run_seed=3, dataset_size=20),
                                  external_corpus(tmp_path, 12))
        assert len(manifest.records) == 20
        assert manifest.flags == PropertyFlags(False, False, False)
        assert manifest.recipe.source == "external"
        for record in manifest.records:
            assert record.language == "th"
            assert record.lineage[0] == "external"
            assert record.lineage[-1] == "translate(en->th)"
            assert record.instruction.startswith("th⟨")

    def test_needs_an_external_corpus(self, full, gateway):
        with pytest.raises(ConfigError, match="requires --external"):
            build_manifest(VARIANT_NO_PROPERTIES, gateway, SMALL)
        with pytest.raises(ConfigError, match="requires --external"):
            build_manifest(VARIANT_NO_PROPERTIES, gateway, SMALL, full)


class TestManifestPersistence:
    def test_write_read_round_trip(self, tmp_path, gateway):
        manifest = build_manifest(VARIANT_FULL, gateway, small(run_seed=42))
        path = str(tmp_path / "full.jsonl")
        digest = write_manifest(manifest, path,
                                config_echo=SMALL.effective())
        assert file_sha256(path) == digest
        loaded = read_manifest(path)
        assert loaded.records == manifest.records
        assert loaded.flags == manifest.flags
        assert loaded.recipe == manifest.recipe
        assert loaded.seed == manifest.seed
        assert loaded.target_size == manifest.target_size

    def test_tampering_is_detected(self, tmp_path, gateway):
        manifest = build_manifest(VARIANT_FULL, gateway, small(run_seed=42))
        path = str(tmp_path / "full.jsonl")
        write_manifest(manifest, path)
        with open(path, "ab") as handle:
            handle.write(b" \n")
        with pytest.raises(ValidationError, match="does not match"):
            read_manifest(path)

    def test_rewrite_is_byte_identical(self, tmp_path, gateway):
        manifest = build_manifest(VARIANT_FULL, gateway, small(run_seed=42))
        a = str(tmp_path / "a.jsonl")
        b = str(tmp_path / "b.jsonl")
        assert write_manifest(manifest, a) == write_manifest(manifest, b)


def build_all_five(tmp_path):
    """Every variant at 50 records under seed 42; culture samples full,
    none samples a 10-row external corpus."""
    full = build_manifest(VARIANT_FULL, Gateway.mock(), small(run_seed=42))
    sources = {VARIANT_CULTURE_ONLY: full,
               VARIANT_NO_PROPERTIES: external_corpus(tmp_path, 10)}
    return {variant: full if variant == VARIANT_FULL else build_manifest(
        variant, Gateway.mock(), small(run_seed=42), sources.get(variant))
        for variant in VARIANTS}


def transform_of(step: str, pivot: str = "en") -> str | None:
    """The recipe transform that appends `step` to a lineage, if any."""
    if step.startswith("round_trip("):
        return "round_trip"
    if step == "original" or step.startswith("paraphrase("):
        return "paraphrase"
    if step.startswith("translate("):
        return ("translate_pivot" if step.endswith(f"->{pivot})")
                else "translate_target")
    return None


class TestVariantTable:
    def test_lineage_ends_with_the_recipe_transforms(self, tmp_path):
        for variant, manifest in build_all_five(tmp_path).items():
            transforms = list(manifest.recipe.transforms)
            assert transforms == list(VARIANT_TABLE[variant].transforms)
            for record in manifest.records:
                steps = [transform_of(step) for step in record.lineage]
                cut = len(steps) - len(transforms)
                assert steps[cut:] == transforms, (variant, record.lineage)
                assert not any(steps[:cut]), (variant, record.lineage)

    def test_transforms_are_called_through_module_globals(self, tmp_path,
                                                          monkeypatch):
        calls = {"round_trip_translate": 0, "translate_record": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(ablations, name),
                        **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(ablations, name, counted)
        full = build_manifest(VARIANT_FULL, Gateway.mock(), small(run_seed=42))
        sources = {VARIANT_CULTURE_ONLY: full,
                   VARIANT_NO_PROPERTIES: external_corpus(tmp_path, 10)}
        # (round trips, translations): each of 50 records bounced once;
        # 10 samples to the pivot and 50 variants back; 50 variants to the
        # target.
        expected = {VARIANT_DIVERSITY_ONLY: (50, 0),
                    VARIANT_CULTURE_ONLY: (0, 60),
                    VARIANT_NO_PROPERTIES: (0, 50)}
        for variant, want in expected.items():
            calls.update(round_trip_translate=0, translate_record=0)
            build_manifest(variant, Gateway.mock(), small(run_seed=42),
                           sources.get(variant))
            assert (calls["round_trip_translate"],
                    calls["translate_record"]) == want, variant

    def test_provider_failure_in_a_transform_fails_the_build(self, full,
                                                             monkeypatch):
        gw = Gateway.mock()

        def down(texts, count):
            raise ProtocolError("paraphraser down")

        monkeypatch.setattr(gw, "paraphrase", down)
        with pytest.raises(BuildError, match="paraphrase failed for") as err:
            build_manifest(VARIANT_CULTURE_ONLY, gw, small(run_seed=42), full)
        assert err.value.achieved == 0


class RecordingTranslator(MockTranslator):
    """The mock translator at `batch_size` texts a request. Records each
    request as ((source, target), texts) in `sent` and fails the
    `fail_on`-th one, counted from 1, with a permanent error."""

    def __init__(self, batch_size=MockTranslator.batch_size, fail_on=0):
        super().__init__()
        self.batch_size, self.fail_on, self.sent = batch_size, fail_on, []

    def translate_batch(self, texts, source_lang, target_lang):
        self.sent.append(((source_lang, target_lang), list(texts)))
        if len(self.sent) == self.fail_on:
            raise ProviderError("translator down")
        return super().translate_batch(texts, source_lang, target_lang)


class RecordingParaphraser(MockParaphraser):
    """The mock paraphraser at `batch_size` texts a request, recording
    each request as (count, texts) in `sent`."""

    def __init__(self, batch_size=MockParaphraser.batch_size):
        super().__init__()
        self.batch_size, self.sent = batch_size, []

    def paraphrase_batch(self, texts, count):
        self.sent.append((count, list(texts)))
        return super().paraphrase_batch(texts, count)


def recording_gateway(batch_size=64, cache_dir=None, fail_on=0):
    gw = Gateway.mock(cache_dir=cache_dir)
    gw.translator = RecordingTranslator(batch_size, fail_on)
    gw.paraphraser = RecordingParaphraser(batch_size)
    return gw


def sent_texts(gw):
    """How many requests carried each text, per op and direction."""
    return Counter((op, leg, text)
                   for op, sent in (("translate", gw.translator.sent),
                                    ("paraphrase", gw.paraphraser.sent))
                   for leg, texts in sent for text in texts)


class TestTransformMemo:
    """Records made from one context share its passage, so a step sees
    the same text many times; it sends each distinct text in exactly one
    request, batched with the step's other texts."""

    @staticmethod
    def _build(variant, gateway, full):
        return build_manifest(variant, gateway, small(run_seed=42),
                              full if variant == VARIANT_CULTURE_ONLY
                              else None)

    @pytest.mark.parametrize("variant", [VARIANT_CULTURE_ONLY,
                                         VARIANT_DIVERSITY_ONLY])
    def test_each_distinct_request_reaches_the_gateway_once(
            self, variant, full):
        gw = recording_gateway(batch_size=8)
        self._build(variant, gw, full)
        # No text recurs across these recipes' steps: each step has its
        # own op or language direction. So once per build is once per step.
        counts = sent_texts(gw)
        assert counts
        assert set(counts.values()) == {1}
        assert max(len(texts) for _, texts in gw.translator.sent) == 8

    @pytest.mark.parametrize("variant", [VARIANT_CULTURE_ONLY,
                                         VARIANT_DIVERSITY_ONLY])
    def test_records_equal_a_build_without_the_memo(self, variant, full,
                                                    tmp_path):
        batched_gw = recording_gateway()
        batched = self._build(variant, batched_gw, full)
        # One text a request: the path that sent each distinct text alone.
        gw = recording_gateway(batch_size=1)
        plain = self._build(variant, gw, full)
        def transform_calls(gateway):
            calls = gateway.stats.snapshot()["provider_calls"]
            return calls.get("translate", 0) + calls.get("paraphrase", 0)

        assert transform_calls(gw) == len(sent_texts(gw))
        assert transform_calls(batched_gw) < transform_calls(gw)
        assert sent_texts(batched_gw) == sent_texts(gw)
        assert plain == batched
        assert (write_manifest(plain, str(tmp_path / "plain.jsonl"))
                == write_manifest(batched, str(tmp_path / "batch.jsonl")))


def distinct_records(n):
    return [replace(make_record(f"r{i}"), instruction=f"q{i}",
                    context=f"c{i}", output=f"a{i}") for i in range(n)]


class TestFailureAttribution:
    """A failed batch request fails the build with the first record, in
    step order, that has a text in it."""

    # Three records of three texts at four texts a request: the first
    # leg's requests hold r0 and r1's question, r1's rest and r2's
    # question and context, then r2's answer; a round trip's way back
    # repeats that layout on the pivot texts.
    @pytest.mark.parametrize("step,fail_on,named", [
        ("translate_pivot", 1, "r0"), ("translate_pivot", 2, "r1"),
        ("translate_pivot", 3, "r2"), ("round_trip", 2, "r1"),
        ("round_trip", 4, "r0"), ("round_trip", 5, "r1"),
        ("round_trip", 6, "r2")])
    def test_names_the_first_record_in_the_failed_request(
            self, step, fail_on, named):
        gw = recording_gateway(batch_size=4, fail_on=fail_on)
        with pytest.raises(BuildError, match=f"{step} failed for {named}: "
                                             f"translator down") as err:
            run_steps(distinct_records(3), gw, step)
        assert err.value.achieved == 0
        assert len(gw.translator.sent) == fail_on

    def test_second_request_of_a_build_step_names_a_record_in_it(
            self, full):
        gw = recording_gateway(batch_size=8, fail_on=2)
        with pytest.raises(BuildError) as err:
            build_manifest(VARIANT_CULTURE_ONLY, gw, small(run_seed=42), full)
        record_id = str(err.value).split(" failed for ")[1].split(":")[0]
        (record,) = [r for r in full.records if r.id == record_id]
        _, failed = gw.translator.sent[1]
        assert set(ablations._fields(record)) & set(failed)
        assert str(err.value).startswith(
            f"{VARIANT_CULTURE_ONLY}: translate_pivot failed for ")
        assert err.value.achieved == 0

    def test_rerun_sends_only_the_failed_request_and_later_ones(
            self, full, tmp_path):
        clean = recording_gateway(batch_size=8)
        want = build_manifest(VARIANT_CULTURE_ONLY, clean, small(run_seed=42),
                              full)
        assert len(clean.translator.sent) > 3
        failing = recording_gateway(batch_size=8, cache_dir=tmp_path,
                                    fail_on=2)
        with pytest.raises(BuildError):
            build_manifest(VARIANT_CULTURE_ONLY, failing, small(run_seed=42),
                           full)
        rerun = recording_gateway(batch_size=8, cache_dir=tmp_path)
        assert build_manifest(VARIANT_CULTURE_ONLY, rerun, small(run_seed=42),
                              full) == want
        assert rerun.translator.sent == clean.translator.sent[1:]
        assert rerun.paraphraser.sent == clean.paraphraser.sent
        assert rerun.stats.snapshot()["cache_hits"] == {"translate": 1}


class TestFiveVariantFlagMatrix:
    """The headline property table: one row per variant."""

    def test_matrix(self, tmp_path):
        got = {m.recipe.variant: (m.flags.fluency, m.flags.culture,
                                  m.flags.diversity)
               for m in build_all_five(tmp_path).values()}
        assert got == {
            "full": (True, True, True),
            "fluency_only": (True, False, False),
            "diversity_only": (False, False, True),
            "culture_only": (False, True, False),
            "no_properties": (False, False, False),
        }


def test_records_per_topic_matches_task_layout():
    assert constants.QA_PAIRS_PER_CONTEXT == 5
    assert constants.PARAPHRASE_COUNT == 4
