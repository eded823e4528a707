"""Context acquisition: source choice, styles, wiki plumbing, fallback."""

import random
from collections import Counter

import pytest

from seedforge.config import default_config
from seedforge.contexts import (CONTEXT_STYLES, GENERATED, WIKI, ContextDoc,
                                ContextSource, acquire_context,
                                context_from_dict, context_to_dict,
                                generate_context, wiki_context)
from seedforge.errors import ValidationError
from seedforge.gateway.mock import MockWikiClient
from seedforge.gateway.types import WikiArticleRef
from seedforge.topics import GENERAL, Topic

TOPIC = Topic(text="ตลาดน้ำ", category=GENERAL)
DEFAULTS = default_config()


def drew_wiki(doc) -> bool:
    """Whether the source draw picked the wiki (a wiki miss falls back to a
    generated document, marked in provenance)."""
    return (doc.source.kind == WIKI
            or bool(doc.provenance.get("wiki_fallback")))


class TestSourceChoice:
    def test_styles_are_thirteen_distinct(self):
        assert len(CONTEXT_STYLES) == 13
        assert len(set(CONTEXT_STYLES)) == 13

    def test_extreme_probabilities(self, gateway):
        all_wiki = default_config(context_p_wiki=1.0)
        none_wiki = default_config(context_p_wiki=0.0)
        assert all(drew_wiki(acquire_context(TOPIC, gateway, all_wiki,
                                             f"k{i}"))
                   for i in range(50))
        assert not any(drew_wiki(acquire_context(TOPIC, gateway, none_wiki,
                                                 f"k{i}"))
                       for i in range(50))

    def test_half_probability_is_roughly_balanced(self, gateway):
        config = default_config(run_seed=123, context_p_wiki=0.5)
        draws = Counter(drew_wiki(acquire_context(TOPIC, gateway, config,
                                                  f"k{i}"))
                        for i in range(2000))
        assert abs(draws[True] - 1000) < 110


class TestGeneratedContexts:
    def test_document_carries_style_and_provenance(self, gateway):
        doc = generate_context(TOPIC, "poem", gateway, DEFAULTS, seed=4)
        assert doc.source.kind == GENERATED
        assert doc.source.style == "poem"
        assert doc.topic == TOPIC
        assert doc.provenance["style"] == "poem"
        assert doc.provenance["seed"] == 4
        assert doc.body.strip()

    def test_unknown_style_rejected(self, gateway):
        with pytest.raises(ValidationError):
            generate_context(TOPIC, "opera", gateway, DEFAULTS)

    def test_template_receives_topic_and_style(self, scripted):
        gw = scripted(["เนื้อหา"])
        config = default_config(temperature_context=0.5)
        doc = generate_context(TOPIC, "song", gw, config, seed=9)
        assert doc.body == "เนื้อหา"
        [request] = gw.generator.requests
        assert request.prompt == ("Generate a song related to the topic "
                                  "ตลาดน้ำ. Write in Thai.")
        assert (request.temperature, request.seed) == (0.5, 9)


class TestWikiContexts:
    def test_wiki_section_choice_is_seeded(self, gateway):
        rng1 = random.Random(99)
        rng2 = random.Random(99)
        a = wiki_context(TOPIC, gateway, rng1, DEFAULTS, seed=1)
        b = wiki_context(TOPIC, gateway, rng2, DEFAULTS, seed=1)
        assert a.body == b.body
        assert a.provenance == b.provenance

    def test_wiki_provenance_is_complete(self, gateway):
        rng = random.Random(5)
        doc = wiki_context(TOPIC, gateway, rng, DEFAULTS, seed=1)
        if doc.source.kind == WIKI:
            for key in ("title", "page_id", "search_rank", "n_candidates",
                        "n_sections"):
                assert key in doc.provenance
        else:
            assert doc.provenance.get("wiki_fallback") is True

    def test_empty_search_falls_back_to_generation(self, gateway):
        class NoHits(MockWikiClient):
            def search(self, query, limit):
                return []

        gateway.wiki = NoHits()
        doc = wiki_context(TOPIC, gateway, random.Random(1), DEFAULTS,
                           seed=2)
        assert doc.source.kind == GENERATED
        assert doc.provenance["wiki_fallback"] is True
        assert doc.topic == TOPIC

    def test_article_without_sections_falls_back(self, gateway):
        class Hollow(MockWikiClient):
            def fetch_sections(self, ref):
                return []

        gateway.wiki = Hollow()
        doc = wiki_context(TOPIC, gateway, random.Random(1), DEFAULTS,
                           seed=2)
        assert doc.source.kind == GENERATED
        assert doc.provenance["wiki_fallback"] is True

    def test_top_k_limits_search(self, gateway):
        calls = []

        class Recording(MockWikiClient):
            def search(self, query, limit):
                calls.append(limit)
                return super().search(query, limit)

        gateway.wiki = Recording()
        wiki_context(TOPIC, gateway, random.Random(1),
                     default_config(context_wiki_top_k=7), seed=0)
        assert calls == [7]


class TestAcquireContext:
    def test_key_determinism(self, gateway):
        config = default_config(run_seed=42)
        a = acquire_context(TOPIC, gateway, config, "t0001-r00")
        b = acquire_context(TOPIC, gateway, config, "t0001-r00")
        assert a.body == b.body
        assert a.source == b.source

    def test_key_independence(self, gateway):
        config = default_config(run_seed=42)
        a = acquire_context(TOPIC, gateway, config, "t0001-r00")
        b = acquire_context(TOPIC, gateway, config, "t0002-r00")
        assert (a.body, a.source) != (b.body, b.source)

    def test_p_wiki_extremes_respected(self, gateway):
        wiki_only = default_config(run_seed=1, context_p_wiki=1.0)
        gen_only = default_config(run_seed=1, context_p_wiki=0.0)
        for i in range(10):
            doc = acquire_context(TOPIC, gateway, gen_only, f"k{i}")
            assert doc.source.kind == GENERATED
            doc = acquire_context(TOPIC, gateway, wiki_only, f"k{i}")
            assert doc.source.kind == WIKI or \
                doc.provenance.get("wiki_fallback")

    def test_both_sources_appear_at_half(self, gateway):
        # Varied topics: the mock wiki's (rare) empty-search band is keyed
        # on the query, so a single unlucky topic would skew one way.
        kinds = Counter(
            acquire_context(Topic(text=f"หัวข้อ {i}", category=GENERAL),
                            gateway, default_config(run_seed=7),
                            f"n{i:03d}").source.kind
            for i in range(60))
        assert kinds[WIKI] > 5
        assert kinds[GENERATED] > 5


class TestValidationAndSerialization:
    def test_context_source_invariants(self):
        with pytest.raises(ValidationError):
            ContextSource(kind="pdf")
        with pytest.raises(ValidationError):
            ContextSource(kind=GENERATED, style="opera")
        with pytest.raises(ValidationError):
            ContextSource(kind=WIKI, title=None)
        with pytest.raises(ValidationError):
            ContextSource(kind=WIKI, title="T")
        with pytest.raises(ValidationError):
            ContextSource(kind=GENERATED, title="T", style="poem")

    @pytest.mark.parametrize("field", ["title", "section", "style"])
    def test_context_source_fields_are_strings(self, field):
        fields = {"title": "T", "section": "", "style": None, field: 5}
        with pytest.raises(TypeError, match=f"source {field} must be"):
            ContextSource(kind=WIKI, **fields)

    def test_empty_body_rejected(self):
        with pytest.raises(ValidationError):
            ContextDoc(body="  ",
                       source=ContextSource(kind=GENERATED, style="poem"),
                       topic=TOPIC)

    def test_dict_round_trip(self, gateway):
        doc = acquire_context(TOPIC, gateway, default_config(run_seed=42),
                              "t0000-r00")
        again = context_from_dict(context_to_dict(doc))
        assert again == doc

    def test_round_trip_without_topic(self):
        # every context carries its topic; a row without one is refused
        doc = ContextDoc(body="เนื้อหา",
                         source=ContextSource(kind=GENERATED, style="email"),
                         topic=TOPIC, provenance={"seed": 1})
        with pytest.raises(TypeError):
            context_from_dict({**context_to_dict(doc), "topic": None})

    def test_malformed_dict_raises(self):
        with pytest.raises(KeyError):
            context_from_dict({"body": "x"})


class TestMockWiki:
    def test_refs_have_ranks_in_order(self):
        wiki = MockWikiClient()
        rows = wiki.search("ประเพณีไทย", 5)
        assert [list(r) for r in rows] == [["title", "page_id", "rank"]] * 5
        assert [r["rank"] for r in rows] == list(range(5))

    def test_sections_include_lead(self):
        wiki = MockWikiClient()
        ref = WikiArticleRef(title="Any", page_id=1234, rank=0)
        rows = wiki.fetch_sections(ref)
        assert rows[0]["section"] == ""
        assert all(list(r) == ["body", "section", "provenance"]
                   and r["body"].strip() for r in rows)
