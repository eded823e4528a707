"""Topic acquisition: prompts, parsing, dedup, batching."""

import json

import pytest

from seedforge.errors import (GenerationExhaustedError, ParseError,
                              ValidationError)
from seedforge.topics import (CULTURAL, GENERAL, Topic, TopicSet,
                              build_topic_set, dedup_topics,
                              generate_topics, normalize_topic,
                              parse_topic_list, render_topic_prompt)


class TestPrompts:
    def test_general_prompt_text(self):
        prompt = render_topic_prompt(GENERAL, count=20)
        assert prompt == (
            "Please generate 20 completely random topics. These can be "
            "about absolutely anything from everyday conversation, advice, "
            "random thoughts, mathematics, science, history, philosophy, "
            "etc. Each topic should be a short phrase or sentence. Ensure "
            "your output is in the format of a list of strings, where each "
            "string is a topic. Your output should be one line in the "
            "aforementioned format without anything else.")

    def test_cultural_prompt_has_persona_and_lead(self):
        prompt = render_topic_prompt(CULTURAL, count=20, culture="Thai")
        assert prompt.startswith(
            "You are a native Thai person with expert knowledge of Thai "
            "culture, history, language, and customs. Ensure that "
            "everything you act, do, say, and generate matches with this "
            "fact. ")
        # the lead's wording is reproduced as-is, including "such traditions"
        assert ("Please generate 20 completely random topics relating to "
                "your culture. These can be about anything related to your "
                "culture such traditions, history, food, language, etc. "
                in prompt)
        assert prompt.endswith("without anything else.")

    def test_culture_parameter_substitutes(self):
        prompt = render_topic_prompt(CULTURAL, culture="Lao")
        assert "native Lao person" in prompt
        assert "Thai" not in prompt

    def test_unknown_category_rejected(self):
        with pytest.raises(ValidationError):
            render_topic_prompt("regional")


class TestParsing:
    def test_plain_json_list(self):
        assert parse_topic_list('["a", "b"]') == ["a", "b"]

    def test_list_with_surrounding_prose(self):
        raw = 'Sure! Here you go:\n["วัดไทย", "อาหารริมทาง"]\nEnjoy.'
        assert parse_topic_list(raw) == ["วัดไทย", "อาหารริมทาง"]

    def test_single_quotes_accepted(self):
        assert parse_topic_list("['a', 'b']") == ["a", "b"]

    def test_no_list_raises_with_raw(self):
        with pytest.raises(ParseError) as err:
            parse_topic_list("no list here at all")
        assert err.value.raw == "no list here at all"


class TestDedup:
    def test_normalize_collapses_case_and_spaces(self):
        assert normalize_topic("  Thai   Food ") == "thai food"

    def test_keep_first_within_category(self):
        topics = [Topic("Thai food", GENERAL, 0),
                  Topic("thai  food", GENERAL, 1),
                  Topic("Floating markets", GENERAL, 1)]
        kept = dedup_topics(topics)
        assert [t.text for t in kept] == ["Thai food", "Floating markets"]
        assert kept[0].batch_id == 0

    def test_cross_category_collision_keeps_first(self, caplog):
        topics = [Topic("Songkran", CULTURAL, 0),
                  Topic("songkran", GENERAL, 0)]
        kept = dedup_topics(topics)
        assert len(kept) == 1
        assert kept[0].category == CULTURAL


class TestGeneration:
    def test_collects_requested_count(self, gateway):
        topic_set = generate_topics(GENERAL, 45, gateway, seed=1)
        assert len(topic_set.topics) == 45
        assert len({normalize_topic(t.text) for t in topic_set.topics}) == 45
        assert all(t.category == GENERAL for t in topic_set.topics)

    def test_deterministic_for_seed(self, gateway):
        a = generate_topics(GENERAL, 30, gateway, seed=7)
        b = generate_topics(GENERAL, 30, gateway, seed=7)
        assert [t.text for t in a.topics] == [t.text for t in b.topics]
        c = generate_topics(GENERAL, 30, gateway, seed=8)
        assert [t.text for t in a.topics] != [t.text for t in c.topics]

    def test_start_batch_changes_output(self, gateway):
        a = generate_topics(GENERAL, 10, gateway, seed=7, start_batch=0)
        b = generate_topics(GENERAL, 10, gateway, seed=7, start_batch=1000)
        assert [t.text for t in a.topics] != [t.text for t in b.topics]

    def test_unparseable_batches_are_skipped(self, scripted):
        gw = scripted(["not a list",
                       json.dumps(["หนึ่ง", "สอง", "สาม"])])
        topic_set = generate_topics(GENERAL, 3, gw, seed=0)
        assert [t.text for t in topic_set.topics] == ["หนึ่ง", "สอง", "สาม"]

    def test_duplicate_only_batches_count_against_retry(self, scripted):
        same = json.dumps(["only topic"])
        gw = scripted([same] * 10, loop=True)
        with pytest.raises(GenerationExhaustedError) as err:
            generate_topics(GENERAL, 5, gw, seed=0, retry_limit=2)
        assert err.value.collected == 1

    def test_batch_id_recorded_per_batch(self, scripted):
        gw = scripted([json.dumps(["a", "b"]), json.dumps(["c"])])
        topic_set = generate_topics(GENERAL, 3, gw, seed=0, batch_size=2)
        assert [t.batch_id for t in topic_set.topics] == [0, 0, 1]

    def test_zero_topics_allowed(self, gateway):
        assert generate_topics(GENERAL, 0, gateway, seed=0).topics == ()

    def test_negative_count_rejected(self, gateway):
        with pytest.raises(ValidationError):
            generate_topics(GENERAL, -1, gateway, seed=0)


class TestBuildTopicSet:
    def test_counts_satisfied_per_category(self, gateway):
        merged = build_topic_set(gateway, 11, general=12, cultural=9)
        assert len(merged.by_category(GENERAL)) == 12
        assert len(merged.by_category(CULTURAL)) == 9
        texts = [normalize_topic(t.text) for t in merged.topics]
        assert len(set(texts)) == len(texts)

    def test_deterministic(self, gateway):
        a = build_topic_set(gateway, 3, general=6, cultural=4)
        b = build_topic_set(gateway, 3, general=6, cultural=4)
        assert [t.text for t in a.topics] == [t.text for t in b.topics]

    # General "a" and "c" collide with cultural ones; three one-topic
    # top-ups follow, and only the last one fills the general quota.
    COLLIDING = ['["a","b"]', '["a","c"]', '["a"]', '["c"]', '["d"]']

    def test_last_top_up_is_checked(self, scripted):
        gw = scripted(self.COLLIDING)
        merged = build_topic_set(gw, 1, general=2, cultural=2)
        assert [t.text for t in merged.by_category(GENERAL)] == ["b", "d"]
        assert [t.text for t in merged.by_category(CULTURAL)] == ["a", "c"]
        assert gw.generator.calls == 5

    def test_top_ups_bounded_by_callers_retry_limit(self, scripted):
        gw = scripted(self.COLLIDING)
        with pytest.raises(GenerationExhaustedError, match="per-category"):
            build_topic_set(gw, 1, general=2, cultural=2, retry_limit=2)
        assert gw.generator.calls == 4

    def test_by_category_partition(self):
        topic_set = TopicSet(topics=(
            Topic("a", GENERAL, 0), Topic("b", CULTURAL, 0)))
        assert [t.text for t in topic_set.by_category(CULTURAL)] == ["b"]
