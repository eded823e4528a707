"""Topic acquisition: prompts, parsing, dedup, batching."""

import json

import pytest

from seedforge.errors import (GenerationExhaustedError, ParseError,
                              ValidationError)
from seedforge.config import default_config
from seedforge.pipeline import epoch_topics
from seedforge.topics import (CULTURAL, GENERAL, generate_topics,
                              normalize_topic, parse_topic_list,
                              render_topic_prompt)

DEFAULTS = default_config()


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

    def test_keep_first_within_category(self, scripted):
        gw = scripted(['["Thai food"]', '["thai  food", "Floating markets"]'])
        topics = generate_topics(GENERAL, 2, gw, DEFAULTS)
        assert [t.text for t in topics] == ["Thai food", "Floating markets"]
        assert [t.batch_id for t in topics] == [0, 1]

    def test_cross_category_collision_keeps_first(self, scripted):
        gw = scripted(['["Songkran"]', '["songkran", "Loy Krathong"]'])
        taken: set[str] = set()
        cultural = generate_topics(CULTURAL, 1, gw, DEFAULTS, taken=taken)
        general = generate_topics(GENERAL, 1, gw, DEFAULTS, taken=taken)
        assert [t.text for t in cultural] == ["Songkran"]
        assert [t.text for t in general] == ["Loy Krathong"]
        assert taken == {"songkran", "loy krathong"}

    def test_stops_at_exactly_n(self, scripted):
        gw = scripted(['["a", "b", "c"]'])
        taken: set[str] = set()
        topics = generate_topics(GENERAL, 2, gw, DEFAULTS, taken=taken)
        assert [t.text for t in topics] == ["a", "b"]
        # a topic past the count is left free for the next category
        assert taken == {"a", "b"}


class TestGeneration:
    def test_collects_requested_count(self, gateway):
        topics = generate_topics(GENERAL, 45, gateway,
                                 default_config(run_seed=1))
        assert len(topics) == 45
        assert len({normalize_topic(t.text) for t in topics}) == 45
        assert all(t.category == GENERAL for t in topics)

    def test_deterministic_for_seed(self, gateway):
        seven = default_config(run_seed=7)
        a = generate_topics(GENERAL, 30, gateway, seven)
        b = generate_topics(GENERAL, 30, gateway, seven)
        assert [t.text for t in a] == [t.text for t in b]
        c = generate_topics(GENERAL, 30, gateway, default_config(run_seed=8))
        assert [t.text for t in a] != [t.text for t in c]

    def test_start_batch_changes_output(self, gateway):
        seven = default_config(run_seed=7)
        a = generate_topics(GENERAL, 10, gateway, seven, start_batch=0)
        b = generate_topics(GENERAL, 10, gateway, seven, start_batch=1000)
        assert [t.text for t in a] != [t.text for t in b]

    def test_unparseable_batches_are_skipped(self, scripted):
        gw = scripted(["not a list",
                       json.dumps(["หนึ่ง", "สอง", "สาม"])])
        topics = generate_topics(GENERAL, 3, gw, DEFAULTS)
        assert [t.text for t in topics] == ["หนึ่ง", "สอง", "สาม"]

    def test_duplicate_only_batches_count_against_retry(self, scripted):
        same = json.dumps(["only topic"])
        gw = scripted([same] * 10, loop=True)
        with pytest.raises(GenerationExhaustedError) as err:
            generate_topics(GENERAL, 5, gw,
                            default_config(budget_retry_limit=2))
        assert err.value.collected == 1

    def test_batch_id_recorded_per_batch(self, scripted):
        gw = scripted([json.dumps(["a", "b"]), json.dumps(["c"])])
        topics = generate_topics(GENERAL, 3, gw,
                                 default_config(topics_per_batch=2))
        assert [t.batch_id for t in topics] == [0, 0, 1]

    def test_zero_topics_allowed(self, gateway):
        assert generate_topics(GENERAL, 0, gateway, DEFAULTS) == []

    def test_negative_count_rejected(self, gateway):
        with pytest.raises(ValidationError):
            generate_topics(GENERAL, -1, gateway, DEFAULTS)


def by_category(topics, category):
    return [t.text for t in topics if t.category == category]


class TestEpochTopics:
    """Epoch 0 collects cultural topics, then general ones, against one
    seen set."""

    def test_counts_satisfied_per_category(self, gateway):
        config = default_config(run_seed=11, topics_general=12,
                                topics_cultural=9)
        topics = epoch_topics(config, gateway)
        assert len(by_category(topics, GENERAL)) == 12
        assert len(by_category(topics, CULTURAL)) == 9
        texts = [normalize_topic(t.text) for t in topics]
        assert len(set(texts)) == len(texts)

    def test_deterministic(self, gateway):
        config = default_config(run_seed=3, topics_general=6,
                                topics_cultural=4)
        a = epoch_topics(config, gateway)
        b = epoch_topics(config, gateway)
        assert [t.text for t in a] == [t.text for t in b]

    CONFIG = default_config(run_seed=1, topics_general=2, topics_cultural=2)

    def test_cross_category_collisions_refill_without_repeating(self,
                                                               scripted):
        # General's "a" and "c" are already taken; its next two batches
        # bring nothing new, and the one after fills it.
        gw = scripted(['["a","b"]', '["a","c"]', '["a"]', '["c"]', '["d"]'])
        topics = epoch_topics(self.CONFIG, gw)
        assert by_category(topics, CULTURAL) == ["a", "b"]
        assert by_category(topics, GENERAL) == ["c", "d"]
        sent = [(r.prompt, r.seed) for r in gw.generator.requests]
        assert len(sent) == 5
        assert len(set(sent)) == len(sent)

    def test_barren_batches_bounded_by_retry_limit(self, scripted):
        config = default_config(run_seed=1, topics_general=2,
                                topics_cultural=2, budget_retry_limit=2)
        gw = scripted(['["a","b"]'], loop=True)
        with pytest.raises(GenerationExhaustedError,
                           match="0/2 general") as err:
            epoch_topics(config, gw)
        assert err.value.collected == 0
        # one cultural batch, then retry_limit + 1 barren general ones
        assert gw.generator.calls == 4
