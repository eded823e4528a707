"""Task generators: prompts, parsers, the shuffle, and failure handling.

The parser corpus at the bottom drives 40+ raw outputs per task through both
the bare parser and the full generator path, asserting every one of them ends
as either a valid record batch or a typed error. No exceptions leak, no
partial batches appear.
"""

import json
import random

import pytest

from seedforge import constants, instructions
from seedforge.config import default_config
from seedforge.contexts import ContextDoc, ContextSource
from seedforge.errors import GenerationError, ParseError, ValidationError
from seedforge.instructions import (CLOSED_QA, CONVERSATION, GENERATION_TASKS,
                                    MULTIPLE_CHOICE, SUMMARIZATION,
                                    GenerationFailure, InstructionRecord,
                                    McQuestion,
                                    find_ordinal_reference,
                                    generate_for_context, parse_conversation,
                                    parse_multiple_choice, parse_qa_pairs,
                                    parse_summary_payload,
                                    render_closed_qa_prompt,
                                    render_conversation_prompt,
                                    render_mc_instruction,
                                    render_multiple_choice_prompt,
                                    render_summarization_prompt,
                                    shuffle_choices)
from seedforge.seeding import derive_seed
from seedforge.topics import CULTURAL, Topic

from doubles import split_rendered_mc


def make_ctx(body="Wat Arun stands on the west bank of the Chao Phraya "
                  "river in Bangkok.",
             topic_text="วัดอรุณ"):
    return ContextDoc(
        body=body,
        source=ContextSource(kind="generated", style="blog post"),
        topic=Topic(topic_text, CULTURAL),
        provenance={"kind": "generated", "style": "blog post"},
    )


class TestPrompts:
    def test_closed_qa_prompt_verbatim(self):
        assert render_closed_qa_prompt("BODY", pairs=5) == (
            "Generate 5 questions focusing on different aspects / parts "
            "of this given context. Use only the given context to create "
            "your questions. Do not use external information. "
            "<context>BODY</context> Ensure your output is in the format "
            "of a list of dictionaries, where each dictionary contains a "
            "'question' key and an 'answer' key. Your output should be one "
            "line in the aforementioned format without anything else."
        )

    def test_closed_qa_prompt_pair_count(self):
        assert render_closed_qa_prompt("x", pairs=2).startswith(
            "Generate 2 questions")
        assert render_closed_qa_prompt("x").startswith(
            f"Generate {constants.QA_PAIRS_PER_CONTEXT} questions")

    def test_summarization_prompt_verbatim(self):
        got = render_summarization_prompt("bullet points", "Thai temples",
                                          "BODY")
        assert got == (
            "Generate a concise summary in bullet points format of the "
            "following context related to Thai temples: <context> BODY "
            "</context> Ensure your output is in the format of a dictionary "
            "with a 'summary' and 'instruction' key, where 'summary' is "
            "your summary in the specified format and 'instruction' is a "
            "sentence you would instruct someone to get this summary (for "
            "example: 'Please summarize in bullet points format the "
            "following text passage'). Your output should be one line in "
            "the aforementioned format, and in the correct language without "
            "anything else."
        )

    def test_conversation_prompt_verbatim(self):
        assert render_conversation_prompt("Thai temples") == (
            "Generate a conversation between a user and an AI assistant on "
            "the topic of Thai temples. The user's message should be a "
            "question or a statement related to Thai temples, and the AI "
            "assistant should provide a relevant, engaging response to "
            "maintain a friendly and casual conversation. The output should "
            "be in the following format: <format>Input: User's message "
            "Output: AI assistant's response</format> Ensure your output "
            "contains ONLY ONE input-output pair exactly in the specified "
            "format without any additional text."
        )

    def test_multiple_choice_prompt_verbatim(self):
        # "Explaination" spelling is part of the frozen template.
        assert render_multiple_choice_prompt("BODY") == (
            "Generate a multiple-choice question focusing on the given "
            "context. The question should only have one correct choice. "
            "Use only the given context to create your question and answer "
            "choices. Do not use external information. "
            "<context>BODY</context> DO NOT USE any ordinal information "
            "(DO NOT USE eg: first answer is correct, all of the above is "
            "correct, etc) of the choices to answer your question as the "
            "choices will be shuffled later. Ensure your output is in the "
            "following format:<format> Question: Your question Choices: - "
            "[Choice 1] - [Choice 2] - [Choice 3] - [Choice 4] Answer: "
            "[Explaination + Reasoning + Correct Answer (in this order "
            "exactly)] </format> Your output should contain ONLY ONE "
            "multiple-choice question exactly in the specified format "
            "without any additional text."
        )


class TestOrdinalDetection:
    HITS = [
        "All of the above",
        "NONE OF THE ABOVE is right",
        "both of the above",
        "the first answer looks right",
        "take the second choice",
        "the last option",
        "pick option b",
        "Choice 3 is it",
        "answer 1",
        "ทั้งหมดข้างต้น",
        "ทุกข้อข้างต้น",
        "ถูกทุกข้อ",
        "ไม่มีข้อใดถูก",
        "ไม่มีคำตอบที่ถูกต้อง",
        "ข้อแรกเลย",
        "ดูข้อสุดท้าย",
        "ตัวเลือกแรก",
        "ตัวเลือกที่ 2",
        "ตัวเลือกที่ ๓",
        "คำตอบสุดท้าย",
        "คำตอบที่ ๒",
    ]

    CLEAN = [
        "Bangkok",
        "the answer is correct",
        "firstly we note the river",
        "a fine choice overall",
        "ข้อมูลทั่วไปเกี่ยวกับแม่น้ำ",
        "คำตอบคือกรุงเทพฯ",
        "ตัวเลือกหลากหลาย",
        "options were limited",
    ]

    @pytest.mark.parametrize("text", HITS)
    def test_flagged(self, text):
        assert find_ordinal_reference([text]) is not None

    @pytest.mark.parametrize("text", CLEAN)
    def test_clean(self, text):
        assert find_ordinal_reference([text]) is None

    def test_returns_first_match_text(self):
        got = find_ordinal_reference(["Bangkok", "All of the above", "x"])
        assert got == "All of the above"
        assert find_ordinal_reference([]) is None


class TestParseQaPairs:
    def test_plain_json(self):
        raw = json.dumps([{"question": f"Q{i}?", "answer": f"A{i}"}
                          for i in range(5)])
        pairs = parse_qa_pairs(raw)
        assert pairs == [(f"Q{i}?", f"A{i}") for i in range(5)]

    def test_prose_wrapped_and_fenced(self):
        payload = '[{"question": "q?", "answer": "a"}]'
        assert parse_qa_pairs(f"Sure! {payload} done") == [("q?", "a")]
        assert parse_qa_pairs(f"```json\n{payload}\n```") == [("q?", "a")]

    def test_python_literal(self):
        raw = "[{'question': 'หนึ่ง?', 'answer': 'สอง'}]"
        assert parse_qa_pairs(raw) == [("หนึ่ง?", "สอง")]

    def test_values_stripped(self):
        raw = '[{"question": "  q?  ", "answer": " a "}]'
        assert parse_qa_pairs(raw) == [("q?", "a")]

    def test_one_bad_element_rejects_whole_list(self):
        raw = ('[{"question": "q1?", "answer": "a1"}, '
               '{"question": "q2?"}]')
        with pytest.raises(ParseError):
            parse_qa_pairs(raw)

    def test_skips_bad_span_for_later_good_one(self):
        raw = '[1, 2] [{"question": "q?", "answer": "a"}]'
        assert parse_qa_pairs(raw) == [("q?", "a")]

    def test_error_carries_raw(self):
        with pytest.raises(ParseError) as exc:
            parse_qa_pairs("nothing structured")
        assert exc.value.raw == "nothing structured"


class TestParseSummary:
    def test_plain(self):
        raw = '{"summary": "S.", "instruction": "Summarize it."}'
        assert parse_summary_payload(raw) == ("S.", "Summarize it.")

    def test_list_summary_joined(self):
        raw = '{"summary": ["- one", "- two"], "instruction": "Bullets."}'
        assert parse_summary_payload(raw) == ("- one\n- two", "Bullets.")

    def test_list_summary_drops_blank_items(self):
        raw = '{"summary": ["a", "", " ", "b"], "instruction": "i"}'
        assert parse_summary_payload(raw) == ("a\nb", "i")

    def test_skips_earlier_dict_without_keys(self):
        raw = '{"notes": "x"} {"summary": "real", "instruction": "also"}'
        assert parse_summary_payload(raw) == ("real", "also")

    def test_non_string_summary_rejected(self):
        for raw in ('{"summary": 5, "instruction": "i"}',
                    '{"summary": ["a", 5], "instruction": "i"}',
                    '{"summary": null, "instruction": "i"}'):
            with pytest.raises(ParseError):
                parse_summary_payload(raw)

    def test_missing_key_rejected(self):
        with pytest.raises(ParseError):
            parse_summary_payload('{"summary": "s"}')


class TestParseConversation:
    def test_plain(self):
        assert parse_conversation("Input: hi Output: hello") == (
            "hi", "hello")

    def test_format_tags_and_fences_stripped(self):
        raw = "<format>Input: q Output: a</format>"
        assert parse_conversation(raw) == ("q", "a")
        raw = "```\nInput: q2\nOutput: a2\n```"
        assert parse_conversation(raw) == ("q2", "a2")

    def test_multiline_sides(self):
        raw = "Input: line one\nline two\nOutput: reply one\nreply two"
        user, assistant = parse_conversation(raw)
        assert user == "line one\nline two"
        assert assistant == "reply one\nreply two"

    def test_marker_count_enforced(self):
        with pytest.raises(ParseError):
            parse_conversation("Input: a Input: b Output: c")
        with pytest.raises(ParseError):
            parse_conversation("Input: a Output: b Output: c")
        with pytest.raises(ParseError):
            parse_conversation("Input: a")

    def test_order_enforced(self):
        with pytest.raises(ParseError):
            parse_conversation("Output: a Input: q")

    def test_markers_are_case_sensitive(self):
        with pytest.raises(ParseError):
            parse_conversation("input: hi output: hello")

    def test_empty_side_rejected(self):
        with pytest.raises(ParseError):
            parse_conversation("Input: Output: reply")
        with pytest.raises(ParseError):
            parse_conversation("Input: hi Output:")


def _mc_raw(question="Which city is the Thai capital?",
            choices=("Bangkok", "Chiang Mai", "Khon Kaen", "Phuket"),
            answer="The capital sits on the Chao Phraya. "
                   "The correct answer is Bangkok."):
    lines = [f"Question: {question}", "Choices:"]
    lines += [f"- {c}" for c in choices]
    lines.append(f"Answer: {answer}")
    return "\n".join(lines)


class TestParseMultipleChoice:
    def test_canonical(self):
        q = parse_multiple_choice(_mc_raw())
        assert q.question == "Which city is the Thai capital?"
        assert q.choices == ("Bangkok", "Chiang Mai", "Khon Kaen", "Phuket")
        assert q.correct_index == 0
        assert q.answer_text.endswith("The correct answer is Bangkok.")

    def test_bracketed_choices_stripped(self):
        raw = ("Question: q?\nChoices:\n- [alpha one]\n- [beta two]\n"
               "Answer: The correct answer is beta two.")
        q = parse_multiple_choice(raw)
        assert q.choices == ("alpha one", "beta two")
        assert q.correct_index == 1

    @pytest.mark.parametrize("bullet", ["*", "•", "–"])
    def test_bullet_variants(self, bullet):
        raw = (f"Question: q?\nChoices:\n{bullet} alpha north\n"
               f"{bullet} beta south\nAnswer: beta south it is.")
        q = parse_multiple_choice(raw)
        assert q.choices == ("alpha north", "beta south")
        assert q.correct_index == 1

    def test_continuation_lines_fold_into_choice(self):
        raw = ("Question: q?\nChoices:\n- alpha item\n  extended tail\n"
               "- beta item\nAnswer: alpha item extended tail wins.")
        q = parse_multiple_choice(raw)
        assert q.choices == ("alpha item extended tail", "beta item")
        assert q.correct_index == 0

    def test_longest_match_wins(self):
        raw = ("Question: which shade?\nChoices:\n- red\n- dark red\n"
               "Answer: The correct answer is dark red.")
        assert parse_multiple_choice(raw).correct_index == 1

    def test_tie_goes_to_earliest_choice(self):
        raw = ("Question: q?\nChoices:\n- aa bb\n- bb aa\n"
               "Answer: aa bb aa")
        assert parse_multiple_choice(raw).correct_index == 0

    def test_match_is_case_insensitive(self):
        raw = _mc_raw(answer="the correct answer is BANGKOK.")
        assert parse_multiple_choice(raw).correct_index == 0

    def test_question_whitespace_collapsed(self):
        raw = ("Question: What is\nthe tallest peak?\nChoices:\n- doi "
               "inthanon\n- doi suthep\nAnswer: doi inthanon clearly.")
        q = parse_multiple_choice(raw)
        assert q.question == "What is the tallest peak?"

    def test_marker_case_insensitive(self):
        raw = ("question: q?\nchoices:\n- a1\n- b2\nanswer: b2 is right")
        assert parse_multiple_choice(raw).choices == ("a1", "b2")

    def test_duplicate_choices_validation_error(self):
        raw = ("Question: q?\nChoices:\n- same\n- same\nAnswer: same")
        with pytest.raises(ValidationError):
            parse_multiple_choice(raw)

    def test_ordinal_in_choice_validation_error(self):
        raw = ("Question: q?\nChoices:\n- Bangkok\n- all of the above\n"
               "Answer: Bangkok")
        with pytest.raises(ValidationError):
            parse_multiple_choice(raw)

    def test_ordinal_in_answer_validation_error(self):
        raw = _mc_raw(answer="The first choice is correct.")
        with pytest.raises(ValidationError):
            parse_multiple_choice(raw)

    def test_unresolvable_answer_parse_error(self):
        raw = ("Question: q?\nChoices:\n- alpha\n- beta\n"
               "Answer: gamma entirely")
        with pytest.raises(ParseError):
            parse_multiple_choice(raw)

    def test_single_line_output_is_rejected(self):
        # Inline "- a - b" reads as one choice line; too few choices.
        raw = "Question: q Choices: - a - b Answer: a"
        with pytest.raises(ParseError):
            parse_multiple_choice(raw)

    def test_block_order_enforced(self):
        raw = "Choices:\n- a1\n- b2\nQuestion: q?\nAnswer: a1"
        with pytest.raises(ParseError):
            parse_multiple_choice(raw)
        raw = "Question: q?\nAnswer: a1\nChoices:\n- a1\n- b2"
        with pytest.raises(ParseError):
            parse_multiple_choice(raw)

    def test_non_choice_lead_line_rejected(self):
        raw = ("Question: q?\nChoices:\nhere they come\n- a1\n- b2\n"
               "Answer: a1")
        with pytest.raises(ParseError):
            parse_multiple_choice(raw)


class TestMcQuestionValidation:
    def ok(self, **kw):
        base = dict(question="q?", choices=("a1", "b2", "c3", "d4"),
                    answer_text="c3 is right", correct_index=2)
        base.update(kw)
        return McQuestion(**base)

    def test_valid_constructs(self):
        q = self.ok()
        assert q.choices[q.correct_index] == "c3"

    @pytest.mark.parametrize("kw", [
        {"choices": ("only",)},
        {"choices": ("a1", "")},
        {"choices": ("a1", "two\nlines")},
        {"choices": ("same", "same")},
        {"choices": ("a1", "all of the above")},
        {"correct_index": 4},
        {"correct_index": -1},
        {"question": "  "},
        {"answer_text": ""},
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValidationError):
            self.ok(**kw)


class TestShuffle:
    QUESTION = McQuestion(question="q?",
                          choices=("a1", "b2", "c3", "d4"),
                          answer_text="the right one is c3",
                          correct_index=2)

    def test_remap_preserves_correct_text(self):
        for seed in range(300):
            got = shuffle_choices(self.QUESTION, random.Random(seed))
            assert sorted(got.choices) == sorted(self.QUESTION.choices)
            assert got.choices[got.correct_index] == "c3"
            assert got.answer_text == self.QUESTION.answer_text
            assert got.question == self.QUESTION.question

    def test_deterministic_under_seed(self):
        a = shuffle_choices(self.QUESTION, random.Random(9))
        b = shuffle_choices(self.QUESTION, random.Random(9))
        assert a == b

    def test_all_permutations_reachable(self):
        perms = {shuffle_choices(self.QUESTION, random.Random(s)).choices
                 for s in range(2000)}
        assert len(perms) == 24

    def test_render_split_are_inverses(self):
        inst = render_mc_instruction(self.QUESTION)
        assert inst == "q?\n- a1\n- b2\n- c3\n- d4"
        assert split_rendered_mc(inst) == ("q?",
                                           ("a1", "b2", "c3", "d4"))

    def test_split_rejects_malformed_renders(self):
        with pytest.raises(ParseError):
            split_rendered_mc("just a question, no choices")
        with pytest.raises(ParseError):
            split_rendered_mc("- a1\n- b2")
        with pytest.raises(ParseError):
            split_rendered_mc("q?\n- a1\ntrailing prose")


class TestRecordValidation:
    def ok(self, **kw):
        base = dict(id="t0000-r00-closed_qa-00", task=CLOSED_QA,
                    instruction="q?", context="ctx", output="a",
                    topic=Topic("x", CULTURAL), language="th")
        base.update(kw)
        return InstructionRecord(**base)

    def test_valid(self):
        assert self.ok().lineage == ("generated",)

    @pytest.mark.parametrize("kw", [
        {"task": "poetry"},
        {"id": ""},
        {"instruction": "  "},
        {"output": ""},
        {"context": None},                       # context task needs one
        {"task": CONVERSATION, "context": "c"},  # topic task must not
        {"language": ""},
    ])
    def test_invalid(self, kw):
        with pytest.raises(ValidationError):
            self.ok(**kw)


VALID_QA_5 = json.dumps([{"question": f"Q{i}?", "answer": f"A{i}"}
                         for i in range(5)])
SEVEN = default_config(run_seed=7)
VALID_SUMMARY = '{"summary": "S.", "instruction": "Summarize."}'
VALID_CONV = "Input: hi there Output: hello back"
VALID_MC = _mc_raw()


def generate(ctx, gateway, config, key, task):
    """Records of one task; GenerationError when the task fails twice."""
    records, failures = generate_for_context(ctx, gateway, config, key,
                                             tasks=(task,))
    if failures:
        raise GenerationError(failures[0].reason)
    return records


class TestGenerators:
    def test_closed_qa_against_mock(self, gateway):
        ctx = make_ctx()
        records = generate(ctx, gateway, SEVEN, "t0001-r00", CLOSED_QA)
        assert [r.id for r in records] == [
            f"t0001-r00-closed_qa-{i:02d}" for i in range(5)]
        for rec in records:
            assert rec.task == CLOSED_QA
            assert rec.context == ctx.body
            assert rec.topic == ctx.topic
            assert rec.language == constants.TARGET_LANGUAGE
            assert rec.provenance["temperature"] == (
                constants.TEMPERATURE_CLOSED_QA)
            assert rec.provenance["attempt"] == 0
            assert rec.provenance["context"] == ctx.provenance

    def test_closed_qa_pair_count_override(self, scripted):
        payload = json.dumps([{"question": "q?", "answer": "a"},
                              {"question": "q2?", "answer": "b"}])
        gw = scripted([payload])
        records = generate(make_ctx(), gw,
                           default_config(run_seed=7, tasks_qa_pairs=2),
                           "t0001-r00", CLOSED_QA)
        assert len(records) == 2

    def test_closed_qa_wrong_count_fails_whole_batch(self, scripted):
        three = json.dumps([{"question": f"q{i}?", "answer": "a"}
                            for i in range(3)])
        gw = scripted([three, three])
        with pytest.raises(GenerationError):
            generate(make_ctx(), gw, SEVEN, "t0001-r00", CLOSED_QA)
        assert gw.generator.calls == 2

    def test_retry_succeeds_on_second_attempt(self, scripted):
        gw = scripted(["garbage with no list", VALID_QA_5])
        records = generate(make_ctx(), gw, SEVEN, "t0001-r00", CLOSED_QA)
        assert len(records) == 5
        assert records[0].provenance["attempt"] == 1
        assert records[0].provenance["seed"] == derive_seed(
            7, "t0001-r00", CLOSED_QA, 1)
        assert gw.generator.calls == 2

    def test_retry_exhaustion_raises(self, scripted):
        gw = scripted(["junk", "more junk"])
        with pytest.raises(GenerationError, match="failed twice"):
            generate(make_ctx(), gw, SEVEN, "t0001-r00", CLOSED_QA)

    def test_summarization_against_mock(self, gateway):
        ctx = make_ctx()
        (rec,) = generate(ctx, gateway, SEVEN, "t0001-r00", SUMMARIZATION)
        assert rec.id == "t0001-r00-summarization-00"
        style = rec.provenance["summary_style"]
        assert style in constants.SUMMARY_STYLES
        assert style in rec.instruction
        assert rec.context == ctx.body
        assert rec.provenance["temperature"] == (
            constants.TEMPERATURE_SUMMARIZATION)

    def test_conversation_against_mock(self, gateway):
        ctx = make_ctx(topic_text="อาหารไทย")
        (rec,) = generate(ctx, gateway, SEVEN, "t0002-r00", CONVERSATION)
        assert rec.id == "t0002-r00-conversation-00"
        assert rec.context is None
        assert rec.topic == ctx.topic
        assert rec.instruction and rec.output
        assert rec.provenance["temperature"] == (
            constants.TEMPERATURE_CONVERSATION)

    def test_multiple_choice_against_mock(self, gateway):
        (rec,) = generate(make_ctx(), gateway, SEVEN, "t0003-r00",
                          MULTIPLE_CHOICE)
        _, choices = split_rendered_mc(rec.instruction)
        assert len(choices) == 4
        # The resolved choice must sit inside the answer text.
        norm = " ".join(rec.output.split()).casefold()
        assert " ".join(
            choices[rec.provenance["correct_index"]].split()
        ).casefold() in norm
        assert rec.provenance["temperature"] == (
            constants.TEMPERATURE_MULTIPLE_CHOICE)

    def test_mc_record_round_trip(self, scripted):
        question = parse_multiple_choice(VALID_MC)
        (rec,) = generate(make_ctx(), scripted([VALID_MC]), SEVEN,
                          "t0003-r00", MULTIPLE_CHOICE)
        shuffled = shuffle_choices(question, random.Random(
            derive_seed(7, "t0003-r00", "mc-shuffle")))
        got_q, got_choices = split_rendered_mc(rec.instruction)
        assert got_q == shuffled.question
        assert got_choices == shuffled.choices
        assert rec.provenance["correct_index"] == shuffled.correct_index
        assert got_choices[rec.provenance["correct_index"]] == (
            question.choices[question.correct_index])
        assert rec.output == question.answer_text

    def test_generate_for_context_full_set(self, gateway):
        records, failures = generate_for_context(make_ctx(), gateway, SEVEN,
                                                 "t0004-r00")
        assert failures == []
        assert len(records) == constants.QA_PAIRS_PER_CONTEXT + 3
        assert len({r.id for r in records}) == len(records)
        by_task = {}
        for rec in records:
            by_task.setdefault(rec.task, []).append(rec)
            assert rec.id.startswith("t0004-r00-")
        assert len(by_task[CLOSED_QA]) == constants.QA_PAIRS_PER_CONTEXT
        assert len(by_task[SUMMARIZATION]) == 1
        assert len(by_task[CONVERSATION]) == 1
        assert len(by_task[MULTIPLE_CHOICE]) == 1

    def test_generate_for_context_deterministic(self):
        from seedforge.gateway import Gateway
        a, _ = generate_for_context(make_ctx(), Gateway.mock(), SEVEN,
                                    "t0004-r00")
        b, _ = generate_for_context(make_ctx(), Gateway.mock(), SEVEN,
                                    "t0004-r00")
        assert a == b

    def test_generate_for_context_seed_divergence(self):
        from seedforge.gateway import Gateway
        a, _ = generate_for_context(make_ctx(), Gateway.mock(), SEVEN,
                                    "t0004-r00")
        b, _ = generate_for_context(make_ctx(), Gateway.mock(),
                                    default_config(run_seed=8), "t0004-r00")
        assert [r.instruction for r in a] != [r.instruction for r in b]

    def test_failures_collected_not_raised(self, scripted):
        gw = scripted([VALID_QA_5, VALID_SUMMARY,
                       "not a conversation", "still not one",
                       VALID_MC])
        records, failures = generate_for_context(make_ctx(), gw, SEVEN,
                                                 "t0005-r00")
        assert len(records) == 7
        assert CONVERSATION not in {r.task for r in records}
        assert len(failures) == 1
        failure = failures[0]
        assert isinstance(failure, GenerationFailure)
        assert failure.task == CONVERSATION
        assert failure.key == "t0005-r00"
        assert failure.topic_text == "วัดอรุณ"
        assert failure.reason

    def test_task_subset(self, gateway):
        records, failures = generate_for_context(
            make_ctx(), gateway, SEVEN, "t0006-r00", tasks=(CONVERSATION,))
        assert failures == []
        assert [r.task for r in records] == [CONVERSATION]

    def test_unknown_task_rejected(self, scripted):
        gw = scripted([VALID_CONV])
        with pytest.raises(ValidationError, match="poetry"):
            generate_for_context(make_ctx(), gw, SEVEN, "t0007-r00",
                                 tasks=(CONVERSATION, "poetry"))
        assert gw.generator.calls == 0

    def test_repeated_task_rejected_before_any_call(self, scripted):
        gw = scripted([VALID_QA_5], loop=True)
        with pytest.raises(ValidationError, match="repeated task"):
            generate_for_context(make_ctx(), gw, SEVEN, "t0007-r00",
                                 tasks=(CLOSED_QA, CLOSED_QA))
        assert gw.generator.calls == 0

    def test_context_without_topic_rejected(self):
        # the topic is a required field, so no task ever sees a bare context
        with pytest.raises(TypeError, match="topic"):
            ContextDoc(body="text",
                       source=ContextSource(kind="generated", style="poem"))

    def test_parsers_called_through_module_attributes(self, gateway,
                                                      monkeypatch):
        # Tracing wraps the module attributes; a parser held anywhere else
        # would hide its calls from the wrapper.
        calls = {}
        for name in ("parse_qa_pairs", "parse_summary_payload",
                     "parse_conversation", "parse_multiple_choice"):
            def counting(raw, _name=name, _fn=getattr(instructions, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(raw)
            monkeypatch.setattr(instructions, name, counting)
        records, failures = generate_for_context(make_ctx(), gateway, SEVEN,
                                                 "t0009-r00")
        assert failures == []
        assert calls == {"parse_qa_pairs": 1, "parse_summary_payload": 1,
                         "parse_conversation": 1,
                         "parse_multiple_choice": 1}


# -- parser corpus -----------------------------------------------------------
# Raw model outputs, 40+ per task, mixing well-formed payloads with every
# malformation seen in the wild. Each must yield either a valid parse or a
# typed error; anything else is a bug.

_NOISE = [
    "",
    "   \n\t  ",
    "no structure here at all",
    "```json\n```",
    "[[[[[",
    "}}}}{{{{",
    "Input Output Question Choices Answer",
    "\x00\x01\x02",
    "๔๒ เท่านั้น",
    "🙂 🙂 🙂 🙂",
]


def _qa_payload(n, tag=""):
    return json.dumps([{"question": f"คำถาม{tag}{i}?",
                        "answer": f"คำตอบ{tag}{i}"} for i in range(n)],
                      ensure_ascii=False)


QA_VALID = [
    _qa_payload(5),
    f"Here are the questions: {_qa_payload(5, 'x')} hope that helps!",
    "```json\n" + _qa_payload(5, "f") + "\n```",
    "[{'question': 'ข้าวเหนียวคืออะไร?', 'answer': 'ข้าวชนิดหนึ่ง'}, "
    "{'question': 'สองบวกสอง?', 'answer': 'สี่'}]",
    json.dumps([{"question": f"Q{i}?", "answer": f"A{i}", "difficulty": i}
                for i in range(5)]),
    '[{"question": "What is [x] here?", "answer": "a [b] c"}]',
    "[1, 2] " + _qa_payload(5, "y"),
    json.dumps([{"question": f"Q{i}?", "answer": f"A{i}"}
                for i in range(5)], indent=2),
    '[{"question": "  padded?  ", "answer": " yes "}]',
] + [_qa_payload(n, "n") for n in (1, 2, 3, 4, 6, 7, 8, 9, 10)]

QA_INVALID = [
    "no brackets here",
    "[]",
    "[1, 2, 3]",
    '["just", "plain", "strings"]',
    '[{"question": "q"}]',
    '[{"answer": "a"}]',
    '[{"question": "q", "answer": ""}]',
    '[{"question": "q", "answer": 42}]',
    '[{"question": "q", "answer": "a"}, {"question": "q2"}]',
    '[{"question": "q", "answer": "a"}',
    '{"question": "q", "answer": "a"}',
    '[{"Question": "q", "Answer": "a"}]',
    "[{'question': 'q' 'answer': 'a'}]",
    "text [ more",
    "[{}]",
] + _NOISE

SUM_VALID = [
    '{"summary": "Short.", "instruction": "Summarize it."}',
    'Sure! {"summary": "S1", "instruction": "I1"} done.',
    '```json\n{"summary": "S2", "instruction": "I2"}\n```',
    "{'summary': 'สั้นมาก', 'instruction': 'สรุปหน่อย'}",
    '{"summary": ["- one", "- two"], "instruction": "Bullet it."}',
    '{"summary": "S", "instruction": "I", "extra": 3}',
    '{"summary": "a {brace} inside", "instruction": "do {it}"}',
    '{"notes": "x"} {"summary": "real", "instruction": "real too"}',
    json.dumps({"summary": "S3", "instruction": "I3"}, indent=2),
    '{"summary": "He said \\"hi\\".", "instruction": "quote it"}',
    '{"summary": ["a", "", "b"], "instruction": "keep going"}',
    '{"instruction": "order swapped", "summary": "fine"}',
    '{"summary": "สรุปไทย", "instruction": "โปรดสรุป"}',
    '   {"summary": "padded", "instruction": "strip me"}   ',
    '```\n{"summary": "fence no lang", "instruction": "ok"}\n```',
    '{"summary": "line1\\nline2", "instruction": "multi"}',
    '{"summary": "first", "instruction": "one"} '
    '{"summary": "second", "instruction": "two"}',
    '{"a": 1} garbage {"summary": "late", "instruction": "ok"}',
]

SUM_INVALID = [
    "no braces",
    "{}",
    '{"summary": "s"}',
    '{"instruction": "i"}',
    '{"summary": "", "instruction": "i"}',
    '{"summary": ["", "  "], "instruction": "i"}',
    '{"summary": 5, "instruction": "i"}',
    '{"summary": ["a", 5], "instruction": "i"}',
    '{"summary": "s", "instruction": ["i"]}',
    '{"summary": "s", "instruction": "i"',
    '["summary", "instruction"]',
    "summary: s instruction: i",
    '{"summary" "s"}',
    "{'summary': s}",
    '{"summary": null, "instruction": "i"}',
    '{"summary": {"nested": "s"}, "instruction": "i"}',
] + _NOISE

CONV_VALID = [
    "Input: สวัสดีครับ Output: สวัสดีค่ะ มีอะไรให้ช่วยไหม",
    "<format>Input: q Output: a</format>",
    "```\nInput: fenced q\nOutput: fenced a\n```",
    "Input: line one\nline two\nOutput: reply one\nreply two",
    "Input : spaced colon Output : spaced reply",
    "Input:tight Output:reply",
    "Sure thing! Input: lead-in Output: after",
    "Input: what is input data? Output: the input is whatever arrives.",
    "Input:\thi there\nOutput:\ttabbed reply",
    "Input: hi\r\nOutput: crlf reply",
    "Input: อาหารไทยจานโปรด? Output: ผัดไทยครับ 🙂",
    "Input: a? Output: b!",
    "Input: ❓ Output: ✅",
    "Input: 1 Output: 2",
    "noise Input: q Output: a with trailing stuff kept",
    "Input:: double colon Output:: reply",
    "```Input: x``` Output: y",
]

CONV_INVALID = [
    "Input: hi",
    "Output: hello",
    "Output: a Input: q",
    "Input: a Input: b Output: c",
    "Input: a Output: b Output: c",
    "Input: a Output: b Input: again",
    "Input: Output: reply",
    "Input: hi Output:",
    "input: hi output: hello",
    "INPUT: hi OUTPUT: hello",
    "Inputs: hi Outputs: hello",
    "just prose with no markers",
    "<format></format>",
    "Output:",
    "Input:",
] + _NOISE

MC_VALID = [
    _mc_raw(),
    "Question: q?\nChoices:\n- [alpha one]\n- [beta two]\n"
    "- [gamma three]\n- [delta four]\n"
    "Answer: The correct answer is beta two.",
    "Question: q?\nChoices:\n* alpha north\n* beta south\n"
    "Answer: beta south it is.",
    "Question: q?\nChoices:\n• east gate\n• west gate\n"
    "Answer: west gate opens late.",
    "Question: q?\nChoices:\n– high road\n– low road\n"
    "Answer: take the high road.",
    "Question: q?\nChoices:\n- alpha item\n  extended tail\n- beta item\n"
    "Answer: alpha item extended tail wins.",
    "Question: เมืองหลวงของไทยคือเมืองใด\nChoices:\n- กรุงเทพฯ\n"
    "- เชียงใหม่\n- ขอนแก่น\n- ภูเก็ต\nAnswer: คำตอบคือ กรุงเทพฯ",
    "Question: binary?\nChoices:\n- yes indeed\n- no thanks\n"
    "Answer: yes indeed.",
    "question: q?\nchoices:\n- a1\n- b2\nanswer: b2 is right",
    "```\n" + _mc_raw() + "\n```",
    "<format>\n" + _mc_raw() + "\n</format>",
    "Question: which shade?\nChoices:\n- red\n- dark red\n"
    "Answer: The correct answer is dark red.",
    "Question: q?\nChoices:\n- aa bb\n- bb aa\nAnswer: aa bb aa",
    _mc_raw(answer="Rivers shaped the city.\nTrade built it.\n"
                   "The correct answer is Bangkok."),
    "Question: q?\nChoices:\n- a   b\n- c   d\nAnswer: c d holds.",
    _mc_raw(answer="[Because of geography, the correct answer is "
                   "Bangkok]"),
    "Question: pick one\nChoices:\n- one star\n- two stars\n"
    "- three stars\n- four stars\n- five stars\n- six stars\n"
    "Answer: three stars exactly.",
    "Question: What is\nthe tallest peak?\nChoices:\n- doi inthanon\n"
    "- doi suthep\nAnswer: doi inthanon clearly.",
    "Question: q?\nChoices:\n\n- gap before\n\n- gap after\n\n"
    "Answer: gap before.",
    _mc_raw(answer="the correct answer is BANGKOK."),
]

MC_INVALID = [
    "no markers at all",
    "Question: q Choices: - a - b Answer: a",
    "Question: one\nQuestion: two\nChoices:\n- a1\n- b2\nAnswer: a1",
    "Choices:\n- a1\n- b2\nQuestion: q?\nAnswer: a1",
    "Question: q?\nAnswer: a1\nChoices:\n- a1\n- b2",
    "Question: q?\nChoices:\n- a1\n- b2",
    "Question: q?\nAnswer: a1",
    "Question:\nChoices:\n- a1\n- b2\nAnswer: a1",
    "Question: q?\nChoices:\n- a1\n- b2\nAnswer:",
    "Question: q?\nChoices:\n- same\n- same\nAnswer: same",
    "Question: q?\nChoices:\n- Bangkok\n- all of the above\n"
    "Answer: Bangkok",
    _mc_raw(answer="The first choice is correct."),
    "Question: q?\nChoices:\n- ถูกทุกข้อ\n- กรุงเทพฯ\nAnswer: กรุงเทพฯ",
    "Question: q?\nChoices:\n- กรุงเทพฯ\n- เชียงใหม่\n"
    "Answer: คำตอบที่ ๒ ถูกต้อง",
    "Question: q?\nChoices:\n- alpha\n- beta\nAnswer: gamma entirely",
    "Question: q?\nChoices:\nhere they come\n- a1\n- b2\nAnswer: a1",
    "Question: q?\nChoices:\n- \n-\nAnswer: a1",
    "Question: q?\nChoices:\n- only one\nAnswer: only one",
    "Answer:",
    "Choices:",
    "Question:",
] + _NOISE

CORPUS = {
    CLOSED_QA: QA_VALID + QA_INVALID,
    SUMMARIZATION: SUM_VALID + SUM_INVALID,
    CONVERSATION: CONV_VALID + CONV_INVALID,
    MULTIPLE_CHOICE: MC_VALID + MC_INVALID,
}

PARSERS = {
    CLOSED_QA: parse_qa_pairs,
    SUMMARIZATION: parse_summary_payload,
    CONVERSATION: parse_conversation,
    MULTIPLE_CHOICE: parse_multiple_choice,
}

LABELED = {
    CLOSED_QA: (QA_VALID, QA_INVALID),
    SUMMARIZATION: (SUM_VALID, SUM_INVALID),
    CONVERSATION: (CONV_VALID, CONV_INVALID),
    MULTIPLE_CHOICE: (MC_VALID, MC_INVALID),
}


def _assert_parse_shape(task, value):
    if task == CLOSED_QA:
        assert isinstance(value, list) and value
        for q, a in value:
            assert isinstance(q, str) and q.strip()
            assert isinstance(a, str) and a.strip()
    elif task in (SUMMARIZATION, CONVERSATION):
        a, b = value
        assert isinstance(a, str) and a.strip()
        assert isinstance(b, str) and b.strip()
    else:
        assert isinstance(value, McQuestion)
        norm = " ".join(value.answer_text.split()).casefold()
        assert " ".join(
            value.choices[value.correct_index].split()
        ).casefold() in norm


class TestParserCorpus:
    @pytest.mark.parametrize("task", GENERATION_TASKS)
    def test_corpus_is_large_enough(self, task):
        assert len(CORPUS[task]) >= 40

    @pytest.mark.parametrize("task", GENERATION_TASKS)
    def test_labeled_outcomes(self, task):
        valid, invalid = LABELED[task]
        parser = PARSERS[task]
        for i, raw in enumerate(valid):
            value = parser(raw)     # must not raise
            _assert_parse_shape(task, value)
        for i, raw in enumerate(invalid):
            with pytest.raises((ParseError, ValidationError)):
                parser(raw)
                pytest.fail(f"{task} invalid fixture {i} parsed: {raw!r}")

    @pytest.mark.parametrize("task", GENERATION_TASKS)
    def test_generator_path_never_leaks_or_partials(self, task, scripted):
        config = default_config(run_seed=11)
        for i, raw in enumerate(CORPUS[task]):
            gw = scripted([raw, raw])
            records, failures = generate_for_context(
                make_ctx(), gw, config, "t0000-r00", tasks=(task,))
            label = f"{task} fixture {i}: {raw[:50]!r}"
            assert bool(records) != bool(failures), label
            for rec in records:
                assert isinstance(rec, InstructionRecord), label
                assert rec.task == task, label
                assert rec.id.startswith(f"t0000-r00-{task}"), label
            if task == CLOSED_QA and records:
                # All five or nothing; never a partial batch.
                assert len(records) == config.tasks_qa_pairs, label
            if task == MULTIPLE_CHOICE and records:
                rec = records[0]
                _, choices = split_rendered_mc(rec.instruction)
                picked = choices[rec.provenance["correct_index"]]
                norm = " ".join(rec.output.split()).casefold()
                assert " ".join(picked.split()).casefold() in norm, label
            if failures:
                assert failures[0].task == task, label
