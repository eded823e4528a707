"""Instruction generation: the body of the instructions stage.

Four tasks turn a topic plus (for three of them) a context document into
instruction records: closed question answering, summarization, a single
conversation turn, and multiple choice. `_TASKS` maps each task to its
fixed prompt, its temperature and a parser that turns the provider's output
into record rows. `generate_for_context` runs every task the same way: it
calls the provider, parses the output leniently, retries once under a fresh
seed, and builds the records in one place. A task that still fails is
logged as a failure, so a context never yields partial records for it.
`generate_records` runs it over a list of keyed contexts.
"""

from __future__ import annotations

import hashlib
import logging
import random
import re
from dataclasses import dataclass, field, replace

from seedforge import constants
from seedforge.config import PipelineConfig
from seedforge.contexts import ContextDoc, parallel_map
from seedforge.errors import (GenerationError, ParseError, ValidationError)
from seedforge.gateway.types import GenRequest
from seedforge.parsing import (extract_dict_list, first_picked,
                               strip_code_fences)
from seedforge.seeding import derive_seed
from seedforge.topics import Topic

logger = logging.getLogger(__name__)

CLOSED_QA = "closed_qa"
SUMMARIZATION = "summarization"
CONVERSATION = "conversation"
MULTIPLE_CHOICE = "multiple_choice"
GENERATION_TASKS = (CLOSED_QA, SUMMARIZATION, CONVERSATION, MULTIPLE_CHOICE)

# Tasks whose records must carry the context they were generated from.
CONTEXT_TASKS = frozenset({CLOSED_QA, SUMMARIZATION, MULTIPLE_CHOICE})

# Wording that leaks choice position into a question or answer. Choices get
# shuffled after generation, so any of these invalidates the sample.
ORDINAL_PATTERNS = (
    r"all of the above",
    r"none of the above",
    r"both of the above",
    r"\b(?:first|second|third|fourth|last)\s+(?:answer|choice|option)",
    r"\b(?:choice|option|answer)\s+(?:[a-d]|[1-4])\b",
    r"ทั้งหมดข้างต้น",
    r"ทุกข้อข้างต้น",
    r"ถูกทุกข้อ",
    r"ไม่มีข้อใดถูก",
    r"ไม่มีคำตอบที่ถูกต้อง",
    r"ข้อแรก",
    r"ข้อสุดท้าย",
    r"ตัวเลือก(?:แรก|สุดท้าย|ที่\s*[1-4๑-๔])",
    r"คำตอบ(?:แรก|สุดท้าย|ที่\s*[1-4๑-๔])",
)
_ORDINAL_RE = re.compile("|".join(f"(?:{p})" for p in ORDINAL_PATTERNS),
                         re.IGNORECASE)


@dataclass(frozen=True)
class InstructionRecord:
    id: str
    task: str
    instruction: str
    context: str | None
    output: str
    topic: Topic
    language: str
    lineage: tuple[str, ...] = ("generated",)
    provenance: dict = field(default_factory=dict)
    flags: dict | None = None

    def __post_init__(self):
        for name in ("id", "instruction", "output", "language"):
            if not isinstance(getattr(self, name), str):
                raise TypeError(f"record {name} must be a string")
        if self.context is not None and not isinstance(self.context, str):
            raise TypeError("record context must be a string or null")
        if self.task not in GENERATION_TASKS:
            raise ValidationError(f"unknown task {self.task!r}")
        if not self.id:
            raise ValidationError("record id must be non-empty")
        if not self.instruction or not self.instruction.strip():
            raise ValidationError("instruction must be non-empty")
        if not self.output or not self.output.strip():
            raise ValidationError("output must be non-empty")
        if self.task in CONTEXT_TASKS:
            if not self.context or not self.context.strip():
                raise ValidationError(f"{self.task} records require a context")
        elif self.context is not None:
            raise ValidationError(f"{self.task} records must not carry a "
                                  f"context")
        if not self.language:
            raise ValidationError("language tag must be non-empty")


@dataclass(frozen=True)
class McQuestion:
    question: str
    choices: tuple[str, ...]
    answer_text: str
    correct_index: int

    def __post_init__(self):
        if not self.question.strip():
            raise ValidationError("question must be non-empty")
        if len(self.choices) < 2:
            raise ValidationError("need at least two choices")
        if any(not c.strip() or "\n" in c for c in self.choices):
            raise ValidationError("choices must be non-empty single lines")
        if len(set(self.choices)) != len(self.choices):
            raise ValidationError("duplicate choices break the single "
                                  "correct answer guarantee")
        if not 0 <= self.correct_index < len(self.choices):
            raise ValidationError(
                f"correct_index {self.correct_index} out of range")
        if not self.answer_text.strip():
            raise ValidationError("answer text must be non-empty")
        hit = find_ordinal_reference(self.choices + (self.answer_text,))
        if hit:
            raise ValidationError(f"ordinal wording {hit!r} in a choice or "
                                  f"the answer")


@dataclass(frozen=True)
class GenerationFailure:
    """A context/task pair that produced nothing usable after its retry."""

    task: str
    key: str
    topic_text: str
    reason: str


def find_ordinal_reference(texts) -> str | None:
    """Return the first ordinal phrase found in any of the texts, if any."""
    for text in texts:
        match = _ORDINAL_RE.search(text)
        if match:
            return match.group(0)
    return None


# -- prompt rendering -------------------------------------------------------

def render_closed_qa_prompt(context_body: str,
                            pairs: int = constants.QA_PAIRS_PER_CONTEXT) -> str:
    return (
        f"Generate {pairs} questions focusing on different aspects / parts "
        "of this given context. Use only the given context to create your "
        "questions. Do not use external information. "
        f"<context>{context_body}</context> Ensure your output is in the "
        "format of a list of dictionaries, where each dictionary contains a "
        "'question' key and an 'answer' key. Your output should be one line "
        "in the aforementioned format without anything else."
    )


def render_summarization_prompt(style: str, topic_text: str,
                                context_body: str) -> str:
    return (
        f"Generate a concise summary in {style} format of the following "
        f"context related to {topic_text}: <context> {context_body} "
        "</context> Ensure your output is in the format of a dictionary with "
        "a 'summary' and 'instruction' key, where 'summary' is your summary "
        "in the specified format and 'instruction' is a sentence you would "
        "instruct someone to get this summary (for example: 'Please "
        f"summarize in {style} format the following text passage'). Your "
        "output should be one line in the aforementioned format, and in the "
        "correct language without anything else."
    )


def render_conversation_prompt(topic_text: str) -> str:
    return (
        "Generate a conversation between a user and an AI assistant on the "
        f"topic of {topic_text}. The user's message should be a question or "
        f"a statement related to {topic_text}, and the AI assistant should "
        "provide a relevant, engaging response to maintain a friendly and "
        "casual conversation. The output should be in the following format: "
        "<format>Input: User's message Output: AI assistant's response"
        "</format> Ensure your output contains ONLY ONE input-output pair "
        "exactly in the specified format without any additional text."
    )


def render_multiple_choice_prompt(context_body: str) -> str:
    # "Explaination" is intentional; the generators were tuned with this
    # exact wording.
    return (
        "Generate a multiple-choice question focusing on the given context. "
        "The question should only have one correct choice. Use only the "
        "given context to create your question and answer choices. Do not "
        f"use external information. <context>{context_body}</context> DO "
        "NOT USE any ordinal information (DO NOT USE eg: first answer is "
        "correct, all of the above is correct, etc) of the choices to "
        "answer your question as the choices will be shuffled later. Ensure "
        "your output is in the following format:<format> Question: Your "
        "question Choices: - [Choice 1] - [Choice 2] - [Choice 3] - "
        "[Choice 4] Answer: [Explaination + Reasoning + Correct Answer (in "
        "this order exactly)] </format> Your output should contain ONLY ONE "
        "multiple-choice question exactly in the specified format without "
        "any additional text."
    )


# -- parsers ----------------------------------------------------------------

def parse_qa_pairs(raw: str) -> list[tuple[str, str]]:
    """Question/answer pairs from a bracketed list of dicts."""
    dicts = extract_dict_list(raw, ("question", "answer"))
    return [(d["question"], d["answer"]) for d in dicts]


def parse_summary_payload(raw: str) -> tuple[str, str]:
    """(summary, instruction) from a braced dict.

    A summary delivered as a list of strings (bullet output drifts that way)
    is joined with newlines; anything else non-string is rejected.
    """
    def pick(value, span):
        if not isinstance(value, dict):
            return None
        summary = value.get("summary")
        instruction = value.get("instruction")
        if isinstance(summary, list) and all(
                isinstance(x, str) for x in summary):
            summary = "\n".join(x.strip() for x in summary if x.strip())
        if (isinstance(summary, str) and summary.strip()
                and isinstance(instruction, str) and instruction.strip()):
            return summary.strip(), instruction.strip()
        return None

    return first_picked(raw, "{}", pick, "a summary dict",
                        "no dict with 'summary' and 'instruction' found")


_TAG_RE = re.compile(r"</?format>", re.IGNORECASE)


def parse_conversation(raw: str) -> tuple[str, str]:
    """One (user message, assistant reply) pair from Input:/Output: blocks.

    Exactly one of each marker is required; more means the model ignored the
    single-pair instruction and the sample is discarded.
    """
    if not raw or not raw.strip():
        raise ParseError("empty output where a conversation was expected",
                         raw=raw)
    text = _TAG_RE.sub(" ", strip_code_fences(raw))
    inputs = list(re.finditer(r"Input\s*:", text))
    outputs = list(re.finditer(r"Output\s*:", text))
    if len(inputs) != 1 or len(outputs) != 1:
        raise ParseError(
            f"expected exactly one Input:/Output: pair, found "
            f"{len(inputs)}/{len(outputs)}", raw=raw)
    if outputs[0].start() < inputs[0].end():
        raise ParseError("Output: precedes Input:", raw=raw)
    user = text[inputs[0].end():outputs[0].start()].strip()
    assistant = text[outputs[0].end():].strip()
    if not user or not assistant:
        raise ParseError("empty conversation side", raw=raw)
    return user, assistant


def _strip_brackets(text: str) -> str:
    text = text.strip()
    if len(text) >= 2 and text[0] == "[" and text[-1] == "]":
        inner = text[1:-1]
        if "[" not in inner and "]" not in inner:
            text = inner.strip()
    return text


def _resolve_correct_choice(choices: list[str],
                            answer_text: str) -> int | None:
    """Pick the choice contained in the answer, preferring the longest
    match; ties go to the earliest choice. None when no choice is there."""
    def norm(s: str) -> str:
        return " ".join(s.split()).casefold()

    haystack = norm(answer_text)
    best = None
    for i, choice in enumerate(choices):
        needle = norm(choice)
        if needle and needle in haystack:
            key = (len(needle), -i)
            if best is None or key > best[0]:
                best = (key, i)
    return None if best is None else best[1]


def parse_multiple_choice(raw: str) -> McQuestion:
    """Question/Choices/Answer blocks into a validated McQuestion.

    Choice lines are dash-prefixed; wrapping brackets are stripped.
    McQuestion rejects repeated choices and ordinal wording in the choices
    or answer with ValidationError rather than ParseError, so the two
    failure kinds stay distinguishable in logs.
    """
    if not raw or not raw.strip():
        raise ParseError("empty output where a question was expected",
                         raw=raw)
    text = _TAG_RE.sub(" ", strip_code_fences(raw))
    q_marks = list(re.finditer(r"Question\s*:", text, re.IGNORECASE))
    c_marks = list(re.finditer(r"Choices\s*:", text, re.IGNORECASE))
    a_marks = list(re.finditer(r"Answer\s*:", text, re.IGNORECASE))
    if len(q_marks) != 1:
        raise ParseError(f"expected exactly one question, found "
                         f"{len(q_marks)}", raw=raw)
    if len(c_marks) != 1 or len(a_marks) != 1:
        raise ParseError("expected exactly one Choices: and one Answer: "
                         "block", raw=raw)
    if not (q_marks[0].end() <= c_marks[0].start()
            and c_marks[0].end() <= a_marks[0].start()):
        raise ParseError("Question/Choices/Answer out of order", raw=raw)
    question = " ".join(
        text[q_marks[0].end():c_marks[0].start()].split())
    if not question:
        raise ParseError("empty question", raw=raw)
    block = text[c_marks[0].end():a_marks[0].start()]
    choices: list[str] = []
    for line in block.splitlines():
        line = line.strip()
        if not line:
            continue
        if line[0] in "-*•–":
            item = _strip_brackets(line[1:].strip())
            item = " ".join(item.split())
            if item:
                choices.append(item)
        elif choices:
            choices[-1] = f"{choices[-1]} {' '.join(line.split())}"
        else:
            raise ParseError(f"choice block starts with a non-choice line: "
                             f"{line[:60]!r}", raw=raw)
    if len(choices) < 2:
        raise ParseError(f"found {len(choices)} choices, need at least 2",
                         raw=raw)
    answer_text = _strip_brackets(text[a_marks[0].end():].strip())
    if not answer_text:
        raise ParseError("empty answer text", raw=raw)
    correct = _resolve_correct_choice(choices, answer_text)
    # Validated before the answer is located, so a question that is both
    # invalid and unresolvable raises ValidationError.
    checked = McQuestion(question=question, choices=tuple(choices),
                         answer_text=answer_text,
                         correct_index=0 if correct is None else correct)
    if correct is None:
        raise ParseError(
            "correct choice is not locatable inside the answer text",
            raw=answer_text)
    return checked


def shuffle_choices(question: McQuestion, rng: random.Random) -> McQuestion:
    """Uniformly permute the choices, keeping correct_index aligned.

    The answer text is untouched; only the presentation order moves.
    """
    perm = list(range(len(question.choices)))
    rng.shuffle(perm)
    new_choices = tuple(question.choices[i] for i in perm)
    new_correct = perm.index(question.correct_index)
    return replace(question, choices=new_choices, correct_index=new_correct)


def render_mc_instruction(question: McQuestion) -> str:
    lines = [question.question]
    lines += [f"- {c}" for c in question.choices]
    return "\n".join(lines)


# -- generation -------------------------------------------------------------

def _generate_parsed(gateway, config: PipelineConfig, key: str, task: str,
                     prompt: str, temperature: float, parse):
    """Call the provider at `temperature`, parse, retry once under a fresh
    seed.

    Returns (value, provenance). Raises GenerationError when the retry also
    fails; the caller records a failure entry and moves on.
    """
    last_error: Exception | None = None
    for attempt in range(2):
        seed = derive_seed(config.run_seed, key, task, attempt)
        raw = gateway.complete(GenRequest(
            prompt=prompt, temperature=temperature, seed=seed))
        try:
            value = parse(raw)
        except (ParseError, ValidationError) as exc:
            last_error = exc
            logger.warning("%s generation for %s failed to parse "
                           "(attempt %d): %s", task, key, attempt + 1, exc)
            continue
        digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:16]
        return value, {"temperature": temperature, "seed": seed,
                       "attempt": attempt, "prompt_sha256": digest}
    raise GenerationError(
        f"{task} generation for {key} failed twice: {last_error} "
        f"(raw starts {raw[:80]!r})")


# Each task maps (ctx, config, key) to (prompt, temperature, parse); parse
# returns one (instruction, output, extra provenance) row per record. It
# looks the parsers up as module globals, so wrapped attributes see calls.

def _closed_qa(ctx: ContextDoc, config: PipelineConfig, key: str):
    """Exactly tasks.qa_pairs rows. A payload with the wrong pair count is
    treated the same as a parse failure, so a batch is never partial."""
    want = config.tasks_qa_pairs

    def parse(raw: str) -> list[tuple[str, str, dict]]:
        pairs = parse_qa_pairs(raw)
        if len(pairs) != want:
            raise ParseError(f"expected {want} pairs, got {len(pairs)}",
                             raw=raw)
        return [(question, answer, {}) for question, answer in pairs]

    return (render_closed_qa_prompt(ctx.body, pairs=want),
            config.temperature_closed_qa, parse)


def _summarization(ctx: ContextDoc, config: PipelineConfig, key: str):
    """One summary; the style is drawn uniformly per record."""
    rng = random.Random(derive_seed(config.run_seed, key, "summary-style"))
    style = rng.choice(constants.SUMMARY_STYLES)

    def parse(raw: str) -> list[tuple[str, str, dict]]:
        summary, instruction = parse_summary_payload(raw)
        return [(instruction, summary, {"summary_style": style})]

    return (render_summarization_prompt(style, ctx.topic.text, ctx.body),
            config.temperature_summarization, parse)


def _conversation(ctx: ContextDoc, config: PipelineConfig, key: str):
    """One user/assistant exchange grounded in the topic alone."""
    def parse(raw: str) -> list[tuple[str, str, dict]]:
        return [(*parse_conversation(raw), {})]

    return (render_conversation_prompt(ctx.topic.text),
            config.temperature_conversation, parse)


def _multiple_choice(ctx: ContextDoc, config: PipelineConfig, key: str):
    """One question with its choices shuffled under (run.seed, key). The
    instruction is the question plus dash-prefixed choices."""
    def parse(raw: str) -> list[tuple[str, str, dict]]:
        rng = random.Random(derive_seed(config.run_seed, key, "mc-shuffle"))
        question = shuffle_choices(parse_multiple_choice(raw), rng)
        return [(render_mc_instruction(question), question.answer_text,
                 {"correct_index": question.correct_index})]

    return (render_multiple_choice_prompt(ctx.body),
            config.temperature_multiple_choice, parse)


_TASKS = {CLOSED_QA: _closed_qa, SUMMARIZATION: _summarization,
          CONVERSATION: _conversation, MULTIPLE_CHOICE: _multiple_choice}


def generate_for_context(ctx: ContextDoc, gateway, config: PipelineConfig,
                         key: str, tasks: tuple[str, ...] = GENERATION_TASKS
                         ) -> tuple[list[InstructionRecord],
                                    list[GenerationFailure]]:
    """Run the given tasks against one context.

    Unknown and repeated tasks are rejected before any provider call.
    Failures are collected, not raised: a context that defeats one task can
    still contribute records for the others.
    """
    if not set(tasks) <= set(_TASKS) or len(set(tasks)) != len(tasks):
        raise ValidationError(f"unknown or repeated task in {tasks!r}")
    records: list[InstructionRecord] = []
    failures: list[GenerationFailure] = []
    for task in tasks:
        try:
            rows, provenance = _generate_parsed(
                gateway, config, key, task, *_TASKS[task](ctx, config, key))
        except GenerationError as exc:
            failures.append(GenerationFailure(
                task=task, key=key, topic_text=ctx.topic.text,
                reason=str(exc)[:200]))
            continue
        source = ({"context": dict(ctx.provenance)}
                  if task in CONTEXT_TASKS else {})
        records.extend(InstructionRecord(
            id=f"{key}-{task}-{i:02d}", task=task, instruction=instruction,
            context=ctx.body if source else None, output=output,
            topic=ctx.topic, language=config.run_target_language,
            provenance={**provenance, **extra, **source})
            for i, (instruction, output, extra) in enumerate(rows))
    return records, failures


def generate_records(contexts: list[tuple[str, ContextDoc]], gateway,
                     config: PipelineConfig,
                     tasks: tuple[str, ...] = GENERATION_TASKS
                     ) -> tuple[list[InstructionRecord],
                                list[GenerationFailure]]:
    """Records for every keyed context, in context order, on
    gateway.concurrency threads. Failed tasks are logged and returned;
    they never abort the stage."""
    def one(i: int):
        key, doc = contexts[i]
        return generate_for_context(doc, gateway, config, key, tasks)

    results = parallel_map(one, len(contexts), gateway.concurrency)
    records = [record for batch, _ in results for record in batch]
    failures = [failure for _, fails in results for failure in fails]
    for failure in failures:
        logger.warning("%s failed for %s: %s", failure.task, failure.key,
                       failure.reason)
    return records, failures
