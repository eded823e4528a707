"""Pipeline-wide default hyperparameters.

These are the published defaults of the generation recipe. Config files may
override any of them; everything downstream reads the effective config, not
this module, so the values here are authoritative only for defaults.
"""

from __future__ import annotations

# Sampling temperatures per generation stage.
TEMPERATURE_TOPIC = 0.95
TEMPERATURE_CLOSED_QA = 0.35
TEMPERATURE_SUMMARIZATION = 0.35
TEMPERATURE_CONVERSATION = 0.8
TEMPERATURE_MULTIPLE_CHOICE = 0.4
TEMPERATURE_CONTEXT = 0.8  # generated (non-wiki) contexts; not a published value

# Topic acquisition.
TOPICS_PER_BATCH = 20
TOPICS_CULTURAL = 400
TOPICS_GENERAL = 300
TOPICS_FLUENCY_ONLY = 10  # general-only, low-diversity variant
TOPICS_DIVERSITY_ONLY = 750  # general-only, round-trip-translated variant

# Context acquisition.
P_WIKI = 0.5  # probability of sourcing a context from the wiki; not published
WIKI_TOP_K = 10

# Instruction generation.
QA_PAIRS_PER_CONTEXT = 5
SUMMARY_STYLES = ("bullet points", "paragraphs", "numbered lists")

# Near-duplicate filtering.
DEDUP_THRESHOLD = 0.95  # records strictly above this cosine are dropped

# Dataset assembly.
DATASET_SIZE = 5000
PARAPHRASE_COUNT = 4
SAMPLE_DIVISOR = 5  # paraphrase fan-out: n sampled originals -> 5n records

# Provider budget defaults.
REQUESTS_PER_MINUTE = 60
MAX_CONCURRENT = 4
RETRY_LIMIT = 3
MAX_TOKENS = 1024

TARGET_LANGUAGE = "th"
PIVOT_LANGUAGE = "en"
CULTURE = "Thai"  # the culture cultural topics are anchored to
