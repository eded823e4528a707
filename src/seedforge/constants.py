"""Pipeline-wide default hyperparameters.

These are the published defaults of the generation recipe, and the config
schema takes its defaults from them. Stage bodies take the effective
PipelineConfig and read every value that has a config key from it; such a
value appears here only as the default of a helper whose pipeline callers
pass the config's value (the prompt renderers, dedup_filter, the pivot of
the translate transforms). Values without a config key are read from here:
the summary styles, the generated ablation variants' topic counts, and the
records-per-topic estimate that sizes extension epochs.
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
# General-only, round-trip-translated variant: 750 topics at DATASET_SIZE,
# scaled to the requested size.
TOPICS_DIVERSITY_ONLY = 750

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

# Provider budget defaults.
REQUESTS_PER_MINUTE = 60
MAX_CONCURRENT = 4
RETRY_LIMIT = 3
MAX_TOKENS = 1024

TARGET_LANGUAGE = "th"
PIVOT_LANGUAGE = "en"
CULTURE = "Thai"  # the culture cultural topics are anchored to
