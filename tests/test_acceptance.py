"""Conformance gate: one test per documented guarantee.

Each test prints exactly one summary line, [criterion N] PASS or FAIL,
and fails loudly when any part of the guarantee is violated. Heavier
checks (20,000-record dedup, 10,000 metric pairs, 40,000 shuffles) run at
full size on purpose; the whole module stays under a minute.
"""

import math
import os
import random
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import chi2

from seedforge import constants, metrics
from seedforge.ablations import (VARIANT_CULTURE_ONLY,
                                 VARIANT_DIVERSITY_ONLY, VARIANT_FLUENCY_ONLY,
                                 VARIANT_FULL, VARIANT_NO_PROPERTIES,
                                 derive_flags, load_external_corpus,
                                 read_manifest)
from seedforge.cli import main as cli_main
from seedforge.config import default_config
from seedforge.dedup import dedup_filter, sample_text
from seedforge.errors import ParseError, ValidationError
from seedforge.gateway import Gateway
from seedforge.instructions import (GENERATION_TASKS, McQuestion,
                                    generate_for_context, shuffle_choices)
from seedforge.pipeline import MANIFEST_FILE, run_pipeline
from seedforge.records import file_sha256
from seedforge.stats import wilcoxon_rank_sum
from seedforge.tokenizers import get_tokenizer

from doubles import build_manifest
from test_instructions import CORPUS, PARSERS, _assert_parse_shape, make_ctx

SMALL = default_config(topics_cultural=8, topics_general=6, dataset_size=50,
                       run_seed=42)


def _report(num: int, label: str, failures: list[str],
            detail: str = "") -> None:
    status = "FAIL" if failures else "PASS"
    suffix = f" ({detail})" if detail and not failures else ""
    body = f"; ".join(failures)
    print(f"[criterion {num}] {status} - {label}{suffix}"
          + (f": {body}" if failures else ""))
    assert not failures, f"criterion {num}: {body}"


def test_criterion_1_dedup_oracle_and_recall(tmp_path):
    failures = []
    start = time.monotonic()
    rng = np.random.default_rng(42)
    dim, n_base, n_dup = 64, 18_000, 2_000
    base = rng.standard_normal((n_base, dim))
    dup_src = rng.choice(n_base, size=n_dup, replace=False)
    scales = rng.uniform(0.05, 0.25, size=n_dup)
    dups = base[dup_src] + rng.standard_normal((n_dup, dim)) * scales[:, None]
    vectors = np.vstack([base, dups])[rng.permutation(n_base + n_dup)]

    records, row_of = [], {}
    for i in range(len(vectors)):
        rec = SimpleNamespace(id=f"r{i:05d}", instruction=f"ข้อความ {i}",
                              context=None, output=str(i))
        records.append(rec)
        row_of[sample_text(rec)] = i

    class VecGateway:
        def embed_blocks(self, texts):
            yield vectors[[row_of[t] for t in texts]]

    result = dedup_filter(records, VecGateway(),
                          str(tmp_path / "vectors.npy"), threshold=0.95)

    # independent quadratic keep-first restatement, one row at a time
    unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    kept_rows = np.empty_like(unit)
    kept_idx: list[int] = []
    oracle_removed: dict = {}
    for i in range(len(unit)):
        if kept_idx:
            sims = kept_rows[:len(kept_idx)] @ unit[i]
            j = int(np.argmax(sims))
            if sims[j] > 0.95:
                oracle_removed[f"r{i:05d}"] = (f"r{kept_idx[j]:05d}",
                                               float(sims[j]))
                continue
        kept_rows[len(kept_idx)] = unit[i]
        kept_idx.append(i)

    lib_kept = [r.id for r in result.kept]
    oracle_kept = [f"r{i:05d}" for i in kept_idx]
    if lib_kept != oracle_kept:
        failures.append(f"kept sets differ: {len(lib_kept)} vs "
                        f"{len(oracle_kept)}")
    lib_removed = {r.record_id: (r.nearest_id, r.similarity)
                   for r in result.removed}
    if set(lib_removed) != set(oracle_removed):
        failures.append("removed id sets differ")
    else:
        for rid, (nearest, sim) in oracle_removed.items():
            got_nearest, got_sim = lib_removed[rid]
            if got_nearest != nearest or abs(got_sim - sim) > 1e-9:
                failures.append(f"removal {rid} disagrees with oracle")
                break
    # recall of the planted pairs: every one of them is found
    if len(lib_removed) != n_dup:
        failures.append(f"expected {n_dup} planted removals, got "
                        f"{len(lib_removed)}")

    elapsed = time.monotonic() - start
    if elapsed >= 60:
        failures.append(f"took {elapsed:.1f}s, budget 60s")
    _report(1, "dedup equals quadratic oracle; every planted pair removed",
            failures,
            f"{n_base + n_dup} records, {n_dup} planted pairs, "
            f"{elapsed:.1f}s")


def test_criterion_2_metric_fixtures_identity_range(tmp_path):
    failures = []
    tok = get_tokenizer("unicode_words")

    pinned = metrics.bleu(["the cat"], ["the cat sat"], max_order=2)
    if abs(pinned - 0.6065) > 1e-4:
        failures.append(f"bleu fixture {pinned!r} != 0.6065 +- 1e-4")
    if metrics.rouge_n("a b c", "a b d", 1).f1 != 2 / 3:
        failures.append("rouge-1 fixture not exactly 2/3")
    if metrics.rouge_l("a c b", "a b c").f1 != 2 / 3:
        failures.append("rouge-l fixture not exactly 2/3")
    if metrics.meteor("a b", "b a") != 0.5:
        failures.append("meteor transposition fixture not exactly 0.5")
    if metrics.meteor("a b c d", "a b c d") != 0.9921875:
        failures.append("meteor identity fixture not exactly 0.9921875")
    pair = np.array([[1.0, 1.0], [1.0, 0.0]])
    cos = pair[0] @ pair[1] / np.prod(np.linalg.norm(pair, axis=1))
    pair_records = [SimpleNamespace(id=f"c{i}", instruction=str(i),
                                    context=None, output="") for i in (0, 1)]
    removal = dedup_filter(pair_records,
                           SimpleNamespace(embed_blocks=lambda texts: [pair]),
                           str(tmp_path / "vectors.npy"),
                           threshold=0.7).removed
    if (abs(cos - 1 / math.sqrt(2)) > 1e-9 or len(removal) != 1
            or abs(removal[0].similarity - cos) > 1e-9):
        failures.append("cosine fixture off by more than 1e-9")

    rng = random.Random(20260816)
    thai = ["วัด", "แม่น้ำ", "อาหาร", "ประเพณี", "ตลาด", "ข้าว", "ช้าง",
            "ทะเล", "ภูเขา", "เมือง", "สงกรานต์", "มวยไทย"]
    pool = thai + ["market", "river", "rice", "temple", "12", "2026",
                   "—", "!!", "...", "★", "🐘"]

    def sample_sentence():
        words = [rng.choice(pool) for _ in range(rng.randint(1, 12))]
        if not any(any(c.isalnum() for c in w) for w in words):
            words.append(rng.choice(thai))
        return " ".join(words)

    checked = 0
    for _ in range(10000):
        a, b = sample_sentence(), sample_sentence()
        bounded = [
            ("rouge1", metrics.rouge_n(a, b, 1).f1, 1.0),
            ("rouge_l", metrics.rouge_l(a, b).f1, 1.0),
            ("bleu", metrics.bleu([a], [b], smooth=True), 1.0),
            ("meteor", metrics.meteor(a, b), 1.0),
            ("squad_f1", metrics.squad_f1(a, b), 1.0),
            ("chrf", metrics.chrf(a, b), 100.0),
        ]
        for name, value, top in bounded:
            if not (math.isfinite(value) and 0.0 <= value <= top):
                failures.append(f"{name} out of range on pair {checked}: "
                                f"{value!r}")
                break
        m = len(tok(a))
        if (metrics.rouge_n(a, a, 1).f1 != 1.0
                or metrics.bleu([a], [a]) != 1.0
                or abs(metrics.chrf(a, a) - 100.0) > 1e-9
                or metrics.squad_f1(a, a) != 1.0
                or metrics.meteor(a, a) != 1 - 0.5 / m ** 3):
            failures.append(f"identity violated on text {checked}: {a!r}")
        checked += 1
        if failures:
            break
    _report(2, "pinned metric fixtures; identity and range on random "
            "Unicode pairs", failures,
            f"{checked} pairs including Thai")


def test_criterion_3_rank_sum_exactness():
    failures = []
    result = wilcoxon_rank_sum([1, 2, 3], [4, 5, 6])
    if abs(result.p_value - 0.1) > 1e-12:
        failures.append(f"pinned two-sided p {result.p_value!r} != 0.1")
    if result.method != "exact":
        failures.append(f"small samples routed to {result.method!r}, "
                        f"expected the exact path")

    rng = random.Random(7)
    worst_default = 0.0
    worst_normal = 0.0
    trials = 0
    while trials < 1000:
        n1 = rng.randint(1, 11)
        n2 = rng.randint(1, 12 - n1)
        if rng.random() < 0.5:
            a = [rng.gauss(0, 1) for _ in range(n1)]
            b = [rng.gauss(0.5, 1) for _ in range(n2)]
        else:
            a = [float(rng.randint(1, 6)) for _ in range(n1)]
            b = [float(rng.randint(1, 6)) for _ in range(n2)]
        if len(set(a + b)) == 1:
            continue
        exact = wilcoxon_rank_sum(a, b, method="exact").p_value
        default = wilcoxon_rank_sum(a, b).p_value
        worst_default = max(worst_default, abs(default - exact))
        worst_normal = max(worst_normal,
                           abs(wilcoxon_rank_sum(a, b, method="normal")
                               .p_value - exact))
        trials += 1
    # The default method must track the exact distribution within 0.02
    # for every pooled size up to 12; it does so by selecting the exact
    # path there. The raw normal approximation is reported for context:
    # it degrades badly at n=1 and is bounded separately in unit tests.
    if worst_default > 0.02:
        failures.append(f"default method drifted {worst_default:.4f} from "
                        f"exact (allowed 0.02)")

    for _ in range(200):
        n1, n2 = rng.randint(2, 8), rng.randint(2, 8)
        a = [float(rng.randint(1, 5)) for _ in range(n1)]
        b = [float(rng.randint(1, 5)) for _ in range(n2)]
        if len(set(a + b)) == 1:
            continue
        fwd = wilcoxon_rank_sum(a, b)
        rev = wilcoxon_rank_sum(b, a)
        if fwd.statistic != -rev.statistic or fwd.p_value != rev.p_value:
            failures.append(f"antisymmetry violated on {a} vs {b}")
            break
    _report(3, "rank-sum test: pinned p, default tracks exact for pooled "
            "N<=12, exact antisymmetry", failures,
            f"worst default-vs-exact {worst_default:.1e}, raw normal "
            f"approximation {worst_normal:.2f}")


def test_criterion_4_shuffle_uniformity_and_remap():
    failures = []
    question = McQuestion(
        question="เมืองหลวงของไทยคือ?",
        choices=("กรุงเทพฯ", "เชียงใหม่", "ขอนแก่น", "ภูเก็ต"),
        answer_text="กรุงเทพฯ คือเมืองหลวง", correct_index=0)
    counts = [0, 0, 0, 0]
    remap_breaks = 0
    for seed in range(40000):
        shuffled = shuffle_choices(question, random.Random(seed))
        counts[shuffled.correct_index] += 1
        if shuffled.choices[shuffled.correct_index] != "กรุงเทพฯ":
            remap_breaks += 1
    statistic = sum((obs - 10000) ** 2 / 10000 for obs in counts)
    p_value = float(chi2.sf(statistic, df=3))
    if p_value <= 0.01:
        failures.append(f"position counts {counts} fail uniformity "
                        f"(chi2 p {p_value:.4f} <= 0.01)")
    if remap_breaks:
        failures.append(f"{remap_breaks} shuffles lost the correct answer")
    _report(4, "40,000 seeded shuffles: uniform correct position, answer "
            "text preserved", failures,
            f"counts {counts}, chi2 p {p_value:.3f}")


def test_criterion_5_end_to_end_run(tmp_path):
    failures = []
    conf_path = tmp_path / "run.conf"
    conf_path.write_text(
        "run.seed = 42\ntopics.cultural = 8\ntopics.general = 6\n"
        "dataset.size = 50\n", encoding="utf-8")
    conf = str(conf_path)

    start = time.monotonic()
    code = cli_main(["run", "--config", conf,
                     "--workdir", str(tmp_path / "a")])
    elapsed = time.monotonic() - start
    if code != 0:
        failures.append(f"run exited {code}")
    if elapsed >= 30:
        failures.append(f"run took {elapsed:.1f}s, budget 30s")

    manifest_a = os.path.join(str(tmp_path / "a"), MANIFEST_FILE)
    config = default_config(run_seed=42, topics_cultural=8,
                            topics_general=6, dataset_size=50)
    run_pipeline(config, str(tmp_path / "a"))  # all skip
    manifest = read_manifest(manifest_a)
    if len(manifest.records) != 50:
        failures.append(f"{len(manifest.records)} records, expected 50")
    flags = (manifest.flags.fluency, manifest.flags.culture,
             manifest.flags.diversity)
    if flags != (True, True, True):
        failures.append(f"flags {flags}, expected (True, True, True)")

    cli_main(["run", "--config", conf, "--workdir", str(tmp_path / "b")])
    hash_a = file_sha256(manifest_a)
    hash_b = file_sha256(os.path.join(str(tmp_path / "b"), MANIFEST_FILE))
    if hash_a != hash_b:
        failures.append("repeated runs differ")

    class Interrupt(Exception):
        pass

    def bomb(stage):
        if stage == "instructions-00":
            raise Interrupt(stage)

    with pytest.raises(Interrupt):
        run_pipeline(config, str(tmp_path / "c"), stage_hook=bomb)
    code = cli_main(["run", "--config", conf,
                     "--workdir", str(tmp_path / "c")])
    if code != 0:
        failures.append(f"resumed run exited {code}")
    hash_c = file_sha256(os.path.join(str(tmp_path / "c"), MANIFEST_FILE))
    if hash_c != hash_a:
        failures.append("interrupted-then-resumed run differs")
    _report(5, "mock end-to-end run: size, flags, byte-identical repeats "
            "and resume", failures,
            f"{elapsed:.1f}s, sha256 {hash_a[:12]}")


def test_criterion_6_variant_recipes(tmp_path):
    failures = []
    gw = Gateway.mock()
    full = build_manifest(VARIANT_FULL, gw, SMALL)
    culture = build_manifest(VARIANT_CULTURE_ONLY, gw, SMALL, full)
    if len(culture.records) != 50:
        failures.append(f"culture-only built {len(culture.records)} "
                        f"records from 10 samples, expected 50")
    families: dict = {}
    for record in culture.records:
        stem, _, suffix = record.id.rpartition("-")
        families.setdefault(stem, []).append(suffix)
    if len(families) != 10 or any(sorted(s) != ["p00", "p01", "p02", "p03",
                                                "p04"]
                                  for s in families.values()):
        failures.append("paraphrase families are not 10 groups of 5")
    for record in culture.records:
        suffix = record.id.rsplit("-", 1)[1]
        middle = ("original" if suffix == "p00"
                  else f"paraphrase({int(suffix[1:])})")
        want = ("generated", "translate(th->en)", middle,
                "translate(en->th)")
        if record.lineage != want:
            failures.append(f"lineage {record.lineage} != {want}")
            break

    corpus_path = tmp_path / "ext.jsonl"
    corpus_path.write_text("".join(
        f'{{"prompt": "q{i}", "response": "a{i}"}}\n' for i in range(12)),
        encoding="utf-8")
    variants = {
        "full": full,
        "fluency_only": build_manifest(VARIANT_FLUENCY_ONLY, Gateway.mock(),
                                       SMALL),
        "diversity_only": build_manifest(VARIANT_DIVERSITY_ONLY,
                                         Gateway.mock(), SMALL),
        "culture_only": culture,
        "no_properties": build_manifest(
            VARIANT_NO_PROPERTIES, gw, SMALL,
            load_external_corpus(str(corpus_path))),
    }
    expected = {
        "full": (True, True, True),
        "fluency_only": (True, False, False),
        "diversity_only": (False, False, True),
        "culture_only": (False, True, False),
        "no_properties": (False, False, False),
    }
    for name, manifest in variants.items():
        derived = derive_flags(manifest.recipe)
        if derived != manifest.flags:
            failures.append(f"{name}: stored flags not derived from recipe")
        got = (derived.fluency, derived.culture, derived.diversity)
        if got != expected[name]:
            failures.append(f"{name}: flags {got} != {expected[name]}")
        for record in manifest.records:
            if record.flags != {"fluency": derived.fluency,
                                "culture": derived.culture,
                                "diversity": derived.diversity}:
                failures.append(f"{name}: record {record.id} flags stray")
                break
    _report(6, "variant recipes: 10 samples -> 50 records, lineage "
            "chains, five flag tuples", failures,
            "all five variants derived correctly")


def test_criterion_7_parser_corpus(scripted):
    failures = []
    config = default_config(run_seed=11)
    total = 0
    for task in GENERATION_TASKS:
        fixtures = CORPUS[task]
        if len(fixtures) < 40:
            failures.append(f"{task}: only {len(fixtures)} fixtures")
        parser = PARSERS[task]
        for i, raw in enumerate(fixtures):
            total += 1
            try:
                value = parser(raw)
            except (ParseError, ValidationError):
                pass  # typed rejection is one of the two allowed outcomes
            except Exception as exc:  # noqa: BLE001 - the point of the gate
                failures.append(f"{task} fixture {i} escaped typing: "
                                f"{type(exc).__name__}: {exc}")
                continue
            else:
                try:
                    _assert_parse_shape(task, value)
                except AssertionError:
                    failures.append(f"{task} fixture {i} parsed partially")
            gw = scripted([raw, raw])
            try:
                records, fails = generate_for_context(
                    make_ctx(), gw, config, "t0000-r00", tasks=(task,))
            except Exception as exc:  # noqa: BLE001
                failures.append(f"{task} fixture {i} crashed the "
                                f"generator: {type(exc).__name__}: {exc}")
                continue
            if bool(records) == bool(fails):
                failures.append(f"{task} fixture {i}: records and "
                                f"failures disagree")
    _report(7, "parser corpus: every fixture parses or raises a typed "
            "error, no partial records", failures,
            f"{total} fixtures across {len(GENERATION_TASKS)} tasks")


def test_criterion_8_default_constants():
    failures = []
    effective = default_config().effective()
    pinned = {
        "run.target_language": "th",
        "run.pivot_language": "en",
        "dataset.size": 5000,
        "topics.cultural": 400,
        "topics.general": 300,
        "topics.per_batch": 20,
        "context.p_wiki": 0.5,
        "context.wiki_top_k": 10,
        "temperature.topics": 0.95,
        "temperature.closed_qa": 0.35,
        "temperature.summarization": 0.35,
        "temperature.conversation": 0.8,
        "temperature.multiple_choice": 0.4,
        "temperature.context": 0.8,
        "tasks.qa_pairs": 5,
        "dedup.threshold": 0.95,
        "paraphrase.count": 4,
        "budget.requests_per_minute": 60,
        "budget.max_concurrent": 4,
        "budget.retry_limit": 3,
    }
    for key, want in pinned.items():
        if effective.get(key) != want:
            failures.append(f"{key}: {effective.get(key)!r} != {want!r}")
    module_pins = [
        (constants.MAX_TOKENS, 1024, "MAX_TOKENS"),
        (constants.TOPICS_FLUENCY_ONLY, 10, "TOPICS_FLUENCY_ONLY"),
        (constants.TOPICS_DIVERSITY_ONLY, 750, "TOPICS_DIVERSITY_ONLY"),
        (constants.SUMMARY_STYLES,
         ("bullet points", "paragraphs", "numbered lists"),
         "SUMMARY_STYLES"),
    ]
    for got, want, name in module_pins:
        if got != want:
            failures.append(f"{name}: {got!r} != {want!r}")
    _report(8, "default configuration matches the documented constants",
            failures, f"{len(pinned) + len(module_pins)} values")
