"""Rank-sum test: pinned exact values, an independent enumeration oracle,
and scipy as a second opinion (test dependency only)."""

import math
import random
from itertools import combinations

import pytest
import scipy.stats
from scipy.stats import rankdata

from seedforge.errors import DegenerateTestError, ValidationError
from seedforge.stats import EXACT_LIMIT, RankSumResult, wilcoxon_rank_sum


def oracle_exact_p(a, b):
    """Doubled smaller tail by brute enumeration, using scipy's midranks
    so no code is shared with the implementation under test."""
    pooled = list(a) + list(b)
    ranks = rankdata(pooled).tolist()
    n1 = len(a)
    observed = sum(ranks[:n1])
    total = len(pooled)
    at_most = at_least = 0
    count = 0
    for subset in combinations(range(total), n1):
        s = sum(ranks[i] for i in subset)
        at_most += s <= observed + 1e-9
        at_least += s >= observed - 1e-9
        count += 1
    return min(1.0, 2.0 * min(at_most, at_least) / count)


class TestPinnedValues:
    def test_disjoint_triples(self):
        result = wilcoxon_rank_sum([1, 2, 3], [4, 5, 6])
        assert result.p_value == 0.1
        assert result.method == "exact"
        assert result.n1 == 3 and result.n2 == 3
        # rank sum 6 against mean 10.5, half-rank shrink, variance 5.25
        assert result.statistic == pytest.approx(-4 / math.sqrt(5.25))

    def test_balanced_samples_give_p_one(self):
        result = wilcoxon_rank_sum([1, 4], [2, 3])
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_result_type(self):
        assert isinstance(wilcoxon_rank_sum([1], [2]), RankSumResult)


class TestExactOracle:
    def test_matches_enumeration_without_ties(self):
        rng = random.Random(4)
        for _ in range(60):
            n1, n2 = rng.randint(1, 5), rng.randint(1, 5)
            vals = rng.sample(range(1000), n1 + n2)
            a, b = vals[:n1], vals[n1:]
            mine = wilcoxon_rank_sum(a, b, method="exact")
            assert mine.p_value == pytest.approx(oracle_exact_p(a, b),
                                                 abs=1e-12)

    def test_matches_enumeration_with_ties(self):
        rng = random.Random(5)
        for _ in range(60):
            n1, n2 = rng.randint(2, 5), rng.randint(2, 5)
            a = [rng.randint(0, 3) for _ in range(n1)]
            b = [rng.randint(0, 3) for _ in range(n2)]
            if len(set(a + b)) < 2:
                continue
            mine = wilcoxon_rank_sum(a, b, method="exact")
            assert mine.p_value == pytest.approx(oracle_exact_p(a, b),
                                                 abs=1e-12)
        # Pooled sizes past the auto limit, up to 16, match exactly.
        for total in range(13, 17):
            for _ in range(5):
                n1 = rng.randint(total - 10, 10)
                a = [rng.randint(0, 5) for _ in range(n1)]
                b = [rng.randint(0, 5) for _ in range(total - n1)]
                mine = wilcoxon_rank_sum(a, b, method="exact")
                assert mine.p_value == oracle_exact_p(a, b)

    def test_matches_scipy_exact(self):
        rng = random.Random(6)
        for _ in range(60):
            n1, n2 = rng.randint(2, 6), rng.randint(2, 6)
            vals = rng.sample(range(1000), n1 + n2)
            a, b = vals[:n1], vals[n1:]
            mine = wilcoxon_rank_sum(a, b, method="exact")
            ref = scipy.stats.mannwhitneyu(a, b, alternative="two-sided",
                                           method="exact")
            assert mine.p_value == pytest.approx(ref.pvalue, abs=1e-12)


class TestNormalApproximation:
    def test_matches_scipy_asymptotic(self):
        rng = random.Random(7)
        for _ in range(60):
            n1, n2 = rng.randint(3, 20), rng.randint(3, 20)
            a = [rng.gauss(0, 1) for _ in range(n1)]
            b = [rng.gauss(0.5, 1) for _ in range(n2)]
            mine = wilcoxon_rank_sum(a, b, method="normal")
            ref = scipy.stats.mannwhitneyu(
                a, b, alternative="two-sided", method="asymptotic",
                use_continuity=True)
            assert mine.p_value == pytest.approx(ref.pvalue, abs=1e-12)

    def test_matches_scipy_asymptotic_with_ties(self):
        rng = random.Random(8)
        for _ in range(60):
            n1, n2 = rng.randint(3, 15), rng.randint(3, 15)
            a = [float(rng.randint(0, 4)) for _ in range(n1)]
            b = [float(rng.randint(0, 4)) for _ in range(n2)]
            if len(set(a + b)) < 2:
                continue
            mine = wilcoxon_rank_sum(a, b, method="normal")
            ref = scipy.stats.mannwhitneyu(
                a, b, alternative="two-sided", method="asymptotic",
                use_continuity=True)
            assert mine.p_value == pytest.approx(ref.pvalue, abs=1e-12)

    def test_tracks_exact_for_moderate_samples(self):
        # With at least 3 per side the continuity-corrected normal stays
        # within 0.04 of enumeration at every pooled size up to 12.
        rng = random.Random(9)
        worst = 0.0
        for _ in range(200):
            n1 = rng.randint(3, 9)
            n2 = rng.randint(3, min(9, 12 - n1))
            a = [rng.gauss(0, 1) for _ in range(n1)]
            b = [rng.gauss(rng.choice([0.0, 1.5]), 1) for _ in range(n2)]
            exact = wilcoxon_rank_sum(a, b, method="exact").p_value
            normal = wilcoxon_rank_sum(a, b, method="normal").p_value
            worst = max(worst, abs(exact - normal))
        assert worst <= 0.04


class TestAntisymmetry:
    def test_statistic_flips_exactly(self):
        rng = random.Random(10)
        for _ in range(100):
            n1, n2 = rng.randint(1, 8), rng.randint(1, 8)
            a = [rng.choice([0.0, 1.0, 2.5, 7.0]) for _ in range(n1)]
            b = [rng.choice([0.0, 1.0, 2.5, 7.0]) for _ in range(n2)]
            if len(set(a + b)) < 2:
                continue
            fwd = wilcoxon_rank_sum(a, b)
            rev = wilcoxon_rank_sum(b, a)
            assert fwd.statistic == -rev.statistic
            assert fwd.p_value == rev.p_value
            assert fwd.method == rev.method


class TestMethodSelection:
    def test_auto_enumerates_small_pools(self):
        a, b = list(range(6)), list(range(10, 16))
        assert len(a) + len(b) == EXACT_LIMIT
        assert wilcoxon_rank_sum(a, b).method == "exact"

    def test_auto_switches_past_the_limit(self):
        a, b = list(range(7)), list(range(10, 16))
        assert wilcoxon_rank_sum(a, b).method == "normal"

    def test_exact_at_a_pooled_size_of_thirty(self):
        # C(30, 15) = 155,117,520 assignments; only the observed one and
        # its mirror image are as extreme as a full separation.
        result = wilcoxon_rank_sum(list(range(15)), list(range(20, 35)),
                                   method="exact")
        assert result.method == "exact"
        assert result.p_value == 2 / 155_117_520
        assert math.comb(30, 15) == 155_117_520


class TestValidation:
    def test_empty_samples(self):
        with pytest.raises(ValidationError):
            wilcoxon_rank_sum([], [1])
        with pytest.raises(ValidationError):
            wilcoxon_rank_sum([1], [])

    def test_non_finite_samples(self):
        with pytest.raises(ValidationError):
            wilcoxon_rank_sum([1, float("nan")], [2])
        with pytest.raises(ValidationError):
            wilcoxon_rank_sum([1], [float("inf")])

    def test_unknown_method(self):
        with pytest.raises(ValidationError):
            wilcoxon_rank_sum([1], [2], method="bootstrap")

    def test_degenerate_pool(self):
        with pytest.raises(DegenerateTestError):
            wilcoxon_rank_sum([5, 5], [5, 5, 5])
