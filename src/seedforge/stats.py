"""Two-sample rank statistics for the evaluation report.

One test lives here: the Wilcoxon rank-sum (Mann-Whitney) test, two-sided.
Small pooled samples get the exact null distribution of the rank sum,
counted over doubled midranks with the shift algorithm, ties included;
larger ones a normal approximation with midranks, a tie variance
correction, and a continuity correction that shrinks the deviation toward
zero so swapping the samples flips the statistic's sign exactly.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from seedforge.errors import DegenerateTestError, ValidationError

EXACT_LIMIT = 12            # pooled size up to which "auto" is exact


@dataclass(frozen=True)
class RankSumResult:
    statistic: float        # z score of the first sample's rank sum
    p_value: float          # two-sided
    method: str             # "exact" or "normal"
    n1: int
    n2: int


def _midranks(pooled: list[float]) -> list[float]:
    order = sorted(range(len(pooled)), key=lambda i: pooled[i])
    ranks = [0.0] * len(pooled)
    i = 0
    while i < len(order):
        j = i
        while (j + 1 < len(order)
               and pooled[order[j + 1]] == pooled[order[i]]):
            j += 1
        midrank = (i + j + 2) / 2.0  # ranks are 1-based
        for k in range(i, j + 1):
            ranks[order[k]] = midrank
        i = j + 1
    return ranks


def _normal_sf(z: float) -> float:
    """P(Z > z) for a standard normal."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def wilcoxon_rank_sum(a, b, method: str = "auto") -> RankSumResult:
    """Two-sided test of whether a and b come from one distribution.

    method "auto" is exact when the pooled size is at most 12 and normal
    beyond that; "exact" counts at any size. The exact p-value is the
    doubled smaller tail, capped at 1. A pooled sample with no variation
    has no distribution to rank, so it raises DegenerateTestError rather
    than fabricating a p-value.
    """
    a = [float(x) for x in a]
    b = [float(x) for x in b]
    if not a or not b:
        raise ValidationError("both samples must be non-empty")
    for x in a + b:
        if math.isnan(x) or math.isinf(x):
            raise ValidationError("samples must be finite")
    if method not in ("auto", "exact", "normal"):
        raise ValidationError(f"unknown method {method!r}")
    n1, n2 = len(a), len(b)
    total = n1 + n2
    pooled = a + b
    ranks = _midranks(pooled)
    rank_sum = sum(ranks[:n1])

    mean = n1 * (total + 1) / 2.0
    tie_term = sum(t ** 3 - t for t in Counter(pooled).values())
    variance = (n1 * n2 / 12.0) * (
        (total + 1) - tie_term / (total * (total - 1)))
    if variance <= 0.0:
        raise DegenerateTestError(
            "pooled sample has no variation; ranks carry no information")
    deviation = rank_sum - mean
    # Shrinking |d| by half a rank before standardizing keeps the
    # statistic exactly antisymmetric under swapping the samples.
    adjusted = math.copysign(max(0.0, abs(deviation) - 0.5), deviation)
    z = adjusted / math.sqrt(variance)

    if method == "auto":
        method = "exact" if total <= EXACT_LIMIT else "normal"
    if method == "exact":
        p_value = _exact_p(ranks, n1, rank_sum)
    else:
        p_value = min(1.0, 2.0 * _normal_sf(abs(z)))
    return RankSumResult(statistic=z, p_value=p_value, method=method,
                         n1=n1, n2=n2)


def _exact_p(ranks: list[float], n1: int, observed: float) -> float:
    """Doubled smaller tail over all assignments of ranks to group one,
    counted by the shift algorithm (Streitberg & Röhmel 1986): doubled
    midranks are integers, counts[k][s] is the number of k-subsets of the
    ranks seen so far with doubled sum s, and each rank r adds counts[k-1]
    shifted by r to counts[k]."""
    doubled = [round(2 * r) for r in ranks]
    width = sum(doubled) + 1
    counts = [[1] + [0] * (width - 1)] + [[0] * width for _ in range(n1)]
    for seen, r in enumerate(doubled):
        for k in range(min(seen + 1, n1), 0, -1):
            counts[k][r:] = [x + y for x, y in zip(counts[k][r:],
                                                   counts[k - 1])]
    cut = round(2 * observed)
    at_most = sum(counts[n1][:cut + 1])
    at_least = sum(counts[n1][cut:])
    smaller_tail = min(at_most, at_least) / math.comb(len(ranks), n1)
    return min(1.0, 2.0 * smaller_tail)
