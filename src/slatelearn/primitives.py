"""Pairwise estimation primitives built on the sampling oracle.

All weight-ratio arithmetic is done in the log domain. A ratio estimate is
its natural log, an extended real: a finite value, or exactly -inf for the
zero sentinel (the first item is vastly lighter) and +inf for the infinite
sentinel (the first item is vastly heavier). Reciprocation is log
negation, so ``r(i, j)`` and ``r(j, i)`` are bit-exact inverses, and
comparisons and ``max`` treat the sentinels as the extremes they are.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DemandTooLarge

# Most geometric waits one balanced ratio estimate may ask for, so that its
# count matrix stays exact in int64.
MAX_WAITS = 1 << 62


@dataclass(frozen=True)
class RatioEstimate:
    """Estimate of a weight ratio w_i / w_j as its natural log in [-inf, +inf]."""

    log_ratio: float

    def __post_init__(self):
        if math.isnan(self.log_ratio):
            raise ValueError("a log ratio cannot be nan")

    @property
    def is_zero(self) -> bool:
        return self.log_ratio == -math.inf

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.log_ratio)

    @property
    def is_infinite(self) -> bool:
        return self.log_ratio == math.inf

    @property
    def kind(self) -> str:
        """``"zero"``, ``"finite"`` or ``"infinite"``."""
        return ("finite" if self.is_finite
                else "zero" if self.is_zero else "infinite")


def check_delta(delta: float) -> None:
    """Refuse a failure probability outside the open interval (0, 1)."""
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")


def check_balanced_eps(eps: float) -> None:
    """Refuse an accuracy balanced ratio estimation cannot reach: eps < 1/5."""
    if not (0.0 < eps < 0.2):
        raise ValueError("balanced ratio estimation requires eps < 1/5")


def compare_sample_size(c: float, eps: float, delta: float) -> int:
    """The query count of one :func:`compare`; refuses parameters it cannot take."""
    if not (0.0 < c < 1.0):
        raise ValueError("c must lie in (0, 1)")
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    check_delta(delta)
    return math.ceil((20.0 / (c * eps * eps)) * math.log(6.0 / delta))


def _frequencies(wins: int, m: int, c: float) -> tuple:
    """The win frequencies of both items over m queries, each below c/2 snapped to 0."""
    p_i = wins / m
    p_j = (m - wins) / m
    return (0.0 if p_i < c / 2.0 else p_i), (0.0 if p_j < c / 2.0 else p_j)


def compare(oracle, i: int, j: int, c: float, eps: float, delta: float):
    """Estimate both pair-win probabilities of {i, j}, zeroing tiny ones.

    Queries the pair exactly ceil((20 / (c eps^2)) ln(6/delta)) times and
    returns empirical frequencies (p_hat_i, p_hat_j), where a frequency
    below c/2 is snapped to exactly 0. With probability 1 - delta: a true
    probability <= c/4 comes back 0, a true probability >= c comes back
    nonzero, and any nonzero return is within a (1 +- eps) factor of truth.
    """
    m = compare_sample_size(c, eps, delta)
    return _frequencies(oracle.pair_win_count(i, j, m), m, c)


@functools.lru_cache(maxsize=64)   # a clusterer asks with one triple at a time
def ratio_sample_size(alpha: float, eps: float, delta: float) -> tuple:
    """The cutoff c and the query count m of one :func:`estimate_ratio`.

    m is also the most :func:`sequential_log_ratios` charges any one pair
    at the same arguments.
    """
    if not (0.0 < alpha <= 0.5):
        raise ValueError("alpha must lie in (0, 1/2]")
    c = alpha / (alpha + 1.0)
    return c, compare_sample_size(c, eps / 3.0, delta)


def log_ratio_of_wins(wins: int, m: int, c: float) -> float:
    """:func:`estimate_ratio`'s log ratio from i's wins in m queries to {i, j}."""
    p_i, p_j = _frequencies(wins, m, c)
    if p_i == 0.0:
        return -math.inf
    return math.log(p_i) - math.log(p_j) if p_j else math.inf


def estimate_ratio(oracle, i: int, j: int, alpha: float, eps: float,
                   delta: float) -> RatioEstimate:
    """Estimate w_i / w_j from pair queries alone.

    Samples the pair as :func:`compare` does, at accuracy eps/3 with
    cutoff c = alpha/(alpha+1), and returns the log ratio of the two
    snapped frequencies. With probability 1 - delta the result is zero
    when the true ratio is at most alpha/(3 alpha + 4), infinite when it
    is at least its inverse, finite when it lies in [alpha, 1/alpha], and
    (1 +- eps)-accurate whenever finite. Zero and infinite returns are
    exact sentinels, log ratios of -inf and +inf.
    """
    c, m = ratio_sample_size(alpha, eps, delta)
    return RatioEstimate(log_ratio_of_wins(oracle.pair_win_count(i, j, m), m, c))


@functools.lru_cache(maxsize=64)   # one plan serves every pivot of a clustering
def sequential_plan(alpha: float, eps: float, delta: float) -> tuple:
    """``(c, upsilon, log_term, checkpoints)`` of :func:`sequential_log_ratios`.

    c and the last checkpoint, m, are :func:`ratio_sample_size`'s. A pair
    is looked at fewer than R = m.bit_length() times before m, and
    log_term = ln(6 R / delta) gives each look its share of the
    confidence. upsilon = 3 (1 + e) log_term / e^2, at e = eps/3, is the
    Chernoff form of the stopping threshold of Dagum, Karp, Luby and Ross
    ("An optimal algorithm for Monte Carlo estimation", SIAM J. Comput.
    29(5), 2000). The checkpoints are the cumulative totals a pair is
    looked at: 4 upsilon, doubling while below m, then m. At 2 upsilon
    only an exact tie gives both items upsilon wins; 4 upsilon is the
    first total that settles every pair near even odds.
    """
    c, m = ratio_sample_size(alpha, eps, delta)
    e = eps / 3.0
    log_term = math.log(6.0 * m.bit_length() / delta)
    upsilon = 3.0 * (1.0 + e) * log_term / (e * e)
    checkpoints = []
    total = math.ceil(4.0 * upsilon)
    while total < m:
        checkpoints.append(total)
        total *= 2
    return c, upsilon, log_term, tuple(checkpoints) + (m,)


def sequential_log_ratios(oracle, i: int, js, alpha: float, eps: float,
                          delta: float) -> np.ndarray:
    """Log estimates of w_i / w_j for each j of the int64 array ``js``.

    Each estimate keeps :func:`estimate_ratio`'s contract at the same
    alpha, eps and delta, and no pair is charged more than that call's m.
    A pair is drawn in rounds up to the totals of :func:`sequential_plan`
    and stops at the first total N where:

    * its rarer item has won at least upsilon times, so both frequencies
      are (1 +- eps/3)-accurate;
    * its rarer item's wins fall short of N c/2 by more than sqrt(N c
      log_term), a one-sided Chernoff bound (a sequential test in the sense
      of Wald, Ann. Math. Statist. 16(2), 1945) that puts that item's win
      probability below c/2;
    * N is m, the whole of :func:`estimate_ratio`'s sample.

    Every stop reads the wins as :func:`log_ratio_of_wins` does, snap at
    c/2 included, so the second stop always gives the rarer item's
    sentinel. Each kind of look fails with probability at most delta/3
    over all looks, and m keeps :func:`compare`'s bound. At the first
    look, 4 upsilon queries, a pair settles if its rarer item wins at
    least a quarter of the time or clearly less than c/2 of it; m is
    20 ln(6/delta) / (c e^2), about 16 upsilon at alpha 1/2 and eps 0.1.

    Each round is one ``oracle.pair_win_count`` call on the pairs still
    open, in ``js`` order, decided with numpy. A pair's rounds depend on
    its own answers alone, so a stream or replay oracle reads each pair's
    stream as a call on that pair alone would. Counts stay exact Python
    ints where m passes 2^53.
    """
    c, upsilon, log_term, checkpoints = sequential_plan(alpha, eps, delta)
    m = checkpoints[-1]
    logs = np.empty(len(js))
    open_at = np.arange(len(js))
    # int64 while a count divides exactly as a double, as log_ratio_of_wins does
    wins = np.zeros(len(js), dtype=np.int64 if m < 1 << 53 else object)
    drawn = 0
    for total in checkpoints:
        wins = wins + oracle.pair_win_count(i, js[open_at], total - drawn)
        drawn = total
        rarer = np.minimum(wins, total - wins)
        done = ((rarer >= upsilon) | (total == m)
                | (rarer < total * c / 2.0 - math.sqrt(total * c * log_term)))
        logs[open_at[done]] = [log_ratio_of_wins(w, total, c)
                               for w in wins[done].tolist()]
        open_at, wins = open_at[~done], wins[~done]
        if not open_at.size:
            break
    return logs


def get_geometric(oracle, u: int, v: int) -> int:
    """Number of times u loses to v before its first win.

    The return value plus one is exactly the number of pair queries charged
    to {u, v}. The wait is capped at 1e9 queries; exceeding the cap raises
    ``GeometricCapExceeded``.
    """
    return oracle.sample_geometric(u, v)


@dataclass(frozen=True)
class BalancedEstimateParams:
    """Sample-shape of one balanced ratio estimate.

    M groups of N values are averaged and the lower median of the group
    means is taken; the underlying geometric waits are spread round robin
    over the lighter cluster (see :func:`round_robin_counts`).
    """

    M: int
    N: int

    @staticmethod
    def from_formulas(A1: float, A2: float, eps: float, alpha: float,
                      delta: float) -> "BalancedEstimateParams":
        """Worst-case sample shape; requires eps < 1/5."""
        check_balanced_eps(eps)
        b1 = max(2.0 * eps / (1.0 - eps - 0.75),
                 6.0 / (1.0 - eps),
                 24.0 * eps / (23.0 - 4.0 * eps))
        n_ae = b1 * b1 / (alpha * eps * eps)
        M = math.ceil(8.0 * math.log(2.0 / delta))
        N = math.ceil(2.0 * A1 * (1.0 + A1 / A2) * n_ae)
        return BalancedEstimateParams(M=M, N=N)


def round_robin_counts(M: int, N: int, size: int) -> np.ndarray:
    """M x size matrix of how many of M * N values group g takes from member s.

    Value k of the M * N goes to member k mod size and to group k // N, so
    count[g, s] is the number of k in [g N, (g + 1) N) with k = s mod size.
    Each row sums to N; column s sums to the round-robin quota of member s
    (the first M * N mod size members take one value more than the rest).
    """
    edges = np.arange(M + 1, dtype=np.int64)[:, None] * N
    # how many k in [0, edge) are congruent to s mod size
    below = (edges - np.arange(size, dtype=np.int64) + (size - 1)) // size
    return np.diff(below, axis=0)


def balanced_estimate_ratio(oracle, graph, i: int, j: int, eps: float,
                            alpha: float, delta: float,
                            params: BalancedEstimateParams | None = None,
                            ) -> RatioEstimate:
    """Estimate w_{c_i} / w_{c_j} (i > j) while spreading queries over C_j.

    For each member s of cluster j, the product of the member-to-center
    ratio r(c_j, s) and a geometric wait of c_i against s is an unbiased
    estimate of w_{c_j} / w_{c_i}. M * N such values, taken round robin
    across the cluster so no member answers more than ceil(M N / |C_j|) of
    them, are grouped into M means; Y is the lower median of the means. A
    value of Y <= (3/4) alpha reports the ratio as infinite, otherwise the
    estimate is 1 / Y. This primitive never reports zero.

    A group mean needs only the loss total each member contributes to it,
    so the whole estimate is one ``sample_geometric_sums`` call on the
    count matrix of :func:`round_robin_counts`, one column per member:
    O(M |C_j|) time and memory, not O(M N). A demand of M * N above 2^62
    waits raises ``DemandTooLarge`` before anything is drawn.

    With the worst-case parameters (requiring eps < 1/5): a true ratio at
    most 1/alpha is never reported infinite, one of at least 9/alpha always
    is, and finite reports are within a (1 +- 10 eps) factor.
    """
    if not i > j:
        raise ValueError("need i > j (heavier cluster first)")
    members = graph.clusters[j]
    if params is None:
        params = BalancedEstimateParams.from_formulas(
            graph.a1, graph.a2, eps, alpha, delta)
    if params.M * params.N > MAX_WAITS:
        raise DemandTooLarge("the M * N waits of one balanced estimate",
                             params.M * params.N, MAX_WAITS,
                             "use the calibrated budget or a larger eps")
    c_i = int(graph.centers[i])
    c_j = int(graph.centers[j])

    counts = round_robin_counts(params.M, params.N, len(members))
    # math.exp, not np.exp, whose SIMD loop can differ in the last bit
    scale = np.array([1.0 if s == c_j else math.exp(-graph.star_log[s])
                      for s in members.tolist()])
    sums = oracle.sample_geometric_sums(c_i, members, counts)
    # one row at a time, so no M x |C_j| product is held at once
    group_means = np.array([(row * scale).sum() for row in sums]) / params.N
    y = float(np.sort(group_means)[(params.M - 1) // 2])
    return RatioEstimate(math.inf if y <= 0.75 * alpha else -math.log(y))
