"""Approximate weight orderings and cluster graphs over the items.

An ``eps_o``-ordering is a permutation s_1 .. s_n such that whenever i < j,
(1 - eps_o) * w_{s_i} <= w_{s_j}: lighter items come first, up to slack.

A cluster graph groups the ordering into contiguous clusters, each with a
designated center, such that (for parameters A1, A2, eps):

* every member u of cluster i satisfies 1/A1 <= w_u / w_{c_i} <= A1,
* centers of later clusters dominate earlier ones, w_{c_i} / w_{c_j} >= A2
  for i > j,
* every non-center member carries a star edge holding a (1 +- eps)-accurate
  estimate of w_u / w_{c_i}, stored in log space so the reverse direction
  is its bit-exact negation.

Both clusterers read ratios under :func:`estimate_ratio`'s contract.
``cluster_sort``'s scan reads every item at that call's fixed m, and
``quicksort_clustering`` reads each pivot's group with
:func:`sequential_log_ratios`, which stops each pair once its estimate is
decided and never reads past that m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# estimate_ratio is unused, but perfbench's tracer patches it here
from .primitives import (check_delta, estimate_ratio,  # noqa: F401
                         log_ratio_of_wins, ratio_sample_size,
                         sequential_log_ratios)


def _pivot_sort(n: int, rng: np.random.Generator | None, split) -> list:
    """:func:`quicksort_clustering`'s sort of ``range(n)``, depth first.

    A group of two or more items draws its pivot uniformly from ``rng``; a
    group of one is its own pivot and draws nothing. ``split(pivot, rest)``,
    with ``rest`` the rest of the group in group order, returns ``(lighter,
    leaf, heavier)``. An explicit stack sorts lighter groups first, so
    pivots are drawn and ``split`` is called depth first, and the leaves
    come back lightest first.
    """
    if rng is None:
        rng = np.random.default_rng(0xC0FFEE)
    leaves: list = []
    stack: list = [("sort", list(range(n)))]
    while stack:
        op, payload = stack.pop()
        if op == "emit":
            leaves.append(payload)
        elif payload:
            at = int(rng.integers(len(payload))) if len(payload) > 1 else 0
            lighter, leaf, heavier = split(payload[at],
                                           payload[:at] + payload[at + 1:])
            stack += [("sort", heavier), ("emit", leaf), ("sort", lighter)]
    return leaves


def epsilon_ordering(oracle, eps_o: float, delta: float,
                     rng: np.random.Generator | None = None) -> np.ndarray:
    """Sort the oracle's n items by weight using noisy pairwise majority votes.

    Returns an eps_o-ordering: the int64 item ids, lightest first. Randomized
    quicksort where each item-vs-pivot comparison is decided by a majority
    over k = ceil((18 / eps_o^2) ln(4 n^2 / delta)) pair queries, which
    suffices to order any pair whose weights differ by more than a
    (1 - eps_o) factor; closer pairs may land either way, which is exactly
    the slack an eps_o-ordering allows. Ties favor the pivot, i.e. the item
    is placed on the lighter side.

    It sorts level by level: at each depth, one vector draw from ``rng``
    picks a uniform pivot for every group of two or more items, one ragged
    ``oracle.pair_win_count`` call answers every (pivot, member) pair of
    the depth, and each group splits into its lighter members, pivot and
    heavier members, each in group order. Quicksort's output and cost do
    not depend on the order its groups are split in, so this has the law,
    not the draws, of a depth-first sort.
    """
    if not (0.0 < eps_o < 1.0):
        raise ValueError("eps_o must lie in (0, 1)")
    check_delta(delta)
    n = oracle.n
    k = math.ceil((18.0 / (eps_o * eps_o)) * math.log(4.0 * n * n / delta))
    rng = np.random.default_rng(0xC0FFEE) if rng is None else rng
    order = np.arange(n, dtype=np.int64)
    sizes = np.array([n])   # the groups, each a contiguous slice of order
    while (sizes > 1).any():
        split = sizes > 1
        at = (np.cumsum(sizes) - sizes)[split] + rng.integers(sizes[split])
        group = np.repeat(np.arange(sizes.size), sizes)
        member = split[group]
        member[at] = False
        runs = sizes[split] - 1
        wins = oracle.pair_win_count(order[at], order[member], k,
                                     starts=np.cumsum(runs) - runs)
        key = 3 * group + 1   # 3g lighter, 3g + 1 pivot or leaf, 3g + 2 heavy
        key[member] += np.where(2 * wins < k, 1, -1)   # a tie to the pivot
        order = order[np.argsort(key, kind="stable")]
        sizes = np.unique(key, return_counts=True)[1]
    return order


@dataclass
class ClusterGraph:
    """Clusters of comparable items with centers and star-edge ratio estimates."""

    clusters: list          # list of int64 arrays, members in ordering position
    centers: np.ndarray     # centers[i] is the center of clusters[i]
    star_log: dict          # non-center member u -> log estimate of w_u / w_center
    gamma: np.ndarray       # gamma[u] = cluster index of item u
    a1: float
    a2: float
    eps: float
    violations: list = field(default_factory=list)

    @property
    def T(self) -> int:
        return len(self.clusters)

    @property
    def n(self) -> int:
        return self.gamma.size

    def check_structure(self) -> None:
        """Raise AssertionError unless the graph is a well-formed clustering.

        The clusters must partition the items, each must hold its center,
        ``gamma`` must name each item's cluster, and every member but a
        center must have a star edge.
        """
        sizes = [len(c) for c in self.clusters]
        seen = np.concatenate([np.asarray(c) for c in self.clusters])
        if not np.array_equal(np.sort(seen), np.arange(self.n)):
            raise AssertionError("clusters must partition the items")
        label = np.repeat(np.arange(len(sizes)), sizes)
        # a partition holds each center at most once
        is_center = seen == np.asarray(self.centers)[label]
        if np.count_nonzero(is_center) < len(sizes):
            raise AssertionError("center must belong to its cluster")
        if np.any(self.gamma[seen] != label):
            raise AssertionError("gamma inconsistent with clusters")
        for u in seen[~is_center].tolist():
            if u not in self.star_log:
                raise AssertionError("missing star edge for item {}".format(u))


def _cluster_graph(n: int, leaves: list, a1: float, a2: float, eps: float,
                   violations=()) -> ClusterGraph:
    """The checked graph of ``leaves``, one (members, center, star edges) per cluster."""
    clusters = [np.array(members, dtype=np.int64) for members, _, _ in leaves]
    gamma = np.empty(n, dtype=np.int64)
    star_log: dict = {}
    for i, (_, _, edges) in enumerate(leaves):
        gamma[clusters[i]] = i
        star_log.update(edges)
    graph = ClusterGraph(clusters=clusters,
                         centers=np.array([c for _, c, _ in leaves], dtype=np.int64),
                         star_log=star_log, gamma=gamma, a1=a1, a2=a2, eps=eps,
                         violations=list(violations))
    graph.check_structure()
    return graph


def _scan_stop(m: int, c: float, log_tau: float) -> int:
    """The fewest wins in m queries whose log ratio exceeds ``log_tau``.

    The least w in [0, m] with ``log_ratio_of_wins(w, m, c) > log_tau``,
    or m + 1 when there is none; found by bisection, as that log ratio is
    nondecreasing in w.
    """
    lo, hi = 0, m + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if log_ratio_of_wins(mid, m, c) > log_tau:
            hi = mid
        else:
            lo = mid + 1
    return lo


def cluster_sort(oracle, alpha: float, eps: float, delta: float,
                 rng: np.random.Generator | None = None) -> ClusterGraph:
    """Cluster an approximate ordering by walking it with ratio estimates.

    First computes a 1/3-ordering at confidence delta/2, then scans it: each
    item is compared to the current cluster center with a ratio estimate at
    cutoff 2 alpha / 3 and confidence delta/(2n). When the estimated ratio
    exceeds tau = 3 (1 + eps) / (2 alpha), the current cluster is closed and
    the item starts a new one; otherwise the estimate becomes the item's
    star edge. Yields a (2/alpha, 1/alpha, eps)-cluster graph with
    probability 1 - delta.

    Each run of the scan against one center is one ``oracle.pair_win_count``
    call on the rest of the ordering, with ``stop`` set to the fewest wins
    that close the cluster (see :func:`_scan_stop`): the oracle answers up
    to the item that starts the next cluster and draws nothing past it.
    Each answered item is read as :func:`estimate_ratio` reads one pair's
    wins, so the draws, the ledger and the graph are those of one
    ``estimate_ratio`` call per item.

    Requires eps in (0, 1/7). A zero ratio estimate against the current
    center contradicts the ordering guarantee; it is recorded in the
    graph's ``violations`` list (and a fallback edge at ratio alpha is
    used) rather than raised.
    """
    if not (0.0 < eps < 1.0 / 7.0):
        raise ValueError("eps must lie in (0, 1/7)")
    if not (0.0 < alpha <= 0.5):
        raise ValueError("alpha must lie in (0, 1/2]")
    check_delta(delta)
    n = oracle.n
    seq = epsilon_ordering(oracle, 1.0 / 3.0, delta / 2.0, rng)
    log_tau = math.log(3.0 * (1.0 + eps) / (2.0 * alpha))
    c, m = ratio_sample_size(2.0 * alpha / 3.0, eps, delta / (2.0 * n))
    stop = _scan_stop(m, c, log_tau)

    leaves: list = []
    violations: list = []
    center = int(seq[0])
    start = 0
    pending: dict = {}   # member -> log ratio vs the current center
    pos = 1
    while pos < n:
        wins = oracle.pair_win_count(seq[pos:], center, m, stop=stop).tolist()
        for item, w in zip(seq[pos:pos + len(wins)].tolist(), wins):
            log_ratio = log_ratio_of_wins(w, m, c)
            if log_ratio > log_tau:
                leaves.append((seq[start:pos], center, pending))
                pending = {}
                center = item
                start = pos
            elif log_ratio == -math.inf:
                violations.append(("zero-ratio", item, center))
                pending[item] = math.log(alpha)
            else:
                pending[item] = log_ratio
            pos += 1
    leaves.append((seq[start:], center, pending))
    return _cluster_graph(n, leaves, 2.0 / alpha, 1.0 / alpha, eps, violations)


def quicksort_clustering(oracle, alpha: float, eps: float, delta: float,
                         rng: np.random.Generator | None = None) -> ClusterGraph:
    """Cluster items by recursive pivoting, querying each pair at most once.

    A random pivot is ratio-estimated against every other item in its group
    at confidence delta/n^2. Finite estimates join the pivot's cluster (the
    estimate becomes the star edge), zero estimates (item much heavier) are
    recursed into the following clusters, infinite ones into the preceding
    clusters. Yields a (7/alpha, 1/alpha, eps)-cluster graph with
    probability 1 - delta.

    Each pivot's estimates are one :func:`sequential_log_ratios` call on
    its group: every pair keeps :func:`estimate_ratio`'s contract and is
    charged at most that call's fixed m, but stops as soon as its
    estimate is decided. At eps 0.1 most pairs settle at the sampler's
    first look, about a quarter of m.
    """
    check_delta(delta)
    n = oracle.n

    def split(pivot, rest):
        if not rest:
            return [], ([pivot], pivot, {}), []
        group = np.array(rest, dtype=np.int64)
        logs = sequential_log_ratios(oracle, pivot, group, alpha, eps,
                                     delta / (n * n))
        finite = np.isfinite(logs)
        members = group[finite].tolist()
        edges = dict(zip(members, (-logs[finite]).tolist()))   # w_s / w_pivot
        return (group[logs == math.inf].tolist(),
                (sorted(members + [pivot]), pivot, edges),
                group[logs == -math.inf].tolist())

    return _cluster_graph(n, _pivot_sort(n, rng, split), 7.0 / alpha,
                          1.0 / alpha, eps)
