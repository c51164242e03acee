"""Estimation forests: sparse graphs of pairwise weight-ratio estimates.

A (t, eps)-estimation forest on the items of a cluster graph is a forest
whose edges carry log ratio estimates, with cluster labels gamma, such that
for any items u, v with gamma(u) >= gamma(v):

1. if their hop distance d(u, v) is at most t, multiplying the edge
   estimates along the path gives w_u / w_v within a (1 +- eps) factor,
   in both directions;
2. if t < d(u, v) < infinity, v's side is negligible: both the true weights
   and the estimated weights of items s with gamma(s) <= gamma(v) in u's
   tree sum to at most eps * w_u (resp. eps * w_hat_u);
3. if d(u, v) is infinite, the same weight-sum bound holds and the two
   trees are separated in cluster index: every member of u's tree has a
   strictly higher gamma than every member of v's tree;
4. items in the same cluster are always within hop distance t.

Both builders below produce forests with t = 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_BUDGET, QueryBudget
from .errors import ForestBuildFailure
from .ordering import ClusterGraph, cluster_sort, quicksort_clustering
from .primitives import (RatioEstimate, balanced_estimate_ratio, check_delta,
                         estimate_ratio)

HOP_BOUND = 5
# Values per temporary in validate_forest's row blocks.
VALIDATE_BLOCK_VALUES = 1 << 16


@dataclass
class PotentialState:
    """Per-cluster bookkeeping of the center-to-center estimation thresholds."""

    Z: np.ndarray        # Z[i] = alpha * Z[i-1] + |C_i| (1-based, Z[0] = 0)


@dataclass
class EstimationForest:
    """A forest of ratio estimates over the items, plus its cluster graph."""

    graph: ClusterGraph
    edge_log: dict                    # (u, v) with u < v -> log estimate w_u / w_v
    eps: float
    t: int = HOP_BOUND
    potential: PotentialState | None = None
    stats: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.graph.n

    def adjacency(self) -> dict:
        adj: dict = {u: [] for u in range(self.n)}
        try:
            for (a, b) in self.edge_log:
                adj[a].append(b)
                adj[b].append(a)
        except KeyError:
            raise ValueError("edge ({}, {}) names an item outside range({})"
                             .format(a, b, self.n)) from None
        return adj

    def log_ratio(self, u: int, v: int) -> float:
        """Log estimate of w_u / w_v along the edge {u, v}."""
        if u < v:
            return self.edge_log[(u, v)]
        return -self.edge_log[(v, u)]

    def add_edge(self, u: int, v: int, log_r_uv: float) -> None:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError("edge ({}, {}) names an item outside range({})"
                             .format(u, v, self.n))
        if u == v:
            raise ValueError("edge ({}, {}) is a self-loop".format(u, v))
        key, val = ((u, v), log_r_uv) if u < v else ((v, u), -log_r_uv)
        if key in self.edge_log:
            raise AssertionError("edge {} added twice".format(key))
        self.edge_log[key] = val

    def components(self) -> list:
        order, parent, size, _, _ = _traverse(self, range(self.n))
        return [np.sort(order[k:k + size[order[k]]])
                for k in np.flatnonzero(parent[order] < 0)]

    def path_logs(self) -> np.ndarray:
        """Log estimated weight of every item, anchored at 0 per component root."""
        return _traverse(self, range(self.n))[4]

    def hop_distances(self) -> np.ndarray:
        """All-pairs hop counts; -1 marks disconnected pairs."""
        return _hop_matrix(_traverse(self, range(self.n)), np.int64)


def _hop_matrix(walk: tuple, dtype) -> np.ndarray:
    """Hop counts among the items ``walk`` reached, as ``dtype``, which must
    hold -1 to n; -1 marks items of different trees.

    ``walk`` is a :func:`_traverse` of the forest, or one whose preorder is
    cut down to whole trees of it. Rows and columns follow the reached items
    in increasing order, so a walk from every item gives the n x n matrix.
    Rows are filled in preorder, each from its parent's: one step down from
    p to its child w adds a hop towards every item of the tree except w's
    own subtree, which comes a hop closer.
    """
    order, parent, size, root, _ = walk
    slot = np.zeros(parent.size, dtype=np.int64)  # row of each reached item
    slot[np.sort(order)] = np.arange(order.size)
    pre = np.zeros(parent.size, dtype=np.int64)   # position in the preorder
    pre[order] = np.arange(order.size)
    cols = slot[order]
    below_root = order[parent[order] >= 0]
    depth = np.zeros(parent.size, dtype=np.int64)
    for w in below_root:
        depth[w] = depth[parent[w]] + 1
    dist = np.full((order.size, order.size), -1, dtype=dtype)
    dist[slot[root[order]], cols] = depth[order]  # a root's row holds depths
    for w in below_root:
        lo = pre[root[w]]
        tree = cols[lo:lo + size[root[w]]]
        row = dist[slot[parent[w]], tree] + 1
        row[pre[w] - lo:pre[w] - lo + size[w]] -= 2
        dist[slot[w], tree] = row
    return dist


def _tree_diameters(walk: tuple) -> np.ndarray:
    """Hop diameter of each item's tree, from one pass up the preorder."""
    order, parent, _, root, _ = walk
    down = [0] * parent.size   # longest path down from an item
    span = [0] * parent.size   # longest path within its subtree through it
    up = parent.tolist()
    for w in reversed(order.tolist()):
        p = up[w]
        if p >= 0:
            reach = down[w] + 1
            span[p] = max(span[p], down[p] + reach)
            down[p] = max(down[p], reach)
    diameter = np.zeros(parent.size, dtype=np.int64)
    np.maximum.at(diameter, root, span)
    return diameter[root]


def _traverse(forest: EstimationForest, roots) -> tuple:
    """Depth-first walk of the forest from each root not reached before it.

    Returns the reached items in preorder, then per item its parent (-1 at a
    root), subtree size, tree root (-1 if unreached) and the sum of edge log
    ratios down from its root. Every subtree is one contiguous run of the
    preorder. Raises ValueError when the edges close a cycle.
    """
    adj = forest.adjacency()
    parent, size, root = [-1] * forest.n, [1] * forest.n, [-1] * forest.n
    order, lam = [], [0.0] * forest.n
    for r in roots:
        if root[r] >= 0:
            continue
        root[r], stack = r, [r]
        while stack:
            u = stack.pop()
            order.append(u)
            for w in adj[u]:
                if root[w] < 0:
                    root[w], parent[w] = r, u
                    lam[w] = lam[u] + forest.log_ratio(w, u)
                    stack.append(w)
                elif w != parent[u]:
                    raise ValueError("forest has a cycle through {}".format(w))
    for w in reversed(order):
        if parent[w] >= 0:
            size[parent[w]] += size[w]
    return (*(np.array(a, dtype=np.int64)
              for a in (order, parent, size, root)), np.array(lam))


def _star_forest(graph: ClusterGraph, eps: float) -> EstimationForest:
    """The forest of ``graph``'s star edges, one per member but a center."""
    sizes = [len(c) for c in graph.clusters]
    members = np.concatenate(graph.clusters).tolist()
    centers = np.repeat(graph.centers, sizes).tolist()
    edge_log = {}
    for u, c in zip(members, centers):
        if u != c:   # as add_edge stores it: key u < v, value log w_u / w_v
            log_r = graph.star_log[u]
            edge_log[(u, c) if u < c else (c, u)] = log_r if u < c else -log_r
    return EstimationForest(graph=graph, edge_log=edge_log, eps=eps)


def build_estimation_forest(oracle, alpha: float, eps: float, delta: float,
                            rng: np.random.Generator | None = None,
                            ) -> EstimationForest:
    """Adaptive forest builder with potential-based thresholds.

    Clusters the items with :func:`cluster_sort` at accuracy eps/10 and
    confidence delta/3, then links cluster centers from heaviest to
    lightest. The infinity cutoff for estimating against center j is
    beta_j = alpha^2 eps / (8 Z_j) where Z_j = alpha Z_{j-1} + |C_j|, so a
    center is only deemed unreachable when everything at or below cluster j
    is negligible relative to it. Each finite or zero estimate is floored
    at alpha^{i-j}. At most two ratio estimates are issued per target cluster,
    and sum(Z) <= n / (1 - alpha). Returns a (5, eps)-estimation forest
    with probability 1 - delta.
    """
    check_delta(delta)
    eps1 = eps / 10.0
    graph = cluster_sort(oracle, alpha, eps1, delta / 3.0, rng)
    n, T = graph.n, graph.T

    sizes = np.array([len(c) for c in graph.clusters], dtype=np.float64)
    Z = np.zeros(T + 1)
    for i in range(1, T + 1):
        Z[i] = alpha * Z[i - 1] + sizes[i - 1]
    assert Z.sum() <= n / (1.0 - alpha) + 1e-9
    beta = np.zeros(T + 1)
    beta[1:] = (alpha * alpha * eps) / (8.0 * Z[1:])

    forest = _star_forest(graph, eps)
    forest.potential = PotentialState(Z=Z)
    calls_per_target = np.zeros(T + 1, dtype=np.int64)

    # walk center pairs heaviest-first; i and j are 0-based cluster indices
    i, j = T - 1, T - 2
    while j >= 0:
        c_i, c_j = int(graph.centers[i]), int(graph.centers[j])
        r = estimate_ratio(oracle, c_i, c_j, float(beta[j + 1]), eps1,
                           delta / (6.0 * n))
        calls_per_target[j + 1] += 1
        if not r.is_infinite:
            # max turns a zero estimate (log -inf) into the floor
            floor_log = (i - j) * math.log(1.0 / alpha)
            forest.add_edge(c_i, c_j, max(r.log_ratio, floor_log))
            j -= 1
        elif i == j + 1:
            i = j
            j -= 1
        else:
            i = j + 1
    assert np.all(calls_per_target <= 2)
    forest.stats = {"er_calls_per_target": calls_per_target[1:].copy()}
    return forest


def scan_window(n: int, alpha: float, eps1: float) -> int:
    """How many clusters back a center may need to connect."""
    return math.ceil(math.log(49.0 * n / (alpha * eps1)) / math.log(1.0 / alpha))


def build_balanced_estimation_forest(oracle, alpha: float, eps: float,
                                     delta: float,
                                     budget: QueryBudget = DEFAULT_BUDGET,
                                     rng: np.random.Generator | None = None,
                                     ) -> EstimationForest:
    """Forest builder whose per-pair query load stays polylogarithmic.

    Clusters with :func:`quicksort_clustering`, then walks the centers from
    heaviest to lightest. For the current center c_i it scans up to
    Lambda(n) clusters back for the nearest center j_m it can finitely
    estimate (queries spread over cluster j's members), floors that
    estimate at alpha^{i - j_m}, then bridges every center strictly between
    i and j_m by dividing through a second spread estimate at the tighter
    cutoff beta_{j_m} / 9. A sentinel from a bridging estimate is a hard
    failure (``ForestBuildFailure``); the builder never retries on its own.
    Returns a (5, eps)-estimation forest.
    """
    check_delta(delta)
    eps1, eps2 = budget.split_eps(eps)
    graph = quicksort_clustering(oracle, alpha, eps2, delta / 4.0, rng)
    n, T = graph.n, graph.T
    window = scan_window(n, alpha, eps1)
    pair_delta = delta / (4.0 * n * n)

    sizes = np.array([len(c) for c in graph.clusters], dtype=np.float64)
    beta = np.zeros(T + 1)
    beta[1:] = budget.beta(alpha, eps1, sizes, window)

    ber_calls: dict = {}

    def ber(i: int, j: int, cutoff: float) -> RatioEstimate:
        ber_calls[(i, j)] = ber_calls.get((i, j), 0) + 1
        return balanced_estimate_ratio(
            oracle, graph, i, j, eps2, cutoff, pair_delta,
            budget.balanced_params(graph, eps2, cutoff, pair_delta))

    forest = _star_forest(graph, eps)
    i = T - 1
    while i > 0:
        c_i = int(graph.centers[i])
        j_m = -1
        for j in range(max(0, i - window), i):
            r = ber(i, j, float(beta[j + 1]))
            if not r.is_infinite:
                j_m = j
                log_near = max(r.log_ratio, (i - j) * math.log(1.0 / alpha))
                break
        if j_m < 0:
            i -= 1
            continue
        forest.add_edge(c_i, int(graph.centers[j_m]), log_near)
        for j in range(i - 1, j_m, -1):
            rho = ber(j, j_m, float(beta[j_m + 1]) / 9.0)
            if not rho.is_finite:
                raise ForestBuildFailure(
                    "bridging estimate between clusters {} and {} came back "
                    "as a sentinel".format(j, j_m))
            floor_log = (i - j) * math.log(1.0 / alpha)
            log_r = max(log_near - rho.log_ratio, floor_log)
            forest.add_edge(c_i, int(graph.centers[j]), log_r)
        i = j_m
    forest.stats = {"ber_calls": ber_calls, "scan_window": window}
    return forest


@dataclass
class ViolationReport:
    """Outcome of checking a forest against the true model weights."""

    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_forest(forest: EstimationForest, log_w: np.ndarray,
                    ) -> ViolationReport:
    """Check every condition of the forest definition against true weights.

    ``log_w`` are the ground-truth log weights, one finite value per item;
    the report lists one entry per violated (condition, pair) with the
    offending quantities, in (u, v) order. Raises ValueError, before the
    audit, for ``log_w`` of the wrong shape or with a non-finite value, and
    for a forest with a non-finite path log.

    Pairs are checked with numpy in blocks of rows u, each temporary holding
    about ``VALIDATE_BLOCK_VALUES`` values, and only what the report reads
    is computed. Outside condition 4, which cites a count beyond t, a hop
    count is read only as a class: within t, beyond t, or another tree.
    Every pair of a tree whose diameter is at most t is within t, so hop
    counts are built only among the items of trees deeper than t, and the
    other classes come from each item's tree. The mass sums of conditions 2
    and 3 are read only at pairs beyond t or in another tree, so only rows
    holding such a pair get them. Two O(n) screens keep rows out of the
    blocks: the log errors of condition 1 are built only on rows of a tree
    whose spread of lam - log_w could reach log1p(eps), and a row of such
    a clean tree, at most t across and below every item of the other trees
    in cluster, holds no pair that can fail and is skipped.
    """
    log_w = np.asarray(log_w, dtype=np.float64)
    n, eps, t = forest.n, forest.eps, forest.t
    if log_w.shape != (n,):
        raise ValueError("log_w has shape {}, not one value for each of {} "
                         "items".format(log_w.shape, n))
    if not np.all(np.isfinite(log_w)):
        raise ValueError("log_w of item {} is not finite".format(
            int(np.flatnonzero(~np.isfinite(log_w))[0])))
    gamma = forest.graph.gamma
    walk = _traverse(forest, range(n))
    order, _, _, comp_of, lam = walk
    if not np.all(np.isfinite(lam)):
        raise ValueError("path log of item {} is not finite: so is an edge "
                         "estimate on its path".format(
                             int(np.flatnonzero(~np.isfinite(lam))[0])))
    # hop counts among the items of trees deeper than t, in item order
    dtype = np.min_scalar_type(-n - 1)  # the narrowest type holding -1..n
    deep = _tree_diameters(walk) > t
    hops = _hop_matrix((order[deep[order]], *walk[1:]), dtype)
    slot = np.cumsum(deep) - 1          # an item's row of hops if deep
    deep_items = np.flatnonzero(deep)
    # lowest and highest cluster of each tree, indexed by its root
    lo_gamma, hi_gamma = np.full(n, gamma.max()), np.zeros_like(gamma)
    np.minimum.at(lo_gamma, comp_of, gamma)
    np.maximum.at(hi_gamma, comp_of, gamma)
    # with d = lam - log_w, a pair's log error is d[u] - d[v] up to a
    # rounding the margin bounds: a tree whose d spans at most log1p(eps)
    # less the margin is clean, with no condition-1 hit; one whose d
    # overflows stays dirty
    with np.errstate(over="ignore", invalid="ignore"):
        d = lam - log_w
        d_lo, d_hi = np.full(n, np.inf), np.full(n, -np.inf)
        np.minimum.at(d_lo, comp_of, d)
        np.maximum.at(d_hi, comp_of, d)
        margin = 8 * 2.0**-52 * (np.abs(lam).max() + np.abs(log_w).max())
        dirty = ~(d_hi - d_lo <= math.log1p(eps) - margin)[comp_of]
    # only the lowest tree has items below the second-lowest tree's lowest
    # cluster, and those lie below every other tree
    lows = np.sort(lo_gamma[comp_of == np.arange(n)])
    below = gamma < np.append(lows, gamma.max() + 1)[1]
    # a row of a clean tree at most t across, below every other tree, is
    # quiet: it holds neither a far pair nor a condition-1 hit
    active = np.flatnonzero(dirty | deep | ~below)
    by_gamma = np.argsort(gamma, kind="stable")
    # the mass sums of conditions 2 and 3 depend on v only through gamma(v):
    # they are prefix sums over u's tree in gamma order, up to position upto[v]
    upto = np.searchsorted(gamma[by_gamma], gamma, side="right") - 1
    rows = max(1, VALIDATE_BLOCK_VALUES // n)
    out = []

    for lo in range(0, active.size, rows):
        u = active[lo:lo + rows]
        gu, cu = gamma[u, None], comp_of[u, None]
        same = comp_of == cu
        # within t hops: all of u's tree, unless its diameter is above t
        near = same.copy()
        in_deep = np.flatnonzero(deep[u])
        h = hops[slot[u[in_deep]]]
        near[in_deep[:, None], deep_items] = (h >= 0) & (h <= t)
        pairs = gu >= gamma
        pairs[np.arange(u.size), u] = False
        far = pairs & ~near
        # condition 1 reads the rows of dirty trees, conditions 2 to 4 the
        # rows holding a far pair
        e = np.flatnonzero(dirty[u])
        err = (lam[u[e], None] - lam) - (log_w[u[e], None] - log_w)
        s = np.flatnonzero(far.any(axis=1))
        at = np.zeros((2, u.size), dtype=np.int64)  # each row's place in e, s
        at[0, e], at[1, s] = np.arange(e.size), np.arange(s.size)
        fs, gs, cs = far[s], gu[s], cu[s]
        # terms of u's tree no heavier in cluster than u; the rest stay 0
        keep = (comp_of[by_gamma] == cs) & (gamma[by_gamma] <= gs)
        # column v of a mass sum is the prefix sum at upto[v]
        true_sum, est_sum = (
            np.cumsum(np.exp(x[by_gamma] - x[u[s], None], where=keep,
                             out=np.zeros(keep.shape)), axis=1)[:, upto]
            for x in (log_w, lam))
        checks = np.zeros((5, *far.shape), dtype=bool)
        # the (1 +- eps) bracket must hold in both directions, which
        # pins the log error to at most log(1 + eps) in magnitude
        checks[0, e] = pairs[e] & near[e] & (np.abs(err) > math.log1p(eps))
        checks[1:, s] = (fs & (true_sum > eps), fs & (est_sum > eps),
                         fs & ~same[s] & (gs > gamma)
                         & (lo_gamma[cs] <= hi_gamma[comp_of]),
                         fs & (gs == gamma))
        hit = np.logical_or.reduce(checks)
        if not hit.any():
            continue
        i, v = np.nonzero(hit)
        # (pair, check) hits, in (u, v) order and check order within a pair
        row, k = np.nonzero(checks[:, i, v].T)
        mass = np.where(same[i, v], 2, 3)
        conds = np.column_stack((np.ones_like(mass), mass, mass,
                                 np.full_like(mass, 3), np.full_like(mass, 4)))

        def hop_counts(a, b):
            # condition 4 cites the hop count, -1 for another tree
            count = np.full(a.size, -1, dtype=dtype)
            tree = same[a, b]
            count[tree] = hops[slot[u[a[tree]]], slot[b[tree]]]
            return count

        cite = (lambda a, b: err[at[0, a], b],
                lambda a, b: true_sum[at[1, a], b],
                lambda a, b: est_sum[at[1, a], b],
                # condition 3 cites the cluster range of both trees
                lambda a, b: np.fromiter(
                    zip(lo_gamma[cu[a, 0]].tolist(),
                        hi_gamma[comp_of[b]].tolist()),
                    dtype=object, count=a.size),
                hop_counts)
        values = np.empty(row.size, dtype=object)
        for check, value in enumerate(cite):
            fired = k == check
            r = row[fired]
            values[fired] = value(i[r], v[r])
        # a pair's entries share one tuple, made before the entries so that
        # the cyclic GC untracks both instead of rescanning millions
        cited = list(zip(u[i].tolist(), v.tolist()))
        out += zip(conds[row, k].tolist(), map(cited.__getitem__, row.tolist()),
                   values.tolist())
    return ViolationReport(violations=out)
