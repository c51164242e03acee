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
from .primitives import (BalancedEstimateParams, RatioEstimate,
                         balanced_estimate_ratio, estimate_ratio)

HOP_BOUND = 5


@dataclass
class PotentialState:
    """Per-cluster bookkeeping of the center-to-center estimation thresholds."""

    Z: np.ndarray        # Z[i] = alpha * Z[i-1] + |C_i| (1-based, Z[0] = 0)
    beta: np.ndarray     # infinity cutoffs, beta[i] aligned with Z
    scan_window: int = 0  # how far back a center may connect (balanced only)


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
        for (a, b) in self.edge_log:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def log_ratio(self, u: int, v: int) -> float:
        """Log estimate of w_u / w_v along the edge {u, v}."""
        if u < v:
            return self.edge_log[(u, v)]
        return -self.edge_log[(v, u)]

    def add_edge(self, u: int, v: int, log_r_uv: float) -> None:
        key, val = ((u, v), log_r_uv) if u < v else ((v, u), -log_r_uv)
        if key in self.edge_log:
            raise AssertionError("edge {} added twice".format(key))
        self.edge_log[key] = val

    def components(self) -> list:
        adj = self.adjacency()
        seen = np.zeros(self.n, dtype=bool)
        comps = []
        for root in range(self.n):
            if seen[root]:
                continue
            comp, frontier = [root], [root]
            seen[root] = True
            while frontier:
                u = frontier.pop()
                for w in adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        frontier.append(w)
            comps.append(np.array(sorted(comp), dtype=np.int64))
        return comps

    def path_logs(self) -> np.ndarray:
        """Log estimated weight of every item, anchored at 0 per component root."""
        adj = self.adjacency()
        lam = np.full(self.n, np.nan)
        for comp in self.components():
            root = int(comp[0])
            lam[root] = 0.0
            frontier = [root]
            while frontier:
                u = frontier.pop()
                for w in adj[u]:
                    if np.isnan(lam[w]):
                        lam[w] = lam[u] + self.log_ratio(w, u)
                        frontier.append(w)
        return lam

    def hop_distances(self) -> np.ndarray:
        """All-pairs hop counts; -1 marks disconnected pairs."""
        adj = self.adjacency()
        dist = np.full((self.n, self.n), -1, dtype=np.int64)
        for src in range(self.n):
            dist[src, src] = 0
            frontier = [src]
            while frontier:
                nxt = []
                for u in frontier:
                    for w in adj[u]:
                        if dist[src, w] < 0:
                            dist[src, w] = dist[src, u] + 1
                            nxt.append(w)
                frontier = nxt
        return dist


def _star_forest(graph: ClusterGraph, eps: float) -> EstimationForest:
    forest = EstimationForest(graph=graph, edge_log={}, eps=eps)
    for i, members in enumerate(graph.clusters):
        c = int(graph.centers[i])
        for u in members:
            u = int(u)
            if u != c:
                forest.add_edge(u, c, graph.star_log[u])
    return forest


def _floored(r: RatioEstimate, floor_log: float) -> RatioEstimate:
    """max(r, floor) in log space; sentinels resolve the obvious way."""
    if r.is_infinite:
        return r
    if r.is_zero:
        return RatioEstimate.finite(floor_log)
    return RatioEstimate.finite(max(r.log_ratio, floor_log))


def build_estimation_forest(oracle, alpha: float, eps: float, delta: float,
                            rng: np.random.Generator | None = None,
                            ) -> EstimationForest:
    """Adaptive forest builder with potential-based thresholds.

    Clusters the items with :func:`cluster_sort` at accuracy eps/10 and
    confidence delta/3, then links cluster centers from heaviest to
    lightest. The infinity cutoff for estimating against center j is
    beta_j = alpha^2 eps / (8 Z_j) where Z_j = alpha Z_{j-1} + |C_j|, so a
    center is only deemed unreachable when everything at or below cluster j
    is negligible relative to it. Each finite estimate is floored at
    alpha^{i-j}. At most two ratio estimates are issued per target cluster,
    and sum(Z) <= n / (1 - alpha). Returns a (5, eps)-estimation forest
    with probability 1 - delta.
    """
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
    forest.potential = PotentialState(Z=Z, beta=beta)
    calls_per_target = np.zeros(T + 1, dtype=np.int64)

    # walk center pairs heaviest-first; i and j are 0-based cluster indices
    i, j = T - 1, T - 2
    while j >= 0:
        c_i, c_j = int(graph.centers[i]), int(graph.centers[j])
        r = estimate_ratio(oracle, c_i, c_j, float(beta[j + 1]), eps1,
                           delta / (6.0 * n))
        calls_per_target[j + 1] += 1
        floor_log = (i - j) * math.log(1.0 / alpha)
        r = _floored(r, floor_log) if not r.is_infinite else r
        if not r.is_infinite:
            forest.add_edge(c_i, c_j, r.log_ratio)
            j -= 1
        elif i == j + 1:
            i = j
            j -= 1
        else:
            i = j + 1
    assert np.all(calls_per_target <= 2)
    forest.stats = {"er_calls_per_target": calls_per_target[1:].copy(),
                    "Z_sum": float(Z.sum())}
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
    eps1, eps2 = budget.split_eps(eps)
    graph = quicksort_clustering(oracle, alpha, eps2, delta / 4.0, rng)
    n, T = graph.n, graph.T
    window = scan_window(n, alpha, eps1)
    pair_delta = delta / (4.0 * n * n)

    sizes = np.array([len(c) for c in graph.clusters], dtype=np.float64)
    beta = np.zeros(T + 1)
    lam_factor = window if budget.beta_uses_lambda else 1.0
    beta[1:] = (alpha * alpha * eps1) / (budget.beta_denom * sizes * lam_factor)

    ber_calls: dict = {}

    def ber(i: int, j: int, cutoff: float) -> RatioEstimate:
        ber_calls[(i, j)] = ber_calls.get((i, j), 0) + 1
        if budget.ber_theory_n:
            params = BalancedEstimateParams.from_formulas(
                graph.a1, graph.a2, eps2, cutoff, pair_delta,
                len(graph.clusters[j]))
        else:
            params = BalancedEstimateParams.calibrated(
                eps2, cutoff, pair_delta, len(graph.clusters[j]),
                budget.ber_m_mult, budget.ber_n_mult)
        return balanced_estimate_ratio(oracle, graph, i, j, eps2, cutoff,
                                       pair_delta, params)

    forest = _star_forest(graph, eps)
    forest.potential = PotentialState(Z=np.zeros(0), beta=beta,
                                      scan_window=window)

    i = T - 1
    while i > 0:
        c_i = int(graph.centers[i])
        j_m, r_near = -1, None
        for j in range(max(0, i - window), i):
            r = ber(i, j, float(beta[j + 1]))
            if not r.is_infinite:
                floor_log = (i - j) * math.log(1.0 / alpha)
                r_near = RatioEstimate.finite(max(r.log_ratio, floor_log))
                j_m = j
                break
        if j_m < 0:
            i -= 1
            continue
        forest.add_edge(c_i, int(graph.centers[j_m]), r_near.log_ratio)
        for j in range(i - 1, j_m, -1):
            rho = ber(j, j_m, float(beta[j_m + 1]) / 9.0)
            if not rho.is_finite:
                raise ForestBuildFailure(
                    "bridging estimate between clusters {} and {} came back "
                    "as a sentinel".format(j, j_m))
            floor_log = (i - j) * math.log(1.0 / alpha)
            log_r = max(r_near.log_ratio - rho.log_ratio, floor_log)
            forest.add_edge(c_i, int(graph.centers[j]), log_r)
        i = j_m
    forest.stats = {"ber_calls": ber_calls, "scan_window": window}
    return forest


def forest_to_dict(forest: EstimationForest) -> dict:
    """JSON-friendly dump of a forest for offline inspection."""
    return {
        "n": forest.n,
        "t": forest.t,
        "eps": forest.eps,
        "edges": [[int(u), int(v), float(lr)]
                  for (u, v), lr in sorted(forest.edge_log.items())],
        "clusters": [[int(x) for x in c] for c in forest.graph.clusters],
        "centers": [int(c) for c in forest.graph.centers],
    }


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

    ``log_w`` are the ground-truth log weights; the report lists one entry
    per violated (condition, pair) with the offending quantities.
    """
    log_w = np.asarray(log_w, dtype=np.float64)
    n, eps, t = forest.n, forest.eps, forest.t
    gamma = forest.graph.gamma
    lam = forest.path_logs()
    dist = forest.hop_distances()
    comps = forest.components()
    comp_of = np.empty(n, dtype=np.int64)
    for ci, comp in enumerate(comps):
        comp_of[comp] = ci
    log_1p = math.log1p(eps)
    out = []

    for u in range(n):
        for v in range(n):
            if u == v or gamma[u] < gamma[v]:
                continue
            d = dist[u, v]
            if 0 < d <= t:
                est = lam[u] - lam[v]
                true = log_w[u] - log_w[v]
                # the (1 +- eps) bracket must hold in both directions, which
                # pins the log error to at most log(1 + eps) in magnitude
                if abs(est - true) > log_1p:
                    out.append((1, (u, v), float(est - true)))
            elif d > t or d < 0:
                mask = (comp_of == comp_of[u]) & (gamma <= gamma[v])
                if np.any(mask):
                    true_sum = float(np.exp(log_w[mask] - log_w[u]).sum())
                    est_sum = float(np.exp(lam[mask] - lam[u]).sum())
                    if true_sum > eps:
                        out.append((2 if d > 0 else 3, (u, v), true_sum))
                    if est_sum > eps:
                        out.append((2 if d > 0 else 3, (u, v), est_sum))
                if d < 0 and gamma[u] > gamma[v]:
                    lo_u = int(gamma[comps[comp_of[u]]].min())
                    hi_v = int(gamma[comps[comp_of[v]]].max())
                    if lo_u <= hi_v:
                        out.append((3, (u, v), (lo_u, hi_v)))
            if gamma[u] == gamma[v] and (d < 0 or d > t):
                out.append((4, (u, v), int(d)))
    return ViolationReport(violations=out)
