import math

import numpy as np
import pytest

import slatelearn as sl
from conftest import failure_bound, mnl
from slatelearn import ordering as ordering_mod


def is_eps_ordering(sequence, log_w, eps_o):
    lw = log_w[sequence]
    slack = math.log1p(-eps_o)
    return all(lw[j] >= lw[i] + slack
               for i in range(len(lw)) for j in range(i + 1, len(lw)))


def check_cluster_graph(graph, log_w):
    """True when the semantic cluster-graph conditions hold for ground truth."""
    lw_centers = log_w[graph.centers]
    log_a1, log_a2 = math.log(graph.a1), math.log(graph.a2)
    for i, members in enumerate(graph.clusters):
        for u in members:
            gap = log_w[u] - lw_centers[i]
            if not (-log_a1 - 1e-9 <= gap <= log_a1 + 1e-9):
                return False
            if int(u) != int(graph.centers[i]):
                err = graph.star_log[int(u)] - gap
                if abs(err) > math.log1p(graph.eps) + 1e-9:
                    return False
    for i in range(1, graph.T):
        if lw_centers[i] - lw_centers[i - 1] < log_a2 - 1e-9:
            return False
    return True


class TestEpsilonOrdering:
    def test_singleton(self):
        o = sl.LiveOracle(mnl(1.0), seed=0)
        ordering = sl.epsilon_ordering(o, 1, 1.0 / 3.0, 0.1)
        np.testing.assert_array_equal(ordering.sequence, [0])

    def test_uniform_weights_any_order_is_valid(self):
        model = mnl(*([1.0] * 6))
        o = sl.LiveOracle(model, seed=1)
        ordering = sl.epsilon_ordering(o, 6, 1.0 / 3.0, 0.1)
        assert is_eps_ordering(ordering.sequence, model.log_w, 1.0 / 3.0)

    def test_powers_of_two_sort_exactly(self):
        # winner margin is 2/3 on every pair, far beyond the vote's tolerance
        model = sl.LogWeightMnl(np.arange(8) * math.log(2.0))
        delta, trials = 0.05, 100
        exact = 0
        for t in range(trials):
            o = sl.LiveOracle(model, seed=t)
            ordering = sl.epsilon_ordering(o, 8, 1.0 / 3.0, delta,
                                           np.random.default_rng(t))
            exact += np.array_equal(ordering.sequence, np.arange(8))
        assert exact / trials >= 0.95

    def test_only_pairs_queried(self):
        o = sl.LiveOracle(mnl(1.0, 2.0, 4.0, 8.0), seed=2)
        sl.epsilon_ordering(o, 4, 1.0 / 3.0, 0.1)
        assert set(o.ledger.per_size) == {2}

    def test_ordering_type_rejects_non_permutations(self):
        with pytest.raises(ValueError):
            sl.Ordering(np.array([0, 0, 1]), 0.3)


class TestClusterSort:
    def test_rejects_eps_of_a_seventh_or_more(self):
        o = sl.LiveOracle(mnl(1.0, 1.0), seed=0)
        with pytest.raises(ValueError):
            sl.cluster_sort(o, 0.5, 0.2, 0.1)

    def test_uniform_weights_single_cluster(self):
        model = mnl(*([1.0] * 8))
        trials, single = 100, 0
        for t in range(trials):
            o = sl.LiveOracle(model, seed=t)
            g = sl.cluster_sort(o, 0.5, 0.1, 0.05, np.random.default_rng(t))
            single += g.T == 1
        assert single / trials >= 0.90

    def test_light_light_heavy_splits_in_two(self):
        model = mnl(1.0, 1.0, 1e6)
        trials, good = 100, 0
        for t in range(trials):
            o = sl.LiveOracle(model, seed=t)
            g = sl.cluster_sort(o, 0.5, 0.1, 0.05, np.random.default_rng(t))
            good += (g.T == 2 and sorted(g.clusters[0].tolist()) == [0, 1]
                     and g.clusters[1].tolist() == [2])
        assert good / trials >= 0.90

    def test_co_clustered_items_satisfy_width_bound(self):
        # ratio just under the cluster-break threshold keeps both together;
        # Def-style width bound w_u / w_c <= 2 / alpha must then hold
        alpha = 0.5
        model = mnl(1.0, 2.0 / alpha - 0.5)
        for t in range(20):
            o = sl.LiveOracle(model, seed=t)
            g = sl.cluster_sort(o, alpha, 0.1, 0.05, np.random.default_rng(t))
            if g.T == 1:
                c = int(g.centers[0])
                gaps = model.log_w - model.log_w[c]
                assert np.all(gaps <= math.log(2.0 / alpha) + 1e-9)

    def test_semantic_invariants_hold_mostly(self):
        delta, trials = 0.1, 100
        ok = 0
        for t in range(trials):
            model = sl.generate_instance(
                sl.InstanceSpec("power-law", n=12, seed=t, params={"gamma": 2.0}))
            o = sl.LiveOracle(model, seed=t)
            g = sl.cluster_sort(o, 0.5, 0.1, delta, np.random.default_rng(t))
            ok += check_cluster_graph(g, model.log_w)
        assert ok / trials >= 1.0 - failure_bound(delta, trials)

    def test_star_edges_reciprocate_bit_exactly(self):
        model = mnl(1.0, 1.5, 2.0)
        o = sl.LiveOracle(model, seed=4)
        g = sl.cluster_sort(o, 0.5, 0.1, 0.1)
        for i, members in enumerate(g.clusters):
            c = int(g.centers[i])
            for u in members:
                u = int(u)
                if u != c:
                    assert g.log_star_ratio(u, c) == -g.log_star_ratio(c, u)

    def test_only_pairs_queried(self):
        o = sl.LiveOracle(mnl(1.0, 4.0, 16.0), seed=5)
        sl.cluster_sort(o, 0.5, 0.1, 0.1)
        assert set(o.ledger.per_size) == {2}

    def test_zero_ratio_is_recorded_with_a_fallback_edge(self, monkeypatch):
        # an ordering that puts the heavy item first breaks the scan's
        # premise: the light item's ratio against it estimates as zero
        def heavy_first(oracle, n, eps_o, delta, rng=None):
            return sl.Ordering(np.array([1, 0]), eps_o)

        monkeypatch.setattr(ordering_mod, "epsilon_ordering", heavy_first)
        alpha = 0.5
        g = sl.cluster_sort(sl.LiveOracle(mnl(1.0, 1e6), seed=0), alpha, 0.1,
                            0.1)
        assert g.violations == [("zero-ratio", 0, 1)]
        assert g.T == 1 and int(g.centers[0]) == 1
        assert g.log_star_ratio(0, 1) == math.log(alpha)


class TestQuicksortClustering:
    def test_uniform_single_cluster(self):
        model = mnl(*([1.0] * 8))
        trials, single = 100, 0
        for t in range(trials):
            o = sl.LiveOracle(model, seed=t)
            g = sl.quicksort_clustering(o, 0.5, 0.15, 0.05,
                                        np.random.default_rng(t))
            single += g.T == 1
        assert single / trials >= 0.90

    def test_extreme_pair_splits_into_singletons(self):
        model = mnl(1.0, 1e6)
        o = sl.LiveOracle(model, seed=0)
        g = sl.quicksort_clustering(o, 0.5, 0.15, 0.1)
        assert g.T == 2
        assert [c.tolist() for c in g.clusters] == [[0], [1]]

    def test_per_pair_cap_is_one_estimate_budget(self):
        n, eps, delta, alpha = 64, 0.2, 0.1, 0.5
        model = sl.generate_instance(
            sl.InstanceSpec("power-law", n=n, seed=0, params={"gamma": 1.0}))
        o = sl.LiveOracle(model, seed=0)
        sl.quicksort_clustering(o, alpha, eps, delta)
        cap = math.ceil((20.0 * (alpha + 1) / (alpha * (eps / 3.0) ** 2))
                        * math.log(6.0 * n * n * 6.0 / delta))
        assert o.ledger.max_per_pair <= cap

    def test_semantic_invariants_hold_mostly(self):
        delta, trials = 0.1, 100
        ok = 0
        for t in range(trials):
            model = sl.generate_instance(
                sl.InstanceSpec("power-law", n=12, seed=t, params={"gamma": 2.0}))
            o = sl.LiveOracle(model, seed=t)
            g = sl.quicksort_clustering(o, 0.5, 0.15, delta,
                                        np.random.default_rng(t))
            ok += check_cluster_graph(g, model.log_w)
        assert ok / trials >= 1.0 - failure_bound(delta, trials)

    def test_handles_deep_chains_without_recursion(self):
        # strictly separated weights force one singleton cluster per item
        model = sl.LogWeightMnl(np.arange(200) * math.log(50.0))
        o = sl.LiveOracle(model, seed=1)
        g = sl.quicksort_clustering(o, 0.5, 0.15, 0.1)
        assert g.T == 200
        np.testing.assert_array_equal(g.centers, np.arange(200))
