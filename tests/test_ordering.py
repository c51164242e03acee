import math

import numpy as np
import pytest

import slatelearn as sl
from conftest import failure_bound, mnl, stream_states
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
        ordering = sl.epsilon_ordering(o, 1.0 / 3.0, 0.1)
        assert ordering.dtype == np.int64
        np.testing.assert_array_equal(ordering, [0])

    def test_uniform_weights_any_order_is_valid(self):
        model = mnl(*([1.0] * 6))
        o = sl.LiveOracle(model, seed=1)
        ordering = sl.epsilon_ordering(o, 1.0 / 3.0, 0.1)
        assert is_eps_ordering(ordering, model.log_w, 1.0 / 3.0)

    def test_powers_of_two_sort_exactly(self):
        # winner margin is 2/3 on every pair, far beyond the vote's tolerance
        model = sl.LogWeightMnl(np.arange(8) * math.log(2.0))
        delta, trials = 0.05, 100
        exact = 0
        for t in range(trials):
            o = sl.LiveOracle(model, seed=t)
            ordering = sl.epsilon_ordering(o, 1.0 / 3.0, delta,
                                           np.random.default_rng(t))
            exact += np.array_equal(ordering, np.arange(8))
        assert exact / trials >= 0.95

    def test_only_pairs_queried(self):
        o = sl.LiveOracle(mnl(1.0, 2.0, 4.0, 8.0), seed=2)
        sl.epsilon_ordering(o, 1.0 / 3.0, 0.1)
        assert set(o.ledger.per_size) == {2}

    def test_orders_every_item_of_the_oracle(self):
        o = sl.LiveOracle(mnl(*range(1, 9)), seed=0)
        ordering = sl.epsilon_ordering(o, 1.0 / 3.0, 0.1)
        np.testing.assert_array_equal(np.sort(ordering), np.arange(8))


def depth_first_epsilon_ordering(oracle, eps_o, delta, rng):
    """Reference: the ordering sorted depth first, one array call per pivot."""
    n = oracle.n
    k = math.ceil((18.0 / (eps_o * eps_o)) * math.log(4.0 * n * n / delta))

    def split(pivot, rest):
        if not rest:
            return [], pivot, []
        wins = oracle.pair_win_count(np.array(rest), pivot, k).tolist()
        return ([x for x, w in zip(rest, wins) if 2 * w <= k], pivot,
                [x for x, w in zip(rest, wins) if 2 * w > k])

    return np.array(ordering_mod._pivot_sort(n, rng, split), dtype=np.int64)


def argsort_epsilon_ordering(oracle, eps_o, delta, rng):
    """Reference: the level-order sort that re-sorted all n positions at
    every depth, by a stable argsort of 3 x group + side."""
    n = oracle.n
    k = math.ceil((18.0 / (eps_o * eps_o)) * math.log(4.0 * n * n / delta))
    order = np.arange(n, dtype=np.int64)
    sizes = np.array([n])
    while (sizes > 1).any():
        split = sizes > 1
        at = (np.cumsum(sizes) - sizes)[split] + rng.integers(sizes[split])
        group = np.repeat(np.arange(sizes.size), sizes)
        member = split[group]
        member[at] = False
        runs = sizes[split] - 1
        wins = oracle.pair_win_count(order[at], order[member], k,
                                     starts=np.cumsum(runs) - runs)
        key = 3 * group + 1
        key[member] += np.where(2 * wins < k, 1, -1)
        order = order[np.argsort(key, kind="stable")]
        sizes = np.unique(key, return_counts=True)[1]
    return order


def inversions(ordering, log_w) -> int:
    """Pairs the ordering puts heavier first."""
    lw = log_w[ordering]
    return int(np.count_nonzero(np.triu(lw[:, None] > lw[None, :], 1)))


def ks_statistic(a, b) -> float:
    """The two-sample Kolmogorov-Smirnov distance of two samples."""
    grid = np.union1d(a, b)
    cdf = [np.searchsorted(np.sort(x), grid, side="right") / len(x)
           for x in (a, b)]
    return float(np.abs(cdf[0] - cdf[1]).max())


class TestLevelOrder:
    """Level order sorts with the depth-first sort's law.

    Quicksort's output and cost do not depend on the order its groups are
    split in, given a uniform pivot per group and independent comparisons
    (Hoare, 1962), so the two sorts' comparison and inversion counts have
    one law, though their draws differ.
    """

    SEEDS = range(40)

    def test_counts_agree_in_law(self):
        # neighbours 0.03 apart in log weight: pairs within a few places
        # are near coin flips at k of about 1,850, so both counts vary
        model = sl.LogWeightMnl(np.linspace(0.0, 1.5, 48))
        k = math.ceil(162.0 * math.log(4.0 * 48 * 48 / 0.1))
        counts = []
        for offset, sort in ((0, sl.epsilon_ordering),
                             (1000, depth_first_epsilon_ordering)):
            comparisons, inverted = [], []
            for seed in self.SEEDS:   # independent seeds for each sort
                o = sl.LiveOracle(model, seed=offset + seed)
                ordering = sort(o, 1.0 / 3.0, 0.1,
                                np.random.default_rng(offset + seed))
                assert o.ledger.total % k == 0
                comparisons.append(o.ledger.total // k)
                inverted.append(inversions(ordering, model.log_w))
            counts.append((comparisons, inverted))
        (comparisons, inverted), (ref_comparisons, ref_inverted) = counts
        assert len(set(comparisons)) > 10 and len(set(inverted)) > 5
        # asymptotic two-sample KS bound at alpha = 0.001 each, so the
        # false-alarm rate of the two checks is at most 0.002 (ties in
        # integer counts only lower it)
        bound = math.sqrt(-0.5 * math.log(0.001 / 2)) * math.sqrt(
            2.0 / len(self.SEEDS))
        assert ks_statistic(comparisons, ref_comparisons) <= bound
        assert ks_statistic(inverted, ref_inverted) <= bound

    def test_powers_of_two_both_sort_exactly(self):
        model = sl.LogWeightMnl(np.arange(32) * math.log(2.0))
        for seed in self.SEEDS:
            for sort in (sl.epsilon_ordering, depth_first_epsilon_ordering):
                o = sl.LiveOracle(model, seed=seed)
                ordering = sort(o, 1.0 / 3.0, 0.1,
                                np.random.default_rng(seed))
                np.testing.assert_array_equal(ordering, np.arange(32))


class TestCountingSplit:
    """The counting split draws, asks and orders as the argsort split did."""

    @pytest.mark.parametrize("mode", ["binomial", "stream"])
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 1000])
    def test_equal_to_the_argsort_split(self, mode, n):
        for seed in range(3):
            # equal weights put many votes at a tie; eps_o 0.9 keeps the
            # stream draws of n = 1000 few
            log_w = (np.zeros(n) if seed == 2 else sl.generate_instance(
                sl.InstanceSpec("power-law", n, seed, {"gamma": 1.0})).log_w)
            eps_o = 0.9 if n > 64 else 1.0 / 3.0
            runs = []
            for sort in (sl.epsilon_ordering, argsort_epsilon_ordering):
                o = sl.LiveOracle(sl.LogWeightMnl(log_w), seed=seed,
                                  pair_mode=mode)
                rng = np.random.default_rng(seed)
                runs.append((sort(o, eps_o, 0.1, rng), o, rng))
            (got, a, rng_a), (want, b, rng_b) = runs
            assert got.dtype == np.int64
            assert got.tolist() == want.tolist()
            assert a.ledger == b.ledger
            assert list(a.ledger.per_pair) == list(b.ledger.per_pair)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state
            if mode == "binomial":
                assert (a._binomial_rng.bit_generator.state
                        == b._binomial_rng.bit_generator.state)
            else:
                assert stream_states(a) == stream_states(b)


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
                    forest = sl.EstimationForest(graph=g, edge_log={}, eps=0.1)
                    forest.add_edge(u, c, g.star_log[u])
                    assert forest.log_ratio(u, c) == -forest.log_ratio(c, u)

    def test_only_pairs_queried(self):
        o = sl.LiveOracle(mnl(1.0, 4.0, 16.0), seed=5)
        sl.cluster_sort(o, 0.5, 0.1, 0.1)
        assert set(o.ledger.per_size) == {2}

    def test_zero_ratio_is_recorded_with_a_fallback_edge(self, monkeypatch):
        # an ordering that puts the heavy item first breaks the scan's
        # premise: the light item's ratio against it estimates as zero
        def heavy_first(oracle, eps_o, delta, rng=None):
            return np.array([1, 0])

        monkeypatch.setattr(ordering_mod, "epsilon_ordering", heavy_first)
        alpha = 0.5
        g = sl.cluster_sort(sl.LiveOracle(mnl(1.0, 1e6), seed=0), alpha, 0.1,
                            0.1)
        assert g.violations == [("zero-ratio", 0, 1)]
        assert g.T == 1 and int(g.centers[0]) == 1
        assert g.star_log[0] == math.log(alpha)


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


def per_item_quicksort_clustering(oracle, alpha, eps, delta, rng):
    """Reference: quicksort clustering with one sampler call per item."""
    n = oracle.n

    def split(pivot, rest):
        members, edges, lighter, heavier = [pivot], {}, [], []
        for s in rest:
            [log_ratio] = sl.primitives.sequential_log_ratios(
                oracle, pivot, np.array([s]), alpha, eps, delta / (n * n))
            if math.isfinite(log_ratio):
                members.append(s)
                edges[s] = -log_ratio
            elif log_ratio < 0.0:
                heavier.append(s)
            else:
                lighter.append(s)
        return lighter, (sorted(members), pivot, edges), heavier

    return ordering_mod._cluster_graph(
        n, ordering_mod._pivot_sort(n, rng, split), 7.0 / alpha, 1.0 / alpha,
        eps)


class TestArraySplit:
    """One sampler call per pivot reads each pair as a call on it alone.

    A stream or replay oracle answers each pair from its own stream, so
    the rounds one pivot's call draws for all its group read the same
    answers, charge the same ledger and leave the same pair streams as
    one call per item. (A binomial oracle reads one shared stream round by
    round across the group, so it has no such per-item twin.)
    """

    @pytest.mark.parametrize("mode, chunk", [("stream", None),
                                             ("replay", None),
                                             ("stream", 5000)])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_equal_to_the_per_item_loop(self, monkeypatch, mode, chunk, seed):
        if chunk is not None:
            # each round's draws span many stream chunks
            monkeypatch.setattr(sl.oracle, "STREAM_CHUNK", chunk)
        model = sl.generate_instance(
            sl.InstanceSpec("power-law", n=40, seed=seed, params={"gamma": 3.0}))
        graphs, oracles = [], []
        for cluster in (sl.quicksort_clustering, per_item_quicksort_clustering):
            o = sl.LiveOracle(model, seed=seed, pair_mode="stream")
            if mode == "replay":
                o = sl.ReplayOracle(sl.build_replay_table(o, 300_000))
            graphs.append(cluster(o, 0.5, 0.15, 0.1,
                                  np.random.default_rng(seed)))
            oracles.append(o)
        got, want = graphs
        assert 1 < got.T < model.n
        assert [c.tolist() for c in got.clusters] == [c.tolist()
                                                      for c in want.clusters]
        np.testing.assert_array_equal(got.centers, want.centers)
        np.testing.assert_array_equal(got.gamma, want.gamma)
        assert got.star_log == want.star_log
        assert list(got.star_log) == list(want.star_log)
        assert all(type(k) is int for k in got.star_log)
        a, b = oracles
        assert a.ledger == b.ledger
        assert list(a.ledger.per_pair) == list(b.ledger.per_pair)
        assert stream_states(a) == stream_states(b)


def per_item_cluster_sort(oracle, alpha, eps, delta, rng):
    """Reference: cluster_sort's scan with one estimate_ratio call per item."""
    n = oracle.n
    seq = ordering_mod.epsilon_ordering(oracle, 1.0 / 3.0, delta / 2.0, rng)
    log_tau = math.log(3.0 * (1.0 + eps) / (2.0 * alpha))
    leaves, violations, pending = [], [], {}
    center, start = int(seq[0]), 0
    for pos in range(1, n):
        item = int(seq[pos])
        r = sl.estimate_ratio(oracle, item, center, 2.0 * alpha / 3.0, eps,
                              delta / (2.0 * n))
        if r.log_ratio > log_tau:
            leaves.append((seq[start:pos], center, pending))
            pending, center, start = {}, item, pos
        elif r.is_zero:
            violations.append(("zero-ratio", item, center))
            pending[item] = math.log(alpha)
        else:
            pending[item] = r.log_ratio
    leaves.append((seq[start:], center, pending))
    return ordering_mod._cluster_graph(n, leaves, 2.0 / alpha, 1.0 / alpha,
                                       eps, violations)


CLUSTER_SORT_CASES = {
    "power-law": ("power-law", {"gamma": 2.0}),
    "two-scale": ("two-scale", {"K": 50.0}),
    # weights double item to item: clusters of two, T = n / 2
    "geometric-ratio": ("geometric-ratio", {"rho": 2.0}),
}


class TestClusterSortScan:
    """One stopping pair_win_count per cluster run reads as one estimate per item."""

    @pytest.mark.parametrize("mode", ["binomial", "stream", "replay"])
    @pytest.mark.parametrize("case", sorted(CLUSTER_SORT_CASES) + ["shuffled"])
    def test_equal_to_the_per_item_loop(self, monkeypatch, mode, case):
        n = 40 if mode == "binomial" else 16
        kind, params = CLUSTER_SORT_CASES.get(case, ("power-law", {"gamma": 3.0}))
        model = sl.generate_instance(sl.InstanceSpec(kind, n=n, seed=5,
                                                     params=params))
        if case == "shuffled":
            # lightest first, but each of 4 runs heaviest first: the scan's
            # premise breaks, so cluster breaks and zero-ratio violations mix
            runs = np.array_split(np.argsort(model.log_w), 4)
            seq = np.concatenate([run[::-1] for run in runs])
            monkeypatch.setattr(ordering_mod, "epsilon_ordering",
                                lambda oracle, eps_o, delta, rng=None: seq)
        graphs, oracles = [], []
        for cluster in (sl.cluster_sort, per_item_cluster_sort):
            o = sl.LiveOracle(model, seed=5, pair_mode="binomial"
                              if mode == "binomial" else "stream")
            if mode == "replay":
                o = sl.ReplayOracle(sl.build_replay_table(o, 400_000))
            graphs.append(cluster(o, 0.5, 0.13, 0.1,
                                  np.random.default_rng(5)))
            oracles.append(o)
        got, want = graphs
        if case == "geometric-ratio":
            assert got.T == n // 2
        if case == "shuffled":
            assert got.violations and got.T > 1
        assert [c.tolist() for c in got.clusters] == [c.tolist()
                                                      for c in want.clusters]
        np.testing.assert_array_equal(got.centers, want.centers)
        assert got.star_log == want.star_log
        assert list(got.star_log) == list(want.star_log)
        assert got.violations == want.violations
        a, b = oracles
        assert a.ledger == b.ledger
        assert list(a.ledger.per_pair) == list(b.ledger.per_pair)
        if mode == "binomial":
            assert a._binomial_rng.random() == b._binomial_rng.random()
        elif mode == "stream":
            assert stream_states(a) == stream_states(b)

    @pytest.mark.parametrize("c", [0.1, 0.25, 0.4])
    def test_scan_stop_is_the_least_winning_count(self, c):
        for m in range(1, 80):
            logs = [sl.primitives.log_ratio_of_wins(w, m, c)
                    for w in range(m + 1)]
            assert logs == sorted(logs)   # the premise of the bisection
            for log_tau in {-math.inf, -1.0, 0.0, 0.7, 3.0, math.inf,
                            *logs[::7]}:
                want = next((w for w, x in enumerate(logs) if x > log_tau),
                            m + 1)
                assert ordering_mod._scan_stop(m, c, log_tau) == want


def two_cluster_graph(**changes):
    """Clusters {0, 1} and {2} with centers 0 and 2, then ``changes``."""
    fields = dict(clusters=[np.array([0, 1]), np.array([2])],
                  centers=np.array([0, 2]), star_log={1: 0.0},
                  gamma=np.array([0, 0, 1]), a1=2.0, a2=2.0, eps=0.1)
    return sl.ClusterGraph(**{**fields, **changes})


class TestCheckStructure:
    def test_a_well_formed_graph_passes(self):
        two_cluster_graph().check_structure()

    @pytest.mark.parametrize("changes, message", [
        (dict(clusters=[np.array([0, 1]), np.array([1])]),
         "clusters must partition the items"),
        (dict(centers=np.array([2, 2])), "center must belong to its cluster"),
        (dict(gamma=np.array([0, 1, 1])), "gamma inconsistent with clusters"),
        (dict(star_log={}), "missing star edge for item 1"),
    ])
    def test_each_fault_names_itself(self, changes, message):
        with pytest.raises(AssertionError, match=message):
            two_cluster_graph(**changes).check_structure()

    def test_missing_edges_name_the_first_in_cluster_order(self):
        graph = two_cluster_graph(clusters=[np.array([0, 2, 1])],
                                  centers=np.array([0]), star_log={},
                                  gamma=np.zeros(3, dtype=np.int64))
        with pytest.raises(AssertionError, match="missing star edge for "
                                                 "item 2$"):
            graph.check_structure()
