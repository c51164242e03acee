import math
import tracemalloc

import numpy as np
import pytest

import slatelearn as sl
from conftest import failure_bound, mnl
from slatelearn import forest as forest_mod
from slatelearn.forest import HOP_BOUND


def build_adaptive(model, seed, alpha=0.5, eps=0.3, delta=0.1):
    o = sl.LiveOracle(model, seed=seed)
    return sl.build_estimation_forest(o, alpha, eps, delta,
                                      np.random.default_rng(seed)), o


def build_balanced(model, seed, alpha=0.5, eps=0.3, delta=0.1):
    o = sl.LiveOracle(model, seed=seed)
    return sl.build_balanced_estimation_forest(
        o, alpha, eps, delta, rng=np.random.default_rng(seed)), o


def assert_structure(forest, alpha=0.5):
    n = forest.n
    comps = forest.components()
    # a forest has exactly n - (number of components) edges
    assert len(forest.edge_log) == n - len(comps)
    # antisymmetry is bit-exact by construction
    for (u, v), lr in forest.edge_log.items():
        assert forest.log_ratio(v, u) == -lr
    # components cover unions of consecutive clusters
    gamma = forest.graph.gamma
    covered = set()
    for comp in comps:
        gs = sorted(set(int(gamma[x]) for x in comp))
        assert gs == list(range(gs[0], gs[-1] + 1))
        for g in gs:
            assert g not in covered
            assert set(forest.graph.clusters[g]) <= set(int(x) for x in comp)
            covered.add(g)
    # same cluster -> within two hops through the star
    dist = forest.hop_distances()
    for i, members in enumerate(forest.graph.clusters):
        for a in members:
            for b in members:
                assert 0 <= dist[a, b] <= 2
    # center-center edges are floored at alpha^{-(i-j)}
    centers = set(int(c) for c in forest.graph.centers)
    for (u, v), _ in forest.edge_log.items():
        if u in centers and v in centers and gamma[u] != gamma[v]:
            hi, lo = (u, v) if gamma[u] > gamma[v] else (v, u)
            floor = (gamma[hi] - gamma[lo]) * math.log(1.0 / alpha)
            assert forest.log_ratio(hi, lo) >= floor - 1e-12


class TestAdaptiveBuilder:
    def test_uniform_weights_star_only(self):
        model = mnl(*([1.0] * 8))
        f, _ = build_adaptive(model, seed=0)
        if f.graph.T == 1:
            centers = set(int(c) for c in f.graph.centers)
            for (u, v) in f.edge_log:
                assert u in centers or v in centers
            assert len(f.edge_log) == 7

    def test_geometric_chain_has_linear_edge_count(self):
        # every item lands in its own cluster and consecutive centers link up
        # (needs 1/(2 eps) above the cluster-break threshold of about 3)
        eps = 0.1
        n = 24
        model = sl.LogWeightMnl(np.arange(n) * math.log(2 * eps))
        counts = []
        for t in range(5):
            f, _ = build_adaptive(model, seed=t, eps=eps)
            centers = set(int(c) for c in f.graph.centers)
            cc = sum(1 for (u, v) in f.edge_log
                     if u in centers and v in centers
                     and f.graph.gamma[u] != f.graph.gamma[v])
            counts.append(cc)
        assert all(n / 2 <= c <= n for c in counts)

    def test_structural_invariants_on_random_instances(self):
        for t in range(100):
            model = sl.generate_instance(
                sl.InstanceSpec("power-law", n=64, seed=t, params={"gamma": 1.0}))
            f, _ = build_adaptive(model, seed=t)
            assert_structure(f)

    def test_potential_recurrence_and_sum(self):
        model = sl.generate_instance(
            sl.InstanceSpec("power-law", n=64, seed=1, params={"gamma": 1.0}))
        f, _ = build_adaptive(model, seed=1)
        Z = f.potential.Z
        sizes = [len(c) for c in f.graph.clusters]
        assert Z[0] == 0.0
        for i in range(1, len(Z)):
            assert Z[i] == pytest.approx(0.5 * Z[i - 1] + sizes[i - 1])
        assert Z.sum() <= 64 / (1 - 0.5) + 1e-9

    def test_at_most_two_ratio_calls_per_target(self):
        model = sl.generate_instance(
            sl.InstanceSpec("power-law", n=48, seed=2, params={"gamma": 1.5}))
        f, _ = build_adaptive(model, seed=2)
        assert np.all(f.stats["er_calls_per_target"] <= 2)

    def test_edges_never_duplicated(self):
        f, _ = build_adaptive(mnl(1.0, 8.0, 64.0), seed=3)
        with pytest.raises(AssertionError):
            u, v = next(iter(f.edge_log))
            f.add_edge(u, v, 0.0)

    def test_zero_center_estimate_is_floored(self, monkeypatch):
        # a zero estimate between centers becomes the floor alpha^{-(i - j)}
        def zero(*args, **kwargs):
            return sl.RatioEstimate(-math.inf)

        monkeypatch.setattr(forest_mod, "estimate_ratio", zero)
        alpha = 0.5
        f, _ = build_adaptive(mnl(1.0, 1e3, 1e6), seed=3, alpha=alpha)
        # three singleton clusters: the heaviest center links to both others
        assert f.graph.T == 3 and sorted(f.edge_log) == [(0, 2), (1, 2)]
        gamma = f.graph.gamma
        for u, v in f.edge_log:
            assert (f.log_ratio(v, u)
                    == (gamma[v] - gamma[u]) * math.log(1.0 / alpha))


class TestBalancedBuilder:
    def test_uniform_weights_star_only(self):
        model = mnl(*([1.0] * 8))
        f, _ = build_balanced(model, seed=0)
        if f.graph.T == 1:
            assert len(f.edge_log) == 7

    def test_structural_invariants(self):
        for t in range(20):
            model = sl.generate_instance(
                sl.InstanceSpec("power-law", n=32, seed=t, params={"gamma": 1.0}))
            f, _ = build_balanced(model, seed=t)
            assert_structure(f)

    def test_scan_window_limits_calls_per_target(self):
        model = sl.generate_instance(
            sl.InstanceSpec("power-law", n=32, seed=5, params={"gamma": 2.0}))
        f, _ = build_balanced(model, seed=5)
        window = f.stats["scan_window"]
        per_target = {}
        for (i, j), c in f.stats["ber_calls"].items():
            per_target[j] = per_target.get(j, 0) + c
        assert all(c <= window + 1 for c in per_target.values())

    def test_per_pair_cap_within_theory_budget(self):
        # calibrated sampling sits far below the worst-case per-pair formula
        n, eps, delta, alpha, trials = 64, 0.3, 0.1, 0.5, 50
        model = sl.generate_instance(
            sl.InstanceSpec("power-law", n=n, seed=0, params={"gamma": 1.0}))
        qc_cap = math.ceil((20.0 * (alpha + 1) / (alpha * (eps / 3.0) ** 2))
                           * math.log(6.0 * n * n * 6.0 / delta))
        p = (1.0 / alpha) / (7.0 / alpha + 1.0 / alpha)
        geo_cap = 2e6 / p  # generous stand-in for the spread-estimate bound
        ok = 0
        for t in range(trials):
            f, o = build_balanced(model, seed=t, eps=eps, delta=delta)
            ok += o.ledger.max_per_pair <= qc_cap + geo_cap
        assert ok / trials >= 0.90

    def test_failure_branch_surfaces_typed_error(self, monkeypatch):
        # a big light cluster raises the far-scan threshold enough that the
        # heaviest center connects two clusters back, forcing a bridging call
        model = mnl(*([1.0] * 8 + [20.0, 400.0]))

        calls = {"count": 0}
        real = forest_mod.balanced_estimate_ratio

        def flaky(oracle, graph, i, j, eps, alpha, delta, params=None):
            calls["count"] += 1
            if calls["count"] > 1:
                return sl.RatioEstimate(math.inf)  # poison the bridging call
            return real(oracle, graph, i, j, eps, alpha, delta, params)

        monkeypatch.setattr(forest_mod, "balanced_estimate_ratio", flaky)
        raised = False
        for t in range(10):
            o = sl.LiveOracle(model, seed=t)
            calls["count"] = 0
            try:
                sl.build_balanced_estimation_forest(
                    o, 0.5, 0.3, 0.1, rng=np.random.default_rng(t))
            except sl.ForestBuildFailure:
                raised = True
                break
        assert raised


class TestValidateForest:
    def make_exact_forest(self, log_w):
        """Hand-built star forest whose edges carry the true log-ratios."""
        n = len(log_w)
        gamma = np.zeros(n, dtype=np.int64)
        graph = sl.ClusterGraph(
            clusters=[np.arange(n)], centers=np.array([0]),
            star_log={u: float(log_w[u] - log_w[0]) for u in range(1, n)},
            gamma=gamma, a1=100.0, a2=2.0, eps=0.3)
        f = sl.EstimationForest(graph=graph, edge_log={}, eps=0.3)
        for u in range(1, n):
            f.add_edge(u, 0, float(log_w[u] - log_w[0]))
        return f

    def test_exact_forest_validates_clean(self):
        log_w = np.array([0.0, 0.3, -0.2, 0.1])
        rep = sl.validate_forest(self.make_exact_forest(log_w), log_w)
        assert rep.ok

    def test_corrupted_edge_is_cited_as_path_violation(self):
        log_w = np.array([0.0, 0.3, -0.2, 0.1])
        f = self.make_exact_forest(log_w)
        f.edge_log[(0, 1)] += math.log(1 + 3 * 0.3)
        rep = sl.validate_forest(f, log_w)
        assert not rep.ok
        assert any(cond == 1 for cond, _, _ in rep.violations)

    @pytest.mark.parametrize("log_w", [[0.0, 0.3], [0.0, 0.3, -0.2, 0.1, 0.5],
                                       [[0.0, 0.3, -0.2, 0.1]]])
    def test_truth_of_the_wrong_shape_is_refused(self, log_w):
        f = self.make_exact_forest(np.array([0.0, 0.3, -0.2, 0.1]))
        with pytest.raises(ValueError, match="not one value for each"):
            sl.validate_forest(f, log_w)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_truth_is_refused(self, bad):
        f = self.make_exact_forest(np.array([0.0, 0.3, -0.2, 0.1]))
        with pytest.raises(ValueError, match="item 1 is not finite"):
            sl.validate_forest(f, [0.0, bad, -0.2, 0.1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_edge_is_refused(self, bad):
        # with the edges at 0.0 the same forest has violations to report;
        # NaN or infinite path logs would drop some of them unreported
        log_w = np.array([0.0, 3.0, -2.0, 1.0])
        f = self.make_exact_forest(np.zeros(4))
        assert len(sl.validate_forest(f, log_w).violations) == 12
        f.edge_log[(0, 2)] = f.edge_log[(0, 3)] = bad
        with pytest.raises(ValueError, match="item 2 is not finite"):
            sl.validate_forest(f, log_w)

    @pytest.mark.parametrize("u, v, match", [(0, 7, "outside"),
                                             (-1, 2, "outside"),
                                             (3, 1, "outside"),
                                             (1, 1, "self-loop")])
    def test_add_edge_refuses_bad_ids(self, u, v, match):
        f = hand_built([0, 0, 1], [])
        with pytest.raises(ValueError, match=match):
            f.add_edge(u, v, 0.5)
        assert f.edge_log == {}
        assert [c.tolist() for c in f.components()] == [[0], [1], [2]]

    def test_adaptive_builder_output_validates(self):
        trials, clean = 100, 0
        for t in range(trials):
            model = sl.generate_instance(
                sl.InstanceSpec("power-law", n=32, seed=t, params={"gamma": 1.0}))
            f, _ = build_adaptive(model, seed=t)
            clean += sl.validate_forest(f, model.log_w).ok
        assert clean / trials >= 0.90


# Reference implementations: the per-item walks and the pair-by-pair
# validator that the rooted traversal and the row-block validator replaced.

def ref_components(forest):
    adj = forest.adjacency()
    seen = np.zeros(forest.n, dtype=bool)
    comps = []
    for root in range(forest.n):
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


def ref_path_logs(forest):
    adj = forest.adjacency()
    lam = np.full(forest.n, np.nan)
    for comp in ref_components(forest):
        root = int(comp[0])
        lam[root] = 0.0
        frontier = [root]
        while frontier:
            u = frontier.pop()
            for w in adj[u]:
                if np.isnan(lam[w]):
                    lam[w] = lam[u] + forest.log_ratio(w, u)
                    frontier.append(w)
    return lam


def ref_hop_distances(forest):
    adj = forest.adjacency()
    dist = np.full((forest.n, forest.n), -1, dtype=np.int64)
    for src in range(forest.n):
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


def ref_generate_weights(forest):
    n = forest.n
    adj = forest.adjacency()
    log_w = np.full(n, np.nan)
    wmin_log, first = 0.0, True
    for i in range(forest.graph.T - 1, -1, -1):
        root = int(forest.graph.centers[i])
        if not np.isnan(log_w[root]):
            continue
        comp = [root]
        log_w[root] = 0.0
        frontier = [root]
        while frontier:
            v = frontier.pop()
            for u in adj[v]:
                if np.isnan(log_w[u]):
                    log_w[u] = log_w[v] + forest.log_ratio(u, v)
                    comp.append(u)
                    frontier.append(u)
        comp = np.array(comp, dtype=np.int64)
        if not first:
            upsilon_log = float(log_w[comp].max())
            log_w[comp] += (math.log(forest.eps) - upsilon_log
                            - 2.0 * math.log(n) + wmin_log)
        wmin_log = min(wmin_log, float(log_w[comp].min()))
        first = False
    assert not np.any(np.isnan(log_w))
    return log_w


def ref_validate_forest(forest, log_w):
    n, eps, t = forest.n, forest.eps, forest.t
    gamma = forest.graph.gamma
    lam = ref_path_logs(forest)
    dist = ref_hop_distances(forest)
    comps = ref_components(forest)
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
    return out


def assert_violations_match(got, want):
    assert [(c, p) for c, p, _ in got] == [(c, p) for c, p, _ in want]
    for (cond, _, a), (_, _, b) in zip(got, want):
        if isinstance(b, float) and cond != 1:
            # mass sums: prefix sums in gamma order against one masked sum
            assert a == pytest.approx(b, rel=1e-12, abs=0.0)
        else:
            assert a == b and type(a) is type(b)


def assert_graph_matches(forest):
    np.testing.assert_array_equal(forest.hop_distances(),
                                  ref_hop_distances(forest))
    got, want = forest.components(), ref_components(forest)
    assert [c.tolist() for c in got] == [c.tolist() for c in want]
    assert all(c.dtype == np.int64 for c in got)
    assert forest.path_logs().tobytes() == ref_path_logs(forest).tobytes()


def hand_built(gamma, edges):
    """Forest over items with cluster labels ``gamma`` and the given edges;
    each cluster's lowest item is its center."""
    gamma = np.asarray(gamma, dtype=np.int64)
    clusters = [np.flatnonzero(gamma == g) for g in range(gamma.max() + 1)]
    graph = sl.ClusterGraph(clusters=clusters,
                            centers=np.array([c[0] for c in clusters]),
                            star_log={}, gamma=gamma, a1=100.0, a2=2.0,
                            eps=0.3)
    f = sl.EstimationForest(graph=graph, edge_log={}, eps=0.3)
    for u, v, lr in edges:
        f.add_edge(u, v, lr)
    return f


def random_forest(rng, n, link=0.8):
    """Random recursive forest: item k hangs off an earlier item or roots."""
    gamma = np.sort(rng.integers(0, max(1, n // 4), size=n))
    gamma = np.unique(gamma, return_inverse=True)[1]
    edges = [(k, int(rng.integers(0, k)), float(rng.normal(0.0, 2.0)))
             for k in range(1, n) if rng.random() < link]
    return hand_built(gamma[rng.permutation(n)], edges)


def perturbed(rng, forest, scale):
    """Truth near the forest's own path logs, pushed off by ``scale``."""
    return forest.path_logs() + rng.normal(0.0, scale, forest.n)


def mixed_forest():
    """136 items: a star on cluster 0 alone, a 40-item path (diameter 39)
    and eleven stars of 8 (diameter 2), with clusters 1-16 spread over the
    last two; the truth is the path logs pushed off by 0.5."""
    rng = np.random.default_rng(19)
    edges = [(0, k, rng.normal()) for k in range(1, 8)]
    edges += [(k, k + 1, rng.normal()) for k in range(8, 47)]
    edges += [(c, c + j, rng.normal()) for c in range(48, 136, 8)
              for j in range(1, 8)]
    f = hand_built(np.r_[np.zeros(8, dtype=np.int64),
                         rng.permutation(np.arange(128) % 16 + 1)], edges)
    return f, perturbed(rng, f, 0.5)


class TestMatchesReference:
    @pytest.mark.parametrize("n", [8, 16, 33, 64])
    @pytest.mark.parametrize("builder", [build_adaptive, build_balanced])
    def test_builder_forests(self, builder, n):
        for seed in range(3):
            model = sl.generate_instance(sl.InstanceSpec(
                "power-law", n=n, seed=seed, params={"gamma": 1.5}))
            f, _ = builder(model, seed=seed)
            assert_graph_matches(f)
            assert (sl.generate_weights(f).log_w.tobytes()
                    == ref_generate_weights(f).tobytes())
            for truth in (model.log_w,
                          perturbed(np.random.default_rng(seed), f, 1.0)):
                assert_violations_match(
                    sl.validate_forest(f, truth).violations,
                    ref_validate_forest(f, truth))

    def test_multi_component_forests(self):
        rng = np.random.default_rng(7)
        fired = set()
        for _ in range(30):
            n = int(rng.integers(2, 40))
            f = random_forest(rng, n, link=rng.choice([0.3, 0.7, 0.95]))
            assert_graph_matches(f)
            truth = perturbed(rng, f, rng.choice([0.0, 0.3, 3.0]))
            got = sl.validate_forest(f, truth).violations
            assert_violations_match(got, ref_validate_forest(f, truth))
            fired |= {cond for cond, _, _ in got}
        assert fired == {1, 2, 3, 4}

    def test_generate_weights_on_star_and_center_links(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            gamma = np.unique(rng.integers(0, 6, size=n),
                              return_inverse=True)[1]
            f = hand_built(gamma, [])
            for g, members in enumerate(f.graph.clusters):
                for u in members[1:]:
                    f.add_edge(int(u), int(members[0]), rng.normal())
                if g and rng.random() < 0.6:
                    f.add_edge(int(members[0]),
                               int(f.graph.centers[rng.integers(0, g)]),
                               rng.normal(3.0, 1.0))
            assert_graph_matches(f)
            assert (sl.generate_weights(f).log_w.tobytes()
                    == ref_generate_weights(f).tobytes())

    def test_corrupted_edges_fire_every_condition(self):
        rng = np.random.default_rng(3)
        model = sl.generate_instance(sl.InstanceSpec(
            "geometric-ratio", n=32, seed=0, params={"rho": 0.5}))
        f, _ = build_adaptive(model, seed=0, eps=0.1)
        for key in list(f.edge_log)[::3]:
            f.edge_log[key] += rng.normal(0.0, 2.0)
        # cutting a star edge leaves a cluster member in a tree of its own
        g = max(range(f.graph.T), key=lambda i: len(f.graph.clusters[i]))
        c = int(f.graph.centers[g])
        m = next(int(x) for x in f.graph.clusters[g] if x != c)
        del f.edge_log[(min(c, m), max(c, m))]
        truth = model.log_w + rng.normal(0.0, 0.5, f.n)
        # a light item as heavy as one more than 5 hops above it
        dist = f.hop_distances()
        u, v = next((u, v) for u, v in zip(*np.nonzero(dist > HOP_BOUND))
                    if f.graph.gamma[u] > f.graph.gamma[v])
        truth[v] = truth[u]
        got = sl.validate_forest(f, truth).violations
        assert_violations_match(got, ref_validate_forest(f, truth))
        assert {cond for cond, _, _ in got} == {1, 2, 3, 4}

    def test_no_edges_and_single_item(self):
        for gamma in ([0], [0, 0, 1], [2, 0, 1, 1, 0]):
            f = hand_built(gamma, [])
            assert_graph_matches(f)
            truth = np.linspace(0.0, -3.0, f.n)
            got = sl.validate_forest(f, truth).violations
            assert_violations_match(got, ref_validate_forest(f, truth))
        assert sl.validate_forest(hand_built([0], []), [0.0]).ok

    def test_path_shaped_forest(self):
        # height n - 1: the deepest preorder recurrence there is; hops above
        # 127 leave the int8 range the audit's hop matrix has below 128 items
        n = 160
        rng = np.random.default_rng(5)
        f = hand_built(np.arange(n) // 32,
                       [(k, k + 1, rng.normal()) for k in range(n - 1)])
        assert_graph_matches(f)
        assert f.hop_distances()[0, n - 1] == n - 1
        truth = perturbed(rng, f, 0.2)
        assert_violations_match(sl.validate_forest(f, truth).violations,
                                ref_validate_forest(f, truth))
        # one cluster and all-zero truth: most pairs violate two conditions
        f = hand_built(np.zeros(64), [(k, k + 1, 0.0) for k in range(63)])
        got = sl.validate_forest(f, np.zeros(64)).violations
        assert len(got) > 64 * 63 * 2
        assert_violations_match(got, ref_validate_forest(f, np.zeros(64)))

    @pytest.mark.parametrize("values", [1, 7 * 37, 3 * 37 + 5])
    def test_row_block_sizes(self, monkeypatch, values):
        # n = 37 gives blocks of 1, 7 and 3 rows; the last block is short
        rng = np.random.default_rng(values)
        f = random_forest(rng, 37, link=0.85)
        truth = perturbed(rng, f, 0.6)
        want = ref_validate_forest(f, truth)
        monkeypatch.setattr(forest_mod, "VALIDATE_BLOCK_VALUES", values)
        assert_violations_match(sl.validate_forest(f, truth).violations, want)

    def test_tree_diameters_match_hop_counts(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            f = random_forest(rng, int(rng.integers(1, 60)),
                              link=rng.choice([0.5, 0.9, 1.0]))
            dist = ref_hop_distances(f)
            got = forest_mod._tree_diameters(
                forest_mod._traverse(f, range(f.n)))
            for comp in ref_components(f):
                assert np.all(got[comp] == dist[np.ix_(comp, comp)].max())

    def test_mixed_deep_and_shallow_trees(self):
        f, truth = mixed_forest()
        assert f.n >= 128  # hop counts in int16
        got = sl.validate_forest(f, truth).violations
        assert_violations_match(got, ref_validate_forest(f, truth))
        assert {cond for cond, _, _ in got} == {1, 2, 3, 4}
        # condition 4 cites hop counts read in the deep tree and -1
        assert {-1} < {d for cond, _, d in got if cond == 4}
        assert min(d for cond, _, d in got if cond == 4 and d > 0) > HOP_BOUND

    @pytest.mark.parametrize("rows", [1, 5, 11])
    def test_mixed_forest_blocks_with_and_without_far_rows(self, monkeypatch,
                                                           rows):
        f, truth = mixed_forest()
        want = ref_validate_forest(f, truth)
        # rows 0-7 have no far pair and every later row has one: in blocks
        # of 5 rows the first has no far pair and the second mixes both
        # kinds, a block of 11 mixes them, and a block of 1 never does
        dist, gamma = ref_hop_distances(f), f.graph.gamma
        far = ((dist > HOP_BOUND) | (dist < 0)) & (gamma[:, None] >= gamma)
        assert np.flatnonzero(far.any(axis=1)).tolist() == list(range(8, f.n))
        monkeypatch.setattr(forest_mod, "VALIDATE_BLOCK_VALUES", rows * f.n)
        assert_violations_match(sl.validate_forest(f, truth).violations, want)

    def test_shallow_forest_audit_builds_no_n_by_n_array(self):
        # 64 stars of 64 items, their centers linked to the first: diameter
        # 4, so the audit needs no hop count; an n x n int16 matrix would
        # take 32 MiB
        n = 4096
        f = hand_built(np.arange(n) // 64,
                       [(u, u - u % 64, 0.1) for u in range(n) if u % 64]
                       + [(c, 0, 1.0) for c in range(64, n, 64)])
        truth = f.path_logs()
        tracemalloc.start()
        try:
            report = sl.validate_forest(f, truth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok
        assert peak < 8 << 20

    def test_extreme_weight_gaps_do_not_overflow(self):
        # only items no higher in cluster than u enter u's mass sums, so a
        # heavy item e^800 times above u is never exponentiated against it
        f = hand_built([0, 1, 1], [(0, 1, -800.0), (1, 2, 0.0)])
        truth = np.array([0.0, 800.0, 800.0])
        with np.errstate(over="raise", invalid="raise"):
            got = sl.validate_forest(f, truth).violations
        assert_violations_match(got, ref_validate_forest(f, truth))

    def test_cycle_is_rejected(self):
        f = hand_built([0, 0, 0], [(0, 1, 0.1), (1, 2, 0.2), (0, 2, 0.3)])
        for helper in (f.components, f.path_logs, f.hop_distances):
            with pytest.raises(ValueError, match="cycle"):
                helper()
