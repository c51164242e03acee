import math
import statistics

import numpy as np
import pytest

import slatelearn as sl
from conftest import mnl


def adaptive_forest(model, seed, eps=0.3, delta=0.1):
    o = sl.LiveOracle(model, seed=seed)
    return sl.build_estimation_forest(o, 0.5, eps, delta,
                                      np.random.default_rng(seed))


class TestGenerateWeights:
    def test_is_query_free(self):
        model = mnl(1.0, 2.0, 50.0)
        o = sl.LiveOracle(model, seed=0)
        forest = sl.build_estimation_forest(o, 0.5, 0.3, 0.1,
                                            np.random.default_rng(0))
        before = o.ledger.total
        sl.generate_weights(forest)
        assert o.ledger.total == before

    def test_deterministic(self):
        forest = adaptive_forest(mnl(1.0, 3.0, 9.0, 400.0), seed=1)
        a = sl.generate_weights(forest)
        b = sl.generate_weights(forest)
        np.testing.assert_array_equal(a.log_w, b.log_w)

    def test_edge_differences_match_edge_ratios(self):
        # propagation sets w_u = w_v + log_r exactly; the component-wide
        # rescale shift leaves differences intact up to float rounding
        forest = adaptive_forest(mnl(1.0, 2.0, 4.0, 300.0), seed=2)
        learned = sl.generate_weights(forest)
        comp_of = {}
        for ci, comp in enumerate(forest.components()):
            for u in comp:
                comp_of[int(u)] = ci
        for (u, v), lr in forest.edge_log.items():
            assert comp_of[u] == comp_of[v]
            gap = float(learned.log_w[u] - learned.log_w[v])
            assert gap == pytest.approx(lr, abs=1e-12)

    def test_single_component_keeps_exact_ratios(self):
        forest = adaptive_forest(mnl(1.0, 2.0, 4.0), seed=3)
        if len(forest.components()) == 1:
            learned = sl.generate_weights(forest)
            lam = forest.path_logs()
            gaps = learned.log_w - lam
            np.testing.assert_allclose(gaps, gaps[0])

    def test_later_components_are_negligible(self):
        # a gap the oracle can never bridge produces two forest components;
        # the lighter one must end up dwarfed by every heavier weight
        model = sl.LogWeightMnl(np.array([0.0, 0.1, 800.0, 800.2]))
        forest = adaptive_forest(model, seed=4)
        assert len(forest.components()) == 2
        learned = sl.generate_weights(forest)
        light = learned.log_w[[0, 1]].max()
        heavy = learned.log_w[[2, 3]].min()
        # lighter component is at most (eps/n) of the lightest heavy weight
        assert light <= heavy + math.log(forest.eps / 4)

    def test_all_items_assigned_and_finite(self):
        for t in range(10):
            model = sl.generate_instance(
                sl.InstanceSpec("power-law", n=16, seed=t, params={"gamma": 1.0}))
            learned = sl.generate_weights(adaptive_forest(model, seed=t))
            assert np.all(np.isfinite(learned.log_w))


class TestLearnAdaptive:
    def test_single_item(self):
        o = sl.LiveOracle(mnl(1.0), seed=0)
        model = sl.learn_adaptive(o, 1, 0.5, 0.1)
        assert model.n == 1 and o.ledger.total == 0

    def test_accuracy_on_small_instance(self):
        truth = mnl(1.0, 2.0, 4.0, 8.0)
        o = sl.LiveOracle(truth, seed=5)
        learned = sl.learn_adaptive(o, 4, 0.5, 0.1, seed=5)
        assert sl.distance_exact(truth, learned).d1 <= 0.5
        # binomial draws all read the oracle's one stream: no pair Generator
        assert o._pair_rngs == {}

    def test_scale_invariance_of_output_quality(self):
        # shifting all log weights by a constant changes nothing observable
        base = np.array([0.0, 0.7, 1.4])
        for shift in (0.0, 5.0, -3.0):
            truth = sl.LogWeightMnl(base + shift)
            o = sl.LiveOracle(truth, seed=6)
            learned = sl.learn_adaptive(o, 3, 0.5, 0.1, seed=6)
            assert sl.distance_exact(truth, learned).d1 <= 0.5

    def test_rejects_bad_arguments(self):
        o = sl.LiveOracle(mnl(1.0, 1.0), seed=0)
        with pytest.raises(ValueError):
            sl.learn_adaptive(o, 2, 1.5, 0.1)
        with pytest.raises(ValueError):
            sl.learn_adaptive(o, 0, 0.5, 0.1)


@pytest.mark.parametrize("learn", [
    lambda o, n: sl.learn_adaptive(o, n, 0.5, 0.1),
    lambda o, n: sl.learn_balanced(o, n, 0.5, 0.1),
    lambda o, n: sl.learn_nonadaptive(o, n, 0.5, 0.1, m=1000)],
    ids=["adaptive", "balanced", "nonadaptive"])
@pytest.mark.parametrize("n", [1, 5, 12])
def test_learners_refuse_another_item_count(learn, n):
    o = sl.LiveOracle(mnl(*range(1, 9)), seed=0, pair_mode="stream")
    with pytest.raises(ValueError, match="8 items"):
        learn(o, n)
    assert o.ledger.total == 0 and o._pair_rngs == {}


class TestLearnBalanced:
    def test_accuracy_and_pair_balance(self):
        truth = sl.generate_instance(
            sl.InstanceSpec("power-law", n=12, seed=7, params={"gamma": 1.0}))
        o = sl.LiveOracle(truth, seed=7)
        learned = sl.learn_balanced(o, 12, 0.5, 0.1, seed=7)
        assert sl.distance_exact(truth, learned).d1 <= 0.5
        assert o._pair_rngs == {}
        # no pair should dominate: the max is within 60x of the mean load
        loads = np.array(list(o.ledger.per_pair.values()), dtype=np.float64)
        assert loads.max() <= 60 * loads.mean()

    def test_disconnected_heavy_item_stays_accurate(self):
        # one unbridgeable heavy item leaves the forest in two components;
        # the lighter component's total mass must stay well under eps so
        # full-slate distributions are not polluted
        eps = 0.3
        truth = sl.generate_instance(sl.InstanceSpec("two-scale", n=12))
        for t in range(3):
            o = sl.LiveOracle(truth, seed=t)
            learned = sl.learn_balanced(o, 12, eps, 0.1, seed=t)
            assert sl.distance_exact(truth, learned).d1 <= eps

    def test_theory_budget_shares_the_code_path(self):
        # the worst-case budget is not runnable end to end, but its parameter
        # derivation must agree with the published formulas
        b = sl.QueryBudget.theory()
        eps1, eps2 = b.split_eps(0.5)
        assert eps1 == 0.05 and eps2 == pytest.approx(0.05 / 30)
        c = sl.QueryBudget.calibrated()
        e1, e2 = c.split_eps(0.5)
        assert e1 == 0.5 and e2 == pytest.approx(1.0 / 6.0)

    def test_single_item(self):
        o = sl.LiveOracle(mnl(1.0), seed=0)
        model = sl.learn_balanced(o, 1, 0.5, 0.1)
        assert model.n == 1 and o.ledger.total == 0

    # Median queries of learn_balanced at n = 64, eps 0.3, delta 0.1 over
    # seeds 0-4, measured when quicksort_clustering read every pair at a
    # fixed m = ceil(20 / (c (eps/3)^2) ln(6 n^2 / delta)).
    FIXED_M_QUERIES = {"power-law": 67_556_185, "geometric-ratio": 207_484_550}

    @pytest.mark.parametrize("kind, params", [("power-law", {"gamma": 1.0}),
                                              ("geometric-ratio", {"rho": 2.0})])
    def test_sequential_clustering_halves_the_queries(self, kind, params):
        totals = []
        for seed in range(5):
            truth = sl.generate_instance(
                sl.InstanceSpec(kind, n=64, seed=seed, params=params))
            o = sl.LiveOracle(truth, seed=seed)
            sl.learn_balanced(o, 64, 0.3, 0.1, seed=seed)
            totals.append(o.ledger.total)
        assert statistics.median(totals) <= self.FIXED_M_QUERIES[kind] / 2


class TestLearnNonadaptive:
    def test_batch_then_silence(self):
        truth = mnl(1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
        live = sl.LiveOracle(truth, seed=8, pair_mode="stream")
        m = 400_000
        learned, replay = sl.learn_nonadaptive(live, 6, 0.5, 0.1, m, seed=8)
        assert live.ledger.total == m * 15
        assert set(live.ledger.per_size) == {2}
        assert sl.distance_exact(truth, learned).d1 <= 0.5
        assert replay.ledger.total <= m * 15

    def test_m_too_small_raises(self):
        live = sl.LiveOracle(mnl(1.0, 2.0), seed=9, pair_mode="stream")
        with pytest.raises(sl.ReplayBudgetExhausted):
            sl.learn_nonadaptive(live, 2, 0.5, 0.1, m=1, seed=9)

    def test_matches_live_balanced_run_bit_exactly(self):
        truth = mnl(1.0, 2.0, 4.0, 8.0)
        seed = 10
        o_live = sl.LiveOracle(truth, seed=seed, pair_mode="stream")
        direct = sl.learn_balanced(o_live, 4, 0.5, 0.1, seed=seed)
        o_batch = sl.LiveOracle(truth, seed=seed, pair_mode="stream")
        via_replay, _ = sl.learn_nonadaptive(o_batch, 4, 0.5, 0.1,
                                             m=400_000, seed=seed)
        np.testing.assert_array_equal(direct.log_w, via_replay.log_w)
