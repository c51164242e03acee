import math

import numpy as np
import pytest

import slatelearn as sl
from conftest import FixedOracle, failure_bound, mnl
from slatelearn.primitives import (MAX_WAITS, compare_sample_size,
                                   round_robin_counts)


def ratio_model(r):
    """Two-item MNL with w_0 / w_1 = r."""
    return sl.LogWeightMnl(np.array([math.log(r), 0.0]))


class TestRatioEstimate:
    def test_sentinels_are_exact(self):
        zero, infinite = sl.RatioEstimate(-math.inf), sl.RatioEstimate(math.inf)
        assert zero.is_zero and infinite.is_infinite
        assert math.exp(zero.log_ratio) == 0.0
        assert math.exp(infinite.log_ratio) == math.inf

    def test_reciprocal_is_bit_exact_negation(self):
        # a stream pair answers the same whichever way it is named, so
        # r(0, 1) and r(1, 0) read the same wins and negate bit for bit
        r, back = (sl.estimate_ratio(
            sl.LiveOracle(ratio_model(1.7), seed=3, pair_mode="stream"),
            i, j, 0.5, 0.3, 0.1) for i, j in ((0, 1), (1, 0)))
        assert r.is_finite and back.log_ratio == -r.log_ratio

    def test_reciprocal_swaps_sentinels(self):
        r, back = (sl.estimate_ratio(
            sl.LiveOracle(ratio_model(1e-6), seed=3, pair_mode="stream"),
            i, j, 0.5, 0.3, 0.1) for i, j in ((0, 1), (1, 0)))
        assert r.is_zero and back.is_infinite

    def test_sentinels_are_infinite_logs(self):
        assert [r.kind for r in (sl.RatioEstimate(-math.inf),
                                 sl.RatioEstimate(0.5),
                                 sl.RatioEstimate(math.inf))] == [
            "zero", "finite", "infinite"]
        with pytest.raises(ValueError):
            sl.RatioEstimate(math.nan)

    def test_threshold_comparison(self):
        # the sentinels compare as the extremes they are
        assert sl.RatioEstimate(math.inf).log_ratio > 1e9
        assert not sl.RatioEstimate(-math.inf).log_ratio > -1e9
        assert sl.RatioEstimate(1.0).log_ratio > 0.5


class TestCompare:
    def test_query_count_is_exact(self):
        o = sl.LiveOracle(mnl(1.0, 1.0), seed=0)
        c, eps, delta = 0.25, 0.3, 0.1
        sl.compare(o, 0, 1, c, eps, delta)
        m = math.ceil((20.0 / (c * eps * eps)) * math.log(6.0 / delta))
        assert o.ledger.total == m
        assert o.ledger.per_pair[(0, 1)] == m

    def test_deterministic_winner_gives_one_zero(self):
        o = FixedOracle(2, winner=0)
        p0, p1 = sl.compare(o, 0, 1, 0.25, 0.3, 0.1)
        assert (p0, p1) == (1.0, 0.0)

    def test_tiny_probability_snaps_to_zero(self):
        # true p_0 = c/8, which the guarantee says must come back 0
        c, delta, trials = 0.25, 0.1, 500
        zeros = 0
        for t in range(trials):
            o = sl.LiveOracle(ratio_model(1.0 / 31.0), seed=t)
            p0, _ = sl.compare(o, 0, 1, c, 0.3, delta)
            zeros += p0 == 0.0
        assert zeros / trials >= 1.0 - failure_bound(delta, trials)

    def test_balanced_pair_is_accurately_estimated(self):
        c, eps, delta, trials = 0.25, 0.3, 0.1, 500
        good = 0
        for t in range(trials):
            o = sl.LiveOracle(mnl(1.0, 1.0), seed=t)
            p0, p1 = sl.compare(o, 0, 1, c, eps, delta)
            good += (abs(p0 - 0.5) <= eps * 0.5) and (abs(p1 - 0.5) <= eps * 0.5)
        assert good / trials >= 1.0 - failure_bound(delta, trials)

    def test_parameter_validation(self):
        o = FixedOracle(2, winner=0)
        with pytest.raises(ValueError):
            sl.compare(o, 0, 1, 1.5, 0.3, 0.1)
        with pytest.raises(ValueError):
            sl.compare(o, 0, 1, 0.25, 0.0, 0.1)


class TestEstimateRatio:
    alpha, delta, trials = 0.5, 0.1, 500

    def run_trials(self, ratio, eps=0.3):
        outcomes = []
        for t in range(self.trials):
            o = sl.LiveOracle(ratio_model(ratio), seed=t)
            outcomes.append(sl.estimate_ratio(o, 0, 1, self.alpha, eps,
                                              self.delta))
        return outcomes

    def test_far_below_threshold_returns_zero(self):
        a = self.alpha
        ratio = a / (4.0 * (3.0 * a + 4.0))
        zeros = sum(r.is_zero for r in self.run_trials(ratio))
        assert zeros / self.trials >= 1.0 - failure_bound(self.delta, self.trials)

    def test_far_above_threshold_returns_infinite(self):
        a = self.alpha
        ratio = 4.0 * (3.0 * a + 4.0) / a
        infs = sum(r.is_infinite for r in self.run_trials(ratio))
        assert infs / self.trials >= 1.0 - failure_bound(self.delta, self.trials)

    def test_equal_weights_give_accurate_finite(self):
        eps = 0.3
        good = 0
        for r in self.run_trials(1.0, eps):
            good += r.is_finite and abs(r.log_ratio) <= math.log1p(eps)
        assert good / self.trials >= 1.0 - failure_bound(self.delta, self.trials)

    def test_uses_one_compare_budget(self):
        o = sl.LiveOracle(mnl(1.0, 1.0), seed=0)
        eps, delta = 0.3, 0.1
        sl.estimate_ratio(o, 0, 1, 0.5, eps, delta)
        c = 0.5 / 1.5
        assert o.ledger.total == compare_sample_size(c, eps / 3.0, delta)


class TestSequentialLogRatios:
    """The sequential sampler keeps estimate_ratio's contract below its m."""

    alpha, eps, delta, trials = 0.5, 0.3, 0.01, 300

    def contract_cases(self):
        """(ratio w_0 / w_j, kinds the contract allows) for items j = 1..5."""
        a = self.alpha
        low = a / (3.0 * a + 4.0)
        return [(low, {"zero"}),
                (1.0 / low, {"infinite"}),
                (1.1 * low, {"zero", "finite"}),   # just inside both
                (1.0 / (1.1 * low), {"infinite", "finite"}),
                (1.0, {"finite"})]

    @pytest.mark.parametrize("mode", ["binomial", "stream"])
    def test_contract_at_the_cutoffs(self, mode):
        cases = self.contract_cases()
        model = sl.LogWeightMnl(np.array(
            [0.0] + [-math.log(ratio) for ratio, _ in cases]))
        js = np.arange(1, len(cases) + 1)
        _, m = sl.primitives.ratio_sample_size(self.alpha, self.eps, self.delta)
        bad = [0] * len(cases)
        for t in range(self.trials):
            o = sl.LiveOracle(model, seed=t, pair_mode=mode)
            logs = sl.primitives.sequential_log_ratios(
                o, 0, js, self.alpha, self.eps, self.delta)
            assert max(o.ledger.per_pair.values()) <= m
            for k, ((ratio, kinds), log_r) in enumerate(zip(cases, logs)):
                r = sl.RatioEstimate(float(log_r))
                error = r.log_ratio - math.log(ratio)
                bad[k] += not (r.kind in kinds and (
                    not r.is_finite
                    or math.log1p(-self.eps) <= error <= math.log1p(self.eps)))
        allowed = failure_bound(self.delta, self.trials) * self.trials
        assert max(bad) <= allowed, bad

    @pytest.mark.parametrize("mode", ["binomial", "stream"])
    def test_far_pairs_stop_at_the_first_look(self, mode):
        # log weights 800 apart: p_min underflows to 0 with no RuntimeWarning
        model = sl.LogWeightMnl(np.array([0.0, 800.0, 1.0]))
        o = sl.LiveOracle(model, seed=1, pair_mode=mode)
        logs = sl.primitives.sequential_log_ratios(
            o, 0, np.array([1, 2]), self.alpha, self.eps, self.delta)
        first = sl.primitives.sequential_plan(
            self.alpha, self.eps, self.delta)[3][0]
        assert logs[0] == -math.inf and math.isfinite(logs[1])
        assert o.ledger.per_pair[(0, 1)] == first
        back = sl.primitives.sequential_log_ratios(
            o, 1, np.array([0]), self.alpha, self.eps, self.delta)
        assert back[0] == math.inf

    def test_a_pair_that_never_settles_runs_to_m(self, monkeypatch):
        # with neither early stop able to fire, a pair passes every look
        # and reads all m answers as estimate_ratio reads them
        c, _, _, looks = sl.primitives.sequential_plan(
            self.alpha, self.eps, self.delta)
        monkeypatch.setattr(sl.primitives, "sequential_plan",
                            lambda *args: (c, math.inf, math.inf, looks))
        model = ratio_model(1.7)
        o = sl.LiveOracle(model, seed=2, pair_mode="stream")
        logs = sl.primitives.sequential_log_ratios(
            o, 0, np.array([1]), self.alpha, self.eps, self.delta)
        fixed = sl.LiveOracle(model, seed=2, pair_mode="stream")
        want = sl.estimate_ratio(fixed, 0, 1, self.alpha, self.eps, self.delta)
        assert len(looks) > 1
        assert logs[0] == want.log_ratio
        assert o.ledger == fixed.ledger
        assert o.ledger.total == looks[-1]

    def test_plan_is_capped_at_m(self):
        c, upsilon, _, looks = sl.primitives.sequential_plan(
            self.alpha, self.eps, self.delta)
        assert (c, looks[-1]) == sl.primitives.ratio_sample_size(
            self.alpha, self.eps, self.delta)
        assert list(looks) == sorted(set(looks))
        assert looks[0] == math.ceil(4.0 * upsilon)
        assert all(b == 2 * a for a, b in zip(looks[:-2], looks[1:-1]))

    def test_counts_beyond_int64_stay_exact(self):
        # eps 1e-9 puts m near 2.2e21: each look is drawn in BINOMIAL_CHUNK
        # pieces, and the wins are summed as Python ints
        o = sl.LiveOracle(mnl(1.0, 1.0, 1e9), seed=3)
        logs = sl.primitives.sequential_log_ratios(
            o, 0, np.array([1, 2]), self.alpha, 1e-9, self.delta)
        looks = sl.primitives.sequential_plan(self.alpha, 1e-9, self.delta)[3]
        assert looks[-1] > 1 << 63
        assert abs(logs[0]) < 1e-9 and logs[1] == -math.inf
        assert o.ledger.per_pair[(0, 2)] == looks[0]
        assert o.ledger.per_pair[(0, 1)] in looks


class TestGetGeometric:
    def test_instant_win_returns_zero(self):
        o = FixedOracle(2, winner=0)
        assert sl.get_geometric(o, 0, 1) == 0
        assert o.ledger.total == 1

    def test_query_count_equals_losses_plus_one(self):
        o = sl.LiveOracle(mnl(1.0, 3.0), seed=1, pair_mode="stream")
        for _ in range(50):
            before = o.ledger.total
            y = sl.get_geometric(o, 0, 1)
            assert o.ledger.total - before == y + 1

    @pytest.mark.parametrize("ratio,mean,tol", [
        (2.0, 2.0, 0.05),
        (1.0, 1.0, 0.05),
        (0.5, 0.5, 0.03),
    ])
    def test_mean_matches_loser_to_winner_ratio(self, ratio, mean, tol):
        # E[Y] = w_v / w_u; tolerances are ~3 sigma / sqrt(N)
        o = sl.LiveOracle(ratio_model(1.0 / ratio), seed=5)
        draws = np.array([sl.get_geometric(o, 0, 1) for _ in range(100_000)])
        assert abs(draws.mean() - mean) < tol

    def test_variance_at_even_odds(self):
        o = sl.LiveOracle(mnl(1.0, 1.0), seed=6)
        draws = o.sample_geometric_block(0, 1, 100_000)
        assert abs(draws.var() - 2.0) < 0.1


def single_cluster_graph(model, members, center, log_w):
    """ClusterGraph stub whose star edges are exact, for isolating the estimator."""
    star = {int(u): float(log_w[u] - log_w[center])
            for u in members if u != center}
    gamma = np.zeros(model.n, dtype=np.int64)
    gamma[-1] = 1
    return sl.ClusterGraph(
        clusters=[np.array(members, dtype=np.int64),
                  np.array([model.n - 1], dtype=np.int64)],
        centers=np.array([center, model.n - 1], dtype=np.int64),
        star_log=star, gamma=gamma, a1=2.0, a2=2.0, eps=0.19)


class TestBalancedEstimateRatio:
    eps, delta, trials = 0.19, 0.1, 200

    def make(self, heavy, lights):
        """Cluster of `lights` plus a heavy item as the next center."""
        w = np.array(list(lights) + [heavy], dtype=np.float64)
        model = sl.LogWeightMnl(np.log(w))
        members = list(range(len(lights)))
        return model, single_cluster_graph(model, members, 0, np.log(w))

    def test_requires_eps_below_one_fifth(self):
        with pytest.raises(ValueError):
            sl.BalancedEstimateParams.from_formulas(2.0, 2.0, 0.25, 0.5, 0.1)

    def test_param_formulas(self):
        p = sl.BalancedEstimateParams.from_formulas(2.0, 2.0, 0.19, 0.5, 0.1)
        b1 = max(2 * 0.19 / (1 - 0.19 - 0.75), 6 / (1 - 0.19),
                 24 * 0.19 / (23 - 4 * 0.19))
        n_ae = b1 * b1 / (0.5 * 0.19 * 0.19)
        assert p.M == math.ceil(8 * math.log(2 / 0.1))
        assert p.N == math.ceil(2 * 2.0 * (1 + 1.0) * n_ae)

    def test_never_zero(self):
        model, graph = self.make(heavy=1000.0, lights=[1.0, 1.0])
        o = sl.LiveOracle(model, seed=0)
        r = sl.balanced_estimate_ratio(o, graph, 1, 0, self.eps, 0.5,
                                       self.delta)
        assert not r.is_zero

    def test_huge_ratio_reports_infinite(self):
        alpha = 0.5
        model, graph = self.make(heavy=18.0 / alpha, lights=[1.0, 1.0])
        infs = 0
        for t in range(self.trials):
            o = sl.LiveOracle(model, seed=t)
            r = sl.balanced_estimate_ratio(o, graph, 1, 0, self.eps, alpha,
                                           self.delta)
            infs += r.is_infinite
        assert infs / self.trials >= 1.0 - failure_bound(self.delta, self.trials)

    def test_moderate_ratio_is_accurate(self):
        alpha = 0.5
        true = 1.0 / alpha
        model, graph = self.make(heavy=true, lights=[1.0, 1.0])
        good = 0
        for t in range(self.trials):
            o = sl.LiveOracle(model, seed=t)
            r = sl.balanced_estimate_ratio(o, graph, 1, 0, self.eps, alpha,
                                           self.delta)
            good += (r.is_finite
                     and abs(r.log_ratio - math.log(true))
                     <= math.log(1 + 10 * self.eps))
        assert good / self.trials >= 1.0 - failure_bound(self.delta, self.trials)

    def test_per_pair_load_is_spread(self):
        # each pair (c_i, s) should stay under the explicit per-pair bound
        alpha, trials = 0.5, 50
        a1 = a2 = 2.0
        p = a2 / (a1 + a2)
        model, graph = self.make(heavy=2.0, lights=[1.0, 1.0, 1.0, 1.0])
        params = sl.BalancedEstimateParams.from_formulas(
            a1, a2, self.eps, alpha, self.delta)
        quota = math.ceil(params.M * params.N / 4)   # per member of 4
        bound = (2 * quota / p
                 + (2 / p ** 2) * math.log(10 * 4 / self.delta) + 1)
        ok = 0
        for t in range(trials):
            o = sl.LiveOracle(model, seed=t)
            sl.balanced_estimate_ratio(o, graph, 1, 0, self.eps, alpha,
                                       self.delta, params)
            ok += o.ledger.max_per_pair <= bound
        assert ok / trials >= 1.0 - failure_bound(self.delta, trials)

    def test_round_robin_quotas(self):
        # with deterministic instant wins, per-pair queries equal the quotas,
        # which must split M*N evenly and stay at or below ceil(M*N / |C_j|)
        model, graph = self.make(heavy=2.0, lights=[1.0, 1.0, 1.0])
        params = sl.BalancedEstimateParams(M=4, N=10)
        heavy = model.n - 1
        o = FixedOracle(model.n, winner=heavy)
        sl.balanced_estimate_ratio(o, graph, 1, 0, self.eps, 0.5, self.delta,
                                   params)
        quotas = sorted(o.ledger.per_pair.values(), reverse=True)
        assert quotas == [14, 13, 13]
        assert max(quotas) <= math.ceil(params.M * params.N / 3)

    def test_demand_above_the_cap_draws_nothing(self):
        model, graph = self.make(heavy=2.0, lights=[1.0, 1.0, 1.0])
        o = sl.LiveOracle(model, seed=0)
        params = sl.BalancedEstimateParams(M=69, N=MAX_WAITS // 64)
        with pytest.raises(sl.DemandTooLarge) as info:
            sl.balanced_estimate_ratio(o, graph, 1, 0, self.eps, 0.5,
                                       self.delta, params)
        assert info.value.count == 69 * (MAX_WAITS // 64)
        assert o.ledger.total == 0 and o._pair_rngs == {}
        fresh = sl.LiveOracle(model, seed=0)
        assert (o._binomial_rng.bit_generator.state
                == fresh._binomial_rng.bit_generator.state)

    @pytest.mark.parametrize("mode", ["stream", "replay"])
    def test_matches_the_per_value_reference(self, mode):
        # the M * N values, built one wait at a time as round-robin did
        model, graph = self.make(heavy=3.0, lights=[1.0, 2.0, 1.5, 0.5])
        params = sl.BalancedEstimateParams(M=5, N=37)

        def oracle():
            live = sl.LiveOracle(model, seed=17, pair_mode="stream")
            if mode == "stream":
                return live
            return sl.ReplayOracle(sl.build_replay_table(live, 2000))

        def reference(o):
            members, c_i = graph.clusters[0], int(graph.centers[1])
            size, total = len(members), params.M * params.N
            values = np.empty(total)
            for idx, s in enumerate(members):
                quota = len(range(idx, total, size))
                log_r = 0.0 if s == graph.centers[0] else -graph.star_log[s]
                values[idx::size] = math.exp(log_r) * o.sample_geometric_block(
                    c_i, int(s), quota)
            means = values.reshape(params.M, params.N).mean(axis=1)
            return -math.log(np.sort(means)[(params.M - 1) // 2])

        a, b = oracle(), oracle()
        r = sl.balanced_estimate_ratio(a, graph, 1, 0, self.eps, 0.2,
                                       self.delta, params)
        assert r.is_finite and abs(r.log_ratio - reference(b)) <= 1e-12
        assert a.ledger.per_pair == b.ledger.per_pair


class TestRoundRobinCounts:
    @pytest.mark.parametrize("M, N, size", [(4, 10, 3), (3, 5, 7), (6, 7, 4),
                                            (5, 12, 6), (2, 9, 1)])
    def test_matches_the_round_robin_assignment(self, M, N, size):
        counts = round_robin_counts(M, N, size)
        expected = np.zeros((M, size), dtype=np.int64)
        for k in range(M * N):
            expected[k // N, k % size] += 1
        np.testing.assert_array_equal(counts, expected)
        assert (counts.sum(axis=1) == N).all()
        base, extra = divmod(M * N, size)
        np.testing.assert_array_equal(
            counts.sum(axis=0), [base + (s < extra) for s in range(size)])

    def test_more_members_than_group_values_gives_zero_counts(self):
        counts = round_robin_counts(3, 5, 7)
        assert (counts == 0).any() and counts.max() == 1

    def test_large_demand_stays_exact(self):
        M, N, size = 69, MAX_WAITS // 69, 4093
        counts = round_robin_counts(M, N, size)
        assert (counts.sum(axis=1) == N).all()
        base, extra = divmod(M * N, size)
        assert counts.sum(axis=0).tolist() == [base + (s < extra)
                                               for s in range(size)]
