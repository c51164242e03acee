import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slatelearn as sl
import slatelearn.metrics as metrics
from conftest import mnl, reference_distribution


def reference_worst(a, b, slates) -> tuple:
    """The per-slate loop the batched kernel replaced, kept as its reference.

    Returns (d1, dinf, argmax slate, slates checked); the first slate in
    list order that attains d1 is the argmax.
    """
    best_d1, best_dinf, best_slate = -1.0, 0.0, ()
    for s in slates:
        diff = np.abs(reference_distribution(a, s)
                      - reference_distribution(b, s))
        tv = float(diff.sum())
        best_dinf = max(best_dinf, float(diff.max()))
        if tv > best_d1:
            best_d1, best_slate = tv, tuple(int(x) for x in s)
    return best_d1, best_dinf, best_slate, len(slates)


def reference_all_slates(n: int) -> list:
    """Every non-empty slate in mask order: bit i of the mask holds item i."""
    items = np.arange(n)
    return [items[[(mask >> i) & 1 == 1 for i in range(n)]]
            for mask in range(1, 1 << n)]


def reference_sampled_slates(a, n: int, k: int, rng) -> list:
    """The slate list distance_sampled checked before it stopped early.

    It lists every heaviest-first prefix, then cuts the list to k.
    """
    slates = [tuple(range(n))]
    seen = {slates[0]}
    if isinstance(a, sl.LogWeightMnl):
        order = np.argsort(-a.log_w, kind="stable")
        for size in range(2, n):
            s = tuple(sorted(int(x) for x in order[:size]))
            if s not in seen:
                seen.add(s)
                slates.append(s)
    if len(slates) + n * (n - 1) // 2 <= k:
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) not in seen:
                    seen.add((u, v))
                    slates.append((u, v))
    attempts = 0
    while len(slates) < k and attempts < 50 * k:
        attempts += 1
        size = int(rng.integers(2, n + 1))
        s = tuple(sorted(int(x) for x in
                         rng.choice(n, size=size, replace=False)))
        if s not in seen:
            seen.add(s)
            slates.append(s)
    return slates[:k]


def assert_matches(rep, ref) -> None:
    d1, dinf, slate, checked = ref
    assert rep.d1 == pytest.approx(d1, abs=1e-12)
    assert rep.dinf == pytest.approx(dinf, abs=1e-12)
    assert rep.argmax_slate == slate
    assert rep.slates_checked == checked


def random_pseudo(rng, n):
    return sl.MatchingPseudoMnl(rng.uniform(size=n // 2), rng.permutation(n))


class TestDistanceExact:
    def test_identical_models_are_at_zero(self):
        m = mnl(1.0, 2.0, 3.0)
        rep = sl.distance_exact(m, m)
        assert rep.d1 == 0.0 and rep.dinf == 0.0
        assert rep.exact and rep.slates_checked == 7

    def test_split_mass_counterexample(self):
        # two models agreeing on every superset of the heavy item but
        # differing sharply on the light-light slate
        eps = 0.2
        a = mnl(1 - eps, eps / 2, eps / 2)
        b = mnl(1 - eps, 3 * eps / 4, eps / 4)
        rep = sl.distance_exact(a, b)
        assert rep.dinf >= 0.25 - 1e-12
        probs_a = a.slate_distribution([1, 2])
        probs_b = b.slate_distribution([1, 2])
        assert np.abs(probs_a - probs_b).sum() == pytest.approx(0.5)

    def test_two_item_example(self):
        a = mnl(1.0, 2.0)
        b = mnl(1.0, 3.0)
        rep = sl.distance_exact(a, b)
        assert rep.d1 == pytest.approx(1.0 / 6.0)
        assert rep.argmax_slate == (0, 1)

    def test_symmetry_and_ordering(self):
        a = mnl(1.0, 2.0, 4.0, 8.0)
        b = mnl(1.0, 2.5, 3.5, 9.0)
        ab, ba = sl.distance_exact(a, b), sl.distance_exact(b, a)
        assert ab.d1 == pytest.approx(ba.d1, abs=1e-12)
        assert ab.dinf == pytest.approx(ba.dinf, abs=1e-12)
        assert 0 <= ab.dinf <= ab.d1 <= 2

    def test_pseudo_mnl_vs_mnl(self):
        pseudo = sl.MatchingPseudoMnl(np.array([0.7]), np.arange(2))
        m = mnl(0.3, 0.7)
        rep = sl.distance_exact(pseudo, m)
        assert rep.d1 == pytest.approx(0.0, abs=1e-12)

    def test_refuses_large_n(self):
        big = sl.LogWeightMnl(np.zeros(21))
        with pytest.raises(ValueError):
            sl.distance_exact(big, big)

    def test_matches_reference_loop_on_random_mnls(self):
        rng = np.random.default_rng(11)
        for n in range(2, 13):
            a = sl.LogWeightMnl(rng.normal(size=n))
            b = sl.LogWeightMnl(a.log_w + rng.normal(scale=0.5, size=n))
            assert_matches(sl.distance_exact(a, b),
                           reference_worst(a, b, reference_all_slates(n)))

    def test_matches_reference_loop_on_pseudo_mnls(self):
        rng = np.random.default_rng(12)
        for n in (2, 4, 6, 10):
            pseudo = random_pseudo(rng, n)
            others = (sl.LogWeightMnl(rng.normal(size=n)),
                      random_pseudo(rng, n))
            for other in others:
                for a, b in ((pseudo, other), (other, pseudo)):
                    assert_matches(sl.distance_exact(a, b),
                                   reference_worst(a, b,
                                                   reference_all_slates(n)))

    def test_matches_reference_loop_at_extreme_log_weights(self):
        # a direct exp of +-1000 over- or underflows; max subtraction must not
        rng = np.random.default_rng(13)
        for n in (6, 10):
            lw = 1000.0 * rng.choice([-1.0, 1.0], size=n) + rng.normal(size=n)
            a = sl.LogWeightMnl(lw)
            b = sl.LogWeightMnl(lw + rng.normal(size=n))
            assert_matches(sl.distance_exact(a, b),
                           reference_worst(a, b, reference_all_slates(n)))

    def test_ties_go_to_the_first_mask(self, monkeypatch):
        models = (mnl(1.0, 2.0, 3.0, 4.0),
                  sl.MatchingPseudoMnl(np.array([0.3, 0.6]), np.arange(4)))
        # one chunk, then one row per chunk: ties within and across chunks
        for values in (metrics.CHUNK_VALUES, 1):
            monkeypatch.setattr(metrics, "CHUNK_VALUES", values)
            for m in models:
                assert sl.distance_exact(m, m).argmax_slate == (0,)

    def test_chunk_boundaries_do_not_change_the_result(self, monkeypatch):
        rng = np.random.default_rng(14)
        n = 9
        a = sl.LogWeightMnl(rng.normal(size=n))
        b = sl.LogWeightMnl(rng.normal(size=n))
        exact = sl.distance_exact(a, b)
        sampled = sl.distance_sampled(a, b, 40, np.random.default_rng(1))
        # 1, 3 and 7 rows per chunk; 511 and 40 slates leave a partial chunk
        for values in (1, 3 * n, 7 * n + 1):
            monkeypatch.setattr(metrics, "CHUNK_VALUES", values)
            assert sl.distance_exact(a, b) == exact
            assert sl.distance_sampled(
                a, b, 40, np.random.default_rng(1)) == sampled


class TestDistanceSampled:
    def test_identical_models(self):
        m = mnl(*range(1, 9))
        assert sl.distance_sampled(m, m, 50).d1 == 0.0

    def test_lower_bounds_exact(self):
        rng = np.random.default_rng(0)
        for t in range(20):
            lw = rng.normal(size=rng.integers(3, 13))
            a = sl.LogWeightMnl(lw)
            b = sl.LogWeightMnl(lw + rng.normal(scale=0.3, size=lw.size))
            exact = sl.distance_exact(a, b)
            sampled = sl.distance_sampled(a, b, 40, np.random.default_rng(t))
            assert sampled.d1 <= exact.d1 + 1e-12
            assert sampled.dinf <= exact.dinf + 1e-12

    def test_full_slate_always_included(self):
        # the separation fixture is only distinguishable on large slates
        a, b = sl.separation_fixture(16, 0.2)
        rep = sl.distance_sampled(a, b, 1)
        assert rep.dinf >= 0.2 / 9.0

    def test_respects_slate_budget(self):
        a = mnl(*range(1, 9))
        b = mnl(*range(2, 10))
        assert sl.distance_sampled(a, b, 5).slates_checked <= 5

    def test_one_item_model_has_only_its_full_slate(self):
        a = sl.LogWeightMnl(np.zeros(1))
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        rep = sl.distance_sampled(a, a, 10, rng)
        assert rep.slates_checked == 1 and rep.argmax_slate == (0,)
        assert rep.d1 == rep.dinf == 0.0
        assert rng.bit_generator.state == state

    def test_stops_once_every_slate_is_listed(self):
        # 2^n - n - 1 slates have two or more items: 4 at n=3, 26 at n=5
        for n, k, listed in ((3, 10**6, 4), (3, 10**30, 4), (5, 10**6, 26)):
            a = mnl(*range(1, n + 1))
            b = mnl(*range(2, n + 2))
            rep = sl.distance_sampled(a, b, k, np.random.default_rng(n))
            assert rep.slates_checked == listed
            assert rep.d1 == sl.distance_exact(a, b).d1

    def test_matches_reference_listing(self):
        # n - 1 <= k lists pairs and random subsets; n - 1 > k stops early
        k = 50
        rng = np.random.default_rng(15)
        for n in (5, 12, 40, 51, 52, 300):
            a = sl.LogWeightMnl(rng.normal(size=n))
            b = sl.LogWeightMnl(a.log_w + rng.normal(scale=0.3, size=n))
            slates = reference_sampled_slates(a, n, k,
                                              np.random.default_rng(n))
            assert_matches(sl.distance_sampled(a, b, k,
                                               np.random.default_rng(n)),
                           reference_worst(a, b, slates))

    def test_matches_reference_listing_for_pseudo_mnls(self):
        rng = np.random.default_rng(16)
        for n in (6, 40):
            a, b = random_pseudo(rng, n), sl.LogWeightMnl(rng.normal(size=n))
            slates = reference_sampled_slates(a, n, 30,
                                              np.random.default_rng(n))
            assert_matches(sl.distance_sampled(a, b, 30,
                                               np.random.default_rng(n)),
                           reference_worst(a, b, slates))


class TestSeparationFixture:
    def test_pair_gaps_are_tiny_but_full_slate_differs(self):
        n, eps = 16, 0.2
        m1, m2 = sl.separation_fixture(n, eps)
        worst = max(abs(sl.pair_probability(m1, u, v)
                        - sl.pair_probability(m2, u, v))
                    for u in range(n) for v in range(n) if u != v)
        assert worst <= eps / n
        full = np.arange(n)
        gap = abs(m1.slate_distribution(full)[-1]
                  - m2.slate_distribution(full)[-1])
        assert gap >= eps / 9.0

    def test_closed_form_full_slate_gap(self):
        n, eps = 16, 0.2
        m1, m2 = sl.separation_fixture(n, eps)
        expected = n / (2 * n - 1) - n / ((2 + eps) * n - (1 + eps))
        full = np.arange(n)
        gap = m1.slate_distribution(full)[-1] - m2.slate_distribution(full)[-1]
        assert gap == pytest.approx(expected, abs=1e-12)

    @given(st.floats(min_value=1e-4, max_value=1e-2))
    @settings(max_examples=20, deadline=None)
    def test_gap_vanishes_with_eps(self, eps):
        m1, m2 = sl.separation_fixture(8, eps)
        full = np.arange(8)
        gap = abs(m1.slate_distribution(full)[-1]
                  - m2.slate_distribution(full)[-1])
        assert gap <= eps


class TestLedgerReport:
    def test_empty(self):
        rep = sl.ledger_report(sl.QueryLedger())
        assert rep["total"] == 0 and rep["max_per_pair"] == 0

    def test_replay_table_accounting(self):
        o = sl.LiveOracle(mnl(1.0, 1.0, 1.0), seed=0)
        sl.build_replay_table(o, 2)
        rep = sl.ledger_report(o.ledger)
        assert rep["total"] == 6 and rep["max_per_pair"] == 2
        assert rep["per_size"] == {"2": 6}

    def test_learner_total_matches_independent_counter(self):
        # cross-check the ledger against a wrapper that counts calls itself
        truth = sl.generate_instance(
            sl.InstanceSpec("power-law", n=16, seed=1, params={"gamma": 1.0}))
        o = sl.LiveOracle(truth, seed=1)
        counted = {"total": 0}
        inner = o.pair_win_count

        def wrapper(u, v, count, stop=None):
            # u or v may be an array of pairs, each answered pair charged
            # count queries; with stop, only the answered prefix is charged
            wins = inner(u, v, count, stop=stop)
            counted["total"] += count * np.size(wins)
            return wins

        o.pair_win_count = wrapper
        sl.learn_adaptive(o, 16, 0.3, 0.1, seed=1)
        assert o.ledger.total == counted["total"]
