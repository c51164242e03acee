import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slatelearn as sl
from conftest import mnl, reference_distribution


class TestLogWeightMnl:
    def test_singleton_slate_is_certain(self):
        m = mnl(1.0, 2.0, 3.0)
        assert m.slate_distribution([1]) == pytest.approx([1.0])

    def test_pair_distribution_matches_weights(self):
        m = mnl(1.0, 3.0)
        np.testing.assert_allclose(m.slate_distribution([0, 1]), [0.25, 0.75])

    def test_extreme_scale_gap_does_not_overflow(self):
        # direct exp of these log weights would overflow a float64
        for log_w, slate in (([0.0, 800.0, 1600.0], [0, 1, 2]),
                             ([1000.0, -1000.0, 999.0, -999.5, 3.0],
                              [3, 0, 4, 1, 2])):
            m = sl.LogWeightMnl(np.array(log_w))
            probs = m.slate_distribution(slate)
            assert np.all(np.isfinite(probs))
            assert probs.sum() == pytest.approx(1.0)
            np.testing.assert_allclose(probs, reference_distribution(m, slate),
                                       rtol=1e-12, atol=0.0)

    def test_distribution_follows_slate_order(self):
        m = mnl(1.0, 2.0, 5.0)
        np.testing.assert_allclose(m.slate_distribution([2, 0]),
                                   [5.0 / 6.0, 1.0 / 6.0])

    def test_rejects_nonfinite_log_weights(self):
        with pytest.raises(ValueError):
            sl.LogWeightMnl(np.array([0.0, np.inf]))

    def test_rejects_bad_slates(self):
        m = mnl(1.0, 1.0)
        for bad in ([], [0, 0], [5], [0.5, 1], [-1], [[0, 1]]):
            with pytest.raises(ValueError):
                m.slate_distribution(bad)

    def test_batched_rows_match_single_slates(self):
        m = mnl(1.0, 2.0, 5.0, 0.5)
        slates = ([0, 2], [0, 1, 2, 3], [3])
        probs = m.slate_distributions(np.concatenate(slates), [0, 2, 6])
        for slate, got in zip(slates, np.split(probs, [2, 6])):
            np.testing.assert_allclose(got, reference_distribution(m, slate))

    def test_batched_form_rejects_bad_slates(self):
        bad = {
            "empty slate": ([0, 1], [0, 2, 2]),
            "empty slate at the end": ([0, 1], [0, 2]),
            "no slates": ([0, 1], []),
            "no items": ([], [0]),
            "offsets not from 0": ([0, 1, 2], [1]),
            "offsets falling": ([0, 1, 0, 2], [0, 2, 1]),
            "negative id": ([-1, 0], [0]),
            "id >= n": ([0, 4], [0]),
            "repeated id": ([1, 1], [0]),
            "descending ids": ([2, 0, 1], [0]),
            "descending ids in a later slate": ([0, 1, 3, 2], [0, 2]),
            "fractional ids": ([0.5, 1.0], [0]),
            "fractional offsets": ([0, 1], [0.0]),
            "mask rows": (np.ones((1, 4), bool), [0]),
            "2-d ids": ([[0, 1]], [0]),
        }
        models = (mnl(1.0, 1.0, 2.0, 3.0),
                  sl.MatchingPseudoMnl(np.array([0.3, 0.6]), np.arange(4)))
        for m in models:
            for name, (items, starts) in bad.items():
                with pytest.raises(ValueError):
                    m.slate_distributions(items, starts)
                    pytest.fail(name)

    @given(st.lists(st.floats(min_value=-30, max_value=30), min_size=2,
                    max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_distribution_sums_to_one(self, log_w):
        m = sl.LogWeightMnl(np.array(log_w))
        probs = m.slate_distribution(list(range(len(log_w))))
        assert probs.sum() == pytest.approx(1.0)
        assert np.all(probs >= 0)


def test_random_ragged_batches_match_single_slates():
    rng = np.random.default_rng(21)
    for n in (1, 2, 7, 40):
        models = [sl.LogWeightMnl(rng.normal(scale=5.0, size=n))]
        if n % 2 == 0:
            models.append(sl.MatchingPseudoMnl(rng.random(n // 2),
                                               rng.permutation(n)))
        for m in models:
            # one-item slates among them, at the start, middle and end
            slates = [np.sort(rng.choice(n, size=size, replace=False))
                      for size in rng.integers(1, n + 1, size=30)]
            for r in (0, 15, 29):
                slates[r] = rng.integers(n, size=1)
            starts = np.cumsum([0] + [s.size for s in slates[:-1]])
            probs = m.slate_distributions(np.concatenate(slates), starts)
            for slate, got in zip(slates, np.split(probs, starts[1:])):
                np.testing.assert_allclose(
                    got, reference_distribution(m, slate), rtol=1e-12, atol=0)
                assert got.sum() == pytest.approx(1.0, abs=1e-12)


class TestMatchingPseudoMnl:
    def make(self):
        # pairs (0,1), (2,3); heads win with 0.7 and 0.2
        return sl.MatchingPseudoMnl(np.array([0.7, 0.2]),
                                    np.arange(4))

    def test_full_slate_uses_highest_pair(self):
        m = self.make()
        np.testing.assert_allclose(m.slate_distribution([0, 1, 2, 3]),
                                   [0.0, 0.0, 0.8, 0.2])

    def test_lone_member_of_highest_pair_wins(self):
        m = self.make()
        np.testing.assert_allclose(m.slate_distribution([0, 1, 2]),
                                   [0.0, 0.0, 1.0])

    def test_lower_pair_decides_when_highest_absent(self):
        m = self.make()
        np.testing.assert_allclose(m.slate_distribution([0, 1]), [0.3, 0.7])

    def test_permutation_relabels_pairs(self):
        m = sl.MatchingPseudoMnl(np.array([0.6, 0.1]),
                                 np.array([3, 2, 1, 0]))
        # highest pair is {1, 0}; item 0 is the "later" member
        np.testing.assert_allclose(m.slate_distribution([0, 1, 2, 3]),
                                   [0.1, 0.9, 0.0, 0.0])

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            sl.MatchingPseudoMnl(np.array([0.5]), np.array([0, 0]))

    def test_rejects_out_of_range_probabilities(self):
        with pytest.raises(ValueError):
            sl.MatchingPseudoMnl(np.array([1.5]), np.arange(2))


class TestPairProbability:
    def test_matches_slate_distribution(self):
        m = mnl(1.0, 4.0)
        assert sl.pair_probability(m, 0, 1) == pytest.approx(0.2)
        assert sl.pair_probability(m, 1, 0) == pytest.approx(0.8)

    def test_stable_under_huge_gaps(self):
        m = sl.LogWeightMnl(np.array([0.0, 900.0]))
        assert sl.pair_probability(m, 0, 1) == 0.0 or \
            sl.pair_probability(m, 0, 1) < 1e-300
        assert sl.pair_probability(m, 1, 0) == pytest.approx(1.0)

    def test_pseudo_mnl_pairs(self):
        m = sl.MatchingPseudoMnl(np.array([0.7, 0.2]), np.arange(4))
        assert sl.pair_probability(m, 3, 2) == pytest.approx(0.2)
        assert sl.pair_probability(m, 0, 3) == pytest.approx(0.0)

    def test_vector_form_is_the_scalar_bit_for_bit(self):
        rng = np.random.default_rng(17)
        log_w = np.concatenate((rng.normal(0.0, 3.0, 9), [800.0, -800.0, 0.0]))
        pseudo = sl.MatchingPseudoMnl(rng.random(6), rng.permutation(12))
        us, vs = (a.ravel() for a in np.meshgrid(np.arange(12), np.arange(12)))
        us, vs = us[us != vs], vs[us != vs]
        for model in (sl.LogWeightMnl(log_w), pseudo):
            got = sl.pair_probabilities(model, us, vs)
            want = [sl.pair_probability(model, int(u), int(v))
                    for u, v in zip(us, vs)]
            assert got.tobytes() == np.array(want).tobytes()
            with pytest.raises(ValueError):
                sl.pair_probabilities(model, [0, 1], [2, 1])


class TestInstanceGenerators:
    def test_uniform(self):
        m = sl.generate_instance(sl.InstanceSpec("uniform", n=5))
        np.testing.assert_array_equal(m.log_w, np.zeros(5))

    def test_geometric_ratio(self):
        m = sl.generate_instance(sl.InstanceSpec("geometric-ratio", n=4,
                                                 params={"rho": 2.0}))
        np.testing.assert_allclose(m.log_w, np.arange(1, 5) * np.log(2.0))

    def test_power_law_is_seed_deterministic(self):
        a = sl.generate_instance(sl.InstanceSpec("power-law", n=16, seed=3))
        b = sl.generate_instance(sl.InstanceSpec("power-law", n=16, seed=3))
        c = sl.generate_instance(sl.InstanceSpec("power-law", n=16, seed=4))
        np.testing.assert_array_equal(a.log_w, b.log_w)
        assert not np.array_equal(a.log_w, c.log_w)

    def test_two_scale(self):
        m = sl.generate_instance(sl.InstanceSpec("two-scale", n=4,
                                                 params={"K": 100.0}))
        np.testing.assert_allclose(m.log_w, [0, 0, 0, np.log(100.0)])

    def test_pseudo_mnl_defaults_to_identity(self):
        m = sl.generate_instance(sl.InstanceSpec("pseudo-mnl",
                                                 params={"p": [0.7]}))
        np.testing.assert_array_equal(m.pi, [0, 1])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            sl.InstanceSpec("zipf", n=3)


class TestSerialization:
    def test_mnl_round_trip(self, tmp_path):
        m = mnl(1.0, 2.5, 0.25)
        path = tmp_path / "m.json"
        sl.save_model(m, path)
        back = sl.load_model(path)
        np.testing.assert_array_equal(back.log_w, m.log_w)

    def test_pseudo_mnl_round_trip(self, tmp_path):
        m = sl.MatchingPseudoMnl(np.array([0.7, 0.2]), np.array([2, 0, 3, 1]))
        path = tmp_path / "m.json"
        sl.save_model(m, path)
        back = sl.load_model(path)
        np.testing.assert_array_equal(back.p, m.p)
        np.testing.assert_array_equal(back.pi, m.pi)

    def test_format_is_plain_json(self, tmp_path):
        path = tmp_path / "m.json"
        sl.save_model(mnl(1.0, 2.0), path)
        doc = json.loads(path.read_text())
        assert doc["kind"] == "mnl"
        assert len(doc["log_weights"]) == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            sl.model_from_dict({"kind": "nested-logit"})
