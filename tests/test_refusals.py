"""Every input the package refuses raises its own exception type.

One call per refusal that no other test reaches: a bad argument must end in
the documented exception, never in a bare numpy or lookup error further in.
"""

import numpy as np
import pytest

import slatelearn as sl
from conftest import mnl
from slatelearn.primitives import compare_sample_size, ratio_sample_size


def live(n=3, mode="binomial"):
    return sl.LiveOracle(mnl(*range(1, n + 1)), seed=0, pair_mode=mode)


def graph(**changes):
    """Clusters {0, 1} and {2} with centers 0 and 2, then ``changes``."""
    fields = dict(clusters=[np.array([0, 1]), np.array([2])],
                  centers=np.array([0, 2]), star_log={1: 0.0},
                  gamma=np.array([0, 0, 1]), a1=2.0, a2=2.0, eps=0.1)
    return sl.ClusterGraph(**{**fields, **changes})


def pseudo():
    return sl.MatchingPseudoMnl(p=np.array([0.3, 0.6]),
                                pi=np.array([1, 0, 3, 2]))


def replay(n=4, m=100):
    return sl.ReplayOracle(sl.build_replay_table(live(n, "stream"), m))


def uncharged(oracle, call):
    """Run ``call(oracle)``; whatever it raises, the oracle is still uncharged."""
    try:
        call(oracle)
    finally:
        assert oracle.ledger.total == 0


def balanced_estimate(i, j):
    return sl.balanced_estimate_ratio(live(), graph(), i, j, 0.1, 0.5, 0.1)


REFUSALS = [
    ("record_slate(2)", ValueError,
     lambda _: sl.QueryLedger().record_slate(2)),
    ("LiveOracle pair_mode", ValueError,
     lambda _: sl.LiveOracle(mnl(1.0, 2.0), seed=0, pair_mode="x")),
    ("slate_win_counts on a pair", ValueError,
     lambda _: live().slate_win_counts([0, 1], 5)),
    ("build_replay_table m=0", ValueError,
     lambda _: sl.build_replay_table(live(mode="stream"), 0)),
    ("epsilon_ordering eps_o", ValueError,
     lambda _: sl.epsilon_ordering(live(), 1.0, 0.1)),
    ("epsilon_ordering delta=0", ValueError,
     lambda _: sl.epsilon_ordering(live(4), 0.3, 0.0)),
    ("epsilon_ordering delta=1", ValueError,
     lambda _: sl.epsilon_ordering(live(4), 0.3, 1.0)),
    ("build_estimation_forest delta=0", ValueError,
     lambda _: sl.build_estimation_forest(live(4), 0.5, 0.3, 0.0)),
    # a builder passes only a fraction of delta on, so each checks its own
    ("build_estimation_forest delta=2", ValueError,
     lambda _: uncharged(live(6), lambda o: sl.build_estimation_forest(
         o, 0.5, 0.3, 2.0))),
    ("build_estimation_forest delta=2.9", ValueError,
     lambda _: uncharged(live(6), lambda o: sl.build_estimation_forest(
         o, 0.5, 0.3, 2.9))),
    ("build_balanced_estimation_forest delta=3", ValueError,
     lambda _: uncharged(live(6), lambda o: sl.build_balanced_estimation_forest(
         o, 0.5, 0.1, 3.0))),
    ("quicksort_clustering delta=2", ValueError,
     lambda _: uncharged(live(6), lambda o: sl.quicksort_clustering(
         o, 0.5, 0.1, 2.0))),
    ("cluster_sort alpha", ValueError,
     lambda _: sl.cluster_sort(live(), 0.7, 0.1, 0.1)),
    ("cluster_sort delta=2", ValueError,
     lambda _: sl.cluster_sort(live(), 0.5, 0.1, 2.0)),
    ("cluster_sort delta=0", ValueError,
     lambda _: sl.cluster_sort(live(), 0.5, 0.1, 0.0)),
    ("compare_sample_size delta", ValueError,
     lambda _: compare_sample_size(0.5, 0.3, 1.5)),
    ("ratio_sample_size alpha", ValueError,
     lambda _: ratio_sample_size(0.7, 0.3, 0.1)),
    ("QueryBudget.calibrated balanced_params eps=0.2", ValueError,
     lambda _: sl.QueryBudget.calibrated().balanced_params(graph(), 0.2, 0.5,
                                                           0.1)),
    ("balanced_estimate_ratio i == j", ValueError,
     lambda _: balanced_estimate(0, 0)),
    ("balanced_estimate_ratio i < j", ValueError,
     lambda _: balanced_estimate(0, 1)),
    ("learn_adaptive delta", ValueError,
     lambda _: sl.learn_adaptive(live(), 3, 0.5, 0.0)),
    ("learn_balanced delta", ValueError,
     lambda _: sl.learn_balanced(live(), 3, 0.5, 1.0)),
    ("learn_nonadaptive delta", ValueError,
     lambda _: sl.learn_nonadaptive(live(mode="stream"), 3, 0.5, 2.0, 10)),
    ("distance_exact n mismatch", ValueError,
     lambda _: sl.distance_exact(mnl(1.0, 2.0), mnl(1.0, 2.0, 3.0))),
    ("distance_sampled n mismatch", ValueError,
     lambda _: sl.distance_sampled(mnl(1.0, 2.0), mnl(1.0, 2.0, 3.0), 5)),
    ("distance_sampled k=0", ValueError,
     lambda _: sl.distance_sampled(mnl(1.0, 2.0), mnl(1.0, 2.0), 0)),
    ("separation_fixture n=1", ValueError,
     lambda _: sl.separation_fixture(1, 0.1)),
    ("separation_fixture eps", ValueError,
     lambda _: sl.separation_fixture(4, 1.5)),
    ("pair_probability(u, u)", ValueError,
     lambda _: sl.pair_probability(mnl(1.0, 2.0), 1, 1)),
    # a negative id is refused, not read from the end of the array
    ("pair_probability negative item", ValueError,
     lambda _: sl.pair_probability(mnl(1.0, 2.0, 4.0), -1, 0)),
    ("pair_probability item >= n", ValueError,
     lambda _: sl.pair_probability(mnl(1.0, 2.0, 4.0), 0, 3)),
    ("pair_probabilities negative item", ValueError,
     lambda _: sl.pair_probabilities(mnl(1.0, 2.0, 4.0), [1, -1], [0, 0])),
    ("pair_probabilities item >= n", ValueError,
     lambda _: sl.pair_probabilities(mnl(1.0, 2.0, 4.0), [0], [3])),
    ("pair_probability pseudo-MNL negative item", ValueError,
     lambda _: sl.pair_probability(pseudo(), 0, -1)),
    ("pair_probabilities pseudo-MNL item >= n", ValueError,
     lambda _: sl.pair_probabilities(pseudo(), [4], [0])),
    ("generate_instance rho=0", ValueError,
     lambda _: sl.generate_instance(
         sl.InstanceSpec("geometric-ratio", 3, params={"rho": 0.0}))),
    # a pair call refuses ids that are not two distinct items, uncharged
    ("ReplayOracle pair_win_count item >= n", ValueError,
     lambda _: uncharged(replay(), lambda o: o.pair_win_count(0, 7, 3))),
    ("ReplayOracle pair_win_count item >= n, count 0", ValueError,
     lambda _: uncharged(replay(), lambda o: o.pair_win_count(0, 7, 0))),
    ("ReplayOracle pair_win_count u == v", ValueError,
     lambda _: uncharged(replay(), lambda o: o.pair_win_count(2, 2, 3))),
    ("ReplayOracle array pair_win_count item >= n", ValueError,
     lambda _: uncharged(replay(), lambda o: o.pair_win_count(
         np.array([1, 2, 4]), 0, 3))),
    ("LiveOracle pair_win_count item >= n", ValueError,
     lambda _: uncharged(live(), lambda o: o.pair_win_count(0, 9, 3))),
    ("LiveOracle array pair_win_count negative item", ValueError,
     lambda _: uncharged(live(), lambda o: o.pair_win_count(
         np.array([0, -1]), 2, 3))),
    ("LiveOracle array pair_win_count u == v", ValueError,
     lambda _: uncharged(live(), lambda o: o.pair_win_count(
         1, np.array([0, 1]), 3))),
    ("LiveOracle vector pair_win_count item >= n", ValueError,
     lambda _: uncharged(live(40), lambda o: o.pair_win_count(
         np.append(np.arange(1, 30), 40), 0, 3))),
    ("LiveOracle vector pair_win_count negative partner", ValueError,
     lambda _: uncharged(live(40), lambda o: o.pair_win_count(
         np.arange(1, 30), -1, 3))),
    ("LiveOracle pair_win_count stop past a bad item", ValueError,
     lambda _: uncharged(live(40), lambda o: o.pair_win_count(
         np.append(np.arange(1, 39), 0), 0, 3, stop=4))),
    ("LiveOracle stream array pair_win_count item >= n", ValueError,
     lambda _: uncharged(live(mode="stream"), lambda o: o.pair_win_count(
         np.array([1, 3]), 0, 3))),
    ("LiveOracle sample_pair_block item >= n", ValueError,
     lambda _: uncharged(live(), lambda o: o.sample_pair_block(0, 3, 3))),
    ("LiveOracle sample_geometric_sums negative member", ValueError,
     lambda _: uncharged(live(), lambda o: o.sample_geometric_sums(
         0, np.array([1, -1]), np.array([[2, 2]])))),
    ("ReplayOracle sample_geometric_sums member >= n", ValueError,
     lambda _: uncharged(replay(), lambda o: o.sample_geometric_sums(
         0, np.array([1, 4]), np.array([[2, 2]])))),
    ("ReplayOracle sample_geometric_block u == v", ValueError,
     lambda _: uncharged(replay(), lambda o: o.sample_geometric_block(
         1, 1, 3))),
    # a fractional id is refused, not read as its floor, and uncharged
    ("slate_distribution fractional item", ValueError,
     lambda _: mnl(1.0, 2.0).slate_distribution([0.5, 1])),
    ("LiveOracle max_sample fractional item", ValueError,
     lambda _: uncharged(live(), lambda o: o.max_sample([0.5, 1, 2]))),
    ("LiveOracle max_sample fractional pair", ValueError,
     lambda _: uncharged(live(), lambda o: o.max_sample([0.5, 1]))),
    ("LiveOracle slate_win_counts fractional item", ValueError,
     lambda _: uncharged(live(), lambda o: o.slate_win_counts([0.9, 1, 2],
                                                              10))),
    ("ReplayOracle max_sample fractional item", ValueError,
     lambda _: uncharged(replay(), lambda o: o.max_sample([0.5, 1]))),
    ("pair_probabilities fractional item", ValueError,
     lambda _: sl.pair_probabilities(mnl(1.0, 2.0), [0.5], [1])),
    ("pair_probability fractional item", ValueError,
     lambda _: sl.pair_probability(mnl(1.0, 2.0), 0.5, 1)),
    ("LiveOracle array pair_win_count fractional item", ValueError,
     lambda _: uncharged(live(), lambda o: o.pair_win_count(
         np.array([0.5]), 1, 3))),
    ("LiveOracle pair_win_count fractional item", ValueError,
     lambda _: uncharged(live(), lambda o: o.pair_win_count(0.5, 1, 3))),
    ("LiveOracle sample_geometric fractional item", ValueError,
     lambda _: uncharged(live(), lambda o: o.sample_geometric(0.5, 1))),
    ("LiveOracle sample_geometric_sums fractional item", ValueError,
     lambda _: uncharged(live(), lambda o: o.sample_geometric_sums(
         0.5, [1], [[2]]))),
    ("LiveOracle stream sample_pair fractional item", ValueError,
     lambda _: uncharged(live(mode="stream"), lambda o: o.sample_pair(0.5,
                                                                      1))),
    ("EstimationForest edge_log item >= n", ValueError,
     lambda _: sl.EstimationForest(graph=graph(), edge_log={(0, 7): 1.0},
                                   eps=0.3).components()),
    ("check_structure without a star edge", AssertionError,
     lambda _: graph(star_log={}).check_structure()),
    ("check_structure without a partition", AssertionError,
     lambda _: graph(clusters=[np.array([0, 1]), np.array([1])])
     .check_structure()),
    ("check_structure with a foreign center", AssertionError,
     lambda _: graph(centers=np.array([2, 2])).check_structure()),
    ("check_structure with a wrong gamma", AssertionError,
     lambda _: graph(gamma=np.array([0, 1, 1])).check_structure()),
    ("generate_weights without a star edge", AssertionError,
     lambda _: sl.generate_weights(sl.EstimationForest(
         graph=graph(star_log={}), edge_log={}, eps=0.1))),
]


@pytest.mark.parametrize("call, error",
                         [(call, error) for _, error, call in REFUSALS],
                         ids=[name for name, _, _ in REFUSALS])
def test_refusal_raises_its_type(tmp_path, call, error):
    with pytest.raises(error):
        call(tmp_path)
