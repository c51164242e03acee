"""Non-adaptive learning via a replay table.

Because the balanced learner only ever queries pairs, its entire run can be
simulated from one non-adaptive batch: pay for m answers of every pair up
front, then replay. The batch is a window on the live pair streams, not a
table of answers: building it charges the live ledger and draws nothing,
and a replay draws only the answers its learner reads. The learned model is
bit-identical to a live run with the same seed, and the live oracle is
never touched after the batch.
"""

import numpy as np

import slatelearn as sl


def main():
    n, eps, delta, seed = 6, 0.5, 0.1, 11
    truth = sl.generate_instance(
        sl.InstanceSpec("geometric-ratio", n=n, params={"rho": 2.0}))

    # how big must m be? measure a live balanced run's per-pair demand
    probe = sl.LiveOracle(truth, seed=seed)
    sl.learn_balanced(probe, n, eps, delta, seed=seed)
    m = 2 * probe.ledger.max_per_pair
    print("measured per-pair demand:", probe.ledger.max_per_pair,
          "-> batch size m =", m)

    # one non-adaptive batch, then silence
    live = sl.LiveOracle(truth, seed=seed, pair_mode="stream")
    learned, replay = sl.learn_nonadaptive(live, n, eps, delta, m, seed=seed)
    pairs = n * (n - 1) // 2
    print("live queries: {} (= m x {} pairs, one batch charge), slate sizes"
          " used: {}".format(live.ledger.total, pairs,
                             sorted(live.ledger.per_size)))
    print("replayed (simulated) queries: {}, read from {} of the {} pairs"
          .format(replay.ledger.total, len(replay.ledger.per_pair), pairs))

    rep = sl.distance_exact(truth, learned)
    print("exact d1 =", round(rep.d1, 4), "(target <=", eps, ")")

    # the replay is a faithful simulation: same seed, same model, bit for bit
    direct_oracle = sl.LiveOracle(truth, seed=seed, pair_mode="stream")
    direct = sl.learn_balanced(direct_oracle, n, eps, delta, seed=seed)
    print("bit-identical to the live run:",
          np.array_equal(direct.log_w, learned.log_w))

    # too small an m fails loudly, naming the starved pair
    try:
        sl.learn_nonadaptive(sl.LiveOracle(truth, seed=seed), n, eps, delta,
                             m=10, seed=seed)
    except sl.ReplayBudgetExhausted as e:
        print("m=10 fails as expected:", e)


if __name__ == "__main__":
    main()
