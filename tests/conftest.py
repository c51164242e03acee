"""Shared fixtures and helpers for the test suite."""

import math

import numpy as np
import pytest

import slatelearn as sl


def failure_bound(delta: float, trials: int) -> float:
    """Allowed empirical failure fraction for a 1 - delta guarantee."""
    return delta + 3.0 * math.sqrt(delta * (1.0 - delta) / trials)


class FixedOracle:
    """Oracle stub that always declares a designated item the winner."""

    def __init__(self, n: int, winner: int):
        self.n = n
        self.winner = winner
        self.ledger = sl.QueryLedger()

    def max_sample(self, slate):
        slate = np.asarray(slate)
        if slate.size == 2:
            return self.sample_pair(int(slate[0]), int(slate[1]))
        self.ledger.record_slate(slate.size)
        return self.winner

    def sample_pair(self, u, v):
        self.ledger.record_pair(u, v)
        return self.winner if self.winner in (u, v) else u

    def pair_win_count(self, u, v, count):
        self.ledger.record_pair(u, v, count)
        return count if u == self.winner else 0

    def sample_geometric(self, u, v):
        losses = 0
        while self.sample_pair(u, v) != u:
            losses += 1
        return losses

    def sample_geometric_block(self, u, v, count):
        return np.array([self.sample_geometric(u, v) for _ in range(count)],
                        dtype=np.int64)

    def sample_geometric_sums(self, u, vs, counts):
        """One column of counts per member of ``vs``."""
        counts = np.asarray(counts, dtype=np.int64)
        sums = np.zeros(counts.shape, dtype=np.int64)
        for k, v in enumerate(vs):
            for g, c in enumerate(counts[:, k].tolist()):
                sums[g, k] = self.sample_geometric_block(u, int(v), c).sum()
        return sums


def stream_states(oracle) -> dict:
    """Where each pair stream of a live oracle stands, keyed by pair.

    Each pair owns its stream, so two oracles of one seed whose states are
    equal drew the same answers from every pair.
    """
    return {pair: rng.bit_generator.state
            for pair, rng in oracle._pair_rngs.items()}


def reference_distribution(model, slate) -> np.ndarray:
    """One slate's distribution, computed for that slate alone.

    An MNL normalises the slate's log weights with ``np.logaddexp``; a
    pseudo-MNL applies the highest-intersecting-pair rule directly. Neither
    goes through the models' batched ``slate_distributions``.
    """
    slate = np.asarray(slate, dtype=np.int64)
    if isinstance(model, sl.LogWeightMnl):
        lw = model.log_w[slate]
        return np.exp(lw - np.logaddexp.reduce(lw))
    pos = np.empty(model.n, dtype=np.int64)
    pos[model.pi] = np.arange(model.n)
    i = int(pos[slate].max() // 2)
    lo, hi = model.pi[2 * i], model.pi[2 * i + 1]
    probs = np.zeros(slate.size)
    if lo in slate and hi in slate:
        probs[slate == hi], probs[slate == lo] = model.p[i], 1.0 - model.p[i]
    else:
        probs[(slate == hi) | (slate == lo)] = 1.0
    return probs


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def mnl(*weights) -> sl.LogWeightMnl:
    """MNL from plain (not log) weights."""
    return sl.LogWeightMnl(np.log(np.asarray(weights, dtype=np.float64)))
