"""Sampling oracles with full query accounting and replay support.

Randomness is derived from a single 64-bit master seed through a documented
splittable scheme: the stream for pair {u, v} is seeded with
``SeedSequence((master_seed, PAIR_TAG, min(u, v), max(u, v)))`` and the stream
for larger slates with ``SeedSequence((master_seed, SLATE_TAG))``. Because
each pair owns its stream, the answers a pair produces depend only on how
many times that pair has been queried, never on the interleaving with other
pairs. This is what makes a live run and a replayed run agree bit for bit.

Oracles come in two pair-sampling modes:

``stream``
    every query consumes one uniform draw from the pair's stream. Win counts
    over k queries are computed from k individual draws, so they match a
    replay table built from the same seed exactly.

``binomial``
    win counts over k queries are drawn directly as Binomial(k, p) variates
    and geometric waiting times as Geometric(p) variates. Distributionally
    identical and O(1) per call regardless of k, which is what makes the
    adaptive pipeline's very large per-call sample sizes affordable. Not
    replay-compatible.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometricCapExceeded, ReplayBudgetExhausted
from .models import Model, pair_probability

PAIR_TAG = 0x70AB
SLATE_TAG = 0x51A7
GEOMETRIC_CAP = 10**9
# Largest count passed to one Generator.binomial call, which takes a C long.
BINOMIAL_CHUNK = 1 << 62


@dataclass
class QueryLedger:
    """Counts oracle queries in total, per unordered pair, and per slate size."""

    total: int = 0
    per_pair: dict = field(default_factory=dict)
    per_size: dict = field(default_factory=dict)

    def record_pair(self, u: int, v: int, count: int = 1) -> None:
        key = (u, v) if u < v else (v, u)
        self.per_pair[key] = self.per_pair.get(key, 0) + count
        self.per_size[2] = self.per_size.get(2, 0) + count
        self.total += count

    def record_slate(self, size: int, count: int = 1) -> None:
        if size == 2:
            raise ValueError("size-2 queries must go through record_pair")
        self.per_size[size] = self.per_size.get(size, 0) + count
        self.total += count

    @property
    def max_per_pair(self) -> int:
        return max(self.per_pair.values(), default=0)


def pair_streams_seed(master_seed: int, u: int, v: int) -> np.random.SeedSequence:
    a, b = (u, v) if u < v else (v, u)
    return np.random.SeedSequence((master_seed, PAIR_TAG, a, b))


class LiveOracle:
    """Answers slate queries by sampling from a model's exact distributions."""

    def __init__(self, model: Model, seed: int, pair_mode: str = "binomial",
                 transcript: bool = False):
        if pair_mode not in ("stream", "binomial"):
            raise ValueError("pair_mode must be 'stream' or 'binomial'")
        if transcript and pair_mode != "stream":
            raise ValueError("transcripts require stream mode (individual answers)")
        self.model = model
        self.seed = seed
        self.pair_mode = pair_mode
        self.ledger = QueryLedger()
        self.transcript = [] if transcript else None
        self._pair_rngs: dict = {}
        self._slate_rng = np.random.default_rng(
            np.random.SeedSequence((seed, SLATE_TAG)))

    @property
    def n(self) -> int:
        return self.model.n

    def _pair_rng(self, u: int, v: int) -> np.random.Generator:
        key = (u, v) if u < v else (v, u)
        rng = self._pair_rngs.get(key)
        if rng is None:
            rng = np.random.default_rng(pair_streams_seed(self.seed, u, v))
            self._pair_rngs[key] = rng
        return rng

    def max_sample(self, slate) -> int:
        """One query; returns the winning item."""
        slate = np.asarray(slate, dtype=np.int64)
        if slate.size == 2:
            return self.sample_pair(int(slate[0]), int(slate[1]))
        probs = self.model.slate_distribution(slate)
        x = self._slate_rng.random()
        winner = int(slate[np.searchsorted(np.cumsum(probs), x)])
        self.ledger.record_slate(slate.size)
        return winner

    def slate_win_counts(self, slate, count: int) -> np.ndarray:
        """Winner tallies over ``count`` queries to a slate of size >= 3."""
        slate = np.asarray(slate, dtype=np.int64)
        if slate.size < 3:
            raise ValueError("use pair_win_count for slates of size 2")
        probs = self.model.slate_distribution(slate)
        counts = self._slate_rng.multinomial(count, probs)
        self.ledger.record_slate(slate.size, count)
        return counts

    def _stream_winners(self, u: int, v: int, count: int) -> np.ndarray:
        """Draw winners from the pair stream in canonical orientation.

        Uniform draws are always compared against the lower-indexed item's
        win probability, so the winner sequence a stream produces is
        independent of the order the caller names the pair in. Replay
        correctness depends on this.
        """
        a, b = (u, v) if u < v else (v, u)
        p_a = pair_probability(self.model, a, b)
        first = self._pair_rng(a, b).random(count) < p_a
        winners = np.where(first, a, b).astype(np.int64)
        if self.transcript is not None:
            self.transcript.extend((a, b, int(w)) for w in winners)
        return winners

    def sample_pair(self, u: int, v: int) -> int:
        winner = int(self._stream_winners(u, v, 1)[0])
        self.ledger.record_pair(u, v)
        return winner

    def sample_pair_block(self, u: int, v: int, count: int) -> np.ndarray:
        """``count`` queries to {u, v} at once; returns the winner sequence."""
        winners = self._stream_winners(u, v, count)
        self.ledger.record_pair(u, v, count)
        return winners

    def pair_win_count(self, u: int, v: int, count: int) -> int:
        """How many of ``count`` queries to {u, v} return u."""
        if self.pair_mode == "binomial":
            p_u = pair_probability(self.model, u, v)
            rng, wins = self._pair_rng(u, v), 0
            # Binomial(a + b, p) = Binomial(a, p) + Binomial(b, p); a count
            # up to BINOMIAL_CHUNK takes one draw, and count 0 draws nothing
            for lo in range(0, max(count, 1), BINOMIAL_CHUNK):
                wins += int(rng.binomial(min(count - lo, BINOMIAL_CHUNK), p_u))
        else:
            wins = int(np.count_nonzero(self._stream_winners(u, v, count) == u))
        self.ledger.record_pair(u, v, count)
        return wins

    def sample_geometric(self, u: int, v: int) -> int:
        """Losses of u before its first win on {u, v}; charges losses + 1 queries."""
        p_u = pair_probability(self.model, u, v)
        if self.pair_mode == "binomial":
            if p_u <= 0.0:
                self.ledger.record_pair(u, v, GEOMETRIC_CAP)
                raise GeometricCapExceeded(
                    "item {} can never win against {}".format(u, v))
            draws = int(self._pair_rng(u, v).geometric(p_u))
            if draws > GEOMETRIC_CAP:
                self.ledger.record_pair(u, v, GEOMETRIC_CAP)
                raise GeometricCapExceeded(
                    "geometric wait for pair ({}, {}) exceeded cap".format(u, v))
            self.ledger.record_pair(u, v, draws)
            return draws - 1
        losses = 0
        while self.sample_pair(u, v) != u:
            losses += 1
            if losses >= GEOMETRIC_CAP:
                raise GeometricCapExceeded(
                    "geometric wait for pair ({}, {}) exceeded cap".format(u, v))
        return losses

    def sample_geometric_block(self, u: int, v: int, count: int) -> np.ndarray:
        """``count`` independent geometric waits; returns the loss counts."""
        if self.pair_mode == "binomial":
            p_u = pair_probability(self.model, u, v)
            if p_u <= 0.0:
                self.ledger.record_pair(u, v, GEOMETRIC_CAP)
                raise GeometricCapExceeded(
                    "item {} can never win against {}".format(u, v))
            draws = self._pair_rng(u, v).geometric(p_u, size=count)
            if np.any(draws > GEOMETRIC_CAP):
                self.ledger.record_pair(u, v, GEOMETRIC_CAP)
                raise GeometricCapExceeded(
                    "geometric wait for pair ({}, {}) exceeded cap".format(u, v))
            self.ledger.record_pair(u, v, int(draws.sum()))
            return (draws - 1).astype(np.int64)
        return np.array([self.sample_geometric(u, v) for _ in range(count)],
                        dtype=np.int64)


@dataclass
class ReplayTable:
    """Pre-sampled per-pair answers for simulating a pair-only learner."""

    m: int
    answers: dict  # (u, v) with u < v -> int64 array of winners, length m
    cursors: dict  # same keys -> next unread position


def build_replay_table(oracle: LiveOracle, m: int) -> ReplayTable:
    """Query every pair m times in one non-adaptive batch."""
    if m < 1:
        raise ValueError("m must be >= 1")
    n = oracle.n
    answers = {}
    for u in range(n):
        for v in range(u + 1, n):
            answers[(u, v)] = oracle.sample_pair_block(u, v, m)
    return ReplayTable(m=m, answers=answers, cursors={k: 0 for k in answers})


def replay_sample(table: ReplayTable, pair) -> int:
    """Next pre-sampled winner for ``pair``; issues zero live queries."""
    u, v = pair
    key = (u, v) if u < v else (v, u)
    cur = table.cursors[key]
    if cur >= table.m:
        raise ReplayBudgetExhausted(key, table.m)
    table.cursors[key] = cur + 1
    return int(table.answers[key][cur])


class ReplayOracle:
    """Oracle facade over a :class:`ReplayTable`; answers only pair queries.

    Its ledger counts *simulated* queries; no live oracle is touched.
    """

    def __init__(self, table: ReplayTable, n: int):
        self.table = table
        self.n = n
        self.ledger = QueryLedger()
        self._win_pos: dict = {}

    def _wins_of(self, key, u: int) -> np.ndarray:
        """Positions in the pair's answer array where u wins (cached)."""
        wins = self._win_pos.get((key, u))
        if wins is None:
            wins = np.flatnonzero(self.table.answers[key] == u)
            self._win_pos[(key, u)] = wins
        return wins

    def max_sample(self, slate) -> int:
        slate = np.asarray(slate, dtype=np.int64)
        if slate.size != 2:
            raise ValueError("a replay oracle can only answer pair queries")
        return self.sample_pair(int(slate[0]), int(slate[1]))

    def sample_pair(self, u: int, v: int) -> int:
        winner = replay_sample(self.table, (u, v))
        self.ledger.record_pair(u, v)
        return winner

    def _take(self, u: int, v: int, count: int) -> np.ndarray:
        key = (u, v) if u < v else (v, u)
        cur = self.table.cursors[key]
        if cur + count > self.table.m:
            raise ReplayBudgetExhausted(key, self.table.m)
        self.table.cursors[key] = cur + count
        self.ledger.record_pair(u, v, count)
        return self.table.answers[key][cur:cur + count]

    def sample_pair_block(self, u: int, v: int, count: int) -> np.ndarray:
        return self._take(u, v, count)

    def pair_win_count(self, u: int, v: int, count: int) -> int:
        return int(np.count_nonzero(self._take(u, v, count) == u))

    def sample_geometric(self, u: int, v: int) -> int:
        return int(self.sample_geometric_block(u, v, 1)[0])

    def sample_geometric_block(self, u: int, v: int, count: int) -> np.ndarray:
        key = (u, v) if u < v else (v, u)
        cur = self.table.cursors[key]
        wins = self._wins_of(key, u)
        lo = int(np.searchsorted(wins, cur))
        if lo + count > wins.size:
            raise ReplayBudgetExhausted(key, self.table.m)
        pos = wins[lo:lo + count]
        prev = np.concatenate(([cur - 1], pos[:-1]))
        losses = (pos - prev - 1).astype(np.int64)
        consumed = int(pos[-1]) + 1 - cur
        self.table.cursors[key] = int(pos[-1]) + 1
        self.ledger.record_pair(u, v, consumed)
        return losses


TRANSCRIPT_MAGIC = b"SLTR"
TRANSCRIPT_VERSION = 1


def write_transcript(path, records) -> None:
    """Dump pair-query records as little-endian u32 (u, v, winner) triples."""
    with open(path, "wb") as fh:
        fh.write(TRANSCRIPT_MAGIC)
        fh.write(struct.pack("<II", TRANSCRIPT_VERSION, len(records)))
        for u, v, w in records:
            fh.write(struct.pack("<III", u, v, w))


def read_transcript(path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != TRANSCRIPT_MAGIC:
            raise ValueError("not a transcript file")
        version, count = struct.unpack("<II", fh.read(8))
        if version != TRANSCRIPT_VERSION:
            raise ValueError("unsupported transcript version {}".format(version))
        return [struct.unpack("<III", fh.read(12)) for _ in range(count)]
