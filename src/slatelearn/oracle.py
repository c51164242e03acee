"""Sampling oracles with full query accounting and replay support.

Randomness is derived from a single 64-bit master seed through a documented
splittable scheme: the stream for pair {u, v} is seeded with
``SeedSequence((master_seed, PAIR_TAG, min(u, v), max(u, v)))``, the stream
for larger slates with ``SeedSequence((master_seed, SLATE_TAG))`` and the
binomial-mode stream with ``SeedSequence((master_seed, BINOMIAL_TAG))``.

Oracles come in two pair-sampling modes:

``stream``
    every query consumes one uniform draw from the pair's own stream. Win
    counts over k queries are computed from k individual draws. Because
    each pair owns its stream, the answers a pair produces depend only on
    how many times that pair has been queried, never on the interleaving
    with other pairs. A :class:`ReplayOracle` is this mode with its answers
    drawn in advance: it runs the same stream-mode code and only reads each
    pair's answers from a table, so a live run and a replayed run agree bit
    for bit.

``binomial``
    win counts over k queries are drawn directly as Binomial(k, p) variates
    and geometric waiting times as Geometric(p) variates. The loss total of
    k waits, all a balanced ratio estimate needs, is one NegativeBinomial(k,
    p) draw (the number of losses before the k-th win); the ledger charges
    that total plus k. Distributionally identical and O(1) per call
    regardless of k, which is what makes the adaptive pipeline's very large
    per-call sample sizes affordable. Every binomial-mode draw reads the one
    tagged stream in call order, so a run never builds a Generator per pair,
    and :meth:`LiveOracle.pair_win_count` answers an array of pairs with one
    vector draw. Not replay-compatible.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (GeometricCapExceeded, ReplayBudgetExhausted,
                     ReplayTableTooLarge, SampleDemandTooLarge,
                     StreamDemandTooLarge)
from .models import Model, pair_probabilities, pair_probability

PAIR_TAG = 0x70AB
SLATE_TAG = 0x51A7
BINOMIAL_TAG = 0xB1A0
GEOMETRIC_CAP = 10**9
# Largest count passed to one Generator.binomial call, which takes a C long.
BINOMIAL_CHUNK = 1 << 62
# Stream mode draws a pair's uniforms in chunks of STREAM_CHUNK (8 MiB of
# doubles) and refuses one call asking for more than STREAM_MAX_DRAWS: the
# balanced and non-adaptive learners ask for up to about 2.7e8 at eps 0.02
# and n = 4096, and a block of 2^30 winners is already 8 GiB.
STREAM_CHUNK = 1 << 20
STREAM_MAX_DRAWS = 1 << 30
# build_replay_table refuses a table of more answers than this, 8 GiB of
# int64 winners for the same reason (non-adaptive eps 0.5, n 14, m 5e5 holds
# 4.6e7).
REPLAY_MAX_ANSWERS = 1 << 30
# One Generator.negative_binomial draw takes its n as a double and refuses a
# mean n (1 - p) / p above about 9.2e18: pieces of at most NB_CHUNK waits
# with a mean of at most NB_MEAN_MAX keep n exact and every draw legal.
NB_CHUNK = 1 << 53
NB_MEAN_MAX = 1 << 62
# Above this exponent, P(one wait > GEOMETRIC_CAP) = (1 - p)^GEOMETRIC_CAP is
# below the smallest double, so the per-wait cap check can never fire.
NEGLIGIBLE_LOG = 745.0
INT64_MAX = (1 << 63) - 1


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

    def record_pairs(self, us, vs, count: int = 1) -> None:
        """``record_pair(us[i], vs[i], count)`` for every i, in order."""
        lo = np.ravel(np.minimum(us, vs)).tolist()
        hi = np.ravel(np.maximum(us, vs)).tolist()
        if len(lo) == 0:
            return
        per_pair, get = self.per_pair, self.per_pair.get
        for key in zip(lo, hi):
            per_pair[key] = get(key, 0) + count
        self.per_size[2] = self.per_size.get(2, 0) + count * len(lo)
        self.total += count * len(lo)

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
        self._binomial_rng = np.random.default_rng(
            np.random.SeedSequence((seed, BINOMIAL_TAG)))

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

    def _stream_winners(self, u: int, v: int, count: int):
        """Yield ``count`` winners from the pair stream, one chunk at a time.

        Uniform draws are always compared against the lower-indexed item's
        win probability, so the winner sequence a stream produces is
        independent of the order the caller names the pair in. Replay
        correctness depends on this. Chunked draws give the same doubles as
        one ``random(count)``. A count above STREAM_MAX_DRAWS raises before
        anything is drawn.
        """
        a, b = (u, v) if u < v else (v, u)
        if count > STREAM_MAX_DRAWS:
            raise StreamDemandTooLarge((a, b), count, STREAM_MAX_DRAWS)
        p_a = pair_probability(self.model, a, b)
        rng = self._pair_rng(a, b)
        for lo in range(0, max(count, 1), STREAM_CHUNK):
            first = rng.random(min(count - lo, STREAM_CHUNK)) < p_a
            winners = np.where(first, a, b)
            if self.transcript is not None:
                self.transcript.extend((a, b, int(w)) for w in winners)
            yield winners

    def sample_pair(self, u: int, v: int) -> int:
        return int(self.sample_pair_block(u, v, 1)[0])

    def sample_pair_block(self, u: int, v: int, count: int) -> np.ndarray:
        """``count`` queries to {u, v} at once; returns the winner sequence."""
        winners = np.concatenate(list(self._stream_winners(u, v, count)),
                                 dtype=np.int64)
        self.ledger.record_pair(u, v, count)
        return winners

    def pair_win_count(self, u, v, count: int):
        """How many of ``count`` queries to {u, v} return u.

        When ``u`` or ``v`` is a numpy array they broadcast against each
        other and the answer is a flat array, one count per pair in order.
        Binomial mode draws all those pairs at once, one vector draw per
        BINOMIAL_CHUNK piece of ``count``, and returns int64 counts, or
        exact Python ints when ``count`` takes more than one piece. Stream
        mode answers them with one scalar call per pair, so its answers,
        ledger and transcript are those of the scalar calls in order.
        """
        if isinstance(u, np.ndarray) or isinstance(v, np.ndarray):
            if self.pair_mode != "binomial":
                return _loop_win_counts(self, u, v, count)
            return self._binomial_win_counts(u, v, count)
        if self.pair_mode == "binomial":
            p_u = pair_probability(self.model, u, v)
            # Binomial(a + b, p) = Binomial(a, p) + Binomial(b, p); a count
            # up to BINOMIAL_CHUNK takes one draw, and count 0 draws nothing
            wins = sum(int(self._binomial_rng.binomial(piece, p_u))
                       for piece in _binomial_pieces(count))
        else:
            wins = sum(int(np.count_nonzero(w == u))
                       for w in self._stream_winners(u, v, count))
        self.ledger.record_pair(u, v, count)
        return wins

    def _binomial_win_counts(self, us, vs, count: int) -> np.ndarray:
        """The array form of :meth:`pair_win_count` in binomial mode."""
        p = np.ravel(pair_probabilities(self.model, us, vs))
        pieces = [self._binomial_rng.binomial(piece, p)
                  for piece in _binomial_pieces(count)]
        self.ledger.record_pairs(us, vs, count)
        if len(pieces) == 1:
            return pieces[0]
        return sum(piece.astype(object) for piece in pieces)

    def sample_geometric(self, u: int, v: int) -> int:
        """Losses of u before its first win on {u, v}; charges losses + 1 queries."""
        return int(self.sample_geometric_block(u, v, 1)[0])

    def sample_geometric_block(self, u: int, v: int, count: int) -> np.ndarray:
        """``count`` independent geometric waits; returns the loss counts."""
        if self.pair_mode == "stream":
            return self._stream_waits(u, v, count)
        p_u = pair_probability(self.model, u, v)
        if p_u <= 0.0:
            self.ledger.record_pair(u, v, GEOMETRIC_CAP)
            raise GeometricCapExceeded(
                "item {} can never win against {}".format(u, v))
        draws = self._binomial_rng.geometric(p_u, size=count)
        if np.any(draws > GEOMETRIC_CAP):
            self.ledger.record_pair(u, v, GEOMETRIC_CAP)
            raise GeometricCapExceeded(
                "geometric wait for pair ({}, {}) exceeded cap".format(u, v))
        self.ledger.record_pair(u, v, int(draws.sum()))
        return (draws - 1).astype(np.int64)

    def _stream_waits(self, u: int, v: int, count: int) -> np.ndarray:
        """``count`` geometric waits of u read off the pair's stream.

        Each round draws winners that one query at a time would draw too:
        every wait left needs a query, and wait k raises at its
        (GEOMETRIC_CAP - losses[k])-th loss at the latest. So the stream,
        ledger, transcript and the query that raises match a per-query loop.
        The ledger is charged once, on return or when the cap fires, so a
        replay that runs out of answers partway charges nothing.
        """
        losses = np.zeros(count, dtype=np.int64)
        k = used = 0
        while k < count:
            r = min(count - k, STREAM_CHUNK, GEOMETRIC_CAP - int(losses[k]))
            wins = np.flatnonzero(next(self._stream_winners(u, v, r)) == u)
            used += r
            if wins.size == 0:
                losses[k] += r
                if losses[k] >= GEOMETRIC_CAP:
                    self.ledger.record_pair(u, v, used)
                    raise GeometricCapExceeded(
                        "geometric wait for pair ({}, {}) exceeded cap"
                        .format(u, v))
                continue
            losses[k] += wins[0]
            losses[k + 1:k + wins.size] = np.diff(wins) - 1
            k += wins.size
            if k < count:
                losses[k] = r - 1 - wins[-1]
        if used:
            self.ledger.record_pair(u, v, used)
        return losses

    def sample_geometric_sums(self, u: int, v: int, counts) -> np.ndarray:
        """Loss totals of consecutive runs of ``counts[k]`` geometric waits.

        Entry k is the total loss count of the next ``counts[k]`` waits of u
        against v; the ledger charges those losses plus the waits, and a
        count of 0 draws nothing. Stream mode sums segments of
        ``sample_geometric_block(u, v, sum(counts))``, so its draws, ledger
        and transcript are the block's. Binomial mode draws each total as
        NegativeBinomial(counts[k], p_u) in O(len(counts)) time and memory,
        except where p_u is so small that one wait could pass GEOMETRIC_CAP:
        there it sums the per-wait block, cap check included.
        """
        counts = np.asarray(counts, dtype=np.int64)
        if not counts.any():
            return np.zeros(counts.size, dtype=np.int64)
        stream = self.pair_mode == "stream"   # a replay has no model to read
        if (stream or (p_u := pair_probability(self.model, u, v)) <= 0.0
                or GEOMETRIC_CAP * -math.log1p(-p_u) <= NEGLIGIBLE_LOG):
            waits = self._stream_waits if stream else self.sample_geometric_block
            losses = waits(u, v, int(counts.sum()))
            prefix = np.concatenate(([0], np.cumsum(losses)))
            return np.diff(prefix[np.cumsum(counts)], prepend=0)
        # NB(a + b, p) = NB(a, p) + NB(b, p): a count is whole pieces of
        # `chunk` waits plus a remainder, one draw each; 0 draws nothing
        chunk = NB_CHUNK if p_u == 1.0 else min(
            NB_CHUNK, int(NB_MEAN_MAX * p_u / (1.0 - p_u)))
        pieces, rest = np.divmod(counts, chunk)
        rng = self._binomial_rng
        totals = np.zeros(counts.size, dtype=object)   # exact Python ints
        some = np.flatnonzero(rest)
        totals[some] = rng.negative_binomial(rest[some], p_u).tolist()
        np.add.at(totals, np.repeat(np.arange(counts.size), pieces),
                  rng.negative_binomial(chunk, p_u, int(pieces.sum())).tolist())
        self.ledger.record_pair(u, v, int(totals.sum()) + int(counts.sum()))
        if totals.max() > INT64_MAX:
            raise SampleDemandTooLarge(
                "the loss total of pair ({}, {})".format(u, v), totals.max(),
                INT64_MAX)
        return totals.astype(np.int64)


def _binomial_pieces(count: int) -> list:
    """``count`` split into pieces of at most BINOMIAL_CHUNK; [0] for 0."""
    return [min(count - lo, BINOMIAL_CHUNK)
            for lo in range(0, max(count, 1), BINOMIAL_CHUNK)]


def _loop_win_counts(oracle, us, vs, count: int) -> np.ndarray:
    """``oracle.pair_win_count`` over the broadcast pairs in order, as one array."""
    us, vs = np.broadcast_arrays(np.asarray(us, dtype=np.int64),
                                 np.asarray(vs, dtype=np.int64))
    return np.array([oracle.pair_win_count(u, v, count)
                     for u, v in zip(us.ravel().tolist(), vs.ravel().tolist())],
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
    pairs = n * (n - 1) // 2
    if pairs * m > REPLAY_MAX_ANSWERS:
        raise ReplayTableTooLarge(pairs, m, REPLAY_MAX_ANSWERS)
    answers = {}
    for u in range(n):
        for v in range(u + 1, n):
            answers[(u, v)] = oracle.sample_pair_block(u, v, m)
    return ReplayTable(m=m, answers=answers, cursors={k: 0 for k in answers})


class ReplayOracle:
    """A stream-mode oracle whose answers were drawn in advance into a table.

    It answers only pair queries, reading each pair's answers from the
    :class:`ReplayTable` where a live stream would draw them; every other
    step is :class:`LiveOracle`'s own stream-mode code. Its ledger counts
    *simulated* queries; no live oracle is touched.
    """

    pair_mode = "stream"

    def __init__(self, table: ReplayTable, n: int):
        self.table = table
        self.n = n
        self.ledger = QueryLedger()

    def _stream_winners(self, u: int, v: int, count: int):
        """Yield the pair's next ``count`` answers; the cursor moves past them.

        Raises ``ReplayBudgetExhausted`` before the cursor moves when fewer
        are left.
        """
        key = (u, v) if u < v else (v, u)
        cur = self.table.cursors[key]
        if cur + count > self.table.m:
            raise ReplayBudgetExhausted(key, self.table.m)
        self.table.cursors[key] = cur + count
        yield self.table.answers[key][cur:cur + count]

    def max_sample(self, slate) -> int:
        slate = np.asarray(slate, dtype=np.int64)
        if slate.size != 2:
            raise ValueError("a replay oracle can only answer pair queries")
        return self.sample_pair(int(slate[0]), int(slate[1]))

    def sample_geometric_block(self, u: int, v: int, count: int) -> np.ndarray:
        return self.sample_geometric_sums(u, v, np.ones(count, dtype=np.int64))

    def sample_geometric_sums(self, u: int, v: int, counts) -> np.ndarray:
        """As :meth:`LiveOracle.sample_geometric_sums` in stream mode.

        Raises ``ReplayBudgetExhausted`` without moving the cursor or the
        ledger when the table runs out partway through the waits.
        """
        key = (u, v) if u < v else (v, u)
        cur = self.table.cursors[key]
        try:
            return LiveOracle.sample_geometric_sums(self, u, v, counts)
        except ReplayBudgetExhausted:
            self.table.cursors[key] = cur
            raise

    # Assigned, not inherited: perfbench's tracer wraps each class's own
    # methods, so every method a replay answers with is in its class body.
    sample_pair = LiveOracle.sample_pair
    sample_pair_block = LiveOracle.sample_pair_block
    pair_win_count = LiveOracle.pair_win_count
    sample_geometric = LiveOracle.sample_geometric
    _stream_waits = LiveOracle._stream_waits


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
