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
    with other pairs. An answer is carried as one boolean, True where the
    lower-indexed item of the pair won; only :meth:`LiveOracle.sample_pair_block`
    turns answers into winner ids. A :class:`ReplayOracle` is this mode with
    its answers paid for in advance: it runs the same stream-mode code on its
    own copy of each pair stream, so a live run and a replayed run agree bit
    for bit. A :class:`ReplayTable` charges the live ledger the whole batch,
    m answers per pair, when it is built, and keeps only where each pair
    stream stood before the batch, no answers. A replay restores a pair's
    stream from there on its first read of the pair, moved on past the
    answers its own ledger counts, so the table serves any number of
    replays, each drawing the same answers.

``binomial``
    win counts over k queries are drawn directly as Binomial(k, p) variates
    and geometric waiting times as Geometric(p) variates. The loss total of
    k waits, all a balanced ratio estimate needs, is one NegativeBinomial(k,
    p) draw (the number of losses before the k-th win); the ledger charges
    that total plus k. Distributionally identical and O(1) per call
    regardless of k, which is what makes the adaptive pipeline's very large
    per-call sample sizes affordable. Every binomial-mode draw reads the one
    tagged stream in call order, so a run never builds a Generator per pair.
    Array calls read it as the scalar calls would, one pair or member after
    another: :meth:`LiveOracle.pair_win_count` answers a small array of
    pairs with one scalar draw each and a larger one with one vector draw,
    and can stop at the first pair whose count reaches a threshold;
    :meth:`LiveOracle.sample_geometric_sums` draws a whole balanced
    estimate, one column of counts per member, with a few vector draws.
    Not replay-compatible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DemandTooLarge, GeometricCapExceeded, ReplayBudgetExhausted
from .models import (Model, _check_slate, _pair_probabilities,
                     pair_probability)

PAIR_TAG = 0x70AB
SLATE_TAG = 0x51A7
BINOMIAL_TAG = 0xB1A0
GEOMETRIC_CAP = 10**9
# Largest count passed to one Generator.binomial call, which takes a C long.
# A count is drawn as pieces of at most this, and one of more than 2^16
# pieces is refused: adaptive eps 1e-9 asks about 7.6e27 queries of one
# pair, which would be 1.6e9 pieces.
BINOMIAL_CHUNK = 1 << 62
BINOMIAL_MAX_COUNT = BINOMIAL_CHUNK << 16
# Most pairs one array pair query draws with a scalar binomial draw each:
# numpy's vector draw gives the same values, but its set-up costs more than
# this many scalar draws.
SCALAR_PAIRS = 16
# Stream mode draws a pair's uniforms in chunks of STREAM_CHUNK (8 MiB of
# doubles) and refuses one call asking for more than STREAM_MAX_DRAWS, as
# sample_geometric_block refuses more waits in either mode: the
# balanced and non-adaptive learners ask for up to about 2.7e8 at eps 0.02
# and n = 4096, and a block of 2^30 int64 winners is already 8 GiB.
STREAM_CHUNK = 1 << 20
STREAM_MAX_DRAWS = 1 << 30
# build_replay_table refuses a batch of more answers than this. A replay
# keeps no answers, so the cap bounds the batch one build charges, and with
# it the pairs one build sets up at a given m (non-adaptive eps 0.5, n 14,
# m 5e5 pays for 4.6e7).
REPLAY_MAX_ANSWERS = 1 << 30
# One Generator.negative_binomial draw takes its n as a double and refuses a
# mean n (1 - p) / p above about 9.2e18: pieces of at most NB_CHUNK waits
# with a mean of at most NB_MEAN_MAX keep n exact and every draw legal.
NB_CHUNK = 1 << 53
NB_MEAN_MAX = 1 << 62
# Most counts one vector negative-binomial draw of sample_geometric_sums
# takes: its temporaries, about 25 bytes a count, stay at tens of KiB
# however large the count matrix it fills.
NB_SLICE = 1 << 10
# Above this exponent, P(one wait > GEOMETRIC_CAP) = (1 - p)^GEOMETRIC_CAP is
# below the smallest double, so the per-wait cap check can never fire.
NEGLIGIBLE_LOG = 745.0
INT64_MAX = (1 << 63) - 1


@dataclass
class QueryLedger:
    """Counts oracle queries in total, per unordered pair, and per slate size.

    A call that records 0 queries changes nothing, so ``per_pair`` holds
    only pairs that were queried.
    """

    total: int = 0
    per_pair: dict = field(default_factory=dict)
    per_size: dict = field(default_factory=dict)

    def record_pair(self, u: int, v: int, count: int = 1) -> None:
        if count == 0:
            return
        key = (u, v) if u < v else (v, u)
        self.per_pair[key] = self.per_pair.get(key, 0) + count
        self.per_size[2] = self.per_size.get(2, 0) + count
        self.total += count

    def record_pairs(self, us, vs, counts=1) -> None:
        """``record_pair(us[i], vs[i], counts[i])`` for every i, in order.

        ``counts`` is one count for every pair or a sequence of one count
        per pair; counts may be exact Python ints beyond int64.
        """
        if isinstance(vs, (int, np.integer)):
            us, vs = vs, us   # pairs are unordered: a scalar side goes first
        if isinstance(us, (int, np.integer)):
            # one partner, the shape of every array pair query: no numpy pass
            v = int(us)
            keys = [(u, v) if u < v else (v, u)
                    for u in np.asarray(vs).ravel().tolist()]
        else:
            keys = list(zip(np.ravel(np.minimum(us, vs)).tolist(),
                            np.ravel(np.maximum(us, vs)).tolist()))
        per_pair, get = self.per_pair, self.per_pair.get
        if np.isscalar(counts):
            if counts == 0:
                return
            for key in keys:
                per_pair[key] = get(key, 0) + counts
            total = counts * len(keys)
        else:
            counts = np.ravel(counts).tolist()
            if len(counts) != len(keys):
                raise ValueError("need one count per pair")
            total = 0
            for key, count in zip(keys, counts):
                if count:
                    per_pair[key] = get(key, 0) + count
                    total += count
        if total:
            self.per_size[2] = self.per_size.get(2, 0) + total
            self.total += total

    def record_slate(self, size: int, count: int = 1) -> None:
        if size == 2:
            raise ValueError("size-2 queries must go through record_pair")
        if count == 0:
            return
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

    def __init__(self, model: Model, seed: int, pair_mode: str = "binomial"):
        if pair_mode not in ("stream", "binomial"):
            raise ValueError("pair_mode must be 'stream' or 'binomial'")
        self.model = model
        self.n = model.n
        self.seed = seed
        self.pair_mode = pair_mode
        self.ledger = QueryLedger()
        self._pair_rngs: dict = {}
        self._slate_rng = np.random.default_rng(
            np.random.SeedSequence((seed, SLATE_TAG)))
        self._binomial_rng = np.random.default_rng(
            np.random.SeedSequence((seed, BINOMIAL_TAG)))

    def _pair_rng(self, u: int, v: int) -> np.random.Generator:
        key = (u, v) if u < v else (v, u)
        rng = self._pair_rngs.get(key)
        if rng is None:
            rng = np.random.default_rng(pair_streams_seed(self.seed, u, v))
            self._pair_rngs[key] = rng
        return rng

    def max_sample(self, slate) -> int:
        """One query; returns the winning item."""
        slate = _check_slate(slate, self.n)
        if slate.size == 2:
            return self.sample_pair(int(slate[0]), int(slate[1]))
        probs = self.model.slate_distribution(slate)
        x = self._slate_rng.random()
        winner = int(slate[np.searchsorted(np.cumsum(probs), x)])
        self.ledger.record_slate(slate.size)
        return winner

    def slate_win_counts(self, slate, count: int) -> np.ndarray:
        """Winner tallies over ``count`` queries to a slate of size >= 3."""
        slate = _check_slate(slate, self.n)
        if slate.size < 3:
            raise ValueError("use pair_win_count for slates of size 2")
        probs = self.model.slate_distribution(slate)
        counts = self._slate_rng.multinomial(count, probs)
        self.ledger.record_slate(slate.size, count)
        return counts

    def _stream_answers(self, u: int, v: int, count: int, used: int = 0):
        """Yield ``count`` answers from the pair stream, one chunk at a time.

        An answer is True where the lower-indexed item won. Uniform draws
        are always compared against that item's win probability, so the
        answers a stream produces are independent of the order the caller
        names the pair in. Replay correctness depends on this. Chunked draws
        give the same doubles as one ``random(count)``. A count above
        STREAM_MAX_DRAWS raises before anything is drawn. ``used`` counts
        the answers the calling method has read but not yet charged; the
        Generator already stands past them, so a live oracle ignores it.
        """
        a, b = (u, v) if u < v else (v, u)
        if count > STREAM_MAX_DRAWS:
            raise DemandTooLarge(
                "the stream draws of pair ({}, {}) in one call".format(a, b),
                count, STREAM_MAX_DRAWS,
                "use binomial mode; the calibrated budget and a larger eps "
                "apply only to the balanced and non-adaptive learners")
        yield from _answer_chunks(self._pair_rng(a, b),
                                  pair_probability(self.model, a, b), count)

    def sample_pair(self, u: int, v: int) -> int:
        return int(self.sample_pair_block(u, v, 1)[0])

    def sample_pair_block(self, u: int, v: int, count: int) -> np.ndarray:
        """``count`` queries to {u, v} at once; returns the winner sequence."""
        _check_pair(u, v, self.n)
        a, b = (u, v) if u < v else (v, u)
        first = np.concatenate(list(self._stream_answers(u, v, count)))
        self.ledger.record_pair(u, v, count)
        return np.where(first, a, b).astype(np.int64, copy=False)

    def pair_win_count(self, u, v, count: int, stop: int | None = None):
        """How many of ``count`` queries to {u, v} return u.

        When ``u`` or ``v`` is a numpy array they broadcast against each
        other and the answer is a flat array, one count per pair in order.
        With ``stop``, the pairs are answered in order up to and including
        the first whose count reaches ``stop``; the pairs after it are
        neither drawn nor charged, and the answer is the answered prefix.
        Every id must lie in [0, n) and differ from its partner, or the call
        raises ValueError and charges nothing.

        Binomial mode returns int64 counts, or exact Python ints when
        ``count`` takes more than one BINOMIAL_CHUNK piece, refuses a count
        above BINOMIAL_MAX_COUNT with ``DemandTooLarge`` before any pair is
        drawn or charged, and reads the stream as one scalar call per pair
        in order would. Up to SCALAR_PAIRS pairs are drawn one scalar draw
        each; more take one vector draw, which runs the same draw per
        element. With ``stop``, the pairs are drawn in windows that double
        from SCALAR_PAIRS; a vector window that holds a hit puts the stream
        back where it began and draws again only the pairs through the hit,
        which gives the same values. Stream mode answers the pairs with one
        scalar call per pair, so its answers, ledger and pair streams are
        those of the scalar calls in order.
        """
        if self.pair_mode == "binomial" and count > BINOMIAL_MAX_COUNT:
            raise DemandTooLarge("the queries of each pair in one call", count,
                                 BINOMIAL_MAX_COUNT, "use a larger eps")
        if isinstance(u, np.ndarray) or isinstance(v, np.ndarray):
            us, vs, size = _pair_ids(u, v)
            if self.pair_mode == "binomial" and count <= BINOMIAL_CHUNK:
                return self._binomial_win_counts(us, vs, size, count, stop)
            _check_ids(us, vs, self.n)   # each scalar call charges its pair
            wins: list = []
            for a, b in (pair for lo, hi in _windows(size, stop)
                         for pair in _window_pairs(us, vs, lo, hi)):
                wins.append(self.pair_win_count(a, b, count))
                if stop is not None and wins[-1] >= stop:
                    break
            return np.array(wins, dtype=np.int64 if count <= BINOMIAL_CHUNK
                            else object)
        _check_pair(u, v, self.n)
        if self.pair_mode == "binomial":
            p_u = pair_probability(self.model, u, v)
            if count <= BINOMIAL_CHUNK:
                wins = self._binomial_rng.binomial(count, p_u)
            else:   # Binomial(a + b, p) = Binomial(a, p) + Binomial(b, p)
                wins = sum(int(self._binomial_rng.binomial(
                    min(count - lo, BINOMIAL_CHUNK), p_u))
                    for lo in range(0, count, BINOMIAL_CHUNK))
        else:
            wins = sum(int(np.count_nonzero(first))
                       for first in self._stream_answers(u, v, count))
            if u > v:
                wins = count - wins
        self.ledger.record_pair(u, v, count)
        return wins

    def _binomial_win_counts(self, us, vs, size: int, count: int,
                             stop: int | None) -> np.ndarray:
        """The array form of :meth:`pair_win_count` in binomial mode.

        ``count`` is one BINOMIAL_CHUNK piece at most. Each window's ids are
        checked before it is drawn, and the ledger is charged for the
        answered pairs on return.
        """
        rng = self._binomial_rng
        parts: list = []
        for lo, hi in _windows(size, stop):
            if hi - lo <= SCALAR_PAIRS:
                drawn = np.array(self._draw_each(
                    _window_pairs(us, vs, lo, hi), count, stop), dtype=np.int64)
            else:
                window = _cut(us, lo, hi), _cut(vs, lo, hi)
                _check_ids(*window, self.n)
                p = _pair_probabilities(self.model, *window)
                if stop is None:
                    drawn = rng.binomial(count, p)
                else:
                    state = rng.bit_generator.state
                    drawn = rng.binomial(count, p)
                    hits = np.flatnonzero(drawn >= stop)
                    if hits.size:   # redraw only the pairs through the hit
                        rng.bit_generator.state = state
                        drawn = rng.binomial(count, p[:hits[0] + 1])
            parts.append(drawn)
            if stop is not None and drawn[-1] >= stop:
                break
        wins = (parts[0] if len(parts) == 1
                else np.concatenate(parts or [np.zeros(0, dtype=np.int64)]))
        if wins.size < size:
            us, vs = _cut(us, 0, wins.size), _cut(vs, 0, wins.size)
        self.ledger.record_pairs(us, vs, count)
        return wins

    def _draw_each(self, pairs, count: int, stop: int | None) -> list:
        """Win counts of ``pairs``, one scalar draw each, through the first hit."""
        rng, model, n = self._binomial_rng, self.model, self.n
        wins: list = []
        for a, b in pairs:
            _check_pair(a, b, n)
            wins.append(rng.binomial(count, pair_probability(model, a, b)))
            if stop is not None and wins[-1] >= stop:
                break
        return wins

    def sample_geometric(self, u: int, v: int) -> int:
        """Losses of u before its first win on {u, v}; charges losses + 1 queries."""
        return int(self.sample_geometric_block(u, v, 1)[0])

    def sample_geometric_block(self, u: int, v: int, count: int) -> np.ndarray:
        """``count`` independent geometric waits; returns the loss counts.

        Every per-wait draw passes here, in both modes: a count above
        STREAM_MAX_DRAWS, whose block of int64 losses alone would pass
        8 GiB, raises ``DemandTooLarge`` before anything is drawn.
        """
        _check_pair(u, v, self.n)
        if count > STREAM_MAX_DRAWS:
            raise DemandTooLarge(
                "the waits of pair ({}, {}) in one call".format(u, v), count,
                STREAM_MAX_DRAWS, "use the calibrated budget or a larger eps")
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
        ledger and the query that raises match a per-query loop.
        The ledger is charged once, on return or when the cap fires, so a
        replay that runs out of answers partway charges nothing.
        """
        losses = np.zeros(count, dtype=np.int64)
        k = used = 0
        while k < count:
            r = min(count - k, STREAM_CHUNK, GEOMETRIC_CAP - int(losses[k]))
            first = next(self._stream_answers(u, v, r, used))
            wins = np.flatnonzero(first if u < v else ~first)
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
        self.ledger.record_pair(u, v, used)
        return losses

    def sample_geometric_sums(self, u: int, vs, counts) -> np.ndarray:
        """Loss totals of runs of geometric waits of u against each of ``vs``.

        ``counts`` is an M x len(vs) matrix with one column per member:
        entry [g, k] is the total loss count of the next ``counts[g, k]``
        waits of u against ``vs[k]``. The ledger charges each member those
        losses plus its waits, and a count of 0 draws nothing. A scalar
        ``vs`` with a vector ``counts`` is the one-column view and returns
        a vector. Every member must be an item of ``range(n)`` other than
        u, or the call raises ValueError before it charges anything.

        The members are served in order, each column in row order, so the
        draws, the ledger and the point where an error stops the call are
        those of one call per member. Stream mode sums segments of each
        member's :meth:`sample_geometric_block`. Binomial mode reads every
        p_u with one ``pair_probabilities`` call and draws each total as one
        NegativeBinomial(count, p_u), a run of members at a time in vector
        draws of at most NB_SLICE counts: O(M len(vs)) time and memory
        whatever the counts. A member is served on its own, at its place,
        where p_u < 1 is so small that one wait could pass GEOMETRIC_CAP (it
        sums the per-wait block, cap check included), or where a count needs
        NB_CHUNK pieces.
        """
        counts = np.asarray(counts, dtype=np.int64)
        if np.ndim(vs) == 0:
            return self.sample_geometric_sums(
                u, np.array([vs]), counts[:, None])[:, 0]
        vs = np.asarray(vs)
        _check_ids(u, vs, self.n)   # before the first member is charged
        u, vs = int(u), vs.astype(np.int64, copy=False)
        sums = np.zeros(counts.shape, dtype=np.int64)
        busy = counts.any(axis=0)
        if self.pair_mode == "stream":   # stream mode draws every wait
            for k in np.flatnonzero(busy).tolist():
                sums[:, k] = _segment_sums(self.sample_geometric_block(
                    u, int(vs[k]), int(counts[:, k].sum())), counts[:, k])
            return sums
        p = np.ones(vs.size)   # a column of zeros keeps p = 1 and draws nothing
        p[busy] = _pair_probabilities(self.model, u, vs[busy])
        # -log1p(-p) >= p, so only a small p can take the per-wait block;
        # p <= 0 takes it too, where the cap check raises
        per_wait = p * GEOMETRIC_CAP <= 2.0 * NEGLIGIBLE_LOG
        for k in np.flatnonzero(per_wait).tolist():
            per_wait[k] = (p[k] < 1.0 and GEOMETRIC_CAP * -math.log1p(-p[k])
                           <= NEGLIGIBLE_LOG)
        with np.errstate(divide="ignore"):   # p == 1 takes NB_CHUNK
            chunk = np.minimum(NB_CHUNK, np.floor(NB_MEAN_MAX * p / (1.0 - p)))
        alone = per_wait | (counts.max(axis=0, initial=0) >= chunk)
        lo = 0
        for k in np.flatnonzero(alone).tolist() + [vs.size]:
            self._nb_sums(u, vs[lo:k], counts[:, lo:k], p[lo:k], sums[:, lo:k])
            if k < vs.size:
                v, col = int(vs[k]), counts[:, k]
                sums[:, k] = (_segment_sums(
                    self.sample_geometric_block(u, v, int(col.sum())), col)
                    if per_wait[k] else
                    self._nb_piece_sums(u, v, col, float(p[k]), int(chunk[k])))
            lo = k + 1
        return sums

    def _nb_sums(self, u: int, vs, counts, p, out) -> None:
        """Draw every nonzero count of ``counts`` into ``out`` and charge it.

        One NegativeBinomial(count, p[k]) draw per count, member-major, in
        vector draws of at most NB_SLICE counts.
        """
        width = max(1, NB_SLICE // max(counts.shape[0], 1))
        for lo in range(0, vs.size, width):
            block = counts[:, lo:lo + width].T
            nonzero = block != 0
            draws = self._binomial_rng.negative_binomial(
                block[nonzero],
                np.repeat(p[lo:lo + width], np.count_nonzero(nonzero, axis=1)))
            out[:, lo:lo + width].T[nonzero] = draws
        self.ledger.record_pairs(u, vs, [
            a + b for a, b in zip(_column_totals(out), _column_totals(counts))])

    def _nb_piece_sums(self, u: int, v: int, counts, p_u: float,
                       chunk: int) -> np.ndarray:
        """One member's loss totals where a count needs ``chunk`` pieces.

        NB(a + b, p) = NB(a, p) + NB(b, p): a count is whole pieces of
        ``chunk`` waits plus a remainder, one draw each; 0 draws nothing.
        """
        pieces, rest = np.divmod(counts, chunk)
        rng = self._binomial_rng
        totals = np.zeros(counts.size, dtype=object)   # exact Python ints
        some = np.flatnonzero(rest)
        totals[some] = rng.negative_binomial(rest[some], p_u).tolist()
        np.add.at(totals, np.repeat(np.arange(counts.size), pieces),
                  rng.negative_binomial(chunk, p_u, int(pieces.sum())).tolist())
        self.ledger.record_pair(u, v, int(totals.sum()) + sum(counts.tolist()))
        if totals.max() > INT64_MAX:
            raise DemandTooLarge(
                "the loss total of pair ({}, {})".format(u, v), totals.max(),
                INT64_MAX, "use the calibrated budget or a larger eps")
        return totals.astype(np.int64)


def _answer_chunks(rng: np.random.Generator, p_a: float, count: int):
    """``count`` answers of a pair stream, True where the lower id won.

    Yields chunks of at most STREAM_CHUNK answers, and one empty chunk for
    a count of 0; chunked draws give the same doubles as one draw.
    """
    for lo in range(0, max(count, 1), STREAM_CHUNK):
        yield rng.random(min(count - lo, STREAM_CHUNK)) < p_a


def _segment_sums(losses: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Totals of consecutive runs of ``counts[k]`` entries of ``losses``."""
    prefix = np.concatenate(([0], np.cumsum(losses)))
    return np.diff(prefix[np.cumsum(counts)], prepend=0)


def _column_totals(a: np.ndarray) -> list:
    """Column sums of a non-negative int64 matrix as exact Python ints."""
    if a.size and int(a.max()) > INT64_MAX // a.shape[0]:
        return [sum(col) for col in a.T.tolist()]
    return a.sum(axis=0).tolist()


def _check_pair(u, v, n: int) -> None:
    """Refuse a pair whose ids are not two distinct integer items of ``range(n)``."""
    if (not (0 <= u < n and 0 <= v < n) or u == v
            # a fractional id passes the range test; Python ints skip isinstance
            or type(u) is not int and not isinstance(u, np.integer)
            or type(v) is not int and not isinstance(v, np.integer)):
        raise ValueError(
            "pair ({}, {}) needs two distinct items in [0, {})".format(u, v, n))


def _check_integers(*ids) -> None:
    """Refuse ids, each one id or an array of them, that are not integers.

    A cast to int64 would read a fractional id as its floor.
    """
    for x in ids:
        if (type(x) is not int and np.asarray(x).dtype.kind not in "iu"
                and np.size(x)):
            raise ValueError("pair ids must be integers")


def _check_ids(us, vs, n: int) -> None:
    """:func:`_check_pair` on every pair of ids or arrays of ids, with numpy."""
    _check_integers(us, vs)
    for x in (us, vs):
        # read as uint64, a negative id lies beyond every n
        if (not 0 <= x < n if isinstance(x, (int, np.integer))
                else x.size and x.astype(np.int64, copy=False)
                .view(np.uint64).max() >= n):
            raise ValueError("pair ids must lie in [0, {})".format(n))
    if (us == vs).any():
        raise ValueError("pair items must be distinct")


def _pair_ids(u, v) -> tuple:
    """``(us, vs, size)``: the pairs of an array pair call.

    ``us`` and ``vs`` are flat int64 arrays of ``size`` ids in broadcast
    order, except that a scalar side stays one int, the partner of every
    pair. A non-integer id raises ValueError; ranges are left to
    :func:`_check_ids` and :func:`_check_pair`.
    """
    _check_integers(u, v)
    if not isinstance(v, np.ndarray) or v.ndim == 0:
        us, vs = np.asarray(u, dtype=np.int64).ravel(), int(v)
    elif not isinstance(u, np.ndarray) or u.ndim == 0:
        us, vs = int(u), v.astype(np.int64, copy=False).ravel()
    else:
        us, vs = (a.astype(np.int64, copy=False).ravel()
                  for a in np.broadcast_arrays(u, v))
    return us, vs, vs.size if isinstance(us, int) else us.size


def _windows(size: int, stop: int | None):
    """Yield the ``(lo, hi)`` windows an array pair call answers its pairs in.

    One window of every pair without ``stop``; with it, windows that
    double from SCALAR_PAIRS, so a call that stops early draws at most
    about twice the pairs it answers.
    """
    lo, width = 0, size if stop is None else SCALAR_PAIRS
    while lo < size:
        yield lo, min(size, lo + width)
        lo, width = lo + width, 2 * width


def _cut(ids, lo: int, hi: int):
    """Pairs ``lo`` to ``hi`` of one side of :func:`_pair_ids`."""
    return ids if isinstance(ids, int) else ids[lo:hi]


def _window_pairs(us, vs, lo: int, hi: int) -> list:
    """The pairs ``lo`` to ``hi`` of :func:`_pair_ids` as Python int pairs."""
    if isinstance(vs, int):
        return [(a, vs) for a in us[lo:hi].tolist()]
    if isinstance(us, int):
        return [(us, b) for b in vs[lo:hi].tolist()]
    return list(zip(us[lo:hi].tolist(), vs[lo:hi].tolist()))


@dataclass(frozen=True, eq=False)
class ReplayTable:
    """One non-adaptive batch of m answers per pair of the model's items.

    :func:`build_replay_table` pays for the whole batch and records where
    each pair stream stood before it; the table keeps no answers. A
    :class:`ReplayOracle` draws a pair's answers from that state, so every
    replay of the table reads the answers a live stream of the same seed
    would have drawn in the batch.
    """

    model: Model
    m: int
    starts: dict  # (u, v) with u < v -> the pair stream's state at the build


def max_table_m(n: int) -> int:
    """The largest m :func:`build_replay_table` takes for ``n`` items."""
    return REPLAY_MAX_ANSWERS // max(n * (n - 1) // 2, 1)


def build_replay_table(oracle: LiveOracle, m: int) -> ReplayTable:
    """Pay for every pair's m queries in one non-adaptive batch.

    The live ledger is charged m per pair, and each pair stream steps m
    answers on, before any answer is read; a PCG64 ``advance(m)`` is exact
    because a stream answer is one ``random()`` draw. An m above
    :func:`max_table_m` raises ``DemandTooLarge`` before anything is charged.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = oracle.n
    pairs = n * (n - 1) // 2
    if m > max_table_m(n):
        raise DemandTooLarge(
            "a replay table of {} pairs x {} answers".format(pairs, m),
            pairs * m, REPLAY_MAX_ANSWERS, "use a smaller m or n")
    starts = {}
    for u in range(n):
        for v in range(u + 1, n):
            stream = oracle._pair_rng(u, v).bit_generator
            starts[(u, v)] = stream.state
            stream.advance(m)
            oracle.ledger.record_pair(u, v, m)
    return ReplayTable(oracle.model, m, starts)


class ReplayOracle:
    """A stream-mode oracle whose answers were paid for in advance.

    It answers only pair queries, with :class:`LiveOracle`'s own stream-mode
    code, from its own copy of each pair stream: a pair's first read
    restores the state the :class:`ReplayTable` recorded and moves it on
    past the answers the replay's ledger counts. That ledger counts
    *simulated* queries and is the replay's read position. No live oracle
    is touched, so replays of one table, in any interleaving, each draw the
    answers a live stream of the same seed would draw.
    """

    pair_mode = "stream"

    def __init__(self, table: ReplayTable):
        self.table = table
        self.model = table.model
        self.n = table.model.n
        self.ledger = QueryLedger()
        self._pair_rngs: dict = {}

    def _pair_rng(self, u: int, v: int) -> np.random.Generator:
        key = (u, v) if u < v else (v, u)
        rng = self._pair_rngs.get(key)
        if rng is None:   # exact: a stream answer is one random() draw
            bits = np.random.PCG64()
            bits.state = self.table.starts[key]
            rng = self._pair_rngs[key] = np.random.Generator(
                bits.advance(self.ledger.per_pair.get(key, 0)))
        return rng

    def _stream_answers(self, u: int, v: int, count: int, used: int = 0):
        """Yield the pair's next ``count`` answers, after ``used`` uncharged ones.

        Raises ``ReplayBudgetExhausted`` when fewer are left, before anything
        is drawn, or ``DemandTooLarge`` when no table of n items holds that
        many: no larger m cures that. A refusal drops the pair's stream,
        which may stand past the ``used`` answers, so the next read
        restores it where the ledger stands.
        """
        key = (u, v) if u < v else (v, u)
        at = self.ledger.per_pair.get(key, 0) + used
        if at + count > self.table.m:
            self._pair_rngs.pop(key, None)
            if at + count > max_table_m(self.n):
                raise DemandTooLarge(
                    "the m pair {} needs in a table of {} items".format(
                        key, self.n), at + count, max_table_m(self.n),
                    "use the calibrated budget or a larger eps")
            raise ReplayBudgetExhausted(key, self.table.m, at + count)
        yield from LiveOracle._stream_answers(self, u, v, count)

    def max_sample(self, slate) -> int:
        slate = _check_slate(slate, self.n)
        if slate.size != 2:
            raise ValueError("a replay oracle can only answer pair queries")
        return self.sample_pair(int(slate[0]), int(slate[1]))

    # Assigned, not inherited: perfbench's tracer wraps each class's own
    # methods, so every method a replay answers with is in its class body.
    sample_pair = LiveOracle.sample_pair
    sample_pair_block = LiveOracle.sample_pair_block
    pair_win_count = LiveOracle.pair_win_count
    sample_geometric = LiveOracle.sample_geometric
    sample_geometric_block = LiveOracle.sample_geometric_block
    _stream_waits = LiveOracle._stream_waits
    sample_geometric_sums = LiveOracle.sample_geometric_sums
