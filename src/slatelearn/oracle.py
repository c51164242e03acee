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
    turns answers into winner ids. Both oracles start a pair's stream, on
    their first read of the pair, from its ``pair_streams_seed`` or a state
    a batch saved, moved on by an exact PCG64 ``advance`` past the answers
    charged to it since. A :class:`ReplayOracle` is this mode with its
    answers paid for in advance by :func:`build_replay_table`, which draws
    nothing; it runs the same stream-mode code on its own copy of each
    stream, so a live run and every replay of a batch agree bit for bit.

``binomial``
    win counts over k queries are drawn directly as Binomial(k, p) variates
    and geometric waiting times as Geometric(p) variates. The loss total of
    k waits, all a balanced ratio estimate needs, is one NegativeBinomial(k,
    p) draw (the number of losses before the k-th win); the ledger charges
    that total plus k. Distributionally identical and O(1) per call
    regardless of k, which is what makes the adaptive pipeline's very large
    per-call sample sizes affordable. Every binomial-mode count, wait and
    loss total reads the one tagged stream in call order; only
    :meth:`LiveOracle.sample_pair_block` (so ``sample_pair``, and
    ``max_sample`` on a pair), which no learner calls, reads the pair's own
    stream in this mode too. An array call, in either mode, is one item
    against a numpy array of its partners, or several, each against its
    slice of one array (a ragged ``pair_win_count`` call). It reads the
    tagged stream as the scalar calls would, one pair after another:
    :meth:`LiveOracle.pair_win_count` answers a small array of pairs with
    one scalar draw each and a larger one with one vector draw, and can
    stop at the first pair whose count reaches a threshold;
    :meth:`LiveOracle.sample_geometric_sums` draws a whole balanced
    estimate, one column of counts per member, with a few vector draws.
    Not replay-compatible.

Every oracle charges its queries to a :class:`~slatelearn.ledger.QueryLedger`.
An array call charges it one run: its item (one a pair if ragged), an
owned int64 copy of its partners and the count. A ledger that only ever
sees scalar charges, as in stream mode and every replay (whose read
position it is), keeps its per-pair counts in a dict read in O(1); after
its first run, a scalar charge waits in a small dict of pending pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DemandTooLarge, GeometricCapExceeded, ReplayBudgetExhausted
from .ledger import INT64_MAX, QueryLedger, _check_count, _check_starts
from .models import (Model, _check_pair, _check_pairs, _check_slate,
                     _pair_probabilities, _pair_probability, pair_probability)

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
        if rng is None:   # a stream first read after a batch starts past it
            rng = self._pair_rngs[key] = _open_stream(
                pair_streams_seed(self.seed, u, v), self.ledger.batch)
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
        """Winner tallies over ``count`` queries to a slate of size >= 3.

        One multinomial draw takes a count up to INT64_MAX; above it, the
        call raises ``DemandTooLarge``, uncharged."""
        count = _check_count(count)
        slate = _check_slate(slate, self.n)
        if slate.size < 3:
            raise ValueError("use pair_win_count for slates of size 2")
        if count > INT64_MAX:
            raise DemandTooLarge("the queries of one slate in one call", count,
                                 INT64_MAX, "split them over several calls")
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
        give the same doubles as one ``random(count)``; a count of 0 yields
        one empty chunk, and one above STREAM_MAX_DRAWS raises before
        anything is drawn. ``used`` counts the answers the calling method
        has read but not yet charged; the Generator already stands past
        them, so a live oracle ignores it.
        """
        a, b = (u, v) if u < v else (v, u)
        if count > STREAM_MAX_DRAWS:
            raise DemandTooLarge(
                "the stream draws of pair ({}, {}) in one call".format(a, b),
                count, STREAM_MAX_DRAWS,
                "use binomial mode; the calibrated budget and a larger eps "
                "apply only to the balanced and non-adaptive learners")
        rng, p_a = self._pair_rng(a, b), pair_probability(self.model, a, b)
        for lo in range(0, max(count, 1), STREAM_CHUNK):
            yield rng.random(min(count - lo, STREAM_CHUNK)) < p_a

    def sample_pair(self, u: int, v: int) -> int:
        return int(self.sample_pair_block(u, v, 1)[0])

    def sample_pair_block(self, u: int, v: int, count: int) -> np.ndarray:
        """``count`` queries to {u, v} at once; returns the winner sequence."""
        count = _check_count(count)
        _check_pair(u, v, self.n)
        a, b = (u, v) if u < v else (v, u)
        first = np.concatenate(list(self._stream_answers(u, v, count)))
        self.ledger.record_pair(u, v, count)
        return np.where(first, a, b).astype(np.int64, copy=False)

    def pair_win_count(self, u, v, count: int, stop: int | None = None,
                       starts=None):
        """How many of ``count`` queries to {u, v} return u.

        An array call is one id against a numpy array of its partners, on
        either side; the array is read flat, and the answer is a flat array,
        one count per pair in order. With ``stop``, the pairs are answered
        in order up to and including the first whose count reaches
        ``stop``, and the answer is that prefix; the rest are neither drawn
        nor charged. A ragged call, with ``starts`` as a ledger's
        ``record_pairs`` takes them, answers each id of the array ``u``
        against its slice of the array ``v``, run after run, and is one
        ragged charge. Two arrays without ``starts``, bad ``starts``,
        ``stop`` with ``starts``, a count or ``stop`` that is not an integer
        >= 0, or any id that is not an integer in [0, n) other than its
        partner's, raises ValueError before the first draw, in both modes.

        Binomial mode returns int64 counts (exact Python ints when ``count``
        takes more than one BINOMIAL_CHUNK piece), refuses a count above
        BINOMIAL_MAX_COUNT with ``DemandTooLarge``, uncharged, and reads the
        stream as one scalar call per pair in order would: up to
        SCALAR_PAIRS pairs with one scalar draw each, more with one vector
        draw, which runs the same draw per element. With ``stop`` it draws
        in windows that double from SCALAR_PAIRS; a vector window that holds
        a hit puts the stream back and redraws only the pairs through the
        hit, which gives the same values. Stream mode makes one scalar call
        per pair, so its answers, ledger and pair streams are those of the
        scalar calls in order.
        """
        count = _check_count(count)
        if stop is not None:
            stop = _check_count(stop)
            if starts is not None:
                raise ValueError("a call with starts takes no stop")
        if self.pair_mode == "binomial" and count > BINOMIAL_MAX_COUNT:
            raise DemandTooLarge("the queries of each pair in one call", count,
                                 BINOMIAL_MAX_COUNT, "use a larger eps")
        if (starts is not None or isinstance(u, np.ndarray)
                or isinstance(v, np.ndarray)):
            us, vs, size, charge = _pair_ids(u, v, self.n, starts)
            if self.pair_mode == "binomial" and count <= BINOMIAL_CHUNK:
                return self._binomial_win_counts(us, vs, size, count, stop,
                                                 charge)
            wins: list = []   # each scalar call charges its pair
            for a, b in _window_pairs(us, vs, 0, size):
                wins.append(self.pair_win_count(a, b, count))
                if stop is not None and wins[-1] >= stop:
                    break
            return np.array(wins, dtype=np.int64 if count <= BINOMIAL_CHUNK
                            else object)
        if self.pair_mode == "binomial":
            p_u = pair_probability(self.model, u, v)   # refuses a bad pair
            if count <= BINOMIAL_CHUNK:
                wins = self._binomial_rng.binomial(count, p_u)
            else:   # Binomial(a + b, p) = Binomial(a, p) + Binomial(b, p)
                wins = sum(int(self._binomial_rng.binomial(
                    min(count - lo, BINOMIAL_CHUNK), p_u))
                    for lo in range(0, count, BINOMIAL_CHUNK))
        else:
            _check_pair(u, v, self.n)
            wins = sum(int(np.count_nonzero(first))
                       for first in self._stream_answers(u, v, count))
            if u > v:
                wins = count - wins
        self.ledger.record_pair(u, v, count)
        return wins

    def _binomial_win_counts(self, us, vs, size: int, count: int,
                             stop: int | None, charge) -> np.ndarray:
        """The array form of :meth:`pair_win_count` in binomial mode, on ids
        :func:`_pair_ids` checked, of one BINOMIAL_CHUNK piece at most; the
        ledger takes ``charge`` on return, cut to the pairs answered."""
        rng = self._binomial_rng
        parts: list = []
        for lo, hi in _windows(size, stop):
            if hi - lo <= SCALAR_PAIRS:
                drawn = []
                for a, b in _window_pairs(us, vs, lo, hi):
                    drawn.append(rng.binomial(
                        count, _pair_probability(self.model, a, b)))
                    if stop is not None and drawn[-1] >= stop:
                        break
                drawn = np.array(drawn, dtype=np.int64)
            else:
                window = _cut(us, lo, hi), _cut(vs, lo, hi)
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
        u, vs, starts = charge
        self.ledger.record_pairs(u, vs if wins.size == size
                                 else vs[:wins.size], count, starts=starts)
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
        count = _check_count(count)
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

        ``u`` is one id, ``vs`` a 1-D numpy array of its partners, the
        members, and ``counts`` an M x len(vs) matrix with one column per
        member: entry [g, k] is the total loss count of the next
        ``counts[g, k]`` waits of u against ``vs[k]``. The ledger charges
        each member those losses plus its waits, and a count of 0 draws
        nothing. Partners that are not a numpy array (as in
        :meth:`pair_win_count`), any other shape, a member that is not an
        item of ``range(n)`` other than u, or a count not an integer >= 0,
        raises ValueError, uncharged.

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
        counts = np.asarray(counts)
        if (isinstance(u, np.ndarray) or not isinstance(vs, np.ndarray)
                or vs.ndim != 1 or counts.ndim != 2
                or counts.shape[1] != vs.size):
            raise ValueError("sample_geometric_sums takes one id, a 1-D numpy "
                             "array of its partners and one column of counts "
                             "each")
        if counts.size and (counts.dtype.kind not in "iu" or counts.min() < 0):
            raise ValueError("counts must be integers >= 0")
        counts = counts.astype(np.int64, copy=False)
        _check_pairs(u, vs, self.n)   # before the first charge
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


def _segment_sums(losses: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Totals of consecutive runs of ``counts[k]`` entries of ``losses``."""
    prefix = np.concatenate(([0], np.cumsum(losses)))
    return np.diff(prefix[np.cumsum(counts)], prepend=0)


def _column_totals(a: np.ndarray) -> list:
    """Column sums of a non-negative int64 matrix as exact Python ints."""
    if a.size and int(a.max()) > INT64_MAX // a.shape[0]:
        return [sum(col) for col in a.T.tolist()]
    return a.sum(axis=0).tolist()


def _open_stream(start, skip: int) -> np.random.Generator:
    """A pair stream from its SeedSequence or a saved PCG64 state, ``skip``
    answers on: exact, as an answer is one ``random()`` draw."""
    bits = np.random.PCG64(None if isinstance(start, dict) else start)
    if isinstance(start, dict):
        bits.state = start
    return np.random.Generator(bits.advance(skip))


def _pair_ids(u, v, n: int, starts) -> tuple:
    """``(us, vs, size, charge)``: the ``size`` pairs of an array pair call,
    every id checked, and their ledger charge ``(u, vs, starts)``. One side
    is a numpy array, read flat, and the other one Python id, the partner
    of every pair, or, with ``starts``, ``u`` is an array of one id per
    run, repeated as ``us`` once per partner."""
    runs = None
    if starts is not None:
        if not (isinstance(u, np.ndarray) and isinstance(v, np.ndarray)):
            raise ValueError("a call with starts takes two arrays")
        runs, vs = u.ravel(), v.ravel()
        starts = _check_starts(starts, runs.size, vs.size)
        us = np.repeat(runs, np.diff(starts, append=vs.size))
    elif isinstance(v, np.ndarray):
        if isinstance(u, np.ndarray):
            raise ValueError("an array call takes one id against an array "
                             "of its partners, not two arrays")
        us, vs = u.item() if isinstance(u, np.generic) else u, v.ravel()
    else:   # a numpy scalar becomes a Python one
        us, vs = u.ravel(), v.item() if isinstance(v, np.generic) else v
    _check_pairs(us, vs, n, runs)
    return us, vs, (vs if isinstance(vs, np.ndarray) else us).size, (
        (runs, vs, starts) if runs is not None else
        (vs, us, None) if isinstance(us, np.ndarray) else (us, vs, None))


def _windows(size: int, stop: int | None):
    """Yield the ``(lo, hi)`` windows a binomial array pair call draws in:
    one of every pair without ``stop``; with it, windows that double from
    SCALAR_PAIRS, so a call that stops early draws at most about twice the
    pairs it answers."""
    lo, width = 0, size if stop is None else SCALAR_PAIRS
    while lo < size:
        yield lo, min(size, lo + width)
        lo, width = lo + width, 2 * width


def _cut(ids, lo: int, hi: int):
    """Pairs ``lo`` to ``hi`` of one side of :func:`_pair_ids`."""
    return ids[lo:hi] if isinstance(ids, np.ndarray) else ids


def _window_pairs(us, vs, lo: int, hi: int) -> list:
    """The pairs ``lo`` to ``hi`` of :func:`_pair_ids` as Python id pairs."""
    return list(zip(*[ids[lo:hi].tolist() if isinstance(ids, np.ndarray)
                      else [ids] * (hi - lo) for ids in (us, vs)]))


@dataclass(frozen=True, eq=False)
class ReplayTable:
    """One non-adaptive batch: m answers of every pair of the model's items.

    It keeps no answers, only where the batch begins on each pair stream:
    at the saved state of each stream the live oracle held, else at the
    pair's seed moved on past the ``skip`` answers of earlier batches.
    """

    model: Model
    m: int
    seed: int
    skip: int
    states: dict  # (u, v) with u < v -> a held stream's state at the build


def build_replay_table(oracle: LiveOracle, m: int) -> ReplayTable:
    """Pay for every pair's m queries in one non-adaptive batch.

    Draws nothing and costs O(streams the live oracle holds): the ledger
    takes one batch charge, each held stream is saved and steps m answers
    on, and every other stream starts past the batch when first read.
    """
    m, held = _check_count(m, 1), oracle._pair_rngs
    table = ReplayTable(oracle.model, m, oracle.seed, oracle.ledger.batch,
                        {key: rng.bit_generator.state
                         for key, rng in held.items()})
    for rng in held.values():
        rng.bit_generator.advance(m)
    oracle.ledger.record_batch(oracle.n * (oracle.n - 1) // 2, m)
    return table


class ReplayOracle:
    """A stream-mode oracle whose answers were paid for in advance.

    It answers only pair queries, with :class:`LiveOracle`'s stream-mode
    code on its own copy of each pair stream, started where the table's
    batch begins and moved on past the answers its ledger counts: that
    ledger counts *simulated* queries and is the read position. No live
    oracle is touched, so replays of one table, in any interleaving, each
    draw the answers a live stream of the same seed would draw.
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
        if rng is None:
            t, read = self.table, self.ledger.per_pair.get(key, 0)
            rng = self._pair_rngs[key] = (
                _open_stream(t.states[key], read) if key in t.states else
                _open_stream(pair_streams_seed(t.seed, u, v), t.skip + read))
        return rng

    def _stream_answers(self, u: int, v: int, count: int, used: int = 0):
        """Yield the pair's next ``count`` answers, after ``used`` uncharged ones.

        Refuses, before anything is drawn, a call above STREAM_MAX_DRAWS,
        which no m serves, then one past m; the latter drops the pair's
        stream, which may stand past the ``used`` answers.
        """
        key = (u, v) if u < v else (v, u)
        if count > STREAM_MAX_DRAWS:
            raise DemandTooLarge(
                "the stream draws of pair {} in one call".format(key), count,
                STREAM_MAX_DRAWS, "use the calibrated budget or a larger eps")
        at = self.ledger.per_pair.get(key, 0) + used
        if at + count > self.table.m:
            self._pair_rngs.pop(key, None)
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
