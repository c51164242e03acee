"""Query accounting: the ledger every oracle charges.

A :class:`QueryLedger` counts queries in total, per unordered pair and per
slate size, every count an exact Python int. Its ``per_pair`` is a
read-only :class:`PairCounts` mapping in pair order.
"""

from __future__ import annotations

import operator
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

INT64_MAX = (1 << 63) - 1
# The widest id span whose pair keys (a - lo) * span + (b - lo) fit int64
KEY_SPAN = 3_037_000_499
# A ledger folds its pending runs once they hold more than FOLD_MIN pairs
# (512 KiB of partners) and more than its arrays, and lists its pairs
# CHUNK_PAIRS at a time.
FOLD_MIN = 1 << 16
CHUNK_PAIRS = 1 << 12


class PairCounts(Mapping):
    """A ledger's per-pair counts, read-only: ``{(a, b): count}``, a < b,
    in pair order, (a, b) ascending, every count an exact Python int.

    Scalar charges add up in a dict, which a replay reads in O(1). Array
    charges are logged as runs and fold, vectorized, into three arrays in
    pair order, ``a``, ``b`` and counts: once pending runs hold more pairs
    than the arrays and FOLD_MIN, and when the mapping is read whole (its
    length, its pairs or its largest count), which alone folds in the
    dict. Counts are int64 while the pair charges sum within int64, and
    exact ints in an object array past it.
    """

    def __init__(self):
        self._pairs: dict = {}   # scalar charges {(a, b): count}
        self._runs: list = []    # pending runs (items, partners, counts)
        self._pending = 0        # pairs the pending runs hold
        self._sum = 0            # queries charged to the pairs
        self._a = self._b = self._counts = np.zeros(0, dtype=np.int64)

    def _add(self, u: int, v: int, count: int) -> None:
        key = (u, v) if u < v else (v, u)
        self._pairs[key] = self._pairs.get(key, 0) + count
        self._sum += count

    def _add_run(self, u, vs: np.ndarray, counts, total: int) -> None:
        """Log a run: u (an id, or one a pair) against the partners ``vs``,
        an owned int64 copy, ``counts`` an int or one a pair, ``total`` in
        all."""
        self._runs.append((u, vs, counts))
        self._pending += vs.size
        self._sum += total
        if self._pending > max(self._a.size, FOLD_MIN):
            self._fold()

    def _fold(self, pairs: bool = False) -> PairCounts:
        """Merge the pending runs and, with ``pairs`` (as a whole read
        does), the dict into the arrays, counts summed, sorted by the one
        int64 key (a - lo) * span + (b - lo) where ids span at most
        KEY_SPAN, else by the pair. Returns the mapping."""
        if pairs and self._pairs:   # the dict as one more run
            keys = np.array(list(self._pairs), dtype=np.int64).T
            self._runs.append((keys[0], keys[1], np.array(
                list(self._pairs.values()), dtype=object)))
            self._pairs = {}
        if not self._runs:
            return self
        dtype = np.int64 if self._sum <= INT64_MAX else object
        us, vs, ks = zip(*self._runs, (self._a, self._b, self._counts))
        ks = np.concatenate([np.full(v.size, k, dtype) if type(k) is int
                             else k.astype(dtype, copy=False)
                             for k, v in zip(ks, vs)])
        us = np.concatenate([np.broadcast_to(u, v.size)
                             for u, v in zip(us, vs)])
        vs = np.concatenate(vs)
        some = np.flatnonzero(ks)   # a count of 0 adds no pair
        a, b = np.minimum(us, vs)[some], np.maximum(us, vs)[some]
        counts = ks[some]
        lo = int(a.min())
        span = int(b.max()) - lo + 1
        order = (np.argsort((a - lo) * span + (b - lo)) if span <= KEY_SPAN
                 else np.lexsort((b, a)))
        a, b, counts = a[order], b[order], counts[order]
        head = np.flatnonzero(np.concatenate(
            ([True], (a[1:] != a[:-1]) | (b[1:] != b[:-1]))))
        if head.size < a.size:
            a, b, counts = a[head], b[head], np.add.reduceat(counts, head)
        self._a, self._b, self._counts = a, b, counts
        self._runs, self._pending = [], 0
        return self

    def _chunks(self):
        """Yield the keys and counts as lists, CHUNK_PAIRS pairs at a time,
        with one int object per item id and per distinct int64 count (exact
        counts are int objects already)."""
        a, b, size = self._a, self._b, self._a.size
        lo = int(a.min(initial=0))
        span = int(b.max(initial=0)) - lo + 1
        if span < 2 * size + CHUNK_PAIRS:   # a table of every id in the span
            ids, a, b = np.arange(lo, lo + span).astype(object), a - lo, b - lo
        else:
            ids, where = np.unique(np.concatenate((a, b)), return_inverse=True)
            ids, a, b = ids.astype(object), where[:size], where[size:]
        values, which = (np.unique(self._counts, return_inverse=True)
                         if self._counts.dtype != object
                         else (self._counts, np.arange(size)))
        values = values.astype(object)
        for at in range(0, size, CHUNK_PAIRS):
            at = slice(at, at + CHUNK_PAIRS)
            yield (list(zip(ids[a[at]].tolist(), ids[b[at]].tolist())),
                   values[which[at]].tolist())

    def _max(self) -> int:
        return int(self._fold(True)._counts.max(initial=0))

    def _array_count(self, key) -> int:
        """``key``'s count in the arrays, 0 if none, folding pending runs."""
        self._fold()
        try:
            a, b = map(operator.index, key)
        except (TypeError, ValueError):
            return 0
        if not -INT64_MAX - 1 <= a <= b <= INT64_MAX:
            return 0
        i = np.searchsorted(self._a, a)
        j = np.searchsorted(self._a, a, "right")
        i += np.searchsorted(self._b[i:j], b)
        return int(self._counts[i]) if i < j and self._b[i] == b else 0

    def __getitem__(self, key):
        count = self._pairs.get(key, 0)   # O(1) while no run is charged
        if self._runs or self._a.size:
            count += self._array_count(key)
        if not count:
            raise KeyError(key)
        return count

    def __len__(self) -> int:
        return self._fold(True)._a.size

    def __iter__(self):
        return chain.from_iterable(
            keys for keys, _ in self._fold(True)._chunks())

    def items(self):
        return _PairItems(self)

    def values(self):
        return _PairValues(self)

    def __repr__(self) -> str:
        return "PairCounts({!r})".format(dict(self.items()))


class _PairItems(ItemsView):
    def __iter__(self):
        return chain.from_iterable(
            zip(*chunk) for chunk in self._mapping._fold(True)._chunks())


class _PairValues(ValuesView):
    def __iter__(self):
        return chain.from_iterable(
            counts for _, counts in self._mapping._fold(True)._chunks())


@dataclass
class QueryLedger:
    """Counts oracle queries in total, per unordered pair, and per slate size.

    A pair's count is the ``batch`` charged to all ``batch_pairs`` pairs
    plus its ``per_pair`` entry, which a call of 0 queries never creates.
    ``per_pair`` is a read-only :class:`PairCounts` mapping in pair order,
    built by the ledger alone: an array charge is logged as one run, not
    one entry per pair. Every charge method refuses, with ValueError and
    before anything changes, a count that is not an integer >= 0, ids that
    int64 cannot hold, and :meth:`record_pairs` ids of a non-integer dtype
    or bad ``starts``.
    """

    total: int = 0
    per_pair: PairCounts = field(init=False, default_factory=PairCounts)
    per_size: dict = field(default_factory=dict)
    batch: int = 0
    batch_pairs: int = 0

    def _charge_pairs(self, total: int) -> None:
        self.per_size[2] = self.per_size.get(2, 0) + total
        self.total += total

    def record_pair(self, u: int, v: int, count: int = 1) -> None:
        u, v, count = _int64_ids(u), _int64_ids(v), _check_count(count)
        if count:
            self.per_pair._add(u, v, count)
            self._charge_pairs(count)

    def record_batch(self, pairs: int, count: int) -> None:
        """``count`` queries to each of ``pairs`` pairs: every pair of items."""
        pairs, count = _check_count(pairs), _check_count(count)
        if pairs and count:
            self.batch += count
            self.batch_pairs = pairs
            self._charge_pairs(pairs * count)

    def record_pairs(self, u, vs, counts=1, starts=None) -> None:
        """``record_pair(u, vs[i], counts[i])`` for every i, in order.

        ``u`` is one id and ``vs`` a 1-D integer array of its partners; with
        ``starts`` (see :func:`_check_starts`), ``u`` has one id per run of
        ``vs``. ``counts`` is one count for every pair or a sequence of one
        count per pair; counts may be exact Python ints beyond int64.
        """
        vs = _int64_ids(np.asarray(vs).ravel())
        if starts is None:
            u = _int64_ids(operator.index(u))
        else:   # one id per pair
            u = _int64_ids(np.repeat(np.asarray(u).ravel(), np.diff(
                _check_starts(starts, np.size(u), vs.size), append=vs.size)))
        if type(counts) is int or np.isscalar(counts):
            counts = _check_count(counts)
            total = counts * vs.size
        else:
            counts, total = _per_pair_counts(counts, vs.size)
        if total:
            self.per_pair._add_run(u, vs, counts, total)
            self._charge_pairs(total)

    def record_slate(self, size: int, count: int = 1) -> None:
        if size == 2:
            raise ValueError("size-2 queries must go through record_pair")
        count = _check_count(count)
        if count:
            self.per_size[size] = self.per_size.get(size, 0) + count
            self.total += count

    @property
    def max_per_pair(self) -> int:
        return self.batch + self.per_pair._max()


def _per_pair_counts(counts, size: int) -> tuple:
    """``(counts, total)``: one checked count per pair, as an int64 array or,
    where their sum passes int64, an object array of exact ints, and that sum.
    A sequence is read as Python ints: numpy would turn 2^63 into a float."""
    if isinstance(counts, np.ndarray):
        counts = counts.ravel()
        if (counts.dtype.kind in "iu" and counts.size == size and size
                and counts.min() >= 0
                and int(counts.max()) <= INT64_MAX // size):
            return counts.astype(np.int64), int(counts.sum())
        counts = counts.tolist()
    counts = [_check_count(count) for count in counts]
    if len(counts) != size:
        raise ValueError("need one count per pair")
    total = sum(counts)
    return np.array(counts, np.int64 if total <= INT64_MAX else object), total


def _int64_ids(ids):
    """``ids``, an integer or an integer array, as an int or an owned int64
    array; ValueError, uncharged, unless int64 holds every id."""
    if not isinstance(ids, np.ndarray):
        ids = operator.index(ids)
        if -INT64_MAX - 1 <= ids <= INT64_MAX:
            return ids
    elif not ids.size or ids.dtype.kind == "i" or (
            ids.dtype.kind == "u" and int(ids.max()) <= INT64_MAX):
        return ids.astype(np.int64)
    raise ValueError("ids must be integers int64 holds")


def _check_starts(starts, runs: int, size: int) -> np.ndarray:
    """``starts`` as int64, where each of ``runs`` runs begins in an array
    of ``size`` partners, the last ending at its end. ValueError unless
    they are ``runs`` 1-D integers rising from 0 within the array."""
    starts = np.asarray(starts)
    if (starts.ndim != 1 or starts.size != runs or (
            starts.dtype.kind not in "iu" or starts[0] != 0
            or starts[-1] > size or (starts[1:] < starts[:-1]).any()
            if runs else size)):
        raise ValueError("starts must rise from 0 within the partners")
    return starts.astype(np.int64)


def _check_count(count, least: int = 0) -> int:
    """``count`` as an exact Python int, so no numpy integer reaches a
    ledger; refuse, uncharged, one that is not an integer >= ``least``."""
    if type(count) is int and count >= least:
        return count
    if (type(count) is bool or not isinstance(count, (int, np.integer))
            or count < least):
        raise ValueError("{!r} is not an integer >= {}".format(count, least))
    return operator.index(count)
