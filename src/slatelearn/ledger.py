"""Query accounting: the ledger every oracle charges.

A :class:`QueryLedger` counts queries in total, per unordered pair and per
slate size, every count an exact Python int. An array charge (one item
against a numpy array of its partners) is logged as one run, not one dict
entry per pair, and ``per_pair`` is a read-only :class:`PairCounts` mapping
in first-charge order over a dict or over per-pair arrays the logged
charges are folded into.
"""

from __future__ import annotations

import operator
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

INT64_MAX = (1 << 63) - 1
# A ledger's arrays key the pair {a, b}, a <= b, by the int64 code
# a << ID_BITS | b; see PairCounts for ids outside [0, ID_LIMIT).
ID_BITS = 31
ID_LIMIT = 1 << ID_BITS
# A ledger folds its pending charges once they hold more than FOLD_MIN
# pairs (512 KiB of partners) and more than its arrays, and lists its pairs
# CHUNK_PAIRS at a time.
FOLD_MIN = 1 << 16
CHUNK_PAIRS = 1 << 12


class PairCounts(Mapping):
    """A ledger's per-pair counts, read-only: ``{(a, b): count}``, a < b.

    Keys come in first-charge order and every count is an exact Python int.
    A ledger that only ever sees scalar charges keeps them in a dict. From
    its first array charge on, it logs each array charge as a run (one
    item or, ragged, one a pair, an owned int64 copy of its partners and a
    count, one or one a pair) and each scalar charge into a dict of pending
    pairs, both tagged with their place in the charge order. Pending
    charges are folded, vectorized, into three arrays sorted by pair code
    ``a << ID_BITS | b``: codes, counts and the place of each pair's first
    charge. A fold runs when the mapping is read and when pending charges
    hold more pairs than the arrays and FOLD_MIN, so memory stays
    O(pairs touched) and the work amortized. A ledger that meets an id
    outside [0, 2^ID_BITS), or whose charges add up past int64, falls back
    to the dict of exact Python ints for good. Listing pairs reads the
    arrays CHUNK_PAIRS pairs at a time, with one int object per item id and
    per distinct count.
    """

    def __init__(self):
        self._pairs: dict = {}
        self._logging = self._exact = False
        self._us: list = []      # the pending runs: items,
        self._vs: list = []      # partners,
        self._ks: list = []      # counts
        self._starts: list = []  # and places of their first pair
        self._single: dict = {}  # pending scalar charges {key: [place, count]}
        self._pending = 0        # pairs the pending charges hold
        self._fold_at = FOLD_MIN
        self._logged = 0         # queries charged to the log
        self._charged = 0        # place of the next pair charge
        self._codes = self._counts = self._first = np.zeros(0, dtype=np.int64)

    def _add(self, u: int, v: int, count: int) -> None:
        """Charge ``count`` > 0 queries to {u, v}."""
        key = (u, v) if u < v else (v, u)
        if self._logging:
            if (isinstance(u, (int, np.integer))
                    and isinstance(v, (int, np.integer))
                    and 0 <= key[0] and key[1] < ID_LIMIT
                    and self._logged + count <= INT64_MAX):
                self._logged += count
                entry = self._single.get(key)
                if entry is not None:
                    entry[1] += count
                    return
                self._single[key] = [self._charged, count]
                self._charged += 1
                self._pending += 1
                if self._pending > self._fold_at:
                    self._fold()
                return
            self._fall_back()
        self._pairs[key] = self._pairs.get(key, 0) + count

    def _add_run(self, u, vs: np.ndarray, counts, total: int) -> None:
        """Charge ``counts`` (an int, an int64 array or a list of exact
        ints, one per pair; ``total`` in all) to u, one id or an integer
        array of one id per pair, against each integer id of ``vs``."""
        if not (self._logging or self._exact):   # the first run
            pairs, self._pairs, self._logging = self._pairs, {}, True
            for (a, b), count in pairs.items():
                self._add(a, b, count)
        if (self._logging and (0 <= u < ID_LIMIT if type(u) is int
                               else 0 <= u.min() and u.max() < ID_LIMIT)
                and self._logged + total <= INT64_MAX
                and not (vs.dtype.kind == "u" and vs.max() > INT64_MAX)):
            self._us.append(u if type(u) is int
                            else u.astype(np.int64, copy=False))
            self._vs.append(vs.astype(np.int64))
            self._ks.append(counts)
            self._starts.append(self._charged)
            self._charged += vs.size
            self._pending += vs.size
            self._logged += total
            if self._pending > self._fold_at:
                self._fold()
            return
        if self._logging:
            self._fall_back()
        _add_each(self._pairs, u, vs, counts)

    def _fold(self) -> None:
        """Merge the pending charges into the arrays, or fall back."""
        sizes = np.array([vs.size for vs in self._vs], dtype=np.int64)
        single = np.array([(*key, *entry) for key, entry
                           in self._single.items()], dtype=np.int64)
        single = single.reshape(-1, 4)   # a, b, place, count
        vs = np.concatenate(self._vs + [single[:, 1]])
        us = np.concatenate([np.broadcast_to(u, size) for u, size
                             in zip(self._us, sizes)] + [single[:, 0]])
        runs = np.arange(sizes.sum()) + np.repeat(
            np.array(self._starts, dtype=np.int64) - np.cumsum(sizes) + sizes,
            sizes)
        first = np.concatenate((runs, single[:, 2]))
        if all(type(k) is int for k in self._ks):
            counts = np.repeat(np.array(self._ks, dtype=np.int64), sizes)
        else:
            counts = np.concatenate([np.broadcast_to(k, size)
                                     for k, size in zip(self._ks, sizes)])
        counts = np.concatenate((counts, single[:, 3]))
        some = np.flatnonzero(counts)   # a count of 0 adds no pair
        if some.size < counts.size:
            us, vs, counts, first = us[some], vs[some], counts[some], first[some]
        if vs.size and (vs.min() < 0 or vs.max() >= ID_LIMIT):
            return self._fall_back()
        self._codes, self._counts, self._first = _group(
            np.concatenate((self._codes, np.minimum(us, vs) << ID_BITS
                            | np.maximum(us, vs))),
            np.concatenate((self._counts, counts)),
            np.concatenate((self._first, first)))
        self._us, self._vs, self._ks, self._starts = [], [], [], []
        self._single, self._pending = {}, 0
        self._fold_at = max(self._codes.size, FOLD_MIN)

    def _fall_back(self) -> None:
        """Move every count into the dict, which takes all charges from now."""
        pairs = dict(self._array_items())
        log = list(zip(self._starts, self._us, self._vs, self._ks))
        log += [(place, a, np.array([b]), count)
                for (a, b), (place, count) in self._single.items()]
        log.sort(key=operator.itemgetter(0))
        for _, u, vs, counts in log:
            _add_each(pairs, u, vs, counts)
        self.__init__()
        self._pairs, self._exact = pairs, True

    def _in_arrays(self) -> bool:
        """Fold what is pending; True where the counts are in the arrays."""
        if self._pending:
            self._fold()
        return self._logging

    def _array_items(self):
        """The arrays' (key, count) pairs in first-charge order."""
        return chain.from_iterable(zip(keys, counts)
                                   for keys, counts in self._chunks())

    def _chunks(self):
        """Yield the arrays' keys and counts as lists, CHUNK_PAIRS pairs at a
        time in first-charge order, with one int per item id and per count."""
        size = self._codes.size
        lo, hi = self._codes >> ID_BITS, self._codes & (ID_LIMIT - 1)
        top = int(hi.max(initial=0))
        if top < 2 * size + CHUNK_PAIRS:   # a table of every id up to the top
            ids = np.arange(top + 1).astype(object)
        else:
            ids, where = np.unique(np.concatenate((lo, hi)), return_inverse=True)
            ids, lo, hi = ids.astype(object), where[:size], where[size:]
        values, which = np.unique(self._counts, return_inverse=True)
        values = values.astype(object)
        order = np.argsort(self._first)
        for start in range(0, size, CHUNK_PAIRS):
            at = order[start:start + CHUNK_PAIRS]
            yield (list(zip(ids[lo[at]].tolist(), ids[hi[at]].tolist())),
                   values[which[at]].tolist())

    def _find(self, key) -> int:
        """Where ``key`` lies in the arrays, or -1."""
        try:
            a, b = map(operator.index, key)
        except (TypeError, ValueError):
            return -1
        if not 0 <= a <= b < ID_LIMIT:
            return -1
        code = a << ID_BITS | b
        i = int(np.searchsorted(self._codes, code))
        return i if i < self._codes.size and self._codes[i] == code else -1

    def _max(self) -> int:
        """The largest count, 0 if none."""
        if self._in_arrays():
            return int(self._counts.max()) if self._counts.size else 0
        return max(self._pairs.values(), default=0)

    def __getitem__(self, key):
        if not self._in_arrays():
            return self._pairs[key]
        i = self._find(key)
        if i < 0:
            raise KeyError(key)
        return int(self._counts[i])

    def get(self, key, default=None):
        if not self._logging:   # O(1), as a replay reads its position here
            return self._pairs.get(key, default)
        return super().get(key, default)

    def __contains__(self, key) -> bool:
        return self._find(key) >= 0 if self._in_arrays() else key in self._pairs

    def __len__(self) -> int:
        return self._codes.size if self._in_arrays() else len(self._pairs)

    def __iter__(self):
        if not self._in_arrays():
            return iter(self._pairs)
        return chain.from_iterable(keys for keys, _ in self._chunks())

    def items(self):
        return _PairItems(self)

    def __repr__(self) -> str:
        return "PairCounts({!r})".format(dict(self.items()))

    def values(self):
        return _PairValues(self)


class _PairItems(ItemsView):
    def __iter__(self):
        pairs = self._mapping
        if not pairs._in_arrays():
            return iter(pairs._pairs.items())
        return pairs._array_items()


class _PairValues(ValuesView):
    def __iter__(self):
        pairs = self._mapping
        if not pairs._in_arrays():
            return iter(pairs._pairs.values())
        return chain.from_iterable(counts for _, counts in pairs._chunks())


def _group(codes, counts, first):
    """``(codes, counts, first)`` with one entry per distinct code, sorted:
    counts summed, the earliest first charge kept."""
    order = np.argsort(codes)
    codes, counts, first = codes[order], counts[order], first[order]
    split = codes[1:] != codes[:-1]
    if split.all():   # every code once
        return codes, counts, first
    head = np.flatnonzero(np.concatenate(([True], split)))
    return (codes[head], np.add.reduceat(counts, head),
            np.minimum.reduceat(first, head))


def _add_each(pairs: dict, u, vs: np.ndarray, counts) -> None:
    """The dict form of a run: ``counts`` added to each pair's entry."""
    us = u.tolist() if isinstance(u, np.ndarray) else [u] * vs.size
    keys = [(a, b) if a < b else (b, a) for a, b in zip(us, vs.tolist())]
    get = pairs.get
    if isinstance(counts, int):
        for key in keys:
            pairs[key] = get(key, 0) + counts
        return
    for key, count in zip(keys, counts if isinstance(counts, list)
                          else counts.tolist()):
        if count:
            pairs[key] = get(key, 0) + count


@dataclass
class QueryLedger:
    """Counts oracle queries in total, per unordered pair, and per slate size.

    A pair's count is the ``batch`` charged to all ``batch_pairs`` pairs
    plus its ``per_pair`` entry, which a call of 0 queries never creates.
    ``per_pair`` is a read-only :class:`PairCounts` mapping in first-charge
    order, built by the ledger alone: an array charge is logged as one run,
    not one entry per pair. Every charge method refuses, with ValueError
    and before anything changes, a count that is not an integer >= 0, and
    :meth:`record_pairs` ids of a non-integer dtype or bad ``starts``.
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
        count = _check_count(count)
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
        vs = np.asarray(vs).ravel()
        if starts is None:
            u = operator.index(u)
        else:   # one id per pair
            u = np.repeat(np.asarray(u).ravel(), np.diff(_check_starts(
                starts, np.size(u), vs.size), append=vs.size))
        if vs.size and (vs.dtype.kind not in "iu" or starts is not None
                        and u.dtype.kind not in "iu"):
            raise ValueError("record_pairs takes integer ids")
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
    where their sum could pass int64, a list of exact ints, and that sum.
    A sequence is read as Python ints: numpy would turn 2^63 into a float."""
    if isinstance(counts, np.ndarray):
        counts = counts.ravel()
        if (counts.dtype.kind in "iu" and counts.size == size and size
                and counts.min() >= 0 and counts.max() <= INT64_MAX // size):
            return counts.astype(np.int64), int(counts.sum())
        counts = counts.tolist()
    counts = [_check_count(count) for count in counts]
    if len(counts) != size:
        raise ValueError("need one count per pair")
    total = sum(counts)
    return (np.array(counts, dtype=np.int64) if total <= INT64_MAX
            else counts), total


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
