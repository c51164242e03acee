"""Distances between choice models, fixtures, and query accounting reports.

The headline distance between two models is the worst slate:

    d1(A, B)   = max over slates S of the l1 distance between A_S and B_S
    dinf(A, B) = max over slates S and items i of |A_S(i) - B_S(i)|

Exhaustive evaluation enumerates all 2^n - 1 slates and is gated to n <= 20;
the sampled variant checks a structured subset of slates and is a lower
bound on the exact distances. Both score a chunk of slates at a time, as
ragged slates: a chunk holds the items of its slates one after another, so
it costs what the slates hold, not slates x n. Each chunk is checked once,
with ``models._check_ragged``, and then scored by both models' unchecked
kernels, the ones behind their batched ``slate_distributions``. The exact
variant reads an MNL's per-slate max log weight from two tables of subset
maxima rather than reducing each slate for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ledger import _check_count
# slate_distribution is unused, but perfbench's tracer patches it here
from .models import (LogWeightMnl, Model, _check_ragged,
                     slate_distribution)  # noqa: F401


@dataclass(frozen=True)
class DistanceReport:
    d1: float
    dinf: float
    argmax_slate: tuple
    exact: bool
    slates_checked: int


# A batched temporary holds at most this many values (1 MiB of float64), or
# one slate when a slate is larger. Larger chunks run no faster.
CHUNK_VALUES = 1 << 17


def _mask_chunk(ids, mask, sizes):
    """Row r of ``mask``, holding ``sizes[r]`` trues, as the slate of the
    ``ids`` it keeps: one ragged chunk, its items of the dtype of ``ids``.
    The id row is tiled afresh for each chunk; held from one chunk to the
    next, the tiled row would raise the peak of the eval."""
    return (np.compress(mask.ravel(), np.tile(ids, len(mask))),
            np.cumsum(sizes) - sizes)


def _subset_fold(values, ufunc, empty):
    """A function from slate bit masks (bit i holds ``values[i]``) to
    ``ufunc`` folded over the values each slate holds, read from two
    tables: the folds over every subset of the low ``(n + 1) // 2`` values
    and over every subset of the rest, ``empty`` for an empty subset."""
    half, tables = (values.size + 1) // 2, []
    for part in (values[:half], values[half:]):
        table = np.empty(1 << part.size, dtype=values.dtype)
        table[0] = empty
        for i, v in enumerate(part):
            ufunc(table[:1 << i], v, out=table[1 << i:2 << i])
        tables.append(table)
    low, high = tables
    return lambda masks: ufunc(low[masks & (1 << half) - 1],
                               high[masks >> half])


def _subset_chunks(n: int):
    """Slates 1 .. 2^n - 1 as ragged chunks ``(items, starts, masks)``; bit
    i of slate ``masks[r]`` is item i, and slate sizes are subset counts."""
    rows = max(1, CHUNK_VALUES // n)
    count = _subset_fold(np.ones(n, dtype=np.int64), np.add, 0)
    items = np.arange(n, dtype=np.int8)   # n <= 20
    bits = 1 << items.astype(np.int32)   # so int32 holds a slate
    for start in range(1, 1 << n, rows):
        masks = np.arange(start, min(start + rows, 1 << n), dtype=np.int32)
        yield (*_mask_chunk(items, masks[:, None] & bits != 0, count(masks)),
               masks)


def _row_blocks(sizes):
    """``(lo, hi)`` runs of rows whose ``sizes`` sum to at most CHUNK_VALUES,
    or one row when a row is larger."""
    ends, lo = np.cumsum(sizes), 0
    while lo < ends.size:
        cap = CHUNK_VALUES + (int(ends[lo - 1]) if lo else 0)
        hi = max(lo + 1, int(np.searchsorted(ends, cap, side="right")))
        yield lo, hi
        lo = hi


def _heaviest(log_w, top: int):
    """The ``top`` heaviest ids, heaviest first and equal weights in id
    order: ``np.argsort(-log_w, kind="stable")[:top]``, sorting only the
    ids at least as heavy as the top-th."""
    if top == 0:
        return np.arange(0)
    ids = np.flatnonzero(log_w >= np.partition(log_w, log_w.size - top)[
        log_w.size - top])
    return ids[np.argsort(-log_w[ids], kind="stable")[:top]]


def _prefix_chunks(order, rank, top: int):
    """The prefixes of sizes 2 .. top of ``order`` (the top ids heaviest
    first, of heaviness ``rank``), each sorted by id: one mask block over
    the top ids in id order, whose row of size s keeps the ids of rank < s."""
    sizes = np.arange(2, top + 1)
    # narrow ids, since each block tiles them once per row
    ids = np.sort(order).astype(np.min_scalar_type(rank.size))
    for lo, hi in _row_blocks(sizes):
        cols = ids[rank[ids] < sizes[hi - 1]]   # the ids these rows can keep
        yield _mask_chunk(cols, rank[cols] < sizes[lo:hi, None], sizes[lo:hi])


def _pair_chunks(n: int, skip):
    """Every pair (u, v) with u < v in lexicographic order but ``skip``, a
    pair listed already (or None), as chunks of whole rows u."""
    us = np.arange(n - 1)
    for lo, hi in _row_blocks(2 * (n - 1 - us)):
        vs = np.arange(lo + 1, n)
        mask = vs > us[lo:hi, None]
        if skip is not None and lo <= skip[0] < hi:
            mask[skip[0] - lo, skip[1] - lo - 1] = False
        pairs = np.stack((np.broadcast_to(us[lo:hi, None], mask.shape)[mask],
                          np.broadcast_to(vs, mask.shape)[mask]), axis=1)
        if pairs.size:
            yield pairs.ravel(), np.arange(0, pairs.size, 2)


def _packed(pieces):
    """Consecutive ragged pieces joined into chunks of at most CHUNK_VALUES
    items, or one piece when a piece is larger, with no bit masks."""
    held, values = [], 0
    for piece in pieces:
        if held and values + piece[0].size > CHUNK_VALUES:
            yield (*_join(held), None)
            held, values = [], 0
        held.append(piece)
        values += piece[0].size
    if held:
        yield (*_join(held), None)


def _join(pieces: list):
    """Ragged pieces as one chunk, their slates in order."""
    if len(pieces) == 1:
        return pieces[0]
    sizes = [items.size for items, _ in pieces]
    shift = np.cumsum(sizes) - sizes
    return (np.concatenate([items for items, _ in pieces]),
            np.concatenate([starts for _, starts in pieces])
            + np.repeat(shift, [starts.size for _, starts in pieces]))


def _sampled_slates(a: Model, k: int, rng):
    """The slates :func:`distance_sampled` lists, in list order, as ragged
    pieces of at most CHUNK_VALUES items (or one slate)."""
    n, first = a.n, np.zeros(1, dtype=np.int64)
    yield np.arange(n), first
    listed, top = 1, 0   # prefixes of sizes 2 .. top are listed
    if isinstance(a, LogWeightMnl):
        # prefixes differ in size, so they are distinct; once k are listed
        # neither the pairs nor the random subsets below can be added
        top = min(n - 1, k)
        order = _heaviest(a.log_w, top)
        rank = np.full(n, n)   # heaviness rank in the top, else n
        rank[order] = np.arange(top)
        yield from _prefix_chunks(order, rank, top)
        listed += max(0, top - 1)
    paired = listed + n * (n - 1) // 2 <= k
    if paired:   # the full slate or the prefix of size 2 lists one pair
        skip = ((0, 1) if n == 2 else
                tuple(np.sort(order[:2]).tolist()) if top >= 2 else None)
        yield from _pair_chunks(n, skip)
        listed += n * (n - 1) // 2 - (skip is not None)
    # every slate of size >= 2 may already be listed: stop there
    room, attempts, seen = min(k, (1 << n) - n - 1), 0, set()
    while listed < room and attempts < 50 * k:
        attempts += 1
        size = int(rng.integers(2, n + 1))
        s = np.sort(rng.choice(n, size=size, replace=False))
        if (size == n or (paired and size == 2)
                or (size <= top and rank[s].max() < size)):
            continue   # the full slate, a listed pair or a listed prefix
        member = np.zeros(n, dtype=bool)
        member[s] = True
        key = np.packbits(member).tobytes()   # in seen when drawn before
        if key not in seen:
            seen.add(key)
            listed += 1
            yield s, first


def _worst_slate(a: Model, b: Model, chunks, maxima=(None, None)) -> tuple:
    """d1, dinf, the first slate attaining d1 and the number of slates, over
    ragged chunks ``(items, starts, masks)``.

    Each chunk is checked once and scored by both models' unchecked
    kernels. ``maxima[i]``, a :func:`_subset_fold` of model i's log
    weights or None, gives its per-slate max log weights from the chunk's
    slate bit ``masks``, which only :func:`_subset_chunks` yields (else
    None).
    """
    best_d1, best_dinf, best_slate, checked = -1.0, 0.0, (), 0
    for items, starts, masks in chunks:
        items, starts, sizes = _check_ragged(items, starts, a.n)
        diff = _distributions(a, maxima[0], items, starts, sizes, masks)
        diff -= _distributions(b, maxima[1], items, starts, sizes, masks)
        np.abs(diff, out=diff)
        tv = np.add.reduceat(diff, starts)
        r = int(np.argmax(tv))
        best_dinf = max(best_dinf, float(diff.max()))
        if tv[r] > best_d1:
            best_d1 = float(tv[r])
            end = np.append(starts, items.size)[r + 1]
            best_slate = tuple(items[starts[r]:end].tolist())
        checked += starts.size
    return best_d1, best_dinf, best_slate, checked


def _distributions(model: Model, maxima, items, starts, sizes, masks):
    """``model``'s unchecked kernel on a checked chunk, handed the slates'
    max log weights when ``maxima`` is not None."""
    if maxima is None:
        return model._slate_distributions(items, starts, sizes)
    return model._slate_distributions(items, starts, sizes, maxima(masks))


def distance_exact(a: Model, b: Model) -> DistanceReport:
    """Exact d1 and dinf over every non-empty slate; requires n <= 20."""
    n = a.n
    if b.n != n:
        raise ValueError("models must agree on n")
    if n > 20:
        raise ValueError("exhaustive slate enumeration is gated to n <= 20")
    maxima = [_subset_fold(m.log_w, np.maximum, -np.inf)
              if isinstance(m, LogWeightMnl) else None for m in (a, b)]
    d1, dinf, slate, checked = _worst_slate(a, b, _subset_chunks(n), maxima)
    return DistanceReport(d1=d1, dinf=dinf, argmax_slate=slate,
                          exact=True, slates_checked=checked)


def distance_sampled(a: Model, b: Model, k: int,
                     rng: np.random.Generator | None = None) -> DistanceReport:
    """Lower-bound d1 and dinf from at most k slates.

    Always includes the full slate and, when a is an MNL, the prefixes of
    sizes 2 .. min(n - 1, k) of a's items sorted heaviest first; then all
    pairs if the budget allows, then uniform random subsets not listed yet
    until k slates, or all 2^n - n - 1 slates of two or more items, are
    listed, or 50 k subsets are drawn. A one-item model has only its full
    slate. ``rng`` (a numpy Generator; None seeds one) draws the random
    subsets; anything else raises ValueError before a slate is scored.

    The slates are listed and scored a chunk of ragged arrays at a time,
    so what a call holds at once is bounded whatever k, but for the
    membership bits of each random subset (n / 8 bytes), kept to skip its
    repeats.
    """
    n = a.n
    if b.n != n:
        raise ValueError("models must agree on n")
    k = _check_count(k, 1)
    if rng is None:
        rng = np.random.default_rng(0xC0FFEE)
    elif not isinstance(rng, np.random.Generator):
        raise ValueError("rng must be a numpy.random.Generator or None")
    chunks = _packed(_sampled_slates(a, k, rng))
    d1, dinf, slate, checked = _worst_slate(a, b, chunks)
    return DistanceReport(d1=d1, dinf=dinf, argmax_slate=slate,
                          exact=False, slates_checked=checked)


def separation_fixture(n: int, eps: float) -> tuple:
    """Two MNLs that pair queries alone cannot tell apart.

    The first has n - 1 items of weight 1 and one item of weight n; the
    second inflates the light items to 1 + eps. Every pair distribution
    differs by at most eps / n, yet on the full slate the heavy item's win
    probability differs by at least eps / 9, so any learner below that
    accuracy must query larger slates or tolerate the gap.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    lw1 = np.zeros(n)
    lw1[-1] = math.log(n)
    lw2 = np.full(n, math.log1p(eps))
    lw2[-1] = math.log(n)
    return LogWeightMnl(lw1), LogWeightMnl(lw2)


def ledger_report(ledger) -> dict:
    """Flatten a query ledger into a JSON-friendly summary.

    Every count is an exact Python int. ``max_per_pair`` and
    ``pairs_touched`` read the ledger's per-pair arrays without listing
    its pairs as tuples."""
    return {
        "total": ledger.total,
        "max_per_pair": ledger.max_per_pair,
        "pairs_touched": ledger.batch_pairs or len(ledger.per_pair),
        "per_size": {str(k): v for k, v in sorted(ledger.per_size.items())},
    }
