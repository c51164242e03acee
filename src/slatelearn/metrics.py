"""Distances between choice models, fixtures, and query accounting reports.

The headline distance between two models is the worst slate:

    d1(A, B)   = max over slates S of the l1 distance between A_S and B_S
    dinf(A, B) = max over slates S and items i of |A_S(i) - B_S(i)|

Exhaustive evaluation enumerates all 2^n - 1 slates and is gated to n <= 20;
the sampled variant checks a structured subset of slates and is a lower
bound on the exact distances. Both score a chunk of slates at a time through
each model's batched ``slate_distributions``, as ragged slates: a chunk holds
the items of its slates one after another, so it costs what the slates
hold, not slates x n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

# slate_distribution is unused, but perfbench's tracer patches it here
from .models import LogWeightMnl, Model, slate_distribution  # noqa: F401
from .oracle import _check_count


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


def _subset_chunks(n: int):
    """Slates 1 .. 2^n - 1 as ragged chunks; bit i of slate m is item i."""
    items, rows = np.arange(n), max(1, CHUNK_VALUES // n)
    bits = 1 << items.astype(np.int32)     # n <= 20, so int32 holds a slate
    for start in range(1, 1 << n, rows):
        ids = np.arange(start, min(start + rows, 1 << n), dtype=np.int32)
        mask = ids[:, None] & bits != 0
        sizes = mask.sum(axis=1)
        yield (np.broadcast_to(items, mask.shape)[mask],
               np.cumsum(sizes) - sizes)


def _listed_chunks(slates: list):
    """The listed slates as ragged chunks of at most CHUNK_VALUES items (or
    one slate), in list order."""
    sizes, first = [len(s) for s in slates], 0
    while first < len(slates):
        stop, total = first + 1, sizes[first]
        while stop < len(slates) and total + sizes[stop] <= CHUNK_VALUES:
            total, stop = total + sizes[stop], stop + 1
        yield (np.fromiter(chain.from_iterable(slates[first:stop]), np.int64,
                           total), np.cumsum([0] + sizes[first:stop - 1]))
        first = stop


def _worst_slate(a: Model, b: Model, chunks) -> tuple:
    """d1, dinf and the first slate attaining d1 over ragged chunks."""
    best_d1, best_dinf, best_slate = -1.0, 0.0, ()
    for items, starts in chunks:
        diff = a.slate_distributions(items, starts)
        diff -= b.slate_distributions(items, starts)
        np.abs(diff, out=diff)
        tv = np.add.reduceat(diff, starts)
        r = int(np.argmax(tv))
        best_dinf = max(best_dinf, float(diff.max()))
        if tv[r] > best_d1:
            best_d1 = float(tv[r])
            end = np.append(starts, items.size)[r + 1]
            best_slate = tuple(items[starts[r]:end].tolist())
    return best_d1, best_dinf, best_slate


def distance_exact(a: Model, b: Model) -> DistanceReport:
    """Exact d1 and dinf over every non-empty slate; requires n <= 20."""
    n = a.n
    if b.n != n:
        raise ValueError("models must agree on n")
    if n > 20:
        raise ValueError("exhaustive slate enumeration is gated to n <= 20")
    d1, dinf, slate = _worst_slate(a, b, _subset_chunks(n))
    return DistanceReport(d1=d1, dinf=dinf, argmax_slate=slate,
                          exact=True, slates_checked=(1 << n) - 1)


def distance_sampled(a: Model, b: Model, k: int,
                     rng: np.random.Generator | None = None) -> DistanceReport:
    """Lower-bound d1 and dinf from at most k slates.

    Always includes the full slate and every prefix of a's items sorted
    heaviest first (when a is an MNL), then all pairs if the budget allows,
    then uniform random subsets until k slates, or all 2^n - n - 1 slates
    of two or more items, are listed. A one-item model has only its full
    slate.
    """
    n = a.n
    if b.n != n:
        raise ValueError("models must agree on n")
    k = _check_count(k, 1)
    if rng is None:
        rng = np.random.default_rng(0xC0FFEE)

    slates: list = [tuple(range(n))]
    seen = {slates[0]}
    if isinstance(a, LogWeightMnl):
        order = np.argsort(-a.log_w, kind="stable")
        # prefixes differ in size, so they are distinct; once k are listed
        # neither the pairs nor the random subsets below can be added
        for size in range(2, min(n, k + 1)):
            s = tuple(np.sort(order[:size]).tolist())
            seen.add(s)
            slates.append(s)
    if len(slates) + n * (n - 1) // 2 <= k:
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) not in seen:
                    seen.add((u, v))
                    slates.append((u, v))
    # every slate of size >= 2 may already be listed: stop there
    room, attempts = min(k, (1 << n) - n - 1), 0
    while len(slates) < room and attempts < 50 * k:
        attempts += 1
        size = int(rng.integers(2, n + 1))
        s = tuple(sorted(int(x) for x in
                         rng.choice(n, size=size, replace=False)))
        if s not in seen:
            seen.add(s)
            slates.append(s)
    slates = slates[:k]
    d1, dinf, slate = _worst_slate(a, b, _listed_chunks(slates))
    return DistanceReport(d1=d1, dinf=dinf, argmax_slate=slate,
                          exact=False, slates_checked=len(slates))


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
    """Flatten a query ledger into a JSON-friendly summary."""
    return {
        "total": ledger.total,
        "max_per_pair": ledger.max_per_pair,
        "pairs_touched": ledger.batch_pairs or len(ledger.per_pair),
        "per_size": {str(k): v for k, v in sorted(ledger.per_size.items())},
    }
