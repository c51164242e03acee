"""Choice model types, exact slate distributions, and instance generators.

Items are 0-based indices into ``range(n)`` everywhere in this package.
A *slate* is any non-empty subset of the items, passed as a sequence of
distinct indices; distributions returned by :func:`slate_distribution` are
aligned with the order of the slate as given.

Each model computes distributions in one place, its batched
``slate_distributions`` over ragged slates: a flat array of item ids,
increasing within each slate, and the offset where each slate starts. It
costs what the slates hold, not slates x n. :func:`slate_distribution` is
its one-slate call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class LogWeightMnl:
    """A multinomial logit model stored as natural-log weights.

    The probability that item i wins a slate S is
    exp(log_w[i]) / sum_{j in S} exp(log_w[j]), always evaluated in the log
    domain with max-subtraction so that extreme scale gaps do not overflow.
    """

    log_w: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.log_w, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("log_w must be a non-empty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("log weights must be finite (weights strictly positive)")
        object.__setattr__(self, "log_w", arr)

    @property
    def n(self) -> int:
        return self.log_w.size

    def slate_distribution(self, slate) -> np.ndarray:
        return slate_distribution(self, slate)

    def slate_distributions(self, items, starts) -> np.ndarray:
        """Winning distributions of many slates at once.

        Slate r is ``items[starts[r]:starts[r + 1]]`` (the last runs to the
        end), its ids strictly increasing. Entry j of the result is the
        probability that ``items[j]`` wins its slate.
        """
        items, starts, sizes = _check_ragged(items, starts, self.n)
        probs = self.log_w[items]
        probs -= np.repeat(np.maximum.reduceat(probs, starts), sizes)
        np.exp(probs, out=probs)
        probs /= np.repeat(np.add.reduceat(probs, starts), sizes)
        return probs


@dataclass(frozen=True)
class MatchingPseudoMnl:
    """A paired limit instance that is not an MNL but answers slate queries.

    Items are matched into n/2 pairs through the permutation ``pi``:
    pair i consists of ``pi[2i]`` and ``pi[2i+1]``. On any slate the winner
    comes from the highest-indexed pair intersecting the slate; if both
    members are present the later one (``pi[2i+1]``) wins with probability
    ``p[i]``, and a lone member wins outright.
    """

    p: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        pi = np.asarray(self.pi, dtype=np.int64)
        if p.ndim != 1 or pi.ndim != 1 or pi.size != 2 * p.size:
            raise ValueError("need len(pi) == 2 * len(p)")
        if not np.all((p >= 0.0) & (p <= 1.0)):
            raise ValueError("head probabilities must lie in [0, 1]")
        if not np.array_equal(np.sort(pi), np.arange(pi.size)):
            raise ValueError("pi must be a permutation of range(n)")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "pi", pi)

    @property
    def n(self) -> int:
        return self.pi.size

    def slate_distribution(self, slate) -> np.ndarray:
        return slate_distribution(self, slate)

    def slate_distributions(self, items, starts) -> np.ndarray:
        """Batched form, as :meth:`LogWeightMnl.slate_distributions`."""
        items, starts, sizes = _check_ragged(items, starts, self.n)
        pos = np.empty(self.n, dtype=np.int64)
        pos[self.pi] = np.arange(self.n)
        at = pos[items]
        pair = np.repeat(np.maximum.reduceat(at, starts) // 2, sizes)
        mine = at // 2 == pair
        both = np.repeat(np.add.reduceat(mine, starts) == 2, sizes)
        p = np.where(at % 2 == 1, self.p[pair], 1.0 - self.p[pair])
        return np.where(mine, np.where(both, p, 1.0), 0.0)


Model = LogWeightMnl | MatchingPseudoMnl


def _check_slate(ids, n: int) -> np.ndarray:
    """``ids`` as int64, refusing all but a non-empty 1-d run of range(n)."""
    arr = np.asarray(ids)
    if arr.ndim != 1 or arr.size == 0 or arr.dtype.kind not in "iu":
        raise ValueError("need a non-empty sequence of integer ids")
    arr = arr.astype(np.int64, copy=False)
    if arr.min() < 0 or arr.max() >= n:
        raise ValueError("ids must lie in range({})".format(n))
    return arr


def _check_ragged(items, starts, n: int) -> tuple:
    """Ragged slates as checked items, starts and sizes, else ValueError."""
    items = _check_slate(items, n)
    starts = _check_slate(starts, items.size)
    sizes = np.diff(starts, append=items.size)
    _require(starts[0] == 0 and (sizes > 0).all(),
             "slate offsets must start at 0 and rise strictly")
    rising = items[1:] > items[:-1]
    rising[starts[1:] - 1] = True
    _require(rising.all(), "slate items must strictly increase")
    return items, starts, sizes


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def slate_distribution(model: Model, slate) -> np.ndarray:
    """Exact winning distribution of ``model`` on ``slate``, in slate order.

    The model's ``slate_distributions`` of the sorted slate, put back in
    slate order; O(|slate|).
    """
    slate = _check_slate(slate, model.n)
    order = np.argsort(slate)
    probs = np.empty(slate.size)
    probs[order] = model.slate_distributions(slate[order], [0])
    return probs


def pair_probability(model: Model, u: int, v: int) -> float:
    """P(u wins the slate {u, v}), computed without building arrays for MNLs."""
    if u == v:
        raise ValueError("pair items must be distinct")
    if isinstance(model, LogWeightMnl):
        try:
            if u < 0 or v < 0:   # numpy reads -1 as n - 1
                raise IndexError
            gap = model.log_w[v] - model.log_w[u]
        except IndexError:   # numpy refuses a fractional id or one >= n
            raise ValueError("pair ids must be integers in range({})".format(
                model.n)) from None
        if gap >= 0:
            return float(np.exp(-np.log1p(np.exp(-gap)) - gap))
        return float(np.exp(-np.log1p(np.exp(gap))))
    return float(pair_probabilities(model, u, v))


def pair_probabilities(model: Model, us, vs) -> np.ndarray:
    """P(us[i] wins the slate {us[i], vs[i]}) for every i, O(1) per pair.

    Bit for bit :func:`pair_probability` of each pair.
    """
    us, vs = np.asarray(us), np.asarray(vs)
    # a cast would read a fractional id as its floor
    _require(all(x.dtype.kind in "iu" or not x.size for x in (us, vs)),
             "pair ids must be integers")
    us, vs = us.astype(np.int64, copy=False), vs.astype(np.int64, copy=False)
    if (us == vs).any():
        raise ValueError("pair items must be distinct")
    # numpy reads -1 as n - 1
    _require(all(((x >= 0) & (x < model.n)).all() for x in (us, vs)),
             "pair ids must be integers in range({})".format(model.n))
    return _pair_probabilities(model, us, vs)


def _pair_probabilities(model: Model, us, vs) -> np.ndarray:
    """:func:`pair_probabilities` of ids already known to be distinct
    integer items of ``range(model.n)``, as the oracles' checks leave them."""
    if isinstance(model, LogWeightMnl):
        gap = model.log_w[vs] - model.log_w[us]
        return np.exp(-np.log1p(np.exp(-np.abs(gap))) - np.maximum(gap, 0.0))
    # the member of the higher pair in pi wins; within one pair, pi[2i + 1]
    # wins with probability p[i]
    pos = np.empty(model.n, dtype=np.int64)
    pos[model.pi] = np.arange(model.n)
    pair_u, pair_v = pos[us] // 2, pos[vs] // 2
    p = model.p[pair_u]
    return np.where(pair_u == pair_v, np.where(pos[us] % 2 == 1, p, 1.0 - p),
                    (pair_u > pair_v).astype(np.float64))


KINDS = ("uniform", "geometric-ratio", "power-law", "two-scale", "pseudo-mnl")


@dataclass(frozen=True)
class InstanceSpec:
    """Recipe for a reproducible test instance.

    kind-specific parameters:
      uniform          n
      geometric-ratio  n, rho > 0; log weight of item i is (i+1) * ln(rho)
      power-law        n, gamma >= 0; weights are rank^(-gamma) over a
                       seeded random assignment of ranks 1..n
      two-scale        n, K > 0; n-1 items of weight 1 and a last item of
                       weight K
      pseudo-mnl       p (and optionally pi, defaulting to the identity)
    """

    kind: str
    n: int = 0
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("unknown instance kind {!r}".format(self.kind))


def generate_instance(spec: InstanceSpec) -> Model:
    kind, n, params = spec.kind, spec.n, spec.params
    if kind == "uniform":
        _require(n >= 1, "n must be >= 1")
        return LogWeightMnl(np.zeros(n))
    if kind == "geometric-ratio":
        rho = float(params.get("rho", 2.0))
        _require(n >= 1 and rho > 0.0, "need n >= 1 and rho > 0")
        return LogWeightMnl(np.arange(1, n + 1) * np.log(rho))
    if kind == "power-law":
        gamma = float(params.get("gamma", 1.0))
        _require(n >= 1 and gamma >= 0.0, "need n >= 1 and gamma >= 0")
        rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 0x9E3779B9)))
        ranks = rng.permutation(n) + 1
        return LogWeightMnl(-gamma * np.log(ranks))
    if kind == "two-scale":
        K = float(params.get("K", 1e6))
        _require(n >= 1 and K > 0.0, "need n >= 1 and K > 0")
        log_w = np.zeros(n)
        log_w[-1] = np.log(K)
        return LogWeightMnl(log_w)
    # InstanceSpec admits only KINDS, so what is left is pseudo-mnl
    p = np.asarray(params["p"], dtype=np.float64)
    pi = params.get("pi")
    if pi is None:
        pi = np.arange(2 * p.size)
    return MatchingPseudoMnl(p, np.asarray(pi, dtype=np.int64))


def model_to_dict(model: Model) -> dict:
    if isinstance(model, LogWeightMnl):
        return {"kind": "mnl", "log_weights": model.log_w.tolist()}
    return {"kind": "pseudo_mnl", "p": model.p.tolist(), "pi": model.pi.tolist()}


def model_from_dict(doc: dict) -> Model:
    if not isinstance(doc, dict):
        raise ValueError("a model must be a JSON object")
    kind = doc.get("kind")
    if kind == "mnl":
        return LogWeightMnl(np.asarray(doc["log_weights"], dtype=np.float64))
    if kind == "pseudo_mnl":
        return MatchingPseudoMnl(
            np.asarray(doc["p"], dtype=np.float64),
            np.asarray(doc["pi"], dtype=np.int64),
        )
    raise ValueError("unknown model kind {!r}".format(kind))


def save_model(model: Model, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh)
        fh.write("\n")


def load_model(path) -> Model:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
