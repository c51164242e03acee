"""Choice model types, exact slate distributions, and instance generators.

Items are 0-based indices into ``range(n)`` everywhere in this package.
A *slate* is any non-empty subset of the items, passed as a sequence of
distinct indices; distributions returned by :func:`slate_distribution` are
aligned with the order of the slate as given.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp


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
        slate = _check_slate(slate, self.n)
        lw = self.log_w[slate]
        return np.exp(lw - logsumexp(lw))

    def slate_distributions(self, masks) -> np.ndarray:
        """Winning distributions of many slates at once.

        ``masks`` is a boolean rows x n matrix holding one non-empty slate
        per row. Row r of the result is the distribution on the slate
        ``flatnonzero(masks[r])``, indexed by item and zero off the slate.
        """
        probs = np.where(_check_masks(masks, self.n), self.log_w, -np.inf)
        probs -= probs.max(axis=1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=1, keepdims=True)
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
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise ValueError("head probabilities must lie in [0, 1]")
        if not np.array_equal(np.sort(pi), np.arange(pi.size)):
            raise ValueError("pi must be a permutation of range(n)")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "pi", pi)

    @property
    def n(self) -> int:
        return self.pi.size

    def slate_distribution(self, slate) -> np.ndarray:
        slate = _check_slate(slate, self.n)
        mask = np.zeros((1, self.n), dtype=bool)
        mask[0, slate] = True
        return self.slate_distributions(mask)[0, slate]

    def slate_distributions(self, masks) -> np.ndarray:
        """Batched form, as :meth:`LogWeightMnl.slate_distributions`."""
        masks = _check_masks(masks, self.n)
        pos = np.empty(self.n, dtype=np.int64)
        pos[self.pi] = np.arange(self.n)
        pair = np.where(masks, pos, -1).max(axis=1) // 2
        lo, hi = self.pi[2 * pair], self.pi[2 * pair + 1]
        rows = np.arange(masks.shape[0])
        lo_in, hi_in = masks[rows, lo], masks[rows, hi]
        probs = np.zeros(masks.shape)
        probs[rows, hi] = np.where(lo_in, self.p[pair], 1.0) * hi_in
        probs[rows, lo] = np.where(hi_in, 1.0 - self.p[pair], 1.0) * lo_in
        return probs


Model = LogWeightMnl | MatchingPseudoMnl


def _check_slate(slate, n: int) -> np.ndarray:
    arr = np.asarray(slate, dtype=np.int64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("slate must be a non-empty sequence of items")
    if np.any(arr < 0) or np.any(arr >= n):
        raise ValueError("slate contains out-of-range items")
    if np.unique(arr).size != arr.size:
        raise ValueError("slate items must be distinct")
    return arr


def _check_masks(masks, n: int) -> np.ndarray:
    arr = np.asarray(masks, dtype=bool)
    if arr.ndim != 2 or arr.shape[1] != n or not arr.any(axis=1).all():
        raise ValueError("masks must be rows x n booleans, no row all false")
    return arr


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def slate_distribution(model: Model, slate) -> np.ndarray:
    """Exact winning distribution of ``model`` on ``slate``."""
    return model.slate_distribution(slate)


def pair_probability(model: Model, u: int, v: int) -> float:
    """P(u wins the slate {u, v}), computed without building arrays for MNLs."""
    if u == v:
        raise ValueError("pair items must be distinct")
    if isinstance(model, LogWeightMnl):
        gap = model.log_w[v] - model.log_w[u]
        if gap >= 0:
            return float(np.exp(-np.log1p(np.exp(-gap)) - gap))
        return float(np.exp(-np.log1p(np.exp(gap))))
    return float(model.slate_distribution(np.array([u, v]))[0])


KINDS = ("uniform", "geometric-ratio", "power-law", "two-scale", "explicit", "pseudo-mnl")


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
      explicit         log_w given verbatim
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
    if kind == "explicit":
        return LogWeightMnl(np.asarray(params["log_w"], dtype=np.float64))
    if kind == "pseudo-mnl":
        p = np.asarray(params["p"], dtype=np.float64)
        pi = params.get("pi")
        if pi is None:
            pi = np.arange(2 * p.size)
        return MatchingPseudoMnl(p, np.asarray(pi, dtype=np.int64))
    raise AssertionError("unreachable")


def model_to_dict(model: Model) -> dict:
    if isinstance(model, LogWeightMnl):
        return {"kind": "mnl", "log_weights": model.log_w.tolist()}
    return {"kind": "pseudo_mnl", "p": model.p.tolist(), "pi": model.pi.tolist()}


def model_from_dict(doc: dict) -> Model:
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
