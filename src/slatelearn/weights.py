"""Turning an estimation forest into model weights, and the end-to-end learners."""

from __future__ import annotations

import math

import numpy as np

from .config import DEFAULT_BUDGET, QueryBudget
from .forest import (EstimationForest, _traverse,
                     build_balanced_estimation_forest, build_estimation_forest)
from .models import LogWeightMnl
from .oracle import ReplayOracle, build_replay_table
from .primitives import check_delta

ALGO_TAG = 0xA160


def generate_weights(forest: EstimationForest) -> LogWeightMnl:
    """Assign model weights from a forest's ratio estimates; zero queries.

    Components are processed from the one holding the heaviest center
    downward. Within a component, the center seeds weight 1 and a traversal
    propagates w_u = w_v * r(u, v) along the edges. Every component after
    the first is rescaled by (eps / (Upsilon * n^2)) * w_min, where Upsilon
    is the component's heaviest assigned weight and w_min the lightest
    weight assigned so far, making later components negligible without
    underflow (all arithmetic stays in log space). The n^2 keeps the summed
    mass of all later components below eps/n of any slate's total even when
    the forest was built at accuracy eps directly, at no query cost.
    """
    n = forest.n
    # centers from heaviest cluster down; each unreached one roots a component
    centers = forest.graph.centers[::-1].tolist()
    order, parent, size, _, log_w = _traverse(forest, centers)
    if order.size < n:
        raise AssertionError("forest left items unassigned")
    wmin_log = 0.0
    log_n = math.log(n)
    log_eps = math.log(forest.eps)

    for k in np.flatnonzero(parent[order] < 0):
        comp = order[k:k + size[order[k]]]
        if k > 0:
            upsilon_log = float(log_w[comp].max())
            log_w[comp] += log_eps - upsilon_log - 2.0 * log_n + wmin_log
        # doubles hold the whole range comfortably; this guards the claim
        span = float(log_w[comp].max() - log_w[comp].min())
        assert span <= n * math.log(300.0 * n / forest.eps) + 1e-9
        wmin_log = min(wmin_log, float(log_w[comp].min()))
    return LogWeightMnl(log_w)


def learn_adaptive(oracle, n: int, eps: float, delta: float,
                   seed: int = 0) -> LogWeightMnl:
    """Learn an MNL to within d1 distance eps, adaptively.

    Builds an estimation forest at accuracy (eps/13)/9 with alpha = 1/2 and
    reads weights off it. Succeeds with probability 1 - delta; the expected
    query count grows as n log n times polynomial factors in 1/eps and
    log(1/delta). Individual pairs may be queried heavily.
    """
    return _learn(build_estimation_forest, oracle, n, eps, delta,
                  QueryBudget.theory().forest_eps(eps), seed)


def learn_balanced(oracle, n: int, eps: float, delta: float,
                   budget: QueryBudget = DEFAULT_BUDGET,
                   seed: int = 0) -> LogWeightMnl:
    """Learn an MNL while keeping every pair's query load polylogarithmic.

    Uses the balanced forest builder. With the default calibrated budget
    the forest is built at accuracy eps directly; the theory budget applies
    the full (eps/13)/9 composition instead.
    """
    return _learn(build_balanced_estimation_forest, oracle, n, eps, delta,
                  budget.forest_eps(eps), seed, budget=budget)


def _learn(build, oracle, n: int, eps: float, delta: float, forest_eps: float,
           seed: int, **budget) -> LogWeightMnl:
    """Both learners: the weights of ``build``'s forest at alpha = 1/2."""
    _check_learn_args(oracle, n, eps, delta)
    if n == 1:
        return LogWeightMnl(np.zeros(1))
    rng = np.random.default_rng(np.random.SeedSequence((seed, ALGO_TAG)))
    return generate_weights(build(oracle, 0.5, forest_eps, delta, rng=rng,
                                  **budget))


def learn_nonadaptive(oracle, n: int, eps: float, delta: float, m: int,
                      budget: QueryBudget = DEFAULT_BUDGET,
                      seed: int = 0) -> tuple[LogWeightMnl, ReplayOracle]:
    """Learn from one non-adaptive batch of m queries per pair.

    Charges the live oracle every pair's m queries up front as one batch,
    then runs the balanced learner against the batch's answers without
    touching the live oracle again; the replay draws only the answers the
    learner reads. Raises ``ReplayBudgetExhausted`` if some pair needs more
    than m answers, ``DemandTooLarge`` if one read asks a pair for more
    than STREAM_MAX_DRAWS, which no m serves. Returns the model and the
    replay oracle (whose ledger shows the simulated per-pair consumption).
    """
    _check_learn_args(oracle, n, eps, delta)
    table = build_replay_table(oracle, m)
    replay = ReplayOracle(table)
    model = learn_balanced(replay, n, eps, delta, budget, seed)
    return model, replay


def _check_learn_args(oracle, n: int, eps: float, delta: float) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n != oracle.n:
        raise ValueError("n is {} but the oracle has {} items".format(n, oracle.n))
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    check_delta(delta)
