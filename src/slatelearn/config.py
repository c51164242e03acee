"""Sample-budget presets for the pair-balanced pipeline.

The balanced forest builder's published worst-case sample sizes multiply out
to astronomically many draws at any bench-scale parameter choice (the group
size alone exceeds 1e16 values per ratio estimate at n = 6, eps = 0.5), so
running them verbatim is not possible on a desk budget. A
:class:`QueryBudget` is one of two presets, and every rule that tells them
apart is one of its methods:

* ``QueryBudget.theory()`` reproduces the worst-case formulas exactly
  (accuracy cascade eps1 = eps/10, eps2 = eps1/30; infinity threshold
  beta_i = alpha^2 eps1 / (49 |C_i| Lambda(n)); median-of-means group count
  M = ceil(8 log(2/delta)) and group size
  N = ceil(2 A1 (1 + A1/A2) B1^2 / (alpha eps^2)); the learner builds the
  forest at accuracy (eps/13)/9). ``learn_adaptive`` reads its forest
  accuracy from this preset.

* ``QueryBudget.calibrated()`` (the default for learners) keeps every
  structural rule of the builder, including the flooring, the scan window
  Lambda(n), the spreading of queries across a cluster, and the failure
  branch, but replaces the worst-case sample-size multipliers with
  empirically sufficient ones: eps2 = min(eps/3, 0.19), beta_i =
  alpha^2 eps1 / (4 |C_i|) without the Lambda(n) factor,
  M = max(3, ceil(2 log(2/delta))), N = ceil(16 (1/alpha + 1/eps^2)), and
  the learner builds the forest at accuracy eps. The scaling laws in n are
  untouched; only leading constants and the accuracy cascade differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .primitives import BalancedEstimateParams, check_balanced_eps


@dataclass(frozen=True)
class QueryBudget:
    worst_case: bool         # True: the published constants; False: calibrated

    @staticmethod
    def theory() -> "QueryBudget":
        return QueryBudget(worst_case=True)

    @staticmethod
    def calibrated() -> "QueryBudget":
        return QueryBudget(worst_case=False)

    def forest_eps(self, eps: float) -> float:
        """The accuracy a learner builds its forest at, for target eps."""
        return (eps / 13.0) / 9.0 if self.worst_case else eps

    def split_eps(self, eps: float) -> tuple[float, float]:
        """The balanced builder's accuracy cascade (eps1, eps2)."""
        if self.worst_case:
            eps1 = eps / 10.0
            return eps1, eps1 / 30.0
        return eps, min(eps / 3.0, 0.19)  # ratio estimates need eps2 < 1/5

    def beta(self, alpha: float, eps1: float, sizes, window: int):
        """Infinity thresholds beta_i of clusters of the given sizes."""
        if self.worst_case:
            return (alpha * alpha * eps1) / (49.0 * sizes * window)
        return (alpha * alpha * eps1) / (4.0 * sizes)

    def balanced_params(self, graph, eps: float, alpha: float,
                        delta: float) -> BalancedEstimateParams:
        """Sample shape of one balanced estimate on ``graph``; needs eps < 1/5."""
        if self.worst_case:
            return BalancedEstimateParams.from_formulas(
                graph.a1, graph.a2, eps, alpha, delta)
        check_balanced_eps(eps)
        M = max(3, math.ceil(2.0 * math.log(2.0 / delta)))
        N = math.ceil(16.0 * (1.0 / alpha + 1.0 / (eps * eps)))
        return BalancedEstimateParams(M=M, N=N)


DEFAULT_BUDGET = QueryBudget.calibrated()
