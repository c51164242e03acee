"""Sample-budget presets for the pair-balanced pipeline.

The balanced forest builder's published worst-case sample sizes multiply out
to astronomically many draws at any bench-scale parameter choice (the group
size alone exceeds 1e16 values per ratio estimate at n = 6, eps = 0.5), so
running them verbatim is not possible on a desk budget. The builder therefore
takes an explicit :class:`QueryBudget`:

* ``QueryBudget.theory()`` reproduces the worst-case formulas exactly
  (accuracy cascade eps1 = eps/10, eps2 = eps1/30; infinity threshold
  beta_i = alpha^2 eps1 / (49 |C_i| Lambda(n)); median-of-means group count
  M = ceil(8 log(2/delta)) and group size
  N = ceil(2 A1 (1 + A1/A2) B1^2 / (alpha eps^2)); the learner builds the
  forest at accuracy (eps/13)/9).

* ``QueryBudget.calibrated()`` (the default for learners) keeps every
  structural rule of the builder, including the flooring, the scan window
  Lambda(n), the spreading of queries across a cluster, and the failure
  branch, but replaces the worst-case sample-size multipliers with
  empirically sufficient ones: beta_i drops its Lambda(n) factor, M and N
  come from ``ber_m_mult`` and ``ber_n_mult``, and the learner builds the
  forest at accuracy eps. The scaling laws in n are untouched; only
  leading constants and the accuracy cascade differ.

The ``worst_case`` flag switches those three rules together. The adaptive
pipeline has no budget knob: it uses the published constants verbatim,
which is affordable because win counts are drawn in O(1) time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class QueryBudget:
    # accuracy cascade inside the balanced builder
    eps1_div: float          # eps1 = eps / eps1_div
    eps2_div: float          # eps2 = eps1 / eps2_div
    eps2_cap: float          # eps2 is clamped below this (ratio estimates need < 1/5)
    # infinity threshold beta_i
    beta_denom: float        # beta_i = alpha^2 eps1 / (beta_denom * |C_i| [* Lambda])
    # True: beta_i takes the Lambda factor, M and N of a balanced estimate
    # come from the published formulas, and the learner builds its forest
    # at (eps/13)/9; False: no Lambda, the two multipliers below, and eps
    worst_case: bool
    ber_m_mult: float        # M = max(3, ceil(ber_m_mult * log(2/delta)))
    ber_n_mult: float        # N = ceil(ber_n_mult * (1/alpha + 1/eps^2))

    @staticmethod
    def theory() -> "QueryBudget":
        return QueryBudget(
            eps1_div=10.0, eps2_div=30.0, eps2_cap=math.inf,
            beta_denom=49.0, worst_case=True, ber_m_mult=8.0, ber_n_mult=1.0,
        )

    @staticmethod
    def calibrated() -> "QueryBudget":
        return QueryBudget(
            eps1_div=1.0, eps2_div=3.0, eps2_cap=0.19,
            beta_denom=4.0, worst_case=False, ber_m_mult=2.0, ber_n_mult=16.0,
        )

    def split_eps(self, eps: float) -> tuple[float, float]:
        eps1 = eps / self.eps1_div
        eps2 = min(eps1 / self.eps2_div, self.eps2_cap)
        return eps1, eps2


DEFAULT_BUDGET = QueryBudget.calibrated()
