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
  N = ceil(2 A1 (1 + A1/A2) B1^2 / (alpha eps^2))).

* ``QueryBudget.calibrated()`` (the default for learners) keeps every
  structural rule of the builder, including the flooring, the scan window
  Lambda(n), the spreading of queries across a cluster, and the failure
  branch, but replaces the worst-case sample-size multipliers with
  empirically sufficient ones. The scaling laws in n are untouched; only
  leading constants and the accuracy cascade differ.

The adaptive pipeline has no budget knob: it uses the published constants
verbatim, which is affordable because win counts are drawn in O(1) time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class QueryBudget:
    name: str
    # accuracy cascade inside the balanced builder
    eps1_div: float          # eps1 = eps / eps1_div
    eps2_div: float          # eps2 = eps1 / eps2_div
    eps2_cap: float          # eps2 is clamped below this (ratio estimates need < 1/5)
    # infinity threshold beta_i
    beta_denom: float        # beta_i = alpha^2 eps1 / (beta_denom * |C_i| [* Lambda])
    beta_uses_lambda: bool
    # median-of-means shape for ratio estimates issued by the builder; the
    # two multipliers are read only when ber_theory_n is False
    ber_m_mult: float        # M = max(3, ceil(ber_m_mult * log(2/delta)))
    ber_theory_n: bool       # True: M and N from the published formulas
    ber_n_mult: float        # else N = ceil(ber_n_mult * (1/alpha + 1/eps^2))
    # learner composition: True applies the eps/13 and eps'/9 budget split
    compose_theory: bool

    @staticmethod
    def theory() -> "QueryBudget":
        return QueryBudget(
            name="theory",
            eps1_div=10.0, eps2_div=30.0, eps2_cap=math.inf,
            beta_denom=49.0, beta_uses_lambda=True,
            ber_m_mult=8.0, ber_theory_n=True, ber_n_mult=1.0,
            compose_theory=True,
        )

    @staticmethod
    def calibrated() -> "QueryBudget":
        return QueryBudget(
            name="calibrated",
            eps1_div=1.0, eps2_div=3.0, eps2_cap=0.19,
            beta_denom=4.0, beta_uses_lambda=False,
            ber_m_mult=2.0, ber_theory_n=False, ber_n_mult=16.0,
            compose_theory=False,
        )

    def split_eps(self, eps: float) -> tuple[float, float]:
        eps1 = eps / self.eps1_div
        eps2 = min(eps1 / self.eps2_div, self.eps2_cap)
        return eps1, eps2


DEFAULT_BUDGET = QueryBudget.calibrated()
