"""The four benchmark workloads: instances, one learn step, one check step.

Every workload draws power-law instances (gamma = 1) and runs with
delta = 0.1. A workload owns a fixed list of step seeds derived from the
run's seed; each step seed names the instance, the oracle streams and the
learner's own randomness, so one step seed always replays the same step.
The package only ever sees the generated instances and oracles.

Importing this module imports slatelearn and numpy, which is part of the
timed set-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import slatelearn as sl

DELTA = 0.1
GAMMA = 1.0
SAMPLED_SLATES = 200


@dataclass
class Case:
    """One step seed: its ground-truth instance and a fresh live oracle."""

    seed: int
    truth: sl.LogWeightMnl
    oracle: sl.LiveOracle


@dataclass
class Learned:
    """What a learn step produced."""

    log_w: np.ndarray
    learner_oracle: object        # the oracle whose ledger holds the learner's queries
    forest: sl.EstimationForest | None = None


@dataclass
class Checked:
    """Outcome of a check step."""

    ok: bool
    detail: str


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    eps: float
    seeds: int                     # distinct step seeds per run
    pair_mode: str
    learn: Callable[["Workload", Case], Learned]
    check: Callable[["Workload", Case, Learned], Checked]
    m: int = 0                     # replay batch per pair (non-adaptive only)

    def oracle(self, seed: int, truth) -> sl.LiveOracle:
        return sl.LiveOracle(truth, seed, pair_mode=self.pair_mode)

    def case(self, seed: int) -> Case:
        truth = sl.generate_instance(
            sl.InstanceSpec("power-law", self.n, seed, {"gamma": GAMMA}))
        return Case(seed=seed, truth=truth, oracle=self.oracle(seed, truth))


def step_seeds(run_seed: int, count: int) -> list[int]:
    """The fixed list of step seeds a run derives from its seed argument."""
    words = np.random.SeedSequence(run_seed).generate_state(count)
    return [int(w) for w in words]


# Library entry points are looked up on the package at call time, so the
# tracer's wrappers on ``slatelearn.<name>`` see the benchmark's own calls.

def _learn_adaptive(wl: Workload, case: Case) -> Learned:
    model = sl.learn_adaptive(case.oracle, wl.n, wl.eps, DELTA, seed=case.seed)
    return Learned(model.log_w, case.oracle)


def _learn_balanced(wl: Workload, case: Case) -> Learned:
    model = sl.learn_balanced(case.oracle, wl.n, wl.eps, DELTA, seed=case.seed)
    return Learned(model.log_w, case.oracle)


def _learn_nonadaptive(wl: Workload, case: Case) -> Learned:
    model, replay = sl.learn_nonadaptive(case.oracle, wl.n, wl.eps, DELTA,
                                         wl.m, seed=case.seed)
    return Learned(model.log_w, replay)


def _learn_forest(wl: Workload, case: Case) -> Learned:
    # the forest learn_adaptive builds: alpha = 1/2, accuracy (eps/13)/9
    forest = sl.build_estimation_forest(case.oracle, 0.5, (wl.eps / 13.0) / 9.0,
                                        DELTA, np.random.default_rng(case.seed))
    model = sl.generate_weights(forest)
    return Learned(model.log_w, case.oracle, forest)


def _d1_checked(wl: Workload, report) -> Checked:
    return Checked(ok=report.d1 <= wl.eps,
                   detail="d1 {:.3g} vs eps {}".format(report.d1, wl.eps))


def _check_sampled(wl: Workload, case: Case, learned: Learned) -> Checked:
    return _d1_checked(wl, sl.distance_sampled(
        case.truth, sl.LogWeightMnl(learned.log_w), SAMPLED_SLATES))


def _check_exact(wl: Workload, case: Case, learned: Learned) -> Checked:
    return _d1_checked(wl, sl.distance_exact(case.truth,
                                             sl.LogWeightMnl(learned.log_w)))


def _check_forest(wl: Workload, case: Case, learned: Learned) -> Checked:
    report = sl.validate_forest(learned.forest, case.truth.log_w)
    return Checked(ok=report.ok,
                   detail="{} forest violations".format(len(report.violations)))


def catalog(tiny: bool = False) -> dict[str, Workload]:
    """All workloads by name; ``tiny`` shrinks n (and m) for the smoke test."""
    def size(full: int, small: int) -> int:
        return small if tiny else full
    return {wl.name: wl for wl in (
        Workload("adaptive-wide", size(4096, 64), 0.3, 4, "binomial",
                 _learn_adaptive, _check_sampled),
        Workload("balanced-spread", size(256, 32), 0.3, 13, "binomial",
                 _learn_balanced, _check_sampled),
        Workload("nonadaptive-exact", size(14, 6), 0.5, 4, "stream",
                 _learn_nonadaptive, _check_exact, m=size(500_000, 300_000)),
        Workload("forest-audit", size(1024, 64), 0.3, 9, "binomial",
                 _learn_forest, _check_forest),
    )}
