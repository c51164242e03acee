"""Learning multinomial logit choice models from a conditional-sampling oracle.

The oracle answers one question: given a slate of items, which one wins?
This package reconstructs the underlying item weights to any target
worst-slate accuracy, with either an adaptive strategy (fewest total
queries) or a balanced one (no single pair is hammered), plus a replay
layer that turns the balanced learner into a one-batch non-adaptive one.
"""

from .config import DEFAULT_BUDGET, QueryBudget
from .errors import (DemandTooLarge, ForestBuildFailure, GeometricCapExceeded,
                     ReplayBudgetExhausted, SlateLearnError)
from .forest import (EstimationForest, PotentialState, ViolationReport,
                     build_balanced_estimation_forest, build_estimation_forest,
                     validate_forest)
from .metrics import (DistanceReport, distance_exact, distance_sampled,
                      ledger_report, separation_fixture)
from .models import (InstanceSpec, LogWeightMnl, MatchingPseudoMnl, Model,
                     generate_instance, load_model, model_from_dict,
                     model_to_dict, pair_probabilities, pair_probability,
                     save_model, slate_distribution)
from .oracle import (LiveOracle, QueryLedger, ReplayOracle, ReplayTable,
                     build_replay_table)
from .ordering import (ClusterGraph, cluster_sort, epsilon_ordering,
                       quicksort_clustering)
from .primitives import (BalancedEstimateParams, RatioEstimate,
                         balanced_estimate_ratio, compare, estimate_ratio,
                         get_geometric)
from .weights import (generate_weights, learn_adaptive, learn_balanced,
                      learn_nonadaptive)

__version__ = "0.1.0"

__all__ = [
    "BalancedEstimateParams", "ClusterGraph", "DEFAULT_BUDGET",
    "DemandTooLarge", "DistanceReport", "EstimationForest",
    "ForestBuildFailure", "GeometricCapExceeded", "InstanceSpec", "LiveOracle",
    "LogWeightMnl", "MatchingPseudoMnl", "Model", "PotentialState",
    "QueryBudget", "QueryLedger", "RatioEstimate", "ReplayBudgetExhausted",
    "ReplayOracle", "ReplayTable", "SlateLearnError", "ViolationReport",
    "balanced_estimate_ratio", "build_balanced_estimation_forest",
    "build_estimation_forest", "build_replay_table", "cluster_sort", "compare",
    "distance_exact", "distance_sampled", "epsilon_ordering", "estimate_ratio",
    "generate_instance", "generate_weights", "get_geometric", "ledger_report",
    "learn_adaptive", "learn_balanced", "learn_nonadaptive", "load_model",
    "model_from_dict", "model_to_dict", "pair_probabilities",
    "pair_probability", "quicksort_clustering", "save_model",
    "separation_fixture", "slate_distribution", "validate_forest",
]
