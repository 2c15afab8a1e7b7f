"""Federated-learning simulator with per-round participant valuation."""

__version__ = "0.1.0"

from .estimators import (
    ApproxParams,
    GroupTestingPlan,
    group_testing_plan,
    group_testing_round,
    h_bernstein,
    permutation_sample_count,
    permutation_sampling_round,
    pivot_anchor_values,
)
from .values import (
    EnumerationRefusedError,
    UtilityOracle,
    ValuationReport,
    ValueVector,
    aggregate_rounds,
    build_report,
    exact_federated_round_shapley,
    federated_loo_round,
    normalize_round_values,
    write_value_records,
)

__all__ = [
    "ApproxParams",
    "EnumerationRefusedError",
    "GroupTestingPlan",
    "UtilityOracle",
    "ValuationReport",
    "ValueVector",
    "aggregate_rounds",
    "build_report",
    "exact_federated_round_shapley",
    "federated_loo_round",
    "group_testing_plan",
    "group_testing_round",
    "h_bernstein",
    "normalize_round_values",
    "permutation_sample_count",
    "permutation_sampling_round",
    "pivot_anchor_values",
    "write_value_records",
]
