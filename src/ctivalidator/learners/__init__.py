"""Prediction-model building: algorithm families, tuning and selection."""

from .algorithms import (
    FAMILIES,
    OPTIONAL_TIER,
    REQUIRED_TIER,
    TIERS,
    families_for_tiers,
    make_model,
    mlp_loss_and_grad,
    model_from_payload,
)
from .training import (
    DEFAULT_BUDGET,
    DEFAULT_N_TRIALS,
    DEFAULT_TEST_FRACTION,
    DEFAULT_TIERS,
    BudgetClock,
    BuildBudget,
    BuildReport,
    CandidateFailure,
    SplitResult,
    TrainedModel,
    TuneResult,
    build_candidates,
    grid_points,
    make_label_map,
    predict,
    select_optimal,
    split,
    train,
    tune,
)

# Run metadata: the split kernels are numpy and there is no compiled backend.
KERNEL_BACKEND = "numpy"
HAS_NUMBA = False

__all__ = [
    "BudgetClock",
    "BuildBudget",
    "BuildReport",
    "CandidateFailure",
    "DEFAULT_BUDGET",
    "DEFAULT_N_TRIALS",
    "DEFAULT_TEST_FRACTION",
    "DEFAULT_TIERS",
    "FAMILIES",
    "HAS_NUMBA",
    "KERNEL_BACKEND",
    "OPTIONAL_TIER",
    "REQUIRED_TIER",
    "SplitResult",
    "TIERS",
    "TrainedModel",
    "TuneResult",
    "build_candidates",
    "families_for_tiers",
    "grid_points",
    "make_label_map",
    "make_model",
    "mlp_loss_and_grad",
    "model_from_payload",
    "predict",
    "select_optimal",
    "split",
    "train",
    "tune",
]
