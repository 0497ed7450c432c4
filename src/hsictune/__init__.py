"""Goal-oriented kernel sensitivity analysis for mixed hyperparameter
spaces, plus a two-step surrogate optimizer driven by it."""

from .analysis import (
    GoalSet,
    ReductionCurve,
    SensitivityReport,
    best_percentile,
    interaction_matrix,
    interval_reduction,
    make_goal_flags,
    rank_group,
    run_algorithm1,
    threshold,
    worst_level_report,
    worst_percentile,
)
from .gp import GpModel, expected_improvement, gp_fit, gp_predict, gpbo
from .harness import RunManifest, Trial, load_trials, run_random_search
from .hsic import (
    EstimationError,
    HsicScore,
    Kernel,
    hsic_goal,
    hsic_pair,
    mmd2,
    select_bandwidth,
)
from .space import (
    ConditionalRule,
    ParameterSpec,
    SearchSpace,
    SpaceError,
    boolean_param,
    build_groups,
    categorical_param,
    cdf_transform,
    continuous_param,
    integer_param,
    normalize_trials,
    parse_space,
    sample_configuration,
    space_from_dict,
)
from .twostep import Budgets, FixingPolicy, TwoStepResult, two_step_optimize

__version__ = "0.1.0"
