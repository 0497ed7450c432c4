"""Built-in objective functions for exercising the analysis pipeline.

An objective owns its search space and evaluates one configuration into a
Trial; evaluation is deterministic given (configuration, seed).  Scores are
errors, lower is better.
"""

from __future__ import annotations

from .analytic import (
    BraninObjective,
    Example1Objective,
    Example2Objective,
    Example3Objective,
    QuadraticObjective,
    ThreeTermObjective,
    branin,
    example1,
    example2,
    example3,
    runge,
)
from .bateman import (
    BatemanSystem,
    DEFAULT_SYSTEM,
    SolverDivergedError,
    bateman_dataset,
    bateman_rhs,
    bateman_solve,
    dataset_to_csv,
    rate_matrix,
)
from .mlp import (
    MlpConfig,
    MlpNet,
    RungeMlpObjective,
    mlp_train_eval,
    runge_space,
)

__all__ = [
    "example1", "example2", "example3", "runge", "branin",
    "Example1Objective", "Example2Objective", "Example3Objective",
    "QuadraticObjective", "BraninObjective", "ThreeTermObjective",
    "BatemanSystem", "DEFAULT_SYSTEM", "SolverDivergedError",
    "bateman_rhs", "bateman_solve", "bateman_dataset", "dataset_to_csv",
    "rate_matrix",
    "MlpConfig", "MlpNet", "RungeMlpObjective",
    "mlp_train_eval", "runge_space",
    "build_objective", "OBJECTIVE_NAMES",
]

_FACTORIES = {
    "example1": Example1Objective,
    "example2": Example2Objective,
    "example3": Example3Objective,
    "quadratic1d": QuadraticObjective,
    "branin": BraninObjective,
    "three_term": ThreeTermObjective,
    "runge_mlp": RungeMlpObjective,
}

OBJECTIVE_NAMES = tuple(sorted(_FACTORIES))


def build_objective(name: str, **kwargs):
    """Instantiate a built-in objective by name."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown objective {name!r}; choose from {', '.join(OBJECTIVE_NAMES)}"
        )
    return factory(**kwargs)
