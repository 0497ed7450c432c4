"""Two-step optimization: fix what does not matter, optimize what does.

After a random search and its sensitivity report, parameters split three
ways.  Ordered parameters with a declared cheap direction get pinned to the
cheap end of their (possibly reduced) domain.  Other non-impactful
parameters copy their value from the best observed trial, except that a
member of a flagged interaction pair whose partner was speed-fixed copies
the joint value from the best trial in the partner's matching region.
The impactful parameters are optimized first; a second pass then fine-tunes
the rest, starting from the first pass's optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .analysis import (
    GoalSet,
    ReductionCurve,
    SensitivityReport,
    interval_reduction,
    run_algorithm1,
)
from .gp import gpbo
from .harness import _best_trial
from .hsic import EstimationError
from .space import SearchSpace

__all__ = [
    "FixingPolicy",
    "Budgets",
    "TwoStepResult",
    "select_fixed_values",
    "two_step_optimize",
]

PROVENANCE_SPEED = "speed"
PROVENANCE_BEST = "best_trial"
PROVENANCE_INTERACTION = "interaction"


@dataclass(frozen=True)
class FixingPolicy:
    """How to choose values for parameters the optimizer will not touch.

    mode "accuracy_and_speed" keeps speed-fixed values through both steps;
    "accuracy_only" re-opens them in step 2.  speed_directions maps ordered
    parameter names to "minimize"/"maximize"/"neutral", declaring which end
    of the domain is cheaper to execute.
    """

    mode: str = "accuracy_and_speed"
    speed_directions: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in ("accuracy_and_speed", "accuracy_only"):
            raise ValueError("mode must be accuracy_and_speed or accuracy_only")
        for d in self.speed_directions.values():
            if d not in ("minimize", "maximize", "neutral"):
                raise ValueError("speed direction must be minimize/maximize/neutral")


@dataclass(frozen=True)
class Budgets:
    n_init_step1: int = 10
    n_iter_step1: int = 25
    n_init_step2: int = 10
    n_iter_step2: int = 25


@dataclass
class TwoStepResult:
    fixed: dict                   # parameter -> pinned value for step 1
    provenance: dict              # parameter -> speed | best_trial | interaction
    step1_dims: tuple
    step2_dims: tuple
    step1_incumbent: object
    step2_incumbent: object
    history_step1: list
    history_step2: list
    report: SensitivityReport
    curves: dict
    n_random: int

    @property
    def incumbent(self):
        """The better step incumbent; None when no step ran."""
        return _best_trial(filter(None, (self.step1_incumbent, self.step2_incumbent)))

    @property
    def n_evaluations(self) -> int:
        return self.n_random + len(self.history_step1) + len(self.history_step2)

    def to_dict(self) -> dict:
        def trial_dict(t):
            if t is None:
                return None
            return {
                "config": t.config,
                "score": t.score,
                "status": t.status,
                "seed": t.seed,
            }

        return {
            "fixed": self.fixed,
            "provenance": self.provenance,
            "step1_dims": list(self.step1_dims),
            "step2_dims": list(self.step2_dims),
            "step1_incumbent": trial_dict(self.step1_incumbent),
            "step2_incumbent": trial_dict(self.step2_incumbent),
            "n_random": self.n_random,
            "n_evaluations": self.n_evaluations,
            "history_step1": [trial_dict(t) for t in self.history_step1],
            "history_step2": [trial_dict(t) for t in self.history_step2],
        }


def _speed_value(spec, direction, curve: ReductionCurve | None):
    if direction == "maximize":
        return spec.hi
    if curve is None or not curve.cutoff:
        return spec.lo
    lo = curve.lows[curve.cutoff]       # a float, also for an integer knob
    return int(lo) if spec.kind == "integer" else lo


def _matching_region(spec, a, b) -> bool:
    if spec.kind in ("integer", "continuous"):
        return abs(a - b) <= (spec.hi - spec.lo) / 10.0
    return a == b


def select_fixed_values(report: SensitivityReport, trials, policy: FixingPolicy,
                        curves: dict | None = None, *, space: SearchSpace):
    """Pin values for the parameters step 1 will not optimize.

    Returns (fixed values, provenance tags, step-1 dimensions).
    Speed-directed parameters always pin to the cheap end of their reduced
    domain; other non-impactful parameters copy the best trial, with the
    interaction adjustment described in the module docstring.
    """
    best_trial = _best_trial(trials)
    if best_trial is None:
        raise EstimationError("no ok trials to copy values from")
    curves = curves or {}
    impactful = set(report.impactful())
    pairs = report.interacting_pairs()
    fixed, provenance = {}, {}
    for p in space.params:
        direction = policy.speed_directions.get(p.name, "neutral")
        if direction != "neutral":
            if not p.is_ordered:
                raise EstimationError(f"{p.name}: speed direction on unordered parameter")
            fixed[p.name] = _speed_value(p, direction, curves.get(p.name))
            provenance[p.name] = PROVENANCE_SPEED
    speed_fixed = dict(fixed)
    for p in space.params:
        if p.name in fixed or p.name in impactful:
            continue
        partner = None
        in_free_pair = False
        for a, b in pairs:
            if p.name == a and b in speed_fixed:
                partner = b
            elif p.name == b and a in speed_fixed:
                partner = a
            elif p.name in (a, b):
                in_free_pair = True
        if partner is not None:
            pspec = space.param(partner)
            source = _best_trial(
                t for t in trials
                if partner in t.config and p.name in t.config
                and _matching_region(pspec, t.config[partner], speed_fixed[partner])
            )
            if source is not None:
                fixed[p.name] = source.config[p.name]
                provenance[p.name] = PROVENANCE_INTERACTION
                continue
        if in_free_pair:
            # a joint value matters here; hand the pair to the optimizer
            # instead of copying its halves independently
            continue
        if p.name in best_trial.config:
            fixed[p.name] = best_trial.config[p.name]
            provenance[p.name] = PROVENANCE_BEST
    step1_dims = tuple(
        p.name for p in space.params if p.name not in fixed
    )
    return fixed, provenance, step1_dims


def two_step_optimize(
    space: SearchSpace,
    trials,
    objective,
    goal: GoalSet,
    policy: FixingPolicy,
    budgets: Budgets = Budgets(),
    seed: int = 0,
    *,
    n_boot: int = 100,
) -> TwoStepResult:
    """Analysis, value fixing, then two focused optimization passes.

    Step 1 optimizes the impactful dimensions with everything else pinned.
    Step 2 re-opens the remaining dimensions (all of them under
    accuracy_only, all but the speed-pinned ones otherwise) and starts from
    the step-1 incumbent, so the final incumbent can only improve.  A step
    with no dimension to optimize or no evaluation to spend is skipped.
    """
    if not trials:
        raise EstimationError("two_step_optimize needs prior random-search trials")
    report = run_algorithm1(space, trials, goal, seed, n_boot=n_boot)
    curves = {}
    for name, direction in policy.speed_directions.items():
        spec = space.param(name)
        if direction != "minimize" or not spec.is_ordered:
            continue        # select_fixed_values reads no curve for these
        try:
            curves[name] = interval_reduction(
                spec, trials, report.matrix, goal, report.noise_floor,
                seed=seed, n_boot=n_boot,
            )
        except EstimationError:
            curves[name] = None
    fixed, provenance, step1_dims = select_fixed_values(
        report, trials, policy, curves, space=space
    )

    if step1_dims and budgets.n_init_step1 + budgets.n_iter_step1:
        step1_incumbent, hist1 = gpbo(
            objective, space, fixed=fixed,
            n_init=budgets.n_init_step1, n_iter=budgets.n_iter_step1,
            seed=seed,
        )
    else:
        step1_incumbent, hist1 = None, []

    anchor = step1_incumbent or _best_trial(trials)
    if policy.mode == "accuracy_and_speed":
        keep = {n: v for n, v in fixed.items() if provenance[n] == PROVENANCE_SPEED}
    else:
        keep = {}
    fixed2 = dict(keep)
    for name in step1_dims:
        if name in anchor.config:
            fixed2[name] = anchor.config[name]
    step2_dims = tuple(
        p.name for p in space.params if p.name not in fixed2
    )
    if step2_dims and budgets.n_init_step2 + budgets.n_iter_step2:
        step2_incumbent, hist2 = gpbo(
            objective, space, fixed=fixed2,
            n_init=budgets.n_init_step2, n_iter=budgets.n_iter_step2,
            seed=seed + 1,
            initial_configs=[dict(anchor.config)],
        )
    else:
        step2_incumbent, hist2 = None, []
    return TwoStepResult(
        fixed=fixed,
        provenance=provenance,
        step1_dims=step1_dims,
        step2_dims=step2_dims,
        step1_incumbent=step1_incumbent,
        step2_incumbent=step2_incumbent,
        history_step1=hist1,
        history_step2=hist2,
        report=report,
        curves=curves,
        n_random=len(trials),
    )
