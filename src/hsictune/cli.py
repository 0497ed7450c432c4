"""Command line entry point tying search, analysis, reduction, and
optimization together.

Exit codes: 0 success, 1 usage error, 2 runtime error.  A warning prints
as one "warning: <message>" line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from . import analysis as an
from . import reports
from .gp import FitError
from .harness import TrialFileError, jobs_from_env, load_trials, run_random_search
from .hsic import EstimationError
from .objectives import OBJECTIVE_NAMES, build_objective
from .space import SpaceError, build_groups, normalize_trials, parse_space
from .twostep import Budgets, FixingPolicy, two_step_optimize

__all__ = ["cli", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _check_ranges(args) -> None:
    """Counts are non-negative, a worker count is positive and a percentile
    lies in (0, 1)."""
    for name in ("n", "init", "budget_step1", "budget_step2"):
        if getattr(args, name, 0) < 0:
            raise _UsageError(f"--{name.replace('_', '-')} must not be negative")
    if getattr(args, "jobs", 1) < 1:
        raise _UsageError("--jobs must be at least 1")
    if not 0.0 < getattr(args, "percentile", 0.5) < 1.0:
        raise _UsageError("--percentile must lie in (0, 1)")


def _jobs(args) -> int:
    try:
        return jobs_from_env(args.jobs)
    except ValueError as e:
        raise _UsageError(str(e)) from None


def _print_ranking(report):
    for g in report.groups:
        print(f"group {g.group.id}  (n={g.n_rows}, goal={g.n_goal})")
        bar = g.floor.value
        for name, s in g.entries:
            mark = "*" if name in g.impactful() else " "
            print(f"  {mark} {name:<24} hsic={s.value:.4e}  se={s.std_error:.1e}")
        print(f"    {'[noise floor]':<24} hsic={bar:.4e}  se={g.floor.std_error:.1e}")
    pairs = report.interacting_pairs()
    if pairs:
        print("interacting pairs:", ", ".join(f"({a},{b})" for a, b in pairs))


def _build_parser() -> _Parser:
    parser = _Parser(prog="hsic-tune", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="run a random search and persist trials")
    p.add_argument("--objective", required=True, choices=OBJECTIVE_NAMES)
    p.add_argument("--space", help="JSON space file (defaults to the objective's)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    # the options shared by the commands that read a trial file
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("trials")
    common.add_argument("--percentile", type=float, default=0.1)
    common.add_argument("--seed", type=int, default=0)
    goal = argparse.ArgumentParser(add_help=False)
    goal.add_argument("--goal", choices=("best", "worst"), default="best")

    p = sub.add_parser("analyze", parents=[common, goal],
                       help="rank hyperparameters from a trial file")
    p.add_argument("--out", help="write the report bundle here")
    p.add_argument("--full-interactions", action="store_true")

    p = sub.add_parser("reduce", parents=[common, goal],
                       help="interval-reduction curves for parameters")
    p.add_argument("--param", action="append", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("optimize", parents=[common],
                       help="two-step optimization from a trial file")
    p.add_argument("--objective", required=True, choices=OBJECTIVE_NAMES)
    p.add_argument("--mode", choices=("acc", "acc+speed"), default="acc+speed")
    p.add_argument("--budget-step1", type=int, default=25)
    p.add_argument("--budget-step2", type=int, default=25)
    p.add_argument("--init", type=int, default=10)
    p.add_argument("--speed", action="append", default=[],
                   help="name=minimize|maximize, repeatable")
    p.add_argument("--out", help="write the result JSON here")

    p = sub.add_parser("report", parents=[common, goal],
                       help="emit CSV/JSON plot data from a trial file")
    p.add_argument("--out", required=True)

    p = sub.add_parser("demo", help="run a built-in objective end to end")
    p.add_argument("name", choices=OBJECTIVE_NAMES)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--percentile", type=float, default=0.1)
    p.add_argument("--out")
    return parser


def _cmd_search(args) -> int:
    objective = build_objective(args.objective)
    space = objective.space
    if args.space:
        with open(args.space, encoding="utf-8") as fh:
            space = parse_space(fh.read())
    trials = run_random_search(space, objective, args.n, jobs=_jobs(args),
                               master_seed=args.seed, out_path=args.out)
    print(f"{args.out} holds {len(trials)} trials")
    return 0


def _goal_for_trials(trials, args) -> an.GoalSet:
    if getattr(args, "goal", "best") == "worst":
        return an.worst_percentile(args.percentile)
    scores = {t.score for t in trials if t.ok}
    if scores and scores <= {0.0, 1.0}:
        # indicator objectives: the goal is exactly the success set
        return an.threshold(0.5, "le")
    return an.best_percentile(args.percentile)


def _cmd_analyze(args) -> int:
    _, space, trials = load_trials(args.trials)
    goal = _goal_for_trials(trials, args)
    report = an.run_algorithm1(space, trials, goal, args.seed,
                               full_interactions=args.full_interactions)
    _print_ranking(report)
    if args.out:
        reports.save_report_bundle(report, args.out)
        print(f"report bundle written to {args.out}")
    return 0


def _cmd_reduce(args) -> int:
    _, space, trials = load_trials(args.trials)
    goal = _goal_for_trials(trials, args)
    # the curves need only the noise floor: the main group's dummy score
    z = an.make_goal_flags(trials, goal)
    matrix = normalize_trials(space, trials, args.seed)
    floor = an.dummy_floor(matrix.rows_where_active(build_groups(space)[0].members), z,
                           args.seed)
    for name in args.param:
        curve = an.interval_reduction(space.param(name), trials, matrix, goal, floor,
                                      seed=args.seed)
        reports.save_reduction_curve(curve, args.out)
        cut = "none" if curve.cutoff is None else str(curve.cutoff)
        print(f"{name}: suggested cutoff c* = {cut}")
    return 0


def _cmd_optimize(args) -> int:
    manifest, space, trials = load_trials(args.trials)
    if args.objective != manifest.objective:
        raise TrialFileError(f"{args.trials}: objective mismatch: searched with "
                             f"{manifest.objective!r}, not {args.objective!r}")
    objective = build_objective(args.objective)
    directions = {}
    for item in args.speed:
        name, _, direction = item.partition("=")
        directions[name] = direction or "minimize"
    try:
        policy = FixingPolicy(
            mode="accuracy_and_speed" if args.mode == "acc+speed" else "accuracy_only",
            speed_directions=directions,
        )
    except ValueError as e:
        raise _UsageError(str(e)) from None
    budgets = Budgets(args.init, args.budget_step1, args.init, args.budget_step2)
    goal = _goal_for_trials(trials, args)
    result = two_step_optimize(space, trials, objective, goal, policy,
                               budgets, seed=args.seed)
    best = result.incumbent
    print(f"fixed: {result.fixed}")
    print(f"step1 dims: {list(result.step1_dims)}  step2 dims: {list(result.step2_dims)}")
    if best is None:
        # a step with a free knob was skipped for want of evaluations
        why = ", ".join(f"step {k}: {'zero budget' if dims else 'every parameter is pinned'}"
                        for k, dims in ((1, result.step1_dims), (2, result.step2_dims)))
        print(f"no optimization step ran ({why})")
    else:
        print(f"best error: {best.score:.6g}  config: {best.config}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
    return 0


def _cmd_report(args) -> int:
    _, space, trials = load_trials(args.trials)
    goal = _goal_for_trials(trials, args)
    report = an.run_algorithm1(space, trials, goal, args.seed)
    reports.save_report_bundle(report, args.out)
    reports.save_histograms(report.matrix, report.flags, args.out)
    print(f"report bundle written to {args.out}")
    return 0


def _cmd_demo(args) -> int:
    objective = build_objective(args.name)
    trials = run_random_search(objective.space, objective, args.n,
                               jobs=_jobs(args), master_seed=args.seed)
    goal = _goal_for_trials(trials, args)
    report = an.run_algorithm1(objective.space, trials, goal, args.seed)
    print(f"{args.name}: {len(trials)} trials, "
          f"{sum(t.status != 'ok' for t in trials)} not ok")
    _print_ranking(report)
    if args.out:
        reports.save_report_bundle(report, args.out)
    return 0


_COMMANDS = {
    "search": _cmd_search,
    "analyze": _cmd_analyze,
    "reduce": _cmd_reduce,
    "optimize": _cmd_optimize,
    "report": _cmd_report,
    "demo": _cmd_demo,
}


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _check_ranges(args)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        with warnings.catch_warnings():
            warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
            return _COMMANDS[args.command](args)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (SpaceError, EstimationError, TrialFileError, FitError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())
