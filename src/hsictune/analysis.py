"""Sensitivity pipeline: goal flags, per-group rankings, interactions,
bad-level detection, and interval reduction.

The pipeline runs on a finished random search.  It flags the goal subset of
trials (for example the best 10 percent), normalizes every parameter onto
the unit interval, scores each parameter's dependence on the goal flags
within its conditional group, and compares everything against the score of
an injected synthetic dummy parameter, which plays the role of a concrete
noise floor: anything statistically indistinguishable from the dummy is
treated as non-impactful.
"""

from __future__ import annotations

import warnings
import zlib
from dataclasses import dataclass, field

import numpy as np

from .hsic import EstimationError, HsicScore, hsic_goal, hsic_pair
from .space import (
    MAIN_GROUP,
    GroupSpec,
    NormalizedMatrix,
    ParameterSpec,
    SearchSpace,
    _level_index,
    _scale,
    _seed_sequence,
    build_groups,
    normalize_trials,
)

__all__ = [
    "GoalSet",
    "best_percentile",
    "worst_percentile",
    "threshold",
    "make_goal_flags",
    "rank_group",
    "InteractionMatrix",
    "interaction_matrix",
    "LevelReport",
    "worst_level_report",
    "ReductionCurve",
    "interval_reduction",
    "GroupRanking",
    "SensitivityReport",
    "run_algorithm1",
    "dummy_floor",
]

_MIN_TRIALS = 10
IMPACT_K_SE = 2.0   # "impactful" means value > floor + k * (se + floor_se)
_LEVEL_P = 0.1          # the level report's worst and best percentile
_LEVEL_FACTOR = 2.0     # a level is flagged above this multiple of its prior
_MIN_GOAL = 10          # goal trials an interval-reduction offset needs
_CONTINUOUS_STEPS = 20  # interval-reduction offsets of a continuous knob


def _clears_floor(score: HsicScore, floor: HsicScore) -> bool:
    """The impact bar: the score exceeds the floor by IMPACT_K_SE combined
    standard errors."""
    return score.value > floor.value + IMPACT_K_SE * (score.std_error + floor.std_error)


# -- goal construction -------------------------------------------------------


@dataclass(frozen=True)
class GoalSet:
    """Which trials count as hitting the goal.

    kind "best_percentile" flags the fraction p of ok trials with the lowest
    errors; "worst_percentile" flags the fraction p of all trials with the
    highest errors, counting diverged/failed trials as worst; "threshold"
    compares ok scores against a fixed bound.
    """

    kind: str
    p: float | None = None
    bound: float | None = None
    direction: str = "le"

    def __post_init__(self):
        if self.kind in ("best_percentile", "worst_percentile"):
            if self.p is None or not (0.0 < self.p < 1.0):
                raise EstimationError("percentile p must lie in (0, 1)")
        elif self.kind == "threshold":
            if self.bound is None or self.direction not in ("le", "ge"):
                raise EstimationError("threshold goal needs bound and direction le/ge")
        else:
            raise EstimationError(f"unknown goal kind {self.kind!r}")


def best_percentile(p: float) -> GoalSet:
    return GoalSet("best_percentile", p=p)


def worst_percentile(p: float) -> GoalSet:
    return GoalSet("worst_percentile", p=p)


def threshold(bound: float, direction: str = "le") -> GoalSet:
    return GoalSet("threshold", bound=bound, direction=direction)


def make_goal_flags(trials, goal: GoalSet, *, reject_constant: bool = True) -> np.ndarray:
    """Boolean goal flags aligned with the trial list.

    Ties in the score break by trial order (stable sort), so monotone
    rescalings of the metric leave the flags unchanged.  A constant metric
    makes percentile goals meaningless and is rejected unless the caller
    opts out (the level report relies on the tie-broken sets coinciding).
    """
    n = len(trials)
    ok = np.array([t.ok for t in trials])
    scores = np.array([t.score if t.ok else np.nan for t in trials], dtype=float)
    n_ok = int(ok.sum())
    if n_ok < _MIN_TRIALS:
        raise EstimationError(f"need at least {_MIN_TRIALS} ok trials, got {n_ok}")
    if (reject_constant and goal.kind != "threshold" and ok.all()
            and np.all(scores[ok] == scores[ok][0])):
        # percentiles of a constant metric select an arbitrary subset
        raise EstimationError("goal set too small: zero-variance scores")
    flags = np.zeros(n, dtype=bool)
    if goal.kind == "best_percentile":
        k = int(np.ceil(goal.p * n_ok))
        order = np.argsort(np.where(ok, scores, np.inf), kind="stable")
        flags[order[:k]] = True
    elif goal.kind == "worst_percentile":
        k = int(np.ceil(goal.p * n))
        bad = np.flatnonzero(~ok)
        take = bad[:k]
        flags[take] = True
        remaining = k - len(take)
        if remaining > 0:
            order = np.argsort(np.where(ok, -scores, np.inf), kind="stable")
            flags[order[:remaining]] = True
    else:
        if goal.direction == "le":
            flags = ok & (scores <= goal.bound)
        else:
            flags = ok & (scores >= goal.bound)
    if not flags.any():
        raise EstimationError("goal set is empty")
    return flags


# -- per-group ranking ---------------------------------------------------------


def _dummy_column(seed: int, label: str, n: int) -> np.ndarray:
    ss = _seed_sequence(seed, zlib.crc32(b"~dummy~"), zlib.crc32(label.encode()))
    return np.random.default_rng(ss).random(n)


def dummy_floor(rows: np.ndarray, z: np.ndarray, seed: int, label: str = MAIN_GROUP,
                n_boot: int = 100) -> HsicScore:
    """Score of a synthetic independent uniform column on the same rows.

    Computed with the same sample and goal counts as the real scores, so the
    estimator's finite-sample floor cancels out of comparisons against it.
    """
    u = _dummy_column(seed, label, int(rows.sum()))
    return hsic_goal(u, z[rows], n_boot=n_boot, seed=seed)


def rank_group(group: GroupSpec, matrix: NormalizedMatrix, z, *, seed: int = 0,
               n_boot: int = 100):
    """Scores for every group member on the group's subpopulation, sorted
    descending by value."""
    z = np.asarray(z, dtype=bool)
    rows = matrix.rows_where_active(group.members)
    entries = []
    for name in group.members:
        u = matrix.column(name)[rows]
        score = hsic_goal(u, z[rows], n_boot=n_boot, seed=seed)
        entries.append((name, score))
    entries.sort(key=lambda e: -e[1].value)
    return entries


# -- interactions --------------------------------------------------------------


@dataclass
class InteractionMatrix:
    params: tuple
    scores: dict                 # (i, j) with i <= j -> HsicScore

    def score(self, a: str, b: str) -> HsicScore:
        i, j = self.params.index(a), self.params.index(b)
        return self.scores[(min(i, j), max(i, j))]

    def pair_scores(self):
        """((param_i, param_j), score) of every computed off-diagonal pair,
        in index order."""
        return [((self.params[i], self.params[j]), s)
                for (i, j), s in sorted(self.scores.items()) if i != j]


def interaction_matrix(params, matrix: NormalizedMatrix, z, *, seed: int = 0,
                       n_boot: int = 100) -> InteractionMatrix:
    """Pairwise joint scores; diagonal holds the single-column scores.

    Every entry is computed on rows where both parameters are active.
    """
    params = tuple(params)
    if len(params) < 2:
        raise EstimationError("interaction matrix needs at least 2 parameters")
    z = np.asarray(z, dtype=bool)
    scores = {}
    for i, name in enumerate(params):
        rows = matrix.rows_where_active([name])
        scores[(i, i)] = hsic_goal(matrix.column(name)[rows], z[rows], n_boot=n_boot,
                                   seed=seed)
    return _with_pairs(params, scores, matrix, z, seed, n_boot, None)


def _with_pairs(params, diagonal, matrix, z, seed, n_boot, pairs) -> InteractionMatrix:
    """The interaction matrix from its diagonal scores plus the wanted pairs
    (every pair when pairs is None)."""
    k = len(params)
    wanted = None
    if pairs is not None:
        wanted = {(min(params.index(a), params.index(b)),
                   max(params.index(a), params.index(b))) for a, b in pairs}
    scores = dict(diagonal)
    for i in range(k):
        for j in range(i + 1, k):
            if wanted is not None and (i, j) not in wanted:
                continue
            rows = matrix.rows_where_active([params[i], params[j]])
            scores[(i, j)] = hsic_pair(
                matrix.column(params[i])[rows],
                matrix.column(params[j])[rows],
                z[rows],
                n_boot=n_boot,
                seed=seed,
            )
    return InteractionMatrix(params, scores)


# -- bad-level detection -------------------------------------------------------


@dataclass
class LevelReport:
    param: str
    levels: tuple
    prior: tuple
    worst_counts: tuple
    best_counts: tuple
    flagged: tuple

    def shares(self):
        w = np.asarray(self.worst_counts, dtype=float)
        b = np.asarray(self.best_counts, dtype=float)
        return w / max(w.sum(), 1.0), b / max(b.sum(), 1.0)


def worst_level_report(param: ParameterSpec, trials,
                       matrix: NormalizedMatrix) -> LevelReport:
    """Per-level counts among the worst and best 10 percent of trials.

    A level is flagged when its share of the worst set exceeds twice its
    prior weight while its share of the best set stays below the prior: the
    signature of a value that actively hurts.
    """
    if not param.is_discrete:
        raise EstimationError(f"{param.name}: level report needs a discrete parameter")
    levels, weights = param.level_weights()
    worst = make_goal_flags(trials, worst_percentile(_LEVEL_P), reject_constant=False)
    best = make_goal_flags(trials, best_percentile(_LEVEL_P), reject_constant=False)
    active = np.flatnonzero(matrix.mask(param.name))
    index = _level_index(param, [trials[i].config[param.name] for i in active])
    wc, bc = (np.bincount(index[flags[active]], minlength=len(levels)) for flags in (worst, best))
    w_share = wc / max(wc.sum(), 1)
    b_share = bc / max(bc.sum(), 1)
    weights = np.asarray(weights)
    hurts = (w_share > _LEVEL_FACTOR * weights) & (b_share < weights)
    flagged = tuple(levels[i] for i in np.flatnonzero(hurts))
    return LevelReport(param.name, tuple(levels), tuple(weights.tolist()), tuple(wc),
                       tuple(bc), flagged)


# -- interval reduction --------------------------------------------------------


@dataclass
class ReductionCurve:
    param: str
    offsets: tuple               # c values actually evaluated
    scores: tuple                # HsicScore per offset
    retained: tuple              # subpopulation sizes
    cutoff: int | None           # smallest c at the noise floor, None if never
    lows: tuple                  # lower bound of the domain at each offset


def interval_reduction(
    param: ParameterSpec,
    trials,
    matrix: NormalizedMatrix,
    goal: GoalSet,
    noise_floor: HsicScore,
    *,
    seed: int = 0,
    n_boot: int = 100,
):
    """Dependence score of an ordered parameter as its lower bound rises.

    The bound rises in equal steps of the sampling CDF: one level per step
    for an integer, 1/20 of the range per step for a continuous knob, which
    is a geometric step on a log scale.  For each offset c the trial set
    restricts to values >= the raised bound, the goal percentile is
    re-taken inside that subpopulation, and the score of the kept rows'
    analyze ranks is compared to the noise floor.  Those ranks serve every
    offset: ranking on the shrunken domain would map them by one increasing
    affine function, and the score cannot see such a map, since its
    bandwidth grid follows the median distance and its binned grid the
    support.  Offset 0 is therefore the knob's analyze score, and an offset
    that keeps the previous offset's rows (the bound passed no trial's
    value) keeps its score.
    The suggested cutoff is the smallest c whose score does not clear the
    impact bar.  Offsets that retain fewer than 10 goal trials truncate the
    curve.
    """
    if not param.is_ordered:
        raise EstimationError(f"{param.name}: interval reduction needs an ordered domain")
    ranks = matrix.column(param.name)
    active = matrix.mask(param.name)
    raw = np.array([t.config.get(param.name, np.nan) for t in trials], dtype=float)
    n_steps = int(param.hi - param.lo) if param.kind == "integer" else _CONTINUOUS_STEPS
    f, f_inv = _scale(param)
    step = (f(param.hi) - f(param.lo)) / n_steps
    kept_offsets, scores, retained, lows = [], [], [], []
    for c in range(n_steps):
        # lo itself: exp(log(lo)) can miss it by an ulp
        lo_c = float(param.lo) if c == 0 else f_inv(f(param.lo) + c * step)
        rows = np.flatnonzero(active & (raw >= lo_c))
        if len(rows) < _MIN_TRIALS:
            break
        if retained and len(rows) == retained[-1]:
            # the kept rows are nested, so these are the previous offset's
            score = scores[-1]
        else:
            try:
                z_sub = make_goal_flags([trials[i] for i in rows], goal)
            except EstimationError:
                break
            if int(z_sub.sum()) < _MIN_GOAL:
                break
            score = hsic_goal(ranks[rows], z_sub, n_boot=n_boot, seed=seed)
        kept_offsets.append(c)
        scores.append(score)
        retained.append(len(rows))
        lows.append(lo_c)
    if not kept_offsets:
        raise EstimationError(f"{param.name}: no offsets with enough samples")
    cutoff = next((c for c, s in zip(kept_offsets, scores)
                   if not _clears_floor(s, noise_floor)), None)
    return ReductionCurve(param.name, tuple(kept_offsets), tuple(scores),
                          tuple(retained), cutoff, tuple(lows))


# -- the full pipeline ---------------------------------------------------------


@dataclass
class GroupRanking:
    group: GroupSpec
    entries: tuple               # ((name, HsicScore), ...) sorted descending
    floor: HsicScore
    n_rows: int
    n_goal: int

    def impactful(self):
        return tuple(name for name, s in self.entries if _clears_floor(s, self.floor))


@dataclass
class SensitivityReport:
    goal: GoalSet
    seed: int
    groups: tuple                # GroupRanking per group, main first
    interactions: InteractionMatrix | None
    noise_floor: HsicScore       # main-group dummy score
    matrix: NormalizedMatrix = field(repr=False, compare=False)  # ranks it was built from
    flags: np.ndarray = field(repr=False, compare=False)         # goal flag per trial

    def group(self, gid: str) -> GroupRanking:
        for g in self.groups:
            if g.group.id == gid:
                return g
        raise KeyError(gid)

    def impactful(self):
        """Impactful parameters, preserving first-seen order.

        Main parameters are judged in the main group; a conditional group
        only contributes verdicts about its own conditional members.
        """
        main_members = set(self.groups[0].group.members)
        seen = []
        for g in self.groups:
            for name in g.impactful():
                judged_here = g.group.id == MAIN_GROUP or name not in main_members
                if judged_here and name not in seen:
                    seen.append(name)
        return tuple(seen)

    def interacting_pairs(self):
        """Off-diagonal pairs whose joint score clears the noise floor."""
        if self.interactions is None:
            return ()
        return tuple(pair for pair, s in self.interactions.pair_scores()
                     if _clears_floor(s, self.noise_floor))


def run_algorithm1(
    space: SearchSpace,
    trials,
    goal: GoalSet,
    seed: int = 0,
    *,
    n_boot: int = 100,
    full_interactions: bool = False,
) -> SensitivityReport:
    """Goal flags, conditional groups, per-group rankings, interactions.

    Interactions are scanned among main parameters; by default only pairs
    where both single scores sit below the impact bar are computed, since a
    pair containing an impactful parameter is always large.  Pass
    full_interactions=True for the complete matrix.  A conditional group
    with fewer than 2 goal rows cannot be scored: it is left out of the
    report with a warning.
    """
    if not trials:
        raise EstimationError("no trials")
    z = make_goal_flags(trials, goal)
    matrix = normalize_trials(space, trials, seed)
    groups = build_groups(space)
    rankings = []
    for g in groups:
        rows = matrix.rows_where_active(g.members)
        n_goal = int(z[rows].sum())
        if g.id != MAIN_GROUP and n_goal < 2:
            # too few goal rows to score; the main group's own check raises
            warnings.warn(f"conditional group {g.id!r} has only {n_goal} goal rows; "
                          "left out of the report")
            continue
        entries = rank_group(g, matrix, z, seed=seed, n_boot=n_boot)
        floor = dummy_floor(rows, z, seed, label=g.id, n_boot=n_boot)
        rankings.append(GroupRanking(g, tuple(entries), floor, int(rows.sum()), n_goal))
    main_ranking = rankings[0]
    main_params = main_ranking.group.members
    interactions = None
    if len(main_params) >= 2:
        if full_interactions:
            pairs = None
        else:
            quiet = [n for n in main_params if n not in main_ranking.impactful()]
            pairs = [(a, b) for ai, a in enumerate(quiet) for b in quiet[ai + 1:]]
        if pairs is None or pairs:
            # the main group spans every row, so its ranking is the diagonal
            ranked = dict(main_ranking.entries)
            diagonal = {(i, i): ranked[name] for i, name in enumerate(main_params)}
            interactions = _with_pairs(main_params, diagonal, matrix, z, seed, n_boot,
                                       pairs)
    return SensitivityReport(goal, int(seed), tuple(rankings), interactions,
                             main_ranking.floor, matrix, z)
