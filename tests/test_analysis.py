import dataclasses
import itertools
import json
import threading
import zlib

import numpy as np
import pytest
from scipy.stats import truncnorm

from hsictune import analysis, blas, hsic, space as space_module
from hsictune.analysis import (
    best_percentile,
    dummy_floor,
    interaction_matrix,
    interval_reduction,
    make_goal_flags,
    rank_group,
    run_algorithm1,
    threshold,
    worst_level_report,
    worst_percentile,
)
from hsictune.harness import Trial, run_random_search
from hsictune.hsic import EstimationError, hsic_goal
from hsictune.objectives import build_objective
from hsictune.reports import summary_dict
from hsictune.space import (
    SearchSpace,
    build_groups,
    categorical_param,
    continuous_param,
    integer_param,
    normalize_trials,
)


def ok_trial(config, score, seed=0):
    return Trial(dict(config), float(score), "ok", seed)


def bad_trial(config, status="diverged", seed=0):
    return Trial(dict(config), None, status, seed)


def uniform_trials(names, n, seed, lo=0.0, hi=2.0):
    rng = np.random.default_rng(seed)
    return [{name: float(rng.uniform(lo, hi)) for name in names} for _ in range(n)]


def example2_trials(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        x = rng.uniform(0, 2, 5)
        f = int(
            (x[0] <= 1 and 1 <= x[1] <= 2 and x[2] <= 1)
            or (x[0] <= 1 and x[1] <= 1 and 1 <= x[2] <= 2)
        )
        cfg = {f"x{i+1}": float(x[i]) for i in range(5)}
        out.append(ok_trial(cfg, 1.0 - f))
    return out


def example2_space():
    return SearchSpace(tuple(continuous_param(f"x{i+1}", 0, 2) for i in range(5)))


# -- goal flags ----------------------------------------------------------------


def test_best_percentile_flags_lowest_errors():
    trials = [ok_trial({"x": 0.0}, e) for e in range(1, 11)]
    z = make_goal_flags(trials, best_percentile(0.1))
    assert z.sum() == 1
    assert z[0]


def test_worst_percentile_flags_highest_errors():
    trials = [ok_trial({"x": 0.0}, e) for e in range(1, 11)]
    z = make_goal_flags(trials, worst_percentile(0.2))
    assert z.sum() == 2
    assert z[8] and z[9]


def test_diverged_trials_count_as_worst():
    trials = [ok_trial({"x": 0.0}, e) for e in range(1, 11)]
    trials += [bad_trial({"x": 0.0}), bad_trial({"x": 0.0})]
    z = make_goal_flags(trials, worst_percentile(0.25))
    # ceil(0.25 * 12) = 3: both diverged plus the worst ok trial
    assert z.sum() == 3
    assert z[10] and z[11] and z[9]
    best = make_goal_flags(trials, best_percentile(0.1))
    assert not best[10] and not best[11]


def test_threshold_goal():
    trials = [ok_trial({"x": 0.0}, e) for e in (0.0, 0.0, 1.0, 1.0, 1.0,
                                                0.0, 1.0, 0.0, 1.0, 0.0)]
    z = make_goal_flags(trials, threshold(0.5, "le"))
    assert z.sum() == 5
    z = make_goal_flags(trials, threshold(0.5, "ge"))
    assert z.sum() == 5


def test_too_few_trials_rejected():
    trials = [ok_trial({"x": 0.0}, e) for e in range(5)]
    with pytest.raises(EstimationError, match="at least"):
        make_goal_flags(trials, best_percentile(0.5))


def test_zero_variance_scores_rejected():
    trials = [ok_trial({"x": 0.0}, 1.0) for _ in range(20)]
    with pytest.raises(EstimationError, match="goal set too small"):
        make_goal_flags(trials, best_percentile(0.1))


def test_monotone_rescaling_leaves_flags_identical():
    rng = np.random.default_rng(0)
    scores = rng.random(50)
    trials = [ok_trial({"x": 0.0}, s) for s in scores]
    rescaled = [ok_trial({"x": 0.0}, np.exp(3 * s) + 1) for s in scores]
    za = make_goal_flags(trials, best_percentile(0.2))
    zb = make_goal_flags(rescaled, best_percentile(0.2))
    assert np.array_equal(za, zb)


# -- group ranking ---------------------------------------------------------------


def test_example2_ranking_x1_on_top_rest_below_floor():
    space = example2_space()
    trials = example2_trials(2000, seed=1)
    z = make_goal_flags(trials, threshold(0.5, "le"))
    matrix = normalize_trials(space, trials, seed=1)
    group = build_groups(space)[0]
    entries = rank_group(group, matrix, z, seed=1, n_boot=30)
    assert entries[0][0] == "x1"
    floor = dummy_floor(matrix.rows_where_active(group.members), z, 1, n_boot=30)
    for name, score in entries[1:]:
        bar = floor.value + 2 * (score.std_error + floor.std_error)
        assert score.value <= bar, name


def example3_trials(n, seed, t):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        x = rng.uniform(0, 2, 3)
        if x[0] <= 1 and x[1] <= t:
            f = int(rng.random() < 0.5)
        elif x[0] <= 1 and x[1] >= t and x[2] <= 1:
            f = 1
        else:
            f = 0
        out.append(ok_trial({"x1": x[0], "x2": x[1], "x3": x[2]}, 1.0 - f))
    return out


def test_example3_conditional_group_recovers_x3():
    # grouped view (rows with x2 > t): x3 is as important as x1; the
    # ungrouped view at large t buries it
    t = 1.8
    trials = example3_trials(2000, seed=2, t=t)
    z = make_goal_flags(trials, threshold(0.5, "le"))
    x2 = np.array([tr.config["x2"] for tr in trials])
    u = {k: np.array([tr.config[k] for tr in trials]) / 2 for k in ("x1", "x2", "x3")}
    grp = x2 > t
    s1_g = hsic_goal(u["x1"][grp], z[grp], n_boot=0)
    s3_g = hsic_goal(u["x3"][grp], z[grp], n_boot=0)
    assert 0.5 <= s3_g.value / s1_g.value <= 2.0
    s3_flat_18 = hsic_goal(u["x3"], z, n_boot=0)
    trials05 = example3_trials(2000, seed=2, t=0.5)
    z05 = make_goal_flags(trials05, threshold(0.5, "le"))
    u3_05 = np.array([tr.config["x3"] for tr in trials05]) / 2
    s3_flat_05 = hsic_goal(u3_05, z05, n_boot=0)
    assert s3_flat_18.value < 0.25 * s3_flat_05.value


def test_rank_group_needs_enough_goal_rows():
    space = example2_space()
    trials = example2_trials(60, seed=3)
    matrix = normalize_trials(space, trials, seed=0)
    z = np.zeros(60, dtype=bool)
    z[0] = True
    group = build_groups(space)[0]
    with pytest.raises(EstimationError):
        rank_group(group, matrix, z, seed=0, n_boot=0)


# -- interactions ---------------------------------------------------------------


def test_example2_interaction_matrix():
    space = example2_space()
    trials = example2_trials(2000, seed=4)
    z = make_goal_flags(trials, threshold(0.5, "le"))
    matrix = normalize_trials(space, trials, seed=4)
    names = [p.name for p in space.params]
    pairs = interaction_matrix(names, matrix, z, seed=4, n_boot=0)
    # every pair once, in index order
    assert [pair for pair, _ in pairs] == [(a, b) for i, a in enumerate(names)
                                           for b in names[i + 1:]]
    value = {pair: s.value for pair, s in pairs}
    # any pair containing x1 dominates pairs without it
    for other in ("x2", "x3", "x4", "x5"):
        assert value["x1", other] > value["x4", "x5"]
    # among pairs without x1, (x2, x3) stands far above the rest
    others = [value[pair] for pair in (("x2", "x4"), ("x2", "x5"), ("x3", "x4"),
                                       ("x3", "x5"), ("x4", "x5"))]
    assert value["x2", "x3"] >= 10.0 * max(others)


def test_independent_dummies_below_noise_floor():
    space = example2_space()
    trials = example2_trials(2000, seed=5)
    z = make_goal_flags(trials, threshold(0.5, "le"))
    matrix = normalize_trials(space, trials, seed=5)
    ((names, pair),) = interaction_matrix(["x4", "x5"], matrix, z, seed=5, n_boot=30)
    assert names == ("x4", "x5")
    rows = matrix.rows_where_active(["x4", "x5"])
    floor = dummy_floor(rows, z, 5, n_boot=30)
    assert pair.value <= floor.value + 3 * (pair.std_error + floor.std_error)


# -- bad-level detection ----------------------------------------------------------


def _level_trials(n, seed, bad_level=None):
    rng = np.random.default_rng(seed)
    levels = ("elu", "relu", "tanh", "sigmoid")
    out = []
    for _ in range(n):
        act = levels[rng.integers(0, 4)]
        err = rng.uniform(0, 1)
        if bad_level and act == bad_level:
            err = rng.uniform(5, 6)   # dominates the worst decile
        out.append(ok_trial({"act": act}, err))
    return out


def _act_space():
    return SearchSpace((categorical_param("act", ("elu", "relu", "tanh", "sigmoid")),))


def test_bad_level_flagged():
    space = _act_space()
    trials = _level_trials(400, seed=0, bad_level="sigmoid")
    matrix = normalize_trials(space, trials, seed=0)
    report = worst_level_report(space.param("act"), trials, matrix)
    assert report.flagged == ("sigmoid",)


def test_exchangeable_levels_rarely_flagged():
    space = _act_space()
    false_alarms = 0
    for seed in range(100):
        trials = _level_trials(400, seed=seed)
        matrix = normalize_trials(space, trials, seed=seed)
        report = worst_level_report(space.param("act"), trials, matrix)
        if report.flagged:
            false_alarms += 1
    assert false_alarms <= 5


def test_equal_scores_no_flag():
    space = _act_space()
    rng = np.random.default_rng(1)
    levels = ("elu", "relu", "tanh", "sigmoid")
    trials = [ok_trial({"act": levels[rng.integers(0, 4)]}, 0.5) for _ in range(200)]
    matrix = normalize_trials(space, trials, seed=1)
    report = worst_level_report(space.param("act"), trials, matrix)
    assert report.flagged == ()
    assert report.worst_counts == report.best_counts


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP defect 11: a categorical knob's ranks follow its level "
                          "list, so its score moves with the order; direction 14 mends it")
def test_categorical_score_does_not_depend_on_the_level_order():
    # four levels with goal rates 0.18, 0.14, 0.09 and 0, plus a continuous
    # knob; relisting the levels (weights with them) must not move the score
    levels = ("elu", "relu", "tanh", "sigmoid")
    weights, rates = (0.3, 0.3, 0.2, 0.2), (0.18, 0.14, 0.09, 0.0)
    rng = np.random.default_rng(11)
    drawn = rng.choice(4, 600, p=weights)
    configs = [{"act": levels[k], "x": float(x)} for k, x in zip(drawn, rng.random(600))]
    z = rng.random(600) < np.take(rates, drawn)
    scores = []
    for order in itertools.permutations(range(4)):
        space = SearchSpace((categorical_param("act", [levels[k] for k in order],
                                               [weights[k] for k in order]),
                             continuous_param("x", 0.0, 1.0)))
        u = normalize_trials(space, configs, seed=3).column("act")
        scores.append(hsic_goal(u, z, n_boot=0).value)
    np.testing.assert_allclose(scores, scores[0], rtol=1e-12, atol=0)


# -- interval reduction ------------------------------------------------------------


def _layers_trials(n, seed, threshold_level=3, skip=None):
    # good errors only when the integer knob reaches the threshold; no trial
    # holds level skip, whose draws move up one level
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        k = int(rng.integers(1, 11))
        k += k == skip
        base = 0.0 if k >= threshold_level else 1.0
        out.append(ok_trial({"n_layers": k, "x": float(rng.uniform(0, 1))},
                            base + rng.uniform(0, 0.01)))
    return out


def _layers_space():
    return SearchSpace((integer_param("n_layers", 1, 10),
                        continuous_param("x", 0.0, 1.0)))


def test_interval_reduction_oracle_cutoff():
    space = _layers_space()
    trials = _layers_trials(6000, seed=0)
    goal = best_percentile(0.1)
    z = make_goal_flags(trials, goal)
    matrix = normalize_trials(space, trials, seed=0)
    rows = np.ones(len(trials), dtype=bool)
    floor = dummy_floor(rows, z, 0, n_boot=50)
    curve = interval_reduction(space.param("n_layers"), trials, matrix, goal,
                               floor, seed=0, n_boot=50)
    assert curve.cutoff == 2
    kept = [s.n_total for s in curve.scores]
    assert all(b < a for a, b in zip(kept, kept[1:]))


def test_interval_reduction_independent_param_cuts_at_zero():
    space = _layers_space()
    rng = np.random.default_rng(3)
    trials = [ok_trial({"n_layers": int(rng.integers(1, 11)),
                        "x": float(rng.uniform(0, 1))}, float(rng.uniform(0, 1)))
              for _ in range(2000)]
    goal = best_percentile(0.1)
    z = make_goal_flags(trials, goal)
    matrix = normalize_trials(space, trials, seed=3)
    floor = dummy_floor(np.ones(len(trials), dtype=bool), z, 3, n_boot=50)
    curve = interval_reduction(space.param("n_layers"), trials, matrix, goal,
                               floor, seed=3, n_boot=50)
    assert curve.cutoff == 0


def test_interval_reduction_offset_zero_matches_rank_group():
    space = _layers_space()
    trials = _layers_trials(1200, seed=1)
    goal = best_percentile(0.1)
    z = make_goal_flags(trials, goal)
    matrix = normalize_trials(space, trials, seed=1)
    group = build_groups(space)[0]
    entries = dict(rank_group(group, matrix, z, seed=1, n_boot=0))
    floor = dummy_floor(np.ones(len(trials), dtype=bool), z, 1, n_boot=10)
    curve = interval_reduction(space.param("n_layers"), trials, matrix, goal,
                               floor, seed=1, n_boot=0)
    assert curve.scores[0].value == entries["n_layers"].value


def _check_analyze_ranks_and_restricted_domain(curve, trials, matrix, goal, spec,
                                               seed, n_boot, restricted_ranks):
    # each offset scores the kept rows' analyze ranks bit for bit; ranking
    # them on the shrunken domain instead moves the score by rounding only
    values = np.array([t.config[spec.name] for t in trials])
    for lo_c, score in zip(curve.lows, curve.scores):
        rows = np.flatnonzero(values >= lo_c)
        flags = make_goal_flags([trials[i] for i in rows], goal)
        own = hsic_goal(matrix.column(spec.name)[rows], flags, n_boot=n_boot, seed=seed)
        assert (score.value, score.std_error) == (own.value, own.std_error), lo_c
        ref = hsic_goal(restricted_ranks(dataclasses.replace(spec, lo=lo_c), rows, values),
                        flags, n_boot=n_boot, seed=seed)
        assert score.value == pytest.approx(ref.value, rel=1e-12, abs=0), lo_c
        assert score.std_error == pytest.approx(ref.std_error, rel=1e-12, abs=0), lo_c


def test_interval_reduction_matches_per_row_reference_ranks():
    space = _layers_space()
    trials = _layers_trials(1500, seed=2)
    goal = best_percentile(0.1)
    matrix = normalize_trials(space, trials, seed=6)
    floor = dummy_floor(np.ones(len(trials), dtype=bool),
                        make_goal_flags(trials, goal), 6, n_boot=10)
    curve = interval_reduction(space.param("n_layers"), trials, matrix, goal,
                               floor, seed=6, n_boot=10)
    assert len(curve.offsets) > 3

    def restricted_ranks(spec, rows, values):
        # the band draw of each row's own (seed, parameter, trial) stream
        levels, weights = spec.level_weights()
        u = []
        for i in rows:
            key = (6, zlib.crc32(b"n_layers"), int(i))
            rng = np.random.default_rng(np.random.SeedSequence(key))
            j = levels.index(values[i])
            lo = float(np.sum(weights[:j]))
            u.append(rng.uniform(lo, lo + weights[j]))
        return np.array(u)

    _check_analyze_ranks_and_restricted_domain(curve, trials, matrix, goal,
                                               space.param("n_layers"), 6, 10,
                                               restricted_ranks)


def test_interval_reduction_log_knob_scores_analyze_ranks():
    space = SearchSpace((continuous_param("lr", 1e-5, 1e-1, scale="log"),))
    rng = np.random.default_rng(8)
    trials = []
    for _ in range(1500):
        config = space_module.sample_configuration(space, rng)
        trials.append(ok_trial(config, abs(np.log10(config["lr"]) + 2) + rng.random()))
    goal = best_percentile(0.1)
    matrix = normalize_trials(space, trials, seed=8)
    floor = dummy_floor(np.ones(len(trials), dtype=bool),
                        make_goal_flags(trials, goal), 8, n_boot=10)
    curve = interval_reduction(space.param("lr"), trials, matrix, goal, floor,
                               seed=8, n_boot=10)
    assert len(curve.offsets) > 3

    def restricted_ranks(spec, rows, values):
        # the log-uniform CDF of [lo_c, hi]
        span = np.log(spec.hi) - np.log(spec.lo)
        return np.array([(np.log(values[i]) - np.log(spec.lo)) / span for i in rows])

    _check_analyze_ranks_and_restricted_domain(curve, trials, matrix, goal,
                                               space.param("lr"), 8, 10,
                                               restricted_ranks)


def test_interval_reduction_scores_each_row_set_once(monkeypatch):
    # no trial holds level 2, so bounds 2 and 3 keep the same rows
    space = _layers_space()
    trials = _layers_trials(1200, seed=5, skip=2)
    goal = best_percentile(0.1)
    matrix = normalize_trials(space, trials, seed=5)
    floor = dummy_floor(np.ones(len(trials), dtype=bool),
                        make_goal_flags(trials, goal), 5, n_boot=10)
    calls = []
    score = analysis.hsic_goal
    monkeypatch.setattr(analysis, "hsic_goal",
                        lambda *a, **k: calls.append(1) or score(*a, **k))
    curve = interval_reduction(space.param("n_layers"), trials, matrix, goal,
                               floor, seed=5, n_boot=10)
    assert curve.offsets == tuple(range(9))
    assert len(calls) == len({s.n_total for s in curve.scores}) == 8
    assert curve.scores[1] == curve.scores[2]


@pytest.mark.parametrize("name", ["n_layers", "x"])
def test_interval_reduction_builds_no_streams(monkeypatch, name):
    space = _layers_space()
    trials = _layers_trials(600, seed=4)
    goal = best_percentile(0.1)
    matrix = normalize_trials(space, trials, seed=4)
    floor = dummy_floor(np.ones(len(trials), dtype=bool),
                        make_goal_flags(trials, goal), 4, n_boot=0)
    built = []
    for module in (space_module, analysis):
        if hasattr(module, "_substream"):
            original = module._substream
            monkeypatch.setattr(module, "_substream",
                                lambda *key, f=original: built.append(key) or f(*key))
    curve = interval_reduction(space.param(name), trials, matrix, goal, floor,
                               seed=4, n_boot=0)
    assert len(curve.offsets) > 1
    assert built == []


@pytest.mark.slow
def test_interval_reduction_trainer_curve_trend():
    # on the real trainer space the depth curve must fall (within error bars)
    # until the suggested cutoff; exact values are noise-dependent
    from hsictune.harness import run_random_search
    from hsictune.objectives import RungeMlpObjective

    obj = RungeMlpObjective()
    trials = run_random_search(obj.space, obj, 400, jobs=2, master_seed=21)
    goal = best_percentile(0.1)
    z = make_goal_flags(trials, goal)
    matrix = normalize_trials(obj.space, trials, seed=21)
    rows = np.ones(len(trials), dtype=bool)
    floor = dummy_floor(rows, z, 21, n_boot=50)
    curve = interval_reduction(obj.space.param("n_layers"), trials, matrix,
                               goal, floor, seed=21, n_boot=50)
    stop = curve.cutoff if curve.cutoff is not None else curve.offsets[-1]
    for (ca, sa), (cb, sb) in zip(zip(curve.offsets, curve.scores),
                                  zip(curve.offsets[1:], curve.scores[1:])):
        if cb > stop:
            break
        assert sb.value <= sa.value + 2 * (sa.std_error + sb.std_error)


@pytest.mark.parametrize("lo, hi", [(1e-6, 1e-2), (1e-5, 1e-1)])
def test_interval_reduction_steps_log_knobs_geometrically(lo, hi):
    # each offset drops 1/20 of the log range, so offset 1 keeps ~95% of a
    # log-uniform sample; offset 0 is lo itself, which exp(log(lo)) misses
    # by an ulp for lo = 1e-5
    space = SearchSpace((continuous_param("lr", lo, hi, scale="log"),))
    rng = np.random.default_rng(12)
    trials = [ok_trial(space_module.sample_configuration(space, rng), rng.random())
              for _ in range(2000)]
    goal = best_percentile(0.1)
    matrix = normalize_trials(space, trials, seed=12)
    floor = dummy_floor(np.ones(len(trials), dtype=bool),
                        make_goal_flags(trials, goal), 12, n_boot=0)
    curve = interval_reduction(space.param("lr"), trials, matrix, goal, floor,
                               seed=12, n_boot=0)
    assert len(curve.offsets) > 2
    kept = [s.n_total for s in curve.scores]
    assert kept[1] / kept[0] == pytest.approx(0.95, abs=0.02)
    assert curve.lows[0] == lo
    assert np.allclose(np.diff(np.log(curve.lows)), np.log(hi / lo) / 20)


def test_interval_reduction_requires_ordered_param():
    space = _act_space()
    trials = _level_trials(100, seed=2)
    matrix = normalize_trials(space, trials, seed=2)
    with pytest.raises(EstimationError, match="ordered"):
        interval_reduction(space.param("act"), trials, matrix,
                           best_percentile(0.1),
                           dummy_floor(np.ones(100, dtype=bool),
                                       make_goal_flags(trials, best_percentile(0.1)),
                                       2, n_boot=10))


# -- full pipeline -------------------------------------------------------------------


def test_run_algorithm1_example2_end_to_end():
    space = example2_space()
    trials = example2_trials(2000, seed=6)
    report = run_algorithm1(space, trials, threshold(0.5, "le"), seed=6, n_boot=30)
    assert report.impactful() == ("x1",)
    pairs = report.interacting_pairs()
    assert ("x2", "x3") in pairs
    assert ("x4", "x5") not in pairs


def test_no_thread_outlives_scoring(monkeypatch):
    # a dense-size analysis splits its kernel matrices over the scoring pool;
    # the pool's threads end with each score and every OpenBLAS is back at its
    # own count, so a search can fork its workers afterwards (Python 3.12
    # warns when a multi-threaded process forks)
    obj = build_objective("example2")
    trials = run_random_search(obj.space, obj, 1500, master_seed=7)
    threads, blas_threads = threading.active_count(), blas._blas_threads()
    during = []
    sweep = hsic._DenseBackend.sweep

    def watched_sweep(self, gammas):
        out = sweep(self, gammas)
        during.append(threading.active_count())
        return out

    monkeypatch.setattr(hsic._DenseBackend, "sweep", watched_sweep)
    run_algorithm1(obj.space, trials, threshold(0.5, "le"), seed=7, n_boot=4)
    if blas._cores() > 1:
        assert max(during) > threads
    assert threading.active_count() == threads
    assert blas._blas_threads() == blas_threads
    assert len(run_random_search(obj.space, obj, 4, jobs=2, master_seed=8)) == 4


def test_run_algorithm1_example1_statistical_tie():
    rng = np.random.default_rng(7)
    trials = []
    for _ in range(2000):
        x1, x2 = rng.uniform(0, 2, 2)
        f = int(x1 <= 1 and x2 <= 1)
        trials.append(ok_trial({"x1": x1, "x2": x2}, 1.0 - f))
    space = SearchSpace((continuous_param("x1", 0, 2), continuous_param("x2", 0, 2)))
    report = run_algorithm1(space, trials, threshold(0.5, "le"), seed=7, n_boot=50)
    (n1, s1), (n2, s2) = report.groups[0].entries
    assert abs(s1.value - s2.value) < 3 * (s1.std_error + s2.std_error)
    assert set(report.impactful()) == {"x1", "x2"}


def test_run_algorithm1_zero_variance_errors():
    space = example2_space()
    trials = [ok_trial({f"x{i+1}": 1.0 for i in range(5)}, 0.5) for _ in range(50)]
    with pytest.raises(EstimationError, match="goal set too small"):
        run_algorithm1(space, trials, best_percentile(0.1), seed=0)


def test_run_algorithm1_deterministic_serialization():
    space = example2_space()
    trials = example2_trials(600, seed=8)
    a = run_algorithm1(space, trials, threshold(0.5, "le"), seed=8, n_boot=20)
    b = run_algorithm1(space, trials, threshold(0.5, "le"), seed=8, n_boot=20)
    assert json.dumps(summary_dict(a), sort_keys=True) == json.dumps(
        summary_dict(b), sort_keys=True
    )


def test_run_algorithm1_full_interactions_are_the_interaction_matrix():
    space = example2_space()
    trials = example2_trials(600, seed=8)
    report = run_algorithm1(space, trials, threshold(0.5, "le"), seed=8, n_boot=20,
                            full_interactions=True)
    main_params = report.groups[0].group.members
    assert len(report.interactions) == len(main_params) * (len(main_params) - 1) // 2
    assert report.interactions == interaction_matrix(main_params, report.matrix,
                                                     report.flags, seed=8, n_boot=20)


def test_run_algorithm1_without_pairs_has_no_interactions():
    space = SearchSpace((continuous_param("x", 0.0, 1.0),))
    rng = np.random.default_rng(3)
    trials = [ok_trial({"x": float(x)}, x) for x in rng.random(200)]
    report = run_algorithm1(space, trials, best_percentile(0.1), seed=3, n_boot=5)
    assert report.interactions == ()
    assert report.interacting_pairs() == ()


def test_ranking_robust_to_sampling_distribution():
    # the same goal geometry sampled through different input laws gives
    # compatible normalized scores and the same impact classification
    n = 4000
    sd = np.sqrt(0.1)
    a, b = -1.0 / sd, 1.0 / sd
    rng = np.random.default_rng(9)
    x1_tn = truncnorm.rvs(a, b, loc=1.0, scale=sd, size=n, random_state=rng)
    x2 = rng.uniform(0, 2, n)
    z_tn = (x1_tn <= 1) & (x2 <= 1)
    u1_tn = truncnorm.cdf(x1_tn, a, b, loc=1.0, scale=sd)
    s_tn = hsic_goal(u1_tn, z_tn, n_boot=50, seed=0)

    x1_u = rng.uniform(0, 2, n)
    z_u = (x1_u <= 1) & (x2 <= 1)
    s_u = hsic_goal(x1_u / 2, z_u, n_boot=50, seed=0)
    assert abs(s_tn.value - s_u.value) < 3 * (s_tn.std_error + s_u.std_error)

    floor_tn = dummy_floor(np.ones(n, dtype=bool), z_tn, 1, n_boot=50)
    floor_u = dummy_floor(np.ones(n, dtype=bool), z_u, 1, n_boot=50)
    assert s_tn.value > floor_tn.value + 2 * (s_tn.std_error + floor_tn.std_error)
    assert s_u.value > floor_u.value + 2 * (s_u.std_error + floor_u.std_error)


def test_impact_bar_is_exclusive_at_its_boundary():
    # a score exactly at floor + 2 (se + floor_se) does not clear the bar,
    # one ulp above it does, for single parameters and pairs alike
    from hsictune.analysis import GroupRanking, SensitivityReport
    from hsictune.hsic import HsicScore, Kernel
    from hsictune.space import GroupSpec, MAIN_GROUP

    kernel = Kernel((0.1,))
    floor = HsicScore(3.1e-4, 1.7e-4, 300, 30, kernel)
    quiet = HsicScore(1e-4, 1e-5, 300, 30, kernel)
    se = 2.3e-4
    at_bar = floor.value + 2 * (se + floor.std_error)
    for value, clears in ((at_bar, False), (np.nextafter(at_bar, 1.0), True)):
        score = HsicScore(float(value), se, 300, 30, kernel)
        ranking = GroupRanking(GroupSpec(MAIN_GROUP, ("a", "b")),
                               (("a", score), ("b", quiet)), floor)
        report = SensitivityReport(best_percentile(0.1), 0, (ranking,),
                                   ((("a", "b"), score),), None, None)
        assert ranking.impactful() == (("a",) if clears else ())
        assert report.impactful() == (("a",) if clears else ())
        assert report.interacting_pairs() == ((("a", "b"),) if clears else ())


def test_group_scores_only_use_jointly_active_rows():
    from hsictune.space import ConditionalRule, boolean_param

    space = SearchSpace(
        (
            boolean_param("flag"),
            continuous_param("x", 0.0, 1.0),
            continuous_param("child", 0.0, 1.0),
        ),
        (ConditionalRule("child", "flag", (True,)),),
    )
    rng = np.random.default_rng(10)
    trials = []
    for _ in range(600):
        cfg = {"flag": bool(rng.random() < 0.5), "x": float(rng.random())}
        if cfg["flag"]:
            cfg["child"] = float(rng.random())
        trials.append(ok_trial(cfg, float(rng.random())))
    report = run_algorithm1(space, trials, best_percentile(0.2), seed=10, n_boot=10)
    child_group = report.group("child")
    n_active = sum(1 for t in trials if t.config.get("flag") is True)
    assert child_group.floor.n_total == n_active
    for name, score in child_group.entries:
        assert score.n_total == n_active
