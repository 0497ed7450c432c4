import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest

from hsictune import analysis, twostep
from hsictune.analysis import (
    best_percentile,
    dummy_floor,
    interval_reduction,
    make_goal_flags,
    normalize_trials,
    run_algorithm1,
    threshold,
)
from hsictune.harness import Trial, run_random_search
from hsictune.hsic import EstimationError
from hsictune.objectives import Example2Objective, ThreeTermObjective
from hsictune.twostep import (
    Budgets,
    FixingPolicy,
    _speed_value,
    select_fixed_values,
    two_step_optimize,
)


def three_term_setup(n, seed):
    obj = ThreeTermObjective()
    trials = run_random_search(obj.space, obj, n, master_seed=seed)
    return obj, trials


def test_speed_direction_pins_cheap_end():
    obj, trials = three_term_setup(400, seed=0)
    goal = best_percentile(0.1)
    report = run_algorithm1(obj.space, trials, goal, seed=0, n_boot=30)
    policy = FixingPolicy(speed_directions={"x3": "minimize"})
    fixed, provenance, dims = select_fixed_values(report, trials, policy,
                                                  space=obj.space)
    assert fixed["x3"] == 1
    assert provenance["x3"] == "speed"
    assert "x1" in dims           # the dominant input stays free


def test_non_impactful_copies_best_trial():
    obj, trials = three_term_setup(400, seed=1)
    goal = best_percentile(0.1)
    report = run_algorithm1(obj.space, trials, goal, seed=1, n_boot=30)
    policy = FixingPolicy(speed_directions={})
    fixed, provenance, dims = select_fixed_values(report, trials, policy,
                                                  space=obj.space)
    best = min((t for t in trials if t.ok), key=lambda t: t.score)
    for name, value in fixed.items():
        if provenance[name] == "best_trial":
            assert value == best.config[name]
    assert all(tag in ("speed", "best_trial", "interaction")
               for tag in provenance.values())


def test_interaction_partner_matching_region():
    # hand-built report: pair (a, b) flagged, b speed-fixed; a must copy from
    # the best trial whose b value sits near the pinned one
    from hsictune.space import SearchSpace, continuous_param, integer_param

    space = SearchSpace((
        continuous_param("a", 0.0, 1.0),
        integer_param("b", 1, 100),
    ))
    rng = np.random.default_rng(3)
    trials = []
    for _ in range(100):
        av, bv = float(rng.random()), int(rng.integers(1, 101))
        # best errors when b is large, but for small b the good a is 0.9
        err = 0.5 - 0.004 * bv + (0.2 if (bv <= 20 and abs(av - 0.9) > 0.2) else 0.0)
        trials.append(Trial({"a": av, "b": bv}, err + rng.uniform(0, 0.001), "ok", 0))
    real = run_algorithm1(space, trials, best_percentile(0.2), seed=3, n_boot=20)
    report = SimpleNamespace(impactful=real.impactful,
                             interacting_pairs=lambda: (("a", "b"),))
    policy = FixingPolicy(speed_directions={"b": "minimize"})
    fixed, provenance, _ = select_fixed_values(report, trials, policy, space=space)
    assert fixed["b"] == 1
    assert provenance["a"] == "interaction"
    region = [t for t in trials if t.config["b"] <= 1 + 100 / 10]
    expect = min(region, key=lambda t: t.score).config["a"]
    assert fixed["a"] == expect


def test_speed_fixing_on_wide_integer_domain():
    # a non-impactful width knob on {7..512} with direction minimize pins to 7
    from hsictune.space import SearchSpace, continuous_param, integer_param

    space = SearchSpace((
        continuous_param("x", 0.0, 1.0),
        integer_param("n_units", 7, 512),
    ))
    rng = np.random.default_rng(11)
    trials = [
        Trial({"x": float(rng.random()), "n_units": int(rng.integers(7, 513))},
              float((rng.random() - 0.5) ** 2 + rng.uniform(0, 0.01)), "ok", 0)
        for _ in range(300)
    ]
    report = run_algorithm1(space, trials, best_percentile(0.1), seed=11, n_boot=20)
    policy = FixingPolicy(speed_directions={"n_units": "minimize"})
    fixed, provenance, dims = select_fixed_values(report, trials, policy,
                                                  space=space)
    assert fixed["n_units"] == 7
    assert provenance["n_units"] == "speed"


def test_speed_pin_on_truncated_continuous_curve():
    # the pin sits at lo + cutoff * span / n_steps_continuous however many
    # offsets survive: on [0, 1] with 20 steps, 10 kept offsets and cutoff 5
    # pin 0.25
    from hsictune.space import SearchSpace, continuous_param

    space = SearchSpace((continuous_param("x", 0.0, 1.0),))
    rng = np.random.default_rng(5)
    trials = [Trial({"x": x}, x + rng.uniform(0, 0.01), "ok", 0)
              for x in rng.random(300)]
    goal = best_percentile(0.2)
    z = make_goal_flags(trials, goal)
    floor = dummy_floor(np.ones(len(trials), dtype=bool), z, 5, n_boot=10)
    matrix = normalize_trials(space, trials, seed=5)
    curve = interval_reduction(space.param("x"), trials, matrix, goal, floor,
                               seed=5, n_boot=10)
    truncated = dataclasses.replace(curve, offsets=tuple(range(10)), cutoff=5)
    assert _speed_value(space.param("x"), "minimize", truncated) == 0.25


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(Budgets)])
def test_budgets_reject_a_negative_count(field):
    with pytest.raises(ValueError, match="must not be negative"):
        Budgets(**{field: -1})
    assert getattr(Budgets(**{field: 0}), field) == 0


def test_no_ok_trials_raises():
    obj = ThreeTermObjective()
    trials = [Trial({"x1": 0.5, "x2": 0.5, "x3": 1}, None, "failed", 0)
              for _ in range(5)]
    policy = FixingPolicy()
    with pytest.raises(EstimationError):
        select_fixed_values(None, trials, policy, space=obj.space)


def test_neutral_speed_direction_runs_no_reduction(monkeypatch):
    reduced = []
    reduce = twostep._reduction_steps

    def spy(spec, *args, **kwargs):
        reduced.append(spec.name)
        return reduce(spec, *args, **kwargs)

    monkeypatch.setattr(twostep, "_reduction_steps", spy)
    # a maximize knob pins at hi without a curve, so it is not reduced either
    obj, trials = three_term_setup(200, seed=9)
    policy = FixingPolicy(speed_directions={"x1": "maximize", "x2": "minimize",
                                            "x3": "neutral"})
    result = two_step_optimize(obj.space, trials, obj, best_percentile(0.1), policy,
                               Budgets(3, 2, 3, 2), seed=9, n_boot=10)
    assert reduced == ["x2"]
    assert set(result.curves) == {"x2"}
    assert result.fixed["x1"] == obj.space.param("x1").hi


def test_speed_pin_at_cutoff_zero_scores_one_offset(monkeypatch):
    # x3 does not matter, so its curve's first offset sits at the floor: the
    # pin reads that cutoff and no later offset is scored, yet every value
    # is fixed as the whole curve fixes it
    obj, trials = three_term_setup(300, seed=4)
    goal = best_percentile(0.1)
    policy = FixingPolicy(speed_directions={"x3": "minimize"})
    scored, analyzed = [], []
    score, analyze = analysis.hsic_goal, twostep.run_algorithm1

    def counted(*args, **kwargs):
        scored.append(bool(analyzed))
        return score(*args, **kwargs)

    def analysis_then_count(*args, **kwargs):
        report = analyze(*args, **kwargs)
        analyzed.append(report)
        return report

    monkeypatch.setattr(analysis, "hsic_goal", counted)
    monkeypatch.setattr(twostep, "run_algorithm1", analysis_then_count)
    result = two_step_optimize(obj.space, trials, obj, goal, policy, Budgets(0, 0, 0, 0),
                               seed=4, n_boot=10)
    assert scored.count(True) == 1          # the curve's one score
    curve = result.curves["x3"]
    assert curve.offsets == (0,) and curve.cutoff == 0
    report = result.report
    full = interval_reduction(obj.space.param("x3"), trials, report.matrix, goal,
                              report.groups[0].floor, seed=4, n_boot=10)
    assert len(full.offsets) > 1 and full.cutoff == 0
    assert full.scores[0] == curve.scores[0] and full.lows[0] == curve.lows[0]
    fixed, provenance, _ = select_fixed_values(report, trials, policy, {"x3": full},
                                               space=obj.space)
    assert (result.fixed, result.provenance) == (fixed, provenance)
    assert result.fixed["x3"] == 1


def test_two_step_pipeline_three_term():
    obj, trials = three_term_setup(300, seed=4)
    goal = best_percentile(0.1)
    policy = FixingPolicy(mode="accuracy_and_speed",
                          speed_directions={"x3": "minimize"})
    budgets = Budgets(8, 12, 8, 12)
    result = two_step_optimize(obj.space, trials, obj, goal, policy, budgets,
                               seed=4, n_boot=30)
    # budget accounting is exact
    assert result.n_evaluations == 300 + (8 + 12) + (8 + 12)
    # every step-1 evaluation honors the fixed assignment
    for t in result.history_step1:
        for name, value in result.fixed.items():
            if name in t.config:
                assert t.config[name] == value
    # provenance is complete over fixed values
    assert set(result.fixed) == set(result.provenance)
    assert result.incumbent.score < min(t.score for t in trials if t.ok) + 1e-9
    assert abs(result.incumbent.config["x1"] - 0.7) < 0.1


def test_two_step_accuracy_only_monotone():
    obj, trials = three_term_setup(300, seed=5)
    goal = best_percentile(0.1)
    policy = FixingPolicy(mode="accuracy_only",
                          speed_directions={"x3": "minimize"})
    budgets = Budgets(6, 10, 6, 10)
    result = two_step_optimize(obj.space, trials, obj, goal, policy, budgets,
                               seed=5, n_boot=30)
    assert result.step2_incumbent.score <= result.step1_incumbent.score + 1e-15
    # accuracy_only re-opens the speed-pinned knob in step 2
    assert "x3" in result.step2_dims


def test_two_step_example2_finds_goal_region():
    obj = Example2Objective()
    trials = run_random_search(obj.space, obj, 600, master_seed=6)
    goal = threshold(0.5, "le")
    policy = FixingPolicy(mode="accuracy_only")
    budgets = Budgets(10, 20, 6, 6)
    result = two_step_optimize(obj.space, trials, obj, goal, policy, budgets,
                               seed=6, n_boot=30)
    # the flagged pair joins the dominant input in step 1
    assert "x1" in result.step1_dims
    assert {"x2", "x3"} <= set(result.step1_dims)
    assert result.incumbent.score == 0.0


def test_all_impactful_makes_step_two_a_noop():
    # both inputs dominate the error, nothing is fixable: step 1 covers every
    # dimension and step 2 has nothing left to open
    from hsictune.space import SearchSpace, continuous_param

    class TwoStrong:
        name = "two_strong"

        def __init__(self):
            self.space = SearchSpace((continuous_param("x1", 0.0, 1.0),
                                      continuous_param("x2", 0.0, 1.0)))

        def evaluate(self, config, seed):
            err = (config["x1"] - 0.7) ** 2 + (config["x2"] - 0.2) ** 2
            return Trial(dict(config), err, "ok", seed)

    obj = TwoStrong()
    trials = run_random_search(obj.space, obj, 300, master_seed=8)
    policy = FixingPolicy(mode="accuracy_only")
    result = two_step_optimize(obj.space, trials, obj, best_percentile(0.1),
                               policy, Budgets(6, 8, 6, 8), seed=8, n_boot=30)
    assert result.fixed == {}
    assert set(result.step1_dims) == {"x1", "x2"}
    assert result.step2_dims == ()
    assert result.step2_incumbent is None
    assert result.n_evaluations == 300 + 14


def test_two_step_deterministic():
    obj, trials = three_term_setup(200, seed=7)
    goal = best_percentile(0.1)
    policy = FixingPolicy(speed_directions={"x3": "minimize"})
    budgets = Budgets(5, 6, 5, 6)
    a = two_step_optimize(obj.space, trials, obj, goal, policy, budgets,
                          seed=7, n_boot=20)
    b = two_step_optimize(obj.space, trials, obj, goal, policy, budgets,
                          seed=7, n_boot=20)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
        b.to_dict(), sort_keys=True
    )
