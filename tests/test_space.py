import dataclasses
import json
import math
import tracemalloc
import zlib

import numpy as np
import pytest

from hsictune import space as space_module
from hsictune.space import (
    MAIN_GROUP,
    ConditionalRule,
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
    space_to_dict,
)


def make_space(params, rules=()):
    return SearchSpace(tuple(params), tuple(rules))


def dropout_space():
    return make_space(
        [
            continuous_param("lr", 1e-6, 1e-2, scale="log"),
            boolean_param("dropout"),
            continuous_param("dropout_rate", 0.0, 1.0),
        ],
        [ConditionalRule("dropout_rate", "dropout", (True,))],
    )


# -- parsing -----------------------------------------------------------------


def test_parse_single_log_param():
    doc = {"params": [{"name": "lr", "kind": "continuous", "lo": 1e-6, "hi": 1e-2,
                       "scale": "log"}]}
    space = parse_space(json.dumps(doc))
    assert len(space.params) == 1
    p = space.params[0]
    assert p.kind == "continuous" and p.scale == "log"
    assert p.lo == 1e-6 and p.hi == 1e-2


def test_parse_conditional_rule_gives_two_groups():
    doc = {
        "params": [
            {"name": "dropout", "kind": "boolean"},
            {"name": "dropout_rate", "kind": "continuous", "lo": 0.0, "hi": 1.0},
        ],
        "rules": [{"child": "dropout_rate", "parent": "dropout", "when": [True]}],
    }
    space = parse_space(json.dumps(doc))
    groups = build_groups(space)
    assert [g.id for g in groups] == [MAIN_GROUP, "dropout_rate"]


def test_parse_two_level_conditioning_rejected():
    doc = {
        "params": [
            {"name": "a", "kind": "boolean"},
            {"name": "b", "kind": "boolean"},
            {"name": "c", "kind": "continuous", "lo": 0, "hi": 1},
        ],
        "rules": [
            {"child": "b", "parent": "a", "when": [True]},
            {"child": "c", "parent": "b", "when": [True]},
        ],
    }
    with pytest.raises(SpaceError, match="two-level"):
        parse_space(json.dumps(doc))


def test_parse_rejects_unknown_keys():
    with pytest.raises(SpaceError, match="unknown top-level"):
        parse_space(json.dumps({"params": [], "extra": 1}))
    doc = {"params": [{"name": "x", "kind": "continuous", "lo": 0, "hi": 1,
                       "wat": True}]}
    with pytest.raises(SpaceError, match="unknown keys"):
        parse_space(json.dumps(doc))


def test_parse_syntax_error_reports_location():
    with pytest.raises(SpaceError, match="line 1"):
        parse_space("{not json")


def test_weights_must_sum_to_one():
    with pytest.raises(SpaceError, match="sum to 1"):
        categorical_param("act", ("a", "b"), (0.5, 0.6))


def test_unknown_parent_rejected():
    with pytest.raises(SpaceError, match="unknown parent"):
        make_space(
            [boolean_param("a"), continuous_param("b", 0, 1)],
            [ConditionalRule("b", "nope", (True,))],
        )


def test_duplicate_child_rule_rejected():
    with pytest.raises(SpaceError, match="two rules"):
        make_space(
            [boolean_param("a"), boolean_param("b"),
             continuous_param("c", 0, 1)],
            [ConditionalRule("c", "a", (True,)),
             ConditionalRule("c", "b", (True,))],
        )


# -- sampling ----------------------------------------------------------------


def test_sampling_is_deterministic():
    space = dropout_space()
    a = [sample_configuration(space, np.random.default_rng(5)) for _ in range(10)]
    b = [sample_configuration(space, np.random.default_rng(5)) for _ in range(10)]
    assert a[0] == b[0]


def test_child_present_iff_parent_activated():
    space = dropout_space()
    rng = np.random.default_rng(0)
    for _ in range(500):
        config = sample_configuration(space, rng)
        assert ("dropout_rate" in config) == (config["dropout"] is True)
        space.validate_config(config)


def test_uniform_value_in_bounds():
    space = make_space([continuous_param("x", 0.0, 2.0)])
    rng = np.random.default_rng(11)
    vals = [sample_configuration(space, rng)["x"] for _ in range(100)]
    assert all(0.0 <= v <= 2.0 for v in vals)


def test_categorical_frequencies_near_weights():
    space = make_space([categorical_param("c", ("a", "b", "c", "d"))])
    rng = np.random.default_rng(2)
    draws = [sample_configuration(space, rng)["c"] for _ in range(10_000)]
    for level in "abcd":
        freq = sum(d == level for d in draws) / 10_000
        assert abs(freq - 0.25) < 0.02


@pytest.mark.parametrize("spec", [
    integer_param("i2", 0, 1),
    integer_param("i9", 1, 9),
    integer_param("i13", -3, 9),
    integer_param("i1e5", 1, 10**5),
    categorical_param("w", ("a", "b", "c", "d"), (0.1, 0.2, 0.3, 0.4)),
    categorical_param("odd", (1, "x", None), (0.7, 0.0, 0.3)),
    boolean_param("b"),
    boolean_param("b3", 0.3),
    boolean_param("b1", 1.0),
])
def test_draw_equals_generator_choice(spec):
    # a draw searches a cached CDF; it must keep rng.choice's bits and stream
    levels, weights = spec.level_weights()
    for seed in range(200):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got = space_module._sample_value(spec, rng)
            want = levels[int(ref.choice(len(levels), p=np.asarray(weights)))]
            assert got == want and type(got) is type(want)
        assert rng.bit_generator.state == ref.bit_generator.state


# -- cdf ranks ---------------------------------------------------------------


def test_linear_cdf_exact():
    spec = continuous_param("x", 0.0, 2.0)
    assert cdf_transform(spec, 0.5, np.random.default_rng(0)) == 0.25


def test_log_cdf_midpoint():
    spec = continuous_param("lr", 1e-6, 1e-2, scale="log")
    r = cdf_transform(spec, 1e-4, np.random.default_rng(0))
    assert abs(r - 0.5) < 1e-12


def test_categorical_rank_lands_in_level_band():
    spec = categorical_param("c", ("a", "b", "c", "d"))
    rng = np.random.default_rng(3)
    for _ in range(200):
        r = cdf_transform(spec, "c", rng)
        assert 0.50 <= r < 0.75


def test_out_of_domain_names_parameter():
    spec = continuous_param("x", 0.0, 2.0)
    with pytest.raises(SpaceError, match="x"):
        cdf_transform(spec, 3.0, np.random.default_rng(0))


@pytest.mark.parametrize(
    "spec",
    [
        continuous_param("x", 0.0, 2.0),
        continuous_param("lr", 1e-6, 1e-2, scale="log"),
        integer_param("n", 1, 10),
        categorical_param("c", ("a", "b", "c"), (0.2, 0.5, 0.3)),
        boolean_param("b", weight_true=0.3),
    ],
)
def test_rank_marginal_is_uniform(spec):
    # Kolmogorov-Smirnov style check against the uniform CDF
    space = make_space([spec])
    rng = np.random.default_rng(17)
    ranks = np.empty(10_000)
    for i in range(10_000):
        v = sample_configuration(space, rng)[spec.name]
        ranks[i] = cdf_transform(spec, v, rng)
    ranks.sort()
    grid = (np.arange(1, 10_001)) / 10_000
    assert np.max(np.abs(ranks - grid)) < 0.02


# -- normalization -----------------------------------------------------------


def _fake_trials(space, n, seed):
    rng = np.random.default_rng(seed)
    return [sample_configuration(space, rng) for _ in range(n)]


def test_normalize_all_active_has_no_mask():
    space = make_space([continuous_param("x", 0, 1), integer_param("n", 1, 4)])
    trials = _fake_trials(space, 3, 0)
    m = normalize_trials(space, trials, seed=1)
    assert all(m.mask(name).all() for name in m.names)
    for name in m.names:
        col = m.column(name)
        assert np.all((col >= 0) & (col < 1))


def test_normalize_masks_inactive_child():
    space = dropout_space()
    trials = [
        {"lr": 1e-4, "dropout": False},
        {"lr": 1e-3, "dropout": True, "dropout_rate": 0.5},
    ]
    m = normalize_trials(space, trials, seed=1)
    assert not m.mask("dropout_rate")[0]
    assert m.mask("dropout_rate")[1]
    assert np.isnan(m.column("dropout_rate")[0])


def test_normalize_is_bit_reproducible():
    space = dropout_space()
    trials = _fake_trials(space, 50, 4)
    a = normalize_trials(space, trials, seed=9)
    b = normalize_trials(space, trials, seed=9)
    for name in a.names:
        assert np.array_equal(a.column(name), b.column(name), equal_nan=True)
        # a NaN rank is the inactive mark, and exactly the cells the configs lack
        assert np.array_equal(a.mask(name), ~np.isnan(a.column(name)))
        assert a.mask(name).tolist() == [name in t for t in trials]


def test_normalize_rejects_mismatched_config():
    space = make_space([continuous_param("x", 0, 1)])
    with pytest.raises(SpaceError):
        normalize_trials(space, [{"x": 5.0}], seed=0)


def _reference_rank(spec, value, seed, index):
    # one cell at a time: the CDF formula, or a uniform inside the level's
    # band from the stream keyed by (seed, parameter, trial)
    if spec.kind == "continuous":
        if spec.scale == "log":
            r = (math.log(value) - math.log(spec.lo)) / (
                math.log(spec.hi) - math.log(spec.lo))
        else:
            r = (value - spec.lo) / (spec.hi - spec.lo)
        return min(float(r), np.nextafter(1.0, 0.0))
    key = (seed & 0xFFFFFFFF, zlib.crc32(spec.name.encode()), index)
    rng = np.random.default_rng(np.random.SeedSequence(key))
    levels, weights = spec.level_weights()
    j = levels.index(bool(value) if spec.kind == "boolean" else value)
    lo = float(np.sum(weights[:j]))
    return float(rng.uniform(lo, lo + weights[j]))


def test_normalize_matches_per_cell_reference():
    space = make_space(
        [
            continuous_param("x", -1.0, 3.0),
            continuous_param("gain", 1.0, 1.25, scale="log"),
            integer_param("n", 3, 40),
            categorical_param("act", ("relu", "tanh", "elu", "selu"),
                              (0.13, 0.47, 0.29, 0.11)),
            boolean_param("dropout", weight_true=0.3),
            continuous_param("dropout_rate", 0.0, 0.9),
        ],
        [ConditionalRule("dropout_rate", "dropout", (True,))],
    )
    trials = _fake_trials(space, 1000, 8)
    m = normalize_trials(space, trials, seed=12)
    for p in space.params:
        expected = np.array([
            _reference_rank(p, t[p.name], 12, i) if p.name in t else np.nan
            for i, t in enumerate(trials)
        ])
        assert np.array_equal(m.column(p.name), expected, equal_nan=True), p.name


def test_continuous_normalization_builds_no_streams(monkeypatch):
    built = []
    original = space_module._substream
    monkeypatch.setattr(space_module, "_substream",
                        lambda *key: built.append(key) or original(*key))
    space = make_space([continuous_param("x", 0, 1),
                        continuous_param("lr", 1e-6, 1e-2, scale="log")])
    normalize_trials(space, _fake_trials(space, 50, 0), seed=3)
    assert built == []
    normalize_trials(dropout_space(), _fake_trials(dropout_space(), 50, 0), seed=3)
    assert len(built) == 50          # one draw per discrete cell, none per continuous



def test_band_sums_only_for_the_levels_present(monkeypatch):
    # a band sum per level of the knob made ranking quadratic in its range
    space = make_space([integer_param("n", 1, 1000),
                        categorical_param("act", tuple("abcdefghijkl"))])
    trials = _fake_trials(space, 10, 4)
    sums = []
    original = np.sum
    monkeypatch.setattr(space_module.np, "sum",
                        lambda *a, **k: sums.append(1) or original(*a, **k))
    normalize_trials(space, trials, seed=3)
    distinct = sum(len({t[p.name] for t in trials}) for p in space.params)
    assert 0 < len(sums) <= distinct


# -- groups ------------------------------------------------------------------


def test_no_rules_single_group():
    space = make_space([continuous_param("x", 0, 1), boolean_param("b")])
    groups = build_groups(space)
    assert len(groups) == 1
    assert groups[0].id == MAIN_GROUP
    assert set(groups[0].members) == {"x", "b"}


def test_two_parents_give_three_groups_no_joint():
    space = make_space(
        [
            boolean_param("dropout"),
            categorical_param("optimizer", ("adam", "sgd")),
            continuous_param("dropout_rate", 0, 1),
            continuous_param("momentum", 0.5, 0.99),
        ],
        [
            ConditionalRule("dropout_rate", "dropout", (True,)),
            ConditionalRule("momentum", "optimizer", ("sgd",)),
        ],
    )
    groups = build_groups(space)
    assert len(groups) == 3
    ids = {g.id for g in groups}
    assert ids == {MAIN_GROUP, "dropout_rate", "momentum"}
    for g in groups:
        if g.id == "dropout_rate":
            assert "momentum" not in g.members
        if g.id == "momentum":
            assert "dropout_rate" not in g.members


def test_same_parent_same_activation_children_merge():
    space = make_space(
        [
            categorical_param("optimizer", ("adam", "nadam", "sgd")),
            continuous_param("beta_1", 0.8, 1.0),
            continuous_param("beta_2", 0.8, 1.0),
            boolean_param("amsgrad"),
        ],
        [
            ConditionalRule("beta_1", "optimizer", ("adam", "nadam")),
            ConditionalRule("beta_2", "optimizer", ("adam", "nadam")),
            ConditionalRule("amsgrad", "optimizer", ("adam",)),
        ],
    )
    groups = build_groups(space)
    ids = {g.id: g for g in groups}
    assert set(ids) == {MAIN_GROUP, "beta_1+beta_2", "amsgrad"}
    # amsgrad's subpopulation also has both betas active
    assert {"beta_1", "beta_2", "amsgrad"} <= set(ids["amsgrad"].members)
    assert "amsgrad" not in ids["beta_1+beta_2"].members


def test_groups_do_not_depend_on_declaration_order():
    params = [
        boolean_param("dropout"),
        continuous_param("dropout_rate", 0, 1),
        continuous_param("lr", 1e-6, 1e-2, scale="log"),
    ]
    rules = [ConditionalRule("dropout_rate", "dropout", (True,))]
    a = build_groups(make_space(params, rules))
    b = build_groups(make_space(params[::-1], rules))
    assert [g.id for g in a] == [g.id for g in b]
    for ga, gb in zip(a, b):
        assert set(ga.members) == set(gb.members)


def test_space_from_dict_inverts_space_to_dict():
    space = make_space(
        [
            continuous_param("lr", 1e-6, 1e-2, scale="log"),
            integer_param("n", 1.0, 10),
            categorical_param("act", ["a", "b", "c"], [0.25, 0.25, 0.5]),
            boolean_param("dropout", weight_true=1),
            continuous_param("dropout_rate", 0, 1),
        ],
        [ConditionalRule("dropout_rate", "dropout", [True])],
    )
    doc = space_to_dict(space)
    assert space_from_dict(doc) == space
    assert space_to_dict(space_from_dict(json.loads(json.dumps(doc)))) == doc
    n = space.param("n")
    assert (type(n.lo), type(n.hi)) == (int, int)
    assert space.param("dropout_rate").lo == 0.0 and space.param("dropout").weight_true == 1.0
    assert dataclasses.replace(space.param("n"), lo=3.0).lo == 3
    with pytest.raises(SpaceError, match="integral"):
        integer_param("n", 1.5, 10)


def test_wide_integer_knob_draws_and_ranks_in_bounded_memory():
    # the levels are a range, the weights one float array: no Python object per level
    space = make_space([integer_param("n", 1, 10**6)])
    tracemalloc.start()
    try:
        rng = np.random.default_rng(0)
        configs = [sample_configuration(space, rng) for _ in range(10)]
        matrix = normalize_trials(space, configs, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all((matrix.column("n") >= 0) & (matrix.column("n") < 1))
    assert peak < 32 * 2**20
