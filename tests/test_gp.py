import numpy as np
import pytest

from hsictune.gp import (
    FitError,
    _nll_and_grad,
    decode,
    encode,
    encoding_width,
    expected_improvement,
    gp_fit,
    gp_predict,
    gpbo,
)
from hsictune.objectives import BraninObjective, QuadraticObjective, build_objective
from hsictune.space import (
    ConditionalRule,
    SearchSpace,
    boolean_param,
    categorical_param,
    continuous_param,
    integer_param,
)


def mixed_space():
    return SearchSpace(
        (
            continuous_param("lr", 1e-4, 1e-1, scale="log"),
            integer_param("n", 1, 8),
            categorical_param("act", ("a", "b", "c")),
            boolean_param("flag"),
        )
    )


# -- encoding -------------------------------------------------------------------


def test_encoding_width_counts_onehot_blocks():
    assert encoding_width(mixed_space()) == 1 + 1 + 3 + 1


def test_round_trip_discrete_exact():
    space = mixed_space()
    config = {"lr": 1e-2, "n": 5, "act": "b", "flag": True}
    out = decode(space, encode(space, config))
    assert out["n"] == 5 and out["act"] == "b" and out["flag"] is True


def test_round_trip_continuous_tight():
    space = mixed_space()
    rng = np.random.default_rng(0)
    for _ in range(50):
        lr = float(np.exp(rng.uniform(np.log(1e-4), np.log(1e-1))))
        config = {"lr": lr, "n": 3, "act": "a", "flag": False}
        out = decode(space, encode(space, config))
        assert abs(np.log(out["lr"]) - np.log(lr)) < (np.log(1e-1) - np.log(1e-4)) / 2**10


def test_inactive_child_encodes_to_zero_block():
    space = SearchSpace(
        (boolean_param("p"), continuous_param("c", 0.0, 1.0)),
        (ConditionalRule("c", "p", (True,)),),
    )
    x = encode(space, {"p": False})
    assert x[1] == 0.0
    cfg = decode(space, np.array([0.0, 0.7]))
    assert "c" not in cfg


# -- gp fit / predict -------------------------------------------------------------


def test_interpolates_line_at_low_noise():
    X = np.linspace(0, 1, 5)[:, None]
    y = 2.0 * X[:, 0] + 1.0
    model = gp_fit(X, y)
    for xi, yi in zip(X, y):
        mean, var = gp_predict(model, xi)
        assert abs(mean - yi) < 1e-6
        assert var >= 0


def test_conflicting_duplicates_force_noise():
    X = np.array([[0.5], [0.5], [0.2], [0.8]])
    y = np.array([0.0, 1.0, 0.3, 0.4])
    model = gp_fit(X, y)
    assert model.noise_var > 1e-4


def test_identical_points_identical_targets_fit_ok():
    X = np.array([[0.5], [0.5]])
    y = np.array([0.3, 0.3])
    model = gp_fit(X, y)
    mean, var = gp_predict(model, [0.5])
    assert np.isfinite(mean) and var >= 0


def test_far_point_reverts_to_prior():
    rng = np.random.default_rng(1)
    X = rng.uniform(0, 0.05, (8, 1))
    y = np.sin(20 * X[:, 0])
    model = gp_fit(X, y)
    far = np.array([X.max() + 20 * model.lengthscales[0]])
    _, var = gp_predict(model, far)
    assert var >= 0.9 * model.signal_var * model.y_std**2


def test_variance_nonnegative_everywhere():
    rng = np.random.default_rng(2)
    X = rng.random((12, 2))
    y = rng.random(12)
    model = gp_fit(X, y)
    pts = rng.random((1000, 2))
    _, var = gp_predict(model, pts)
    assert np.all(var >= 0)


def test_nonfinite_targets_rejected():
    with pytest.raises(FitError):
        gp_fit(np.array([[0.0], [1.0]]), np.array([0.0, np.inf]))


def test_nll_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    X = rng.random((5, 2))
    y = rng.random(5)
    ys = (y - y.mean()) / max(y.std(), 1e-12)
    theta = np.array([np.log(0.4), np.log(0.9), np.log(1.2), np.log(1e-3)])
    _, grad = _nll_and_grad(theta, X, ys)
    eps = 1e-6
    for k in range(len(theta)):
        tp, tm = theta.copy(), theta.copy()
        tp[k] += eps
        tm[k] -= eps
        fp, _ = _nll_and_grad(tp, X, ys)
        fm, _ = _nll_and_grad(tm, X, ys)
        fd = (fp - fm) / (2 * eps)
        assert abs(grad[k] - fd) / max(abs(fd), 1e-8) < 1e-4


# -- expected improvement -----------------------------------------------------------


def test_ei_closed_form_cases():
    from hsictune.gp import ei_value

    assert ei_value(1.0, 0.0, best_so_far=1.0) == 0.0
    delta = 0.37
    assert ei_value(1.0 - delta, 0.0, best_so_far=1.0) == pytest.approx(delta)
    # mean at the incumbent with unit spread: EI is the standard normal pdf at 0
    assert ei_value(1.0, 1.0, best_so_far=1.0) == pytest.approx(0.398942, abs=1e-6)
    X = np.array([[0.0], [1.0]])
    model = gp_fit(X, np.array([0.0, 1.0]))
    ei = expected_improvement(model, np.array([[0.5]]), best_so_far=0.5)
    assert np.all(np.atleast_1d(ei) >= 0)


def test_ei_nonnegative_on_grid():
    rng = np.random.default_rng(4)
    X = rng.random((10, 1))
    y = rng.random(10)
    model = gp_fit(X, y)
    grid = np.linspace(0, 1, 200)[:, None]
    ei = expected_improvement(model, grid, best_so_far=float(y.min()))
    assert np.all(ei >= 0)


# -- the optimization loop -----------------------------------------------------------


def test_gpbo_quadratic_finds_argmin():
    obj = QuadraticObjective()
    best, history = gpbo(obj, obj.space, n_init=10, n_iter=20, seed=0)
    assert len(history) == 30
    assert abs(best.config["x"] - 0.3) < 0.05


def test_gpbo_beats_random_on_branin():
    obj = BraninObjective()
    wins = 0
    for seed in range(5):
        best, history = gpbo(obj, obj.space, n_init=10, n_iter=40, seed=seed)
        rng = np.random.default_rng((seed, 99))
        rand_best = min(
            obj.evaluate({"a": float(rng.random()), "b": float(rng.random())}, i).score
            for i in range(50)
        )
        if best.score <= rand_best:
            wins += 1
    assert wins >= 4


def test_gpbo_fixed_params_pinned_everywhere():
    obj = build_objective("three_term")
    fixed = {"x3": 2, "x2": 0.5}
    best, history = gpbo(obj, obj.space, fixed=fixed, n_init=6, n_iter=8, seed=1)
    assert len(history) == 14
    for t in history:
        assert t.config["x3"] == 2
        assert t.config["x2"] == 0.5
    assert abs(best.config["x1"] - 0.7) < 0.2


def test_gpbo_tiny_discrete_space_enumerated():
    space = SearchSpace(
        (boolean_param("flag"), continuous_param("x", 0.0, 1.0))
    )

    class TinyObjective:
        name = "tiny"
        space = None

        def evaluate(self, config, seed):
            from hsictune.harness import Trial

            err = (0.0 if config["flag"] else 1.0) + 0.1 * config["x"]
            return Trial(dict(config), err, "ok", seed)

    obj = TinyObjective()
    _, history = gpbo(obj, space, fixed={"x": 0.5}, n_init=4, n_iter=2, seed=0)
    levels = {t.config["flag"] for t in history[:4]}
    assert levels == {True, False}


def test_gpbo_objective_failures_do_not_abort():
    class FlakyObjective:
        name = "flaky"

        def __init__(self):
            self.space = SearchSpace((continuous_param("x", 0.0, 1.0),))

        def evaluate(self, config, seed):
            from hsictune.harness import Trial

            if config["x"] > 0.8:
                raise RuntimeError("boom")
            return Trial(dict(config), config["x"], "ok", seed)

    obj = FlakyObjective()
    best, history = gpbo(obj, obj.space, n_init=8, n_iter=6, seed=3)
    assert len(history) == 14
    assert any(t.status == "failed" for t in history) or all(
        t.config["x"] <= 0.8 for t in history
    )
    assert best.ok


def test_gpbo_incumbent_monotone():
    obj = QuadraticObjective()
    _, history = gpbo(obj, obj.space, n_init=8, n_iter=12, seed=5)
    best_so_far = np.inf
    incumbents = []
    for t in history:
        if t.ok:
            best_so_far = min(best_so_far, t.score)
        incumbents.append(best_so_far)
    assert all(b <= a + 1e-15 for a, b in zip(incumbents, incumbents[1:]))
