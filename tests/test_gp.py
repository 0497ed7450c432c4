import math

import numpy as np
import pytest
import scipy.optimize
from scipy.linalg import LinAlgError, cho_solve, cholesky

from hsictune import gp
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
    _resolve_children,
    _scale,
    boolean_param,
    categorical_param,
    continuous_param,
    integer_param,
    sample_configuration,
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


@pytest.mark.parametrize("fixed", [{}, {"opt": "adam"}, {"opt": "sgd"}, {"beta": 0.9}])
def test_snapped_block_equals_rowwise_snapping(fixed):
    space = SearchSpace(
        (
            continuous_param("lr", 1e-5, 1e-1, scale="log"),
            continuous_param("drop", -0.5, 0.5),
            integer_param("n", 1, 13),
            categorical_param("opt", ("sgd", "adam", "rms")),
            boolean_param("flag"),
            continuous_param("beta", 0.5, 0.999, scale="log"),
        ),
        (ConditionalRule("beta", "opt", ("adam",)),),
    )
    layout = gp._blocks(space)
    rng = np.random.default_rng(3)
    # as gpbo builds them: a forced base row, free columns replaced
    base = encode(space, gp._force(space, sample_configuration(space, rng), fixed, rng))
    free = [c for p, pos, w in layout[0] if p.name not in fixed for c in range(pos, pos + w)]
    cand = np.tile(base, (300, 1))
    cand[:, free] = rng.random((300, len(free)))
    cand[:3, free] = [[0.0], [0.5], [1.0]]     # clip edges and argmax ties
    state = rng.bit_generator.state
    rows = [encode(space, gp._force(space, decode(space, r), fixed, rng)) for r in cand]
    assert rng.bit_generator.state == state
    assert np.array_equal(gp._snap(space, layout, cand, fixed), np.array(rows))



# The row-wise codec that the array codec replaced, kept verbatim as the
# reference: one configuration or one row at a time, kind by kind.
def _encode(layout, config: dict) -> np.ndarray:
    blocks, width = layout
    x = np.zeros(width)
    for p, pos, w in blocks:
        if p.name not in config:
            continue
        v = config[p.name]
        if p.kind == "continuous":
            f, _ = _scale(p)
            x[pos] = (f(v) - f(p.lo)) / (f(p.hi) - f(p.lo))
        elif p.kind == "integer":
            n = int(p.hi) - int(p.lo) + 1
            x[pos] = (int(v) - int(p.lo) + 0.5) / n
        elif p.kind == "categorical":
            x[pos + p.levels.index(v)] = 1.0
        else:
            x[pos] = 1.0 if v else 0.0
    return x


def _decode(space: SearchSpace, layout, x: np.ndarray) -> dict:
    config = {}
    for p, pos, w in layout[0]:
        if p.kind == "continuous":
            u = float(np.clip(x[pos], 0.0, 1.0))
            f, f_inv = _scale(p)
            v = f_inv(f(p.lo) + u * (f(p.hi) - f(p.lo)))
            config[p.name] = float(min(max(v, p.lo), p.hi))
        elif p.kind == "integer":
            n = int(p.hi) - int(p.lo) + 1
            j = int(np.clip(np.floor(x[pos] * n), 0, n - 1))
            config[p.name] = int(p.lo) + j
        elif p.kind == "categorical":
            config[p.name] = p.levels[int(np.argmax(x[pos : pos + w]))]
        else:
            config[p.name] = bool(x[pos] >= 0.5)
    return _resolve_children(space, config, None)


@pytest.mark.parametrize("fixed", [{}, {"opt": "adam"}, {"beta": 0.9}])
def test_codec_matches_rowwise_reference(fixed):
    space = SearchSpace(
        (
            continuous_param("lr", 1e-5, 1e-1, scale="log"),
            continuous_param("drop", -0.5, 0.5),
            integer_param("n", 1, 13),
            categorical_param("opt", ("sgd", "adam", "rms")),
            boolean_param("flag"),
            continuous_param("beta", 0.5, 0.999, scale="log"),
        ),
        (ConditionalRule("beta", "opt", ("adam",)),),
    )
    layout = gp._blocks(space)
    rng = np.random.default_rng(8)
    base = _encode(layout, gp._force(space, sample_configuration(space, rng), fixed, rng))
    free = [c for p, pos, w in layout[0] if p.name not in fixed for c in range(pos, pos + w)]
    cand = np.tile(base, (400, 1))
    cand[:, free] = rng.random((400, len(free)))
    cand[:3, free] = [[0.0], [0.5], [1.0]]
    cand[3:100, free] = np.round(cand[3:100, free] * 2) / 2    # edges and argmax ties
    for row in cand:
        config = _decode(space, layout, row)
        got = decode(space, row)
        assert list(got) == list(config)
        assert all(type(got[k]) is type(v) and np.array_equal(got[k], v)
                   for k, v in config.items())
        forced = gp._force(space, config, fixed, rng)
        assert np.array_equal(encode(space, config), _encode(layout, config))
        assert np.array_equal(encode(space, forced), _encode(layout, forced))
    rows = [_encode(layout, gp._force(space, _decode(space, layout, r), fixed, rng))
            for r in cand]
    assert np.array_equal(gp._snap(space, layout, cand, fixed), np.array(rows))


def test_wide_integer_knob_builds_no_level_tuple():
    space = SearchSpace((integer_param("n", 0, 10**12), continuous_param("x", 0.0, 1.0)))
    x = encode(space, {"n": 10**12 - 7, "x": 0.25})
    assert decode(space, x)["n"] == 10**12 - 7
    gp._snap(space, gp._blocks(space), np.random.default_rng(0).random((50, 2)), {})
    assert "_level_table" not in space.param("n").__dict__


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


# The likelihood as it was computed one dimension at a time, through scipy's
# checked cholesky and cho_solve: the stacked pass must keep its bits.


def _reference_build_cov(M, signal, noise):
    K = signal * M
    K[np.diag_indices_from(K)] += noise
    return K


def _reference_chol_with_jitter(K):
    scale = float(np.mean(np.diag(K)))
    for jit in (0.0,) + gp._JITTERS:
        try:
            L = cholesky(K + jit * scale * np.eye(len(K)), lower=True)
            return L, jit * scale
        except LinAlgError:
            continue
    raise FitError("kernel matrix singular even at maximum jitter")


def _reference_nll_and_grad(theta, X, y):
    d = X.shape[1]
    ls = np.exp(theta[:d])
    signal = math.exp(theta[d])
    noise = math.exp(theta[d + 1])
    S = list(gp._scaled_sq(X, X, ls))
    r = gp._scaled_r(S)
    M = gp._matern52(r)
    try:
        L, _ = _reference_chol_with_jitter(_reference_build_cov(M, signal, noise))
    except FitError:
        return 1e25, np.zeros_like(theta)
    n = len(y)
    alpha = cho_solve((L, True), y)
    nll = 0.5 * float(y @ alpha) + float(np.log(np.diag(L)).sum()) + 0.5 * n * math.log(2 * math.pi)
    Kinv = cho_solve((L, True), np.eye(n))
    W = np.outer(alpha, alpha) - Kinv
    grad = np.empty_like(theta)
    base = signal * (5.0 / 3.0) * (1.0 + gp._SQRT5 * r) * np.exp(-gp._SQRT5 * r)
    for k in range(d):
        grad[k] = -0.5 * float(np.sum(W * (base * S[k])))
    grad[d] = -0.5 * float(np.sum(W * (signal * M)))
    grad[d + 1] = -0.5 * float(np.trace(W)) * noise
    return nll, grad


def test_nll_and_grad_matches_the_per_dimension_reference():
    rng = np.random.default_rng(17)
    jittered = 0
    for case in range(240):
        n, d = int(rng.integers(2, 33)), int(rng.integers(1, 21))
        if case % 3 == 0:       # duplicate rows: only the jitter ladder factors K
            X = rng.random((max(1, n // 3), d))[rng.integers(0, max(1, n // 3), n)]
        else:
            X = rng.random((n, d))
        y = rng.standard_normal(n)
        theta = np.concatenate([rng.uniform(math.log(3e-2), math.log(3e1), d),
                                [rng.uniform(math.log(1e-3), math.log(1e3)),
                                 rng.uniform(math.log(1e-10), 0.0)]])
        if case % 3 == 0:
            # below the noise bound, duplicates leave K singular to rounding
            theta[d + 1] = -60.0
        nll, grad = _nll_and_grad(theta, X, y)
        ref_nll, ref_grad = _reference_nll_and_grad(theta, X, y)
        assert nll == ref_nll and np.array_equal(grad, ref_grad), (case, n, d)
        M = gp._matern52(gp._scaled_r(gp._scaled_sq(X, X, np.exp(theta[:d]))))
        K = _reference_build_cov(M, math.exp(theta[d]), math.exp(theta[d + 1]))
        jittered += _reference_chol_with_jitter(K)[1] > 0
    assert jittered >= 10
    # a signal and noise that underflow to 0 leave K = 0, which no jitter rescues
    X, y = rng.random((6, 3)), rng.standard_normal(6)
    theta = np.array([0.0, 0.0, 0.0, -800.0, -800.0])
    nll, grad = _nll_and_grad(theta, X, y)
    assert nll == _reference_nll_and_grad(theta, X, y)[0] == 1e25
    assert np.array_equal(grad, np.zeros(5))


# The refit as gp_fit made it before it shared the likelihood's factorization:
# theta decoded again, the lazy per-dimension terms and the covariance built
# on its own.


def _parent_build_cov(M, signal, noise):
    K = signal * M
    K.flat[:: len(K) + 1] += noise
    return K


def _parent_chol_with_jitter(K):
    """The lower Cholesky factor of K plus the first jitter of the ladder
    (times K's mean diagonal) at which potrf succeeds, and that jitter."""
    n = len(K)
    scale = float(np.mean(np.diag(K)))
    for jit in (0.0,) + gp._JITTERS:
        A = np.array(K, order="F")      # the layout potrf factors in place
        A.flat[:: n + 1] += jit * scale
        L, info = gp._POTRF(A, lower=True, overwrite_a=True)
        if info == 0:
            return L, jit * scale
    raise FitError("kernel matrix singular even at maximum jitter")


def _reference_refit(theta, X, ys):
    d = X.shape[1]
    ls = np.exp(theta[:d])
    signal = math.exp(theta[d])
    noise = math.exp(theta[d + 1])
    M = gp._matern52(gp._scaled_r(gp._scaled_sq(X, X, ls)))
    L, jit = _parent_chol_with_jitter(_parent_build_cov(M, signal, noise))
    alpha, _ = gp._POTRS(L, ys, lower=True)
    return L, alpha, jit


def test_refit_matches_the_reference_refit(monkeypatch):
    rng = np.random.default_rng(19)
    # at random parameters, duplicate rows and a vanishing noise included, so
    # that the jitter ladder takes part
    jittered = 0
    for case in range(60):
        n, d = int(rng.integers(2, 25)), int(rng.integers(1, 8))
        X = rng.random((n, d))
        if case % 2 == 0:
            X = X[rng.integers(0, max(1, n // 2), n)]
        ys = rng.standard_normal(n)
        theta = np.concatenate([rng.uniform(-3.5, 3.4, d), [rng.uniform(-6.9, 6.9),
                                rng.uniform(-23.0, 0.0) if case % 2 else -60.0]])
        ls, signal, noise, _, _, _, L, jit = gp._factor(theta, X)
        alpha, _ = gp._POTRS(L, ys, lower=True)
        ref_L, ref_alpha, ref_jit = _reference_refit(theta, X, ys)
        assert np.array_equal(L, ref_L) and np.array_equal(alpha, ref_alpha), case
        assert jit == ref_jit
        assert np.array_equal(ls, np.exp(theta[:d]))
        assert (signal, noise) == (math.exp(theta[d]), math.exp(theta[d + 1]))
        jittered += jit > 0
    assert jittered >= 5
    # through gp_fit, at the optimum its eight starts reach
    results = []
    minimize = scipy.optimize.minimize

    def recording_minimize(*args, **kwargs):
        results.append(minimize(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(scipy.optimize, "minimize", recording_minimize)
    for n, d in ((4, 1), (12, 2), (20, 5)):
        results.clear()
        X, y = rng.random((n, d)), rng.standard_normal(n)
        model = gp_fit(X, y)
        best = None
        for res in results:
            if best is None or res.fun < best.fun:
                best = res
        ys = (y - model.y_mean) / model.y_std
        L, alpha, jit = _reference_refit(best.x, X, ys)
        assert np.array_equal(model.chol, L) and np.array_equal(model.alpha, alpha)
        assert model.jitter == jit


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


@pytest.mark.parametrize("n_init, n_iter", [(-2, 3), (2, -1)])
def test_gpbo_rejects_negative_budgets(n_init, n_iter):
    # the history holds exactly n_init + n_iter trials, so neither may be negative
    obj = QuadraticObjective()
    with pytest.raises(ValueError, match="must not be negative"):
        gpbo(obj, obj.space, n_init=n_init, n_iter=n_iter, seed=0)


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


def _loop_scaled_r(X1, X2, ls):
    d2 = np.zeros((len(X1), len(X2)))
    for d in range(X1.shape[1]):
        d2 += ((X1[:, d, None] - X2[None, :, d]) / ls[d]) ** 2
    return np.sqrt(np.maximum(d2, 0.0))


def test_scaled_r_equals_the_per_dimension_loop():
    rng = np.random.default_rng(5)
    for d, n1, n2 in [(1, 4, 9), (3, 20, 20), (11, 25, 300), (17, 8, 2048)]:
        X1, X2 = rng.random((n1, d)), rng.random((n2, d))
        ls = np.exp(rng.uniform(np.log(3e-2), np.log(3e1), d))
        got = gp._scaled_r(gp._scaled_sq(X1, X2, ls))
        assert np.array_equal(got, _loop_scaled_r(X1, X2, ls))


def test_finite_configs_checks_its_size_before_enumerating():
    space = SearchSpace((integer_param("n", 0, 10**12), boolean_param("b")))
    assert gp._finite_configs(space, {}, 10) is None
    assert "_level_table" not in space.param("n").__dict__
    small = SearchSpace((integer_param("n", 0, 4), boolean_param("b")))
    assert gp._finite_configs(small, {}, 9) is None
    assert len(gp._finite_configs(small, {}, 10)) == 10
