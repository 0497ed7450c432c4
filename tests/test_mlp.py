import numpy as np
import pytest

from hsictune.objectives.mlp import (
    ACTIVATIONS,
    AdamOptimizer,
    MlpConfig,
    MlpNet,
    RungeMlpObjective,
    SgdOptimizer,
    mlp_train_eval,
    runge_space,
)


def _flat_params(net):
    return [p for p in net.params]


def _finite_difference_grads(net, X, y, eps=1e-5):
    grads = []
    for p in net.params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            old = p[idx]
            p[idx] = old + eps
            lp, _ = net.loss_and_grads(X, y)
            p[idx] = old - eps
            lm, _ = net.loss_and_grads(X, y)
            p[idx] = old
            g[idx] = (lp - lm) / (2 * eps)
            it.iternext()
        grads.append(g)
    return grads


@pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
@pytest.mark.parametrize("loss", ["l2", "l1"])
def test_backprop_matches_finite_differences(activation, loss):
    config = MlpConfig(n_layers=2, n_units=3, activation=activation, loss=loss,
                       seed=9)
    rng = np.random.default_rng(9)
    net = MlpNet(config, rng)
    X = rng.uniform(-1, 1, (6, 1))
    # central differences are only a valid oracle away from the relu and l1
    # kinks: keep pre-activations and residuals clear of zero
    if activation == "relu":
        pre, _ = net.forward(X)
        assert min(np.abs(z).min() for z in pre[:-1]) > 1e-3
    y = net.predict(X) + rng.choice([-1.0, 1.0], 6) * rng.uniform(0.2, 0.8, 6)
    _, analytic = net.loss_and_grads(X, y)
    numeric = _finite_difference_grads(net, X, y)
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(n), 1e-8)
        assert np.max(np.abs(a - n) / denom) < 1e-4


def test_zero_weight_network_l2_loss_closed_form():
    config = MlpConfig(n_layers=2, n_units=4, loss="l2", seed=0)
    net = MlpNet(config, np.random.default_rng(0))
    for W in net.weights:
        W[:] = 0.0
    y = np.array([0.5, -1.0, 2.0])
    loss, _ = net.loss_and_grads(np.zeros((3, 1)), y)
    assert abs(loss - np.mean(y**2)) < 1e-12


def test_relu_dead_units_have_zero_gradient():
    config = MlpConfig(n_layers=1, n_units=3, activation="relu", seed=1)
    net = MlpNet(config, np.random.default_rng(1))
    net.biases[0][:] = -10.0      # pre-activations all negative
    X = np.random.default_rng(2).uniform(-1, 1, (5, 1))
    _, grads = net.loss_and_grads(X, np.ones(5))
    assert np.allclose(grads[0], 0.0)          # first-layer weights see nothing


def test_sgd_step_is_exactly_minus_lr_grad():
    params = [np.array([1.0, 2.0]), np.array([[3.0]])]
    grads = [np.array([0.5, -1.0]), np.array([[2.0]])]
    SgdOptimizer(0.1).step(params, grads)
    assert np.allclose(params[0], [1.0 - 0.05, 2.0 + 0.1])
    assert np.allclose(params[1], [[3.0 - 0.2]])


def test_adam_zero_gradient_no_move():
    params = [np.array([1.0, -2.0])]
    before = params[0].copy()
    opt = AdamOptimizer(0.1)
    opt.step(params, [np.zeros(2)])
    assert np.array_equal(params[0], before)


def test_forward_backward_wrapper():
    config = MlpConfig(n_layers=1, n_units=2, seed=3)
    net = MlpNet(config, np.random.default_rng(config.seed))
    loss, grads = net.loss_and_grads(np.array([[0.1], [0.2]]), np.array([0.0, 1.0]))
    assert np.isfinite(loss)
    assert len(grads) == 4   # two weight matrices plus two bias vectors


def test_training_learns_constant_target():
    config = MlpConfig(n_layers=1, n_units=8, activation="tanh", loss="l2",
                       optimizer="adam", learning_rate=0.05, batch_size=16,
                       n_epochs=300, seed=5)
    X = np.linspace(-1, 1, 16)
    y = np.full(16, 0.7)
    trial = mlp_train_eval(config, (X, y), (X, y))
    assert trial.ok
    assert trial.score < 1e-3


def test_training_divergence_path():
    config = MlpConfig(n_layers=3, n_units=32, activation="relu", loss="l2",
                       optimizer="sgd", learning_rate=10.0, batch_size=4,
                       n_epochs=50, seed=2)
    X = np.linspace(-1, 1, 11)
    trial = mlp_train_eval(config, (X, 100 * X), (X, 100 * X))
    assert trial.status == "diverged"
    assert trial.score is None


def test_training_is_deterministic():
    config = MlpConfig(n_layers=2, n_units=6, optimizer="adam",
                       learning_rate=1e-2, batch_size=4, n_epochs=30, seed=9)
    X = np.linspace(-1, 1, 11)
    y = 1.0 / (1.0 + 15.0 * X * X)
    a = mlp_train_eval(config, (X, y), (X, y))
    b = mlp_train_eval(config, (X, y), (X, y))
    assert a.score == b.score and a.status == b.status


def test_runge_space_shape():
    space = runge_space()
    assert len(space.params) == 8
    assert len(space.rules) == 1
    rule = space.rules[0]
    assert rule.child == "adam_beta2" and rule.parent == "optimizer"


def test_runge_objective_conditional_config():
    obj = RungeMlpObjective(n_epochs=5)
    cfg = {
        "n_layers": 2, "n_units": 16, "activation": "tanh", "loss": "l2",
        "optimizer": "sgd", "learning_rate": 1e-3, "batch_size": 11,
    }
    t = obj.evaluate(cfg, 0)
    assert t.status in ("ok", "diverged")
    cfg_adam = dict(cfg, optimizer="adam", adam_beta2=0.95)
    t2 = obj.evaluate(cfg_adam, 0)
    assert t2.status in ("ok", "diverged")
    assert t2.config["adam_beta2"] == 0.95
