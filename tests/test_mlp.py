import numpy as np
import pytest

from hsictune.objectives import mlp
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
    for p, g in zip(params, grads):
        SgdOptimizer(0.1).step(p, g)
    assert np.allclose(params[0], [1.0 - 0.05, 2.0 + 0.1])
    assert np.allclose(params[1], [[3.0 - 0.2]])


def test_adam_zero_gradient_no_move():
    params = [np.array([1.0, -2.0])]
    before = params[0].copy()
    opt = AdamOptimizer(0.1)
    opt.step(params[0], np.zeros(2))
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


# The trainer as it was, one array per layer: the flat parameter vector and
# the in-place Adam step must keep every bit of its trials.


class _LayerNet:
    def __init__(self, config, rng, n_inputs=1):
        self.config = config
        sizes = [n_inputs] + [config.n_units] * config.n_layers + [1]
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            self.weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    @property
    def params(self):
        return self.weights + self.biases

    def forward(self, X):
        act, _ = ACTIVATIONS[self.config.activation]
        pre, post = [], [X]
        h = X
        last = len(self.weights) - 1
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ W + b
            pre.append(z)
            h = z if i == last else act(z)   # linear output head
            post.append(h)
        return pre, post

    def predict(self, X):
        return self.forward(X)[1][-1][:, 0]

    def loss_and_grads(self, X, y):
        _, act_grad = ACTIVATIONS[self.config.activation]
        pre, post = self.forward(X)
        pred = post[-1][:, 0]
        resid = pred - y
        n = len(y)
        if self.config.loss == "l2":
            loss = float(np.mean(resid**2))
            dl = (2.0 * resid / n)[:, None]
        else:
            loss = float(np.mean(np.abs(resid)))
            dl = (np.sign(resid) / n)[:, None]
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        delta = dl
        for i in range(len(self.weights) - 1, -1, -1):
            grads_w[i] = post[i].T @ delta
            grads_b[i] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ self.weights[i].T) * act_grad(pre[i - 1])
        return loss, grads_w + grads_b


class _LayerSgd:
    def __init__(self, lr):
        self.lr = lr

    def step(self, params, grads):
        for p, g in zip(params, grads):
            p -= self.lr * g


class _LayerAdam:
    def __init__(self, lr, beta_2=0.999):
        self.lr, self.b2 = lr, beta_2
        self.t = 0
        self.m = None
        self.v = None

    def step(self, params, grads):
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        c1 = 1.0 - mlp._ADAM_BETA_1**self.t
        c2 = 1.0 - self.b2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= mlp._ADAM_BETA_1
            m += (1.0 - mlp._ADAM_BETA_1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + mlp._ADAM_EPS)


def _layer_train_once(config, X, y):
    rng = np.random.default_rng(config.seed)
    net = _LayerNet(config, rng, n_inputs=X.shape[1])
    if config.optimizer == "adam":
        opt = _LayerAdam(config.learning_rate, config.beta_2)
    else:
        opt = _LayerSgd(config.learning_rate)
    n = len(y)
    bs = max(1, min(config.batch_size, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.n_epochs):
            order = rng.permutation(n)
            for start in range(0, n, bs):
                idx = order[start : start + bs]
                loss, grads = net.loss_and_grads(X[idx], y[idx])
                if not np.isfinite(loss):
                    return None
                opt.step(net.params, grads)
            if not all(np.all(np.isfinite(p)) for p in net.params):
                return None
    return net


def test_flat_trainer_matches_the_per_layer_reference(monkeypatch):
    x_train, x_test = np.linspace(-1, 1, 11), np.linspace(-1, 1, 200)
    train = (x_train[:, None], 1.0 / (1.0 + 25.0 * x_train**2))
    test = (x_test[:, None], 1.0 / (1.0 + 25.0 * x_test**2))
    configs = [
        MlpConfig(n_layers=1 + k % 3, n_units=5 + 7 * (k % 4), activation=activation,
                  loss=loss, optimizer=optimizer, learning_rate=10.0 ** (-1 - k % 3),
                  batch_size=batch_size, n_epochs=12, seed=k, beta_2=0.9 + 0.05 * (k % 2))
        for k, (optimizer, activation, loss, batch_size) in enumerate(
            (o, a, l, b) for o in ("adam", "sgd") for a in sorted(ACTIVATIONS)
            for l in ("l1", "l2") for b in (1, 11))
    ]
    configs.append(MlpConfig(n_layers=3, n_units=32, activation="relu", optimizer="sgd",
                             learning_rate=10.0, batch_size=4, n_epochs=50, seed=2))
    got = [mlp_train_eval(c, train, test) for c in configs]
    monkeypatch.setattr(mlp, "_train_once", _layer_train_once)
    want = [mlp_train_eval(c, train, test) for c in configs]
    assert got == want
    assert got[-1].status == "diverged" and sum(t.ok for t in got) >= 24
