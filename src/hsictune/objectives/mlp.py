"""Minimal dense-network trainer for the bump-function regression task.

Just enough of a neural-network engine to give the sensitivity pipeline a
realistic objective at desk scale: dense layers of uniform width, four
activations, L2/L1 training losses, plain SGD or Adam, seeded scaled-uniform
fan-in init.  Test error is always mean squared error so configurations
trained with different losses stay comparable.  Any non-finite
intermediate marks the trial diverged instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..harness import STATUS_DIVERGED, STATUS_OK, Trial
from ..space import (
    ConditionalRule,
    SearchSpace,
    categorical_param,
    continuous_param,
    integer_param,
)
from .analytic import runge

__all__ = [
    "MlpConfig",
    "MlpNet",
    "SgdOptimizer",
    "AdamOptimizer",
    "mlp_train_eval",
    "runge_space",
    "RungeMlpObjective",
]


def _elu(x):
    return np.where(x > 0, x, np.expm1(x))


def _elu_grad(x):
    return np.where(x > 0, 1.0, np.exp(x))


def _relu(x):
    return np.maximum(x, 0.0)


def _relu_grad(x):
    return (x > 0).astype(float)


def _tanh_grad(x):
    t = np.tanh(x)
    return 1.0 - t * t


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _sigmoid_grad(x):
    s = _sigmoid(x)
    return s * (1.0 - s)


ACTIVATIONS = {
    "elu": (_elu, _elu_grad),
    "relu": (_relu, _relu_grad),
    "tanh": (np.tanh, _tanh_grad),
    "sigmoid": (_sigmoid, _sigmoid_grad),
}

LOSSES = ("l2", "l1")
OPTIMIZERS = ("sgd", "adam")
_ADAM_BETA_1 = 0.9
_ADAM_EPS = 1e-8


@dataclass
class MlpConfig:
    n_layers: int = 2
    n_units: int = 16
    activation: str = "tanh"
    loss: str = "l2"
    optimizer: str = "adam"
    learning_rate: float = 1e-2
    batch_size: int = 11
    n_epochs: int = 50
    seed: int = 0
    beta_2: float = 0.999

    def __post_init__(self):
        if self.n_layers < 1 or self.n_units < 1:
            raise ValueError("depth and width must be at least 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.loss not in LOSSES or self.optimizer not in OPTIMIZERS:
            raise ValueError("loss must be l2/l1 and optimizer sgd/adam")


class MlpNet:
    """Dense layers of uniform width with a scalar output head."""

    def __init__(self, config: MlpConfig, rng: np.random.Generator, n_inputs: int = 1):
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

    def forward(self, X: np.ndarray):
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

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.forward(X)[1][-1][:, 0]

    def loss_and_grads(self, X: np.ndarray, y: np.ndarray):
        """Mean loss over the batch plus gradients for every weight/bias."""
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


class SgdOptimizer:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params, grads):
        for p, g in zip(params, grads):
            p -= self.lr * g


class AdamOptimizer:
    def __init__(self, lr: float, beta_2=0.999):
        self.lr, self.b2 = lr, beta_2
        self.t = 0
        self.m = None
        self.v = None

    def step(self, params, grads):
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        c1 = 1.0 - _ADAM_BETA_1**self.t
        c2 = 1.0 - self.b2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= _ADAM_BETA_1
            m += (1.0 - _ADAM_BETA_1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + _ADAM_EPS)


def _train_once(config: MlpConfig, X, y) -> MlpNet | None:
    """One training run seeded by config.seed; None signals divergence."""
    rng = np.random.default_rng(config.seed)
    net = MlpNet(config, rng, n_inputs=X.shape[1])
    if config.optimizer == "adam":
        opt = AdamOptimizer(config.learning_rate, config.beta_2)
    else:
        opt = SgdOptimizer(config.learning_rate)
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


def mlp_train_eval(config: MlpConfig, train, test) -> Trial:
    """Train for n_epochs and report test mean squared error.

    Any non-finite loss or parameter marks the trial diverged; that is a
    status, not a failure.
    """
    def _as_xy(data):
        X = np.asarray(data[0], dtype=float)
        y = np.asarray(data[1], dtype=float)
        return (X[:, None] if X.ndim == 1 else X), y

    X_train, y_train = _as_xy(train)
    X_test, y_test = _as_xy(test)
    net = _train_once(config, X_train, y_train)
    pred = None if net is None else net.predict(X_test)
    if pred is None or not np.all(np.isfinite(pred)):
        return Trial(vars(config).copy(), None, STATUS_DIVERGED, config.seed)
    error = float(np.mean((pred - y_test) ** 2))
    return Trial(vars(config).copy(), error, STATUS_OK, config.seed)


def runge_space() -> SearchSpace:
    """Eight-dimensional trainer space with one conditional parameter.

    The second-moment decay is only sampled when the optimizer is adam,
    which exercises the conditional-group machinery end to end.  Width is
    capped at desk scale.
    """
    params = (
        integer_param("n_layers", 1, 10),
        integer_param("n_units", 7, 128),
        categorical_param("activation", ("elu", "relu", "tanh", "sigmoid")),
        categorical_param("loss", ("l2", "l1")),
        categorical_param("optimizer", ("adam", "sgd")),
        continuous_param("learning_rate", 1e-6, 1e-2, scale="log"),
        integer_param("batch_size", 1, 11),
        continuous_param("adam_beta2", 0.8, 1.0),
    )
    rules = (ConditionalRule("adam_beta2", "optimizer", ("adam",)),)
    return SearchSpace(params, rules)


class RungeMlpObjective:
    """Train a small dense net on the bump function, score by test MSE.

    The training grid has 11 equally spaced points and the test grid 1000,
    both on the function's natural domain [-1, 1].
    """

    name = "runge_mlp"

    def __init__(self, n_epochs: int = 30):
        self.space = runge_space()
        self.n_epochs = int(n_epochs)
        self.x_train = np.linspace(-1.0, 1.0, 11)
        self.x_test = np.linspace(-1.0, 1.0, 1000)
        self.y_train = runge(self.x_train)
        self.y_test = runge(self.x_test)

    def evaluate(self, config: dict, seed: int) -> Trial:
        mlp = MlpConfig(
            n_layers=config["n_layers"],
            n_units=config["n_units"],
            activation=config["activation"],
            loss=config["loss"],
            optimizer=config["optimizer"],
            learning_rate=config["learning_rate"],
            batch_size=config["batch_size"],
            n_epochs=self.n_epochs,
            seed=int(seed),
            beta_2=config.get("adam_beta2", 0.999),
        )
        trial = mlp_train_eval(
            mlp,
            (self.x_train[:, None], self.y_train),
            (self.x_test[:, None], self.y_test),
        )
        trial.config = dict(config)
        trial.seed = int(seed)
        return trial
