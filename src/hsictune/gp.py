"""Gaussian-process surrogate and expected-improvement optimization.

One codec maps configurations to [0, 1]^d: _columns decodes rows to
per-parameter columns (a continuous knob's value, through space's CDF maps,
or a discrete knob's level index, through space's _level_index and _levels)
and _rows encodes them (CDF midpoints for integers, one-hot blocks for
categoricals, 0/1 for booleans; inactive conditional blocks are zeroed);
encode and decode are its one-row case.  The surrogate is a Matern-5/2 ARD
process fit by maximum marginal likelihood from eight starts, with a jitter
ladder guarding the Cholesky.  The likelihood, evaluated some 400 times per
fit on at most a few dozen rows, costs per call, not per flop, so it makes
one pass over one stacked (d, n, n) array of per-dimension distance terms
for the distances and every lengthscale gradient, and calls LAPACK's potrf
and potrs directly rather than through scipy's checked wrappers; its bits
are those of the per-dimension loop.  A prediction, over thousands of
candidates, builds the same terms lazily through _scaled_sq, one dimension
at a time.
The optimizer alternates fit, EI maximization over scrambled Sobol
candidates with a local polish of the best few, and evaluation; failed
evaluations are penalized, never fatal.  Candidates, polished points and
the history are rows, decoded only to be evaluated.
scipy (L-BFGS-B, scrambled Sobol, the normal distribution, LAPACK) is
imported by the functions that use it, when first called, so importing this
module loads numpy alone and only an optimization pays for scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .harness import _best_trial, _evaluate_trial, trial_seed
from .space import (SearchSpace, _continuous_cdf, _continuous_quantile, _level_index,
                    _levels, _resolve_children, _seed_sequence, sample_configuration)

__all__ = [
    "FitError",
    "GpModel",
    "gp_fit",
    "gp_predict",
    "ei_value",
    "expected_improvement",
    "encode",
    "decode",
    "encoding_width",
    "gpbo",
]

_JITTERS = tuple(1e-10 * 10**k for k in range(7))   # 1e-10 .. 1e-4
_SQRT5 = math.sqrt(5.0)
_N_CANDIDATES = 2048    # Sobol candidates per acquisition step
_N_POLISH = 5           # best candidates given a local EI polish


@functools.cache
def _lapack(name):
    """The double-precision LAPACK routine that scipy.linalg's cholesky or
    cho_solve wraps, called without those wrappers' per-call input checks
    and copies.  scipy loads on the first call, not with this module."""
    from scipy.linalg import get_lapack_funcs

    return get_lapack_funcs(name, (np.empty(0),))


def _POTRF(*args, **kwargs):
    return _lapack("potrf")(*args, **kwargs)


def _POTRS(*args, **kwargs):
    return _lapack("potrs")(*args, **kwargs)


class FitError(RuntimeError):
    pass


# -- encoding ----------------------------------------------------------------


def _blocks(space: SearchSpace):
    """The encoding layout: ([(spec, first column, width)], total width)."""
    out = []
    pos = 0
    for p in space.params:
        width = len(p.levels) if p.kind == "categorical" else 1
        out.append((p, pos, width))
        pos += width
    return out, pos


def encoding_width(space: SearchSpace) -> int:
    return _blocks(space)[1]


def _columns(layout, X: np.ndarray) -> dict:
    """The decoder: rows X as per-parameter columns (see _column_entry)."""
    columns = {}
    for p, pos, w in layout[0]:
        u = X[:, pos]
        if p.kind == "continuous":
            columns[p.name] = _continuous_quantile(p, u)
        elif p.kind == "integer":
            n = p.hi - p.lo + 1
            columns[p.name] = np.clip(np.floor(u * n), 0, n - 1).astype(np.int64)
        elif p.kind == "categorical":
            columns[p.name] = np.argmax(X[:, pos : pos + w], axis=1)
        else:
            columns[p.name] = (u >= 0.5).astype(np.int64)
    return columns


def _rows(layout, columns: dict, n: int) -> np.ndarray:
    """The encoder: n rows of per-parameter columns; a missing column encodes to zeros."""
    X = np.zeros((n, layout[1]))
    for p, pos, w in layout[0]:
        if p.name not in columns:
            continue
        c = columns[p.name]
        if p.kind == "continuous":
            X[:, pos] = _continuous_cdf(p, c)
        elif p.kind == "integer":
            X[:, pos] = (c + 0.5) / (p.hi - p.lo + 1)
        elif p.kind == "categorical":
            X[np.arange(n), pos + c] = 1.0
        else:
            X[:, pos] = c
    return X


def _column_entry(p, v):
    """A value as its column holds it: itself if continuous, else its level index."""
    return v if p.kind == "continuous" else _level_index(p, [v])[0]


def encode(space: SearchSpace, config: dict) -> np.ndarray:
    """Map a configuration to [0, 1]^d; inactive children become zeros."""
    layout = _blocks(space)
    columns = {p.name: np.array([_column_entry(p, config[p.name])])
               for p, _, _ in layout[0] if p.name in config}
    return _rows(layout, columns, 1)[0]


def decode(space: SearchSpace, x: np.ndarray) -> dict:
    """Snap an encoded vector back to a valid configuration.

    Parents decode before children so activation is respected; inactive
    children are dropped.
    """
    layout = _blocks(space)
    columns = _columns(layout, np.asarray(x, dtype=float)[None, :])
    config = {}
    for p, _, _ in layout[0]:
        c = columns[p.name][0]
        config[p.name] = float(c) if p.kind == "continuous" else _levels(p)[c]
    return _resolve_children(space, config, None)


def _snap(space: SearchSpace, layout, cand: np.ndarray, fixed: dict) -> np.ndarray:
    """Row i is encode(_force(decode(cand[i]), fixed)): the encoder applied
    to the decoder's columns with the fixed values overriding, then each
    inactive child zeroed.

    Each fixed parent's columns must encode its fixed value, as gpbo's
    base row ensures: then every row decodes the parent to that value,
    _force draws nothing, and the block equals the row-wise result.
    """
    n = len(cand)
    columns = _columns(layout, cand)
    for name, v in fixed.items():
        columns[name] = np.full(n, _column_entry(space.param(name), v))
    out = _rows(layout, columns, n)
    where = {p.name: (pos, w) for p, pos, w in layout[0]}
    for rule in space.rules:
        on = _level_index(space.param(rule.parent), rule.activating_values)
        pos, w = where[rule.child]
        out[~np.isin(columns[rule.parent], on), pos : pos + w] = 0.0
    return out


# -- Matern-5/2 GP ------------------------------------------------------------


def _scaled_sq(X1, X2, ls):
    """The per-dimension terms ((x1 - x2) / ls)**2, one (n1, n2) array per
    dimension, made lazily so a prediction on many candidates holds one."""
    return (((X1[:, d, None] - X2[None, :, d]) / ls[d]) ** 2 for d in range(X1.shape[1]))


def _scaled_r(terms):
    """Distances from the terms, added in dimension order, as .sum(axis=0) of
    their C-contiguous stack also adds them; a stack in another memory order
    rounds differently."""
    return np.sqrt(np.maximum(sum(terms), 0.0))


def _matern52(r):
    return (1.0 + _SQRT5 * r + 5.0 * r * r / 3.0) * np.exp(-_SQRT5 * r)


@dataclass
class GpModel:
    X: np.ndarray
    y_mean: float
    y_std: float
    lengthscales: np.ndarray
    signal_var: float
    noise_var: float
    jitter: float
    chol: np.ndarray
    alpha: np.ndarray


def _factor(theta, X):
    """(ls, signal, noise, S, r, M, L, jitter) at log parameters theta: S
    the (d, n, n) stack of per-dimension terms, r the distances, M the
    Matern correlation, L the lower Cholesky factor of K = signal M +
    noise I plus jitter, the first of the ladder (times K's mean diagonal)
    at which potrf succeeds.  S is built from a C-contiguous X.T, so its
    slabs add in dimension order, as _scaled_r adds the lazy terms."""
    d = X.shape[1]
    ls = np.exp(theta[:d])
    signal = math.exp(theta[d])
    noise = math.exp(theta[d + 1])
    Xt = np.ascontiguousarray(X.T)
    S = Xt[:, :, None] - Xt[:, None, :]
    S /= ls[:, None, None]
    S *= S
    r = np.sqrt(np.maximum(S.sum(axis=0), 0.0))
    M = _matern52(r)
    K = signal * M
    n = len(K)
    K.flat[:: n + 1] += noise
    scale = float(np.mean(np.diag(K)))
    for jit in (0.0,) + _JITTERS:
        A = np.array(K, order="F")      # the layout potrf factors in place
        A.flat[:: n + 1] += jit * scale
        L, info = _POTRF(A, lower=True, overwrite_a=True)
        if info == 0:
            return ls, signal, noise, S, r, M, L, jit * scale
    raise FitError("kernel matrix singular even at maximum jitter")


def _nll_and_grad(theta, X, y):
    """Negative log marginal likelihood and its gradient in log parameters.

    Each lengthscale's gradient reduces its contiguous n x n slab of
    _factor's stack, as a per-dimension np.sum does.
    """
    d = X.shape[1]
    try:
        _, signal, noise, S, r, M, L, _ = _factor(theta, X)
    except FitError:
        return 1e25, np.zeros_like(theta)
    n = len(y)
    alpha, _ = _POTRS(L, y, lower=True)
    nll = 0.5 * float(y @ alpha) + float(np.log(np.diag(L)).sum()) + 0.5 * n * math.log(2 * math.pi)
    Kinv, _ = _POTRS(L, np.eye(n), lower=True)
    W = np.outer(alpha, alpha) - Kinv
    grad = np.empty_like(theta)
    base = signal * (5.0 / 3.0) * (1.0 + _SQRT5 * r) * np.exp(-_SQRT5 * r)
    S *= base
    S *= W
    grad[:d] = -0.5 * S.sum(axis=(1, 2))
    grad[d] = -0.5 * float(np.sum(W * (signal * M)))
    grad[d + 1] = -0.5 * float(np.trace(W)) * noise
    return nll, grad


def gp_fit(X, y) -> GpModel:
    """Fit by maximizing log marginal likelihood from eight deterministic starts.

    Targets are standardized internally; predictions are de-standardized.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    if len(X) < 2:
        raise FitError("need at least 2 observations")
    if not np.all(np.isfinite(y)) or not np.all(np.isfinite(X)):
        raise FitError("non-finite inputs or targets")
    y_mean = float(y.mean())
    y_std = float(y.std())
    if y_std <= 0:
        y_std = 1.0
    ys = (y - y_mean) / y_std
    d = X.shape[1]
    bounds = [(math.log(3e-2), math.log(3e1))] * d
    bounds += [(math.log(1e-3), math.log(1e3)), (math.log(1e-10), math.log(1.0))]
    ls_starts = (0.1, 0.3, 1.0, 3.0)
    noise_starts = (1e-6, 1e-2)
    starts = [
        np.array([math.log(l)] * d + [0.0, math.log(nz)])
        for l in ls_starts
        for nz in noise_starts
    ]
    from scipy import optimize

    best = None
    for x0 in starts:
        res = optimize.minimize(
            _nll_and_grad, x0, args=(X, ys), jac=True, method="L-BFGS-B",
            bounds=bounds, options={"maxiter": 300, "ftol": 1e-13, "gtol": 1e-9},
        )
        if best is None or res.fun < best.fun:
            best = res
    ls, signal, noise, _, _, _, L, jit = _factor(best.x, X)
    alpha, _ = _POTRS(L, ys, lower=True)
    return GpModel(X, y_mean, y_std, ls, signal, noise, jit, L, alpha)


def gp_predict(model: GpModel, x) -> tuple:
    """Posterior mean and variance of the latent function, raw units."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.X.shape[1]:
        raise FitError("prediction point dimension mismatch")
    r = _scaled_r(_scaled_sq(model.X, x, model.lengthscales))
    ks = model.signal_var * _matern52(r)
    mean_s = ks.T @ model.alpha
    v, _ = _POTRS(model.chol, ks, lower=True)
    var_s = model.signal_var - np.einsum("ij,ij->j", ks, v)
    var_s = np.maximum(var_s, 0.0)
    mean = mean_s * model.y_std + model.y_mean
    var = var_s * model.y_std**2
    if len(mean) == 1:
        return float(mean[0]), float(var[0])
    return mean, var


def ei_value(mean, sd, best_so_far: float):
    """Closed-form expected improvement for minimization.

    (best - mean) Phi(gamma) + sd phi(gamma) with gamma = (best - mean)/sd;
    degenerates to max(best - mean, 0) at sd = 0.
    """
    from scipy.stats import norm

    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    sd = np.atleast_1d(np.asarray(sd, dtype=float))
    gap = best_so_far - mean
    out = np.maximum(gap, 0.0)
    pos = sd > 0
    gamma = np.zeros_like(mean)
    gamma[pos] = gap[pos] / sd[pos]
    out[pos] = gap[pos] * norm.cdf(gamma[pos]) + sd[pos] * norm.pdf(gamma[pos])
    return float(out[0]) if len(out) == 1 else out


def expected_improvement(model: GpModel, x, best_so_far: float):
    """EI of the model's posterior at x; zero without variance or gain."""
    mean, var = gp_predict(model, x)
    return ei_value(mean, np.sqrt(np.atleast_1d(var)), best_so_far)


# -- Bayesian optimization loop ----------------------------------------------


def _force(space: SearchSpace, config: dict, fixed: dict, rng) -> dict:
    """Overwrite fixed values and re-resolve child activation."""
    out = dict(config)
    out.update(fixed)
    return _resolve_children(space, out, rng)


def _finite_configs(space: SearchSpace, fixed: dict, limit: int):
    """Enumerate the whole space when every free parameter is discrete."""
    free = [p for p in space.params if p.name not in fixed]
    if any(p.kind == "continuous" for p in free):
        return None
    combos = [{}]
    for p in free:
        levels = _levels(p)
        if len(combos) * len(levels) > limit:
            return None
        combos = [dict(c, **{p.name: v}) for c in combos for v in levels]
    out = []
    for c in combos:
        c.update(fixed)
        cfg = _resolve_children(space, {p.name: c[p.name] for p in space.params}, None)
        if cfg not in out:
            out.append(cfg)
    return out


def _transform_targets(trials):
    """Minimization targets: log of positive errors, penalized failures."""
    ok_scores = np.array([t.score for t in trials if t.ok], dtype=float)
    use_log = len(ok_scores) > 0 and np.all(ok_scores > 0)
    finite = [math.log(s) if use_log else float(s) for s in ok_scores]
    if finite:
        worst = max(finite)
        spread = float(np.std(finite)) if len(finite) > 1 else abs(worst) * 0.1 + 1.0
        penalty = worst + 3.0 * max(spread, 1e-6)
    else:
        penalty = 0.0
    targets = iter(finite)
    return np.array([next(targets) if t.ok else penalty for t in trials])


def gpbo(
    objective,
    space: SearchSpace,
    fixed: dict | None = None,
    n_init: int = 10,
    n_iter: int = 25,
    seed: int = 0,
    initial_configs=None,
):
    """Sequential GP optimization; returns (incumbent trial, history).

    Fixed parameters keep their given values in every evaluated
    configuration.  History length is exactly n_init + n_iter; evaluation
    faults become failed trials with penalized targets.
    """
    if n_init < 0 or n_iter < 0:
        raise ValueError(f"n_init and n_iter must not be negative, got {n_init}, {n_iter}")
    from scipy import optimize
    from scipy.stats import qmc

    fixed = dict(fixed or {})
    for name in fixed:
        space.param(name)
    rng = np.random.default_rng(_seed_sequence(seed, 0x6B0))
    layout = _blocks(space)
    free_dims = [c for p, pos, w in layout[0] if p.name not in fixed for c in range(pos, pos + w)]
    cont_dims = [pos for p, pos, w in layout[0] if p.kind == "continuous" and p.name not in fixed]
    history, rows = [], []

    def _evaluate(config, index):
        history.append(_evaluate_trial(objective, config, trial_seed(seed, index)))
        rows.append(encode(space, config))

    init_configs = list(initial_configs or [])
    init_configs = [_force(space, c, fixed, rng) for c in init_configs]
    finite = _finite_configs(space, fixed, n_init)
    if finite is not None:
        for cfg in finite:
            if len(init_configs) < n_init and cfg not in init_configs:
                init_configs.append(cfg)
    while len(init_configs) < n_init:
        cfg = _force(space, sample_configuration(space, rng), fixed, rng)
        init_configs.append(cfg)
    for i, cfg in enumerate(init_configs[:n_init]):
        _evaluate(cfg, i)

    for it in range(n_iter):
        y = _transform_targets(history)
        try:
            model = gp_fit(np.array(rows), y)
        except FitError:
            cfg = _force(space, sample_configuration(space, rng), fixed, rng)
            _evaluate(cfg, n_init + it)
            continue
        best_t = float(np.min(y))
        sob = qmc.Sobol(
            d=max(len(free_dims), 1), scramble=True,
            seed=np.random.default_rng(_seed_sequence(seed, 0x50B01, it)),
        )
        raw = sob.random(_N_CANDIDATES)
        base = encode(space, _force(space, sample_configuration(space, rng), fixed, rng))
        cand = np.tile(base, (_N_CANDIDATES, 1))
        if free_dims:
            cand[:, free_dims] = raw
        snapped = _snap(space, layout, cand, fixed)
        ei = expected_improvement(model, snapped, best_t)
        top = np.argsort(-ei)[:_N_POLISH]

        # keep the rows before snapping: decoding a snapped row can move a
        # continuous value by an ulp (log scale on [0.5, 0.999]: ~1% of rows)
        best_row, best_ei = cand[int(top[0])], float(ei[int(top[0])])
        if cont_dims:
            for idx in top:
                x0 = snapped[int(idx)].copy()

                def neg_ei(v):
                    xx = x0.copy()
                    xx[cont_dims] = v
                    return -float(expected_improvement(model, xx, best_t))

                res = optimize.minimize(
                    neg_ei, x0[cont_dims], method="L-BFGS-B",
                    bounds=[(0.0, 1.0)] * len(cont_dims),
                    options={"maxiter": 30},
                )
                xx = x0.copy()
                xx[cont_dims] = res.x
                snapped_xx = _snap(space, layout, xx[None, :], fixed)
                val = float(expected_improvement(model, snapped_xx, best_t))
                if val > best_ei:
                    best_row, best_ei = xx, val
        _evaluate(_force(space, decode(space, best_row), fixed, rng), n_init + it)

    incumbent = _best_trial(history)
    if incumbent is None:
        raise FitError("no successful evaluations")
    return incumbent, history
