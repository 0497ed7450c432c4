import contextlib
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist
from scipy.stats import rankdata, truncnorm

from hsictune import blas, hsic
from hsictune.analysis import make_goal_flags, threshold
from hsictune.harness import run_random_search
from hsictune.hsic import (
    EstimationError,
    Kernel,
    bandwidth_grid,
    hsic_goal,
    hsic_pair,
    mmd2,
    select_bandwidth,
    _mmd_from_sums,
)
from hsictune.objectives import build_objective
from hsictune.space import normalize_trials


def example1_sample(n, seed, normalized=True, x1_truncnorm=True):
    """Shared fixture data: two symmetric inputs, goal = both in [0, 1]."""
    rng = np.random.default_rng(seed)
    sd = np.sqrt(0.1)
    a, b = -1.0 / sd, 1.0 / sd
    if x1_truncnorm:
        x1 = truncnorm.rvs(a, b, loc=1.0, scale=sd, size=n, random_state=rng)
    else:
        x1 = rng.uniform(0, 2, n)
    x2 = rng.uniform(0, 2, n)
    z = (x1 <= 1) & (x2 <= 1)
    if normalized:
        u1 = truncnorm.cdf(x1, a, b, loc=1.0, scale=sd) if x1_truncnorm else x1 / 2
        u2 = x2 / 2
    else:
        u1, u2 = x1 / 2, x2 / 2
    return u1, u2, z


def test_kernel_requires_positive_bandwidth():
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(EstimationError):
            Kernel((0.1, bad))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_select_bandwidth_rejects_nonfinite_grid_points(bad):
    xs = np.random.default_rng(3).random(50)
    with pytest.raises(EstimationError, match="finite"):
        select_bandwidth(xs, xs[:10], grid=[0.1, bad])


@pytest.mark.parametrize("n", [50, 3000])                 # dense and binned backends
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("call", [
    lambda u, v, z: hsic_goal(u, z, n_boot=5),
    lambda u, v, z: hsic_pair(u, v, z, n_boot=5),
    lambda u, v, z: mmd2(u, u[z], Kernel((0.1,))),
    lambda u, v, z: select_bandwidth(u, u[z]),
], ids=["hsic_goal", "hsic_pair", "mmd2", "select_bandwidth"])
def test_nonfinite_samples_rejected(n, bad, call):
    # one bad value would otherwise score as nan, or as 0.0 once binned
    rng = np.random.default_rng(4)
    u, v = rng.random(n), rng.random(n)
    z = u < 0.3
    u[7] = bad
    with pytest.raises(EstimationError, match="finite"):
        call(u, v, z)


# -- mmd2 ----------------------------------------------------------------------


def test_mmd2_identical_sets_is_zero():
    rng = np.random.default_rng(1)
    xs = rng.random(200)
    assert abs(mmd2(xs, xs.copy(), Kernel((0.2,)))) < 1e-12


def test_mmd2_singletons_closed_form():
    v = mmd2([0.0], [1.0], Kernel((1.0,)))
    assert abs(v - 2.0 * (1.0 - np.exp(-0.5))) < 1e-12
    assert abs(v - 0.786939) < 1e-6


def test_mmd2_null_value_sits_at_the_estimation_floor():
    # Two independent U[0,1] samples: the sup-selected V-statistic value is
    # dominated by its small-bandwidth diagonal floor (1/n + 1/m), far from
    # the true zero but bounded by it; the bootstrap spread is of the same
    # order.  Bounds calibrated by Monte Carlo over seeds.
    rng = np.random.default_rng(0)
    n = m = 500
    xs, ys = rng.random(n), rng.random(m)
    kernel = select_bandwidth(xs, ys)
    v = mmd2(xs, ys, kernel)
    floor = 1.0 / n + 1.0 / m
    assert 0.0 <= v <= 1.25 * floor
    boots = []
    for b in range(50):
        rb = np.random.default_rng((7, b))
        boots.append(mmd2(xs[rb.integers(0, n, n)], ys[rb.integers(0, m, m)], kernel))
    se = np.std(boots, ddof=1)
    assert v < 8.0 * se


def test_mmd2_nonnegative_on_random_inputs():
    rng = np.random.default_rng(5)
    for _ in range(20):
        xs = rng.random(rng.integers(2, 80))
        ys = rng.random(rng.integers(2, 80))
        assert mmd2(xs, ys, Kernel((float(rng.uniform(0.05, 2)),))) >= -1e-12


def test_mmd2_empty_input_rejected():
    with pytest.raises(EstimationError):
        mmd2([], [0.1], Kernel((1.0,)))


# -- bandwidth selection ---------------------------------------------------------


def test_select_bandwidth_tie_goes_small():
    xs = np.random.default_rng(2).random(50)
    grid = [0.1, 0.5, 2.0]
    k = select_bandwidth(xs, xs.copy(), grid=grid)
    assert k.bandwidths == (0.1,)


def test_select_bandwidth_point_masses_prefers_smallest():
    # mmd2 = 2 (1 - exp(-0.32 / h^2)) decreases in h, so the sup sits at the
    # smallest grid value
    xs = np.full(20, 0.1)
    ys = np.full(20, 0.9)
    grid = [0.05, 0.2, 1.0, 5.0]
    k = select_bandwidth(xs, ys, grid=grid)
    assert k.bandwidths == (0.05,)


def test_select_bandwidth_degenerate_flagged():
    xs = np.full(10, 0.3)
    with pytest.warns(UserWarning, match="degenerate"):
        k = select_bandwidth(xs, xs.copy())
    assert k.degenerate


@pytest.mark.parametrize("n, m", [(300, 40), (3000, 400)], ids=["dense", "binned"])
def test_select_bandwidth_tied_median_is_not_degenerate(n, m):
    # most pooled pairs tie, so the pooled median distance is 0, but the two
    # sets differ: the grid centers on the median nonzero distance instead
    xs, ys = np.full(n, 0.2), np.full(m, 0.7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = select_bandwidth(xs, ys)
    assert not k.degenerate
    assert k.bandwidths[0] == pytest.approx(bandwidth_grid(0.5)[0], rel=1e-2)
    assert mmd2(xs, ys, k) == pytest.approx(2.0, rel=1e-12)


def test_select_bandwidth_one_binned_point_is_degenerate():
    xs = np.full(3000, 0.3)
    with pytest.warns(UserWarning, match="degenerate"):
        k = select_bandwidth(xs, np.full(500, 0.3))
    assert k.degenerate


def test_selected_bandwidth_maximizes_mmd2_on_example1():
    u1, _, z = example1_sample(10_000, seed=3)
    goal = u1[z]
    grid = bandwidth_grid(0.3)
    k = select_bandwidth(u1, goal, grid=grid)
    best = mmd2(u1, goal, k)
    for h in grid:
        assert best >= mmd2(u1, goal, Kernel((h,))) - 1e-12


# -- goal-oriented score -----------------------------------------------------------


def test_all_flagged_collapses_to_zero():
    rng = np.random.default_rng(4)
    u = rng.random(300)
    s = hsic_goal(u, np.ones(300, dtype=bool), n_boot=0)
    assert s.value == 0.0


@pytest.mark.parametrize("ties", [False, True], ids=["untied", "tied"])
@pytest.mark.parametrize("n", [300, 2500], ids=["dense", "binned"])
def test_all_flagged_scores_exactly_zero_on_both_paths(n, ties):
    # equal sets share their support (c == g), so the three sums cancel to +0.0
    rng = np.random.default_rng(n)
    u, v = (rng.integers(0, 9, (2, n)) / 9) if ties else rng.random((2, n))
    z = np.ones(n, dtype=bool)
    for s in (hsic_goal(u, z, n_boot=5, seed=1), hsic_pair(u, v, z, n_boot=5, seed=1)):
        assert (s.value, np.copysign(1.0, s.value), s.std_error) == (0.0, 1.0, 0.0)


def test_goal_too_small_raises():
    u = np.random.default_rng(0).random(50)
    z = np.zeros(50, dtype=bool)
    z[0] = True
    with pytest.raises(EstimationError, match="goal set too small"):
        hsic_goal(u, z)


def test_example1_normalized_scores_tie():
    # Symmetric problem after rank normalization: both inputs matter equally
    u1, u2, z = example1_sample(10_000, seed=11)
    s1 = hsic_goal(u1, z, n_boot=100, seed=0)
    s2 = hsic_goal(u2, z, n_boot=100, seed=0)
    for s in (s1, s2):
        assert 0.7 * 1.55e-2 < s.value < 1.3 * 1.55e-2
    assert abs(s1.value - s2.value) < 3.0 * (s1.std_error + s2.std_error)


def test_example1_unnormalized_scores_differ():
    # Raw values rescaled to [0, 1]: the sampling distribution leaks into the
    # score and the concentrated input looks less important
    u1, u2, z = example1_sample(10_000, seed=11, normalized=False)
    s1 = hsic_goal(u1, z, n_boot=100, seed=0)
    s2 = hsic_goal(u2, z, n_boot=100, seed=0)
    assert 0.7 * 1.17e-2 < s1.value < 1.3 * 1.17e-2
    assert 0.7 * 1.55e-2 < s2.value < 1.3 * 1.55e-2
    assert s2.value - s1.value > 2.0 * (s1.std_error + s2.std_error)


def example2_sample(n, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 2, (n, 5))
    cell1 = (X[:, 0] <= 1) & (X[:, 1] >= 1) & (X[:, 2] <= 1)
    cell2 = (X[:, 0] <= 1) & (X[:, 1] <= 1) & (X[:, 2] >= 1)
    return X / 2, cell1 | cell2


def test_example2_pair_score_dominates_singles():
    U, z = example2_sample(2000, seed=0)
    s1 = hsic_goal(U[:, 0], z, n_boot=0)
    s2 = hsic_goal(U[:, 1], z, n_boot=0)
    s3 = hsic_goal(U[:, 2], z, n_boot=0)
    s23 = hsic_pair(U[:, 1], U[:, 2], z, n_boot=0)
    s45 = hsic_pair(U[:, 3], U[:, 4], z, n_boot=0)
    assert 1.0 <= s1.value / s23.value <= 10.0
    # the interacting pair clears every null score by an order of magnitude
    top_null = max(s2.value, s3.value, s45.value)
    assert s23.value >= 10.0 * top_null


def test_pair_with_constant_column_equals_single():
    rng = np.random.default_rng(9)
    u = rng.random(800)
    z = rng.random(800) < 0.3
    single = hsic_goal(u, z, n_boot=0)
    paired = hsic_pair(u, np.full(800, 0.5), z, n_boot=0)
    assert abs(single.value - paired.value) <= 1e-10


# -- bootstrap -------------------------------------------------------------------


def test_bootstrap_constant_column_zero_se():
    z = np.zeros(100, dtype=bool)
    z[:30] = True
    with pytest.warns(UserWarning):
        se = hsic_goal(np.full(100, 0.7), z, n_boot=30, seed=0).std_error
    assert se == 0.0


def test_bootstrap_se_stable_under_doubling():
    u1, _, z = example1_sample(4000, seed=2)
    a = hsic_goal(u1, z, n_boot=50, seed=3).std_error
    b = hsic_goal(u1, z, n_boot=100, seed=3).std_error
    assert a > 0 and b > 0
    assert abs(a - b) / b < 0.2


def test_bootstrap_se_nonnegative():
    rng = np.random.default_rng(1)
    u = rng.random(200)
    z = rng.random(200) < 0.5
    assert hsic_goal(u, z, n_boot=20, seed=0).std_error >= 0.0


# -- estimator invariants ---------------------------------------------------------


def test_nonnegativity_many_random_inputs():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(20, 400))
        u = rng.random(n)
        z = rng.random(n) < rng.uniform(0.1, 0.9)
        if z.sum() < 2:
            continue
        assert hsic_goal(u, z, n_boot=0).value >= 0.0


def test_permutation_invariance_exact():
    rng = np.random.default_rng(13)
    u = rng.random(500)
    z = rng.random(500) < 0.2
    base = hsic_goal(u, z, n_boot=0)
    for _ in range(5):
        perm = rng.permutation(500)
        s = hsic_goal(u[perm], z[perm], n_boot=0)
        assert abs(s.value - base.value) <= 1e-12
        assert s.bandwidth == base.bandwidth


@pytest.mark.parametrize("n", [500, 3000], ids=["dense", "binned"])
def test_permutation_invariance_with_bootstrap(n):
    # the standard error too: it sums over the support, never in the
    # input's row order
    rng = np.random.default_rng(15)
    u1, u2 = rng.random(n), rng.random(n)
    z = np.abs(u1 - u2) < 0.2
    goal = hsic_goal(u1, z, n_boot=20, seed=3)
    pair = hsic_pair(u1, u2, z, n_boot=20, seed=3)
    assert goal.std_error > 0 and pair.std_error > 0
    for _ in range(2):
        perm = rng.permutation(n)
        assert hsic_goal(u1[perm], z[perm], n_boot=20, seed=3) == goal
        assert hsic_pair(u1[perm], u2[perm], z[perm], n_boot=20, seed=3) == pair


def test_independence_null_stays_small():
    # n=2000 with a 10 percent goal: the value must sit below 1e-4 in at
    # least 95 of 100 seeded repetitions
    failures = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        u = rng.random(2000)
        z = np.zeros(2000, dtype=bool)
        z[rng.choice(2000, 200, replace=False)] = True
        if hsic_goal(u, z, n_boot=0).value >= 1e-4:
            failures += 1
    assert failures <= 5


def test_hsic_equals_scaled_mmd2():
    # the dual route: the goal score must equal (m/n)^2 times the two-sample
    # mmd2 between the flagged subsample and the full sample
    rng = np.random.default_rng(14)
    for trial in range(50):
        n = int(rng.integers(30, 600))
        u = rng.random(n)
        z = rng.random(n) < rng.uniform(0.15, 0.8)
        m = int(z.sum())
        if m < 2:
            continue
        s = hsic_goal(u, z, n_boot=0)
        v = mmd2(u[z], u, s.bandwidth)
        assert abs(s.value - (m / n) ** 2 * v) <= 1e-10


# -- dense and binned paths --------------------------------------------------------


def labeled_points(rng, n, dim):
    """Uniform points whose goal flags depend on their position."""
    pts = rng.random((n, dim))
    if dim == 1:
        z = pts[:, 0] < rng.uniform(0.1, 0.4)
    else:
        z = np.abs(pts[:, 0] - pts[:, 1]) < rng.uniform(0.05, 0.3)
    return pts, z


def backend(cls, pts, z, each=hsic._inline):
    """A goal score's representation: a = all points, b = the flagged ones."""
    return cls(*hsic._support(pts, pts[z]), each)


def toeplitz_kernels(eng, gamma):
    lag = np.abs(np.subtract.outer(np.arange(eng.B), np.arange(eng.B)))
    return [np.exp(e * (-gamma))[lag] for e in eng.lag2]


def toeplitz_product(eng, gamma, x):
    """K x on the binned grid, from the kernel's Toeplitz factors: a direct
    convolution in 1-D, K1 X K2 in 2-D."""
    if eng.dim == 2:
        K1, K2 = toeplitz_kernels(eng, gamma)
        return K1 @ x @ K2
    k = np.exp(eng.lag2[0] * (-gamma))
    return np.convolve(x, np.concatenate([k[:0:-1], k]))[eng.B - 1 : 2 * eng.B - 1]


@pytest.mark.parametrize("dim", [1, 2])
def test_binned_replicate_sums_match_fft_correlations(dim):
    # the standard error's products, which replaced the replicate sums,
    # against direct Toeplitz products across the bandwidth grid, from a
    # kernel about a bin wide to the widest; the sums they give match the
    # sweep's folded FFT correlations
    rng = np.random.default_rng(20 + dim)
    pts, z = labeled_points(rng, 5000, dim)
    eng = backend(hsic._BinnedBackend, pts, z)
    mu = eng.m / eng.n
    r = (eng.c - eng.g) * mu**2 + eng.g * (1 - mu) ** 2
    grid = bandwidth_grid(eng.median_distance())
    for h in grid[::3]:
        gamma = 1.0 / (2.0 * h * h)
        kc, kg, rkkr = eng.products(gamma, r)
        assert kc.shape == kg.shape == eng.c.shape
        for got, x in ((kc, eng.c), (kg, eng.g)):
            want = toeplitz_product(eng, gamma, x)
            assert np.abs(got - want).max() <= 1e-12 * want.max(), gamma
        want = np.vdot(r, toeplitz_product(eng, 2.0 * gamma, r))
        np.testing.assert_allclose(rkkr, want, rtol=1e-12, atol=0)
        sums = np.vdot(eng.c, kc), np.vdot(eng.c, kg), np.vdot(eng.g, kg)
        np.testing.assert_allclose(sums, eng.sweep([gamma])[0], rtol=1e-12, atol=0)


@pytest.mark.parametrize("dim", [1, 2])
def test_dense_block_sums_match_per_replicate_products(dim):
    # the row-block pass against products of the whole kernel matrix, for
    # several weight vectors r, across the bandwidth grid
    rng = np.random.default_rng(26 + dim)
    pts, z = labeled_points(rng, 600, dim)
    eng = backend(hsic._DenseBackend, pts, z)
    weights = rng.random((13, len(eng.c)))
    for h in bandwidth_grid(eng.median_distance())[::13]:
        gamma = 1.0 / (2.0 * h * h)
        K = np.exp(cdist(eng.support, eng.support, "sqeuclidean") * (-gamma))
        for r in weights:
            kc, kg, rkkr = eng.products(gamma, r)
            np.testing.assert_allclose(kc, K @ eng.c, rtol=1e-12, atol=0)
            np.testing.assert_allclose(kg, K @ eng.g, rtol=1e-12, atol=0)
            np.testing.assert_allclose(rkkr, r @ ((K * K) @ r), rtol=1e-12, atol=0)


def dense_support(rng, s, dim, tied):
    """A dense backend on s support points.  Tied: the rows are s distinct
    cells of a coarse level grid, some drawn twice, ranked per column with
    midranks."""
    if not tied:
        pts = rng.random((s, dim))
    else:
        levels = int(np.ceil(s ** (1 / dim)))
        cells = rng.choice(levels**dim, s, replace=False)
        cells = np.concatenate([cells, rng.choice(cells, 2 * s)])
        grid = np.column_stack(np.unravel_index(cells, (levels,) * dim))
        pts = np.column_stack([rankdata(col) / len(col) for col in grid.T])
    z = rng.random(len(pts)) < 0.3
    z[0] = True                      # two pooled points even at s = 1
    eng = backend(hsic._DenseBackend, pts, z)
    assert len(eng.c) == s
    return eng


# odd sizes leave SIMD tails; the extra gammas put the smallest (and the
# median) argument at the fast path's edge, in the subnormal range, at
# exp's zero cutoff and past it
@pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("s", [1, 7, 300, 1501])
def test_dense_kernel_has_the_bits_of_np_exp(s, dim, tied):
    rng = np.random.default_rng(s + 10 * dim + tied)
    eng = dense_support(rng, s, dim, tied)
    d2 = cdist(eng.support, eng.support, "sqeuclidean")
    gammas = list(1.0 / (2.0 * bandwidth_grid(eng.median_distance()) ** 2))
    if s > 1:
        scales = d2.max(), np.median(d2[d2 > 0])
        gammas += [arg / d for arg in (707.0, 708.4, 745.13, 746.0) for d in scales]
    out, masks, subnormal = np.empty_like(d2), np.empty((2, *d2.shape), dtype=bool), False
    for gamma in gammas:
        want = np.exp(-gamma * d2)
        got = eng._kernel(gamma, out, d2, d2.max(), masks)
        assert got is out
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), gamma
        in_place = d2.copy()        # as the standard error's pass builds its rows
        eng._kernel(gamma, in_place, in_place, d2.max(), masks)
        assert np.array_equal(in_place.view(np.int64), want.view(np.int64)), gamma
        subnormal |= bool(np.any((want > 0) & (want < np.finfo(float).smallest_normal)))
    assert subnormal == (s > 1)


def test_np_exp_is_positive_zero_below_the_cutoff():
    # the dense kernel zeroes every argument below _EXP_ZERO instead of
    # calling np.exp on it, and clamps the ones below _EXP_NORMAL to a
    # normal result; this checks that np.exp agrees on this platform
    below = np.concatenate([np.linspace(hsic._EXP_ZERO - 64.0, hsic._EXP_ZERO, 2**20 + 1),
                            -np.geomspace(-hsic._EXP_ZERO, 1e300, 4096),
                            [-np.inf]])
    zeros = np.exp(below).view(np.int64)
    assert np.array_equal(zeros, np.zeros_like(zeros))        # +0.0, sign bit clear
    assert np.exp(hsic._EXP_NORMAL) >= np.finfo(float).smallest_normal


# -- the closed-form standard error ---------------------------------------------------


def row_kernel(eng, pts, gamma):
    """The n x n kernel between the rows' counting units: their support
    points (dense) or grid cells (binned), each cell's points snapped onto
    its corner as the binned backend snaps them."""
    if isinstance(eng, hsic._DenseBackend):
        return np.exp(cdist(pts, pts, "sqeuclidean") * (-gamma))
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    width = np.where(hi > lo, hi - lo, 1.0) / eng.B
    cells = np.clip(((pts - lo) / width).astype(np.int64), 0, eng.B - 1)
    flat = np.ravel_multi_index(tuple(cells.T), eng.c.shape)
    assert np.array_equal(np.bincount(flat, minlength=eng.c.size), eng.c.ravel())
    K = np.ones((len(pts), len(pts)))
    for e, axis in zip(eng.lag2, cells.T):
        K *= np.exp(e * (-gamma))[np.abs(np.subtract.outer(axis, axis))]
    return K


def second_order_variance(K, z):
    """The bootstrap variance of the goal score to second order, from
    explicit n x n matrices; K is the kernel between the rows' units.

    With q = z - m/n: a_i = (2/n^2)[q_i (Kv)_o(i) - (z_i/n) c'Kv], M = (1/n^2)
    [Q + u z' + z u' + beta z z'], Q_ij = q_i q_j K_o(i)o(j), u_i = -(q_i
    (Kc)_o(i) + (Kv)_o(i)) / n and beta = c'Kc / n^2; then, centred by P = I -
    11'/n, Var = a~'a~ + 2|M~|^2 + sum M~_ii^2 + 2 sum a~_i M~_ii.
    """
    n = len(z)
    z = z.astype(float)
    q = z - z.sum() / n
    kv, kc = K @ q, K.sum(axis=1)           # (Kv)_o(i) and (Kc)_o(i), per row
    a = 2.0 / n**2 * (q * kv - z * (kc @ q) / n)
    u = -(q * kc + kv) / n
    beta = kc.sum() / n**2
    M = (np.outer(q, q) * K + np.outer(u, z) + np.outer(z, u) + beta * np.outer(z, z)) / n**2
    P = np.eye(n) - 1.0 / n
    a, M = P @ a, P @ M @ P
    d = np.diag(M)
    return a @ a + 2.0 * np.sum(M * M) + d @ d + 2.0 * a @ d


@pytest.mark.parametrize("cls, dim", [
    (hsic._DenseBackend, 1),
    (hsic._DenseBackend, 2),
    (hsic._BinnedBackend, 1),
    (hsic._BinnedBackend, 2),
], ids=["dense-1d", "dense-2d", "binned-1d", "binned-2d"])
def test_standard_error_matches_the_explicit_second_order_moments(cls, dim):
    # half the coordinates sit on a coarse level grid, so units hold several
    # rows, and some flags are flipped, so a unit holds rows of both flags
    rng = np.random.default_rng(180 + dim)
    pts, z = labeled_points(rng, 300, dim)
    pts = np.where(rng.random(pts.shape) < 0.5, np.floor(pts * 9) / 9, pts)
    z ^= rng.random(len(z)) < 0.1
    eng = backend(cls, pts, z)
    assert eng.n == 300 and np.any((eng.g > 0) & (eng.g < eng.c))
    for gamma in (hsic._select(eng, None)[1], *(1.0 / (2.0 * bandwidth_grid(0.3)[::13] ** 2))):
        want = np.sqrt(second_order_variance(row_kernel(eng, pts, gamma), z))
        assert hsic._std_error(eng, gamma) == pytest.approx(want, rel=1e-10, abs=0), gamma


def replicate_loop_se(score, pts, z, n_boot, rng):
    """The standard deviation of n_boot row-bootstrap replicates of the
    score, each one scored at the score's bandwidth on the exact kernel."""
    n = len(z)
    support, unit = np.unique(pts, axis=0, return_inverse=True)
    gamma = 1.0 / (2.0 * score.bandwidth.bandwidths[0] ** 2)
    K = np.exp(cdist(support, support, "sqeuclidean") * (-gamma))
    v = np.empty((n_boot, len(support)))
    for b in range(n_boot):
        rows = rng.integers(0, n, n)
        c = np.bincount(unit[rows], minlength=len(support))
        g = np.bincount(unit[rows[z[rows]]], minlength=len(support))
        v[b] = g - z[rows].sum() / n * c
    return np.std(np.sum(v * (v @ K), axis=1) / n**2, ddof=1)


@pytest.mark.parametrize("kind", ["signal", "null", "pair", "tied"])
def test_standard_error_agrees_with_a_long_replicate_loop(kind):
    rng = np.random.default_rng(190)
    n = 400
    u = rng.random((n, 2))
    if kind == "tied":              # five levels, ranked with midranks
        u[:, 0] = rankdata(rng.integers(0, 5, n)) / n
    if kind == "null":
        z = rng.random(n) < 0.2
    elif kind == "pair":
        z = np.abs(u[:, 0] - u[:, 1]) < 0.2
    else:
        z = u[:, 0] < 0.3
    pts = u if kind == "pair" else u[:, :1]
    score = hsic_pair(*u.T, z) if kind == "pair" else hsic_goal(u[:, 0], z)
    loop = replicate_loop_se(score, pts, z, 2000, np.random.default_rng(191))
    assert 0.94 < score.std_error / loop < 1.06, (score.std_error, loop)


@pytest.mark.parametrize("n", [20, 27, 3000], ids=["dense-20", "dense-27", "binned"])
def test_standard_error_of_a_constant_column_is_exactly_zero(n):
    # every replicate scores 0 there, but at these goal counts m - (m/n) n
    # rounds away from 0, and the error's terms left about 1e-10
    for m in (2, 7, 12):
        z = np.zeros(n, dtype=bool)
        z[:m] = True
        with pytest.warns(UserWarning, match="degenerate"):
            assert hsic_goal(np.full(n, 0.7), z).std_error == 0.0


@pytest.mark.parametrize("cls, n, dim", [
    (hsic._DenseBackend, 30, 1),
    (hsic._DenseBackend, 400, 1),
    (hsic._DenseBackend, 900, 2),
    (hsic._BinnedBackend, 5000, 2),
], ids=["dense-1d-small", "dense-1d", "dense-2d", "binned-2d"])
def test_bootstrap_extended_keeps_earlier_replicates(cls, n, dim):
    # no replicates are left to extend: a longer bootstrap, or another
    # seed, gives the score the bits of its backend's closed-form error
    rng = np.random.default_rng(28 + n)
    pts, z = labeled_points(rng, n, dim)
    eng = backend(cls, pts, z)
    assert isinstance(hsic._backend(pts, pts[z], hsic._inline), cls)
    want = hsic._std_error(eng, hsic._select(eng, None)[1])
    assert want > 0
    score = hsic_goal if dim == 1 else hsic_pair
    for seed in (0, 5):
        for n_boot in (37, 100):
            assert score(*pts.T, z, n_boot=n_boot, seed=seed).std_error == want, (seed, n_boot)


@pytest.mark.parametrize("n", [400, 3000], ids=["dense", "binned"])
def test_standard_error_does_not_depend_on_the_seed_or_n_boot(n):
    rng = np.random.default_rng(200)
    u, v = rng.random((2, n))
    z = np.abs(u - v) < 0.2
    se = hsic_goal(u, z, seed=1).std_error
    assert se > 0
    assert hsic_goal(u, z, seed=2).std_error == se
    assert hsic_goal(u, z, n_boot=2, seed=3).std_error == se
    assert hsic_pair(u, v, z, seed=1).std_error == hsic_pair(u, v, z, n_boot=7, seed=2).std_error


def selected_score(eng):
    grid = bandwidth_grid(eng.median_distance())
    mmds = hsic._mmd_from_sums(eng.sweep(1.0 / (2.0 * grid**2)), eng.n, eng.m)
    return (eng.m / eng.n) ** 2 * float(mmds.max())


@pytest.mark.parametrize("dim", [1, 2])
def test_dense_and_binned_scores_agree(dim):
    # both paths score the same points to well under a percent
    rng = np.random.default_rng(40 + dim)
    for _ in range(10):
        pts, z = labeled_points(rng, int(rng.integers(300, 900)), dim)
        dense = selected_score(backend(hsic._DenseBackend, pts, z))
        binned = selected_score(backend(hsic._BinnedBackend, pts, z))
        assert abs(binned - dense) <= 1e-2 * dense


def test_three_columns_above_the_dense_limit_are_rejected():
    rng = np.random.default_rng(50)
    a, b = rng.random((1500, 3)), rng.random((600, 3))
    with pytest.raises(EstimationError, match="limited to 2000 pooled points"):
        mmd2(a, b, Kernel((0.3,) * 3))
    with pytest.raises(EstimationError, match="limited to 2000 pooled points"):
        select_bandwidth(a, b)
    assert mmd2(a, b[:500], Kernel((0.3,) * 3)) >= 0.0       # dense up to the limit


# -- the lag fold, against the per-dimension folds it replaced -----------------------


def _fold1(raw: np.ndarray, B: int, auto: bool) -> np.ndarray:
    """Collapse signed lags onto absolute lags d in [0, B)."""
    M = len(raw)
    out = np.empty(B)
    out[0] = raw[0]
    if auto:
        out[1:] = 2.0 * raw[1:B]
    else:
        # cross-correlation needs both lag signs: raw[d] and raw[M-d]
        out[1:] = raw[1:B] + raw[M - 1 : M - B : -1]
    return out


def _fold2(raw: np.ndarray, B: int, auto: bool) -> np.ndarray:
    """Collapse signed 2-D lags onto absolute lags (e1, e2) in [0, B)^2."""
    M = raw.shape[0]
    out = np.zeros((B, B))
    pp = raw[:B, :B]                      # (+e1, +e2)
    pm = raw[:B, M - 1 : M - B : -1]      # (+e1, -e2), e2 >= 1
    mp = raw[M - 1 : M - B : -1, :B]      # (-e1, +e2), e1 >= 1
    mm = raw[M - 1 : M - B : -1, M - 1 : M - B : -1]
    if auto:
        # a == b: lag (e1, e2) and (-e1, -e2) coincide, likewise the mixed pair
        out[0, 0] = pp[0, 0]
        out[0, 1:] = 2.0 * pp[0, 1:]
        out[1:, 0] = 2.0 * pp[1:, 0]
        out[1:, 1:] = 2.0 * (pp[1:, 1:] + pm[1:, :])
    else:
        out[0, 0] = pp[0, 0]
        out[0, 1:] = pp[0, 1:] + pm[0, :]
        out[1:, 0] = pp[1:, 0] + mp[:, 0]
        out[1:, 1:] = pp[1:, 1:] + pm[1:, :] + mp[:, 1:] + mm
    return out


class ReferenceBinned:
    """The binned backend's correlation, median distance and sweep as they
    stood with one hand-written fold per dimension."""

    def __init__(self, eng):
        self.eng = eng

    def _correlation(self, fx, fy, auto):
        eng = self.eng
        raw = np.fft.irfftn(fx * np.conj(fy), (2 * eng.B,) * eng.dim,
                            tuple(range(eng.dim)))
        return (_fold1 if eng.dim == 1 else _fold2)(raw, eng.B, auto)

    def median_distance(self) -> float:
        eng = self.eng
        f = eng._spectrum(eng.c + eng.g)
        w = self._correlation(f, f, auto=True)
        w.flat[0] -= eng.n + eng.m            # drop self-pairs
        if eng.dim == 1:
            dists = np.sqrt(eng.lag2[0])
        else:
            dists = np.sqrt(eng.lag2[0][:, None] + eng.lag2[1][None, :]).ravel()
        w = np.maximum(w.ravel(), 0.0)
        total = w.sum()
        if total <= 0:
            return 0.0
        order = np.argsort(dists)
        cum = np.cumsum(w[order])
        med_idx = np.searchsorted(cum, 0.5 * total)
        return float(dists[order][min(med_idx, len(order) - 1)])

    def sweep(self, gammas):
        eng = self.eng
        fc, fg = eng._spectrum(eng.c), eng._spectrum(eng.g)
        ws = (self._correlation(fc, fc, auto=True), self._correlation(fc, fg, auto=False),
              self._correlation(fg, fg, auto=True))
        out = np.empty((len(gammas), 3))
        for i, gamma in enumerate(gammas):
            k = [np.exp(e * (-gamma)) for e in eng.lag2]
            out[i] = [w @ k[0] if eng.dim == 1 else k[0] @ w @ k[1] for w in ws]
        return out


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("levels", [0, 5, 40], ids=["continuous", "5-levels", "40-levels"])
def test_lag_fold_matches_the_per_dimension_folds(dim, levels):
    rng = np.random.default_rng(110 + 10 * dim + levels)
    n = 4000
    raw = rng.integers(0, levels, (n, dim)) if levels else rng.random((n, dim))
    u = np.column_stack([rankdata(raw[:, d]) / n for d in range(dim)])
    z = (u[:, 0] - 0.5) * (u[:, -1] - 0.5) > 0.02 if dim == 2 else u[:, 0] < 0.3
    eng = backend(hsic._BinnedBackend, u, z)
    ref = ReferenceBinned(eng)
    fc, fg = eng._spectrum(eng.c), eng._spectrum(eng.g)
    for fx, fy, auto in ((fc, fc, True), (fc, fg, False), (fg, fg, True)):
        got, want = eng._correlation(fx, fy), ref._correlation(fx, fy, auto)
        assert got.shape == want.shape == (eng.B,) * dim
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        if dim == 1 and not auto:
            assert np.array_equal(got, want)
    med = eng.median_distance()
    assert med == ref.median_distance()
    gammas = 1.0 / (2.0 * bandwidth_grid(med) ** 2)
    np.testing.assert_allclose(eng.sweep(gammas), ref.sweep(gammas), rtol=1e-12, atol=0)


# -- the bandwidth screen ------------------------------------------------------------


def exhaustive_select(backend, grid):
    """Bandwidth selection by a dense sweep of the whole grid, as it stood
    before the binned screen."""
    med = backend.median_distance()
    degenerate = med <= 0.0
    grid = bandwidth_grid(med) if grid is None else np.sort(np.asarray(grid, dtype=float))
    if len(grid) == 0 or np.any(grid <= 0):
        raise EstimationError("bandwidth grid must be nonempty and positive")
    if degenerate:
        warnings.warn("all samples identical; bandwidth selection is degenerate")
    gammas = 1.0 / (2.0 * grid**2)
    mmds = hsic._mmd_from_sums(backend.sweep(gammas), backend.n, backend.m)
    best = 0 if degenerate else int(np.argmax(mmds))    # first occurrence: smaller h
    return grid[best], gammas[best], float(mmds[best]), degenerate


def assert_selects_as_exhaustive(points_a, points_b, grid=None):
    eng = hsic._DenseBackend(*hsic._support(hsic._as_points(points_a),
                                            hsic._as_points(points_b)), hsic._inline)
    got = hsic._select(eng, grid)
    want = exhaustive_select(eng, grid)
    assert got == want           # h, gamma and mmd2 to the bit
    return eng


def ranked_labeled_points(rng, n, dim):
    """Rank columns (with ties when the raw values repeat) and goal flags of
    one of three shapes: none, a main effect or an interaction."""
    levels = int(rng.choice([0, 0, 5, 40]))
    raw = rng.integers(0, levels, (n, dim)) if levels else rng.random((n, dim))
    u = np.column_stack([rankdata(raw[:, d]) / n for d in range(dim)])
    shape = rng.choice(["null", "main", "interaction"])
    if shape == "null":
        z = rng.random(n) < rng.uniform(0.05, 0.5)
    elif shape == "main":
        z = u[:, 0] < rng.uniform(0.05, 0.5)
    else:
        z = (u[:, 0] - 0.5) * (u[:, -1] - 0.5) > rng.uniform(0.0, 0.1)
    return u, z


@pytest.mark.parametrize("dim", [1, 2])
def test_screened_selection_matches_exhaustive(dim):
    rng = np.random.default_rng(60 + dim)
    screened = 0
    for _ in range(16):
        n = int(np.exp(rng.uniform(np.log(50), np.log(1800))))
        u, z = ranked_labeled_points(rng, n, dim)
        if not 2 <= z.sum() <= hsic._DENSE_LIMIT - n:
            continue
        eng = assert_selects_as_exhaustive(u, u[z])
        screened += (2 * hsic._BINS[dim]) ** dim < len(eng.c) ** 2
    assert screened >= 4


@pytest.mark.parametrize("dim", [1, 2])
def test_screened_selection_of_equal_sets_matches_exhaustive(dim):
    # every exact mmd2 is 0 while the binned twin carries FFT rounding
    u = np.random.default_rng(70 + dim).random((1000, dim))
    assert_selects_as_exhaustive(u, u.copy())


def test_screened_selection_with_point_masses_matches_exhaustive():
    rng = np.random.default_rng(80)
    assert_selects_as_exhaustive(np.full(20, 0.2), np.full(20, 0.7))
    # most pooled pairs tie: the grid centers on the median nonzero distance
    assert_selects_as_exhaustive(np.full(300, 0.2), np.full(40, 0.7))
    # atoms holding most rows, plus a continuous part wide enough to screen
    a = np.concatenate([np.repeat([0.1, 0.5, 0.9], 300), rng.random(400)])
    assert_selects_as_exhaustive(a, a[(a < 0.3) | (a == 0.5)])
    # three columns: no binned twin, the whole grid is swept
    pts = rng.random((800, 3))
    assert_selects_as_exhaustive(pts, pts[pts[:, 0] < 0.3])


@pytest.mark.parametrize("dim", [1, 2])
def test_screened_selection_on_a_user_grid_with_ties(dim):
    # repeated bandwidths tie exactly, and far below the spacing of the ranks
    # the kernel matrix is the identity at every h, another run of exact ties;
    # the maximum lands on a repeated h in 1-D and on the identity run in 2-D
    rng = np.random.default_rng(90 + dim)
    u = (np.argsort(rng.random((900, dim)), axis=0) + 0.5) / 900
    z = rng.random(900) < 0.3
    grid = np.concatenate([np.geomspace(1e-7, 1e-5, 7), np.repeat([0.01, 0.05, 0.2], 3)])
    assert_selects_as_exhaustive(u, u[z], grid)


def test_screen_sums_the_dense_kernel_at_few_grid_points(monkeypatch):
    swept = []
    sweep = hsic._DenseBackend.sweep

    def counting_sweep(self, gammas):
        swept.append(len(gammas))
        return sweep(self, gammas)

    monkeypatch.setattr(hsic._DenseBackend, "sweep", counting_sweep)
    u = (np.arange(1500) + 0.5) / 1500
    z = np.random.default_rng(100).random(1500) < 0.1 + 0.3 * u
    eng = hsic._DenseBackend(*hsic._support(u[:, None], u[z, None]), hsic._inline)
    assert len(eng.c) == 1500
    hsic._select(eng, None)
    assert len(swept) == 1 and 1 <= swept[0] <= 4


def test_screened_selection_of_a_flat_example2_pair_matches_exhaustive():
    # example2's pair (x3, x4) in the 1500-trial search of seed 11 has its
    # exact maximum at the first grid point, 9.4e-3 below the binned maximum
    # (relative): further down than any of the 787 scores behind _SCREEN_SLACK
    obj = build_objective("example2")
    trials = run_random_search(obj.space, obj, 1500, master_seed=11)
    z = make_goal_flags(trials, threshold(0.5, "le"))
    matrix = normalize_trials(obj.space, trials, 11)
    pts = np.column_stack([matrix.column("x3"), matrix.column("x4")])
    eng = assert_selects_as_exhaustive(pts, pts[z])
    assert len(eng.c) == 1500
    gammas = 1.0 / (2.0 * bandwidth_grid(eng.median_distance()) ** 2)
    assert exhaustive_select(eng, None)[1] == gammas[0]
    twin = hsic._BinnedBackend(eng.support, eng.c, eng.g, hsic._inline)
    screened = _mmd_from_sums(twin.sweep(gammas), twin.n, twin.m)
    assert 9e-3 < (screened.max() - screened[0]) / screened.max() < hsic._SCREEN_SLACK[1]


# -- the scoring pool -------------------------------------------------------------


@contextlib.contextmanager
def blas_threads_at(n):
    """Every loaded OpenBLAS at n threads inside the block."""
    libraries = blas._openblas_controls()
    saved = [get() for get, _ in libraries]
    for _, put in libraries:
        put(n)
    try:
        yield
    finally:
        for (_, put), count in zip(libraries, saved):
            put(count)


def test_a_pin_loads_no_openblas_again(monkeypatch):
    # each library's entry points are looked up once; a score's pin after
    # that only reads which libraries are mapped
    with blas.one_blas_thread():
        pass
    loads, load = [], blas.ctypes.CDLL
    monkeypatch.setattr(blas.ctypes, "CDLL", lambda *args: loads.append(args) or load(*args))
    with blas.one_blas_thread():
        threads = blas._blas_threads()
    assert loads == []
    assert threads == [1] * len(blas._openblas_libraries())


@pytest.mark.parametrize("s", [7, 319, 320, 321, 480, 1500, 1501])
def test_row_blocks_tile_the_rows_from_fixed_starts(s):
    blocks = hsic._row_blocks(s)
    assert [b.start for b in blocks] == list(range(0, hsic._SPLIT_ROWS * len(blocks),
                                                   hsic._SPLIT_ROWS))
    assert blocks[-1].stop == s and all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    assert len(blocks) == 1 or min(b.stop - b.start for b in blocks) == hsic._SPLIT_ROWS
    assert (len(blocks) > 1) == (s >= 2 * hsic._SPLIT_ROWS)


# 1441 rows are nine blocks and one row more; 400 rows are two blocks, the
# last one 240 rows long.  at is the grid point of the standard error's
# products: 21 sits mid-grid, 3 is a narrow kernel
@pytest.mark.parametrize("s, at", [(1500, 21), (1441, 21), (400, 3)])
def test_dense_pool_sums_have_the_bits_of_one_unsplit_call(s, at):
    # whatever the pool's size and the caller's BLAS thread count, the row
    # blocks, each over its own distances, give the sweep and the standard
    # error's products the bits of one product of the whole kernel matrix at
    # one BLAS thread
    eng = dense_support(np.random.default_rng(130 + s), s, 1, False)
    assert len(hsic._row_blocks(s)) > 1
    grid = bandwidth_grid(eng.median_distance())
    gammas = 1.0 / (2.0 * grid[::8] ** 2)
    gamma = 1.0 / (2.0 * grid[at] ** 2)
    c, g = eng.c, eng.g
    r = np.random.default_rng(s).random(s)
    d2 = cdist(eng.support, eng.support, "sqeuclidean")
    with blas.one_blas_thread():
        sweep = []
        for gm in gammas:
            K = np.exp(-gm * d2)
            kg, kc = K @ g, K @ c
            sweep.append((c @ kc, c @ kg, g @ kg))
        K = np.exp(-gamma * d2)
        products = K @ c, K @ g, r @ ((K * K) @ r)
        se = hsic._std_error(eng, gamma)
    for threads in (1, 2):
        for workers in (1, 2, 3):
            with blas_threads_at(threads):
                with hsic._scoring(workers) as each:
                    pooled = hsic._DenseBackend(eng.support, c, g, each)
                    got_sweep = pooled.sweep(gammas)
                    got_products = pooled.products(gamma, r)
                    got_se = hsic._std_error(pooled, gamma)
                assert blas._blas_threads() == [threads] * len(blas._blas_threads())
            assert np.array_equal(got_sweep, np.array(sweep)), (threads, workers)
            for got, want in zip(got_products, products):
                assert np.array_equal(got, want), (threads, workers)
            assert got_se == se, (threads, workers)


@pytest.mark.parametrize("dim", [1, 2])
def test_dense_scores_hold_no_support_sized_table(dim):
    # each row block computes the distances it exponentiates, so building the
    # backend, a sweep and the standard error never hold an s x s table
    s = 1500
    rng = np.random.default_rng(160 + dim)
    pts, z = labeled_points(rng, s, dim)
    gammas = 1.0 / (2.0 * bandwidth_grid(0.3)[::8] ** 2)      # underflowing ones too
    tracemalloc.start()
    try:
        with hsic._scoring() as each:
            eng = backend(hsic._DenseBackend, pts, z, each)
            assert len(eng.c) == s
            eng.sweep(gammas)
            hsic._std_error(eng, gammas[2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < s * s * 8, peak


@pytest.mark.parametrize("workers", [2, 3])
def test_every_workspace_is_built_on_the_calling_thread(workers):
    # before any piece runs, the calling thread builds one workspace for
    # itself and one for each thread it starts, and every thread computes
    # into its own: a pool thread allocates no block- or grid-sized array,
    # which its malloc arena would keep
    caller, calls = threading.get_ident(), []
    rng = np.random.default_rng(170)
    pts, z = labeled_points(rng, 1500, 2)
    wide, wide_z = labeled_points(rng, 5000, 2)
    with hsic._scoring(workers) as each:

        def recording(fn, items, workspace):
            built, used = [], {}

            def factory():
                space = workspace()
                built.append((threading.get_ident(), id(space)))
                return space

            def piece(item, space):
                used.setdefault(threading.get_ident(), set()).add(id(space))
                return fn(item, space)

            out = each(piece, items, factory)
            calls.append((len(items), built, used))
            return out

        eng = backend(hsic._DenseBackend, pts, z, recording)
        gammas = 1.0 / (2.0 * bandwidth_grid(0.3)[::8] ** 2)
        eng.sweep(gammas)
        hsic._std_error(eng, gammas[2])
        hsic._sq_dist_pairs(np.repeat(eng.support, (eng.c + eng.g).astype(np.int64), axis=0),
                            recording)
        binned = backend(hsic._BinnedBackend, wide, wide_z, recording)
        hsic._std_error(binned, hsic._select(binned, None)[1])
    # row blocks of the sweep, the standard error and the pair table; the
    # binned backend hands the pool nothing
    assert [n for n, _, _ in calls] == [9, 9, 11]
    for n, built, used in calls:
        assert len(built) == min(workers - 1, n - 1) + 1
        assert {thread for thread, _ in built} == {caller}
        spaces = {space for _, space in built}
        assert all(len(ids) == 1 and ids <= spaces for ids in used.values())
        assert len(set.union(*used.values())) == len(used)  # no two threads share one


_POOL_PEAK = """
import os, sys
import numpy as np
from hsictune import hsic
if sys.argv[1] == "one-core":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
rng = np.random.default_rng(0)
u = rng.random((2, 1500))
hsic.hsic_pair(u[0], u[1], np.abs(u[0] - u[1]) < 0.05)
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status")
                    or len(os.sched_getaffinity(0)) < 2, reason="needs /proc and two cores")
def test_the_scoring_pool_adds_no_malloc_arena_to_the_peak():
    # a fresh process: a 2-D dense pair score at s = 1500 peaks within 3 MB
    # of the same score on one core, which starts no pool thread; a pool
    # thread that freed its kernel rows would keep them in its own arena.
    # The peak is VmHWM: ru_maxrss would carry this process's over exec
    src = os.path.dirname(os.path.dirname(hsic.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    peak = {}
    for mode in ("pool", "one-core"):
        done = subprocess.run([sys.executable, "-c", _POOL_PEAK, mode], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        peak[mode] = int(done.stdout.split()[-1]) / 1024     # kB to MB
    assert peak["pool"] <= peak["one-core"] + 3.0, peak


def test_binned_pool_bootstrap_has_the_bits_of_one_unsplit_call():
    rng = np.random.default_rng(150)
    pts, z = labeled_points(rng, 5000, 2)
    eng = backend(hsic._BinnedBackend, pts, z)
    gamma = hsic._select(eng, None)[1]
    with blas.one_blas_thread():
        want = hsic._std_error(eng, gamma)
    for threads in (1, 2):
        for workers in (1, 2, 3):
            with blas_threads_at(threads), hsic._scoring(workers) as each:
                got = hsic._std_error(backend(hsic._BinnedBackend, pts, z, each), gamma)
            assert got == want, (threads, workers)


# -- the dense distances, against the numpy tables they replaced -------------------


def _reference_median_distance(self) -> float:
    # the scipy form: pdist of the support repeated by its pooled counts
    pooled = np.repeat(self.support, (self.c + self.g).astype(np.int64), axis=0)
    pairs = pdist(pooled, "sqeuclidean")
    med = np.median(pairs)
    if med == 0.0 and np.any(pairs > 0):      # most pooled pairs tie
        med = np.median(pairs[pairs > 0])
    return float(np.sqrt(med))


def dense_case(kind, dim, rng):
    """Points and goal flags for one kind of dense support of dim columns."""
    if kind == "ranks":
        n = 700
        pts = (np.argsort(rng.random((n, dim)), axis=0) + 0.5) / n
    elif kind == "ties":
        # each column holds its first level 97% of the time, so more than
        # half of all pooled pairs sit at distance 0
        n = 600
        pts = np.where(rng.random((n, dim)) < 0.97, 0.25, rng.integers(1, 4, (n, dim)) / 4)
    elif kind == "one-point":
        n = 50
        pts = np.full((n, dim), 0.5)
    else:   # "pooled-2000": n + m sits on the dense limit
        n = 1800
        pts = rng.integers(0, 600, (n, dim)) / 600
    z = np.zeros(n, dtype=bool)
    z[rng.permutation(n)[: 200 if kind == "pooled-2000" else n // 7]] = True
    return pts, z


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("kind", ["ranks", "ties", "one-point", "pooled-2000"])
def test_dense_distances_match_the_numpy_tables(kind, dim):
    # the numpy distances add the same squares in the same column order as
    # cdist and pdist, so each block's kernel rows and the pooled median keep
    # every bit
    pts, z = dense_case(kind, dim, np.random.default_rng(120 + dim))
    eng = backend(hsic._DenseBackend, pts, z)
    want = cdist(eng.support, eng.support, "sqeuclidean")
    blocks = hsic._row_blocks(len(eng.c))
    space = hsic._scratch(blocks, len(eng.c))()
    for block in blocks:
        assert np.array_equal(hsic._sq_dist_rows(eng.support, block, space), want[block]), block
    pooled = np.repeat(eng.support, (eng.c + eng.g).astype(np.int64), axis=0)
    assert np.array_equal(np.sort(hsic._sq_dist_pairs(pooled, hsic._inline)),
                          np.sort(pdist(pooled, "sqeuclidean")))
    med = eng.median_distance()
    assert med == _reference_median_distance(eng)
    if kind == "pooled-2000":
        assert eng.n + eng.m == hsic._DENSE_LIMIT
    if kind == "one-point":
        assert med == 0.0
    if kind == "ties":      # only the nonzero distances give the median
        w = (eng.c + eng.g).astype(np.int64)
        assert np.sum(w * (w - 1) // 2) > (eng.n + eng.m) * (eng.n + eng.m - 1) // 4
        assert med > 0.0


def test_median_matches_np_median():
    # odd and even lengths, ties and a single value: the same bits as np.median
    rng = np.random.default_rng(121)
    for size in [1, 2, 3, 4, 5, 64, 65, 1001, 1002]:
        for values in (rng.random(size), rng.integers(0, 3, size) / 7.0):
            assert hsic._median(values.copy()) == np.median(values), size
