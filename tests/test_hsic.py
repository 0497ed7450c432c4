import copy
import warnings

import numpy as np
import pytest
from scipy.stats import rankdata, truncnorm

from hsictune import hsic
from hsictune.hsic import (
    EstimationError,
    Kernel,
    bandwidth_grid,
    hsic_goal,
    hsic_pair,
    mmd2,
    select_bandwidth,
)


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
    with pytest.raises(EstimationError):
        Kernel((0.0,))


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


def backend(cls, pts, z):
    """A goal score's representation: a = all points, b = the flagged ones."""
    return cls(*hsic._support(pts, pts[z]))


def resample_probabilities(eng):
    c = eng.c.ravel()
    g = eng.g.ravel()
    p = np.concatenate([g, c - g]) / eng.n
    return p / p.sum()


@pytest.mark.parametrize("dim", [1, 2])
def test_binned_replicate_sums_match_fft_correlations(dim):
    # per-replicate kernel products against the folded FFT correlations on the
    # same multinomial-resampled histograms, across the bandwidth grid
    rng = np.random.default_rng(20 + dim)
    pts, z = labeled_points(rng, 5000, dim)
    eng = backend(hsic._BinnedBackend, pts, z)
    p = resample_probabilities(eng)
    half = len(p) // 2
    shape = eng.c.shape
    grid = bandwidth_grid(eng.median_distance())
    for h in grid[::6]:
        gamma = 1.0 / (2.0 * h * h)
        sums = eng.sums_at(gamma)
        for seed in range(3):
            counts = np.random.default_rng(seed).multinomial(eng.n, p).astype(float)
            gb = counts[:half]
            cb = gb + counts[half:]
            replicate = copy.copy(eng)
            replicate.c, replicate.g = cb.reshape(shape), gb.reshape(shape)
            want = replicate.sweep([gamma])[0]
            np.testing.assert_allclose(sums(cb, gb), want, rtol=1e-12, atol=0)


def test_support_multinomial_matches_full_draw():
    rng = np.random.default_rng(30)
    for dim in (1, 2):
        pts, z = labeled_points(rng, 3000, dim)
        eng = backend(hsic._BinnedBackend, pts, z)
        p = resample_probabilities(eng)
        for s in (0, 1, 7):
            for b in range(100):
                cb, gb = eng.draw(np.random.default_rng(np.random.SeedSequence((s, b))))
                counts = np.concatenate([gb, cb - gb])
                full_rng = np.random.default_rng(np.random.SeedSequence((s, b)))
                assert np.array_equal(counts, full_rng.multinomial(eng.n, p))


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
                                            hsic._as_points(points_b)))
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
    with pytest.warns(UserWarning, match="degenerate"):     # median distance 0
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
    eng = hsic._DenseBackend(*hsic._support(u[:, None], u[z, None]))
    assert len(eng.c) == 1500
    hsic._select(eng, None)
    assert len(swept) == 1 and 1 <= swept[0] <= 4
