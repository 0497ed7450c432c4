"""Kernel dependence estimation against a goal indicator.

The central quantity is a goal-oriented dependence score for a rank column
u against binary goal flags z:

    S = (m/n)^2 [ (1/m^2) sum_jl k(u_j,u_l) d_j d_l
                + (1/n^2) sum_jl k(u_j,u_l)
                - (2/nm)  sum_jl k(u_j,u_l) d_l ]

with d_j the flag indicator, m the flagged count, and k a Gaussian RBF
whose bandwidth is picked by maximizing the squared mean-embedding distance
(mmd2) between the full sample and the flagged subsample over a log grid.
S is (m/n)^2 times the squared MMD between those two samples, hence
nonnegative up to rounding.

Two evaluation paths give identical structure at different scales: a dense
O(n^2) path below _DENSE_LIMIT pooled points, and a binned path that
histograms ranks and turns the double sums into FFT correlations, which
keeps large random searches (n in the tens of thousands) cheap.  Its
bootstrap fixes the bandwidth, so each resampled histogram is scored with
the kernel at that one bandwidth instead of the correlations.  Both paths
are deterministic and permutation invariant by construction (the dense path
canonically sorts its input; histograms are order-free).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EstimationError",
    "Kernel",
    "HsicScore",
    "rbf_kernel",
    "mmd2",
    "select_bandwidth",
    "hsic_goal",
    "hsic_pair",
    "bootstrap_se",
    "bandwidth_grid",
]

_DENSE_LIMIT = 2000     # pooled sample size above which the binned path kicks in
_BINS_1D = 4096
_BINS_2D = 256
N_GRID = 40
GRID_SPAN = (1e-2, 1e1)  # multiples of the median pairwise distance


class EstimationError(ValueError):
    pass


@dataclass(frozen=True)
class Kernel:
    """Gaussian RBF product kernel, one bandwidth per input dimension."""

    bandwidths: tuple
    degenerate: bool = False   # all samples identical; bandwidth is a fallback

    def __post_init__(self):
        bw = tuple(float(b) for b in self.bandwidths)
        if not bw or any(b <= 0 for b in bw):
            raise EstimationError("bandwidths must be positive")
        object.__setattr__(self, "bandwidths", bw)

    @property
    def dim(self) -> int:
        return len(self.bandwidths)


@dataclass(frozen=True)
class HsicScore:
    value: float
    std_error: float
    n_total: int
    n_goal: int
    bandwidth: Kernel

    def __post_init__(self):
        if self.value < 0 or self.std_error < 0:
            raise EstimationError("score and std_error must be nonnegative")
        if not (0 < self.n_goal <= self.n_total):
            raise EstimationError("need 0 < n_goal <= n_total")


def rbf_kernel(u, v, kernel: Kernel) -> float:
    """Product Gaussian kernel between two points of kernel.dim dimensions."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if u.shape != v.shape or u.shape[-1] != kernel.dim:
        raise EstimationError(
            f"dimension mismatch: {u.shape} vs {v.shape} vs kernel dim {kernel.dim}"
        )
    h = np.asarray(kernel.bandwidths)
    return float(np.exp(-np.sum((u - v) ** 2 / (2.0 * h * h), axis=-1)))


# -- shared geometry helpers -------------------------------------------------


def _as_points(x) -> np.ndarray:
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or len(pts) == 0:
        raise EstimationError("sample sets must be nonempty 1-D or 2-D arrays")
    return pts


def _canonical_order(points: np.ndarray, flags: np.ndarray | None = None):
    """Sort rows lexicographically so sums do not depend on input order."""
    keys = [points[:, d] for d in range(points.shape[1] - 1, -1, -1)]
    if flags is not None:
        keys.insert(0, flags.astype(np.int8))
    order = np.lexsort(tuple(keys))
    return order


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((len(a), len(b)))
    for d in range(a.shape[1]):
        out += (a[:, d, None] - b[None, :, d]) ** 2
    return out


# -- binned representation ---------------------------------------------------


@dataclass
class _Hist1:
    counts_a: np.ndarray    # full / first set
    counts_b: np.ndarray    # flagged / second set
    width: float

    def corr(self):
        B = len(self.counts_a)
        M = 2 * B
        fa = np.fft.rfft(self.counts_a, M)
        fb = np.fft.rfft(self.counts_b, M)
        w_aa = _fold1(np.fft.irfft(fa * np.conj(fa), M), B)
        w_bb = _fold1(np.fft.irfft(fb * np.conj(fb), M), B)
        w_ab = _fold1_cross(np.fft.irfft(fa * np.conj(fb), M), B)
        return w_aa, w_ab, w_bb

    def dist_sq(self):
        B = len(self.counts_a)
        return (np.arange(B) * self.width) ** 2

    def sums_at(self, gamma):
        """Map count vectors (c, g) on this grid to (c'Kc, g'Kc, g'Kg).

        K is the Toeplitz kernel matrix at one gamma.  Embedded in a circulant
        of length 2B it is diagonal in Fourier space, so by Parseval each
        triple costs two forward FFTs and three weighted spectrum sums.
        """
        B = len(self.counts_a)
        M = 2 * B
        k = np.exp(self.dist_sq() * (-gamma))
        ring = np.zeros(M)          # lag B never occurs between two bins
        ring[:B] = k
        ring[B + 1 :] = k[:0:-1]
        w = np.fft.rfft(ring).real / M
        w[1:-1] *= 2.0              # interior bins stand for a conjugate pair

        def sums(c, g):
            fc = np.fft.rfft(c, M)
            fg = np.fft.rfft(g, M)
            return (w @ (fc.real**2 + fc.imag**2),
                    w @ (fg.real * fc.real + fg.imag * fc.imag),
                    w @ (fg.real**2 + fg.imag**2))

        return sums


def _fold1(raw: np.ndarray, B: int) -> np.ndarray:
    # autocorrelation: weight at absolute lag d
    out = np.empty(B)
    out[0] = raw[0]
    out[1:] = 2.0 * raw[1:B]
    return out


def _fold1_cross(raw: np.ndarray, B: int) -> np.ndarray:
    # cross-correlation needs both lag signs: raw[d] and raw[M-d]
    M = len(raw)
    out = np.empty(B)
    out[0] = raw[0]
    out[1:] = raw[1:B] + raw[M - 1 : M - B : -1]
    return out


@dataclass
class _Hist2:
    counts_a: np.ndarray    # (B, B)
    counts_b: np.ndarray
    widths: tuple

    def corr(self):
        B = self.counts_a.shape[0]
        M = 2 * B
        fa = np.fft.rfft2(self.counts_a, (M, M))
        fb = np.fft.rfft2(self.counts_b, (M, M))
        w_aa = _fold2(np.fft.irfft2(fa * np.conj(fa), (M, M)), B, auto=True)
        w_bb = _fold2(np.fft.irfft2(fb * np.conj(fb), (M, M)), B, auto=True)
        w_ab = _fold2(np.fft.irfft2(fa * np.conj(fb), (M, M)), B, auto=False)
        return w_aa, w_ab, w_bb

    def sums_at(self, gamma):
        """Map flat count grids (c, g) to (c'Kc, g'Kc, g'Kg) at one gamma.

        The product kernel on the bin grid is K1 (x) K2 with Toeplitz factors
        K_d[i, j] = exp(-gamma e_d[|i - j|]), so c'Kc = <C, K1 C K2>.
        """
        B = self.counts_a.shape[0]
        lag = np.abs(np.subtract.outer(np.arange(B), np.arange(B)))
        K1, K2 = (np.exp((np.arange(B) * w) ** 2 * (-gamma))[lag]
                  for w in self.widths)

        def sums(c, g):
            C = c.reshape(B, B)
            G = g.reshape(B, B)
            kc = K1 @ C @ K2
            kg = K1 @ G @ K2
            return np.vdot(C, kc), np.vdot(G, kc), np.vdot(G, kg)

        return sums


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


def _bin_points(points_a, points_b):
    """Histogram two point sets on shared edges spanning their pooled range."""
    dim = points_a.shape[1]
    B = _BINS_1D if dim == 1 else _BINS_2D
    lo = np.minimum(points_a.min(axis=0), points_b.min(axis=0))
    hi = np.maximum(points_a.max(axis=0), points_b.max(axis=0))
    span = np.where(hi > lo, hi - lo, 1.0)
    width = span / B
    idx_a = np.clip(((points_a - lo) / width).astype(np.int64), 0, B - 1)
    idx_b = np.clip(((points_b - lo) / width).astype(np.int64), 0, B - 1)
    if dim == 1:
        ca = np.bincount(idx_a[:, 0], minlength=B).astype(float)
        cb = np.bincount(idx_b[:, 0], minlength=B).astype(float)
        return _Hist1(ca, cb, float(width[0]))
    flat_a = idx_a[:, 0] * B + idx_a[:, 1]
    flat_b = idx_b[:, 0] * B + idx_b[:, 1]
    ca = np.bincount(flat_a, minlength=B * B).astype(float).reshape(B, B)
    cb = np.bincount(flat_b, minlength=B * B).astype(float).reshape(B, B)
    return _Hist2(ca, cb, (float(width[0]), float(width[1])))


# -- sum engines -------------------------------------------------------------
#
# Each engine yields, for a list of gammas (gamma = 1 / (2 h^2)), the triple
#   s_aa = sum_jl k(a_j, a_l),  s_ab = sum_jl k(a_j, b_l),  s_bb likewise,
# from which mmd2 = s_bb/m^2 + s_aa/n^2 - 2 s_ab/(n m).


class _DenseEngine:
    def __init__(self, points_a, points_b):
        self.n = len(points_a)
        self.m = len(points_b)
        oa = _canonical_order(points_a)
        ob = _canonical_order(points_b)
        a, b = points_a[oa], points_b[ob]
        self.d_aa = _sq_dists(a, a)
        self.d_bb = _sq_dists(b, b)
        self.d_ab = _sq_dists(a, b)

    def sums(self, gammas):
        out = np.empty((len(gammas), 3))
        for i, g in enumerate(gammas):
            out[i, 0] = np.exp(self.d_aa * (-g)).sum()
            out[i, 1] = np.exp(self.d_ab * (-g)).sum()
            out[i, 2] = np.exp(self.d_bb * (-g)).sum()
        return out

    def median_pooled_distance(self) -> float:
        n, m = self.n, self.m
        tot = n + m
        d2 = np.empty((tot, tot))
        d2[:n, :n] = self.d_aa
        d2[n:, n:] = self.d_bb
        d2[:n, n:] = self.d_ab
        d2[n:, :n] = self.d_ab.T
        iu = np.triu_indices(tot, k=1)
        return float(np.sqrt(np.median(d2[iu])))


class _LabeledDenseEngine:
    """Dense sums for one labeled sample: a = all points, b = flagged subset."""

    def __init__(self, points, flags):
        order = _canonical_order(points, flags)
        self.pts = points[order]
        self.flags = flags[order].astype(float)
        self.n = len(points)
        self.m = int(flags.sum())
        self.d2 = _sq_dists(self.pts, self.pts)

    def sums(self, gammas):
        out = np.empty((len(gammas), 3))
        z = self.flags
        ones = np.ones_like(z)
        K = np.empty_like(self.d2)
        for i, g in enumerate(gammas):
            np.multiply(self.d2, -g, out=K)
            np.exp(K, out=K)
            kz = K @ z
            k1 = K @ ones
            # shared contraction paths let the all-flagged case cancel exactly
            out[i, 0] = float(ones @ k1)
            out[i, 1] = float(ones @ kz)
            out[i, 2] = float(z @ kz)
        return out

    def median_pooled_distance(self) -> float:
        # pooled sample = all points plus the flagged subset again
        sel = self.flags.astype(bool)
        pooled = np.concatenate([self.pts, self.pts[sel]])
        d2 = _sq_dists(pooled, pooled)
        iu = np.triu_indices(len(pooled), k=1)
        return float(np.sqrt(np.median(d2[iu])))

    def bootstrap(self, gamma, n_boot, seed):
        K = np.exp(self.d2 * (-gamma))
        n = self.n
        vals = np.empty(n_boot)
        for b in range(n_boot):
            rng = np.random.default_rng(np.random.SeedSequence((int(seed), b)))
            idx = rng.integers(0, n, n)
            w = np.bincount(idx, minlength=n).astype(float)
            wz = w * self.flags
            mb = wz.sum()
            if mb < 1:
                vals[b] = 0.0
                continue
            kw = K @ w
            kwz = K @ wz
            s_all = float(w @ kw)
            s_cross = float(wz @ kw)
            s_goal = float(wz @ kwz)
            mm = s_goal / mb**2 + s_all / n**2 - 2.0 * s_cross / (n * mb)
            vals[b] = max((mb / n) ** 2 * mm, 0.0)
        return vals


class _BinnedEngine:
    """FFT-correlation sums over histogrammed points (1-D or 2-D)."""

    def __init__(self, hist, n, m):
        self.hist = hist
        self.n = n
        self.m = m
        self._prepare(hist)

    def _prepare(self, hist):
        if isinstance(hist, _Hist1):
            self.w_aa, self.w_ab, self.w_bb = hist.corr()
            self.dist_sq = hist.dist_sq()
            self.two_d = False
        else:
            self.w_aa, self.w_ab, self.w_bb = hist.corr()
            B = hist.counts_a.shape[0]
            e1 = (np.arange(B) * hist.widths[0]) ** 2
            e2 = (np.arange(B) * hist.widths[1]) ** 2
            self.e1, self.e2 = e1, e2
            self.two_d = True

    def sums(self, gammas):
        out = np.empty((len(gammas), 3))
        for i, g in enumerate(gammas):
            if not self.two_d:
                k = np.exp(self.dist_sq * (-g))
                out[i] = (self.w_aa @ k, self.w_ab @ k, self.w_bb @ k)
            else:
                k1 = np.exp(self.e1 * (-g))
                k2 = np.exp(self.e2 * (-g))
                out[i, 0] = k1 @ self.w_aa @ k2
                out[i, 1] = k1 @ self.w_ab @ k2
                out[i, 2] = k1 @ self.w_bb @ k2
        return out

    def median_pooled_distance(self) -> float:
        # distance histogram of the pooled sample (set a plus set b again)
        if not self.two_d:
            pooled = self.hist.counts_a + self.hist.counts_b
            M = 2 * len(pooled)
            f = np.fft.rfft(pooled, M)
            w = _fold1(np.fft.irfft(f * np.conj(f), M), len(pooled))
            w[0] -= self.n + self.m            # drop self-pairs
            dists = np.sqrt(self.dist_sq)
        else:
            pooled = self.hist.counts_a + self.hist.counts_b
            B = pooled.shape[0]
            M = 2 * B
            f = np.fft.rfft2(pooled, (M, M))
            w = _fold2(np.fft.irfft2(f * np.conj(f), (M, M)), B, auto=True)
            w[0, 0] -= self.n + self.m
            dists = np.sqrt(self.e1[:, None] + self.e2[None, :])
            w = w.ravel()
            dists = dists.ravel()
        w = np.maximum(w, 0.0)
        total = w.sum()
        if total <= 0:
            return 0.0
        order = np.argsort(dists)
        cum = np.cumsum(w[order])
        med_idx = np.searchsorted(cum, 0.5 * total)
        return float(dists[order][min(med_idx, len(order) - 1)])


class _LabeledBinnedEngine(_BinnedEngine):
    def __init__(self, points, flags):
        n = len(points)
        m = int(flags.sum())
        hist = _bin_points(points, points[flags])
        super().__init__(hist, n, m)

    def bootstrap(self, gamma, n_boot, seed):
        c = self.hist.counts_a.ravel()
        g = self.hist.counts_b.ravel()
        n = self.n
        p = np.concatenate([g, c - g]) / n
        p /= p.sum()     # guard multinomial against float drift
        sums = self.hist.sums_at(gamma)
        vals = np.empty(n_boot)
        for b, counts in enumerate(_resample_counts(n, p, n_boot, seed)):
            gb = counts[: len(g)]
            cb = gb + counts[len(g) :]
            mb = gb.sum()
            if mb < 1:
                vals[b] = 0.0
                continue
            s_all, s_cross, s_goal = sums(cb, gb)
            mm = s_goal / mb**2 + s_all / n**2 - 2.0 * s_cross / (n * mb)
            vals[b] = max((mb / n) ** 2 * mm, 0.0)
        return vals


def _resample_counts(n, p, n_boot, seed):
    """Yield multinomial(n, p) counts for replicate b from the stream (seed, b).

    Only the support of p is drawn.  A zero-probability category consumes no
    random numbers, so the counts equal those of a draw over all of p.
    """
    support = np.flatnonzero(p)
    p_support = p[support]
    for b in range(n_boot):
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), b)))
        counts = np.zeros(len(p))
        counts[support] = rng.multinomial(n, p_support)
        yield counts


def _labeled_engine(points, flags):
    if len(points) + int(flags.sum()) <= _DENSE_LIMIT:
        return _LabeledDenseEngine(points, flags)
    return _LabeledBinnedEngine(points, flags)


def _two_set_engine(points_a, points_b):
    if len(points_a) + len(points_b) <= _DENSE_LIMIT:
        return _DenseEngine(points_a, points_b)
    hist = _bin_points(points_a, points_b)
    return _BinnedEngine(hist, len(points_a), len(points_b))


def _mmd_from_sums(sums, n, m):
    s_aa, s_ab, s_bb = sums[:, 0], sums[:, 1], sums[:, 2]
    return s_bb / m**2 + s_aa / n**2 - 2.0 * s_ab / (n * m)


# -- public operations -------------------------------------------------------


def bandwidth_grid(median_distance: float, n_grid: int = N_GRID) -> np.ndarray:
    """Log grid spanning GRID_SPAN times the median pairwise distance."""
    med = median_distance if median_distance > 0 else 1.0
    return np.geomspace(GRID_SPAN[0] * med, GRID_SPAN[1] * med, n_grid)


def mmd2(xs, ys, kernel: Kernel) -> float:
    """Squared-MMD V-statistic between two sample sets at a fixed kernel.

    Equals the squared norm of the difference of empirical mean embeddings,
    so it is nonnegative up to ~1e-12 of floating-point rounding.
    """
    a = _as_points(xs)
    b = _as_points(ys)
    if a.shape[1] != kernel.dim or b.shape[1] != kernel.dim:
        raise EstimationError("sample dimension does not match kernel")
    h = np.asarray(kernel.bandwidths)
    a = a / h
    b = b / h
    eng = _two_set_engine(a, b)
    sums = eng.sums([0.5])
    return float(_mmd_from_sums(sums, len(a), len(b))[0])


def select_bandwidth(xs, ys, grid=None) -> Kernel:
    """Grid bandwidth maximizing mmd2(xs, ys, .); ties go to the smaller h.

    If every pooled sample is identical the objective is flat at zero; the
    smallest grid bandwidth is returned with the degenerate flag set.
    """
    a = _as_points(xs)
    b = _as_points(ys)
    if a.shape[1] != b.shape[1]:
        raise EstimationError("sample sets have different dimensions")
    eng = _two_set_engine(a, b)
    med = eng.median_pooled_distance()
    degenerate = med <= 0.0
    if grid is None:
        grid = bandwidth_grid(med)
    grid = np.asarray(grid, dtype=float)
    if len(grid) == 0 or np.any(grid <= 0):
        raise EstimationError("bandwidth grid must be nonempty and positive")
    grid = np.sort(grid)
    if degenerate:
        warnings.warn("all samples identical; bandwidth selection is degenerate")
        return Kernel((grid[0],) * a.shape[1], degenerate=True)
    gammas = 1.0 / (2.0 * grid**2)
    vals = _mmd_from_sums(eng.sums(gammas), len(a), len(b))
    best = int(np.argmax(vals))     # first occurrence wins: smaller bandwidth
    return Kernel((grid[best],) * a.shape[1])


def _prepare_labeled(u, z, active=None):
    pts = _as_points(u)
    flags = np.asarray(z, dtype=bool)
    if len(flags) != len(pts):
        raise EstimationError("rank column and goal flags differ in length")
    if active is not None:
        keep = np.asarray(active, dtype=bool)
        pts, flags = pts[keep], flags[keep]
    if len(pts) < 2:
        raise EstimationError("need at least 2 samples")
    if int(flags.sum()) < 2:
        raise EstimationError("goal set too small")
    return pts, flags


def _score_labeled(pts, flags, n_boot, seed, grid):
    eng = _labeled_engine(pts, flags)
    n, m = eng.n, eng.m
    med = eng.median_pooled_distance()
    degenerate = med <= 0.0
    if grid is None:
        grid_arr = bandwidth_grid(med)
    else:
        grid_arr = np.sort(np.asarray(grid, dtype=float))
        if len(grid_arr) == 0 or np.any(grid_arr <= 0):
            raise EstimationError("bandwidth grid must be nonempty and positive")
    if degenerate:
        warnings.warn("all samples identical; bandwidth selection is degenerate")
    gammas = 1.0 / (2.0 * grid_arr**2)
    mmds = _mmd_from_sums(eng.sums(gammas), n, m)
    best = int(np.argmax(mmds))
    if degenerate:
        best = 0
    h = grid_arr[best]
    if m == n:
        value = 0.0   # goal set equals the full sample: embeddings coincide
    else:
        value = max((m / n) ** 2 * float(mmds[best]), 0.0)
    if n_boot >= 2:
        reps = eng.bootstrap(gammas[best], n_boot, seed)
        se = float(np.std(reps, ddof=1))
    else:
        se = 0.0
    kernel = Kernel((h,) * pts.shape[1], degenerate=degenerate)
    return HsicScore(value, se, n, m, kernel)


def hsic_goal(u, z, *, active=None, n_boot=100, seed=0, grid=None) -> HsicScore:
    """Goal-oriented dependence score of one rank column.

    The bandwidth is selected by maximizing mmd2 between the full column and
    its flagged subsample over the grid, then the score is evaluated there.
    The bootstrap standard error resamples (rank, flag) pairs with
    replacement, bandwidth held fixed at the full-sample choice.
    """
    pts, flags = _prepare_labeled(u, z, active)
    if pts.shape[1] != 1:
        raise EstimationError("hsic_goal expects a single rank column")
    return _score_labeled(pts, flags, n_boot, seed, grid)


def hsic_pair(u_i, u_j, z, *, active=None, n_boot=100, seed=0, grid=None) -> HsicScore:
    """Joint two-column dependence score with a product kernel (shared h)."""
    ui = np.asarray(u_i, dtype=float)
    uj = np.asarray(u_j, dtype=float)
    if ui.shape != uj.shape or ui.ndim != 1:
        raise EstimationError("pair columns must be 1-D and equally long")
    pts, flags = _prepare_labeled(np.column_stack([ui, uj]), z, active)
    return _score_labeled(pts, flags, n_boot, seed, grid)


def bootstrap_se(u, z, n_boot: int = 100, seed: int = 0, *, active=None) -> float:
    """Percentile-bootstrap standard deviation of the score estimate.

    Resample b draws from the stream keyed (seed, b), so extending n_boot
    keeps earlier resamples unchanged.
    """
    if n_boot < 2:
        raise EstimationError("n_boot must be at least 2")
    score = hsic_goal(u, z, active=active, n_boot=n_boot, seed=seed)
    return score.std_error
