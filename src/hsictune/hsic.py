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

Every estimate works on one representation of two sample sets a and b: the
distinct support points of both, in lexicographic order, with a count
vector c for set a and g for set b.  Then mmd2 = g'Kg/m^2 + c'Kc/n^2 -
2 c'Kg/(nm), and a goal score takes a = all rows and b = the flagged rows,
so g counts the flags.  Two backends serve it.  Up to _DENSE_LIMIT pooled
points (n + m) the dense backend sums the kernel matrix of the support
exactly.  Above it the binned backend snaps the support onto a grid of
_BINS[dim] bins per dimension (4096 in 1-D, 256 in 2-D) and turns the sums
into FFT correlations, which keeps random searches of tens of thousands of
trials cheap.  One fold serves every binned dimension: along each axis in
turn it adds the correlation at lag -d onto lag d.  Only the dimensions in
_BINS can be binned, so sets of three or more columns above _DENSE_LIMIT
pooled points are rejected.  Each backend gives the pooled median distance
that centers the bandwidth grid, the sums over the grid, the sums at one
bandwidth, and its own bootstrap draw; one bootstrap loop scores the
replicates at the selected bandwidth.  Both backends are deterministic and
permutation invariant: the support is sorted and counts are order-free.

The dense backend's bandwidth search runs coarse to fine.  When the padded
FFT grid of B bins per dimension has fewer cells than the dense kernel
matrix, (2B)^dim < s^2 for s support points (s > 90 in 1-D, s > 512 in
2-D), a binned twin on the same support and counts screens the whole grid,
and the exact dense sums run only at the grid points whose binned mmd2 lies
within _SCREEN_SLACK of the binned maximum (plus an absolute margin for the
FFT's rounding).  The exact maximum among them is selected.  Each
bandwidth's sums are computed on their own, so the result has the bits of
the full dense sweep whenever the smallest exact maximizer lies within
that slack.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .space import _seed_sequence

__all__ = [
    "EstimationError",
    "Kernel",
    "HsicScore",
    "mmd2",
    "select_bandwidth",
    "hsic_goal",
    "hsic_pair",
    "bandwidth_grid",
]

_DENSE_LIMIT = 2000     # pooled sample size above which the binned path kicks in
_BINS = {1: 4096, 2: 256}   # bins per axis of the binned backend's grid, by dimension
# The bandwidth screen (see _candidates): per dimension, the relative slack
# below the binned maximum within which a grid point is summed exactly.  Over
# 787 random goal scores (n 100-1800, null, main-effect and interaction flags,
# tied ranks) the exact argmax's binned value sat at most 2.9e-3 below the
# binned maximum, relative.
_SCREEN_SLACK = {1: 1e-2, 2: 5e-2}
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


# -- the two-set representation -----------------------------------------------


def _as_points(x) -> np.ndarray:
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or len(pts) == 0:
        raise EstimationError("sample sets must be nonempty 1-D or 2-D arrays")
    return pts


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((len(a), len(b)))
    for d in range(a.shape[1]):
        out += (a[:, d, None] - b[None, :, d]) ** 2
    return out


def _support(points_a, points_b):
    """Distinct points of both sets, sorted, with counts c (set a), g (set b).

    A point in both sets is one support row, so equal sets give c == g and
    sums that cancel exactly.
    """
    pts = np.concatenate([points_a, points_b])
    order = np.lexsort(pts.T[::-1])            # first coordinate is the primary key
    ordered = pts[order]
    new = np.ones(len(pts), dtype=bool)
    new[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    row = np.empty(len(pts), dtype=np.int64)
    row[order] = np.cumsum(new) - 1
    n, s = len(points_a), int(new.sum())
    c = np.bincount(row[:n], minlength=s).astype(float)
    g = np.bincount(row[n:], minlength=s).astype(float)
    return ordered[new], c, g


def _backend(points_a, points_b):
    dense = len(points_a) + len(points_b) <= _DENSE_LIMIT
    dim = points_a.shape[1]
    if not dense and dim not in _BINS:
        raise EstimationError(f"sets of {dim} columns are limited to {_DENSE_LIMIT} pooled points")
    support, c, g = _support(points_a, points_b)
    return (_DenseBackend if dense else _BinnedBackend)(support, c, g)


def _mmd_from_sums(sums, n, m):
    s_aa, s_ab, s_bb = sums[:, 0], sums[:, 1], sums[:, 2]
    return s_bb / m**2 + s_aa / n**2 - 2.0 * s_ab / (n * m)


# -- backends ------------------------------------------------------------------
#
# Each backend holds counts c and g on its support points and provides, with
# gamma = 1 / (2 h^2):
#   median_distance()  median distance between two points of the pooled
#                      sample (set a plus set b again), centering the grid;
#   sweep(gammas)      (c'Kc, c'Kg, g'Kg) at each gamma;
#   sums_at(gamma)     a map from replicate counts (c, g) to (c'Kc, g'Kc, g'Kg);
#   draw(rng)          one bootstrap replicate's counts (c, g) of a goal score.


class _DenseBackend:
    """Exact sums over the kernel matrix of the support points."""

    def __init__(self, support, c, g):
        self.support, self.c, self.g = support, c, g
        self.n, self.m = int(c.sum()), int(g.sum())
        self.d2 = _sq_dists(support, support)
        # the n rows of set a, a point's flagged rows last: what a draw picks
        reps = c.astype(np.int64)
        self.owner = np.repeat(np.arange(len(c)), reps)
        self.flagged = np.arange(self.n) >= np.repeat(np.cumsum(reps) - g.astype(np.int64),
                                                      reps)

    def median_distance(self) -> float:
        # a pair of support points stands for the product of their pooled
        # counts, and a point's own pooled pairs are all at distance 0
        w = (self.c + self.g).astype(np.int64)
        iu = np.triu_indices(len(w), k=1)
        pairs = np.repeat(self.d2[iu], w[iu[0]] * w[iu[1]])
        ties = np.zeros(int(np.sum(w * (w - 1) // 2)))
        return float(np.sqrt(np.median(np.concatenate([ties, pairs]))))

    def sweep(self, gammas):
        out = np.empty((len(gammas), 3))
        c, g = self.c, self.g
        K = np.empty_like(self.d2)
        for i, gamma in enumerate(gammas):
            np.multiply(self.d2, -gamma, out=K)
            np.exp(K, out=K)
            kg = K @ g
            kc = K @ c
            # the cross term's contraction order sets its rounding; changing
            # c'(Kg) here or g'(Kc) in sums_at moves the scores' last bits
            out[i] = c @ kc, c @ kg, g @ kg
        return out

    def sums_at(self, gamma):
        K = np.exp(self.d2 * (-gamma))

        def sums(c, g):
            kc = K @ c
            kg = K @ g
            return float(c @ kc), float(g @ kc), float(g @ kg)

        return sums

    def draw(self, rng):
        """n rows of set a drawn with replacement, counted per support point."""
        idx = rng.integers(0, self.n, self.n)
        s = len(self.c)
        return (np.bincount(self.owner[idx], minlength=s).astype(float),
                np.bincount(self.owner[idx[self.flagged[idx]]], minlength=s).astype(float))


class _BinnedBackend:
    """Sums over the support snapped onto a grid of B bins per dimension."""

    def __init__(self, support, c, g):
        self.n, self.m = int(c.sum()), int(g.sum())
        self.dim = support.shape[1]
        self.B = B = _BINS[self.dim]
        lo, hi = support.min(axis=0), support.max(axis=0)
        width = np.where(hi > lo, hi - lo, 1.0) / B
        idx = np.clip(((support - lo) / width).astype(np.int64), 0, B - 1)
        shape = (B,) * self.dim
        flat = np.ravel_multi_index(tuple(idx.T), shape)
        self.c = np.bincount(flat, weights=c, minlength=B**self.dim).reshape(shape)
        self.g = np.bincount(flat, weights=g, minlength=B**self.dim).reshape(shape)
        self.lag2 = [(np.arange(B) * float(w)) ** 2 for w in width]   # per axis
        # a draw is multinomial over (flagged, unflagged) cells
        flat_c, flat_g = self.c.ravel(), self.g.ravel()
        p = np.concatenate([flat_g, flat_c - flat_g]) / self.n
        p /= p.sum()     # guard multinomial against float drift
        self.cells = np.flatnonzero(p)
        self.p = p

    def _spectrum(self, counts):
        return np.fft.rfftn(counts, (2 * self.B,) * self.dim, tuple(range(self.dim)))

    def _correlation(self, fx, fy):
        """Correlation of two count grids from their spectra, summed onto
        absolute lags [0, B) along every axis.

        Along an axis of the 2B-point correlation, index d holds lag +d and
        index 2B - d lag -d; lag B never occurs between two bins.
        """
        B = self.B
        x = np.fft.irfftn(fx * np.conj(fy), (2 * B,) * self.dim, tuple(range(self.dim)))
        for axis in range(self.dim):
            x = np.moveaxis(x, axis, 0)
            folded = x[:B].copy()
            folded[1:] += x[:B:-1]
            x = np.moveaxis(folded, 0, axis)
        return x

    def median_distance(self) -> float:
        f = self._spectrum(self.c + self.g)
        w = self._correlation(f, f)
        w.flat[0] -= self.n + self.m            # drop self-pairs
        dists = np.sqrt(functools.reduce(np.add.outer, self.lag2)).ravel()
        w = np.maximum(w.ravel(), 0.0)
        total = w.sum()
        if total <= 0:
            return 0.0
        order = np.argsort(dists)
        cum = np.cumsum(w[order])
        med_idx = np.searchsorted(cum, 0.5 * total)
        return float(dists[order][min(med_idx, len(order) - 1)])

    def sweep(self, gammas):
        fc, fg = self._spectrum(self.c), self._spectrum(self.g)
        ws = (self._correlation(fc, fc), self._correlation(fc, fg),
              self._correlation(fg, fg))
        out = np.empty((len(gammas), 3))
        for i, gamma in enumerate(gammas):
            ks = [np.exp(e * (-gamma)) for e in self.lag2]
            for j, w in enumerate(ws):
                for k in reversed(ks):      # contract the last axis first
                    w = w @ k
                out[i, j] = w
        return out

    def sums_at(self, gamma):
        """Map flat count grids (c, g) to (c'Kc, g'Kc, g'Kg) at one gamma.

        1-D: the Toeplitz kernel matrix, embedded in a circulant of length 2B,
        is diagonal in Fourier space, so by Parseval each triple costs two
        forward FFTs and three weighted spectrum sums.  2-D: the product
        kernel is K1 (x) K2 with Toeplitz factors K_d[i, j] =
        exp(-gamma e_d[|i - j|]), so c'Kc = <C, K1 C K2>.
        """
        B = self.B
        if self.dim == 1:
            M = 2 * B
            k = np.exp(self.lag2[0] * (-gamma))
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
        lag = np.abs(np.subtract.outer(np.arange(B), np.arange(B)))
        K1, K2 = (np.exp(e * (-gamma))[lag] for e in self.lag2)

        def sums(c, g):
            C = c.reshape(B, B)
            G = g.reshape(B, B)
            kc = K1 @ C @ K2
            kg = K1 @ G @ K2
            return np.vdot(C, kc), np.vdot(G, kc), np.vdot(G, kg)

        return sums

    def draw(self, rng):
        """Multinomial(n) counts over the cells; only cells of nonzero
        probability are drawn, which consumes the same random numbers."""
        counts = np.zeros(len(self.p))
        counts[self.cells] = rng.multinomial(self.n, self.p[self.cells])
        half = len(counts) // 2
        g = counts[:half]
        return g + counts[half:], g


def _bootstrap(backend, gamma, n_boot, seed):
    """Replicate scores at a fixed gamma; replicate b draws from the stream
    keyed (seed, b), so extending n_boot keeps earlier replicates."""
    n = backend.n
    sums = backend.sums_at(gamma)
    vals = np.empty(n_boot)
    for b in range(n_boot):
        cb, gb = backend.draw(np.random.default_rng(_seed_sequence(seed, b)))
        mb = gb.sum()
        if mb < 1:
            vals[b] = 0.0
            continue
        s_all, s_cross, s_goal = sums(cb, gb)
        mm = s_goal / mb**2 + s_all / n**2 - 2.0 * s_cross / (n * mb)
        vals[b] = max((mb / n) ** 2 * mm, 0.0)
    return vals


def _candidates(backend, gammas):
    """Grid indices at which the exact mmd2 may be largest.

    A dense backend whose padded FFT grid, (2B)^dim cells, is smaller than
    its s x s kernel matrix screens the grid first: its binned twin (the
    binned backend on the same support and counts) sweeps every bandwidth,
    and only the points within the dimension's slack of the twin's maximum
    are kept.  The absolute part of the slack, (2B)^dim machine epsilons,
    bounds the FFT's rounding, so a twin maximum near zero (equal sets,
    where every exact mmd2 is 0) keeps the whole grid.  Any other backend
    keeps every point.
    """
    everything = np.arange(len(gammas))
    if not isinstance(backend, _DenseBackend) or backend.support.shape[1] not in _BINS:
        return everything
    dim = backend.support.shape[1]
    cells = (2 * _BINS[dim]) ** dim
    if cells >= len(backend.c) ** 2:
        return everything
    twin = _BinnedBackend(backend.support, backend.c, backend.g)
    screened = _mmd_from_sums(twin.sweep(gammas), twin.n, twin.m)
    top = screened.max()
    slack = _SCREEN_SLACK[dim] * abs(top) + cells * np.finfo(float).eps
    return np.flatnonzero(screened >= top - slack)


def _select(backend, grid):
    """The grid bandwidth maximizing mmd2; ties go to the smaller h.

    Returns (h, gamma, mmd2 at h, degenerate).  If every pooled sample is
    identical the objective is flat, so the smallest grid bandwidth is taken
    and flagged degenerate.  Only the candidates are summed exactly; the
    sums at a bandwidth do not depend on the others swept with it, so each
    candidate's mmd2 has the bits a sweep of the whole grid gives it.
    """
    med = backend.median_distance()
    degenerate = med <= 0.0
    grid = bandwidth_grid(med) if grid is None else np.sort(np.asarray(grid, dtype=float))
    if len(grid) == 0 or np.any(grid <= 0):
        raise EstimationError("bandwidth grid must be nonempty and positive")
    if degenerate:
        warnings.warn("all samples identical; bandwidth selection is degenerate")
    gammas = 1.0 / (2.0 * grid**2)
    kept = np.array([0]) if degenerate else _candidates(backend, gammas)
    mmds = _mmd_from_sums(backend.sweep(gammas[kept]), backend.n, backend.m)
    i = int(np.argmax(mmds))                 # first occurrence: smaller h
    best = kept[i]
    return grid[best], gammas[best], float(mmds[i]), degenerate


# -- public operations -------------------------------------------------------


def bandwidth_grid(median_distance: float) -> np.ndarray:
    """Log grid of N_GRID points spanning GRID_SPAN times the median
    pairwise distance."""
    med = median_distance if median_distance > 0 else 1.0
    return np.geomspace(GRID_SPAN[0] * med, GRID_SPAN[1] * med, N_GRID)


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
    backend = _backend(a / h, b / h)
    return float(_mmd_from_sums(backend.sweep([0.5]), backend.n, backend.m)[0])


def select_bandwidth(xs, ys, grid=None) -> Kernel:
    """Grid bandwidth maximizing mmd2(xs, ys, .); ties go to the smaller h.

    If every pooled sample is identical the objective is flat at zero; the
    smallest grid bandwidth is returned with the degenerate flag set.
    """
    a = _as_points(xs)
    b = _as_points(ys)
    if a.shape[1] != b.shape[1]:
        raise EstimationError("sample sets have different dimensions")
    h, _, _, degenerate = _select(_backend(a, b), grid)
    return Kernel((h,) * a.shape[1], degenerate=degenerate)


def _prepare_labeled(u, z):
    pts = _as_points(u)
    flags = np.asarray(z, dtype=bool)
    if len(flags) != len(pts):
        raise EstimationError("rank column and goal flags differ in length")
    if len(pts) < 2:
        raise EstimationError("need at least 2 samples")
    if int(flags.sum()) < 2:
        raise EstimationError("goal set too small")
    return pts, flags


def _score_labeled(pts, flags, n_boot, seed):
    backend = _backend(pts, pts[flags])
    n, m = backend.n, backend.m
    h, gamma, mmd, degenerate = _select(backend, None)
    if m == n:
        value = 0.0   # goal set equals the full sample: embeddings coincide
    else:
        value = max((m / n) ** 2 * mmd, 0.0)
    if n_boot >= 2:
        se = float(np.std(_bootstrap(backend, gamma, n_boot, seed), ddof=1))
    else:
        se = 0.0
    kernel = Kernel((h,) * pts.shape[1], degenerate=degenerate)
    return HsicScore(value, se, n, m, kernel)


def hsic_goal(u, z, *, n_boot=100, seed=0) -> HsicScore:
    """Goal-oriented dependence score of one rank column.

    The bandwidth is selected by maximizing mmd2 between the full column and
    its flagged subsample over the grid, then the score is evaluated there.
    The bootstrap standard error resamples (rank, flag) pairs with
    replacement, bandwidth held fixed at the full-sample choice.
    """
    pts, flags = _prepare_labeled(u, z)
    if pts.shape[1] != 1:
        raise EstimationError("hsic_goal expects a single rank column")
    return _score_labeled(pts, flags, n_boot, seed)


def hsic_pair(u_i, u_j, z, *, n_boot=100, seed=0) -> HsicScore:
    """Joint two-column dependence score with a product kernel (shared h)."""
    ui = np.asarray(u_i, dtype=float)
    uj = np.asarray(u_j, dtype=float)
    if ui.shape != uj.shape or ui.ndim != 1:
        raise EstimationError("pair columns must be 1-D and equally long")
    pts, flags = _prepare_labeled(np.column_stack([ui, uj]), z)
    return _score_labeled(pts, flags, n_boot, seed)

