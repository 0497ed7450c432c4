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
that centers the bandwidth grid (the median of the nonzero distances when
most pooled pairs tie), the sums over the grid and the bootstrap
replicates' sums at one bandwidth.  The dense backend computes squared
distances with numpy, in blocks of rows: a block of kernel rows computes
its rows' distances to the support where it exponentiates them, and the
median reads a table of every pair of the pooled sample (the support
repeated by its pooled counts).  Each entry adds the squared difference per
dimension in column order, as scipy's cdist and pdist ("sqeuclidean") do,
so it has their bits.  The kernel has the bits of np.exp(-gamma d2), entry
for entry, but no entry takes np.exp's slow path for results that
underflow: the arguments below -707 are computed apart, the band down to
-746 as one short array, and the ones below it set to the +0.0 that np.exp
gives them.  Both backends are deterministic and permutation invariant: the
support is sorted and counts are order-free.

One bootstrap draw serves both backends: a replicate resamples the n rows
of set a and counts them per support point (dense) or grid cell (binned),
and a draw without a flagged row is drawn again.  The bootstrap hands one
call of the backend's replicate_sums at the selected bandwidth a draw
function, the only way a backend reads a replicate: draw(b, out) counts
replicate b from its own stream into the two rows out, and replicate_sums
returns each replicate's three sums.  The dense backend draws each
replicate straight into its two columns of one block and sums the whole
block with one product K X, which reads the s x s kernel matrix once
instead of twice per replicate.  The binned backend sums each replicate as
it is drawn and keeps none of them (100 2-D count grids would take ~105
MB): in 1-D by Parseval, in 2-D as |F1' C F2|^2 for the count grid C, where
F_d F_d' = K_d factors each axis's Toeplitz kernel.  F_d keeps the
eigenvectors of K_d whose eigenvalues exceed B eps lambda_max, the level of
eigh's own error, so the factored sums match K1 C K2 to 1e-12 relative.  A
kernel 20-55 bins wide keeps a rank of 18-35 of 256, and a replicate's
products then run 3 to 18 times faster than K1 C K2; a kernel a few bins
wide keeps nearly all 256 and costs what K1 C K2 does.

Each estimate runs in _scoring, which pins every loaded OpenBLAS to one
thread and puts one thread on each core the process may run on: the calling
thread and a pool of the others, which ends with the estimate.  numpy runs
its elementwise passes on one core, so the backends hand the work to those
threads in pieces, through the map that _scoring yields.  The dense backend
splits the pair table, its kernel matrix and the products K c, K g and K X
into blocks of _SPLIT_ROWS rows (_row_blocks; a support under two blocks is
one block and runs inline), and each block builds its distances and rows of
K and multiplies them while they are in cache.  The binned backend hands out
its bootstrap replicates one per piece, each drawn from its own stream.  The
bits depend neither on the number of threads nor on the caller's BLAS
thread count: every distance and entry of K is computed on its own, every
replicate is summed on its own, the blocks are fixed by the input size
alone, and at one thread OpenBLAS gives a row of a block's product the bits
of the same row of the whole product.  That last fact holds for its
matrix-vector kernels at any block of two or more rows that starts where
_row_blocks starts one, and for its blocked matrix-matrix kernel
(_SMALL_GEMM keeps the small-matrix kernel out).  numpy's exp dispatch still
sets the bits (see the README).

Each thread computes into buffers the calling thread allocated.  glibc gives
every thread its own malloc arena and keeps in it what the thread frees, so
a pool thread that built its own kernel rows or count grids would hold them
until the process ends.  So the map takes a workspace factory, which the
calling thread calls once for each thread before any piece runs: a dense
block's distances, kernel rows, _kernel's masks and _sq_dists' scratch,
sized to the largest block of the call, and a binned replicate's two count
grids (its draw counts into them) and its 2-D factor products.  The products
K g, K c and K X go into rows of arrays the caller owns.  A pool thread
still allocates what is small next to a block or a 2-D grid: a replicate's
row draw, a 1-D replicate's spectra and a block's entries in np.exp's slow
band.  None of this moves a bit.

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

import contextlib
import functools
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .blas import _cores, one_blas_thread
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
# binned maximum, relative.  A flat 2-D case sits further down: example2's
# pair (x3, x4) in the 1500-trial search of seed 11 has its exact argmax at
# the first grid point, 9.4e-3 below, so a 2-D slack under 1e-2 would lose
# it (test_screened_selection_of_a_flat_example2_pair_matches_exhaustive).
_SCREEN_SLACK = {1: 1e-2, 2: 5e-2}
# The dense replicate block's width is a multiple of this many columns.  At
# such widths OpenBLAS gave every column of a product K X the same bits
# whatever X's width (Haswell kernels, one and two threads, s 3-1999), so a
# replicate's sums do not depend on n_boot; at other widths they moved.
_BLOCK_COLUMNS = 8
# np.exp of an argument at or above _EXP_NORMAL is a normal double
# (exp(-707) = 9.0e-308 > 2.2e-308), and below _EXP_ZERO it is +0.0 (the
# cutoff is ln 2^-1075 = -745.13); see _DenseBackend._kernel.
_EXP_NORMAL = -707.0
_EXP_ZERO = -746.0
_BLOCK_ROWS = 32        # rows per block of a distance table; a block's temporaries stay in cache
# Rows per block of the scoring pool's work on a dense matrix (_row_blocks),
# a multiple of _BLOCK_ROWS.  A block's kernel rows stay in a core's cache
# (1.9 MB at s = 1500), and a support under 320 points is one block.
_SPLIT_ROWS = 160
# OpenBLAS sends a product of at most 100^3 multiply-adds to its
# small-matrix kernel (on AVX-512 cores), which rounds unlike its blocked
# kernel once s passes the blocked kernel's depth; a replicate block is split
# only when every block's product stays above it.
_SMALL_GEMM = 100**3
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
        if not bw or not all(0 < b < np.inf for b in bw):
            raise EstimationError("bandwidths must be positive and finite")
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


# -- the scoring pool ------------------------------------------------------------

def _inline(fn, items, workspace):
    """[fn(item, space) for item in items] over one space = workspace(): the
    map of _scoring on one thread."""
    space = workspace()
    return [fn(item, space) for item in items]


@contextlib.contextmanager
def _scoring(workers=None):
    """The context of one estimate: every loaded OpenBLAS at one thread, and
    workers threads (default: the cores this process may run on), this one
    and a pool of the rest, whose threads end with the block.

    Yields the map each(fn, items, workspace) that hands a list's items to
    those threads: each takes the next item no thread has taken and calls
    fn(item, space), and the results come back in the list's order.  This
    thread takes items too, so one core starts no thread.  Before any item
    runs, this thread calls workspace() once for itself and once for each
    thread it starts, and each thread's items compute into its space: a pool
    thread allocates no large array, so its malloc arena keeps none.
    """
    helpers = (workers or _cores()) - 1
    with one_blas_thread(), ThreadPoolExecutor(max(helpers, 1)) as executor:

        def each(fn, items, workspace):
            if helpers == 0 or len(items) < 2:
                return _inline(fn, items, workspace)
            spaces = [workspace() for _ in range(min(helpers, len(items) - 1) + 1)]
            out, todo, lock = [None] * len(items), iter(range(len(items))), threading.Lock()

            def work(space):
                while True:
                    with lock:
                        i = next(todo, None)
                    if i is None:
                        return
                    out[i] = fn(items[i], space)

            futures = [executor.submit(work, space) for space in spaces[1:]]
            work(spaces[0])
            for future in futures:
                future.result()
            return out

        yield each


def _row_blocks(s):
    """Row slices of an s-row matrix, _SPLIT_ROWS rows each and the last
    one holding the rest: one slice when s < 2 _SPLIT_ROWS.

    Every block starts at a multiple of _SPLIT_ROWS and none is one row
    long (numpy hands a one-row product to a dot product), so a block's
    matrix-vector products take the kernels the whole matrix takes and give
    each row its bits.
    """
    starts = list(range(0, max(s - _SPLIT_ROWS, 0) + 1, _SPLIT_ROWS))
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [s])]


# -- the two-set representation -----------------------------------------------


def _as_points(x) -> np.ndarray:
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or len(pts) == 0:
        raise EstimationError("sample sets must be nonempty 1-D or 2-D arrays")
    if not np.isfinite(pts).all():
        raise EstimationError("samples must be finite")
    return pts


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


def _rows(c, g):
    """The n rows of set a in support order, each point's flagged rows last:
    per row, its support index and whether it is flagged."""
    reps = c.astype(np.int64)
    point = np.repeat(np.arange(len(c)), reps)
    flagged = np.arange(len(point)) >= np.repeat(np.cumsum(reps) - g.astype(np.int64), reps)
    return point, flagged


def _backend(points_a, points_b, each):
    dense = len(points_a) + len(points_b) <= _DENSE_LIMIT
    dim = points_a.shape[1]
    if not dense and dim not in _BINS:
        raise EstimationError(f"sets of {dim} columns are limited to {_DENSE_LIMIT} pooled points")
    support, c, g = _support(points_a, points_b)
    return (_DenseBackend if dense else _BinnedBackend)(support, c, g, each)


def _mmd_from_sums(sums, n, m):
    s_aa, s_ab, s_bb = sums[:, 0], sums[:, 1], sums[:, 2]
    return s_bb / m**2 + s_aa / n**2 - 2.0 * s_ab / (n * m)


# -- backends ------------------------------------------------------------------
#
# Each backend holds counts c and g on its support points and provides, with
# gamma = 1 / (2 h^2):
#   median_distance()  median distance between two points of the pooled
#                      sample (set a plus set b again), or the median of the
#                      nonzero ones when most pairs tie; it centers the grid,
#                      and it is 0 only when the pooled sample is one point;
#   sweep(gammas)      (c'Kc, c'Kg, g'Kg) at each gamma;
#   owner, flagged     per row of set a (_rows), its counting unit and flag;
#   replicate_sums(gamma, n_boot, draw)
#                      the (c'Kc, g'Kc, g'Kg) of each of n_boot replicates,
#                      one row per replicate; draw(b, out) counts replicate
#                      b into the two rows of out, a float array of shape
#                      (2, units), and returns them as (c, g).


def _sq_dists(out, rows, cols, tmp):
    """out[i, j] = sum over dimensions k of (cols[k][j] - rows[k][i])**2.

    rows and cols hold one array per dimension; tmp is scratch of at least
    out's size.  The squares are added in dimension order, as scipy's cdist
    and pdist ("sqeuclidean") add them, so every entry has their bits (x - y
    and y - x square to the same double).  Each difference is taken in place
    on a copy of cols[k], which runs 1.5 times as fast as np.subtract.outer
    into out.
    """
    for k, (r, c) in enumerate(zip(rows, cols)):
        diff = out if k == 0 else tmp[: out.size].reshape(out.shape)
        np.copyto(diff, c)
        diff -= r[:, None]
        diff *= diff
        if k:
            out += diff
    return out


class _Scratch:
    """One thread's buffers for dense row blocks of at most rows rows against
    s points: the block's squared distances, _sq_dists' scratch, _kernel's
    two masks and, with kernel, kernel rows apart from the distances."""

    def __init__(self, rows, s, kernel=False):
        self.d2, self.tmp = np.empty((rows, s)), np.empty(_BLOCK_ROWS * s)
        self.masks = np.empty((2, rows, s), dtype=bool)
        self.K = np.empty((rows, s)) if kernel else None


def _scratch(blocks, s, kernel=False):
    """The workspace factory of a map over blocks of rows of s points."""
    return functools.partial(_Scratch, max(b.stop - b.start for b in blocks), s, kernel)


def _sq_dist_rows(points, rows, space):
    """The squared distances of points[rows] to every row of points, built
    _BLOCK_ROWS rows at a time into space's buffers (a _Scratch)."""
    block, cols = points[rows].T, points.T
    d2 = space.d2[: block.shape[1]]
    for r0 in range(0, len(d2), _BLOCK_ROWS):
        _sq_dists(d2[r0 : r0 + _BLOCK_ROWS], block[:, r0 : r0 + _BLOCK_ROWS], cols, space.tmp)
    return d2


def _sq_dist_pairs(points, each):
    """The squared distance of every pair i < j of rows of points: pdist's
    values in another order.  Per block of rows, the rectangle against the
    rows after the block, then the block's own strict upper triangle.
    """
    n = len(points)
    cols = points.T
    pairs = np.empty(n * (n - 1) // 2)
    upper = np.triu(np.ones((_BLOCK_ROWS, _BLOCK_ROWS), dtype=bool), k=1)

    def rows(block, space):
        tmp, square = space
        for r0 in range(block.start, block.stop, _BLOCK_ROWS):
            r1 = min(block.stop, r0 + _BLOCK_ROWS)
            b, width = r1 - r0, n - r1
            pos = r0 * n - r0 * (r0 + 1) // 2       # the pairs whose first row precedes r0
            _sq_dists(pairs[pos : pos + b * width].reshape(b, width), cols[:, r0:r1], cols[:, r1:],
                      tmp)
            pos += b * width
            pairs[pos : pos + b * (b - 1) // 2] = _sq_dists(
                square[:b, :b], cols[:, r0:r1], cols[:, r0:r1], tmp)[upper[:b, :b]]

    each(rows, _row_blocks(n),
         lambda: (np.empty(_BLOCK_ROWS * n), np.empty((_BLOCK_ROWS, _BLOCK_ROWS))))
    return pairs


def _median(values):
    """np.median(values), reordering values in place.

    The same one or two middle order statistics and the same np.mean of
    them, from one partition; np.median partitions at three points (the
    third finds NaNs, which a distance table cannot hold) and takes 3 times
    as long on a pooled pair table.
    """
    half = len(values) // 2
    values.partition(half)
    if len(values) % 2:
        return np.mean(values[half : half + 1])
    return np.mean(np.array([values[:half].max(), values[half]]))


class _DenseBackend:
    """Exact sums over the kernel matrix of the support points."""

    def __init__(self, support, c, g, each):
        self.support, self.c, self.g, self.each = support, c, g, each
        self.n, self.m = int(c.sum()), int(g.sum())
        self.owner, self.flagged = _rows(c, g)

    def median_distance(self) -> float:
        pooled = np.repeat(self.support, (self.c + self.g).astype(np.int64), axis=0)
        pairs = _sq_dist_pairs(pooled, self.each)
        med = _median(pairs)
        if med == 0.0 and np.any(pairs > 0):      # most pooled pairs tie
            med = _median(pairs[pairs > 0])
        return float(np.sqrt(med))

    @staticmethod
    def _kernel(gamma, out, d2, d2_max, masks):
        """K = exp(-gamma d2) into out (which may be d2 itself), entry for
        entry the bits of np.exp(-gamma * d2); d2_max is d2's largest entry
        and masks two boolean arrays of d2's shape for scratch.

        np.exp leaves its vector path for every entry whose result
        underflows, which costs 15-100 times a normal entry, and a narrow
        grid bandwidth underflows most of the matrix.  So the arguments
        below _EXP_NORMAL are taken out.  The band down to _EXP_ZERO goes
        through np.exp on its own, as a compressed array.  The matrix runs
        through np.exp with its arguments clamped at _EXP_NORMAL, and the
        clamped entries are then zeroed: below _EXP_ZERO np.exp gives +0.0.
        A gamma whose arguments all stay at or above _EXP_NORMAL runs plain
        np.exp.
        """
        K = np.multiply(d2, -gamma, out=out)
        if d2_max * -gamma >= _EXP_NORMAL:   # the smallest argument, exactly
            return np.exp(K, out=K)
        keep = np.greater_equal(K, _EXP_NORMAL, out=masks[0])
        in_band = np.greater_equal(K, _EXP_ZERO, out=masks[1])
        in_band ^= keep                         # _EXP_ZERO <= K < _EXP_NORMAL
        band = np.flatnonzero(in_band)
        tail = np.exp(K.ravel()[band])
        np.maximum(K, _EXP_NORMAL, out=K)
        np.exp(K, out=K)
        K *= keep
        K.ravel()[band] = tail
        return K

    def sweep(self, gammas):
        c, g, s = self.c, self.g, len(self.c)
        kc, kg = np.empty((2, len(gammas), s))
        blocks = _row_blocks(s)

        def rows(block, space):     # the block's distances once, then each gamma's kernel rows
            d2 = _sq_dist_rows(self.support, block, space)
            d2_max, K, masks = d2.max(), space.K[: len(d2)], space.masks[:, : len(d2)]
            for i, gamma in enumerate(gammas):
                self._kernel(gamma, K, d2, d2_max, masks)
                np.matmul(K, g, out=kg[i, block])
                np.matmul(K, c, out=kc[i, block])

        self.each(rows, blocks, _scratch(blocks, s, kernel=True))
        out = np.empty((len(gammas), 3))
        for i in range(len(gammas)):
            # the cross term's contraction order sets its rounding; changing
            # c'(Kg) here or g'(Kc) in replicate_sums moves the scores' last bits
            out[i] = c @ kc[i], c @ kg[i], g @ kg[i]
        return out

    def replicate_sums(self, gamma, n_boot, draw):
        """(c'Kc, g'Kc, g'Kg) of each replicate (c, g), one row per replicate.

        One product K X reads K once for every replicate: replicate b is
        drawn straight into columns 2b and 2b + 1 of X, which zero columns
        pad to a multiple of _BLOCK_COLUMNS wide.  Each block of rows of K is
        built in place over its distances and multiplied by X on its own.
        """
        s, width = len(self.c), 2 * n_boot
        x = np.zeros((s, -(-width // _BLOCK_COLUMNS) * _BLOCK_COLUMNS))
        for b in range(n_boot):
            draw(b, x[:, 2 * b : 2 * b + 2].T)
        kx = np.empty_like(x)
        split = x.shape[1] * _SPLIT_ROWS * s > _SMALL_GEMM
        blocks = _row_blocks(s) if split else [slice(0, s)]

        def rows(block, space):
            d2 = _sq_dist_rows(self.support, block, space)
            K = self._kernel(gamma, d2, d2, d2.max(), space.masks[:, : len(d2)])
            np.matmul(K, x, out=kx[block])

        self.each(rows, blocks, _scratch(blocks, s))
        c, g = x[:, 0:width:2], x[:, 1:width:2]
        kc, kg = kx[:, 0:width:2], kx[:, 1:width:2]
        return np.column_stack([np.einsum("ij,ij->j", c, kc), np.einsum("ij,ij->j", g, kc),
                                np.einsum("ij,ij->j", g, kg)])


class _BinnedBackend:
    """Sums over the support snapped onto a grid of B bins per dimension."""

    def __init__(self, support, c, g, each):
        self.each = each
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
        point, self.flagged = _rows(c, g)
        self.owner = flat[point]

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
        order = np.argsort(dists)

        def median():
            total = w.sum()
            if total <= 0:
                return 0.0
            cum = np.cumsum(w[order])
            med_idx = np.searchsorted(cum, 0.5 * total)
            return float(dists[order][min(med_idx, len(order) - 1)])

        med = median()
        if med == 0.0:
            # most pooled pairs share a bin (lag 0 is the only distance 0):
            # take the median of the other lags, whose weights count pairs,
            # so what lies under half a pair is FFT rounding
            w[w < 0.5] = 0.0
            w[0] = 0.0
            med = median()
        return med

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

    def replicate_sums(self, gamma, n_boot, draw):
        """(c'Kc, g'Kc, g'Kg) of each replicate's flat count grids (c, g),
        one row per replicate: one pool item per replicate, drawn into its
        thread's two grids and summed there.

        1-D: the Toeplitz kernel matrix, embedded in a circulant of length 2B,
        is diagonal in Fourier space, so by Parseval each triple costs two
        forward FFTs and three weighted spectrum sums.  2-D: the product
        kernel is K1 (x) K2 with Toeplitz factors K_d[i, j] =
        exp(-gamma e_d[|i - j|]), so c'Kc = <C, K1 C K2>.  With K_d = F_d F_d'
        (see _factors) that is |P_c|^2 for P_c = F1' C F2, and g'Kc is
        <P_g, P_c>; a replicate's products cost r1 B^2 + r1 r2 B for ranks
        r_d <= B, against 2 B^3 for K1 C K2.
        """
        B, M = self.B, 2 * self.B
        if self.dim == 1:
            k = np.exp(self.lag2[0] * (-gamma))
            ring = np.zeros(M)          # lag B never occurs between two bins
            ring[:B] = k
            ring[B + 1 :] = k[:0:-1]
            w = np.fft.rfft(ring).real / M
            w[1:-1] *= 2.0              # interior bins stand for a conjugate pair

            def space():                # a thread's two count grids
                return np.empty((2, B)), None

            def triple(c, g, _):
                fc, fg = np.fft.rfft(c, M), np.fft.rfft(g, M)
                return (w @ (fc.real**2 + fc.imag**2),
                        w @ (fg.real * fc.real + fg.imag * fc.imag),
                        w @ (fg.real**2 + fg.imag**2))
        else:
            F1, F2 = self._factors(gamma)
            r1, r2 = F1.shape[1], F2.shape[1]

            def space():                # and F1' C, P_c and P_g
                return np.empty((2, B * B)), (np.empty((r1, B)), np.empty((2, r1, r2)))

            def triple(c, g, products):
                left, (pc, pg) = products
                for counts, p in ((c, pc), (g, pg)):
                    np.matmul(np.matmul(F1.T, counts.reshape(B, B), out=left), F2, out=p)
                return np.vdot(pc, pc), np.vdot(pg, pc), np.vdot(pg, pg)

        def sums(b, space):
            grids, products = space
            return triple(*draw(b, grids), products)

        return np.array(self.each(sums, range(n_boot), space))

    def _factors(self, gamma):
        """Per axis, F_d with F_d F_d' = K_d to eigh's accuracy.

        F_d holds the eigenvectors of the Toeplitz factor K_d scaled by the
        square roots of their eigenvalues, keeping only the eigenvalues above
        B eps lambda_max, the level of eigh's own error.  A wide kernel keeps
        few of the B.
        """
        B = self.B
        lag = np.abs(np.subtract.outer(np.arange(B), np.arange(B)))
        factors = []
        for e in self.lag2:
            lam, v = np.linalg.eigh(np.exp(e * (-gamma))[lag])
            keep = lam > B * np.finfo(float).eps * lam[-1]
            factors.append(v[:, keep] * np.sqrt(lam[keep]))
        return factors


def _resample(backend, rng, out):
    """One bootstrap replicate's counts (c, g): n rows of set a drawn with
    replacement, counted per unit, the flagged ones again into g.  A draw
    without a flagged row is drawn again from the same stream; with m >= 2
    flagged rows that happens with probability (1 - m/n)^n < e^-2.  Both
    are counted as exact integer sums into the two rows of out, a float
    array of shape (2, units)."""
    n = backend.n
    idx = rng.integers(0, n, n)
    while not backend.flagged[idx].any():
        idx = rng.integers(0, n, n)
    rows = backend.owner[idx]
    c, g = out
    out.fill(0.0)
    np.add.at(c, rows, 1.0)
    np.add.at(g, rows[backend.flagged[idx]], 1.0)
    return c, g


def _bootstrap(backend, gamma, n_boot, seed):
    """Replicate scores at a fixed gamma; replicate b draws from the stream
    keyed (seed, b), so extending n_boot keeps earlier replicates."""
    m = np.empty(n_boot)

    def draw(b, out):       # the one way a backend reads a replicate
        c, g = _resample(backend, np.random.default_rng(_seed_sequence(seed, b)), out)
        m[b] = g.sum()
        return c, g

    sums = backend.replicate_sums(gamma, n_boot, draw)
    n = backend.n
    return np.maximum((m / n) ** 2 * _mmd_from_sums(sums, n, m), 0.0)


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
    twin = _BinnedBackend(backend.support, backend.c, backend.g, backend.each)
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
    if len(grid) == 0 or not np.all((grid > 0) & (grid < np.inf)):
        raise EstimationError("bandwidth grid must be nonempty, positive and finite")
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
    with _scoring() as each:
        backend = _backend(a / h, b / h, each)
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
    with _scoring() as each:
        h, _, _, degenerate = _select(_backend(a, b, each), grid)
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
    with _scoring() as each:
        backend = _backend(pts, pts[flags], each)
        n, m = backend.n, backend.m
        h, gamma, mmd, degenerate = _select(backend, None)
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

