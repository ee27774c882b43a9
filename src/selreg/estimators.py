"""Nadaraya-Watson estimators of mean, variance and covariate density.

All estimators evaluate against a frozen FitState (training data + kernel +
bandwidth). ``evaluate_batch`` is the one evaluation path: it scores m query
points in one pass over the training data, in row blocks of
max(1, _BLOCK // (n * d)) query points, so that a block holds at most
_BLOCK coordinate differences. Within a block each query row gets its own
kernel row, weight sum and dot products, so its estimates are the same bits
whatever it is batched with; ``evaluate_point`` is the one-point view.
Evaluation is exact brute force, O(n) per query point; at desk scale
(n <= 2e4) nothing faster is needed. LOO-CV bandwidth selection works on
row blocks of the same budget of kernel values: d difference passes give a
block's squared distances, then each grid h takes two elementwise passes
and two matrix products. When the kernel matrix takes more than one block
(n > 362), the grid is split across one thread per CPU of the process's
affinity mask, each with its own block buffers; every score is computed by
the same operations whatever the thread count, so it has the same bits.
The argmin breaks near-ties (relative 1e-9) towards the smaller h.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .kernels import KernelSpec, eval_sq, shape_sq

# Values per row block of pairwise work: kernel values in LOO-CV
# (max(1, _BLOCK // n) rows), coordinate differences in evaluate_batch
# (max(1, _BLOCK // (n * d)) query rows). 2^17 float64 values are 1 MB, so
# every elementwise pass over a block stays in a core's L2 cache.
_BLOCK = 1 << 17

# LOO-CV scores within this relative distance of the minimum tie; the
# smallest tied h wins
_TIE_RTOL = 1e-9

_SMALLEST_NORMAL = float(np.finfo(float).smallest_normal)


@dataclass(frozen=True)
class Dataset:
    """Covariate matrix (n x d) plus optional response vector of length n."""

    x: np.ndarray
    y: Optional[np.ndarray] = None

    def __post_init__(self):
        x = np.ascontiguousarray(np.asarray(self.x, dtype=float))
        if x.ndim == 1:
            x = x.reshape(-1, 1)
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
            raise ValueError("covariates must form an (n, d) matrix with n >= 1")
        if not np.all(np.isfinite(x)):
            raise ValueError("covariates must be finite")
        x.setflags(write=False)
        object.__setattr__(self, "x", x)
        if self.y is not None:
            y = np.ascontiguousarray(np.asarray(self.y, dtype=float))
            if y.shape != (x.shape[0],):
                raise ValueError("responses must be a vector of length n")
            if not np.all(np.isfinite(y)):
                raise ValueError("responses must be finite")
            y.setflags(write=False)
            object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class FitState:
    """Frozen training data, kernel and bandwidth; estimators read from it."""

    train: Dataset
    kernel: KernelSpec
    h: float

    def __post_init__(self):
        if self.train.y is None:
            raise ValueError("fitting requires responses")
        if not 0.0 < self.h < math.inf:
            raise ValueError(f"bandwidth must be a positive finite real, "
                             f"got {float(self.h)!r}")
        # only p_hat = mass / (n h ** d) divides by h ** d, the abstention
        # rule reads the mass itself; below the smallest normal float p_hat
        # loses its precision or overflows to inf
        h = float(self.h)
        try:
            volume = h ** self.train.d
        except OverflowError:
            volume = math.inf
        if not _SMALLEST_NORMAL <= volume < math.inf:
            raise ValueError(
                f"bandwidth {h!r} is out of range at d = {self.train.d}: h ** d "
                + ("overflows" if volume == math.inf
                   else f"= {volume!r} underflows"))
        if self.kernel.dimension != self.train.d:
            raise ValueError(
                f"kernel dimension {self.kernel.dimension} does not match "
                f"data dimension {self.train.d}")


@dataclass(frozen=True)
class PointEvaluation:
    """All estimator outputs at one query point, or arrays of them.

    evaluate_point fills the fields with floats, evaluate_batch with
    length-m arrays. weight_denominator is the kernel mass
    sum_i K((x - x_i) / h) = n h^d p_hat(x), the local effective sample size
    on which the abstention rule is stated. For a query with zero kernel
    mass (possible for the bounded-support kernel, or by underflow far from
    the data) f_hat and sigma2_hat are NaN and p_hat is 0.
    """

    f_hat: float
    sigma2_hat: float
    p_hat: float
    weight_denominator: float


def _query_point(fit: FitState, x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (fit.train.d,):
        raise ValueError(f"query has shape {x.shape}, expected ({fit.train.d},)")
    return x


def evaluate_batch(fit: FitState, X) -> PointEvaluation:
    """Mean, variance and density estimates at each row of X.

    X is an (m, d) matrix of finite reals; the fields of the result are
    length-m arrays. Rows are processed in blocks of at most _BLOCK
    coordinate differences (at least one row), and every row is computed on
    its own, so a row does not depend on the rows batched with it.
    """
    train, h = fit.train, fit.h
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != train.d:
        raise ValueError(f"queries have shape {X.shape}, expected (m, {train.d})")
    if not all(map(math.isfinite, X.ravel().tolist())):
        bad = X[~np.isfinite(X).all(axis=1)][0]
        raise ValueError(f"query coordinates must be finite, got {bad.tolist()}")
    f_hat, sigma2_hat, denom = np.empty((3, X.shape[0]))
    step = max(1, _BLOCK // (train.n * train.d))
    for lo in range(0, X.shape[0], step):
        rows = slice(lo, lo + step)
        diff = (train.x - X[rows, None, :]) / h
        vals = eval_sq(fit.kernel, np.einsum("rij,rij->ri", diff, diff))
        denom[rows] = vals.sum(axis=1)
        # a zero-mass row divides 0 by 0, so its weights, f_hat and
        # sigma2_hat are NaN
        with np.errstate(invalid="ignore"):
            w = vals / denom[rows, None]
        # vecdot takes one dot product per row, the sums of a 1-D ``w @ y``
        f_hat[rows] = np.vecdot(w, train.y)
        sigma2_hat[rows] = np.maximum(
            np.vecdot(w, np.square(train.y - f_hat[rows, None])), 0.0)
    return PointEvaluation(f_hat=f_hat, sigma2_hat=sigma2_hat,
                           p_hat=denom / (train.n * h ** train.d),
                           weight_denominator=denom)


def evaluate_point(fit: FitState, x) -> PointEvaluation:
    """Scalar view of evaluate_batch at the single query point x."""
    ev = evaluate_batch(fit, _query_point(fit, x)[None, :])
    return PointEvaluation(float(ev.f_hat[0]), float(ev.sigma2_hat[0]),
                           float(ev.p_hat[0]), float(ev.weight_denominator[0]))


def default_bandwidth_grid(data: Dataset, num: int = 30) -> np.ndarray:
    """Log-spaced bandwidth grid on [0.05, 1.0] x mean coordinate range."""
    spread = float(np.mean(data.x.max(axis=0) - data.x.min(axis=0)))
    if spread <= 0.0:
        spread = 1.0
    return np.geomspace(0.05 * spread, spread, num)


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask, where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _loocv_scores(data: Dataset, kernel: KernelSpec, grid) -> np.ndarray:
    """Leave-one-out squared error sum_i (y_i - f_{-i}(x_i))^2 for each h.

    The scores follow the order of ``grid``. The kernel matrix is symmetric,
    so each pair is evaluated once: a block holds rows lo:hi and only the
    columns lo:n, with the diagonal distance set to +inf (K = 0 there). The
    block's squared distances are direct differences, sum_c (x_ic - x_kc)^2
    added in coordinate order. Per grid h the block is overwritten with the
    shape g(||x_i - x_k||^2 / h^2) (one multiply, one exp), ``block @ K(0)
    [1, y]`` gives those rows' kernel mass and weighted-y sums, and the
    transposed block adds the mirrored sums of columns hi:n. A row has zero
    mass when every product K(0) * g is exactly 0 (outside the support, or
    by underflow).

    When the triangle takes more than one block, the grid is split across
    one thread per CPU of the process (at most one per h): thread t, the
    calling thread being t = 0, runs the whole block loop for the grid
    indices t, t + T, t + 2T, ... with its own block buffers and writes only
    their rows of the sums. Each score is thus computed by the same
    operations in the same order whatever T is, so it has the same bits for
    any CPU count. An exception in any thread is raised here once every
    thread has ended.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("bandwidth grid is empty")
    if np.any(grid <= 0.0) or not np.all(np.isfinite(grid)):
        raise ValueError("bandwidth grid entries must be positive reals")
    if data.y is None:
        raise ValueError("LOO-CV requires responses")
    n = data.n
    if n < 3:
        raise ValueError("LOO-CV needs at least 3 samples")

    y = data.y
    # one row per coordinate, so every difference pass reads contiguous data
    xt = np.ascontiguousarray(data.x.T)
    # K(0) scales the operand rather than being dropped, so each product
    # K(0) * g, and a zero mass, underflows as the kernel value itself does
    peak_y = kernel.peak * np.column_stack([np.ones(n), y])
    # sums[j, i]: kernel mass and kernel-weighted y of row i without sample i,
    # at grid[j]
    sums = np.zeros((grid.size, n, 2))
    step = min(n, max(1, _BLOCK // n))
    # one block holds the whole triangle: too little work to share
    workers = 1 if step >= n else min(grid.size, _cpu_count())
    failed = []

    def accumulate(first: int) -> None:
        sq_buf, buf = np.empty((2, step * n))
        for lo in range(0, n, step):
            if failed:  # another thread raised, so the call fails anyway
                return
            hi = min(lo + step, n)
            size = (hi - lo) * (n - lo)
            sq = sq_buf[:size].reshape(hi - lo, n - lo)
            vals = buf[:size].reshape(sq.shape)
            # squared distances of the block, shared by the thread's h
            np.subtract(xt[0, lo:hi, None], xt[0, None, lo:], out=sq)
            np.square(sq, out=sq)
            for c in range(1, xt.shape[0]):
                np.subtract(xt[c, lo:hi, None], xt[c, None, lo:], out=vals)
                np.add(sq, np.square(vals, out=vals), out=sq)
            diag = np.arange(hi - lo)
            sq[diag, diag] = np.inf
            for j in range(first, grid.size, workers):
                h = grid[j]
                shape_sq(kernel, sq, 1.0 / (h * h), out=vals)
                sums[j, lo:hi] += vals @ peak_y[lo:]
                sums[j, hi:] += vals[:, hi - lo:].T @ peak_y[lo:hi]

    def run(first: int) -> None:
        try:
            accumulate(first)
        except BaseException as exc:  # raised again by the calling thread
            failed.append(exc)

    threads = []
    try:
        for t in range(1, workers):
            thread = threading.Thread(target=run, args=(t,))
            thread.start()
            threads.append(thread)
        run(0)
    finally:
        for thread in threads:
            thread.join()
    if failed:
        raise failed[0]

    mass, weighted = sums[..., 0], sums[..., 1]
    # a held-out point with zero mass (every kernel value exactly 0) scores
    # the fallback (y_i - mean(y))^2. Errors and fallbacks are summed apart,
    # errors first, the order the committed results were made with.
    ok = mass > 0.0
    err = np.where(ok, np.square(y - weighted / np.where(ok, mass, 1.0)), 0.0)
    fallback = np.square(y - y.mean())
    return np.array([e.sum() + fallback[~o].sum() for e, o in zip(err, ok)])


def select_bandwidth_loocv(data: Dataset, kernel: KernelSpec, grid) -> float:
    """Pick the grid bandwidth minimizing the leave-one-out squared error.

    For each h the criterion is sum_i (y_i - f_{-i}(x_i))^2, where f_{-i} is
    the NW mean fit without sample i. A held-out point whose remaining
    kernel mass is zero contributes the penalty (y_i - mean(y))^2, keeping
    the criterion finite and comparable across h.

    Ties go to the smaller h: the result is the smallest grid h whose score
    is at most min * (1 + 1e-9). Scores that are equal in exact arithmetic
    (a plateau where every point keeps the same few neighbours, common for
    the Epanechnikov kernel at small n) differ in their last bits with the
    order of the floating-point operations, and the band keeps such rounding
    from deciding which h wins.

    Cost: the kernel matrix is symmetric, so each pair of samples is
    evaluated once per grid h, about n^2 / 2 kernel values (plus the small
    diagonal squares of the blocks), half of the full matrix; per h that is
    one multiply and one exp over the values and two matrix products. The
    squared distances are direct differences, d subtract-and-square passes
    per block, with no matrix product; the per-h products take at most
    2^18 multiply-adds, a size a threaded BLAS such as OpenBLAS runs on the
    calling thread, so the threads here do not compete with BLAS threads.
    Above one block (n > 362) the grid is split across T threads, one per
    CPU of the process's affinity mask and at most one per h; each thread
    recomputes every block's distances for its own h. The chosen h and
    every score have the same bits for any T, so results do not depend on
    the CPU count.
    Memory: one block per thread (at most _BLOCK kernel values and as many
    squared distances, 2 MB) plus 2 * len(grid) * n floats of accumulated
    sums.
    """
    ordered = np.sort(np.asarray(grid, dtype=float))
    scores = _loocv_scores(data, kernel, ordered)
    tied = scores <= scores.min() * (1.0 + _TIE_RTOL)
    return float(ordered[np.argmax(tied)])  # the first True: the smallest h


def loocv_bandwidth(kernel: KernelSpec, grid=None) -> Callable[[Dataset], FitState]:
    """Fit rule selecting h by LOO-CV on ``grid`` (default grid if None)."""
    def rule(data: Dataset) -> FitState:
        if data.n < 3:
            # too small for LOO-CV, and no h passes the density gate anyway:
            # n K(0) < 4a for both kernels at every d, so any h will do
            return FitState(train=data, kernel=kernel, h=1.0)
        g = default_bandwidth_grid(data) if grid is None else grid
        return FitState(train=data, kernel=kernel,
                        h=select_bandwidth_loocv(data, kernel, g))
    return rule
