"""Nadaraya-Watson estimators of mean, variance and covariate density.

All estimators evaluate against a frozen FitState (training data + kernel +
bandwidth). Pairwise work runs in row blocks of max(1, _BLOCK // n) rows, at
most _BLOCK kernel values, and one routine, ``_sq_dists``, forms a block's
squared distances: d subtract-square-add passes, in coordinate order; h
enters after it, as 1 / h^2. ``evaluate_batch`` is the one evaluation path,
exact brute force, O(n) per query point; at desk scale (n <= 2e4) nothing
faster is needed. Each query row gets its own kernel row, weight sum and dot
products, so its estimates are the same bits whatever it is batched with;
``evaluate_point`` is the one-point view.

LOO-CV evaluates each pair of samples once per grid h, about n^2 / 2 kernel
shapes, half of the symmetric kernel matrix: a block holds rows lo:hi and
only the columns lo:n. Each block's distances are formed once per call, and
each grid h then takes two elementwise passes (a multiply and an exp) and
two matrix products of at most 2^18 multiply-adds, a size a threaded BLAS
such as OpenBLAS runs on the calling thread. When the kernel matrix takes
more than one block (n > 362), its triangle is cut into _PARTS = 2
contiguous parts of about equal work, each with its own block buffers and
sums, run on one ``threading.Thread`` per part, on any number of CPUs. The
parts' sums are added in part order, so every score has the same bits
however the threads are scheduled. Memory: one block per part (at most
_BLOCK shapes and as many squared distances, 2 MB) plus 2 * len(grid) * n
floats of sums per part, and nothing else of len(grid) * n floats: the
scores are finished inside the first part's sums.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .kernels import _SMALLEST_NORMAL, KernelSpec, eval_sq, shape_sq

# Kernel values per row block of pairwise work, LOO-CV's and evaluate_batch's:
# max(1, _BLOCK // n) rows of n. 2^17 float64 values are 1 MB, so every
# elementwise pass over a block stays in a core's L2 cache.
_BLOCK = 1 << 17

# LOO-CV scores within this relative distance of the minimum tie; the
# smallest tied h wins
_TIE_RTOL = 1e-9

_GRID_SIZE = 30  # bandwidths in the default LOO-CV grid

# Contiguous parts of LOO-CV's block triangle, one thread each. A constant,
# not the CPU count, so the order in which sums are added never changes.
_PARTS = 2


# a (predicate, demand) rule of _require_real and of experiment config fields
_POSITIVE = (lambda v: v > 0.0, "be a positive finite real")


def _as_real(value) -> Optional[float]:
    """``value`` as a float if it is a real number (a bool is not one), else
    None; an int beyond the floats is inf."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _require_real(name: str, value, rule=(lambda v: True, "be a finite real")):
    """``value`` of field ``name`` as a float, refused unless it is a real
    number, finite and passes ``rule``'s predicate: the message
    "<name> must <demand>, got <value>" prints a real as a float."""
    number = _as_real(value)
    if number is None or not (math.isfinite(number) and rule[0](number)):
        raise ValueError(f"{name} must {rule[1]}, "
                         f"got {value if number is None else number!r}")
    return number


@dataclass(frozen=True)
class Dataset:
    """Covariate matrix (n x d) plus optional response vector of length n."""

    x: np.ndarray
    y: Optional[np.ndarray] = None

    def __post_init__(self):
        self._freeze("x", "covariates", "must form an (n, d) matrix with n >= 1",
                     lambda x: x.ndim == 2 and x.size > 0, column=True)
        if self.y is not None:
            self._freeze("y", "responses", "must be a vector of length n",
                         lambda y: y.shape == (self.n,))

    def _freeze(self, name, noun, shape_rule, shape_ok, column=False):
        """Store a C-contiguous, finite, read-only float copy of field
        ``name``, which no caller aliases; ``column`` makes 1-D a column."""
        values = np.array(getattr(self, name), dtype=float, order="C", ndmin=1)
        if column and values.ndim == 1:
            values = values.reshape(-1, 1)
        if not shape_ok(values):
            raise ValueError(f"{noun} {shape_rule}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{noun} must be finite")
        values.setflags(write=False)
        object.__setattr__(self, name, values)

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
        h = _require_real("bandwidth", self.h, _POSITIVE)
        # only p_hat = mass / (n h ** d) divides by h ** d, the abstention
        # rule reads the mass itself; below the smallest normal float p_hat
        # loses its precision or overflows to inf
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


def _sq_dists(a, b, out=None, tmp=None):
    """Squared distances sum_c (a_ic - b_kc)^2 between the rows of a and b,
    added in coordinate order. Written into ``out``, with ``tmp`` holding the
    differences, when given; new arrays take the same operations and bits."""
    out = np.subtract(a[:, 0, None], b[None, :, 0], out=out)
    np.square(out, out=out)
    for c in range(1, a.shape[1]):
        tmp = np.subtract(a[:, c, None], b[None, :, c], out=tmp)
        np.add(out, np.square(tmp, out=tmp), out=out)
    return out


def evaluate_batch(fit: FitState, X) -> PointEvaluation:
    """Mean, variance and density estimates at each row of X.

    X is an (m, d) matrix of finite reals; the fields of the result are
    length-m arrays. Rows go in blocks of max(1, _BLOCK // n), with squared
    distances from ``_sq_dists`` as in LOO-CV, and each row is computed on
    its own, so it does not depend on the rows batched with it.
    """
    train, h = fit.train, fit.h
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != train.d:
        raise ValueError(f"queries have shape {X.shape}, expected (m, {train.d})")
    if not all(map(math.isfinite, X.ravel().tolist())):
        bad = X[~np.isfinite(X).all(axis=1)][0]
        raise ValueError(f"query coordinates must be finite, got {bad.tolist()}")
    f_hat, sigma2_hat, denom = np.empty((3, X.shape[0]))
    step = max(1, _BLOCK // train.n)
    for lo in range(0, X.shape[0], step):
        rows = slice(lo, lo + step)
        sq = _sq_dists(X[rows], train.x)
        vals = eval_sq(fit.kernel, sq, 1.0 / (h * h), out=sq)
        denom[rows] = vals.sum(axis=1)
        # a zero-mass row divides 0 by 0, so its weights, f_hat and
        # sigma2_hat are NaN
        with np.errstate(invalid="ignore"):
            w = np.divide(vals, denom[rows, None], out=vals)
        # vecdot takes one dot product per row, the sums of a 1-D ``w @ y``
        f_hat[rows] = np.vecdot(w, train.y)
        # every weight is +0 or more, so sigma2_hat is too (or NaN)
        sigma2_hat[rows] = np.vecdot(w, np.square(train.y - f_hat[rows, None]))
    return PointEvaluation(f_hat=f_hat, sigma2_hat=sigma2_hat,
                           p_hat=denom / (train.n * h ** train.d),
                           weight_denominator=denom)


def evaluate_point(fit: FitState, x) -> PointEvaluation:
    """Scalar view of evaluate_batch at the single query point x."""
    # evaluate_batch refuses any x that is not a length-d vector
    ev = evaluate_batch(fit, np.atleast_1d(np.asarray(x, dtype=float))[None, :])
    return PointEvaluation(float(ev.f_hat[0]), float(ev.sigma2_hat[0]),
                           float(ev.p_hat[0]), float(ev.weight_denominator[0]))


def default_bandwidth_grid(data: Dataset) -> np.ndarray:
    """_GRID_SIZE log-spaced bandwidths on [0.05, 1] x mean coordinate range."""
    spread = float(np.mean(data.x.max(axis=0) - data.x.min(axis=0)))
    if spread <= 0.0:
        spread = 1.0
    return np.geomspace(0.05 * spread, spread, _GRID_SIZE)


def _loocv_parts(n: int, step: int) -> list:
    """LOO-CV's row blocks (lo, hi) of at most ``step`` rows, in _PARTS lists.

    Rows lo:hi cost about (hi - lo) * (n - lo) kernel values, so the rows are
    cut where the triangle's work reaches p / _PARTS, at about
    n * (1 - sqrt(1 - p / _PARTS)), and each part is cut into blocks. A
    triangle that fits in one block is one part.
    """
    if step >= n:
        return [[(0, n)]]
    cuts = [round(n * (1.0 - math.sqrt(1.0 - p / _PARTS)))
            for p in range(_PARTS)] + [n]
    return [[(lo, min(lo + step, end)) for lo in range(start, end, step)]
            for start, end in zip(cuts, cuts[1:]) if start < end]


def _loocv_scores(data: Dataset, kernel: KernelSpec, grid) -> np.ndarray:
    """Leave-one-out squared error sum_i (y_i - f_{-i}(x_i))^2 for each h.

    The scores follow the order of ``grid``. f_{-i} is the NW mean fit
    without sample i; a held-out point with zero kernel mass is predicted by
    the mean of y, which keeps the criterion finite and comparable across h.
    Per grid h a block is overwritten with the shapes
    g(||x_i - x_k||^2 / h^2), 0 on the diagonal, and ``block @ [1, y]``
    gives its rows' shape mass and shape-weighted y; the transposed block
    adds the mirrored sums of columns hi:n. K(0) cancels in their ratio.
    ``shape_sq`` writes 0 below ``kernel.floor``, so a held-out point has
    zero mass exactly when each of its kernel values is 0, and a nonzero
    mass is at least the floor, above the smallest normal float.
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
    one_y = np.column_stack([np.ones(n), y])
    step = min(n, max(1, _BLOCK // n))
    parts = _loocv_parts(n, step)
    # part_sums[p, j, i]: shape mass and shape-weighted y of row i without
    # sample i, at grid[j], from the blocks of part p
    part_sums = np.zeros((len(parts), grid.size, n, 2))

    # every part's block buffers, made by the calling thread: what the
    # short-lived part threads allocate stays in their malloc arenas
    bufs = np.empty((len(parts), 2, step * n))

    def accumulate(p: int) -> None:
        sums = part_sums[p]
        sq_buf, buf = bufs[p]
        for lo, hi in parts[p]:
            size = (hi - lo) * (n - lo)
            sq = sq_buf[:size].reshape(hi - lo, n - lo)
            vals = buf[:size].reshape(sq.shape)
            _sq_dists(data.x[lo:hi], data.x[lo:], out=sq, tmp=vals)
            # the maximum before the diagonal's +inf (shape 0 at any h)
            # tells ``shape_sq`` whether anything can fall below the floor
            sq_max = float(np.maximum.reduce(sq, axis=None))
            np.fill_diagonal(sq, np.inf)
            for j, h in enumerate(grid.tolist()):
                shape_sq(kernel, sq, 1.0 / (h * h), out=vals, sq_max=sq_max)
                sums[j, lo:hi] += vals @ one_y[lo:]
                if hi < n:  # a block ending at row n mirrors nothing
                    sums[j, hi:] += vals[:, hi - lo:].T @ one_y[lo:hi]

    if len(parts) == 1:
        accumulate(0)
    else:
        errors = [None] * len(parts)

        def run(p: int) -> None:
            try:
                accumulate(p)
            except BaseException as exc:  # raised again on the calling thread
                errors[p] = exc

        threads = [threading.Thread(target=run, args=(p,))
                   for p in range(len(parts))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for exc in errors:
            if exc is not None:
                raise exc

    # the scores are finished in place, in part 0's sums
    sums = part_sums[0]
    for more in part_sums[1:]:  # in part order, as part_sums.sum(axis=0) adds
        sums += more
    mass, weighted = sums[..., 0], sums[..., 1]
    positive = mass > 0.0
    pred = np.divide(weighted, mass, out=weighted, where=positive)
    np.copyto(pred, y.mean(), where=~positive)
    err = np.square(np.subtract(y, pred, out=pred), out=pred)
    # a row sum of a strided row has the bits of the contiguous 1-D sum
    return err.sum(axis=1)


def select_bandwidth_loocv(data: Dataset, kernel: KernelSpec, grid) -> float:
    """The grid bandwidth minimizing the leave-one-out squared error.

    Ties go to the smaller h: the result is the smallest grid h whose
    ``_loocv_scores`` score is at most min * (1 + 1e-9). Scores that are
    equal in exact arithmetic (a plateau where every point keeps the same
    few neighbours, common for the Epanechnikov kernel at small n) differ in
    their last bits with the order of the floating-point operations, and the
    band keeps such rounding from deciding which h wins.
    """
    grid = np.asarray(grid, dtype=float)
    scores = _loocv_scores(data, kernel, grid)
    return float(grid[scores <= scores.min() * (1.0 + _TIE_RTOL)].min())


@dataclass(frozen=True)
class HPolicy:
    """Bandwidth policy: LOO-CV, a fixed value, or h = c * n ** exponent."""

    kind: str
    h: Optional[float] = None
    c: float = 1.0
    exponent: float = -0.2
    grid: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in ("fixed", "power", "loocv"):
            raise ValueError(f"bandwidth policy kind must be \"fixed\", "
                             f"\"power\" or \"loocv\", got {self.kind!r}")
        if self.kind == "fixed":
            _require_real("h", self.h, _POSITIVE)
        elif self.kind == "power":
            _require_real("c", self.c, _POSITIVE)
            _require_real("exponent", self.exponent)
        if self.grid is not None:
            text = isinstance(self.grid, (str, bytes))
            grid = tuple(self.grid) if np.iterable(self.grid) and not text else ()
            if not grid:
                raise ValueError("grid must be a nonempty sequence of positive "
                                 f"finite reals, got {self.grid!r}")
            object.__setattr__(self, "grid", tuple(
                _require_real(f"grid[{i}]", h, _POSITIVE) for i, h in enumerate(grid)))

    def fit_rule(self, kernel: KernelSpec) -> Callable[[Dataset], FitState]:
        """Fit rule for ``kernel``; LOO-CV searches ``grid``, the default if None."""
        def rule(data: Dataset) -> FitState:
            if self.kind == "fixed":
                h = self.h
            elif self.kind == "power":
                h = self.c * data.n ** self.exponent
            elif data.n < 3:
                # too small for LOO-CV, and no h passes the density gate anyway:
                # n K(0) < 4a for both kernels at every d, so any h will do
                h = 1.0
            else:
                h = select_bandwidth_loocv(data, kernel, default_bandwidth_grid(data)
                                           if self.grid is None else self.grid)
            return FitState(train=data, kernel=kernel, h=h)
        return rule


def loocv_bandwidth(kernel: KernelSpec, grid=None) -> Callable[[Dataset], FitState]:
    """Fit rule selecting h by LOO-CV on ``grid`` (default grid if None)."""
    return HPolicy("loocv", grid=grid).fit_rule(kernel)
