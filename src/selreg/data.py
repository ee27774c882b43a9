"""Data sources: synthetic generation, CSV ingestion, scaling and splits.

Synthetic draws come from a Philox counter RNG and map raw 64-bit words
through the inverse normal CDF (rejection-sampling normals would tie a stream
to the sampler's algorithm), so a seed fixes its stream and the standard
normal draws do not depend on numpy's SIMD level. All operations are pure
functions of their inputs and seeds.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .estimators import Dataset, _as_real, _require_real
from .normal import normal_quantile

_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *indices: int) -> int:
    """Stable 64-bit sub-seed for (seed, index, ...) streams."""
    z = seed & _MASK64
    for ix in indices:
        z = _splitmix64(z ^ _splitmix64(ix & _MASK64))
    return z


def _uniforms(seed: int, count: int) -> np.ndarray:
    """count uniforms strictly inside (0, 1) from a Philox stream.

    Raw 64-bit words are truncated to their top 53 bits and offset by half
    an ulp, so 0 and 1 are never produced.
    """
    raw = np.random.Philox(key=seed & _MASK64).random_raw(count)
    return (raw >> np.uint64(11)).astype(np.float64) * 2.0 ** -53 + 2.0 ** -54


def _require_number(name: str, value) -> float:
    """``value`` of field ``name`` as a float, refused by name if it is a
    bool or not a real number; its caller checks the range."""
    number = _as_real(value)
    if number is None:
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return number


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = _require_number("lo", self.lo), _require_number("hi", self.hi)
        if not (lo < hi):
            raise ValueError("uniform bounds must satisfy lo < hi")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("uniform bounds must be finite")

    def from_uniforms(self, u: np.ndarray) -> np.ndarray:
        return self.lo + (self.hi - self.lo) * u


@dataclass(frozen=True)
class Normal:
    mu: float
    sd: float

    def __post_init__(self):
        mu, sd = _require_number("mu", self.mu), _require_number("sd", self.sd)
        if not (sd > 0.0):
            raise ValueError("normal sd must be positive")
        if not (math.isfinite(mu) and math.isfinite(sd)):
            raise ValueError("normal mu and sd must be finite")

    def from_uniforms(self, u: np.ndarray) -> np.ndarray:
        return self.mu + self.sd * normal_quantile(u)


def sd_sigmoid(x):
    """Logistic noise scale 1 / (1 + exp(-x)); elementwise on arrays."""
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def sd_heaviside(x):
    """Step noise scale: 1 for x >= 0, else 0 (the origin counts as noisy)."""
    return (np.asarray(x, dtype=float) >= 0.0).astype(float)


def mean_quadratic(x):
    """The quarter-square trend x^2 / 4."""
    return np.square(np.asarray(x, dtype=float)) / 4.0


def table_fn(xs, ys) -> Callable:
    """Piecewise-linear function through the given 1-D table."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise ValueError("table needs matching 1-D x and y with >= 2 rows")
    if np.any(np.diff(xs) <= 0.0):
        raise ValueError("table x values must be strictly increasing")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("table x and y values must be finite")

    def fn(x):
        return np.interp(np.asarray(x, dtype=float), xs, ys)

    return fn


@dataclass(frozen=True)
class SyntheticSpec:
    """Heteroskedastic regression draw: Y = f(X) + sd(X) * eps.

    covariate_dists lists one Uniform or Normal per coordinate; mean_fn and
    sd_fn are evaluated through truth(). eps is standard normal.
    """

    covariate_dists: tuple
    mean_fn: Callable
    sd_fn: Callable
    n: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "covariate_dists", tuple(self.covariate_dists))
        if len(self.covariate_dists) < 1:
            raise ValueError("need at least one covariate distribution")
        if self.n < 1:
            raise ValueError("n must be at least 1")

    @property
    def d(self) -> int:
        return len(self.covariate_dists)

    def truth(self, points) -> tuple[np.ndarray, np.ndarray]:
        """True (mean, sd) at every row of an (m, d) matrix of points.

        The callables receive the bare coordinate array when d = 1 and the
        matrix otherwise (consuming its last axis); scalar returns broadcast
        to every row.
        """
        points = np.asarray(points, dtype=float)
        arg = points[:, 0] if points.shape[1] == 1 else points
        return tuple(np.broadcast_to(np.asarray(fn(arg), dtype=float),
                                     (len(points),)).astype(float, copy=True)
                     for fn in (self.mean_fn, self.sd_fn))


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Draw n i.i.d. pairs from the spec; bit-identical given the seed.

    Draw order is fixed: one uniform block per covariate column, then the
    noise block.
    """
    n, d = spec.n, spec.d
    u = _uniforms(spec.seed, n * (d + 1))
    x = np.empty((n, d))
    for j, dist in enumerate(spec.covariate_dists):
        x[:, j] = dist.from_uniforms(u[j * n:(j + 1) * n])
    eps = normal_quantile(u[d * n:])
    mean, sd = spec.truth(x)
    return Dataset(x=x, y=mean + sd * eps)


def synthetic_sampler(spec: SyntheticSpec) -> Callable[[int, int], Dataset]:
    """Sampler (n, seed) -> Dataset reusing the spec's distributions."""
    def sample(n: int, seed: int) -> Dataset:
        return generate_synthetic(replace(spec, n=n, seed=seed))
    return sample


# (predicate, demand) rules of ShiftSplit's train_quantile and swap_fraction
_QUANTILE = (lambda v: 0.0 < v < 1.0, "lie in (0, 1)")
_FRACTION = (lambda v: 0.0 <= v < 1.0, "lie in [0, 1)")


@dataclass(frozen=True)
class ShiftSplit:
    """Pivot-feature covariate-shift split.

    The rows with the lowest pivot values (a train_quantile fraction,
    ties broken by row index) form the train side; then an equal number of
    rows, floor(swap_fraction * train size), is exchanged uniformly at
    random between the two sides so the test set mixes unexplored and
    in-distribution points.
    """

    pivot_feature: int
    train_quantile: float = 0.7
    swap_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        _require_real("train_quantile", self.train_quantile, _QUANTILE)
        _require_real("swap_fraction", self.swap_fraction, _FRACTION)


def _pick(seed: int, pool: np.ndarray, k: int) -> np.ndarray:
    """k distinct elements of pool, uniformly, via seeded uniform keys."""
    keys = _uniforms(seed, pool.size)
    return pool[np.argsort(keys, kind="stable")[:k]]


def covariate_shift_split(data: Dataset, split: ShiftSplit) -> tuple[Dataset, Dataset]:
    """Split into train/test with a controlled covariate shift.

    Output rows keep their original dataset order within each side.
    Raises on a constant pivot column (the split would be undefined).
    """
    if not (0 <= split.pivot_feature < data.d):
        raise ValueError("pivot_feature out of range")
    if data.n < 10:
        raise ValueError("shift split needs at least 10 rows")
    pivot = data.x[:, split.pivot_feature]
    if np.all(pivot == pivot[0]):
        raise ValueError("pivot column is constant; split undefined")

    n_low = int(math.floor(split.train_quantile * data.n))
    if n_low == 0:  # floor(q * n) < n, so the test side is never empty
        raise ValueError(f"train_quantile {split.train_quantile!r} leaves no "
                         f"training rows at n = {data.n}")

    order = np.argsort(pivot, kind="stable")
    low, high = order[:n_low], order[n_low:]
    k = min(int(math.floor(split.swap_fraction * low.size)), high.size)
    train = np.zeros(data.n, dtype=bool)
    train[low] = True
    train[_pick(derive_seed(split.seed, 0), low, k)] = False
    train[_pick(derive_seed(split.seed, 1), high, k)] = True

    def take(rows: np.ndarray) -> Dataset:
        return Dataset(x=data.x[rows],
                       y=None if data.y is None else data.y[rows])

    return take(train), take(~train)


@dataclass(frozen=True)
class Scaler:
    """Per-column affine feature scaling fit on a training set.

    A constant column gets mean 0 and scale 1: it passes through untouched.
    """

    mean: np.ndarray
    scale: np.ndarray

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.mean) / self.scale


def standardize(train: Dataset, test: Dataset) -> tuple[Dataset, Dataset, Scaler]:
    """Zero-mean unit-variance feature scaling fit on train, applied to both.

    Responses are left untouched. Zero-variance columns are passed through
    unchanged.
    """
    if train.n < 2:
        raise ValueError("standardization needs at least 2 training rows")
    if train.d != test.d:
        raise ValueError("train and test dimension mismatch")
    sd = train.x.std(axis=0, ddof=1)
    constant = sd == 0.0
    scaler = Scaler(mean=np.where(constant, 0.0, train.x.mean(axis=0)),
                    scale=np.where(constant, 1.0, sd))
    return (Dataset(x=scaler.transform(train.x), y=train.y),
            Dataset(x=scaler.transform(test.x), y=test.y),
            scaler)


def load_csv(path, has_header: bool = False,
             target_column: Optional[int] = None) -> Dataset:
    """Read a rectangular numeric CSV into a Dataset.

    The target column (if given) becomes the response vector; the remaining
    columns become covariates, row order preserved; a UTF-8 byte-order mark
    is dropped. A non-numeric, NaN or infinite cell or a ragged row raises
    naming "line N", the 1-based file line on which its record ends.
    """
    rows: list[list[float]] = []
    width = None
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        if has_header:
            next(reader, None)
        for cells in reader:
            if not cells or (len(cells) == 1 and not cells[0].strip()):
                continue
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise ValueError(f"{path}: line {reader.line_num} has "
                                 f"{len(cells)} cells, expected {width}")
            parsed = []
            for col, cell in enumerate(cells):
                try:
                    value = float(cell.strip())
                except ValueError:
                    raise ValueError(
                        f"{path}: non-numeric cell at line {reader.line_num}, "
                        f"column {col + 1}: {cell.strip()!r}") from None
                if not math.isfinite(value):
                    raise ValueError(
                        f"{path}: non-finite cell at line {reader.line_num}, "
                        f"column {col + 1}: {cell.strip()!r}")
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    table = np.asarray(rows, dtype=float)
    if target_column is None:
        return Dataset(x=table)
    if not (0 <= target_column < table.shape[1]):
        raise ValueError(f"target column {target_column} out of range "
                         f"for {table.shape[1]} columns")
    y = table[:, target_column]
    x = np.delete(table, target_column, axis=1)
    if x.shape[1] == 0:
        raise ValueError("no covariate columns left after removing the target")
    return Dataset(x=x, y=y)


def _airfoil_like_mean(x):
    return (10.0 + 0.4 * x[..., 0] + 0.15 * x[..., 1] + 2.0 * x[..., 2]
            + 0.02 * x[..., 3] + 10.0 * x[..., 4])


def _airfoil_like_sd(x):
    # convex noise growth along the pivot keeps risk-coverage curves clean
    return 0.6 + 0.025 * x[..., 1] ** 2


def airfoil_like_spec(n: int = 1500, seed: int = 815) -> SyntheticSpec:
    """Five-feature heteroskedastic benchmark in the style of the UCI
    airfoil table: noise grows along feature 1, the usual split pivot."""
    return SyntheticSpec(
        covariate_dists=(Uniform(0.0, 10.0), Uniform(0.0, 22.0),
                         Uniform(0.0, 0.3), Uniform(30.0, 70.0),
                         Uniform(0.0, 0.05)),
        mean_fn=_airfoil_like_mean,
        sd_fn=_airfoil_like_sd,
        n=n,
        seed=seed,
    )
