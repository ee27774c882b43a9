"""Independent numpy reference for the outputs the benchmark checks.

Written from the rule in PAPER.md, not from the package: Gaussian-kernel
Nadaraya-Watson estimates of mean, variance and density, the LOO-CV grid
choice, and the density gate plus one-sided variance test. Pairwise
distances are formed from coordinate differences (the package expands
||a||^2 + ||b||^2 - 2ab), so agreement to a tight relative tolerance is a
real check and not a replay of the same arithmetic.

Where two outcomes are separated by less than TIE_RTOL relative to their
scale (a variance estimate on the threshold, two LOO-CV scores equal), both
outcomes are accepted: the reference cannot tell them apart either.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

TIE_RTOL = 1e-9
REAL_RTOL = 1e-9
REAL_ATOL = 1e-12

ACCEPTED = "accepted"
LOW_DENSITY = "low_density"
VARIANCE_TEST_FAILED = "variance_test_failed"


def z_value(beta: float) -> float:
    """Critical value z_{1-beta} from the stdlib normal distribution."""
    return statistics.NormalDist().inv_cdf(1.0 - beta)


def kernel_constants(d: int) -> tuple[float, float]:
    """(a, ||K||_2) of the d-dimensional standard Gaussian kernel."""
    a = (2.0 * math.pi) ** (-d / 2.0) * math.exp(-0.5)
    return a, (4.0 * math.pi) ** (-d / 4.0)


def sq_dists(xq: np.ndarray, xt: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, (m, n), from coordinate differences."""
    out = np.zeros((xq.shape[0], xt.shape[0]))
    for k in range(xq.shape[1]):
        diff = xq[:, k, None] - xt[None, :, k]
        out += diff * diff
    return out


def gauss(sq: np.ndarray, h: float, d: int) -> np.ndarray:
    return (2.0 * math.pi) ** (-d / 2.0) * np.exp(-0.5 * sq / (h * h))


def nw(xq, xt, yt, h: float) -> dict:
    """Mean, variance and density estimates at each row of xq."""
    xq = np.atleast_2d(np.asarray(xq, dtype=float))
    xt = np.asarray(xt, dtype=float).reshape(len(yt), -1)
    n, d = xt.shape
    k = gauss(sq_dists(xq, xt), h, d)
    denom = k.sum(axis=1)
    p = denom / (n * h ** d)
    f = np.full(len(xq), np.nan)
    s2 = np.full(len(xq), np.nan)
    ok = denom > 0.0
    w = k[ok] / denom[ok, None]
    f[ok] = w @ yt
    s2[ok] = np.maximum(np.einsum("ij,ij->i", w, (yt[None, :] - f[ok, None]) ** 2), 0.0)
    return {"f_hat": f, "sigma2_hat": s2, "p_hat": p}


def loocv_choice(x, y) -> tuple[float, np.ndarray, np.ndarray]:
    """(h, grid, scores) of leave-one-out CV over the default 30-point grid.

    The grid is log-spaced on [0.05, 1] x the mean coordinate range. The
    score of h is sum_i (y_i - f_{-i}(x_i))^2, where a point whose
    leave-one-out kernel mass is zero scores (y_i - mean y)^2. Ties go to
    the smaller h.
    """
    x = np.asarray(x, dtype=float).reshape(len(y), -1)
    spread = float(np.mean(x.max(axis=0) - x.min(axis=0))) or 1.0
    grid = np.geomspace(0.05 * spread, spread, 30)
    sq = sq_dists(x, x)
    fallback = (y - y.mean()) ** 2
    scores = np.empty(grid.size)
    idx = np.arange(len(y))
    for j, h in enumerate(grid):
        k = gauss(sq, h, x.shape[1])
        k[idx, idx] = 0.0
        denom = k.sum(axis=1)
        ok = denom > 0.0
        pred = (k @ y) / np.where(ok, denom, 1.0)
        scores[j] = float(np.sum(np.where(ok, (y - pred) ** 2, fallback)))
    return float(grid[int(np.argmin(scores))]), grid, scores


def h_agrees(h: float, grid: np.ndarray, scores: np.ndarray) -> bool:
    """True when h is the reference choice or ties with it."""
    hit = np.flatnonzero(grid == h)
    if hit.size == 0:
        return False
    best = float(scores.min())
    return float(scores[hit[0]]) <= best + TIE_RTOL * abs(best)


def _near(a: float, b: float) -> bool:
    return abs(a - b) <= TIE_RTOL * max(abs(a), abs(b), 1e-300)


def rule(sigma2_hat, p_hat, n: int, h: float, d: int, lam: float,
         z: float) -> tuple[float, str, set]:
    """Threshold, reason, and the set of reasons the rule in PAPER.md allows.

    The set holds just the reason except at a numerical tie, where it also
    holds the neighbouring outcome.
    """
    a, l2 = kernel_constants(d)
    floor = 4.0 * a / (n * h ** d)
    thr = (lam * (1.0 - z * l2 * math.sqrt(2.0 / (n * h ** d * p_hat)))
           if p_hat > 0.0 else float("nan"))
    if p_hat < floor:
        reason = LOW_DENSITY
    elif sigma2_hat <= thr:
        reason = ACCEPTED
    else:
        reason = VARIANCE_TEST_FAILED
    allowed = {reason}
    if _near(p_hat, floor):
        allowed |= {LOW_DENSITY,
                    ACCEPTED if sigma2_hat <= thr else VARIANCE_TEST_FAILED}
    if p_hat >= floor and _near(sigma2_hat, thr):
        allowed |= {ACCEPTED, VARIANCE_TEST_FAILED}
    return thr, reason, allowed


def close(a, b, rtol: float = REAL_RTOL, atol: float = REAL_ATOL) -> bool:
    """Real outputs agree; NaN matches NaN, and None stands for NaN."""
    a = float("nan") if a is None else float(a)
    b = float("nan") if b is None else float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))
