"""Chow risk, oracle risk and the excess-risk decomposition.

On a known synthetic truth the conditional Chow risk of an accepted
prediction has the closed form sigma^2(x) + (f_hat(x) - f(x))^2, so no test
labels need to be sampled. The pointwise excess then decomposes exactly as

    (f_hat - f)^2 * 1{accept} + |sigma^2 - lambda| * 1{accept != oracle}

and Monte Carlo only averages over replicated training sets. Both risk
functions score values elementwise: floats for one point, arrays for a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .abstention import AbstentionConfig, decide_batch
from .data import SyntheticSpec, derive_seed, synthetic_sampler
from .estimators import Dataset, FitState, evaluate_batch


@dataclass(frozen=True)
class RiskReport:
    """Monte-Carlo excess risk per (config, grid point), and h per replicate."""

    expected_excess: np.ndarray
    mc_stderr: np.ndarray
    accept_fraction: np.ndarray
    h: np.ndarray


def oracle_risk(sigma2: float, lam: float) -> float:
    """Risk of the oracle rule: min(sigma2, lam)."""
    if sigma2 < 0.0:
        raise ValueError("variance must be nonnegative")
    if not (lam > 0.0):
        raise ValueError("abstention cost must be positive")
    return min(sigma2, lam)


def oracle_abstains(sigma2: float, lam: float) -> bool:
    """The optimal abstention rule: abstain iff sigma2 >= lam."""
    return sigma2 >= lam


def conditional_chow_risk(f_hat, accepted, mean, sigma2, lam: float):
    """Chow risk conditional on the fitted estimate and verdict.

    Rejection pays lam; acceptance pays the exact conditional expectation
    of the squared error, sigma2 + (f_hat - mean)^2.
    """
    return np.where(accepted, sigma2 + np.square(f_hat - mean), lam)


def pointwise_excess(f_hat, accepted, mean, sigma2, lam: float):
    """Excess over the oracle risk: estimation error on accepted points
    plus |sigma2 - lam| where the verdict differs from the oracle's."""
    wrong_call = np.logical_not(accepted) != oracle_abstains(sigma2, lam)
    return (np.where(wrong_call, np.abs(sigma2 - lam), 0.0)
            + np.where(accepted, np.square(f_hat - mean), 0.0))


def monte_carlo_expected_excess(
    spec: SyntheticSpec,
    n: int,
    cfgs: Sequence[AbstentionConfig],
    fit_rule: Callable[[Dataset], FitState],
    x_grid,
    replicates: int,
    seed: int,
) -> RiskReport:
    """Average the pointwise excess over freshly drawn training sets.

    Each replicate r draws synthetic_sampler(spec)(n, derive_seed(seed, r)),
    fits once via fit_rule, evaluates the whole grid once, and scores that
    evaluation under every config in cfgs against the spec's true mean and
    noise scale. The report's arrays have one row per config and one column
    per grid point, in the order of cfgs and x_grid. Replicates are
    aggregated in index order, so results do not depend on scheduling; the
    whole run is a pure function of (inputs, seed).
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    if len(x_grid) == 0:
        raise ValueError("x_grid must be nonempty")
    points = np.asarray(x_grid, dtype=float).reshape(len(x_grid), -1)
    mean, sd = spec.truth(points)
    sigma2 = np.square(sd)
    sample = synthetic_sampler(spec)

    excess = np.zeros((len(cfgs), len(points), replicates))
    accepted = np.zeros(excess.shape, dtype=bool)
    h = np.empty(replicates)
    for r in range(replicates):
        fit = fit_rule(sample(n, derive_seed(seed, r)))
        h[r] = fit.h
        ev = evaluate_batch(fit, points)
        for c, cfg in enumerate(cfgs):
            accepted[c, :, r] = decide_batch(ev, fit, cfg.lam, cfg.z)[0]
            excess[c, :, r] = pointwise_excess(ev.f_hat, accepted[c, :, r],
                                               mean, sigma2, cfg.lam)

    stderr = (excess.std(axis=2, ddof=1) / math.sqrt(replicates)
              if replicates > 1 else np.zeros(excess.shape[:2]))
    return RiskReport(expected_excess=excess.mean(axis=2), mc_stderr=stderr,
                      accept_fraction=accepted.mean(axis=2), h=h)
