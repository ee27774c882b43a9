"""Acceptance testing: abstain unless the variance test passes.

The rule accepts the regression output at x only if (1) the estimated
covariate density clears the floor 4a / (n h^d), so the point counts as
explored, and (2) the one-sided test on the conditional variance passes:

    sigma2_hat(x) <= lambda * (1 - z_{1-beta} * ||K||_2 * sqrt(2 / (n h^d p_hat(x))))

The estimated density stands in for the true one on the right-hand side.
Both tests read n h^d p_hat(x) = sum_i K((x - x_i) / h), the kernel mass m
(weight_denominator), and the code evaluates them on it: the gate is
m >= 4a and the threshold lambda * (1 - z_{1-beta} ||K||_2 sqrt(2 / m)).
Setting beta = 0.5 makes z vanish and the rule degenerates to the plugin
baseline: accept iff the density gate holds and sigma2_hat <= lambda.

decide_batch applies the rule to a batched evaluation; decide and
decide_from_evaluation are its one-point views.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .estimators import (_POSITIVE, FitState, PointEvaluation,
                         _require_real, evaluate_point)
from .kernels import _SMALLEST_NORMAL
from .normal import normal_quantile


class Verdict(enum.Enum):
    ACCEPT = "accept"
    REJECT = "reject"


class Reason(enum.Enum):
    ACCEPTED = "accepted"
    LOW_DENSITY = "low_density"
    VARIANCE_TEST_FAILED = "variance_test_failed"


# the (predicate, demand) rule of a test level, as _require_real takes it
_LEVEL = (lambda v: 0.0 < v <= 0.5, "lie in (0, 0.5]")


@dataclass(frozen=True)
class AbstentionConfig:
    """Finite abstention cost lam > 0 and test significance level beta in
    (0, 0.5].

    beta is capped at 0.5: beyond it the test would be anti-conservative
    relative to the plugin rule. The critical value z = z_{1-beta} is
    derived once, here, by ``critical_value``, for every decision made
    under the config.
    """

    lam: float
    beta: float
    z: float = field(init=False)

    def __post_init__(self):
        _require_real("lambda", self.lam, _POSITIVE)
        _require_real("beta", self.beta, _LEVEL)
        object.__setattr__(self, "z", critical_value(self.beta))


def critical_value(beta: float) -> float:
    """z_{1-beta} = -Phi^{-1}(beta) (+0.0 at beta = 0.5), for beta in
    (0, 0.5]; 1 - beta would round the tail away, to 1.0 below 2^-53."""
    return 0.0 - normal_quantile(beta)


@dataclass(frozen=True)
class Decision:
    """Accept/reject verdict with the quantities that produced it."""

    verdict: Verdict
    reason: Reason
    eval: PointEvaluation
    threshold: float

    @property
    def accepted(self) -> bool:
        return self.verdict is Verdict.ACCEPT


def decide_batch(ev: PointEvaluation, fit: FitState, lam: float, z: float):
    """Apply the gate and the variance test to every point of an evaluation.

    Returns the arrays (accepted, low_density, threshold). lam and z
    broadcast against the m points: (k, 1) columns decide k (lam, z) cells
    in one call, as (k, m) accepted and threshold; low_density keeps the
    evaluation's shape. A mass below the smallest normal float (the exact 0
    of evaluate_batch, or a subnormal one given by hand, where 2 / m
    overflows) fails the gate, with a NaN threshold. A negative threshold
    cannot be met (sigma2_hat >= 0); at lam = 0 (the coverage sweep's first
    cell) it is +0 or -0.0, which a sigma2_hat of exactly +0 meets.
    """
    mass = np.asarray(ev.weight_denominator, dtype=float)
    ratio = np.divide(2.0, mass, out=np.full(mass.shape, np.nan),
                      where=mass >= _SMALLEST_NORMAL)
    threshold = lam * (1.0 - z * fit.kernel.l2_norm * np.sqrt(ratio))
    low_density = mass < 4.0 * fit.kernel.a
    return ~low_density & (ev.sigma2_hat <= threshold), low_density, threshold


def decide_from_evaluation(ev: PointEvaluation, fit: FitState, lam: float,
                           z: float) -> Decision:
    """Scalar view of decide_batch for the evaluation of one query point."""
    accepted, low_density, threshold = decide_batch(ev, fit, lam, z)
    reason = (Reason.LOW_DENSITY if low_density else
              Reason.ACCEPTED if accepted else Reason.VARIANCE_TEST_FAILED)
    return Decision(Verdict.ACCEPT if accepted else Verdict.REJECT, reason, ev,
                    float(threshold))


def decide(fit: FitState, x, cfg: AbstentionConfig) -> Decision:
    """Run the acceptance test at x under cfg."""
    return decide_from_evaluation(evaluate_point(fit, x), fit, cfg.lam, cfg.z)
