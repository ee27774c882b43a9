"""Selective Nadaraya-Watson regression for heteroskedastic data.

Predictions are accepted only where the data supports them: a density gate
discards unexplored query points and a one-sided test on the estimated
conditional variance abstains whenever the noise level cannot be certified
to stay below the abstention cost.
"""

__version__ = "0.1.0"

from .abstention import (AbstentionConfig, Decision, Reason, Verdict, decide,
                         decide_batch)
from .data import (Normal, Scaler, ShiftSplit, SyntheticSpec, Uniform,
                   covariate_shift_split, generate_synthetic, load_csv,
                   mean_quadratic, sd_heaviside, sd_sigmoid, standardize,
                   synthetic_sampler)
from .estimators import (Dataset, FitState, PointEvaluation, evaluate_batch,
                         evaluate_point, select_bandwidth_loocv)
from .kernels import KernelKind, KernelSpec, kernel_spec
from .normal import normal_cdf, normal_quantile
from .risk import (RiskReport, conditional_chow_risk,
                   monte_carlo_expected_excess, oracle_risk, pointwise_excess)
