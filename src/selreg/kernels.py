"""Smoothing kernels and their analytic constants.

Both kernels are radial, K(t) = K(0) * g(||t||^2) with shape g(0) = 1,
symmetric, integrate to one, and admit a lower bound of the form
K(t) >= a * 1{||t|| <= b}; the pair (a, b) and the L2 norm
||K||_2 = (integral of K^2)^(1/2) feed the density gate and the variance
test of the abstention rule.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class KernelKind(str, enum.Enum):
    GAUSSIAN = "gaussian"
    EPANECHNIKOV = "epanechnikov"


@dataclass(frozen=True)
class KernelSpec:
    """A kernel function together with the constants the decision rule uses.

    Attributes
    ----------
    kind : KernelKind
    dimension : int
        Covariate dimension d.
    a, b : float
        Lower-bound constants: K(t) >= a for every ||t|| <= b.
    l2_norm : float
        ||K||_2 = (integral of K^2 over R^d)^(1/2).
    peak : float
        K(0), the factor in front of the shape g.
    """

    kind: KernelKind
    dimension: int
    a: float
    b: float
    l2_norm: float
    peak: float


def kernel_spec(kind, dimension: int) -> KernelSpec:
    """Build a KernelSpec by kernel name ("gaussian" | "epanechnikov").

    Gaussian: peak (2 pi)^(-d/2), b = 1, a = K at ||t|| = 1,
    ||K||_2 = (4 pi)^(-d/4). Epanechnikov (d=1 only): peak 3/4, b = 1/2,
    a = K(1/2), ||K||_2 = sqrt(3/5), from the closed form integral of
    (0.75 (1 - t^2))^2 over [-1, 1] = 0.6.
    """
    kind = KernelKind(kind)
    if dimension < 1:
        raise ValueError("dimension must be a positive integer")
    if kind is KernelKind.GAUSSIAN:
        peak = (2.0 * math.pi) ** (-dimension / 2.0)
        return KernelSpec(kind, dimension, a=peak * math.exp(-0.5), b=1.0,
                          l2_norm=(4.0 * math.pi) ** (-dimension / 4.0),
                          peak=peak)
    if dimension != 1:
        raise ValueError("the Epanechnikov kernel is only provided for d=1")
    peak = 0.75
    return KernelSpec(kind, 1, a=peak * (1.0 - 0.25), b=0.5,
                      l2_norm=math.sqrt(0.6), peak=peak)


def shape_sq(kernel: KernelSpec, sq_norms, scale=1.0, out=None):
    """The shape g(scale * ||t||^2) at points given by their squared norms.

    Gaussian: exp(-0.5 * scale * ||t||^2), one multiply and one exp.
    Epanechnikov: 1 - scale * ||t||^2 inside the support, 0 outside it
    (NaN counts as outside). The values are written into ``out`` when given
    (it may be ``sq_norms`` itself) and into a new array otherwise; both
    forms run the same operations, so they give the same bits.
    """
    sq = np.asarray(sq_norms, dtype=float)
    if out is None:
        out = np.empty_like(sq)
    if kernel.kind is KernelKind.GAUSSIAN:
        np.multiply(sq, -0.5 * scale, out=out)
        return np.exp(out, out=out)
    np.multiply(sq, scale, out=out)
    outside = ~(out <= 1.0)
    np.subtract(1.0, out, out=out)
    out[outside] = 0.0
    return out


def eval_sq(kernel: KernelSpec, sq_norms, out=None):
    """K = K(0) * g at points given by their squared norms ||t||^2.

    The one path of scalar queries and batched estimators; ``out`` works as
    in ``shape_sq``, whose scale-1 operations are the textbook formula's.
    """
    shape = shape_sq(kernel, sq_norms, 1.0, out)
    return np.multiply(kernel.peak, shape, out=shape)
