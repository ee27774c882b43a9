"""Smoothing kernels and their analytic constants.

Both kernels are symmetric, integrate to one, and admit a lower bound of the
form K(t) >= a * 1{||t|| <= b}; the pair (a, b) and the L2 norm
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
    """

    kind: KernelKind
    dimension: int
    a: float
    b: float
    l2_norm: float


def kernel_spec(kind, dimension: int) -> KernelSpec:
    """Build a KernelSpec by kernel name ("gaussian" | "epanechnikov").

    Gaussian: b = 1, a = K at ||t|| = 1, ||K||_2 = (4 pi)^(-d/4).
    Epanechnikov (d=1 only): b = 1/2, a = K(1/2), ||K||_2 = sqrt(3/5), from
    the closed form integral of (0.75 (1 - t^2))^2 over [-1, 1] = 0.6.
    """
    kind = KernelKind(kind)
    if dimension < 1:
        raise ValueError("dimension must be a positive integer")
    if kind is KernelKind.GAUSSIAN:
        return KernelSpec(
            kind=kind, dimension=dimension,
            a=(2.0 * math.pi) ** (-dimension / 2.0) * math.exp(-0.5), b=1.0,
            l2_norm=(4.0 * math.pi) ** (-dimension / 4.0))
    if dimension != 1:
        raise ValueError("the Epanechnikov kernel is only provided for d=1")
    return KernelSpec(kind=kind, dimension=1, a=0.75 * (1.0 - 0.25), b=0.5,
                      l2_norm=math.sqrt(0.6))


def eval_kernel(kernel: KernelSpec, t) -> float:
    """Evaluate K(t) for a point t of length ``kernel.dimension``."""
    t = np.asarray(t, dtype=float)
    if t.ndim == 0:
        t = t.reshape(1)
    if t.shape != (kernel.dimension,):
        raise ValueError(
            f"point has shape {t.shape}, expected ({kernel.dimension},)")
    return float(eval_sq(kernel, np.dot(t, t)))


def eval_sq(kernel: KernelSpec, sq_norms, out=None):
    """Evaluate K at points given by their squared norms ||t||^2.

    Both supported kernels are radial, so this is the single evaluation
    path shared by scalar queries and the batched estimators. The values
    are written into ``out`` when given (it may be ``sq_norms`` itself) and
    into a new array otherwise; both forms run the same operations, so
    they give the same bits.
    """
    sq = np.asarray(sq_norms, dtype=float)
    if out is None:
        out = np.empty_like(sq)
    if kernel.kind is KernelKind.GAUSSIAN:
        np.multiply(-0.5, sq, out=out)
        np.exp(out, out=out)
        return np.multiply((2.0 * math.pi) ** (-kernel.dimension / 2.0), out,
                           out=out)
    # Epanechnikov, d = 1: 0.75 * (1 - t^2) on |t| <= 1, 0 elsewhere
    # (including NaN); the mask is taken before ``out`` may overwrite ``sq``.
    outside = ~(sq <= 1.0)
    np.subtract(1.0, sq, out=out)
    np.multiply(0.75, out, out=out)
    out[outside] = 0.0
    return out


def l2_norm_of(kind, dimension: int) -> float:
    """||K||_2 = (integral of K^2 over R^d)^(1/2) in dimension d."""
    return kernel_spec(kind, dimension).l2_norm


def lower_bound_constants(kind, dimension: int) -> tuple[float, float]:
    """Constants (a, b) with K(t) >= a * 1{||t|| <= b}."""
    spec = kernel_spec(kind, dimension)
    return spec.a, spec.b
