"""Smoothing kernels and their analytic constants.

Both kernels are radial, K(t) = K(0) * g(||t||^2) with shape g(0) = 1,
symmetric, integrate to one, and admit a lower bound of the form
K(t) >= a * 1{||t|| <= b}; the pair (a, b) and the L2 norm
||K||_2 = (integral of K^2)^(1/2) feed the density gate and the variance
test of the abstention rule.

A kernel value is either 0 or at least the smallest normal float: where
K(0) * g would fall below it, the Gaussian shape is written as exactly 0.
Masses and weights built from these values never rest on a few subnormal
ulps, and ``exp`` never runs its slow subnormal lanes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

_SMALLEST_NORMAL = float(np.finfo(float).smallest_normal)


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
    floor : float
        The smallest shape value kept: the least g with K(0) * g at least
        the smallest normal float. Smaller shapes are written as 0.
    """

    kind: KernelKind
    dimension: int
    a: float
    b: float
    l2_norm: float
    peak: float
    floor: float


def _shape_floor(peak: float) -> float:
    """The least float g whose product K(0) * g rounds to a normal float."""
    g = _SMALLEST_NORMAL / peak
    while peak * g < _SMALLEST_NORMAL:
        g = math.nextafter(g, math.inf)
    while peak * math.nextafter(g, 0.0) >= _SMALLEST_NORMAL:
        g = math.nextafter(g, 0.0)
    return g


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
        if peak < _SMALLEST_NORMAL:  # every kernel value would be 0
            raise ValueError(f"the Gaussian kernel at d={dimension} has "
                             f"K(0) = {peak!r} below the smallest normal float")
        return KernelSpec(kind, dimension, a=peak * math.exp(-0.5), b=1.0,
                          l2_norm=(4.0 * math.pi) ** (-dimension / 4.0),
                          peak=peak, floor=_shape_floor(peak))
    if dimension != 1:
        raise ValueError("the Epanechnikov kernel is only provided for d=1")
    peak = 0.75
    return KernelSpec(kind, 1, a=peak * (1.0 - 0.25), b=0.5,
                      l2_norm=math.sqrt(0.6), peak=peak,
                      floor=_shape_floor(peak))


def shape_sq(kernel: KernelSpec, sq_norms, scale=1.0, out=None, sq_max=None):
    """The shape g(scale * ||t||^2) at points given by their squared norms.

    Gaussian: exp(-0.5 * scale * ||t||^2), one multiply and one exp, and 0
    wherever that is below ``kernel.floor``. Where the largest squared norm
    keeps every value above the floor (by a relative 1e-9, to spare exp's
    rounding), those two passes are all. Otherwise ``_exp_above_floor``
    takes the exp, never in its slow subnormal lanes; the values kept are
    the same bits on both paths. ``sq_max`` is the largest of ``sq_norms``
    other than +inf (which gives 0 on either path), for callers that know
    it; it is computed here when None.
    Epanechnikov: max(1 - scale * ||t||^2, 0), so 0 outside the support
    (NaN counts as outside); its nonzero values are at least 2^-53, far
    above the floor.
    The values are written into ``out`` when given (it may be ``sq_norms``
    itself) and into a new array otherwise; both forms run the same
    operations, so they give the same bits.
    """
    sq = np.asarray(sq_norms, dtype=float)
    if out is None:
        out = np.empty_like(sq)
    if kernel.kind is KernelKind.GAUSSIAN:
        if sq_max is None:
            sq_max = np.maximum.reduce(sq, axis=None) if sq.size else 0.0
        np.multiply(sq, -0.5 * scale, out=out)
        # the least argument is at the largest squared norm; NaN fails the
        # test and takes the guarded path, which keeps NaN
        if -0.5 * scale * float(sq_max) >= math.log(kernel.floor) + 1e-9:
            return np.exp(out, out=out)
        return _exp_above_floor(out, kernel.floor)
    np.multiply(sq, scale, out=out)
    # fmax returns the operand that is not NaN, so NaN gives 0 as well
    return np.fmax(np.subtract(1.0, out, out=out), 0.0, out=out)


def _exp_above_floor(arg, floor):
    """exp(arg) in place, with 0 wherever it is below ``floor``.

    Arguments below ln(floor) - 1/2 are raised to it first. The Gaussian
    K(0) is at most (2 pi)^(-1/2), about e^-0.92, so ln(floor) - 1/2 lies
    above ln(smallest normal float): exp is normal there, yet below the
    floor. exp thus never takes its slow subnormal lanes, and the raised
    lanes are set to 0 with the others below the floor.
    """
    np.maximum(arg, math.log(floor) - 0.5, out=arg)
    np.exp(arg, out=arg)
    np.copyto(arg, 0.0, where=arg < floor)
    return arg


def eval_sq(kernel: KernelSpec, sq_norms, scale=1.0, out=None):
    """K = K(0) * g(scale * ||t||^2) at points given by their squared norms.

    The one path of scalar queries and batched estimators; ``scale`` and
    ``out`` work as in ``shape_sq``, whose scale-1 operations are the
    textbook formula's, with values below the floor set to 0. Every nonzero
    K is thus at least the smallest normal float.
    """
    shape = shape_sq(kernel, sq_norms, scale, out)
    return np.multiply(kernel.peak, shape, out=shape)
