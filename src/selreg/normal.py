"""Standard-normal CDF and quantile function, elementwise on floats or arrays.

The quantile (inverse CDF) is the only special function the abstention test
needs. It is the standard library's ``statistics.NormalDist().inv_cdf``
(Wichura's AS241, relative error near 1e-16 on (0, 1)). The CDF is
erfc(-z / sqrt(2)) / 2 rather than the stdlib's 0.5 * (1 + erf), which
cancels in the lower tail. Both run per element in plain Python, so their
values do not depend on which SIMD loops numpy picks for the CPU.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

_SQRT2 = math.sqrt(2.0)
_INV_CDF = NormalDist().inv_cdf


def _elementwise(fn, values):
    """fn on a float (returns a float) or on each element of an array."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        return fn(float(arr))
    return np.fromiter(map(fn, arr.ravel().tolist()), dtype=float,
                       count=arr.size).reshape(arr.shape)


def normal_cdf(z):
    """Standard normal CDF Phi(z) = erfc(-z / sqrt(2)) / 2.

    Accepts a float or an ndarray; returns the same shape.
    """
    return _elementwise(lambda v: 0.5 * math.erfc(-v / _SQRT2), z)


def normal_quantile(q):
    """Quantile z_q of the standard normal, Phi(z_q) = q, for q in (0, 1).

    Accepts a float or an ndarray. Raises ValueError outside (0, 1).
    Exact at q = 0.5 (returns 0.0).
    """
    arr = np.asarray(q, dtype=float)
    if arr.size and not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("quantile level must lie strictly inside (0, 1)")
    return _elementwise(_INV_CDF, arr)
