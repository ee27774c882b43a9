"""Standard-normal CDF and quantile function.

The quantile (inverse CDF) is the only special function the abstention test
needs, so it is implemented directly instead of pulling in a numerics
dependency: Acklam's rational approximation followed by one Halley
refinement step against the erfc-based CDF. Absolute CDF round-trip error
is well below 1e-12 on (0, 1).
"""

from __future__ import annotations

import math

import numpy as np

_SQRT2 = math.sqrt(2.0)

# Acklam's inverse normal CDF coefficients (central and tail regions).
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)

_P_LOW = 0.02425
_P_HIGH = 1.0 - _P_LOW


def normal_cdf(z):
    """Standard normal CDF Phi(z) = erfc(-z / sqrt(2)) / 2.

    Accepts a float or an ndarray; returns the same shape.
    """
    arr = np.asarray(z, dtype=float)
    if arr.ndim == 0:
        return 0.5 * math.erfc(-float(arr) / _SQRT2)
    flat = arr.ravel()
    out = np.fromiter((0.5 * math.erfc(-v / _SQRT2) for v in flat),
                      dtype=float, count=flat.size)
    return out.reshape(arr.shape)


def _normal_pdf(z):
    return np.exp(-0.5 * np.square(z)) / math.sqrt(2.0 * math.pi)


def _tail(q: np.ndarray) -> np.ndarray:
    """Acklam's lower-tail approximation, for levels q < _P_LOW."""
    r = np.sqrt(-2.0 * np.log(q))
    num = ((((_C[0] * r + _C[1]) * r + _C[2]) * r + _C[3]) * r + _C[4]) * r + _C[5]
    den = (((_D[0] * r + _D[1]) * r + _D[2]) * r + _D[3]) * r + 1.0
    return num / den


def _acklam(q: np.ndarray) -> np.ndarray:
    z = np.empty_like(q)

    lo = q < _P_LOW
    hi = q > _P_HIGH
    mid = ~(lo | hi)

    r = q[mid] - 0.5
    s = r * r
    num = ((((_A[0] * s + _A[1]) * s + _A[2]) * s + _A[3]) * s + _A[4]) * s + _A[5]
    den = ((((_B[0] * s + _B[1]) * s + _B[2]) * s + _B[3]) * s + _B[4]) * s + 1.0
    z[mid] = r * num / den
    z[lo] = _tail(q[lo])
    z[hi] = -_tail(1.0 - q[hi])
    return z


def normal_quantile(q):
    """Quantile z_q of the standard normal, Phi(z_q) = q, for q in (0, 1).

    Accepts a float or an ndarray. Raises ValueError outside (0, 1).
    Exact at q = 0.5 (returns 0.0).
    """
    arr = np.asarray(q, dtype=float)
    if arr.size and not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("quantile level must lie strictly inside (0, 1)")

    flat = np.atleast_1d(arr).astype(float).ravel()
    z = _acklam(flat)
    # One Halley step: with e = Phi(z) - q and u = e / phi(z),
    # z <- z - u / (1 + z * u / 2).
    e = normal_cdf(z) - flat
    u = e / _normal_pdf(z)
    z = z - u / (1.0 + 0.5 * z * u)

    if arr.ndim == 0:
        return float(z[0])
    return z.reshape(arr.shape)
