import numpy as np
import pytest
from scipy import special

from selreg.normal import normal_cdf, normal_quantile

# Frozen from a 50-digit bisection on the exact normal CDF (mpmath.ncdf).
Z_95 = 1.6448536269514727
Z_975 = 1.9599639845400542


def phi_oracle(z):
    """Independent CDF for round-trip checks."""
    return special.ndtr(z)


def bisect_oracle(q, iters=80):
    """Vectorized bisection for z with Phi(z) = q, on the scipy CDF."""
    q = np.asarray(q, dtype=float)
    lo = np.full_like(q, -20.0)
    hi = np.full_like(q, 20.0)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = phi_oracle(mid) < q
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def test_median_is_exactly_zero():
    assert normal_quantile(0.5) == 0.0


def test_frozen_quantiles():
    assert normal_quantile(0.95) == pytest.approx(Z_95, abs=1e-9)
    assert normal_quantile(0.975) == pytest.approx(Z_975, abs=1e-9)


def test_grid_roundtrip_and_bisection():
    q = np.linspace(0.001, 0.999, 999)
    z = normal_quantile(q)
    assert np.max(np.abs(phi_oracle(z) - q)) <= 1e-8
    assert np.max(np.abs(z - bisect_oracle(q))) <= 1e-8


def test_strictly_increasing_on_grid():
    q = np.linspace(0.001, 0.999, 999)
    z = normal_quantile(q)
    assert np.all(np.diff(z) > 0.0)


def test_antisymmetry():
    for q in np.arange(0.01, 0.50, 0.01):
        assert normal_quantile(q) == pytest.approx(-normal_quantile(1.0 - q),
                                                   abs=1e-10)


def test_tail_accuracy():
    for q in (1e-12, 1e-9, 1 - 1e-9, 1 - 1e-12):
        z = normal_quantile(q)
        assert abs(phi_oracle(z) - q) <= 1e-8


def test_upper_tail_relative_accuracy():
    # levels near 1 give the variance test's z_{1-beta} and the upper noise
    # tail; the CDF round trip above cannot see a 1e-9 relative error there
    q = 1.0 - np.logspace(-15, -2, 131)
    ref = special.ndtri(q)
    assert np.all(np.abs(normal_quantile(q) - ref) <= 1e-14 * np.abs(ref))


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7, float("nan")])
def test_rejects_levels_outside_unit_interval(bad):
    with pytest.raises(ValueError):
        normal_quantile(bad)


def test_array_input_matches_scalars():
    q = np.array([0.1, 0.5, 0.9])
    z = normal_quantile(q)
    assert z.shape == (3,)
    assert all(z[i] == normal_quantile(float(q[i])) for i in range(3))


def test_cdf_matches_independent_implementation():
    z = np.linspace(-8.0, 8.0, 101)
    assert np.max(np.abs(normal_cdf(z) - phi_oracle(z))) < 1e-14
