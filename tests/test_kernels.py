import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from selreg.kernels import KernelKind, eval_sq, kernel_spec, shape_sq

TINY = np.finfo(float).smallest_normal


def gaussian_pdf(t, d):
    t = np.atleast_1d(t)
    return (2 * math.pi) ** (-d / 2) * math.exp(-float(t @ t) / 2)


def epanechnikov_pdf(t):
    return 0.75 * (1 - t * t) if abs(t) <= 1 else 0.0


def kernel_at(kernel, t):
    """K(t) at one point t, through the package's squared-norm path."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return float(eval_sq(kernel, t @ t))


class TestEval:
    def test_gaussian_origin(self):
        k = kernel_spec("gaussian", 1)
        assert kernel_at(k, [0.0]) == pytest.approx((2 * math.pi) ** -0.5,
                                                    abs=1e-15)

    def test_gaussian_symmetry_bit_exact(self):
        k = kernel_spec("gaussian", 1)
        assert kernel_at(k, [1.3]) == kernel_at(k, [-1.3])

    def test_epanechnikov_outside_support(self):
        k = kernel_spec("epanechnikov", 1)
        assert kernel_at(k, [1.5]) == 0.0

    def test_matches_reference_formula(self):
        for d in (1, 2, 3):
            k = kernel_spec("gaussian", d)
            rng = np.random.default_rng(5)
            for _ in range(50):
                t = rng.normal(size=d)
                assert kernel_at(k, t) == pytest.approx(gaussian_pdf(t, d),
                                                        rel=1e-14)
        k = kernel_spec("epanechnikov", 1)
        for t in np.linspace(-1.4, 1.4, 29):
            assert kernel_at(k, [t]) == pytest.approx(epanechnikov_pdf(t),
                                                      abs=1e-15)


class TestEvalSqOut:
    # squared norms across the Gaussian's underflow, beyond the Epanechnikov
    # support (> 1) and at infinity, the LOO-CV diagonal
    SQ = np.array([0.0, 1e-300, 0.25, 1.0, 1.0 + 2 ** -52, 4.0, 1416.0,
                   1490.0, 1e4, 1e308, np.inf])

    @pytest.mark.parametrize("kind,d", [("gaussian", 1), ("gaussian", 3),
                                        ("epanechnikov", 1)])
    def test_out_equals_allocating_form_bit_for_bit(self, kind, d):
        k = kernel_spec(kind, d)
        # a matrix, as the LOO-CV blocks are
        sq = np.concatenate([self.SQ, np.linspace(0.0, 3.0, 301)])
        sq = sq.reshape(12, 26)
        alloc = eval_sq(k, sq)
        out = np.full_like(sq, np.nan)
        assert eval_sq(k, sq, out=out) is out
        assert out.tobytes() == alloc.tobytes()
        inplace = sq.copy()  # out may be the input itself
        assert eval_sq(k, inplace, out=inplace) is inplace
        assert inplace.tobytes() == alloc.tobytes()
        # the allocating form is the textbook formula, bit for bit, with the
        # Gaussian values below the smallest normal float set to 0
        if k.kind is KernelKind.GAUSSIAN:
            formula = (2.0 * math.pi) ** (-d / 2.0) * np.exp(-0.5 * sq)
            # 1416 and 1490 give such values, a normal and a subnormal shape
            assert np.any((formula > 0.0) & (formula < TINY))
            formula = np.where(formula >= TINY, formula, 0.0)
        else:
            formula = np.where(sq <= 1.0, 0.75 * (1.0 - sq), 0.0)
        assert alloc.tobytes() == formula.tobytes()
        assert not np.any((alloc > 0.0) & (alloc < TINY))

    @pytest.mark.parametrize("scale", [1.0, 0.37, 25.0])
    @pytest.mark.parametrize("kind,d", [("gaussian", 1), ("gaussian", 3),
                                        ("epanechnikov", 1)])
    def test_shape_out_equals_allocating_form_bit_for_bit(self, kind, d,
                                                          scale):
        k = kernel_spec(kind, d)
        sq = np.concatenate([self.SQ, np.linspace(0.0, 3.0, 301)])
        sq = sq.reshape(12, 26)
        with np.errstate(over="ignore"):  # 1e308 * 25 is inf, g = 0 there
            alloc = shape_sq(k, sq, scale)
            out = np.full_like(sq, np.nan)
            assert shape_sq(k, sq, scale, out=out) is out
            inplace = sq.copy()
            assert shape_sq(k, inplace, scale, out=inplace) is inplace
            u = sq * scale
        assert out.tobytes() == alloc.tobytes()
        assert inplace.tobytes() == alloc.tobytes()
        # the textbook shape g(scale * ||t||^2), with K = K(0) * g, and 0
        # where K(0) * g is below the smallest normal float; halving is
        # exact here, so the order of the two factors keeps the bits
        if k.kind is KernelKind.GAUSSIAN:
            formula = np.exp(-0.5 * u)
            formula = np.where(k.peak * formula >= TINY, formula, 0.0)
        else:
            formula = np.where(u <= 1.0, 1.0 - u, 0.0)
        assert alloc.tobytes() == formula.tobytes()
        assert shape_sq(k, 0.0, scale) == 1.0
        assert k.peak == kernel_at(k, np.zeros(d))

    def test_epanechnikov_shape_is_zero_past_the_support_and_at_nan(self):
        k = kernel_spec("epanechnikov", 1)
        sq = np.array([1.0, 1.0 + 2 ** -52, 2.0, np.inf, np.nan])
        # +0, not -0: the bits are compared, so the sign is too
        assert shape_sq(k, sq).tobytes() == np.zeros(5).tobytes()
        # the last value inside the support and the centre
        inside = shape_sq(k, np.array([1.0 - 2 ** -53, 0.0]))
        assert inside.tobytes() == np.array([2 ** -53, 1.0]).tobytes()
        # scaled: 0.5 * 2 is the edge of the support, just above it is out
        scaled = shape_sq(k, np.array([2.0, 2.0 + 2 ** -51, np.nan]), 0.5)
        assert scaled.tobytes() == np.zeros(3).tobytes()
        assert shape_sq(k, np.array([1.5]), 0.5).tolist() == [0.25]
        assert eval_sq(k, np.array([np.nan, 1.0 + 2 ** -52])).tolist() == [
            0.0, 0.0]


class TestUnderflowFloor:
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_floor_is_the_least_shape_kept(self, d):
        k = kernel_spec("gaussian", d)
        assert k.peak * k.floor >= TINY
        assert k.peak * np.nextafter(k.floor, 0.0) < TINY

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2, 5]), st.floats(0.25, 4.0),
           st.lists(st.floats(1300.0, 1560.0), min_size=1, max_size=40))
    def test_values_across_the_band_are_zero_or_normal(self, d, scale, sq):
        # -0.5 * scale * sq in [-780, -650] runs, at each d, from normal
        # kernel values through the floor and the subnormal range to 0
        k = kernel_spec("gaussian", d)
        sq = np.array(sq) / scale
        shape = shape_sq(k, sq, scale)
        vals = eval_sq(k, sq * scale)
        assert np.all((vals == 0.0) | (vals >= TINY))
        assert np.all((shape == 0.0) | (shape >= k.floor))
        textbook = np.exp(-0.5 * (sq * scale))
        assert shape.tobytes() == np.where(k.peak * textbook >= TINY,
                                           textbook, 0.0).tobytes()
        # the caller's bound only picks the path: the true maximum and a
        # looser one that forces the guarded path give the same bits
        for bound in (sq.max(), 1e300):
            assert shape_sq(k, sq, scale, sq_max=bound).tobytes() == \
                shape.tobytes()

    def test_dimension_whose_peak_is_not_normal_is_refused(self):
        assert kernel_spec("gaussian", 770).peak >= TINY
        with pytest.raises(ValueError, match="smallest normal"):
            kernel_spec("gaussian", 780)


class TestL2Norm:
    def test_gaussian_1d_against_quadrature(self):
        oracle = math.sqrt(integrate.quad(
            lambda t: gaussian_pdf(np.array([t]), 1) ** 2, -10, 10)[0])
        l2_norm = kernel_spec("gaussian", 1).l2_norm
        assert abs(l2_norm - oracle) < 1e-6
        assert l2_norm == pytest.approx(0.531126, abs=1e-6)

    def test_gaussian_2d_against_quadrature(self):
        oracle = math.sqrt(integrate.dblquad(
            lambda y, x: gaussian_pdf(np.array([x, y]), 2) ** 2,
            -8, 8, -8, 8)[0])
        l2_norm = kernel_spec("gaussian", 2).l2_norm
        assert abs(l2_norm - oracle) < 1e-6
        assert l2_norm == pytest.approx(0.282095, abs=1e-6)

    def test_epanechnikov_closed_form(self):
        # integral of (0.75 (1 - t^2))^2 over [-1, 1] is exactly 3/5
        oracle = integrate.quad(lambda t: epanechnikov_pdf(t) ** 2, -1, 1)[0]
        assert oracle == pytest.approx(0.6, abs=1e-12)
        assert kernel_spec("epanechnikov", 1).l2_norm == pytest.approx(
            math.sqrt(0.6), abs=1e-15)

    def test_unsupported_pair(self):
        with pytest.raises(ValueError):
            kernel_spec("epanechnikov", 2)
        with pytest.raises(ValueError):
            kernel_spec("triangle", 1)


class TestLowerBound:
    def test_gaussian_constants(self):
        spec = kernel_spec("gaussian", 1)
        a, b = spec.a, spec.b
        assert b == 1.0
        assert a == pytest.approx(gaussian_pdf(np.array([1.0]), 1), rel=1e-15)
        assert a == pytest.approx(0.2419707, abs=1e-7)
        spec2 = kernel_spec("gaussian", 2)
        a2, b2 = spec2.a, spec2.b
        assert b2 == 1.0
        assert a2 == pytest.approx((2 * math.pi) ** -1 * math.exp(-0.5),
                                   rel=1e-15)
        assert a2 == pytest.approx(0.0965324, abs=1e-7)

    def test_epanechnikov_constants(self):
        spec = kernel_spec("epanechnikov", 1)
        a, b = spec.a, spec.b
        assert (a, b) == (0.5625, 0.5)
        assert a == epanechnikov_pdf(0.5)


class TestInvariants:
    @pytest.mark.parametrize("kind,d", [("gaussian", 1), ("gaussian", 2),
                                        ("epanechnikov", 1)])
    def test_lower_bound_holds_exactly(self, kind, d):
        k = kernel_spec(kind, d)
        rng = np.random.default_rng(99)
        count = 0
        while count < 10_000:
            t = rng.uniform(-k.b, k.b, size=d)
            if float(t @ t) > k.b * k.b:
                continue
            count += 1
            assert kernel_at(k, t) >= k.a

    @pytest.mark.parametrize("kind,d", [("gaussian", 1), ("gaussian", 3),
                                        ("epanechnikov", 1)])
    def test_symmetry_bit_exact(self, kind, d):
        k = kernel_spec(kind, d)
        rng = np.random.default_rng(7)
        t = rng.normal(scale=1.5, size=(10_000, d))
        for row in t:
            assert kernel_at(k, row) == kernel_at(k, -row)

    @pytest.mark.parametrize("d", [1, 2])
    def test_gaussian_exponential_tail(self, d):
        # envelope R_K e^{-r_K ||t||} with R_K = (2 pi)^{-d/2} e^{1/2}, r_K = 1/2
        k = kernel_spec("gaussian", d)
        rng = np.random.default_rng(3)
        r_k = (2 * math.pi) ** (-d / 2) * math.exp(0.5)
        for _ in range(2000):
            t = rng.normal(scale=3.0, size=d)
            norm = math.sqrt(float(t @ t))
            assert kernel_at(k, t) <= r_k * math.exp(-0.5 * norm) * (1 + 1e-12)

    def test_unit_mass_1d(self):
        for kind in ("gaussian", "epanechnikov"):
            k = kernel_spec(kind, 1)
            mass = integrate.quad(lambda t: kernel_at(k, [t]), -10, 10)[0]
            assert abs(mass - 1.0) < 1e-6

    def test_unit_mass_2d(self):
        k = kernel_spec("gaussian", 2)
        mass = integrate.dblquad(lambda y, x: kernel_at(k, [x, y]),
                                 -8, 8, -8, 8)[0]
        assert abs(mass - 1.0) < 1e-6

    def test_l2_matches_quadrature_of_eval(self):
        for kind in ("gaussian", "epanechnikov"):
            k = kernel_spec(kind, 1)
            sq = integrate.quad(lambda t: kernel_at(k, [t]) ** 2, -10, 10)[0]
            assert abs(k.l2_norm ** 2 - sq) < 1e-6

    def test_spec_kind_accepts_enum_and_string(self):
        assert kernel_spec(KernelKind.GAUSSIAN, 1) == kernel_spec("gaussian", 1)
