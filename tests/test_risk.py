import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selreg import (AbstentionConfig, SyntheticSpec, Uniform,
                    conditional_chow_risk, kernel_spec, mean_quadratic,
                    monte_carlo_expected_excess, oracle_risk,
                    pointwise_excess, synthetic_sampler)
from selreg.abstention import decide
from selreg.data import derive_seed
from selreg.estimators import (default_bandwidth_grid, loocv_bandwidth,
                               select_bandwidth_loocv)
from selreg.experiments import HPolicy
from selreg.risk import oracle_abstains


class TestOracleRisk:
    @pytest.mark.parametrize("sigma2,lam,expect", [
        (0.25, 0.36, 0.25),
        (0.70, 0.36, 0.36),
        (0.36, 0.36, 0.36),
    ])
    def test_min_of_variance_and_cost(self, sigma2, lam, expect):
        assert oracle_risk(sigma2, lam) == expect

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            oracle_risk(-0.1, 0.36)
        with pytest.raises(ValueError):
            oracle_risk(0.1, 0.0)

    def test_oracle_abstains_boundary(self):
        assert oracle_abstains(0.36, 0.36)
        assert not oracle_abstains(0.3599, 0.36)


class TestConditionalChowRisk:
    def test_reject_pays_lambda(self):
        assert conditional_chow_risk(123.0, False, 1.0, 0.25, 0.36) == 0.36

    def test_accept_with_exact_mean(self):
        assert conditional_chow_risk(1.0, True, 1.0, 0.25, 0.36) == 0.25

    def test_accept_matches_monte_carlo_oracle(self):
        # E (Y - 1.2)^2 with Y ~ N(1, 0.25): closed form 0.25 + 0.04 = 0.29
        closed = conditional_chow_risk(1.2, True, 1.0, 0.25, 0.36)
        rng = np.random.default_rng(1234)
        draws = (rng.normal(1.0, 0.5, size=1_000_000) - 1.2) ** 2
        stderr = draws.std(ddof=1) / 1000.0
        assert closed == pytest.approx(0.29, abs=1e-15)
        assert abs(draws.mean() - closed) <= 3 * stderr


class TestPointwiseExcess:
    def test_zero_when_matching_oracle_with_exact_mean(self):
        # sigma2 = 0.64 >= lambda -> abstain; sigma2 = 0.16 < lambda -> accept
        assert pointwise_excess(2.0, False, 2.0, 0.64, 0.36) == 0.0
        assert pointwise_excess(2.0, True, 2.0, 0.16, 0.36) == 0.0

    def test_wrong_accept_in_noisy_region(self):
        # sigma2 = 0.64 > lambda = 0.36, accepted with bias 0.1
        got = pointwise_excess(1.1, True, 1.0, 0.64, 0.36)
        assert got == pytest.approx(0.01 + 0.28, abs=1e-15)

    def test_wrong_reject_in_quiet_region(self):
        # sigma2 = 0.16 < lambda = 0.36, rejected
        got = pointwise_excess(5.0, False, 1.0, 0.16, 0.36)
        assert got == pytest.approx(0.20, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 3.0), st.floats(0.01, 2.0), st.floats(-3, 3),
           st.floats(-3, 3), st.booleans())
    def test_decomposition_identity(self, sigma2, lam, f, f_hat, accept):
        chow = conditional_chow_risk(f_hat, accept, f, sigma2, lam)
        excess = pointwise_excess(f_hat, accept, f, sigma2, lam)
        assert excess >= 0.0
        assert abs((chow - oracle_risk(sigma2, lam)) - excess) <= 1e-12

    def test_oracle_optimality_over_noise_draws(self):
        # any fixed rule's Monte-Carlo Chow risk dominates the oracle risk
        rng = np.random.default_rng(7)
        for sigma2 in (0.1, 0.36, 0.9):
            for accept in (True, False):
                f_hat = 0.5 + rng.normal(scale=0.2)
                if accept:
                    sq = (rng.normal(0.5, math.sqrt(sigma2), size=10_000)
                          - f_hat) ** 2
                    mc = sq.mean()
                    stderr = sq.std(ddof=1) / 100.0
                else:
                    mc, stderr = 0.36, 0.0
                assert mc >= oracle_risk(sigma2, 0.36) - 3 * stderr


class TestMonteCarlo(object):
    def run(self, sigmoid_spec, **kw):
        kernel = kernel_spec("gaussian", 1)
        args = dict(spec=sigmoid_spec, n=80,
                    cfgs=[AbstentionConfig(lam=0.36, beta=0.05)],
                    fit_rule=HPolicy("fixed", h=0.35).fit_rule(kernel),
                    x_grid=[-1.6, -0.5, 0.3, 0.8, 1.6], replicates=30,
                    seed=321)
        args.update(kw)
        return monte_carlo_expected_excess(**args)

    def test_deterministic_given_seed(self, sigmoid_spec):
        first = self.run(sigmoid_spec)
        second = self.run(sigmoid_spec)
        assert all(np.array_equal(getattr(first, f.name),
                                  getattr(second, f.name))
                   for f in dataclasses.fields(first))

    def test_seed_changes_results(self, sigmoid_spec):
        first = self.run(sigmoid_spec)
        second = self.run(sigmoid_spec, seed=322)
        assert np.any(first.expected_excess != second.expected_excess)

    def test_report_shape_and_ranges(self, sigmoid_spec):
        rep = self.run(sigmoid_spec)
        assert rep.expected_excess.shape == (1, 5)
        assert rep.mc_stderr.shape == rep.accept_fraction.shape == (1, 5)
        assert rep.h.shape == (30,)
        assert np.all((0.0 <= rep.accept_fraction) & (rep.accept_fraction <= 1.0))
        assert np.all(rep.expected_excess >= 0.0)
        assert np.all(rep.mc_stderr >= 0.0)

    def test_zero_noise_single_replicate(self, gauss1d):
        spec = SyntheticSpec(covariate_dists=(Uniform(-2, 2),),
                             mean_fn=mean_quadratic,
                             sd_fn=lambda x: 0.0 * np.asarray(x),
                             n=50, seed=0)
        rep = monte_carlo_expected_excess(
            spec, 50, [AbstentionConfig(lam=0.36, beta=0.05)],
            HPolicy("fixed", h=0.3).fit_rule(gauss1d), [0.0], replicates=1,
            seed=5)
        assert rep.accept_fraction[0, 0] in (0.0, 1.0)
        assert rep.expected_excess[0, 0] >= 0.0
        assert rep.mc_stderr[0, 0] == 0.0

    def test_matches_chow_minus_oracle_identity(self, sigmoid_spec, gauss1d):
        # recompute E[chow] - oracle by hand on the same replicate stream;
        # the decomposition makes the two aggregates identical
        cfg = AbstentionConfig(lam=0.36, beta=0.05)
        rule = HPolicy("fixed", h=0.35).fit_rule(gauss1d)
        sampler = synthetic_sampler(sigmoid_spec)
        grid = [-1.6, -0.5, 0.3, 0.8, 1.6]
        report = self.run(sigmoid_spec, replicates=50)
        for i, x in enumerate(grid):
            mean, sd = sigmoid_spec.truth([[x]])
            sigma2 = np.square(sd[0])
            chows, accepts = [], []
            for r in range(50):
                ds = sampler(80, derive_seed(321, r))
                fit = rule(ds)
                decision = decide(fit, [x], cfg)
                chows.append(conditional_chow_risk(
                    decision.eval.f_hat, decision.accepted, mean[0], sigma2,
                    cfg.lam))
                accepts.append(decision.accepted)
            oracle = oracle_risk(sigma2, cfg.lam)
            assert np.mean(chows) - oracle == pytest.approx(
                report.expected_excess[0, i], abs=1e-12)
            assert report.accept_fraction[0, i] == np.mean(accepts)

    def test_h_is_each_replicates_loocv_pick(self, sigmoid_spec, gauss1d):
        report = self.run(sigmoid_spec, fit_rule=loocv_bandwidth(gauss1d),
                          replicates=6)
        sampler = synthetic_sampler(sigmoid_spec)
        picks = []
        for r in range(6):
            ds = sampler(80, derive_seed(321, r))
            picks.append(select_bandwidth_loocv(ds, gauss1d,
                                                default_bandwidth_grid(ds)))
        assert len(set(picks)) > 1  # replicates must not share one h
        assert report.h.tolist() == picks

    def test_methods_share_replicates(self, sigmoid_spec):
        testing = AbstentionConfig(lam=0.36, beta=0.05)
        plugin = AbstentionConfig(lam=0.36, beta=0.5)
        both = self.run(sigmoid_spec, cfgs=[testing, plugin])
        for c, cfg in enumerate((testing, plugin)):
            alone = self.run(sigmoid_spec, cfgs=[cfg])
            for name in ("expected_excess", "mc_stderr", "accept_fraction"):
                assert np.array_equal(getattr(both, name)[c],
                                      getattr(alone, name)[0])
            assert np.array_equal(both.h, alone.h)

    def test_rejects_bad_arguments(self, sigmoid_spec):
        with pytest.raises(ValueError):
            self.run(sigmoid_spec, replicates=0)
        with pytest.raises(ValueError):
            self.run(sigmoid_spec, x_grid=[])


def test_array_scores_equal_per_element_float_scores(sigmoid_spec):
    # the risk functions are elementwise: an 81-point grid scored at once
    # gives the same bits as 81 calls on floats
    grid = np.linspace(-2.0, 2.0, 81)
    mean, sd = sigmoid_spec.truth(grid[:, None])
    sigma2 = np.square(sd)
    f_hat = mean + np.linspace(-0.3, 0.3, 81)
    accepted = np.arange(81) % 3 != 0
    for fn in (conditional_chow_risk, pointwise_excess):
        batch = fn(f_hat, accepted, mean, sigma2, 0.36)
        single = [float(fn(float(f), bool(a), float(m), float(s2), 0.36))
                  for f, a, m, s2 in zip(f_hat, accepted, mean, sigma2)]
        assert batch.shape == (81,)
        assert np.array_equal(batch, single)


def test_chow_accept_nan_never_reaches_excess(gauss1d):
    # an accepted decision always carries a finite estimate, so the excess
    # bias term is only evaluated on finite f_hat
    value = pointwise_excess(float("nan"), False, 0.0, 0.1 ** 2, 0.36)
    assert value == abs(0.1 ** 2 - 0.36)
