from unittest import mock

import numpy as np
import pytest

from priorscan.chain_runtime import segment_tours
from priorscan.models.normal_hier import (
    PILOT,
    PILOT_SEED,
    MHKernel,
    NormalHierModel,
    mh_ensemble_traces,
    normal_hier_spec,
)
from priorscan.prior_family import ExpFamilyRatio

H1 = [0.0, 1.0]


class TestSpec:
    def test_consistency(self):
        spec = normal_hier_spec(5)
        spec.check_consistency(np.array([0.3, 1.7]))

    def test_canon_and_norm(self):
        spec = normal_hier_spec(3)
        # omega = (mu/tau^2, -1/(2 tau^2)); A = J(mu^2/(2 tau^2) + log(2 pi tau^2)/2)
        om = np.asarray(spec.canon([1.0, 2.0]))
        assert np.allclose(om, [0.5, -0.25])
        A = float(spec.log_norm([1.0, 2.0]))
        assert A == pytest.approx(
            3 * (1.0 / 4.0 + 0.5 * np.log(4.0 * np.pi)), rel=1e-12)

    def test_log_norm_canon_inverse(self):
        spec = normal_hier_spec(4)
        for h in ([0.0, 1.0], [-0.7, 0.5], [0.9, 2.6]):
            assert float(spec.log_norm_canon(np.asarray(spec.canon(h)))) == \
                pytest.approx(float(spec.log_norm(h)), rel=1e-12)


class TestOracles:
    def test_posterior_params_balanced(self, toy_model):
        # symmetric data, prior mean 0: posterior means are shrunk y values
        mean, sd = toy_model.posterior_params([0.0, 1.0])
        assert np.allclose(mean, toy_model.y / 2.0)
        assert sd == pytest.approx(np.sqrt(0.5))

    def test_oracle_B_at_h1(self, toy_model):
        assert toy_model.oracle_B(H1, H1) == pytest.approx(1.0, rel=1e-12)

    def test_oracle_argmax(self, toy_model):
        h_star = toy_model.oracle_argmax()
        assert np.allclose(h_star, [0.0, 1.0], atol=1e-6)
        # it really is a maximum of the log marginal
        base = toy_model.log_marginal(h_star)
        for dh in ([0.05, 0.0], [-0.05, 0.0], [0.0, 0.05], [0.0, -0.05]):
            assert toy_model.log_marginal(h_star + np.array(dh)) < base

    def test_oracle_I_theta1_at_h1(self, toy_model):
        mean, _ = toy_model.posterior_params(H1)
        assert toy_model.oracle_I_theta1(H1) == pytest.approx(mean[0], rel=1e-12)

    def test_observe(self, toy_model):
        theta = np.array([1.0, -1.0, 2.0, 0.0, 0.5])
        T, g = toy_model.observe(theta)
        assert np.allclose(T, [theta.sum(), (theta ** 2).sum()])
        assert g == {"theta1": 1.0}


class TestExactSampler:
    def test_trace_shape(self, toy_trace):
        assert toy_trace.Tmat.shape == (20000, 2)
        assert toy_trace.delta.all() and toy_trace.ends_at_regen

    def test_moments(self, toy_model, toy_trace):
        mean, sd = toy_model.posterior_params(H1)
        var = sd ** 2
        g = toy_trace.functional("theta1")
        n = toy_trace.n
        assert abs(g.mean() - mean[0]) < 4 * np.sqrt(var / n)
        assert abs(g.var() - var) < 4 * var * np.sqrt(2.0 / n)

    def test_determinism(self, toy_model):
        a = toy_model.exact_trace(H1, n=100, seed=3)
        b = toy_model.exact_trace(H1, n=100, seed=3)
        assert np.array_equal(a.Tmat, b.Tmat)


class TestMHKernel:
    def test_moments_match_exact(self, toy_model):
        trace = toy_model.mh_trace(H1, n=30000, seed=41)
        mean, sd = toy_model.posterior_params(H1)
        var = sd ** 2
        g = trace.functional("theta1")
        # MH draws are dependent; allow a generous (but bounded) tolerance
        assert abs(g.mean() - mean[0]) < 10 * np.sqrt(var / trace.n)
        assert g.var() == pytest.approx(var, rel=0.1)

    def test_regen_rate_stable_across_seeds(self, toy_model):
        rates = []
        for seed in range(5):
            tr = toy_model.mh_trace(H1, n=5000, seed=seed)
            rates.append(tr.delta.mean())
        rates = np.array(rates)
        assert rates.min() > 0.005         # regenerations actually happen
        assert np.ptp(rates) < 0.75 * rates.mean()

    def test_split_chain_moments(self, toy_model):
        # averaging within complete tours must reproduce posterior moments
        trace = toy_model.mh_trace(H1, R=2000, seed=13)
        tours = segment_tours(trace)
        g = trace.functional("theta1")[:tours.n_eff]
        mean, sd = toy_model.posterior_params(H1)
        se = sd / np.sqrt(tours.n_eff) * 3.0    # crude iid-equivalent scale
        assert abs(g.mean() - mean[0]) < 4 * se

    def test_r_target(self, toy_model):
        trace = toy_model.mh_trace(H1, R=50, seed=2)
        assert trace.ends_at_regen
        assert segment_tours(trace).R == 50

    @pytest.mark.parametrize("h1", [[0.0, 1.0], [0.5, 2.0], [-1.0, 0.3]])
    def test_splitting_constant_is_the_pilot_median(self, toy_model, h1):
        kernel = toy_model.mh_kernel(h1)
        rng = np.random.default_rng(PILOT_SEED)
        draws = kernel.mean + kernel.prop_sd * rng.standard_normal((PILOT, toy_model.J))
        assert kernel.log_c == np.log(float(np.exp(np.median(kernel._log_w(draws)))))

    def test_nan_pilot_weight_raises(self, toy_model):
        def log_w(self, theta):
            lw = np.zeros(theta.shape[0])
            lw[7] = np.nan
            return lw

        with mock.patch.object(MHKernel, "_log_w", log_w):
            with pytest.raises(ValueError, match="positive, got nan"):
                toy_model.mh_kernel(H1)


class TestEnsemble:
    def test_matches_single_chain_distribution(self, toy_model):
        traces = mh_ensemble_traces(toy_model, H1, n=2000, n_chains=8, seed=5)
        assert len(traces) == 8
        mean, sd = toy_model.posterior_params(H1)
        means = np.array([tr.functional("theta1").mean() for tr in traces])
        assert abs(means.mean() - mean[0]) < 12 * sd / np.sqrt(8 * 2000)
        # chains are mutually distinct
        assert len({tr.Tmat[0, 0] for tr in traces}) == 8

    def test_deterministic(self, toy_model):
        a = mh_ensemble_traces(toy_model, H1, n=300, n_chains=3, seed=9)
        b = mh_ensemble_traces(toy_model, H1, n=300, n_chains=3, seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x.Tmat, y.Tmat)
            assert np.array_equal(x.delta, y.delta)


class TestEndToEnd:
    def test_estimates_recover_oracles(self, toy_model, toy_trace):
        fam = ExpFamilyRatio(toy_model.spec(), H1)
        from priorscan.estimators import estimate_B, estimate_I
        for h in ([0.5, 1.5], [-0.3, 0.8], [0.0, 2.0]):
            assert estimate_B(toy_trace, fam, h) == pytest.approx(
                toy_model.oracle_B(h, H1), rel=0.1)
            assert estimate_I(toy_trace, fam, "theta1", h) == pytest.approx(
                toy_model.oracle_I_theta1(h), abs=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            NormalHierModel(y=np.empty(0))
