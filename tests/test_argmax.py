import json

import numpy as np
import pytest

from priorscan.argmax_inference import (
    ArgmaxReport,
    batch_argmax_cov,
    confidence_ellipse,
    hessian_Jn,
    maximize_surface,
    tau_n_sq,
    v_n_sq,
)
from priorscan.chain_runtime import segment_tours, tour_sums
from priorscan.estimators import estimate_B
from priorscan.prior_family import ExpFamilyRatio, HyperRect, fd_hess

H1 = [0.0, 1.0]


@pytest.fixture(scope="module")
def fam(toy_model):
    return ExpFamilyRatio(toy_model.spec(), H1)


@pytest.fixture(scope="module")
def mh_pieces(toy_model):
    trace = toy_model.mh_trace(H1, R=800, seed=21)
    tours = segment_tours(trace)
    fam = ExpFamilyRatio(toy_model.spec(), H1)
    res = maximize_surface(trace, fam, HyperRect([-1.0, 0.3], [1.0, 3.0]),
                           grid_points=9, multi_starts=2)
    ts = tour_sums(trace, tours, fam, res.h)
    return trace, tours, fam, res, ts


class TestMaximizeSurface:
    def test_near_oracle_argmax(self, toy_trace, fam, toy_rect, toy_model):
        res = maximize_surface(toy_trace, fam, toy_rect, multi_starts=2)
        assert np.linalg.norm(res.h - toy_model.oracle_argmax()) < 0.15
        assert not res.boundary
        assert res.multistart_consistent

    def test_log_value_matches_estimate(self, toy_trace, fam, toy_rect):
        res = maximize_surface(toy_trace, fam, toy_rect, grid_points=5,
                               multi_starts=0)
        assert res.log_value == pytest.approx(
            np.log(estimate_B(toy_trace, fam, res.h)), abs=1e-10)

    def test_result_in_rect(self, toy_trace, fam, toy_rect):
        res = maximize_surface(toy_trace, fam, toy_rect, grid_points=3,
                               multi_starts=3)
        assert toy_rect.contains(res.h)

    def test_boundary_flag(self, toy_trace, fam):
        # a rectangle that excludes the interior optimum forces a boundary hit
        rect = HyperRect([0.5, 2.0], [1.0, 3.0])
        res = maximize_surface(toy_trace, fam, rect, grid_points=5,
                               multi_starts=0)
        assert res.boundary

    def test_array_protocol(self, toy_trace, fam, toy_rect):
        res = maximize_surface(toy_trace, fam, toy_rect, grid_points=3,
                               multi_starts=0)
        assert np.asarray(res).shape == (2,)

    def test_deterministic(self, toy_trace, fam, toy_rect):
        a = maximize_surface(toy_trace, fam, toy_rect, grid_points=5,
                             multi_starts=4, seed=3)
        b = maximize_surface(toy_trace, fam, toy_rect, grid_points=5,
                             multi_starts=4, seed=3)
        assert np.array_equal(a.h, b.h)


class TestSandwich:
    def test_Jn_matches_fd_of_logB(self, mh_pieces):
        trace, tours, fam, res, ts = mh_pieces
        J = hessian_Jn(ts)
        assert np.allclose(J, J.T)

        # J_n is the Hessian of B_n (not log B_n) divided by B_n-free scale:
        # here check against a finite-difference Hessian of B_n itself.
        def Bn(h):
            return estimate_B(trace, fam, h)

        H = fd_hess(Bn, res.h)
        assert np.allclose(J, H, rtol=1e-3, atol=1e-4)

    def test_Jn_negative_definite_at_argmax(self, mh_pieces):
        _, _, _, _, ts = mh_pieces
        evals = np.linalg.eigvalsh(hessian_Jn(ts))
        assert np.all(evals < 0.0)

    def test_tau_iid_reduction(self, toy_model, fam):
        # iid trace: every tour has length 1 so tau^2 reduces to the sample
        # covariance (over draws) of grad f_h, divided by nothing extra.
        trace = toy_model.exact_trace(H1, n=4000, seed=5)
        tours = segment_tours(trace)
        h = np.array([0.2, 1.3])
        ts = tour_sums(trace, tours, fam, h)
        tau = tau_n_sq(ts)
        grads = ts.gradS * np.exp(ts.log_scale)
        expect = np.cov(grads.T, ddof=0) * (tours.R - 0) / tours.R
        assert np.allclose(tau, expect, rtol=1e-8)

    def test_v_scaling(self, mh_pieces):
        _, _, _, _, ts = mh_pieces
        J = hessian_Jn(ts)
        tau = tau_n_sq(ts)
        v = v_n_sq(J, tau)
        assert np.allclose(v_n_sq(2.0 * J, tau), v / 4.0, rtol=1e-12)
        # J = -I makes the sandwich collapse to tau itself
        assert np.allclose(v_n_sq(-np.eye(2), tau), tau, rtol=1e-12)

    def test_v_psd(self, mh_pieces):
        _, _, _, _, ts = mh_pieces
        v = v_n_sq(hessian_Jn(ts), tau_n_sq(ts))
        assert np.all(np.linalg.eigvalsh(v) >= -1e-12)

    def test_singular_J_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            v_n_sq(np.array([[1.0, 1.0], [1.0, 1.0]]), np.eye(2))

    def test_requires_derivs(self, toy_trace, fam):
        tours = segment_tours(toy_trace)
        ts = tour_sums(toy_trace, tours, fam, H1, with_derivs=False)
        with pytest.raises(ValueError):
            hessian_Jn(ts)
        with pytest.raises(ValueError):
            tau_n_sq(ts)


class TestEllipse:
    def test_circle_radius(self):
        # identity shape, R = 100, alpha = .05, k = 2:
        # radius = sqrt(chi2_{2,.95} / R) = sqrt(5.991/100) ~ 0.2448
        ell = confidence_ellipse([0.0, 0.0], np.eye(2), R=100, alpha=0.05)
        assert ell.threshold == pytest.approx(5.991464547107979, rel=1e-12)
        radii = np.linalg.norm(ell.boundary, axis=1)
        assert np.allclose(radii, np.sqrt(5.991464547107979 / 100.0), rtol=1e-12)

    def test_contains(self):
        ell = confidence_ellipse([0.0, 0.0], np.eye(2), R=100, alpha=0.05)
        r = np.sqrt(ell.threshold / 100.0)
        assert ell.contains([0.0, 0.0])
        assert ell.contains([0.99 * r, 0.0])
        assert not ell.contains([1.01 * r, 0.0])

    def test_shrinks_with_alpha(self):
        big = confidence_ellipse([0.0, 0.0], np.eye(2), R=50, alpha=0.05)
        small = confidence_ellipse([0.0, 0.0], np.eye(2), R=50, alpha=0.5)
        assert small.threshold < big.threshold

    def test_anisotropic_axes(self):
        shape = np.diag([4.0, 1.0])
        ell = confidence_ellipse([1.0, 2.0], shape, R=100, alpha=0.05)
        d = ell.boundary - np.array([1.0, 2.0])
        # boundary satisfies the quadratic form exactly
        stat = 100.0 * np.einsum("ij,jk,ik->i", d, np.linalg.inv(shape), d)
        assert np.allclose(stat, ell.threshold, rtol=1e-10)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.32])
    def test_threshold_is_chi2_quantile(self, k, alpha):
        from scipy.stats import chi2
        ell = confidence_ellipse(np.zeros(k), np.eye(k), R=10, alpha=alpha)
        assert ell.threshold == chi2.ppf(1.0 - alpha, k)

    def test_alpha_validation(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                confidence_ellipse([0.0, 0.0], np.eye(2), R=10, alpha=bad)

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError):
            confidence_ellipse([0.0, 0.0], -np.eye(2), R=10, alpha=0.05)


class TestBatchArgmaxCov:
    def test_against_sandwich(self, toy_model, fam, toy_rect):
        # on a long iid trace, batch covariance and sandwich covariance target
        # the same limit; require agreement within a factor of 2 on the trace.
        trace = toy_model.exact_trace(H1, n=40000, seed=17)
        tours = segment_tours(trace)
        res = maximize_surface(trace, fam, toy_rect, grid_points=9,
                               multi_starts=0)
        ts = tour_sums(trace, tours, fam, res.h)
        v = v_n_sq(hessian_Jn(ts), tau_n_sq(ts))
        cov, nb = batch_argmax_cov(trace, fam, toy_rect, M=40, h_n=res.h,
                                   grid_points=9)
        assert nb <= 4
        ratio = np.trace(cov) / np.trace(v)
        assert 0.5 < ratio < 2.0

    def test_validation(self, toy_trace, fam, toy_rect):
        with pytest.raises(ValueError):
            batch_argmax_cov(toy_trace, fam, toy_rect, M=1)
        with pytest.raises(ValueError):
            batch_argmax_cov(toy_trace, fam, toy_rect, M=toy_trace.n)


class TestReport:
    def test_json_round_trip(self, mh_pieces):
        _, tours, _, res, ts = mh_pieces
        J = hessian_Jn(ts)
        tau = tau_n_sq(ts)
        v = v_n_sq(J, tau)
        ell = confidence_ellipse(res.h, v, R=tours.R, alpha=0.05)
        rep = ArgmaxReport(h_n=res.h, J_n=J, tau_n_sq=tau, v_n_sq=v,
                           R=tours.R, n=tours.n_eff,
                           E_N1_hat=tours.n_eff / tours.R, alpha=0.05,
                           chi2_threshold=ell.threshold,
                           boundary_flag=res.boundary, ellipse=ell)
        d = json.loads(rep.to_json(extra={"note": 1}))
        assert d["method"] == "tour"
        assert d["note"] == 1
        assert d["chi2_threshold"] == pytest.approx(5.991464547107979)
        assert np.allclose(d["h_n"], res.h)
        assert len(d["ellipse_boundary"]) == 128
