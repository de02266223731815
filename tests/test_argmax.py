import json
from unittest import mock

import numpy as np
import pytest

from priorscan import argmax_inference
from priorscan.argmax_inference import (
    ArgmaxReport,
    _grid_modes,
    _slice_trace,
    batch_argmax_cov,
    confidence_ellipse,
    hessian_Jn,
    log_B_derivs,
    maximize_surface,
    tau_n_sq,
    v_n_sq,
)
from priorscan.chain_runtime import ModelChain, segment_tours, tour_sums
from priorscan.cli import stream_rng
from priorscan.estimators import _grid_sums, _segmentation, estimate_B
from priorscan.models.lda import LDAModel, synth_corpus
from priorscan.models.varsel import VSModel, synth_regression
from priorscan.prior_family import (ExpFamilyRatio, ExpFamilySpec, HyperRect, fd_grad,
                                    fd_hess, fd_jac)
from priorscan.serial_tempering import MixtureRatio, STGrid, lattice_anchors, run_st

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
                             multi_starts=4)
        b = maximize_surface(toy_trace, fam, toy_rect, grid_points=5,
                             multi_starts=4)
        assert np.array_equal(a.h, b.h)


class TestGridModes:
    """The Newton starts: the coarse grid's local maxima, best first."""

    def test_two_modes_k1(self):
        v = np.array([0.0, 2.0, 1.0, 0.5, 3.0, 1.0])
        assert _grid_modes(v, (6,)).tolist() == [4, 1]

    def test_two_modes_k2(self):
        x = np.linspace(-1.0, 1.0, 7)
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        bump = lambda c1, c2, a: a * np.exp(-((X1 - c1) ** 2 + (X2 - c2) ** 2) / 0.1)
        v = (bump(-2 / 3, -2 / 3, 1.0) + bump(2 / 3, 1 / 3, 2.0)).ravel()
        modes = _grid_modes(v, (7, 7))
        assert modes.tolist() == [5 * 7 + 4, 1 * 7 + 1]
        assert modes[0] == np.argmax(v)

    def test_ties_lowest_index_first(self):
        # a plateau is a run of points no lower than their neighbours
        assert _grid_modes(np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0]), (6,)).tolist() == \
            [0, 2, 3, 5]
        assert _grid_modes(np.zeros((3, 2)).ravel(), (3, 2)).tolist() == list(range(6))
        # a point lower than a neighbour along either axis is no mode
        v = np.array([[0.0, 1.0], [1.0, 0.0]]).ravel()
        assert _grid_modes(v, (2, 2)).tolist() == [1, 2]

    @staticmethod
    def _search(toy_trace, values, newton, **kw):
        """maximize_surface on a 5 x 5 grid whose log B_n values are
        ``values`` and whose Newton search maps a start x0 to ``newton(x0)``."""
        rect = HyperRect([0.0, 0.0], [1.0, 1.0])
        fake_sums = lambda family, grid, Tmat, X=None, w=None: (
            np.asarray(values, dtype=float), np.ones(grid.shape[0]), None, None)
        fake_newton = lambda family, Tmat, X, w, rect, x0, tol: (*newton(x0), 50.0, 2, 3)
        with mock.patch.object(argmax_inference, "_grid_sums", fake_sums), \
                mock.patch.object(argmax_inference, "_newton", fake_newton):
            return maximize_surface(toy_trace, None, rect, grid_points=5, **kw)

    # three cones, peaked at grid points (1, 1), (3, 3) and (4, 0): a point
    # off a peak rises toward it along some axis, so they are the only modes
    VALUES = np.max([a - np.abs(np.arange(5)[:, None] - i) - np.abs(np.arange(5) - j)
                     for a, i, j in ((3, 1, 1), (2, 3, 3), (1, 4, 0))], axis=0)

    @pytest.mark.parametrize("multi_starts, starts", [(0, 1), (1, 2), (2, 3), (8, 3)])
    def test_multi_starts_cap(self, toy_trace, multi_starts, starts):
        seen = []
        res = self._search(toy_trace, self.VALUES.ravel(),
                           lambda x0: seen.append(x0.tolist()) or (x0, 0.0),
                           multi_starts=multi_starts)
        assert seen == [[0.25, 0.25], [0.75, 0.75], [1.0, 0.0]][:starts]
        assert res.optimizer == {"starts": starts, "newton_iters": 2 * starts,
                                 "moment_passes": 3 * starts}
        assert res.multistart_consistent and res.h.tolist() == [0.25, 0.25]

    def test_second_mode_wins_after_newton(self, toy_trace):
        # the grid's second mode climbs higher than its best one
        res = self._search(toy_trace, self.VALUES.ravel(),
                           lambda x0: (x0, 5.0 if x0[0] == 0.75 else 4.0))
        assert res.h.tolist() == [0.75, 0.75] and res.log_value == 5.0
        assert not res.multistart_consistent

    def test_lower_second_mode_is_consistent(self, toy_trace):
        res = self._search(toy_trace, self.VALUES.ravel(),
                           lambda x0: (x0, 4.0 if x0[0] == 0.25 else 3.5))
        assert res.h.tolist() == [0.25, 0.25] and res.log_value == 4.0
        assert res.multistart_consistent


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


def test_batch_sandwich_calibrated(toy_model, fam, toy_rect):
    # the sandwich over ceil(sqrt(n)) batches tracks the replicate spread of
    # h_n over 100 iid runs of 20k draws; the spread of per-batch argmaxes
    # (batch_argmax_cov) overstates it 5.6-9.4 fold on these runs
    segments = _segmentation(20_000, None, None)
    n_eff, R = segments.n_eff, segments.R
    h_ns, v_diag, covered = [], [], 0
    for s in range(100):
        trace = toy_model.exact_trace(H1, n=20_000, seed=1000 + s)
        res = maximize_surface(_slice_trace(trace, 0, n_eff), fam, toy_rect,
                               grid_points=9, multi_starts=0)
        ts = tour_sums(trace, segments, fam, res.h)
        v = v_n_sq(hessian_Jn(ts), tau_n_sq(ts))
        covered += confidence_ellipse(res.h, v, R, alpha=0.05).contains(
            toy_model.oracle_argmax())
        h_ns.append(res.h)
        v_diag.append(np.diag(v) * n_eff / R)
    ratio = np.mean(v_diag, axis=0) / (n_eff * np.var(h_ns, axis=0, ddof=1))
    assert covered >= 88
    assert np.all((0.6 <= ratio) & (ratio <= 1.6)), ratio


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
        from decimal import Decimal, localcontext

        from scipy.stats import chi2
        ell = confidence_ellipse(np.zeros(k), np.eye(k), R=10, alpha=alpha)
        if k == 2:      # -2 log(alpha) exactly, correctly rounded
            with localcontext() as ctx:
                ctx.prec = 40
                assert ell.threshold == float(-2 * Decimal(alpha).ln())
        else:
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

    def test_start_grid_evaluated_once(self, toy_model, toy_rect):
        # the Newton passes of one batch's search are one-point grids, which
        # leave the start grid's canonical terms cached for the next batch
        family = ExpFamilyRatio(toy_model.spec(), H1)
        trace = toy_model.mh_trace(H1, n=6000, seed=4)
        with mock.patch.object(ExpFamilySpec, "canon_many", autospec=True,
                               side_effect=ExpFamilySpec.canon_many) as calls:
            batch_argmax_cov(trace, family, toy_rect, M=8, h_n=[0.0, 1.0])
        sizes = [len(c.args[1]) for c in calls.call_args_list]
        assert sizes.count(21 * 21) == 1
        assert set(sizes) == {1, 21 * 21} and len(sizes) > 8

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


def _log_B(family, Tmat):
    """log B_n at one h through the grid pass, the objective the optimizer
    reports."""
    def f(h):
        shift, c, _, _ = _grid_sums(family, np.atleast_2d(h), Tmat)
        return float(shift[0] + np.log(c[0]))
    return f


def _lda_model():
    return LDAModel(synth_corpus(seed=10, D=6, V=12, K=2, n_d=30), K=2)


@pytest.fixture(scope="module")
def derivative_cases(toy_model):
    """(family, Tmat, h) for the toy, VS and LDA specs and an ST mixture."""
    data = synth_regression(seed=3, m=40, q=4)
    vs = VSModel(y=data.y, X=data.X)
    lda = _lda_model()
    grid = STGrid(anchors=lattice_anchors(HyperRect([-1.0, 0.3], [1.0, 3.0]),
                                          [2, 2]), zetas=np.ones(4))
    st = run_st(ModelChain(toy_model, grid.anchors), toy_model.spec(), grid,
                n=3000, rng=np.random.default_rng(1))
    return {
        "toy": (ExpFamilyRatio(toy_model.spec(), H1),
                toy_model.exact_trace(H1, n=5000, seed=3).Tmat, [0.3, 1.4]),
        "vs": (ExpFamilyRatio(vs.spec(), [0.5, 8.0]),
               vs.trace([0.5, 8.0], n=400, seed=2).Tmat, [0.4, 10.0]),
        "lda": (ExpFamilyRatio(lda.spec(), [1.0, 1.0]),
                lda.trace([1.0, 1.0], n=200, seed=4, burn=20).Tmat, [0.8, 1.3]),
        # D(T) depends on T only, so it must drop out of the derivatives
        "st": (MixtureRatio(toy_model.spec(), grid), st.Tmat, [0.2, 1.2]),
    }


@pytest.mark.parametrize("name", ["toy", "vs", "lda", "st"])
def test_moment_derivatives_match_finite_differences(derivative_cases, name):
    family, Tmat, h = derivative_cases[name]
    h = np.asarray(h)
    obj = _log_B(family, Tmat)
    value, grad, hess, ess = log_B_derivs(family, h, Tmat)
    assert value == pytest.approx(obj(h), abs=1e-12)
    assert np.allclose(grad, fd_grad(obj, h), rtol=1e-5, atol=0.0)
    # the Hessian against differences of the analytic gradient: a nested
    # difference of the value has noise near 1e-6, as large as the tolerance
    H_fd = fd_jac(lambda x: log_B_derivs(family, x, Tmat)[1], h)
    assert np.allclose(hess, H_fd, rtol=1e-5, atol=1e-8 * np.abs(H_fd).max())
    assert 1.0 <= ess <= Tmat.shape[0]


def _nelder_mead_argmax(trace, family, rect, grid_points=21, tol=1e-6,
                        multi_starts=8, seed=0):
    """The grid plus bounded Nelder-Mead search, kept as a reference."""
    from scipy.optimize import minimize

    obj = _log_B(family, trace.Tmat)
    shift, c, _, _ = _grid_sums(family, rect.grid(grid_points), trace.Tmat)
    starts = [rect.grid(grid_points)[int(np.argmax(shift + np.log(c)))]]
    starts += list(rect.sample(np.random.default_rng(seed), multi_starts))
    best = None
    for x0 in starts:
        res = minimize(lambda h: -obj(h), x0, method="Nelder-Mead",
                       bounds=list(zip(rect.lower, rect.upper)),
                       options={"xatol": tol, "fatol": 1e-12, "maxiter": 2000})
        h = rect.clip(res.x)
        if best is None or obj(h) > best[1] + 1e-10:
            best = (h, obj(h))
    return best


def _newton_cases(toy_model):
    rect = HyperRect([-1.0, 0.3], [1.0, 3.0])
    for seed in (1, 2, 3):
        trace = toy_model.mh_trace(H1, n=90_000, rng=stream_rng(seed, "argmax"))
        yield trace, ExpFamilyRatio(toy_model.spec(), H1), rect, False
    lda = _lda_model()
    trace = lda.trace([1.0, 1.0], n=600, rng=stream_rng(2, "argmax"))
    yield (trace, ExpFamilyRatio(lda.spec(), [1.0, 1.0]),
           HyperRect([0.5, 0.5], [2.0, 2.0]), True)


def test_newton_agrees_with_nelder_mead(toy_model):
    for trace, family, rect, on_boundary in _newton_cases(toy_model):
        res = maximize_surface(trace, family, rect)
        h_ref, v_ref = _nelder_mead_argmax(trace, family, rect)
        assert np.abs(res.h - h_ref).max() <= 1e-5
        assert res.log_value >= v_ref - 1e-10
        assert res.boundary == on_boundary
        # the coarse grid has one local maximum, and Newton converges from it
        assert res.optimizer["starts"] == 1
        assert 3 <= res.optimizer["newton_iters"] <= 4
        assert res.optimizer["moment_passes"] == res.optimizer["newton_iters"] + 1
