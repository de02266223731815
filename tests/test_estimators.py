import numpy as np
import pytest

from priorscan.chain_runtime import ChainTrace, segment_tours, tour_sums
from priorscan.estimators import (
    ESS_UNRELIABLE,
    batch_se,
    cov_I_pair,
    ess,
    estimate_B,
    estimate_I,
    functional_on_grid,
    grid_estimates,
    pointwise_se_B,
    pointwise_se_I,
    surface_on_grid,
    weights,
)
from priorscan.prior_family import ExpFamilyRatio

H1 = [0.0, 1.0]


@pytest.fixture(scope="module")
def fam(toy_model):
    return ExpFamilyRatio(toy_model.spec(), H1)


@pytest.fixture(scope="module")
def tours(toy_trace):
    return segment_tours(toy_trace)


# ------------------------------------------------------------------
# point estimates
# ------------------------------------------------------------------

class TestPointEstimates:
    def test_B_at_h1_is_one(self, toy_trace, fam):
        assert estimate_B(toy_trace, fam, H1) == 1.0

    def test_B_near_oracle(self, toy_model, toy_trace, fam):
        h = [0.5, 1.5]
        assert estimate_B(toy_trace, fam, h) == pytest.approx(
            toy_model.oracle_B(h, H1), rel=0.05)

    def test_weights_normalized(self, toy_trace, fam):
        w = weights(toy_trace, fam, [0.7, 2.0])
        assert np.all(w >= 0.0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_weights_uniform_at_h1(self, toy_trace, fam):
        w = weights(toy_trace, fam, H1)
        assert np.allclose(w, 1.0 / toy_trace.n, rtol=1e-12)

    def test_I_at_h1_is_mean(self, toy_trace, fam):
        g = toy_trace.functional("theta1")
        assert estimate_I(toy_trace, fam, "theta1", H1) == pytest.approx(
            g.mean(), rel=1e-12)

    def test_I_of_constant_is_one(self, toy_trace, fam):
        tr = ChainTrace(Tmat=toy_trace.Tmat,
                        g={"one": np.ones(toy_trace.n)},
                        delta=toy_trace.delta, meta=toy_trace.meta,
                        ends_at_regen=toy_trace.ends_at_regen)
        for h in ([0.0, 1.0], [0.9, 0.4], [-0.5, 2.5]):
            assert estimate_I(tr, fam, "one", h) == pytest.approx(1.0, abs=1e-12)

    def test_I_ratio_identity(self, toy_trace, fam):
        h = [0.3, 1.7]
        g = toy_trace.functional("theta1")
        f = np.exp(fam.log_f(np.array(h), toy_trace.Tmat))
        assert estimate_I(toy_trace, fam, "theta1", h) == pytest.approx(
            (g * f).mean() / f.mean(), rel=1e-12)

    def test_I_within_bounds(self, toy_trace, fam):
        g = toy_trace.functional("theta1")
        val = estimate_I(toy_trace, fam, "theta1", [0.9, 0.35])
        assert g.min() <= val <= g.max()

    def test_ess_range_and_h1(self, toy_trace, fam):
        assert ess(toy_trace, fam, H1) == pytest.approx(toy_trace.n, rel=1e-10)
        e = ess(toy_trace, fam, [0.9, 2.9])
        assert 1.0 <= e <= toy_trace.n

    def test_ess_decreases_along_ray(self, toy_trace, fam):
        vals = [ess(toy_trace, fam, [0.0, 1.0 + s]) for s in (0.0, 0.5, 1.0, 1.5)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_empty_trace(self, fam):
        tr = ChainTrace(Tmat=np.empty((0, 2)), g={}, delta=np.empty(0, dtype=bool))
        with pytest.raises(ValueError):
            estimate_B(tr, fam, H1)


# ------------------------------------------------------------------
# tour-based standard errors
# ------------------------------------------------------------------

class TestTourSE:
    def test_se_B_zero_at_h1_iid(self, toy_trace, fam, tours):
        ts = tour_sums(toy_trace, tours, fam, H1, with_derivs=False)
        assert pointwise_se_B(ts) == pytest.approx(0.0, abs=1e-14)

    def test_se_B_iid_reduction(self, toy_trace, fam, tours):
        # N_r = 1 for an iid trace, so the delta method collapses to the
        # plain CLT: se = sd(f_h) / sqrt(n)
        h = [0.4, 1.6]
        ts = tour_sums(toy_trace, tours, fam, h, with_derivs=False)
        se = pointwise_se_B(ts)
        f = np.exp(fam.log_f(np.array(h), toy_trace.Tmat))
        assert se == pytest.approx(f.std(ddof=1) / np.sqrt(toy_trace.n), rel=1e-10)

    def test_se_I_constant_g_zero(self, toy_trace, fam, tours):
        tr = ChainTrace(Tmat=toy_trace.Tmat, g={"one": np.ones(toy_trace.n)},
                        delta=toy_trace.delta, ends_at_regen=True)
        ts = tour_sums(tr, tours, fam, [0.3, 1.5], with_derivs=False)
        assert pointwise_se_I(ts, "one") == pytest.approx(0.0, abs=1e-14)

    def test_min_tour_count(self, toy_trace, fam):
        sub = ChainTrace(Tmat=toy_trace.Tmat[:1], g={"theta1": toy_trace.g["theta1"][:1]},
                         delta=[True], ends_at_regen=True)
        ts = tour_sums(sub, segment_tours(sub), fam, H1, with_derivs=False)
        with pytest.raises(ValueError):
            pointwise_se_B(ts)

    def test_cov_pair_diagonal_identity(self, toy_trace, fam, tours):
        h = [0.2, 1.8]
        ts = tour_sums(toy_trace, tours, fam, h, with_derivs=False)
        se = pointwise_se_I(ts, "theta1")
        cov = cov_I_pair(ts, ts, "theta1")
        assert cov == pytest.approx(tours.R * se ** 2, rel=1e-10)

    def test_cov_pair_symmetric(self, toy_trace, fam, tours):
        ts1 = tour_sums(toy_trace, tours, fam, [0.2, 1.8], with_derivs=False)
        ts2 = tour_sums(toy_trace, tours, fam, [-0.4, 0.8], with_derivs=False)
        assert cov_I_pair(ts1, ts2, "theta1") == pytest.approx(
            cov_I_pair(ts2, ts1, "theta1"), rel=1e-14)

    def test_tour_permutation_invariance(self, toy_model, fam):
        trace = toy_model.mh_trace(H1, R=150, seed=9)
        tours = segment_tours(trace)
        h = [0.3, 1.4]
        ts = tour_sums(trace, tours, fam, h, with_derivs=False)
        se = pointwise_se_B(ts)

        # rebuild the trace with whole tours permuted
        rng = np.random.default_rng(0)
        order = rng.permutation(tours.R)
        idx = np.concatenate([
            np.arange(tours.starts0[r], tours.starts0[r] + int(tours.lengths[r]))
            for r in order])
        permuted = ChainTrace(Tmat=trace.Tmat[idx],
                              g={k: v[idx] for k, v in trace.g.items()},
                              delta=trace.delta[idx], meta=dict(trace.meta),
                              ends_at_regen=True)
        ts_p = tour_sums(permuted, segment_tours(permuted), fam, h,
                         with_derivs=False)
        assert pointwise_se_B(ts_p) == pytest.approx(se, rel=1e-10)


# ------------------------------------------------------------------
# batching alternative
# ------------------------------------------------------------------

class TestBatchSE:
    def test_batch_se_positive(self, toy_trace, fam):
        assert batch_se(toy_trace, fam, [0.5, 1.2], M=100) > 0.0
        assert batch_se(toy_trace, fam, [0.5, 1.2], M=100, g_name="theta1") > 0.0

    def test_batch_count_validation(self, toy_trace, fam):
        with pytest.raises(ValueError):
            batch_se(toy_trace, fam, H1, M=1)

    @pytest.mark.parametrize("M", [3, 7, 100, 142, 400])
    def test_batch_se_is_the_grid_batch_se(self, toy_trace, fam, toy_rect, M):
        # the grid's values and its batches cover the same n = 20000 draws,
        # also where M does not divide n; the two SEs come from separate passes.
        # No M = 2: its two deviations cancel ~2000-fold, so the passes'
        # rounding differences reach ~1e-11 on some traces
        grid = toy_rect.grid(4)
        est, fest = grid_estimates(toy_trace, fam, grid, "theta1", M=M)
        for e, g_name in ((est, None), (fest, "theta1")):
            se = [batch_se(toy_trace, fam, h, M=M, g_name=g_name) for h in grid]
            np.testing.assert_allclose(se, e.se, rtol=1e-12)


# ------------------------------------------------------------------
# grid sweeps
# ------------------------------------------------------------------

class TestGridSweeps:
    def test_tour_and_batch_same_values(self, toy_trace, fam, tours, toy_rect):
        grid = toy_rect.grid(5)
        est_t = surface_on_grid(toy_trace, fam, grid, tours=tours)
        est_b = surface_on_grid(toy_trace, fam, grid, M=100)
        assert est_t.se_method == "tour" and est_b.se_method == "batch"
        assert np.allclose(est_t.values, est_b.values, rtol=1e-12)
        assert np.all(est_t.values > 0)

    def test_matches_scalar_estimates(self, toy_trace, fam, toy_rect):
        grid = toy_rect.grid(3)
        est = surface_on_grid(toy_trace, fam, grid, M=50)
        for j, h in enumerate(grid):
            assert est.values[j] == pytest.approx(estimate_B(toy_trace, fam, h),
                                                  rel=1e-10)
            assert est.ess[j] == pytest.approx(ess(toy_trace, fam, h), rel=1e-10)

    def test_functional_grid(self, toy_trace, fam, tours, toy_rect):
        grid = toy_rect.grid(4)
        fest = functional_on_grid(toy_trace, fam, "theta1", grid, tours=tours)
        g = toy_trace.functional("theta1")
        assert np.all(fest.values >= g.min()) and np.all(fest.values <= g.max())
        for j, h in enumerate(grid[:4]):
            assert fest.values[j] == pytest.approx(
                estimate_I(toy_trace, fam, "theta1", h), rel=1e-10)

    def test_unit_tour_fast_path_matches_reduceat(self, toy_trace, fam, tours,
                                                  toy_rect):
        # force the generic reduceat path by a fake 2-long first tour index
        grid = toy_rect.grid(3)
        est_fast = surface_on_grid(toy_trace, fam, grid, tours=tours)
        n = tours.n_eff
        ts = np.full(n // 2, 2)
        from priorscan.chain_runtime import TourIndex
        slow = TourIndex(boundaries=np.concatenate([[1], 1 + np.cumsum(ts)]))
        est_slow = surface_on_grid(toy_trace, fam, grid, tours=slow)
        # same values (point estimate independent of segmentation up to n_eff)
        assert est_slow.se_method == "tour"
        assert np.allclose(est_fast.values[:3],
                           est_slow.values[:3], rtol=1e-2)

    def test_unreliable_flag(self, toy_trace, fam):
        est = surface_on_grid(toy_trace, fam, np.array([[0.0, 1.0]]), M=50)
        assert not est.unreliable[0]
        fake = est
        fake.ess = np.array([ESS_UNRELIABLE - 1.0])
        assert fake.unreliable[0]

    def test_to_csv(self, tmp_path, toy_trace, fam, toy_rect):
        est = surface_on_grid(toy_trace, fam, toy_rect.grid(3), M=50)
        path = tmp_path / "surface.csv"
        est.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "h_1,h_2,value,se,ess"
        assert len(lines) == 1 + 9
