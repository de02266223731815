import json

import numpy as np
import pytest

from priorscan.band_inference import MIN_BATCH_LEN, global_band
from priorscan.chain_runtime import ChainTrace
from priorscan.prior_family import ExpFamilyRatio

H1 = [0.0, 1.0]


@pytest.fixture(scope="module")
def fam(toy_model):
    return ExpFamilyRatio(toy_model.spec(), H1)


@pytest.fixture(scope="module")
def grid(toy_rect):
    return toy_rect.grid(5)


class TestMechanics:
    def test_default_M(self, toy_trace, fam, grid):
        rep = global_band(toy_trace, fam, "theta1", grid)
        assert rep.M == int(np.ceil(np.sqrt(toy_trace.n)))
        assert rep.n == toy_trace.n
        assert rep.sup_stats.shape == (rep.M,)

    def test_center_matches_pointwise(self, toy_trace, fam, grid):
        from priorscan.estimators import estimate_B, estimate_I
        rep_I = global_band(toy_trace, fam, "theta1", grid, M=100)
        rep_B = global_band(toy_trace, fam, None, grid, M=100)
        for j, h in enumerate(grid):
            assert rep_I.center[j] == pytest.approx(
                estimate_I(toy_trace, fam, "theta1", h), rel=1e-10)
            assert rep_B.center[j] == pytest.approx(
                estimate_B(toy_trace, fam, h), rel=1e-10)
        assert rep_I.target == "I:theta1" and rep_B.target == "B"

    def test_center_is_the_grid_estimate(self, toy_trace, fam, grid):
        # M = 7 does not divide n = 20000; the band's batches and the grid
        # estimates' cover the same n draws, so the centers are their values
        from priorscan.estimators import functional_on_grid, surface_on_grid
        rep_I = global_band(toy_trace, fam, "theta1", grid, M=7)
        rep_B = global_band(toy_trace, fam, None, grid, M=7)
        assert rep_I.n == rep_B.n == toy_trace.n
        np.testing.assert_array_equal(
            rep_I.center, functional_on_grid(toy_trace, fam, "theta1", grid, M=7).values)
        np.testing.assert_array_equal(rep_B.center,
                                      surface_on_grid(toy_trace, fam, grid, M=7).values)

    def test_constant_functional_zero_width(self, toy_trace, fam, grid):
        tr = ChainTrace(Tmat=toy_trace.Tmat, g={"one": np.ones(toy_trace.n)},
                        delta=toy_trace.delta)
        rep = global_band(tr, fam, "one", grid, M=50)
        assert rep.half_width == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(rep.center, 1.0)

    def test_half_width_is_order_statistic(self, toy_trace, fam, grid):
        rep = global_band(toy_trace, fam, "theta1", grid, M=40, alpha=0.05)
        order = int(np.ceil(0.95 * 40))  # 38, 1-based
        expect = np.sort(rep.sup_stats)[order - 1] / np.sqrt(rep.n)
        assert rep.half_width == pytest.approx(expect, rel=1e-12)

    def test_lower_upper_covers(self, toy_trace, fam, grid):
        rep = global_band(toy_trace, fam, "theta1", grid, M=40)
        assert np.allclose(rep.upper - rep.lower, 2.0 * rep.half_width)
        assert rep.covers(rep.center)
        assert rep.covers(rep.center + 0.99 * rep.half_width)
        bad = rep.center.copy()
        bad[2] += 1.01 * rep.half_width
        assert not rep.covers(bad)

    def test_batch_reorder_invariance(self, toy_trace, fam, grid):
        M = 40
        rep = global_band(toy_trace, fam, "theta1", grid, M=M)
        L = toy_trace.n // M
        n_used = M * L
        rng = np.random.default_rng(1)
        order = rng.permutation(M)
        idx = np.concatenate([np.arange(m * L, (m + 1) * L) for m in order])
        tr = ChainTrace(Tmat=toy_trace.Tmat[:n_used][idx],
                        g={"theta1": toy_trace.g["theta1"][:n_used][idx]},
                        delta=np.r_[True, np.zeros(n_used - 1, dtype=bool)])
        rep2 = global_band(tr, fam, "theta1", grid, M=M)
        assert rep2.half_width == pytest.approx(rep.half_width, rel=1e-10)

    def test_validation(self, toy_trace, fam, grid):
        with pytest.raises(ValueError):
            global_band(toy_trace, fam, "theta1", grid, M=1)
        with pytest.raises(ValueError):
            global_band(toy_trace, fam, "theta1", grid, alpha=0.0)
        short = ChainTrace(Tmat=toy_trace.Tmat[:30],
                           g={"theta1": toy_trace.g["theta1"][:30]},
                           delta=np.r_[True, np.zeros(29, dtype=bool)])
        with pytest.raises(ValueError):
            global_band(short, fam, "theta1", grid, M=4)  # batch length 7 < 10

    def test_io(self, tmp_path, toy_trace, fam, grid):
        rep = global_band(toy_trace, fam, "theta1", grid, M=40)
        path = tmp_path / "band.csv"
        rep.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "h_1,h_2,center,lower,upper"
        assert len(lines) == 1 + len(grid)
        d = json.loads(rep.to_json())
        assert d["M"] == 40 and d["target"] == "I:theta1"
        assert d["sup_stats_sorted"] == sorted(d["sup_stats_sorted"])


class TestStatistics:
    def test_single_run_covers_truth(self, toy_model, fam):
        # one large iid run should cover the oracle curve on a region where
        # the importance weights stay well behaved
        from priorscan.prior_family import HyperRect
        trace = toy_model.exact_trace(H1, n=50000, seed=23)
        grid = HyperRect([-0.5, 0.7], [0.5, 1.6]).grid(7)
        rep = global_band(trace, fam, "theta1", grid)
        truth = np.array([toy_model.oracle_I_theta1(h) for h in grid])
        assert rep.covers(truth)

    def test_whole_curve_coverage(self, toy_model, fam, toy_rect):
        # 95% bands over the 11x11 grid from 100 iid runs of 20k draws each
        # cover the whole oracle curve in >= 85% of runs; bands built from
        # each batch's own ratio estimate covered 39 of these runs
        grid = toy_rect.grid(11)
        truth = np.array([toy_model.oracle_I_theta1(h) for h in grid])
        hits = sum(global_band(toy_model.exact_trace(H1, n=20_000, seed=s), fam,
                               "theta1", grid).covers(truth) for s in range(100))
        assert hits >= 85

    def test_half_width_shrinks_with_n(self, toy_model, fam, toy_rect):
        grid = toy_rect.grid(5)
        widths = []
        for n in (2000, 32000):
            w = np.mean([global_band(toy_model.exact_trace(H1, n=n, seed=s),
                                     fam, "theta1", grid).half_width
                         for s in range(5)])
            widths.append(w)
        # ~ n^{-1/2} scaling: a 16x larger run should shrink the width ~4x
        assert widths[1] < 0.5 * widths[0]


def test_wide_rectangle_flags_low_ess(toy_model):
    """A wide rectangle leaves corners where one draw carries all the weight;
    the band reports them instead of passing silently."""
    from priorscan.prior_family import HyperRect
    rect = HyperRect(lower=[-6.0, 0.05], upper=[6.0, 20.0])
    trace = toy_model.exact_trace(h1=H1, n=40_000, seed=1)
    rep = global_band(trace, ExpFamilyRatio(toy_model.spec(), H1), "theta1",
                      rect.grid(11))
    d = json.loads(rep.to_json())
    assert d["n_unreliable"] > 0
    assert d["ess_min"] == pytest.approx(rep.ess.min())
    assert d["ess_min"] < 50.0


def test_non_finite_functional_raises(toy_model):
    """A NaN functional value makes the center and every batch deviation NaN;
    that is an error, not a band."""
    trace = toy_model.exact_trace(h1=H1, n=4000, seed=1)
    trace.g["theta1"][1234] = np.nan
    with pytest.raises(ValueError, match="20 of 20 batch deviations are not finite"):
        global_band(trace, ExpFamilyRatio(toy_model.spec(), H1), "theta1",
                    toy_model.rect.grid(5), M=20)
