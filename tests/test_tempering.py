import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from priorscan import cli
from priorscan.chain_runtime import ModelChain, simulate
from priorscan.cli import stream_rng
from priorscan.estimators import batch_se, estimate_B, estimate_I
from priorscan.prior_family import ExpFamilyRatio, HyperRect
from priorscan.serial_tempering import (
    LABEL_FUNCTIONAL,
    MixtureRatio,
    STGrid,
    STKernel,
    lattice_anchors,
    lattice_neighbours,
    occupancies,
    run_st,
    tune_zeta,
    zetas_from_logs,
)

H1 = [0.0, 1.0]


@pytest.fixture(scope="module")
def st_rect():
    return HyperRect([-0.6, 0.7], [0.6, 1.6])


@pytest.fixture(scope="module")
def anchors(st_rect):
    return lattice_anchors(st_rect, 3)  # 3x3 = 9 anchors


@pytest.fixture(scope="module")
def exact_grid(toy_model, anchors):
    # zetas equal to the true marginal-likelihood ratios give uniform occupancy
    log_ml = np.array([toy_model.log_marginal(a) for a in anchors])
    zetas = np.exp(log_ml - log_ml.mean())
    return STGrid(anchors=anchors, zetas=zetas)


@pytest.fixture(scope="module")
def st_trace(toy_model, exact_grid, anchors):
    return run_st(ModelChain(toy_model, anchors), toy_model.spec(), exact_grid,
                  n=30000, seed=31)


class TestLattice:
    def test_snake_adjacency(self, st_rect):
        anchors = lattice_anchors(st_rect, [3, 4])
        assert anchors.shape == (12, 2)
        # consecutive anchors differ in exactly one coordinate by one lattice step
        d = np.abs(np.diff(anchors, axis=0))
        assert np.all((d > 0).sum(axis=1) == 1)
        steps = d.max(axis=1)
        assert np.all(steps <= (st_rect.upper - st_rect.lower).max() / 2 + 1e-12)

    def test_1d(self):
        a = lattice_anchors(HyperRect([0.0], [1.0]), 5)
        assert np.allclose(a[:, 0], np.linspace(0, 1, 5))

    def test_k3_rejected(self):
        with pytest.raises(ValueError):
            lattice_anchors(HyperRect([0, 0, 0], [1, 1, 1]), 2)


class SnakeKernel(STKernel):
    """The label move before neighbour tables: j + 1 or j - 1 with
    probability 1/2 each, an out-of-range proposal staying without an
    acceptance uniform."""

    def step(self, state, rng):
        (j, theta), ratio = state, self.ratio
        jp = j + (1 if rng.random() < 0.5 else -1)
        if 0 <= jp < ratio.m:
            T = self.model.suffstat(theta)
            log_num = float(ratio.omegas[jp] @ T) - ratio.As[jp] - ratio.log_zetas[jp]
            log_den = float(ratio.omegas[j] @ T) - ratio.As[j] - ratio.log_zetas[j]
            if np.log(rng.random()) < log_num - log_den:
                j = jp
        return (j, self.model.anchor_step(j, theta, rng)), False


class TestNeighbours:
    @pytest.mark.parametrize("shape", [[3, 3], [2, 4], 5])
    def test_symmetric_lattice_steps(self, shape):
        counts = np.atleast_1d(shape)
        k = counts.size
        anchors = lattice_anchors(HyperRect([0.0] * k, [1.0] * k), shape)
        nb = lattice_neighbours(shape)
        m = len(anchors)
        assert nb.shape == (m, 2 * k)
        moves = np.zeros((m, m), dtype=int)
        np.add.at(moves, (np.repeat(np.arange(m), 2 * k), nb.ravel()), 1)
        assert np.array_equal(moves, moves.T)
        # each anchor lists the anchors one lattice step away once, itself
        # for every step that leaves the lattice
        steps = np.abs(anchors[:, None, :] - anchors[None, :, :]) * (counts - 1)
        adjacent = np.isclose(steps.sum(axis=2), 1.0)
        for j in range(m):
            near = np.flatnonzero(adjacent[j]).tolist()
            assert sorted(nb[j].tolist()) == sorted(near + [j] * (2 * k - len(near)))

    def test_one_axis_is_the_path(self):
        path = [[1, 0], [2, 0], [3, 1], [4, 2], [4, 3]]
        assert lattice_neighbours(5).tolist() == path
        grid = STGrid(anchors=np.arange(10.0).reshape(5, 2), zetas=np.ones(5))
        assert grid.neighbours.tolist() == path

    @pytest.mark.parametrize("bad", [
        [[1, 1], [0, 2], [1, 2]],       # 0 proposes 1 twice, 1 proposes 0 once
        [[1, 0], [2, 0], [3, 1]],       # no anchor 3
        [[1, 0], [0, 1]],               # a row short
        [[1.0, 0.0], [2.0, 0.0], [2.0, 1.0]],
    ])
    def test_bad_table_rejected(self, bad):
        with pytest.raises(ValueError, match="neighbours"):
            STGrid(anchors=np.zeros((3, 2)), zetas=np.ones(3), neighbours=bad)

    def test_explicit_anchors_move_along_the_path(self, tmp_path):
        st = "[st]\nanchors = -0.6, 0.7; 0, 1; 0.6, 1.6; 0.3, 0.9\nzetas = 1, 2, 1, 3\n"
        path = tmp_path / "st.ini"
        path.write_text("[run]\nmodel = normal-hier\nn = 10\n[model]\ny = -2, -1, 0, 1, 2\n"
                        "[hyper]\nrect_lower = -0.6, 0.7\nrect_upper = 0.6, 1.6\nh1 = 0, 1\n"
                        + st)
        run = cli.Run(cli.RunConfig(path))
        model, grid, st_model = run.model, run.st_grid, run.st_model
        hand = STGrid(anchors=grid.anchors, zetas=grid.zetas,
                      neighbours=[[1, 0], [2, 0], [3, 1], [3, 2]])
        got, want = (run_st(st_model, model.spec(), g, n=3000, seed=5) for g in (grid, hand))
        snake = simulate(SnakeKernel(st_model, model.spec(), grid), n=3000, seed=5)
        for other in (want, snake):
            assert np.array_equal(got.Tmat, other.Tmat)
            assert np.array_equal(got.g[LABEL_FUNCTIONAL], other.g[LABEL_FUNCTIONAL])
        assert np.unique(got.g[LABEL_FUNCTIONAL]).size == 4
        # a lattice moves along both of its axes
        path.write_text(path.read_text().replace(st, "[st]\nanchors = lattice:2x3\n"))
        grid = cli.Run(cli.RunConfig(path)).st_grid
        assert np.array_equal(grid.neighbours, lattice_neighbours((2, 3)))


class TestSTGrid:
    def test_validation(self, anchors):
        with pytest.raises(ValueError):
            STGrid(anchors=anchors, zetas=np.ones(3))
        with pytest.raises(ValueError):
            STGrid(anchors=anchors, zetas=np.zeros(len(anchors)))

    def test_m(self, exact_grid):
        assert exact_grid.m == 9

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -1.0])
    def test_zetas_finite_and_positive(self, anchors, bad):
        zetas = np.ones(len(anchors))
        zetas[3] = bad
        with pytest.raises(ValueError, match="finite and positive"):
            STGrid(anchors=anchors, zetas=zetas)


class TestZetasFromLogs:
    def test_wide_span_stays_finite(self):
        # a tuning round on the toy's [-6,6]x[0.05,20] rectangle: centred on
        # the mean, exp underflows the lowest anchor to 0
        log_z = np.array([-4.8, -8.1, -8.5, 0.0, -1348.0, -11.2])
        assert np.exp(log_z - log_z.mean()).min() == 0.0
        zetas = zetas_from_logs(log_z)
        assert np.all(np.isfinite(zetas) & (zetas > 0))
        shift = np.log(zetas) - log_z
        assert np.allclose(shift, shift[0], rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("log_z", [[0.0, -1500.0], [0.0, np.nan], [0.0, -np.inf]])
    def test_span_beyond_float64_raises(self, log_z):
        with pytest.raises(ValueError, match="log zetas span"):
            zetas_from_logs(np.array(log_z))


class TestMixtureRatio:
    def test_m1_reduces_to_single_chain(self, toy_model, toy_trace):
        spec = toy_model.spec()
        grid1 = STGrid(anchors=np.array([H1]), zetas=np.ones(1))
        mix = MixtureRatio(spec, grid1)
        plain = ExpFamilyRatio(spec, H1)
        h = np.array([0.4, 1.3])
        T = toy_trace.Tmat[:50]
        assert np.array_equal(mix.log_f(h, T), plain.log_f(h, T))
        grid = np.array([h, [-0.2, 0.8], H1])
        assert np.array_equal(mix.log_f_many(grid, T), plain.log_f_many(grid, T))
        assert np.allclose(mix.grad_log_f(h, T), plain.grad_log_f(h, T))
        assert np.allclose(mix.hess_log_f(h, T), plain.hess_log_f(h, T))

    def test_log_f_many_matches_scalar(self, toy_model, exact_grid, toy_trace):
        mix = MixtureRatio(toy_model.spec(), exact_grid)
        hs = np.array([[0.0, 1.0], [0.3, 1.2]])
        T = toy_trace.Tmat[:40]
        many = mix.log_f_many(hs, T)
        for j, h in enumerate(hs):
            assert np.allclose(many[:, j], mix.log_f(h, T), rtol=1e-12)

    def test_denominator_positive(self, toy_model, exact_grid):
        # f at the first anchor is nu_h1 over the mixture, so its reciprocal
        # is the mixture denominator relative to nu_h1
        mix = MixtureRatio(toy_model.spec(), exact_grid)
        denom = np.exp(-mix.log_f(exact_grid.anchors[0], np.array([[0.5, 2.0]])))
        assert np.all((denom > 0.0) & np.isfinite(denom))

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_mixture_formula(self, toy_model, m, seed):
        # dense reference: log nu_h - log[(1/m) sum_j nu_{h_j}/zeta_j], the
        # mixture written out against no anchor in particular
        spec = toy_model.spec()
        rng = np.random.default_rng(seed)
        rect = HyperRect([-1.0, 0.3], [1.0, 3.0])
        anchors, hs = rect.sample(rng, m), rect.sample(rng, 5)
        zetas = np.exp(rng.uniform(-3.0, 3.0, m))
        T = np.column_stack([rng.uniform(-10.0, 10.0, 30), rng.uniform(0.0, 20.0, 30)])

        def log_nu(h):
            return T @ spec.canon(h) - spec.log_norm(h)

        denom = logsumexp(np.column_stack([log_nu(a) for a in anchors])
                          - np.log(zetas), axis=1) - np.log(m)
        ref = np.column_stack([log_nu(h) - denom for h in hs])
        mix = MixtureRatio(spec, STGrid(anchors=anchors, zetas=zetas))
        assert mix.m == m
        assert np.allclose(mix.log_f_many(hs, T), ref, rtol=1e-10, atol=1e-10)
        for j, h in enumerate(hs):
            assert np.allclose(mix.log_f(h, T), ref[:, j], rtol=1e-10, atol=1e-10)


class TestSTChain:
    def test_labels_recorded(self, st_trace, exact_grid):
        labels = st_trace.functional(LABEL_FUNCTIONAL)
        assert labels.min() >= 0 and labels.max() <= exact_grid.m - 1
        assert np.array_equal(labels, labels.astype(int))

    def test_exact_zetas_near_uniform_occupancy(self, st_trace, exact_grid):
        occ = occupancies(st_trace, exact_grid.m)
        m = exact_grid.m
        assert np.all(occ > 0.4 / m) and np.all(occ < 1.6 / m)
        assert st_trace.meta["st_occupancies"] == occ.tolist()

    def test_badly_scaled_zeta_starves_anchor(self, toy_model, anchors,
                                              exact_grid):
        zetas = exact_grid.zetas.copy()
        zetas[-1] *= 1e6  # make the last anchor essentially unreachable
        grid = STGrid(anchors=anchors, zetas=zetas)
        trace = run_st(ModelChain(toy_model, anchors), toy_model.spec(), grid,
                       n=8000, seed=1)
        assert occupancies(trace, grid.m)[-1] < 0.01

    def test_B_matches_closed_form(self, toy_model, st_trace, exact_grid):
        mix = MixtureRatio(toy_model.spec(), exact_grid)
        for h in ([0.0, 1.0], [0.5, 1.4], [-0.4, 0.9]):
            est = estimate_B(st_trace, mix, h)
            se = batch_se(st_trace, mix, h, M=100)
            # B here is the marginal likelihood over the zeta-weighted mixture
            # normalizer; compare ratios against a reference point instead
            truth = np.exp(toy_model.log_marginal(h))
            ref_est = estimate_B(st_trace, mix, H1)
            ref_truth = np.exp(toy_model.log_marginal(H1))
            ratio = est / ref_est
            truth_ratio = truth / ref_truth
            assert abs(ratio - truth_ratio) < 6 * se / ref_est + 0.02

    def test_I_matches_oracle(self, toy_model, st_trace, exact_grid):
        mix = MixtureRatio(toy_model.spec(), exact_grid)
        h = [0.3, 1.2]
        est = estimate_I(st_trace, mix, "theta1", h)
        assert est == pytest.approx(toy_model.oracle_I_theta1(h), abs=0.05)

    def test_kernel_deterministic(self, toy_model, exact_grid, anchors):
        kern = STKernel(ModelChain(toy_model, anchors), toy_model.spec(), exact_grid)
        a = simulate(kern, n=200, seed=7)
        b = simulate(kern, n=200, seed=7)
        assert np.array_equal(a.Tmat, b.Tmat)
        assert np.array_equal(a.g[LABEL_FUNCTIONAL], b.g[LABEL_FUNCTIONAL])


class TestTuning:
    def test_already_tuned_returns_quickly(self, toy_model, anchors, exact_grid):
        tuned, converged, _ = tune_zeta(ModelChain(toy_model, anchors),
                                        toy_model.spec(), exact_grid,
                                        rounds=3, steps_per_round=4000, seed=2)
        assert converged
        assert np.allclose(tuned.zetas, exact_grid.zetas)
        assert tuned.occupancies is not None

    def test_tunes_from_uniform_start(self, toy_model, anchors):
        grid0 = STGrid(anchors=anchors, zetas=np.ones(len(anchors)))
        tuned, converged, _ = tune_zeta(ModelChain(toy_model, anchors),
                                        toy_model.spec(), grid0,
                                        rounds=8, steps_per_round=4000, seed=3)
        assert converged
        occ = tuned.occupancies
        assert occ.max() / occ.min() <= 2.0

    def test_unvisited_anchor_keeps_its_zeta(self, toy_model):
        # On the wide rectangle four anchors see at most one visit a round.
        # The fixed-point update of an unvisited anchor rests on no draw of
        # its own: left free, its log zeta fell from -1391 to -6457 nats in
        # round 10, past what float64 holds, and tuning failed.
        anchors = lattice_anchors(HyperRect([-6.0, 0.05], [6.0, 20.0]), 3)
        grid0 = STGrid(anchors=anchors, zetas=np.ones(len(anchors)))
        tuned, converged, ratios = tune_zeta(
            ModelChain(toy_model, anchors), toy_model.spec(), grid0, rounds=11,
            steps_per_round=5000, seed=stream_rng(1, "st-tune"))
        assert np.all(np.isfinite(tuned.zetas) & (tuned.zetas > 0))
        assert len(ratios) == 11 and not converged
        assert all(np.isfinite(ratios)) and min(ratios) >= 1.0
        # the anchors at h_1 = 6 are never visited: their zetas stay equal,
        # as they started, while the visited ones move
        held = tuned.occupancies == 1.0 / (2 * 5000)
        assert held.sum() == 3
        assert np.all(tuned.zetas[held] == tuned.zetas[held][0])
        assert np.unique(tuned.zetas[~held]).size == (~held).sum()
