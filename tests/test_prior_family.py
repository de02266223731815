import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priorscan.models.lda import lda_spec
from priorscan.models.normal_hier import normal_hier_spec
from priorscan.prior_family import (
    EnvelopeSet,
    ExpFamilyRatio,
    ExpFamilySpec,
    HyperRect,
    check_envelope,
    envelope_corners,
    fd_grad,
    fd_hess,
)

def fd_hess_direct(f, h, rel_step=1e-4):
    """Second-difference Hessian oracle (more accurate than iterated FD)."""
    h = np.asarray(h, dtype=float)
    k = h.size
    step = rel_step * (1.0 + np.abs(h))
    out = np.empty((k, k))
    f0 = f(h)
    for i in range(k):
        ei = np.zeros(k); ei[i] = step[i]
        out[i, i] = (f(h + ei) - 2.0 * f0 + f(h - ei)) / step[i] ** 2
        for j in range(i + 1, k):
            ej = np.zeros(k); ej[j] = step[j]
            out[i, j] = out[j, i] = (
                f(h + ei + ej) - f(h + ei - ej) - f(h - ei + ej) + f(h - ei - ej)
            ) / (4.0 * step[i] * step[j])
    return out


TOY = normal_hier_spec(1)
TOY5 = normal_hier_spec(5)
DIR = lda_spec(1, 2, 1)   # K=1, V=2, D=1: a single symmetric Dirichlet on 2 cells


# ------------------------------------------------------------------
# HyperRect
# ------------------------------------------------------------------

class TestHyperRect:
    def test_validation(self):
        with pytest.raises(ValueError):
            HyperRect(lower=[0.0, 0.0], upper=[1.0, 0.0])
        with pytest.raises(ValueError):
            HyperRect(lower=[0.0], upper=[np.inf])
        with pytest.raises(ValueError):
            HyperRect(lower=[0.0, 1.0], upper=[1.0])

    def test_contains_clip(self):
        rect = HyperRect(lower=[-1.0, 0.3], upper=[1.0, 3.0])
        assert rect.contains([0.0, 1.0])
        assert not rect.contains([2.0, 1.0])
        assert np.allclose(rect.clip([5.0, 0.0]), [1.0, 0.3])

    def test_grid_shape_and_range(self):
        rect = HyperRect(lower=[0.0, 1.0], upper=[1.0, 2.0])
        g = rect.grid(5)
        assert g.shape == (25, 2)
        assert rect.contains(g.min(axis=0)) and rect.contains(g.max(axis=0))
        g2 = rect.grid([3, 4])
        assert g2.shape == (12, 2)

    def test_corners_and_boundary(self):
        rect = HyperRect(lower=[0.0, 0.0], upper=[1.0, 2.0])
        c = rect.corners()
        assert c.shape == (4, 2)
        assert rect.on_boundary([0.0, 1.0])
        assert not rect.on_boundary([0.5, 1.0])

    def test_sample_inside(self):
        rect = HyperRect(lower=[0.0], upper=[1.0])
        s = rect.sample(np.random.default_rng(0), 100)
        assert np.all((s >= 0.0) & (s <= 1.0))


# ------------------------------------------------------------------
# the ratio at one draw, and its h-derivatives
# ------------------------------------------------------------------

def log_ratio(spec, h, h1, T):
    """log nu_h/nu_h1 at the draw with statistic T."""
    return float(ExpFamilyRatio(spec, h1).log_f(h, np.asarray(T, dtype=float)[None])[0])


def score(spec, h, h1, T):
    """(grad log f_h, hess log f_h) at the draw with statistic T."""
    fam, Tmat = ExpFamilyRatio(spec, h1), np.asarray(T, dtype=float)[None]
    return fam.grad_log_f(h, Tmat)[0], fam.hess_log_f(h, Tmat)[0]


class TestLogRatio:
    def test_identity_at_h1(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            h = np.array([rng.uniform(-1, 1), rng.uniform(0.3, 3)])
            T = rng.normal(size=2) * 5
            assert log_ratio(TOY5, h, h, T) == pytest.approx(0.0, abs=1e-14)

    def test_normal_hand_value(self):
        # J=1 normal: h1=(0,1), h=(1,1), theta=1 -> log N(1;1,1)/N(1;0,1) = 0.5
        val = log_ratio(TOY, [1.0, 1.0], [0.0, 1.0], [1.0, 1.0])
        assert val == pytest.approx(0.5, rel=1e-12)

    def test_dirichlet_hand_value(self):
        # Dir(2,2) vs Dir(1,1) at (.5,.5): ratio = 6*(1/4) / 1 = 1.5
        T = np.array([2 * np.log(0.5), 0.0])
        val = log_ratio(DIR, [2.0, 1.0], [1.0, 1.0], T)
        assert val == pytest.approx(np.log(1.5), rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-0.9, 0.9), st.floats(0.4, 2.5), st.floats(-0.9, 0.9),
           st.floats(0.4, 2.5), st.floats(-0.9, 0.9), st.floats(0.4, 2.5))
    def test_additivity_along_paths(self, m0, t0, m1, t1, m2, t2):
        T = np.array([1.3, 4.2])
        h0, h1, h2 = [m0, t0], [m1, t1], [m2, t2]
        lhs = log_ratio(TOY5, h2, h1, T)
        rhs = log_ratio(TOY5, h2, h0, T) + log_ratio(TOY5, h0, h1, T)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_grad_at_h1(self):
        h1 = np.array([0.2, 1.4])
        T = np.array([2.0, 7.0])
        expect = TOY5.jac(h1).T @ T - TOY5.grad_A(h1)
        assert np.allclose(score(TOY5, h1, h1, T)[0], expect, rtol=1e-12)

    def test_grad_hess_match_fd(self):
        rng = np.random.default_rng(1)
        h1 = np.array([0.0, 1.0])
        for _ in range(10):
            h = np.array([rng.uniform(-0.8, 0.8), rng.uniform(0.5, 2.5)])
            T = np.array([rng.normal() * 3, rng.uniform(1, 10)])
            log_f = lambda x: log_ratio(TOY5, x, h1, T)
            u, H = score(TOY5, h, h1, T)
            assert np.allclose(u, fd_grad(log_f, h), rtol=1e-6)
            assert np.allclose(H, fd_hess_direct(log_f, h), rtol=1e-5, atol=1e-8)

    def test_hess_symmetric(self):
        H = score(TOY5, [0.3, 1.7], [0.0, 1.0], [1.0, 6.0])[1]
        assert np.array_equal(H, H.T)

    def test_hess_identity_canon_closed_form(self):
        # lda_spec has canon(h) = h - 1 (identity shift), so the gradient of
        # log f is T - grad A and its Hessian -hess A
        spec = lda_spec(2, 12, 6)
        h = np.array([0.7, 1.2])
        T = np.array([-50.0, -10.0])
        u, H = score(spec, h, h, T)
        assert np.allclose(u, T - spec.grad_A(h), rtol=1e-10)
        assert np.allclose(H, -spec.hess_A(h), rtol=1e-10)


# ------------------------------------------------------------------
# ExpFamilySpec consistency
# ------------------------------------------------------------------

class TestSpecConsistency:
    @pytest.mark.parametrize("spec,h", [
        (TOY5, [0.4, 1.3]),
        (lda_spec(2, 12, 6), [0.8, 0.6]),
    ])
    def test_check_consistency(self, spec, h):
        spec.check_consistency(np.asarray(h, dtype=float))

    def test_log_norm_canon_consistent(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            h = np.array([rng.uniform(-1, 1), rng.uniform(0.3, 3)])
            assert TOY5.log_norm_canon(TOY5.canon(h)) == pytest.approx(
                TOY5.log_norm(h), rel=1e-12)


# ------------------------------------------------------------------
# envelope construction
# ------------------------------------------------------------------

def _flat_spec(k: int, log_norm_canon=lambda w: 0.0) -> ExpFamilySpec:
    """The family with omega(h) = h and A identically zero, in k dimensions."""
    return ExpFamilySpec(
        k=k, stat_dim=k,
        canon=lambda h: np.asarray(h, dtype=float),
        log_norm=lambda h: 0.0,
        canon_jac=lambda h: np.eye(k),
        canon_hess=lambda h: np.zeros((k, k, k)),
        log_norm_grad=lambda h: np.zeros(k),
        log_norm_hess=lambda h: np.zeros((k, k)), log_norm_canon=log_norm_canon)


class TestEnvelope:
    def test_flat_normalizer_coeffs_one(self):
        env = envelope_corners(_flat_spec(1), HyperRect(lower=[0.0], upper=[1.0]))
        assert env.d == 2
        assert np.allclose(env.coeffs, 1.0, atol=1e-6)

    def test_rejects_large_stat_dim(self):
        spec = _flat_spec(9)
        with pytest.raises(ValueError):
            envelope_corners(spec, HyperRect(lower=[0.0] * 9, upper=[1.0] * 9))

    def test_requires_log_norm_canon(self):
        spec = _flat_spec(1, log_norm_canon=None)
        with pytest.raises(ValueError):
            envelope_corners(spec, HyperRect(lower=[0.0], upper=[1.0]))

    def test_tiny_rect_no_violations(self):
        rect = HyperRect(lower=[-1e-9, 1.0 - 1e-9], upper=[1e-9, 1.0 + 1e-9])
        env = envelope_corners(TOY5, rect, grid_points=11)
        rng = np.random.default_rng(3)
        th = rng.standard_normal((2000, 5))
        T = np.column_stack([th.sum(1), (th * th).sum(1)])
        assert check_envelope(env, TOY5, rect, T, rect.sample(rng, 50)) == 0

    def test_toy_envelope_and_negative_control(self):
        rect = HyperRect(lower=[-1.0, 0.3], upper=[1.0, 3.0])
        env = envelope_corners(TOY5, rect)
        rng = np.random.default_rng(4)
        hs_s = rect.sample(rng, 5000)
        th = hs_s[:, 0][:, None] + np.sqrt(hs_s[:, 1])[:, None] \
            * rng.standard_normal((5000, 5))
        T = np.column_stack([th.sum(1), (th * th).sum(1)])
        h_grid = rect.sample(rng, 200)
        assert check_envelope(env, TOY5, rect, T, h_grid) == 0
        halved = EnvelopeSet(corners=env.corners, coeffs=env.coeffs / 2,
                             c=env.c, log_norm_at_corners=env.log_norm_at_corners)
        assert check_envelope(halved, TOY5, rect, T, h_grid) > 0

    def test_check_envelope_empty_inputs(self):
        env = envelope_corners(_flat_spec(1), HyperRect(lower=[0.0], upper=[1.0]))
        with pytest.raises(ValueError):
            check_envelope(env, _flat_spec(1), HyperRect(lower=[0.0], upper=[1.0]),
                           np.empty((0, 1)), np.empty((0, 1)))


# ------------------------------------------------------------------
# vectorized ratio family
# ------------------------------------------------------------------

class TestExpFamilyRatio:
    def test_log_f_matches_scalar(self):
        fam = ExpFamilyRatio(TOY5, [0.0, 1.0])
        rng = np.random.default_rng(5)
        Tmat = np.column_stack([rng.normal(size=10) * 3, rng.uniform(1, 20, 10)])
        h = np.array([0.5, 2.0])
        vec = fam.log_f(h, Tmat)
        for i in range(10):
            assert vec[i] == pytest.approx(
                log_ratio(TOY5, h, [0.0, 1.0], Tmat[i]), rel=1e-12)

    def test_log_f_many_matches_loop(self):
        fam = ExpFamilyRatio(TOY5, [0.0, 1.0])
        rng = np.random.default_rng(6)
        Tmat = np.column_stack([rng.normal(size=8) * 3, rng.uniform(1, 20, 8)])
        grid = np.array([[0.0, 1.0], [0.5, 2.0], [-0.7, 0.4]])
        many = fam.log_f_many(grid, Tmat)
        for j, h in enumerate(grid):
            assert np.allclose(many[:, j], fam.log_f(h, Tmat), rtol=1e-12)
