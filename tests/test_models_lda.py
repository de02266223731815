import itertools
import math

import numpy as np
import pytest
from scipy.special import gammaln, polygamma, psi

from priorscan.chain_runtime import simulate
from priorscan.estimators import estimate_B
from priorscan.models.lda import (
    Corpus,
    LDAModel,
    LDAState,
    _digamma,
    _trigamma,
    lda_closeness,
    lda_spec,
    load_corpus,
    save_corpus,
    synth_corpus,
)
from priorscan.prior_family import ExpFamilyRatio, HyperRect, fd_grad, fd_hess
from priorscan.serial_tempering import STGrid, STKernel, lattice_anchors, run_st, st_step


@pytest.fixture(scope="module")
def corpus():
    return synth_corpus(seed=0, D=6, V=12, K=2, n_d=30)


@pytest.fixture(scope="module")
def model(corpus):
    return LDAModel(corpus, K=2)


class TestSpec:
    def test_consistency(self):
        lda_spec(2, 12, 6).check_consistency(np.array([0.7, 1.3]))

    def test_digamma_gradients(self):
        spec = lda_spec(3, 20, 5)
        for h in ([0.5, 0.5], [1.2, 0.8], [2.0, 1.5]):
            h = np.asarray(h, dtype=float)
            assert np.allclose(np.asarray(spec.log_norm_grad(h)),
                               fd_grad(lambda x: float(spec.log_norm(x)), h),
                               rtol=1e-5, atol=1e-6)
            assert np.allclose(np.asarray(spec.log_norm_hess(h)),
                               fd_hess(lambda x: float(spec.log_norm(x)), h),
                               rtol=1e-3, atol=1e-3)

    def test_digamma_trigamma_match_scipy(self):
        root = 1.4616321449683623          # digamma's positive zero
        xs = np.concatenate([np.geomspace(1e-3, 1e4, 701), np.arange(1.0, 30.0),
                             np.arange(1.0, 30.0) - 0.5, [np.nextafter(10.0, 0.0)],
                             root + np.array([-1e-2, -1e-6, -1e-12, 0.0, 1e-12,
                                              1e-6, 1e-2])])
        dig = np.array([_digamma(x) for x in xs])
        tri = np.array([_trigamma(x) for x in xs])
        # relative 1e-13; the absolute 1e-14 matters only near the zero
        assert np.allclose(dig, psi(xs), rtol=1e-13, atol=1e-14)
        assert np.allclose(tri, polygamma(1, xs), rtol=1e-13, atol=0.0)
        assert all(math.isnan(f(x)) for f in (_digamma, _trigamma)
                   for x in (0.0, -0.5, -1e300, math.nan))

    def test_spec_matches_scipy(self):
        K, V, D = 3, 20, 5

        def pair(f, c, a, m, b, x):
            # -c (a f(m x) - b f(x)), and c (|a f(m x)| + |b f(x)|): the
            # magnitude its rounding is relative to (the difference can be 0)
            u, v = a * f(m * x), b * f(x)
            return -c * (u - v), c * (abs(u) + abs(v))

        def d2(x):
            return polygamma(1, x)

        spec = lda_spec(K, V, D)
        for h in itertools.product(np.geomspace(1e-3, 1e3, 13), repeat=2):
            eta, alpha = h
            cases = [
                (spec.log_norm(h), [sum(x) for x in zip(
                    pair(gammaln, K, 1, V, V, eta), pair(gammaln, D, 1, K, K, alpha))]),
                *zip(spec.log_norm_grad(h), [pair(psi, K * V, 1, V, 1, eta),
                                             pair(psi, D * K, 1, K, 1, alpha)]),
                *zip(np.diag(spec.log_norm_hess(h)), [pair(d2, K * V, V, V, 1, eta),
                                                      pair(d2, D * K, K, K, 1, alpha)]),
            ]
            for got, (want, scale) in cases:
                assert abs(got - want) <= 1e-13 * scale, (h, got, want)
            assert spec.log_norm_hess(h)[0, 1] == spec.log_norm_hess(h)[1, 0] == 0.0
        assert math.isnan(spec.log_norm([0.0, 1.0]))
        assert math.isnan(spec.log_norm([1.0, -0.5]))

    def test_identity_canon(self):
        spec = lda_spec(2, 12, 6)
        assert np.allclose(np.asarray(spec.canon([0.7, 1.3])), [-0.3, 0.3])
        assert float(spec.log_norm_canon(np.array([-0.3, 0.3]))) == \
            pytest.approx(float(spec.log_norm([0.7, 1.3])), rel=1e-12)


class TestCorpus:
    def test_synth_deterministic(self):
        a = synth_corpus(seed=3)
        b = synth_corpus(seed=3)
        assert all(np.array_equal(x, y) for x, y in zip(a.docs, b.docs))

    def test_counts(self, corpus):
        assert corpus.D == 6 and corpus.V == 12
        assert corpus.n_tokens == 6 * 30

    def test_round_trip(self, tmp_path, corpus):
        path = tmp_path / "corpus.txt"
        save_corpus(corpus, path)
        back = load_corpus(path)
        assert back.V == corpus.V and back.D == corpus.D
        assert all(np.array_equal(x, y) for x, y in zip(back.docs, corpus.docs))
        assert back.meta["eta_true"] == corpus.meta["eta_true"]

    def test_empty_doc_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 2\n\n3 4\n")
        path.with_suffix(".txt.json").write_text('{"V": 12}')
        with pytest.raises(ValueError):
            load_corpus(path)

    def test_out_of_vocab_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 99\n")
        path.with_suffix(".txt.json").write_text('{"V": 12}')
        with pytest.raises(ValueError):
            load_corpus(path)


class TestSweep:
    def test_invariants_preserved(self, model):
        rng = np.random.default_rng(1)
        state = model.start(rng, [0.6, 0.9])
        n_tok = model.word_ids.size
        doc_lens = np.array([len(d) for d in model.corpus.docs])
        for _ in range(5):
            state = model.sweep(state, [0.6, 0.9], rng)
            assert state.ckv.sum() == n_tok
            assert np.array_equal(state.cdk.sum(axis=1), doc_lens)
            assert np.all((state.z >= 0) & (state.z < model.K))
            assert np.allclose(state.beta.sum(axis=1), 1.0, rtol=1e-12)
            assert np.allclose(state.theta.sum(axis=1), 1.0, rtol=1e-12)
            assert np.all(state.beta >= 0) and np.all(state.theta >= 0)

    def test_bad_h_rejected(self, model):
        rng = np.random.default_rng(0)
        state = model.start(rng, [1.0, 1.0])
        with pytest.raises(ValueError):
            model.sweep(state, [0.0, 1.0], rng)

    def test_trace_deterministic(self, model):
        a = model.trace([1.0, 1.0], n=30, seed=5, burn=10)
        b = model.trace([1.0, 1.0], n=30, seed=5, burn=10)
        assert np.array_equal(a.Tmat, b.Tmat)
        assert np.array_equal(a.g["close_0_1"], b.g["close_0_1"])


class ReferenceLDA(LDAModel):
    """The sweep as first written: two gamma draws, per-token gathers of theta
    and beta, a cumsum along the topics and two bincounts."""

    def sweep(self, state, h, rng):
        eta, alpha = float(h[0]), float(h[1])
        gb = rng.gamma(eta + state.ckv)
        state.beta = gb / gb.sum(axis=1, keepdims=True)
        gt = rng.gamma(alpha + state.cdk)
        state.theta = gt / gt.sum(axis=1, keepdims=True)
        cdf = np.cumsum(state.theta[self.doc_ids] * state.beta.T[self.word_ids],
                        axis=1)
        u = rng.random(self.word_ids.size) * cdf[:, -1]
        state.z = (cdf[:, :-1] <= u[:, None]).sum(axis=1)
        K, V, D = self.K, self.V, self.D
        state.ckv = np.bincount(state.z * V + self.word_ids, minlength=K * V).reshape(K, V)
        state.cdk = np.bincount(self.doc_ids * K + state.z, minlength=D * K).reshape(D, K)
        return state

    def observe(self, state):
        return self.suffstat(state), {
            f"close_{i}_{j}": float(np.linalg.norm(state.theta[i] - state.theta[j]) <= eps)
            for i, j, eps in self.closeness_pairs}


class SuffstatEachStep(STKernel):
    """The serial-tempering kernel recomputing T for every label move."""

    def step(self, state, rng):
        return st_step(state, self.ratio, self.model, rng), False


class TestSameChain:
    """The sweep and the serial-tempering step draw the chain of the reference
    code above from the same random stream, bit for bit."""

    @pytest.mark.parametrize("K, seed", [(2, 1), (2, 7), (3, 2), (3, 11)])
    def test_trace(self, K, seed):
        corpus = synth_corpus(seed=seed, D=5, V=9, K=K, n_d=20)
        pairs = ((0, 1, 0.3), (1, 3, 0.5))
        h = [0.6, 1.7]                                  # eta != alpha
        got = LDAModel(corpus, K, closeness_pairs=pairs).trace(h, n=150, seed=seed, burn=5)
        want = ReferenceLDA(corpus, K, closeness_pairs=pairs).trace(h, n=150, seed=seed, burn=5)
        assert np.array_equal(got.Tmat, want.Tmat)
        assert got.g.keys() == want.g.keys()
        assert all(np.array_equal(got.g[name], want.g[name]) for name in got.g)
        assert 0 < got.g["close_0_1"].sum() < got.n     # the functional moves

    @pytest.mark.parametrize("K, seed", [(2, 3), (3, 5)])
    def test_serial_tempering(self, K, seed):
        corpus = synth_corpus(seed=seed, D=5, V=9, K=K, n_d=20)
        rect = HyperRect(lower=[0.5, 0.4], upper=[2.0, 1.6])
        anchors = lattice_anchors(rect, 2)
        grid = STGrid(anchors=anchors, zetas=[1e3, 1.0, 1e-2, 3.0])
        got = run_st(LDAModel(corpus, K).st_model(anchors), lda_spec(K, 9, 5), grid,
                     n=400, seed=seed)
        ref = ReferenceLDA(corpus, K)
        want = simulate(SuffstatEachStep(ref.st_model(anchors), ref.spec(), grid),
                        n=400, seed=seed)
        assert np.array_equal(got.Tmat, want.Tmat)
        assert all(np.array_equal(got.g[name], want.g[name]) for name in want.g)
        assert np.unique(got.g["_label"]).size > 1      # the label moves


class TestEstimation:
    def test_B_at_h1_exact(self, model):
        h1 = [1.0, 1.0]
        trace = model.trace(h1, n=200, seed=7, burn=20)
        fam = ExpFamilyRatio(model.spec(), h1)
        assert estimate_B(trace, fam, h1) == 1.0

    def test_K1_conjugate_reduction(self, corpus):
        # with a single topic the z's are degenerate and beta is an exact
        # Dirichlet(eta + word counts) draw each sweep; theta_d is the point 1.
        model = LDAModel(corpus, K=1)
        eta = 0.8
        trace = model.trace([eta, 1.0], n=4000, seed=11, burn=5)
        counts = np.bincount(model.word_ids, minlength=model.V)
        expect = float(np.sum(psi(eta + counts)
                              - psi(model.V * eta + counts.sum())))
        vals = trace.Tmat[:, 0]
        se = vals.std(ddof=1) / np.sqrt(trace.n)
        assert abs(vals.mean() - expect) < 4 * se
        assert np.allclose(trace.Tmat[:, 1], 0.0, atol=1e-12)

    def test_K2_exact_enumeration(self):
        # Six tokens, K = 2: sum over all 2^6 topic assignments, each weighted
        # by the collapsed Dirichlet-multinomial p(z | w).  Given z,
        # E[sum log beta] = sum_kv psi(eta + n_kv) - psi(V eta + n_k) and
        # E[sum log theta] = sum_dk psi(alpha + n_dk) - psi(K alpha + n_d).
        corpus = Corpus(docs=(np.array([0, 1, 1]), np.array([2, 2, 0])), V=3)
        K, eta, alpha = 2, 0.7, 0.9
        model = LDAModel(corpus, K=K)
        log_p, T_given_z = [], []
        w, d = model.word_ids, model.doc_ids
        for z in map(np.array, itertools.product(range(K), repeat=w.size)):
            nkv, ndk = np.zeros((K, model.V)), np.zeros((model.D, K))
            np.add.at(nkv, (z, w), 1)
            np.add.at(ndk, (d, z), 1)
            nk, nd = nkv.sum(axis=1, keepdims=True), ndk.sum(axis=1, keepdims=True)
            log_p.append(gammaln(eta + nkv).sum() - gammaln(model.V * eta + nk).sum()
                         + gammaln(alpha + ndk).sum() - gammaln(K * alpha + nd).sum())
            T_given_z.append([(psi(eta + nkv) - psi(model.V * eta + nk)).sum(),
                              (psi(alpha + ndk) - psi(K * alpha + nd)).sum()])
        p = np.exp(np.array(log_p) - max(log_p))
        expect = p @ np.array(T_given_z) / p.sum()

        T = model.trace([eta, alpha], n=20_000, seed=3, burn=10).Tmat
        batches = T.reshape(50, -1, 2).mean(axis=1)
        se = batches.std(axis=0, ddof=1) / np.sqrt(50)
        assert np.all(np.abs(T.mean(axis=0) - expect) < 4 * se)


class TestCloseness:
    def _state_with_theta(self, theta):
        theta = np.asarray(theta, dtype=float)
        return LDAState(z=np.zeros(1, dtype=np.int64),
                        ckv=np.zeros((2, 2), dtype=np.int64),
                        cdk=np.zeros((theta.shape[0], 2), dtype=np.int64),
                        beta=np.zeros((2, 2)), theta=theta)

    def test_same_doc_always_close(self):
        st = self._state_with_theta([[0.3, 0.7], [0.9, 0.1]])
        assert lda_closeness(st, 0, 0, 1e-12) == 1.0

    def test_opposite_corners_far(self):
        st = self._state_with_theta([[1.0, 0.0], [0.0, 1.0]])
        assert lda_closeness(st, 0, 1, 0.5) == 0.0
        assert lda_closeness(st, 0, 1, 2.0) == 1.0

    def test_functional_recorded(self, model):
        trace = model.trace([1.0, 1.0], n=20, seed=3, burn=5)
        vals = trace.functional("close_0_1")
        assert set(np.unique(vals)) <= {0.0, 1.0}


class TestValidation:
    def test_empty_document_in_model(self):
        bad = Corpus(docs=(np.array([0, 1]), np.array([], dtype=np.int64)), V=5)
        with pytest.raises(ValueError):
            LDAModel(bad, K=2)
