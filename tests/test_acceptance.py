"""Acceptance gate: the eleven criteria, each printing one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
Tolerances are pinned in the assertions below; helper replication counts and
seeds are fixed so the whole file is deterministic.
"""

import dataclasses
import time

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import multivariate_normal

from priorscan.argmax_inference import (
    confidence_ellipse,
    hessian_Jn,
    maximize_surface,
    tau_n_sq,
    v_n_sq,
)
from priorscan.band_inference import global_band
from priorscan.chain_runtime import ChainTrace, segment_tours, tour_sums
from priorscan.estimators import (
    batch_se,
    cov_I_pair,
    estimate_B,
    estimate_I,
    functional_on_grid,
    pointwise_se_B,
    surface_on_grid,
)
from priorscan.models.lda import LDAModel, lda_spec, synth_corpus
from priorscan.models.normal_hier import (
    NormalHierModel,
    mh_ensemble_traces,
    normal_hier_spec,
)
from priorscan.models.varsel import VSModel, VSState, synth_regression, vs_rn_derivative, vs_spec
from priorscan.prior_family import (
    ExpFamilyRatio,
    HyperRect,
    check_envelope,
    envelope_corners,
    fd_grad,
)
from priorscan.serial_tempering import STGrid, lattice_anchors, occupancies, run_st, tune_zeta

H1 = np.array([0.0, 1.0])


def _model():
    return NormalHierModel(y=np.array([-2.0, -1.0, 0.0, 1.0, 2.0]))


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def _fd_hess_direct(f, x, rel_step=1e-4):
    x = np.asarray(x, dtype=float)
    k = x.size
    h = rel_step * (1.0 + np.abs(x))
    H = np.empty((k, k))
    f0 = f(x)
    for i in range(k):
        ei = np.zeros(k); ei[i] = h[i]
        H[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / h[i] ** 2
        for j in range(i + 1, k):
            ej = np.zeros(k); ej[j] = h[j]
            H[i, j] = H[j, i] = (f(x + ei + ej) - f(x + ei - ej)
                                 - f(x - ei + ej) + f(x - ei - ej)) \
                / (4.0 * h[i] * h[j])
    return H


@pytest.fixture(scope="module")
def big_trace():
    """n = 1e5 iid toy trace shared by criteria 1 and 2."""
    return _model().exact_trace(H1, n=100_000, seed=101)


# ----------------------------------------------------------------------
# 1. surface oracle
# ----------------------------------------------------------------------

def test_criterion_01_surface_oracle(big_trace):
    model = _model()
    fam = ExpFamilyRatio(model.spec(), H1)
    grid = model.rect.grid(21)
    t0 = time.perf_counter()
    tours = segment_tours(big_trace)
    est = surface_on_grid(big_trace, fam, grid, tours=tours)
    elapsed = time.perf_counter() - t0
    truth = np.array([model.oracle_B(h, H1) for h in grid])
    diff = np.abs(est.values - truth)
    ok_pt = (diff <= 4.0 * est.se) | (diff == 0.0)
    frac = ok_pt.mean()
    _report(1, frac >= 0.95 and elapsed < 10.0,
            f"|B_n - B| <= 4se at {frac:.1%} of 441 points "
            f"(need >=95%), runtime {elapsed:.2f}s (limit 10s)")


# ----------------------------------------------------------------------
# 2. posterior-expectation oracle
# ----------------------------------------------------------------------

def test_criterion_02_functional_oracle(big_trace):
    model = _model()
    fam = ExpFamilyRatio(model.spec(), H1)
    grid = model.rect.grid(21)
    tours = segment_tours(big_trace)
    fest = functional_on_grid(big_trace, fam, "theta1", grid, tours=tours)
    truth = np.array([model.oracle_I_theta1(h) for h in grid])
    diff = np.abs(fest.values - truth)
    ok_pt = (diff <= 4.0 * fest.se) | (diff == 0.0)
    frac = ok_pt.mean()
    _report(2, frac >= 0.95,
            f"|I_hat - I| <= 4se at {frac:.1%} of 441 points (need >=95%)")


# ----------------------------------------------------------------------
# 3. argmax consistency
# ----------------------------------------------------------------------

def test_criterion_03_argmax_consistency():
    model = _model()
    fam = ExpFamilyRatio(model.spec(), H1)
    hits = 0
    worst = 0.0
    for seed in range(20):
        trace = model.exact_trace(H1, n=200_000, seed=1000 + seed)
        res = maximize_surface(trace, fam, model.rect, grid_points=9,
                               multi_starts=0)
        err = float(np.linalg.norm(res.h - H1))
        worst = max(worst, err)
        hits += int(err <= 0.1)
    _report(3, hits >= 19,
            f"||h_n - (0,1)|| <= 0.1 on {hits}/20 seeds (need >=19), "
            f"worst error {worst:.3f}")


# ----------------------------------------------------------------------
# 4. ellipse coverage
# ----------------------------------------------------------------------

def test_criterion_04_ellipse_coverage():
    model = _model()
    fam = ExpFamilyRatio(model.spec(), H1)
    t0 = time.perf_counter()
    traces = mh_ensemble_traces(model, H1, n=20_000, n_chains=300, seed=5)
    covered = 0
    for trace in traces:
        res = maximize_surface(trace, fam, model.rect, grid_points=9,
                               multi_starts=0)
        tours = segment_tours(trace)
        ts = tour_sums(trace, tours, fam, res.h)
        v = v_n_sq(hessian_Jn(ts), tau_n_sq(ts))
        ell = confidence_ellipse(res.h, v, tours.R, alpha=0.05)
        covered += int(ell.contains(H1))
    elapsed = time.perf_counter() - t0
    cov = covered / 300.0
    _report(4, 0.91 <= cov <= 0.985 and elapsed < 300.0,
            f"95% ellipse covered h_0 in {covered}/300 reps "
            f"({cov:.3f}, need [0.91, 0.985]), runtime {elapsed:.0f}s "
            f"(limit 300s)")


# ----------------------------------------------------------------------
# 5. global band coverage
# ----------------------------------------------------------------------

def test_criterion_05_band_coverage():
    model = _model()
    fam = ExpFamilyRatio(model.spec(), H1)
    grid = HyperRect([-0.5], [0.5]).grid(41)
    grid = np.column_stack([grid[:, 0], np.full(41, 1.0)])  # mu sweep, tau2=1
    truth = np.array([model.oracle_I_theta1(h) for h in grid])
    n = 20_000
    covered = 0
    for rep in range(200):
        trace = model.exact_trace(H1, n=n, seed=5000 + rep)
        band = global_band(trace, fam, "theta1", grid, alpha=0.05)
        covered += int(band.covers(truth))
    cov = covered / 200.0
    _report(5, 0.90 <= cov <= 0.99,
            f"simultaneous band covered the I_g curve in {covered}/200 reps "
            f"({cov:.3f}, need [0.90, 0.99]), M = ceil(sqrt(n)) = {band.M}")


# ----------------------------------------------------------------------
# 6. regeneration machinery
# ----------------------------------------------------------------------

def test_criterion_06_regeneration():
    model = _model()
    fam = ExpFamilyRatio(model.spec(), H1)
    trace = model.mh_trace(H1, R=5000, seed=61)
    tours = segment_tours(trace)
    h = np.array([0.3, 1.4])
    ts = tour_sums(trace, tours, fam, h, with_derivs=False)

    def lag1(x):
        x = x - x.mean()
        return float(x[:-1] @ x[1:] / (x @ x))

    rho_N = abs(lag1(ts.N.astype(float)))
    rho_S = abs(lag1(ts.S))
    a_ok = rho_N < 0.05 and rho_S < 0.05

    grid = model.rect.grid(5)
    ratios = []
    for hg in grid:
        tsg = tour_sums(trace, tours, fam, hg, with_derivs=False)
        se_t = pointwise_se_B(tsg)
        se_b = batch_se(trace, fam, hg, M=int(np.ceil(np.sqrt(trace.n))))
        ratios.append(se_t / se_b)
    med = float(np.median(ratios))
    b_ok = 1.0 / 1.5 <= med <= 1.5

    # split-chain invariant moments: posterior mean and second moment of
    # theta_1, with batch-means SEs on the dependent chain
    mean, sd = model.posterior_params(H1)
    g = trace.functional("theta1")
    tr2 = ChainTrace(Tmat=trace.Tmat, g={"m1": g, "m2": g * g},
                     delta=trace.delta, ends_at_regen=trace.ends_at_regen)
    M = int(np.ceil(np.sqrt(trace.n)))
    z1 = abs(g.mean() - mean[0]) / batch_se(tr2, fam, H1, M=M, g_name="m1")
    z2 = abs((g * g).mean() - (sd ** 2 + mean[0] ** 2)) \
        / batch_se(tr2, fam, H1, M=M, g_name="m2")
    c_ok = z1 < 4.0 and z2 < 4.0

    _report(6, a_ok and b_ok and c_ok,
            f"(a) tour lag-1 autocorr {rho_N:.4f}/{rho_S:.4f} (<0.05); "
            f"(b) tour/batch SE median ratio {med:.3f} (within 1.5x); "
            f"(c) moment z-scores {z1:.2f}, {z2:.2f} (<4)")


# ----------------------------------------------------------------------
# 7. envelope certificates
# ----------------------------------------------------------------------

def _toy_theta_sample(rng, rect, n):
    h = rect.sample(rng, n)
    mu, t2 = h[:, 0], h[:, 1]
    z = rng.standard_normal((n, 5))
    theta = mu[:, None] + np.sqrt(t2)[:, None] * z
    return np.column_stack([theta.sum(axis=1), (theta ** 2).sum(axis=1)])


def _dirichlet_theta_sample(rng, rect, n, K=2, V=12, D=6):
    h = rect.sample(rng, n)
    T = np.empty((n, 2))
    for i in range(n):
        eta, alpha = h[i]
        gb = rng.gamma(eta, size=(K, V))
        beta = gb / gb.sum(axis=1, keepdims=True)
        gt = rng.gamma(alpha, size=(D, K))
        theta = gt / gt.sum(axis=1, keepdims=True)
        T[i] = [np.log(beta).sum(), np.log(theta).sum()]
    return T


def test_criterion_07_envelope():
    cases = [
        ("toy", normal_hier_spec(5), HyperRect([-1.0, 0.3], [1.0, 3.0]),
         _toy_theta_sample),
        ("dirichlet", lda_spec(2, 12, 6), HyperRect([0.1, 0.1], [2.0, 2.0]),
         _dirichlet_theta_sample),
    ]
    details = []
    ok = True
    for name, spec, rect, sampler in cases:
        rng = np.random.default_rng(7)
        env = envelope_corners(spec, rect)
        Tmat = sampler(rng, rect, 100_000)
        h_grid = rect.grid(32)[:1000]
        viol = check_envelope(env, spec, rect, Tmat, h_grid)
        halved = dataclasses.replace(env, coeffs=env.coeffs / 2.0)
        viol_neg = check_envelope(halved, spec, rect, Tmat, h_grid)
        ok = ok and viol == 0 and viol_neg > 0
        details.append(f"{name}: {viol} violations (need 0), "
                       f"halved control {viol_neg} (need >0)")
    _report(7, ok, "; ".join(details) + " — over 1e5 theta x 1e3 h each")


# ----------------------------------------------------------------------
# 8. gradients
# ----------------------------------------------------------------------

def test_criterion_08_gradients():
    families = {
        "toy": (normal_hier_spec(5), HyperRect([-1.0, 0.3], [1.0, 3.0]),
                lambda rng: rng.normal(0.0, 3.0, size=2)),
        "dirichlet": (lda_spec(2, 12, 6), HyperRect([0.1, 0.1], [2.0, 2.0]),
                      lambda rng: -np.abs(rng.normal(50.0, 20.0, size=2))),
        "vs": (vs_spec(6), HyperRect([0.1, 1.0], [0.9, 30.0]),
               lambda rng: np.array([rng.integers(0, 7), rng.gamma(2.0)])),
    }
    worst_g = worst_h = 0.0
    for name, (spec, rect, draw_T) in families.items():
        rng = np.random.default_rng(8)
        for _ in range(100):
            h1 = rect.sample(rng, 1)[0]
            h2 = rect.sample(rng, 1)[0]
            T = draw_T(rng)
            fam = ExpFamilyRatio(spec, h1)

            def logf(h):
                return float(fam.log_f(np.asarray(h), T[None, :])[0])

            g_an = fam.grad_log_f(h2, T[None, :])[0]
            g_fd = fd_grad(logf, h2)
            worst_g = max(worst_g, np.linalg.norm(g_fd - g_an)
                          / max(np.linalg.norm(g_an), 1.0))
            h_an = fam.hess_log_f(h2, T[None, :])[0]
            h_fd = _fd_hess_direct(logf, h2)
            worst_h = max(worst_h, np.linalg.norm(h_fd - h_an)
                          / max(np.linalg.norm(h_an), 1.0))

    # VS RN-derivative gradient against finite differences
    rng = np.random.default_rng(88)
    worst_rn = 0.0
    for _ in range(100):
        q = 6
        gamma = rng.random(q) < 0.5
        st = VSState(gamma=gamma, sigma2=1.0, beta0=0.0,
                     beta_gamma=np.zeros(int(gamma.sum())),
                     u=float(rng.gamma(2.0)))
        h1 = [float(rng.uniform(0.1, 0.9)), float(rng.uniform(1.0, 30.0))]
        h2 = np.array([rng.uniform(0.1, 0.9), rng.uniform(1.0, 30.0)])
        _, _, grad = vs_rn_derivative(st, h1, h2, q=q)
        fd = fd_grad(lambda h: vs_rn_derivative(st, h1, h, q=q)[1], h2)
        worst_rn = max(worst_rn, np.linalg.norm(fd - grad)
                       / max(np.linalg.norm(grad), 1.0))
    ok = worst_g < 1e-6 and worst_rn < 1e-6 and worst_h < 1e-5
    _report(8, ok,
            f"max rel err: grad {worst_g:.2e} (<1e-6), "
            f"RN grad {worst_rn:.2e} (<1e-6), hess {worst_h:.2e} (<1e-5), "
            f"100 random inputs per family")


# ----------------------------------------------------------------------
# 9. variable-selection exactness
# ----------------------------------------------------------------------

def test_criterion_09_vs_exactness():
    data = synth_regression(seed=9, m=8, q=2)
    model = VSModel(y=data.y, X=data.X)
    h = [0.4, 6.0]

    # (i) quadrature certificate for log_collapsed (gamma = (1,0) vs empty)
    x = model.X[:, 0]
    ytil = model.ytil
    xtx = float(x @ x)
    g = h[1]
    m = model.m

    def integrand(beta, sigma):
        resid = ytil - beta * x
        return (sigma ** (-m) * np.exp(-0.5 * resid @ resid / sigma ** 2)
                * np.exp(-0.5 * beta ** 2 * xtx / (g * sigma ** 2))
                / np.sqrt(g * sigma ** 2 / xtx))

    on, _ = integrate.dblquad(integrand, 0.05, 20.0, -10.0, 10.0)
    off, _ = integrate.quad(
        lambda s: s ** (-m) * np.exp(-0.5 * ytil @ ytil / s ** 2), 0.05, 20.0)
    quad_ratio = on / off / np.sqrt(2.0 * np.pi)
    g10 = np.array([True, False])
    g00 = np.array([False, False])
    closed = np.exp(model.log_collapsed(g10, h) - model.log_collapsed(g00, h)) \
        / (h[0] / (1.0 - h[0]))  # strip the prior-odds factor
    quad_ok = abs(quad_ratio / closed - 1.0) < 1e-6

    # Gibbs gamma-marginals against the (quadrature-certified) enumeration
    # enumerate in code order: code = gamma_1 + 2 gamma_2
    gammas = [np.array([bool(code & 1), bool(code & 2)]) for code in range(4)]
    lw = np.array([model.log_collapsed(gm, h) for gm in gammas])
    p = np.exp(lw - lw.max()); p /= p.sum()
    trace = model.trace(h, n=20_000, seed=91)
    qg = trace.functional("qgamma")
    incl1 = trace.functional("incl1")
    codes = (incl1 > 0.5).astype(int) + 2 * ((qg - incl1) > 0.5).astype(int)
    z_worst = 0.0
    for code in range(4):
        ind = (codes == code).astype(float)
        est = ind.mean()
        bm = ind.reshape(100, -1).mean(axis=1)
        se = bm.std(ddof=1) / np.sqrt(100)
        z_worst = max(z_worst, abs(est - p[code]) / max(se, 1e-12))
    gibbs_ok = z_worst < 4.0

    # (ii) RN derivative vs independent density-ratio evaluation
    rng = np.random.default_rng(92)
    worst_rn = 0.0
    h1, h2 = [0.3, 4.0], [0.6, 12.0]
    for _ in range(20):
        gamma = np.array([True, True])
        beta = rng.normal(size=2)
        sigma2 = float(rng.gamma(2.0))
        XtX = model.X.T @ model.X
        u = float(beta @ XtX @ beta) / sigma2
        st = VSState(gamma=gamma, sigma2=sigma2, beta0=0.0,
                     beta_gamma=beta, u=u)
        val, _, _ = vs_rn_derivative(st, h1, h2, q=2)
        direct = 1.0
        for (w, gg) in (h2, h1):
            dens = (w ** 2) * multivariate_normal.pdf(
                beta, mean=np.zeros(2), cov=gg * sigma2 * np.linalg.inv(XtX))
            direct = direct * dens if (w, gg) == tuple(h2) else direct / dens
        worst_rn = max(worst_rn, abs(val / direct - 1.0))
    rn_ok = worst_rn < 1e-10

    # (iii) multiplicativity
    worst_mult = 0.0
    for _ in range(50):
        gamma = rng.random(2) < 0.5
        st = VSState(gamma=gamma, sigma2=1.0, beta0=0.0,
                     beta_gamma=np.zeros(int(gamma.sum())),
                     u=float(rng.gamma(2.0)))
        ha = [rng.uniform(0.1, 0.9), rng.uniform(1.0, 20.0)]
        hb = [rng.uniform(0.1, 0.9), rng.uniform(1.0, 20.0)]
        hc = [rng.uniform(0.1, 0.9), rng.uniform(1.0, 20.0)]
        vab, _, _ = vs_rn_derivative(st, ha, hb, q=2)
        vbc, _, _ = vs_rn_derivative(st, hb, hc, q=2)
        vac, _, _ = vs_rn_derivative(st, ha, hc, q=2)
        worst_mult = max(worst_mult, abs(vab * vbc / vac - 1.0))
    mult_ok = worst_mult < 1e-10

    _report(9, quad_ok and gibbs_ok and rn_ok and mult_ok,
            f"quadrature certificate rel err "
            f"{abs(quad_ratio / closed - 1.0):.2e} (<1e-6); Gibbs marginal "
            f"worst z {z_worst:.2f} (<4); RN vs density ratio "
            f"{worst_rn:.2e} (<1e-10); multiplicativity {worst_mult:.2e} "
            f"(<1e-10)")


# ----------------------------------------------------------------------
# 10. LDA desk scale
# ----------------------------------------------------------------------

def test_criterion_10_lda():
    corpus = synth_corpus(seed=10, D=6, V=12, K=2, n_d=30)
    model = LDAModel(corpus, K=2)
    h1 = [1.0, 1.0]
    trace = model.trace(h1, n=20_000, seed=110, burn=50)
    fam = ExpFamilyRatio(model.spec(), h1)
    B_h1 = estimate_B(trace, fam, h1)
    grid = model.rect.grid(9)
    est = surface_on_grid(trace, fam, grid, M=100)
    finite_ok = bool(np.all(np.isfinite(est.values)) and np.all(est.values > 0))

    # serial tempering over the anchor box with m = 9
    st_rect = HyperRect([0.5, 0.5], [2.0, 2.0])
    anchors = lattice_anchors(st_rect, 3)
    grid0 = STGrid(anchors=anchors, zetas=np.ones(9))
    tuned, converged, _ = tune_zeta(model.st_model(anchors), model.spec(), grid0,
                                    rounds=10, steps_per_round=3000, seed=10)
    st_trace = run_st(model.st_model(anchors), model.spec(), tuned,
                      n=10_000, seed=111)
    occ = occupancies(st_trace, 9)
    occ_ok = bool(np.all(occ >= 0.5 / 9) and np.all(occ <= 2.0 / 9))

    # K = 1 conjugate reduction
    from scipy.special import psi
    model1 = LDAModel(corpus, K=1)
    eta = 0.8
    tr1 = model1.trace([eta, 1.0], n=4000, seed=112, burn=5)
    counts = np.bincount(model1.word_ids, minlength=model1.V)
    expect = float(np.sum(psi(eta + counts) - psi(model1.V * eta + counts.sum())))
    vals = tr1.Tmat[:, 0]
    z = abs(vals.mean() - expect) / (vals.std(ddof=1) / np.sqrt(tr1.n))
    conj_ok = z < 4.0

    _report(10, B_h1 == 1.0 and finite_ok and occ_ok and conj_ok,
            f"B_n(h1) = {B_h1} (need exactly 1); 9x9 surface finite: "
            f"{finite_ok}; ST occupancies in [{occ.min():.3f}, {occ.max():.3f}] "
            f"(need within [{0.5/9:.3f}, {2/9:.3f}], tuning converged="
            f"{converged}); K=1 conjugate z = {z:.2f} (<4)")


# ----------------------------------------------------------------------
# 11. covariance plug-in
# ----------------------------------------------------------------------

def test_criterion_11_cov_pair():
    model = _model()
    fam = ExpFamilyRatio(model.spec(), H1)
    h_a, h_b = np.array([0.5, 1.5]), np.array([-0.5, 0.8])
    I_a = model.oracle_I_theta1(h_a)
    I_b = model.oracle_I_theta1(h_b)
    nrep, n = 500, 2000
    pairs = np.empty((nrep, 2))
    plug = np.empty(nrep)
    for rep in range(nrep):
        trace = model.exact_trace(H1, n=n, seed=11_000 + rep)
        tours = segment_tours(trace)
        ts_a = tour_sums(trace, tours, fam, h_a, with_derivs=False)
        ts_b = tour_sums(trace, tours, fam, h_b, with_derivs=False)
        sqR = np.sqrt(tours.R)
        pairs[rep] = [sqR * (estimate_I(trace, fam, "theta1", h_a) - I_a),
                      sqR * (estimate_I(trace, fam, "theta1", h_b) - I_b)]
        plug[rep] = cov_I_pair(ts_a, ts_b, "theta1")
    emp = float(np.cov(pairs.T, ddof=1)[0, 1])
    mean_plug = float(plug.mean())
    prods = (pairs[:, 0] - pairs[:, 0].mean()) * (pairs[:, 1] - pairs[:, 1].mean())
    mc_se = float(prods.std(ddof=1) / np.sqrt(nrep))
    z = abs(mean_plug - emp) / mc_se
    _report(11, z < 3.0,
            f"plug-in cov {mean_plug:.4f} vs replication cov {emp:.4f}, "
            f"|diff| = {z:.2f} MC SEs (need <3 over 500 reps)")
