"""The chunked grid passes against dense references, and their memory bound.

The dense references below evaluate log f over the whole trace at once, as the
grid estimators, the argmax's moments and ``tour_sums`` did before they
streamed over chunks of draws; they live only here, as the oracles the chunked
results must match.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from priorscan import estimators
from priorscan.argmax_inference import log_B_derivs, maximize_surface
from priorscan.band_inference import global_band
from priorscan.chain_runtime import ChainTrace, segment_tours, tour_sums
from priorscan.estimators import (_grid_sums, functional_on_grid, grid_estimates,
                                  surface_on_grid)
from priorscan.prior_family import ExpFamilyRatio

H1 = [0.0, 1.0]
RTOL = 1e-10


# ------------------------------------------------------------------
# dense reference
# ------------------------------------------------------------------

def dense_estimates(fam, grid, Tmat, g, tours=None, M=None):
    """(B, se_B, I, se_I, ess) from the full (n, G) matrix of f."""
    n = tours.n_eff if tours is not None else Tmat.shape[0]
    logf = fam.log_f_many(grid, Tmat[:n])
    g = g[:n]
    shift = logf.max(axis=0)
    f = np.exp(logf - shift)
    sums = f.sum(axis=0)
    B = sums / n * np.exp(shift)
    I = (g @ f) / sums
    ess = sums ** 2 / np.einsum("ij,ij->j", f, f)
    if tours is not None:
        N = tours.lengths.astype(float)
        S = np.add.reduceat(f, tours.starts0, axis=0)
        T = np.add.reduceat(g[:, None] * f, tours.starts0, axis=0)
        R = tours.R
        a = (S - np.outer(N / N.mean(), S.mean(axis=0))) / N.mean()
        se_B = np.sqrt(np.einsum("rj,rj->j", a, a) / (R - 1) / R) * np.exp(shift)
        a = (T - I * S) / S.mean(axis=0)
        se_I = np.sqrt(np.einsum("rj,rj->j", a, a) / (R - 1) / R)
        return B, se_B, I, se_I, ess
    L = n // M
    fb = f[:M * L].reshape(M, L, -1)
    se_B = fb.mean(axis=1).std(axis=0, ddof=1) / np.sqrt(M) * np.exp(shift)
    Ib = np.einsum("ml,mlj->mj", g[:M * L].reshape(M, L), fb) / fb.sum(axis=1)
    se_I = Ib.std(axis=0, ddof=1) / np.sqrt(M)
    return B, se_B, I, se_I, ess


def dense_band(fam, grid, Tmat, g, M, alpha):
    """(center, sup_stats, half_width) for B (g None) or I_g."""
    L = Tmat.shape[0] // M
    n = M * L
    logf = fam.log_f_many(grid, Tmat[:n])
    shift = logf.max(axis=0)
    f = np.exp(logf - shift)
    fb = f.reshape(M, L, -1)
    if g is None:
        center = f.mean(axis=0) * np.exp(shift)
        batch = fb.mean(axis=1) * np.exp(shift)
    else:
        center = (g[:n] @ f) / f.sum(axis=0)
        batch = np.einsum("ml,mlj->mj", g[:n].reshape(M, L), fb) / fb.sum(axis=1)
    sup = np.sqrt(L) * np.abs(batch - center).max(axis=1)
    half = np.sort(sup)[int(np.ceil((1 - alpha) * M)) - 1] / np.sqrt(n)
    return center, sup, half


def dense_log_B(fam, grid, Tmat):
    return logsumexp(fam.log_f_many(grid, Tmat), axis=0) - np.log(Tmat.shape[0])


def dense_tour_sums(fam, h, trace, tours, names, with_derivs):
    """(S, T, gradS, hessS, log_scale) from per-draw arrays of f and of its
    h-derivatives, each summed over the tours at once."""
    Tmat = trace.Tmat[:tours.n_eff]
    logf = fam.log_f(h, Tmat)
    f = np.exp(logf - logf.max())
    S = np.add.reduceat(f, tours.starts0)
    T = {name: np.add.reduceat(trace.g[name][:tours.n_eff] * f, tours.starts0)
         for name in names}
    gradS = hessS = None
    if with_derivs:
        u = fam.grad_log_f(h, Tmat)
        gradS = np.add.reduceat(f[:, None] * u, tours.starts0)
        hess = u[:, :, None] * u[:, None, :] + fam.hess_log_f(h, Tmat)
        hessS = np.add.reduceat(f[:, None, None] * hess, tours.starts0)
    return S, T, gradS, hessS, logf.max()


def dense_log_B_derivs(fam, h, Tmat):
    """(log B_n, gradient, Hessian, ESS) from the normalized weight vector,
    with the weighted mean and covariance of T in closed form."""
    logf = fam.log_f(h, Tmat)
    w = np.exp(logf - logsumexp(logf))
    mean = w @ Tmat
    cov = ((Tmat - mean) * w[:, None]).T @ (Tmat - mean)
    spec = fam.spec
    J = spec.jac(h)
    hess = J.T @ cov @ J + np.tensordot(mean, spec.hess_canon(h), 1) - spec.hess_A(h)
    return (logsumexp(logf) - np.log(Tmat.shape[0]), mean @ J - spec.grad_A(h),
            hess, 1.0 / (w @ w))


# ------------------------------------------------------------------
# property test
# ------------------------------------------------------------------

@pytest.fixture(scope="module")
def fam(toy_model):
    return ExpFamilyRatio(toy_model.spec(), H1)


def _chunk(kind: str, n: int) -> int:
    """Draws per chunk."""
    if kind == "one":
        return 1
    if kind == "prime":
        return 7
    if kind == "non-divisor":
        return next(c for c in range(5, n + 2) if n % c)
    return n + 3                                   # larger than the trace


def _close(a, b, scale=0.0):
    """Equal to RTOL relative, or to RTOL times ``scale`` where terms cancel."""
    np.testing.assert_allclose(a, b, rtol=RTOL, atol=RTOL * scale)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(24, 90),
       offset=st.integers(0, 5000),
       chunk=st.sampled_from(["one", "prime", "non-divisor", "larger"]),
       segments=st.sampled_from(["tours", "unit-tours", "batches"]),
       flags=st.lists(st.booleans(), min_size=90, max_size=90),
       M=st.integers(2, 7),
       point=st.integers(0, 15),
       functionals=st.booleans(),
       derivs=st.booleans())
def test_chunked_matches_dense(toy_trace, toy_rect, fam, n, offset, chunk,
                               segments, flags, M, point, functionals, derivs):
    Tmat = toy_trace.Tmat[offset:offset + n]
    g = toy_trace.functional("theta1")[offset:offset + n]
    if segments == "tours":
        # every third draw at most regenerates, so most tours are longer than
        # the small chunks and straddle their edges; the trailing partial
        # tour is dropped
        delta = np.array([True] + flags[1:n])
        delta[1:] &= np.arange(1, n) % 3 == 0
        delta[[n // 3, 2 * n // 3]] = True        # at least 2 complete tours
    else:
        delta = np.full(n, segments == "unit-tours")
        delta[0] = True
    trace = ChainTrace(Tmat=Tmat, g={"theta1": g}, delta=delta)
    tours = None if segments == "batches" else segment_tours(trace)
    if segments == "batches" and n % M == 0:
        M += 1                                     # keep a remainder
    grid = toy_rect.grid(4)

    rows = _chunk(chunk, n)
    with mock.patch.object(estimators, "CHUNK_FLOATS", rows * len(grid)):
        est, fest = grid_estimates(trace, fam, grid, "theta1", tours=tours, M=M)
        alone = surface_on_grid(trace, fam, grid, tours=tours, M=M)
        falone = functional_on_grid(trace, fam, "theta1", grid, tours=tours, M=M)
        shift, c, _, _ = _grid_sums(fam, grid, Tmat)     # the argmax grid objective
        M_band = max(2, n // 10)
        bands = [global_band(trace, fam, name, grid, M=M_band, alpha=0.2)
                 for name in (None, "theta1")]

    B, se_B, I, se_I, ess = dense_estimates(fam, grid, Tmat, g, tours, M)
    for e in (est, alone):
        _close(e.values, B)
        _close(e.se, se_B)
        _close(e.ess, ess)
    for e in (fest, falone):
        _close(e.values, I)
        _close(e.se, se_I)
        _close(e.ess, ess)
    _close(shift + np.log(c), dense_log_B(fam, grid, Tmat))
    for band, gb in zip(bands, (None, g)):
        center, sup, half = dense_band(fam, grid, Tmat, gb, M_band, 0.2)
        _close(band.center, center)
        _close(band.sup_stats, sup)
        _close(band.half_width, half)
        _close(band.ess, dense_estimates(fam, grid, Tmat[:band.n], g[:band.n],
                                         M=M_band)[4])

    # the one-point passes, chunked by the same number of draws
    h = grid[point]
    names = ["theta1"] if functionals else []
    with mock.patch.object(estimators, "CHUNK_FLOATS", rows):
        derivs_h = log_B_derivs(fam, h, Tmat)
        point_I = estimators.estimate_I(trace, fam, "theta1", h)
        point_ess = estimators.ess(trace, fam, h)
        ts = None if tours is None else tour_sums(trace, tours, fam, h, names, derivs)
    _, _, I, _, e = dense_estimates(fam, h[None, :], Tmat, g, M=2)
    _close(point_I, I[0])
    _close(point_ess, e[0])
    ref = dense_log_B_derivs(fam, h, Tmat)
    _close(derivs_h[0], ref[0])
    _close(derivs_h[1], ref[1], np.abs(fam.spec.grad_A(h)).max())
    _close(derivs_h[2], ref[2], np.abs(ref[2]).max())
    _close(derivs_h[3], ref[3])
    if ts is None:
        return
    S, T, gradS, hessS, log_scale = dense_tour_sums(fam, h, trace, tours, names, derivs)
    _close(ts.N, tours.lengths)
    _close(ts.S, S)
    assert ts.T.keys() == T.keys()
    for name in T:
        _close(ts.T[name], T[name], np.abs(T[name]).max())
    assert (ts.gradS is None) == (ts.hessS is None) == (not derivs)
    if derivs:
        _close(ts.gradS, gradS, np.abs(gradS).max())
        _close(ts.hessS, hessS, np.abs(hessS).max())
    _close(ts.log_scale, log_scale)


# ------------------------------------------------------------------
# memory
# ------------------------------------------------------------------

def test_memory_bounded_by_chunk(toy_model, toy_rect, fam):
    """At n = 200k and G = 441 a dense (n, G) array alone is 706 MB."""
    trace = toy_model.exact_trace(h1=H1, n=200_000, seed=5)
    tours = segment_tours(trace)
    grid = toy_rect.grid(21)
    tracemalloc.start()
    try:
        surface_on_grid(trace, fam, grid, tours=tours)
        functional_on_grid(trace, fam, "theta1", grid, tours=tours)
        global_band(trace, fam, "theta1", grid)
        maximize_surface(trace, fam, toy_rect, multi_starts=0)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak_mb < 64.0
