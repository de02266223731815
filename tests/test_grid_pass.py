"""The chunked grid passes against dense references, and their memory bound.

The dense references below evaluate log f over the whole trace at once, draw
by draw, as the grid estimators, the argmax's moments and ``tour_sums`` did
before they streamed over chunks of runs of equal rows; they live only here,
as the oracles the chunked results must match.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from priorscan import argmax_inference, estimators
from priorscan.argmax_inference import log_B_derivs, maximize_surface
from priorscan.band_inference import global_band
from priorscan.chain_runtime import ChainTrace, segment_tours, tour_sums
from priorscan.estimators import (_grid_sums, _runs, _segment_sums, _segmentation,
                                  functional_on_grid, grid_estimates, surface_on_grid)
from priorscan.prior_family import ExpFamilyRatio

H1 = [0.0, 1.0]
RTOL = 1e-10


# ------------------------------------------------------------------
# dense reference
# ------------------------------------------------------------------

def dense_estimates(fam, grid, Tmat, g, tours=None, M=None):
    """(B, se_B, I, se_I, ess) from the full (n, G) matrix of f; the SEs are
    the sd of the linearized deviations of the tours, or of M batches that
    cover all n draws, over sqrt(R)."""
    n = tours.n_eff if tours is not None else Tmat.shape[0]
    logf = fam.log_f_many(grid, Tmat[:n])
    g = g[:n]
    shift = logf.max(axis=0)
    f = np.exp(logf - shift)
    c = f.mean(axis=0)
    B = c * np.exp(shift)
    I = (g @ f) / f.sum(axis=0)
    ess = f.sum(axis=0) ** 2 / np.einsum("ij,ij->j", f, f)
    starts = tours.starts0 if tours is not None else np.arange(M) * n // M
    R = starts.size
    N = np.diff(np.append(starts, n))[:, None]
    S = np.add.reduceat(f, starts, axis=0)
    T = np.add.reduceat(g[:, None] * f, starts, axis=0)
    dB = (S - N * c) / (n / R)
    dI = (T - I * S) / (c * n / R)
    se_B = dB.std(axis=0, ddof=1) / np.sqrt(R) * np.exp(shift)
    se_I = dI.std(axis=0, ddof=1) / np.sqrt(R)
    return B, se_B, I, se_I, ess


def dense_band(fam, grid, Tmat, g, M, alpha):
    """(center, sup_stats, half_width) for B (g None) or I_g, from the
    linearized deviations of M batches of floor(n/M) or ceil(n/M) draws that
    cover all n, scaled by sqrt(L), L = n/M."""
    n = Tmat.shape[0]
    L = n / M
    logf = fam.log_f_many(grid, Tmat)
    shift = logf.max(axis=0)
    f = np.exp(logf - shift)
    c = f.mean(axis=0)
    starts = np.arange(M) * n // M
    N = np.diff(np.append(starts, n))[:, None]
    S = np.add.reduceat(f, starts, axis=0)
    if g is None:
        center = c * np.exp(shift)
        dev = (S - N * c) / L * np.exp(shift)
    else:
        center = (g @ f) / f.sum(axis=0)
        T = np.add.reduceat(g[:, None] * f, starts, axis=0)
        dev = (T - center * S) / (c * L)
    sup = np.sqrt(L) * np.abs(dev).max(axis=1)
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
    """Draws per chunk of a pass that holds one (rows, G) block; a pass that
    holds more blocks per row takes proportionally fewer draws."""
    if kind == "one":
        return 1
    if kind == "prime":
        return 7
    if kind == "non-divisor":
        return next(c for c in range(5, n + 2) if n % c)
    return 16 * (n + 3)     # larger than the trace in every pass (<= 9 blocks)


def _close(a, b, scale=0.0):
    """Equal to RTOL relative, or to RTOL times ``scale`` where terms cancel."""
    np.testing.assert_allclose(a, b, rtol=RTOL, atol=RTOL * scale)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(24, 90),
       offset=st.integers(0, 5000),
       chunk=st.sampled_from(["one", "prime", "non-divisor", "larger"]),
       segments=st.sampled_from(["tours", "unit-tours", "mixed", "batches"]),
       flags=st.lists(st.booleans(), min_size=90, max_size=90),
       M=st.integers(2, 7),
       point=st.integers(0, 15),
       functionals=st.booleans(),
       derivs=st.booleans())
@example(n=24, offset=1877, chunk="prime", segments="batches", flags=[False] * 90, M=7,
         point=0, functionals=False, derivs=False)
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
    elif segments == "mixed":
        # unit tours over the first half, then tours of 3 draws or more: a
        # small chunk's sums are row by row in one half and per segment in
        # the other, within one pass
        i = np.arange(n)
        delta = (i <= n // 2) | ((i - n // 2) % 3 == 0) & np.array(flags[:n])
    else:
        delta = np.full(n, segments == "unit-tours")
        delta[0] = True
    trace = ChainTrace(Tmat=Tmat, g={"theta1": g}, delta=delta)
    tours = None if segments == "batches" else segment_tours(trace)
    if segments == "batches" and n % M == 0:
        M += 1                        # batches of floor(n/M) and ceil(n/M) draws
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
        _close(band.ess, dense_estimates(fam, grid, Tmat, g, M=M_band)[4])

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
# repeated rows: the passes over runs against the per-draw references
# ------------------------------------------------------------------

def test_runs():
    T = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 3.0], [np.nan, 0.0], [np.nan, 0.0],
                  [4.0, 4.0], [4.0, 4.0], [4.0, 4.0]])
    X = np.array([[0.0], [1.0], [1.0], [2.0], [2.0], [5.0], [5.0], [5.0]])
    Tr, Xr, w, starts = _runs(T, X, np.array([0, 6, 8]))
    # X breaks the first run, NaN rows never merge, the start at 6 splits the
    # last run, and a start at n maps to the number of runs
    np.testing.assert_array_equal(w, [1, 1, 1, 1, 1, 1, 2])
    np.testing.assert_array_equal(Xr[:, 0], [0, 1, 1, 2, 2, 5, 5])
    np.testing.assert_array_equal(starts, [0, 6, 7])
    assert np.isnan(Tr[3:5, 0]).all()
    Tr, Xr, w, starts = _runs(T)
    np.testing.assert_array_equal(w, [2, 1, 1, 1, 3])
    assert Xr is None and starts is None
    np.testing.assert_array_equal(Tr[[0, 4]], T[[0, 5]])


def _unit_runs(Tmat, X=None, starts=None):
    """Every row its own run of weight 1: the per-draw reference of :func:`_runs`."""
    n = Tmat.shape[0]
    return (Tmat, X, np.ones(n),
            None if starts is None else np.searchsorted(np.arange(n), starts))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(k=st.integers(20, 40),
       offset=st.integers(0, 5000),
       reps=st.lists(st.integers(1, 5), min_size=40, max_size=40),
       chunk=st.sampled_from(["one", "prime", "non-divisor", "larger"]),
       segments=st.sampled_from(["tours", "unit-tours", "batches"]),
       flags=st.lists(st.booleans(), min_size=40, max_size=40),
       M=st.integers(2, 7),
       point=st.integers(0, 15),
       functionals=st.booleans(),
       derivs=st.booleans())
def test_repeated_rows_match_dense(toy_trace, toy_rect, fam, k, offset, reps, chunk,
                                   segments, flags, M, point, functionals, derivs):
    # k distinct rows, each repeated 1-5 times as a rejecting MH chain
    # repeats its state; regeneration flags sit only on the first row of a run
    reps = np.array(reps[:k])
    Tmat = np.repeat(toy_trace.Tmat[offset:offset + k], reps, axis=0)
    g = np.repeat(toy_trace.functional("theta1")[offset:offset + k], reps)
    n, first = Tmat.shape[0], np.cumsum(reps) - reps
    delta = np.zeros(n, dtype=bool)
    if segments == "tours":
        delta[first[np.array(flags[:k])]] = True
        delta[first[[0, k // 3, 2 * k // 3]]] = True  # at least 2 complete tours
    else:
        delta[first if segments == "unit-tours" else 0] = True
    trace = ChainTrace(Tmat=Tmat, g={"theta1": g}, delta=delta)
    tours = None if segments == "batches" else segment_tours(trace)
    if segments == "batches" and n % M == 0:
        M += 1                        # batches of floor(n/M) and ceil(n/M) draws
    grid = toy_rect.grid(4)

    rows = _chunk(chunk, n)
    with mock.patch.object(estimators, "CHUNK_FLOATS", rows * len(grid)):
        est, fest = grid_estimates(trace, fam, grid, "theta1", tours=tours, M=M)
        shift, c, e, I = _grid_sums(fam, grid, *_runs(Tmat, g[:, None])[:3])
        M_band = max(2, n // 10)
        bands = [global_band(trace, fam, name, grid, M=M_band, alpha=0.2)
                 for name in (None, "theta1")]

    B, se_B, I_ref, se_I, ess = dense_estimates(fam, grid, Tmat, g, tours, M)
    _close(est.values, B)
    _close(est.se, se_B)
    _close(est.ess, ess)
    _close(fest.values, I_ref)
    _close(fest.se, se_I)
    _close(shift + np.log(c), dense_log_B(fam, grid, Tmat))
    _close(e, dense_estimates(fam, grid, Tmat, g, M=2)[4])
    _close(I[0], dense_estimates(fam, grid, Tmat, g, M=2)[2])
    for band, gb in zip(bands, (None, g)):
        center, sup, half = dense_band(fam, grid, Tmat, gb, M_band, 0.2)
        _close(band.center, center)
        _close(band.sup_stats, sup)
        _close(band.half_width, half)

    h = grid[point]
    names = ["theta1"] if functionals else []
    T, _, w, _ = _runs(Tmat)
    with mock.patch.object(estimators, "CHUNK_FLOATS", rows):
        derivs_h = log_B_derivs(fam, h, T, w)
        ts = None if tours is None else tour_sums(trace, tours, fam, h, names, derivs)
    ref = dense_log_B_derivs(fam, h, Tmat)
    _close(derivs_h[0], ref[0])
    _close(derivs_h[1], ref[1], np.abs(fam.spec.grad_A(h)).max())
    _close(derivs_h[2], ref[2], np.abs(ref[2]).max())
    _close(derivs_h[3], ref[3])
    if ts is not None:
        S, Tg, gradS, hessS, log_scale = dense_tour_sums(fam, h, trace, tours, names,
                                                         derivs)
        _close(ts.S, S)
        for name in Tg:
            _close(ts.T[name], Tg[name], np.abs(Tg[name]).max())
        if derivs:
            _close(ts.gradS, gradS, np.abs(gradS).max())
            _close(ts.hessS, hessS, np.abs(hessS).max())
        _close(ts.log_scale, log_scale)

    # the argmax over runs against the same search over single draws
    res = maximize_surface(trace, fam, toy_rect, grid_points=5, multi_starts=2)
    with mock.patch.object(argmax_inference, "_runs", _unit_runs):
        dense = maximize_surface(trace, fam, toy_rect, grid_points=5, multi_starts=2)
    ref = dense_log_B_derivs(fam, res.h, Tmat)
    _close(res.log_value, ref[0])
    _close(res.ess, ref[3])
    np.testing.assert_allclose(res.h, dense.h, rtol=0, atol=1e-6)   # Newton's tol


@pytest.mark.parametrize("seed", range(1, 21))
@pytest.mark.parametrize("k", [2, 3, 5])
def test_multiplicity(toy_model, toy_rect, fam, k, seed):
    """Each draw repeated k times (delta on its first copy) leaves B_n, I_g
    and the argmax unchanged, and multiplies the weight ESS by k.  Newton
    keeps its last step, so two searches that differ only by rounding stop
    at the same h."""
    base = toy_model.mh_trace(H1, n=3000, seed=seed)
    rep = ChainTrace(Tmat=np.repeat(base.Tmat, k, axis=0),
                     g={"theta1": np.repeat(base.functional("theta1"), k)},
                     delta=np.repeat(base.delta, k) & (np.arange(k * base.n) % k == 0),
                     ends_at_regen=base.ends_at_regen)
    grid = toy_rect.grid(9)
    a = grid_estimates(base, fam, grid, "theta1", tours=segment_tours(base))
    b = grid_estimates(rep, fam, grid, "theta1", tours=segment_tours(rep))
    for x, y in zip(a, b):
        np.testing.assert_allclose(y.values, x.values, rtol=1e-12)
        np.testing.assert_allclose(y.ess, k * x.ess, rtol=1e-12)
    h_a = maximize_surface(base, fam, toy_rect).h
    h_b = maximize_surface(rep, fam, toy_rect).h
    np.testing.assert_allclose(h_b, h_a, rtol=1e-12, atol=1e-12)


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


@pytest.mark.parametrize("segments, bound_mb", [("batches", 16.0), ("unit-tours", 42.0)])
def test_tour_sums_memory(toy_model, fam, segments, bound_mb):
    """The derivative sums come from per-segment moments of T formed chunk by
    chunk, so beside the run-length collapse and the per-segment sums
    tour_sums holds no per-draw derivative column: over 448 batches of
    n = 200k exact draws those columns alone would take 11 MB."""
    trace = toy_model.exact_trace(h1=H1, n=200_000, seed=5)
    seg = (_segmentation(trace.n, None, None) if segments == "batches"
           else segment_tours(trace))
    tracemalloc.start()
    try:
        tour_sums(trace, seg, fam, [0.2, 1.3], with_derivs=True)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak_mb < bound_mb


def test_maximize_surface_memory(toy_model, toy_rect, fam):
    """Each Newton pass forms the moments of T chunk by chunk, so beside the
    run-length collapse the search holds no per-run column: over n = 200k
    exact draws (every run one draw) those columns alone would take 9.6 MB."""
    trace = toy_model.exact_trace(h1=H1, n=200_000, seed=5)
    tracemalloc.start()
    try:
        maximize_surface(trace, fam, toy_rect, multi_starts=0)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak_mb < 12.0


@pytest.mark.parametrize("which, columns", [("grid", False), ("grid", True), ("grid", "moments"),
                                            ("segments", False), ("segments", True),
                                            ("segments", "moments")])
def test_chunk_holds_chunk_floats(toy_model, toy_rect, fam, which, columns):
    # beside its inputs a pass holds one chunk of CHUNK_FLOATS floats, the
    # next chunk being evaluated after the last is dropped; the segment pass
    # also holds the sums of the segments its chunk closes.  The slack is
    # per-point sums and NumPy's fixed 64 kB ufunc buffer.  True adds the
    # functional's column, "moments" the d + d^2 moments of T about a draw.
    trace = toy_model.mh_trace(H1, n=60_000, seed=2)
    tours = segment_tours(trace)
    g = trace.functional("theta1")[:tours.n_eff, None]
    Tmat, g, w, starts = _runs(trace.Tmat[:tours.n_eff], g, tours.starts0)
    X = g if columns is True else None
    T0 = Tmat[0] if columns == "moments" else None
    grid = toy_rect.grid(21)
    shift = _grid_sums(fam, grid, Tmat, w=w)[0]
    budget = 2 ** 16
    d = Tmat.shape[1]
    cols = 1 + d + d * d if columns == "moments" else 1 + columns
    rows = budget // (len(grid) * cols)
    closed = 0 if which == "grid" else 1 + max(
        np.count_nonzero((starts >= a) & (starts < a + rows))
        for a in range(0, Tmat.shape[0], rows))
    with mock.patch.object(estimators, "CHUNK_FLOATS", budget):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            if which == "grid":
                _grid_sums(fam, grid, Tmat, X, w, T0)
            else:
                for _ in _segment_sums(fam, grid, Tmat, shift, starts, X, w, T0):
                    pass
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert peak <= (budget + closed * cols * len(grid)) * 8 + 2 ** 17


@pytest.mark.parametrize("segments", ["tours", "batches", "unit-tours"])
def test_chunk_size_does_not_matter(toy_model, toy_rect, fam, segments):
    # chunks of 2^12 and of 2^17 floats cut the rows at other places, and so
    # change which segments one chunk sums and which are carried across a
    # chunk edge; the sums, the moment columns' among them, agree
    trace = (toy_model.exact_trace(H1, n=20_000, seed=3) if segments == "unit-tours"
             else toy_model.mh_trace(H1, n=20_000, seed=3))
    seg = (_segmentation(trace.n, None, 50) if segments == "batches"
           else segment_tours(trace))
    g = trace.functional("theta1")[:seg.n_eff, None]
    Tmat, g, w, starts = _runs(trace.Tmat[:seg.n_eff], g, seg.starts0)
    h = np.array([[0.2, 1.3]])

    def sums():
        out = []
        for grid, T0 in ((toy_rect.grid(9), None), (h, Tmat[0])):
            shift = _grid_sums(fam, grid, Tmat, w=w)[0]
            out.append(np.concatenate(
                [P for _, P in _segment_sums(fam, grid, Tmat, shift, starts, g, w, T0)]))
        return out

    with mock.patch.object(estimators, "CHUNK_FLOATS", 2 ** 12):
        small = sums()
    with mock.patch.object(estimators, "CHUNK_FLOATS", 2 ** 17):
        large = sums()
    for a, b in zip(small, large):
        assert a.shape == b.shape == (seg.R,) + a.shape[1:]
        # each column to 1e-13 of its largest segment sum, where sums cancel
        scale = np.abs(b).max(axis=0, keepdims=True)
        np.testing.assert_allclose(a / scale, b / scale, rtol=1e-13, atol=1e-13)
