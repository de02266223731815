"""Surface and functional estimators with tour- and batch-based standard errors.

``B_n(h)`` is the average of the prior ratio ``f_h`` over the trace and
estimates the marginal-likelihood ratio ``m_y(h)/m_y(h1)``; ``I_hat_g(h)`` is
the ``f_h``-weighted average of a recorded functional.  Pointwise standard
errors come from the delta method applied to iid tour sums, or to the sums
of consecutive batches for traces without regeneration marks; the grid
SEs and the band take their deviations from :func:`_deviations`.

Every sum of ``f_h`` over draws is formed by one of two chunked passes over
the trace: :func:`_grid_sums` for whole-trace weighted means of any columns,
and :func:`_segment_sums` for their sums per tour or batch.  The point
estimates, the grid surfaces, the argmax's moments, ``tour_sums`` and the
band all call them, the point estimates at a one-point grid.  A non-finite
``log f_h`` at any grid point raises :class:`InvalidSpecError`.

The passes run over runs of equal consecutive rows (:func:`_runs`), each
weighted by its length: a Metropolis-Hastings chain repeats its state on
every rejection, and every summand is a function of the row, so each sum is
the per-draw sum in exact arithmetic (the accepted values with their
multiplicities, as in Douc & Robert 2011).  A trace without repeated rows
has unit weights and the same sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from priorscan.chain_runtime import ChainTrace, TourIndex, TourSums, tour_sums
from priorscan.prior_family import ExpFamilyRatio, InvalidSpecError, logsumexp

__all__ = [
    "SurfaceEstimate",
    "FunctionalEstimate",
    "estimate_B",
    "weights",
    "estimate_I",
    "ess",
    "pointwise_se_B",
    "pointwise_se_I",
    "cov_I_pair",
    "batch_se",
    "grid_estimates",
    "surface_on_grid",
    "functional_on_grid",
    "ESS_UNRELIABLE",
]

# below this effective sample size, reweighted estimates are flagged unreliable
ESS_UNRELIABLE = 50.0


# ------------------------------------------------------------------
# result containers
# ------------------------------------------------------------------

@dataclass
class SurfaceEstimate:
    """B_n over a grid with pointwise SEs and effective sample sizes."""

    grid: np.ndarray        # (G, k)
    values: np.ndarray      # (G,)
    se: np.ndarray          # (G,)
    ess: np.ndarray         # (G,)
    n: int
    R: int | None = None
    se_method: str = "tour"

    @property
    def unreliable(self) -> np.ndarray:
        return self.ess < ESS_UNRELIABLE

    def to_csv(self, path) -> None:
        grid = np.atleast_2d(self.grid)
        header = ",".join(f"h_{i+1}" for i in range(grid.shape[1])) + ",value,se,ess"
        np.savetxt(path, np.column_stack([grid, self.values, self.se, self.ess]),
                   fmt="%.17g", delimiter=",", header=header, comments="")


@dataclass
class FunctionalEstimate(SurfaceEstimate):
    """I_hat_g over a grid with pointwise SEs and effective sample sizes."""

    g_name: str = ""


# ------------------------------------------------------------------
# point estimates
# ------------------------------------------------------------------

def estimate_B(trace: ChainTrace, family: ExpFamilyRatio, h) -> float:
    """(1/n) sum_i f_h(theta_i), with log f_h shifted by its max."""
    if trace.n == 0:
        raise ValueError("empty trace")
    Tmat, _, w, _ = _runs(trace.Tmat)
    shift, c, _, _ = _grid_sums(family, np.atleast_2d(h), Tmat, w=w)
    return float(c[0] * np.exp(shift[0]))


def weights(trace: ChainTrace, family: ExpFamilyRatio, h) -> np.ndarray:
    """Normalized importance weights w_i^(h); nonnegative, sum to 1."""
    logf = family.log_f(np.asarray(h, dtype=float), trace.Tmat)
    return np.exp(logf - logsumexp(logf))


def estimate_I(trace: ChainTrace, family: ExpFamilyRatio, g_name: str, h) -> float:
    """Weighted posterior-expectation estimate sum_i g_i w_i^(h)."""
    Tmat, g, w, _ = _runs(trace.Tmat, trace.functional(g_name)[:, None])
    return float(_grid_sums(family, np.atleast_2d(h), Tmat, g, w)[3][0, 0])


def ess(trace: ChainTrace, family: ExpFamilyRatio, h) -> float:
    """Effective sample size 1 / sum_i w_i^2, in [1, n]."""
    Tmat, _, w, _ = _runs(trace.Tmat)
    return float(_grid_sums(family, np.atleast_2d(h), Tmat, w=w)[2][0])


# ------------------------------------------------------------------
# tour-based standard errors (delta method over iid tours)
# ------------------------------------------------------------------

def pointwise_se_B(tsums: TourSums) -> float:
    """Delta-method SE of B_n from the tour pairs (S_r, N_r)."""
    R = tsums.R
    if R < 2:
        raise ValueError("need at least 2 complete tours")
    S, N = tsums.S, tsums.N
    Sbar, Nbar = S.mean(), N.mean()
    # influence of the ratio S/N per tour: (S_r - (Sbar/Nbar) N_r) / Nbar
    a = (S - (Sbar / Nbar) * N) / Nbar
    var = float(a @ a) / (R - 1)
    return float(np.sqrt(var / R) * np.exp(tsums.log_scale))


def _influence_I(tsums: TourSums, g_name: str) -> np.ndarray:
    T, S = tsums.T[g_name], tsums.S
    return (T - T.sum() / S.sum() * S) / S.mean()


def pointwise_se_I(tsums: TourSums, g_name: str) -> float:
    """Delta-method SE of I_hat_g from the tour triples (T_r, S_r, N_r).

    The ratio T/S does not involve N directly, so the three-statistic delta
    method reduces to the two-statistic one; scale shifts cancel.
    """
    return float(np.sqrt(cov_I_pair(tsums, tsums, g_name) / tsums.R))


def cov_I_pair(tsums1: TourSums, tsums2: TourSums, g_name: str) -> float:
    """Plug-in covariance of the limit process sqrt(R)(I_hat - I) at two points.

    Symmetric in its arguments; at equal points it equals R times the squared
    pointwise SE exactly (same influence values).
    """
    if tsums1.R != tsums2.R:
        raise ValueError("tour sums must come from the same segmentation")
    R = tsums1.R
    if R < 2:
        raise ValueError("need at least 2 complete tours")
    return float(_influence_I(tsums1, g_name) @ _influence_I(tsums2, g_name)) / (R - 1)


# ------------------------------------------------------------------
# batch means (no regeneration marks needed)
# ------------------------------------------------------------------

def batch_se(trace: ChainTrace, family: ExpFamilyRatio, h, M: int,
             g_name: str | None = None) -> float:
    """Batch-means SE of B_n (or I_hat_g): :func:`pointwise_se_B` (or
    :func:`pointwise_se_I`) with the M batches of :func:`_segmentation` as
    tours.  It is the batch SE of :func:`grid_estimates` at h, from a
    separate pass."""
    names = [] if g_name is None else [g_name]
    ts = tour_sums(trace, _segmentation(trace.n, None, M), family, h, names,
                   with_derivs=False)
    return pointwise_se_B(ts) if g_name is None else pointwise_se_I(ts, g_name)


# ------------------------------------------------------------------
# grid sweeps: one chunked pass over the draws
# ------------------------------------------------------------------

# Floats a chunk of the grid passes holds: 1 MB, which keeps a chunk in a
# core's cache (larger blocks ran slower) and bounds a pass's working set
# whatever the trace length and grid size.  A chunk's rows are
# CHUNK_FLOATS / (G * cols) for the ``cols`` (rows, G) blocks the pass holds.
CHUNK_FLOATS = 2 ** 17


def _log_f_chunks(family: ExpFamilyRatio, grid: np.ndarray, Tmat: np.ndarray,
                  cols: int = 1, max_rows: int | None = None):
    """Yield (first row, (rows, G) block of log f_h) over consecutive chunks
    of CHUNK_FLOATS / (G * cols) rows, and at most ``max_rows``."""
    rows = max(1, min(CHUNK_FLOATS // (grid.shape[0] * cols), max_rows or Tmat.shape[0]))
    for a in range(0, Tmat.shape[0], rows):
        yield a, family.log_f_many(grid, Tmat[a:a + rows])


def _runs(Tmat: np.ndarray, X: np.ndarray | None = None,
          starts: np.ndarray | None = None):
    """(Tmat, X, w, starts) over the runs of equal consecutive rows of
    [Tmat, X]: the rows of ``Tmat`` and ``X`` at each run's first row, ``w``
    the run lengths as floats and ``starts`` the index of the run each
    0-based segment start opens (None without).

    A run also breaks at every segment start, and at a start equal to n,
    which maps to the number of runs.  NaN never equals itself, so NaN rows
    stay runs of one.
    """
    n = Tmat.shape[0]
    new = np.ones(n + 1, dtype=bool)                  # new[n] closes the last run
    new[1:n] = np.any(Tmat[1:] != Tmat[:-1], axis=1)
    if X is not None:
        new[1:n] |= np.any(X[1:] != X[:-1], axis=1)
    if starts is not None:
        new[starts] = True
    edges = np.flatnonzero(new)
    first = edges[:-1]
    return (Tmat[first], None if X is None else X[first], np.diff(edges).astype(float),
            None if starts is None else np.searchsorted(first, starts))


def _grid_sums(family: ExpFamilyRatio, grid: np.ndarray, Tmat: np.ndarray,
               X: np.ndarray | None = None, w: np.ndarray | None = None):
    """(shift, c, ess, I) over the grid from one pass over the draws.

    ``shift`` is the column max of log f_h and ``c`` the mean of
    f_h exp(-shift), so B_n = c exp(shift); ``I`` (None without ``X``) holds
    the f_h-weighted means of the (n, p) columns ``X``, shape (p, G).  Row i
    stands for ``w[i]`` draws (the run lengths of :func:`_runs`; unit weights
    without ``w``): the sums take f w, (f w) f and X^T (f w), and ``c``
    divides by the draw count sum(w).  The pass keeps a running column max
    and sums rescaled to it, the online normalizer of Milakov & Gimelshein
    (2018); that max also sees every non-finite log f_h, which raises
    :class:`InvalidSpecError`.
    """
    w = np.ones(Tmat.shape[0]) if w is None else w
    shift = np.full(grid.shape[0], -np.inf)
    f_sum = f2_sum = xf_sum = np.zeros_like(shift)
    # the chunk holds f; with columns also f w, formed once for three sums
    for a, logf in _log_f_chunks(family, grid, Tmat, 1 if X is None else 1 + X.shape[1]):
        new = np.maximum(shift, logf.max(axis=0))
        scale = np.exp(shift - new)
        f = np.exp(np.subtract(logf, new, out=logf), out=logf)
        wa = w[a:a + f.shape[0]]
        if X is None:
            f_sum = f_sum * scale + wa @ f
            f2_sum = f2_sum * scale ** 2 + wa @ np.square(f, out=f)
        else:
            fw = f * wa[:, None]
            f_sum = f_sum * scale + fw.sum(axis=0)
            f2_sum = f2_sum * scale ** 2 + np.einsum("ij,ij->j", fw, f)
            xf_sum = xf_sum * scale + X[a:a + f.shape[0]].T @ fw
            del fw
        shift = new
        del logf, f                     # before the next chunk is evaluated
    if not np.all(np.isfinite(shift)):
        raise InvalidSpecError(
            f"non-finite log ratio at h={grid[~np.isfinite(shift)][0]}")
    return (shift, f_sum / w.sum(), f_sum ** 2 / f2_sum,
            None if X is None else xf_sum / f_sum)


def _moment_columns(Tmat: np.ndarray, T0: np.ndarray) -> np.ndarray:
    """(rows, d + d^2) columns D = T - T0 and D D^T: about a draw, moments do not cancel."""
    D = Tmat - T0
    return np.hstack([D, (D[:, :, None] * D[:, None, :]).reshape(D.shape[0], -1)])


def _segment_sums(family: ExpFamilyRatio, grid: np.ndarray, Tmat: np.ndarray,
                  shift: np.ndarray, starts: np.ndarray, X: np.ndarray | None,
                  w: np.ndarray, T0: np.ndarray | None = None):
    """Yield (ids, P) in segment order: the sums over the segments ``ids`` of
    rows beginning at ``starts`` (the last ends with Tmat), shape
    (ids.size, 1 + p, G), of f w in P[:, 0] and of the (n, p) columns ``X``
    times f w in P[:, 1:], f = f_h exp(-shift) and ``w`` the rows' run
    lengths; with ``T0`` the :func:`_moment_columns` about it, formed per
    chunk, follow X.  The segment open at a chunk's end is carried on.

    A chunk's sums are one matrix product: w and w X scattered by segment
    into a ((1 + p) segments, rows) block, times the chunk's block of f; with
    ``T0`` the columns multiply f instead, and the block holds w alone.  Up
    to sqrt(CHUNK_FLOATS / block rows per segment) rows bound the block."""
    X = np.empty((Tmat.shape[0], 0)) if X is None else X
    p = X.shape[1] + (0 if T0 is None else Tmat.shape[1] * (Tmat.shape[1] + 1))
    q = 1 if T0 is not None else 1 + p              # block rows per segment
    open_id, carry = 0, 0.0
    for a, logf in _log_f_chunks(family, grid, Tmat, 1 + p, math.isqrt(CHUNK_FLOATS // q)):
        rows = logf.shape[0]
        f = np.exp(np.subtract(logf, shift, out=logf), out=logf)
        cols = np.hstack([np.ones((rows, 1)), X[a:a + rows]]
                         + ([] if T0 is None else [_moment_columns(Tmat[a:a + rows], T0)]))
        c = w[None, a:a + rows] if T0 is not None else (w[a:a + rows, None] * cols).T
        if T0 is not None:
            f = (cols[:, :, None] * f[:, None]).reshape(rows, -1)
        first = int(np.searchsorted(starts, a, side="right")) - 1
        if first != open_id:                  # the carried segment ended at a
            yield np.array([open_id]), carry[None]
            carry = 0.0
        last = np.searchsorted(starts, a + rows)    # first segment after the chunk
        cuts = np.concatenate(([0], starts[first + 1:last] - a))
        if cuts.size == rows:                  # one segment per row (unit tours)
            P = c[:, :, None] * f
        else:
            C = np.zeros((q, cuts.size, rows))
            C[:, np.searchsorted(cuts, np.arange(rows), "right") - 1, np.arange(rows)] = c
            P = C.reshape(-1, rows) @ f
            del C
        del logf, f
        P = P.reshape(q, cuts.size, -1, grid.shape[0])
        P = P[0] if T0 is not None else P[:, :, 0].transpose(1, 0, 2)
        P[0] += carry
        open_id, carry = first + cuts.size - 1, P[-1].copy()
        if cuts.size > 1:
            yield first + np.arange(cuts.size - 1), P[:-1]
        del P                           # before the next chunk is evaluated
    yield np.array([open_id]), carry[None]


def _deviations(trace: ChainTrace, family: ExpFamilyRatio, grid: np.ndarray,
                g_name: str | None, segments: TourIndex):
    """((shift, c, ess, I), deviations): :func:`_grid_sums` over the n_eff
    draws the tours or batches ``segments`` cover, and an iterator of
    (ids, dB, dI), the deviations of the segments from those values, in the
    order of :func:`_segment_sums`.

    With S_r, T_r the sums over segment r of f = f_h exp(-shift) and g f, N_r
    its length and n/R the mean, both in draws: dB_r = (S_r - N_r c) / (n/R)
    and dI_r = (T_r - I S_r) / (c n/R) (None without ``g_name``), the
    delta-method linearization of the self-normalized ratio (Owen 2013,
    ch. 9) for tours and batches alike.  The values and the segments sum the
    same draws, so each set of deviations sums to 0.
    """
    n, lengths, R = segments.n_eff, segments.lengths, segments.R
    g = None if g_name is None else trace.functional(g_name)[:n, None]
    Tmat, g, w, cuts = _runs(trace.Tmat[:n], g, segments.starts0)
    sums = shift, c, _, I = _grid_sums(family, grid, Tmat, g, w)

    def deviations():
        for ids, P in _segment_sums(family, grid, Tmat, shift, cuts, g, w):
            S = P[:, 0]
            dB = (S - lengths[ids, None] * c) / (n / R)
            yield ids, dB, None if g is None else (P[:, 1] - I * S) / (c * n / R)

    return sums, deviations()


def _segmentation(n: int, tours: TourIndex | None, M: int | None) -> TourIndex:
    """The tours, or M consecutive batches (default M = ceil(sqrt(n))) of
    floor(n/M) or ceil(n/M) draws that cover all n draws."""
    if tours is not None:
        return tours
    M = max(2, int(np.ceil(np.sqrt(n)))) if M is None else M
    if M < 2:
        raise ValueError("need at least 2 batches")
    if n < M:
        raise ValueError("more batches than draws")
    return TourIndex(boundaries=np.arange(M + 1) * n // M + 1)


def grid_estimates(trace: ChainTrace, family: ExpFamilyRatio, grid,
                   g_name: str | None = None, tours: TourIndex | None = None,
                   M: int | None = None
                   ) -> tuple[SurfaceEstimate, FunctionalEstimate | None]:
    """B_n and, when ``g_name`` is given, I_hat_g over a grid with pointwise
    SEs: one pass over the draws for the values, one for the SEs.

    SEs are tour-based when a :class:`TourIndex` is supplied, otherwise
    batch-means with ``M`` batches (default ceil(sqrt(n))).
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    segments = _segmentation(trace.n, tours, M)
    R = segments.R
    if R < 2:
        raise ValueError("need at least 2 complete tours")
    (shift, c, ess_vals, I), deviations = _deviations(trace, family, grid, g_name, segments)
    # the deviations sum to 0, so each SE is sqrt(sum d^2 / (R (R - 1))), as in
    # pointwise_se_B and pointwise_se_I; sums of squares for B then for I
    acc = np.zeros((2, grid.shape[0]))
    for _, *devs in deviations:
        for k, d in enumerate(devs if g_name is not None else devs[:1]):
            acc[k] += np.einsum("rj,rj->j", d, d)
    se = np.sqrt(acc / (R - 1) / R)
    common = dict(grid=grid, ess=ess_vals, n=segments.n_eff, R=None if tours is None else R,
                  se_method="batch" if tours is None else "tour")
    est = SurfaceEstimate(values=c * np.exp(shift), se=se[0] * np.exp(shift), **common)
    if g_name is None:
        return est, None
    return est, FunctionalEstimate(values=I[0], se=se[1], g_name=g_name, **common)


def surface_on_grid(trace: ChainTrace, family: ExpFamilyRatio, grid,
                    tours: TourIndex | None = None,
                    M: int | None = None) -> SurfaceEstimate:
    """B_n with pointwise SEs over a grid.

    SEs are tour-based when a :class:`TourIndex` is supplied, otherwise
    batch-means with ``M`` batches (default ceil(sqrt(n)))."""
    return grid_estimates(trace, family, grid, tours=tours, M=M)[0]


def functional_on_grid(trace: ChainTrace, family, g_name: str, grid,
                       tours: TourIndex | None = None,
                       M: int | None = None) -> FunctionalEstimate:
    """I_hat_g with pointwise SEs over a grid (tour- or batch-based)."""
    return grid_estimates(trace, family, grid, g_name, tours=tours, M=M)[1]
