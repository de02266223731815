"""Surface and functional estimators with tour- and batch-based standard errors.

``B_n(h)`` is the average of the prior ratio ``f_h`` over the trace and
estimates the marginal-likelihood ratio ``m_y(h)/m_y(h1)``; ``I_hat_g(h)`` is
the ``f_h``-weighted average of a recorded functional.  Pointwise standard
errors come from the delta method applied to iid tour sums; a batch-means
alternative is provided for traces without regeneration marks.

Every sum of ``f_h`` over draws is formed by one of two chunked passes over
the trace: :func:`_grid_sums` for whole-trace weighted means of any columns,
and :func:`_segment_sums` for their sums per tour or batch.  The point
estimates, the grid surfaces, the argmax's moments, ``tour_sums`` and the
band all call them, the point estimates at a one-point grid.  A non-finite
``log f_h`` at any grid point raises :class:`InvalidSpecError`.
"""

from __future__ import annotations

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
    "batch_values",
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
    shift, c, _, _ = _grid_sums(family, np.atleast_2d(h), trace.Tmat)
    return float(c[0] * np.exp(shift[0]))


def weights(trace: ChainTrace, family: ExpFamilyRatio, h) -> np.ndarray:
    """Normalized importance weights w_i^(h); nonnegative, sum to 1."""
    logf = family.log_f(np.asarray(h, dtype=float), trace.Tmat)
    return np.exp(logf - logsumexp(logf))


def estimate_I(trace: ChainTrace, family: ExpFamilyRatio, g_name: str, h) -> float:
    """Weighted posterior-expectation estimate sum_i g_i w_i^(h)."""
    g = trace.functional(g_name)[:, None]
    return float(_grid_sums(family, np.atleast_2d(h), trace.Tmat, g)[3][0, 0])


def ess(trace: ChainTrace, family: ExpFamilyRatio, h) -> float:
    """Effective sample size 1 / sum_i w_i^2, in [1, n]."""
    return float(_grid_sums(family, np.atleast_2d(h), trace.Tmat)[2][0])


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


def _influence_I(tsums: TourSums, g_name: str) -> tuple[np.ndarray, float]:
    T = tsums.T[g_name]
    S = tsums.S
    I_hat = float(T.sum() / S.sum())
    a = (T - I_hat * S) / S.mean()
    return a, I_hat


def pointwise_se_I(tsums: TourSums, g_name: str) -> float:
    """Delta-method SE of I_hat_g from the tour triples (T_r, S_r, N_r).

    The ratio T/S does not involve N directly, so the three-statistic delta
    method reduces to the two-statistic one; scale shifts cancel.
    """
    R = tsums.R
    if R < 2:
        raise ValueError("need at least 2 complete tours")
    a, _ = _influence_I(tsums, g_name)
    var = float(a @ a) / (R - 1)
    return float(np.sqrt(var / R))


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
    a, _ = _influence_I(tsums1, g_name)
    b, _ = _influence_I(tsums2, g_name)
    return float(a @ b) / (R - 1)


# ------------------------------------------------------------------
# batch-means alternative (no regeneration marks needed)
# ------------------------------------------------------------------

def batch_values(trace: ChainTrace, family: ExpFamilyRatio, h, M: int,
                 g_name: str | None = None) -> np.ndarray:
    """Per-batch B_n (or I_hat_g when ``g_name`` given) over M consecutive
    batches of floor(n/M) draws; the trailing remainder is dropped."""
    _, n_used, starts = _segmentation(trace.n, None, M)
    batches = TourIndex(boundaries=np.append(starts, n_used) + 1, n_eff=n_used)
    ts = tour_sums(trace, batches, family, h, [] if g_name is None else [g_name],
                   with_derivs=False)
    if g_name is None:
        return ts.S * np.exp(ts.log_scale) / (n_used // M)
    return ts.T[g_name] / ts.S


def batch_se(trace: ChainTrace, family: ExpFamilyRatio, h, M: int,
             g_name: str | None = None) -> float:
    """Batch-means SE of B_n (or I_hat_g): sd of batch values over sqrt(M)."""
    vals = batch_values(trace, family, h, M, g_name=g_name)
    return float(vals.std(ddof=1) / np.sqrt(M))


# ------------------------------------------------------------------
# grid sweeps: one chunked pass over the draws
# ------------------------------------------------------------------

# Floats in one (draws, G) block of the grid passes: 1 MB, which keeps a
# block in a core's cache (larger blocks ran slower) and holds a pass to a
# few such blocks whatever the trace length and grid size.
CHUNK_FLOATS = 2 ** 17


def _log_f_chunks(family: ExpFamilyRatio, grid: np.ndarray, Tmat: np.ndarray):
    """Yield (first row, (rows, G) block of log f_h) over consecutive chunks."""
    rows = max(1, CHUNK_FLOATS // grid.shape[0])
    for a in range(0, Tmat.shape[0], rows):
        yield a, family.log_f_many(grid, Tmat[a:a + rows])


def _grid_sums(family: ExpFamilyRatio, grid: np.ndarray, Tmat: np.ndarray,
               X: np.ndarray | None = None):
    """(shift, c, ess, I) over the grid from one pass over the draws.

    ``shift`` is the column max of log f_h and ``c`` the mean of
    f_h exp(-shift), so B_n = c exp(shift); ``I`` (None without ``X``) holds
    the f_h-weighted means of the (n, p) columns ``X``, shape (p, G).  The
    pass keeps a running column max and sums rescaled to it, the online
    normalizer of Milakov & Gimelshein (2018); that max also sees every
    non-finite log f_h, which raises :class:`InvalidSpecError`.
    """
    shift = np.full(grid.shape[0], -np.inf)
    f_sum = f2_sum = xf_sum = np.zeros_like(shift)
    for a, logf in _log_f_chunks(family, grid, Tmat):
        new = np.maximum(shift, logf.max(axis=0))
        scale = np.exp(shift - new)
        f = np.exp(np.subtract(logf, new, out=logf), out=logf)
        f_sum = f_sum * scale + f.sum(axis=0)
        f2_sum = f2_sum * scale ** 2 + np.einsum("ij,ij->j", f, f)
        if X is not None:
            xf_sum = xf_sum * scale + X[a:a + f.shape[0]].T @ f
        shift = new
    if not np.all(np.isfinite(shift)):
        raise InvalidSpecError(
            f"non-finite log ratio at h={grid[~np.isfinite(shift)][0]}")
    return (shift, f_sum / Tmat.shape[0], f_sum ** 2 / f2_sum,
            None if X is None else xf_sum / f_sum)


def _segment_sums(family: ExpFamilyRatio, grid: np.ndarray, Tmat: np.ndarray,
                  shift: np.ndarray, starts: np.ndarray,
                  X: np.ndarray | None = None):
    """Yield (ids, x) in segment order: the sums over the segments ``ids`` of
    rows beginning at ``starts`` (the last ends with Tmat), x[:, 0] of
    f = f_h exp(-shift) and x[:, 1:] of the (n, p) columns ``X`` times f,
    shape (ids.size, 1 + p, G).  The segment open at a chunk's end is carried
    into the next chunk."""
    open_id, carry = 0, 0.0
    for a, logf in _log_f_chunks(family, grid, Tmat):
        rows = logf.shape[0]
        f = np.exp(np.subtract(logf, shift, out=logf), out=logf)[:, None]
        x = f if X is None else np.concatenate([f, X[a:a + rows, :, None] * f], axis=1)
        first = int(np.searchsorted(starts, a, side="right")) - 1
        if first != open_id:                  # the carried segment ended at a
            yield np.array([open_id]), carry[None]
            carry = 0.0
        last = np.searchsorted(starts, a + rows)    # first segment after the chunk
        cuts = np.concatenate(([0], starts[first + 1:last] - a))
        # one segment per row (unit tours): reduceat would only copy, slowly
        x = x if cuts.size == rows else np.add.reduceat(x, cuts, axis=0)
        x[0] += carry
        open_id, carry = first + cuts.size - 1, x[-1].copy()
        if cuts.size > 1:
            yield first + np.arange(cuts.size - 1), x[:-1]
    yield np.array([open_id]), carry[None]


def _deviations(family, grid, Tmat, shift, c, I, starts, g=None,
                ratio: bool = False):
    """Yield (ids, dB, dI): deviations from the full-trace values of the
    segments of :func:`_segment_sums`; ``g`` is one (n, 1) column and ``I``
    its (1, G) weighted mean.

    With S_r, T_r the sums over segment r of f = f_h exp(-shift) and g f, and
    N_r its length: dB_r = (S_r - N_r c) / Nbar; dI_r = (T_r - I S_r) / Sbar
    (delta method over tours, whose rows are those ``c`` is the mean over),
    or with ``ratio`` the batch estimate T_r / S_r - I; None without ``g``.
    """
    n, R = Tmat.shape[0], starts.size
    lengths = np.diff(np.append(starts, n))
    for ids, x in _segment_sums(family, grid, Tmat, shift, starts, g):
        S, T = x[:, 0], x[:, -1]
        dB = (S - lengths[ids, None] * c) / (n / R)
        yield ids, dB, (None if g is None else T / S - I if ratio
                        else (T - I * S) / (c * n / R))


def _segmentation(n: int, tours: TourIndex | None, M: int | None):
    """(rows used, rows segmented, 0-based segment starts) for the tours, or
    for M consecutive batches of floor(n/M) draws (default M = ceil(sqrt(n)))."""
    if tours is not None:
        return tours.n_eff, tours.n_eff, tours.starts0
    M = max(2, int(np.ceil(np.sqrt(n)))) if M is None else M
    if M < 2:
        raise ValueError("need at least 2 batches")
    if n < M:
        raise ValueError("more batches than draws")
    return n, M * (n // M), np.arange(M) * (n // M)


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
    n_eff, n_seg, starts = _segmentation(trace.n, tours, M)
    if starts.size < 2:
        raise ValueError("need at least 2 complete tours")
    g = None if g_name is None else trace.functional(g_name)[:n_eff, None]
    shift, c, ess_vals, I = _grid_sums(family, grid, trace.Tmat[:n_eff], g)
    # sums of the deviations and of their squares, for B then for I; the
    # SEs center them at their mean over the R segments
    acc = np.zeros((4, grid.shape[0]))
    for _, *devs in _deviations(family, grid, trace.Tmat[:n_seg], shift, c, I,
                                starts, g, ratio=tours is None):
        for k, d in enumerate(devs if g is not None else devs[:1]):
            acc[2 * k] += d.sum(axis=0)
            acc[2 * k + 1] += np.einsum("rj,rj->j", d, d)
    R = starts.size
    se = np.sqrt(np.maximum(acc[1::2] - acc[::2] ** 2 / R, 0.0) / (R - 1) / R)
    common = dict(grid=grid, ess=ess_vals, n=n_eff, R=None if tours is None else R,
                  se_method="batch" if tours is None else "tour")
    est = SurfaceEstimate(values=c * np.exp(shift), se=se[0] * np.exp(shift), **common)
    if g is None:
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
