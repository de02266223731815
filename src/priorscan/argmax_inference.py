"""Empirical-Bayes argmax of B_n and its sampling uncertainty.

The maximizer ``h_n`` of the estimated surface targets the maximizer of the
marginal likelihood.  It is found by a coarse grid pass, then projected
Newton on the rectangle: the gradient and Hessian of log B_n follow from the
f_h-weighted mean and covariance of T, so each iteration is one pass over
the draws.  The sandwich variance ``v_n^2 = J_n^{-1} tau_n^2 J_n^{-1}``, with
tau_n^2 the covariance of the gradient sums over the R regenerative tours
or, without regeneration marks, over R consecutive batches (batch means),
yields an asymptotic confidence ellipse scaled by R.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from priorscan.chain_runtime import ChainTrace, TourSums
from priorscan.estimators import _grid_sums, _moment_columns, _runs
from priorscan.prior_family import HyperRect

__all__ = [
    "MaxResult",
    "Ellipse",
    "ArgmaxReport",
    "maximize_surface",
    "hessian_Jn",
    "tau_n_sq",
    "v_n_sq",
    "confidence_ellipse",
    "batch_argmax_cov",
]


# ------------------------------------------------------------------
# surface maximization
# ------------------------------------------------------------------

@dataclass
class MaxResult:
    h: np.ndarray
    log_value: float
    boundary: bool
    multistart_consistent: bool
    ess: float = float("nan")                       # weight ESS at h
    optimizer: dict = field(default_factory=dict)   # starts, iterations, passes

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.h, dtype=dtype)


MAX_NEWTON_ITERS = 100


def log_B_derivs(family, h, Tmat, X=None, w=None):
    """(log B_n, gradient, Hessian, weight ESS) at ``h`` from one
    :func:`_grid_sums` pass over the :func:`_moment_columns` ``X`` of Tmat
    about Tmat[0] (built here unless given; a search builds them once), row
    i weighted by ``w[i]`` draws (a search passes its run lengths).

    log B_n(h) = K_n(omega_h - omega_1) - (A_h - A_1), K_n the empirical CGF
    of T, so its gradient and Hessian are ``family.score_sums`` at the
    weighted mean (S = 1, m1 = 0, m2 = Cov_w[T]), minus grad grad^T."""
    h, d = np.asarray(h, dtype=float), Tmat.shape[1]
    X = _moment_columns(Tmat, Tmat[0]) if X is None else X
    shift, c, ess, m = _grid_sums(family, h[None, :], Tmat, X, w)
    cov = m[d:, 0].reshape(d, d) - np.outer(m[:d, 0], m[:d, 0])
    grad, hess = family.score_sums(h, m[:d, 0] + Tmat[0], 1.0, np.zeros(d), cov)
    hess = hess - np.outer(grad, grad)
    return shift[0] + np.log(c[0]), grad, 0.5 * (hess + hess.T), ess[0]


def _newton(family, Tmat, X, w, rect: HyperRect, h, tol: float):
    """Projected Newton ascent of log B_n from ``h`` (Bertsekas 1982):
    (h, log B_n, weight ESS, iterations, moment passes).  Coordinates near a
    face the gradient points out of stay on it; the rest take Newton's step
    where their Hessian block is negative definite, else the width-scaled
    gradient.  Projected steps are halved until Armijo's condition holds; the
    search ends when a step moves h by at most ``tol``."""
    width = rect.upper - rect.lower
    val, g, H, ess = log_B_derivs(family, h, Tmat, X, w)
    passes = 1
    for it in range(1, MAX_NEWTON_ITERS + 1):
        eps = np.minimum(1e-3 * width, np.linalg.norm(h - rect.clip(h + g)))
        free = ~((h <= rect.lower + eps) & (g < 0) | (h >= rect.upper - eps) & (g > 0))
        d = g * width ** 2 / max(np.abs(g * width).max(), 1e-300)
        Hf = H[np.ix_(free, free)]
        if np.all(np.linalg.eigvalsh(Hf) < 0.0):      # else the gradient step
            d[free] = np.linalg.solve(-Hf, g[free])
        for step in 0.5 ** np.arange(60):
            h_new = rect.clip(h + step * d)
            trial = log_B_derivs(family, h_new, Tmat, X, w)
            passes += 1
            moved = np.abs(h_new - h).max()
            if moved <= tol or trial[0] >= val + 1e-4 * max(g @ (h_new - h), 0.0):
                break
        if not trial[0] >= val:
            break                       # no ascent left at working precision
        h, (val, g, H, ess) = h_new, trial
        if moved <= tol:
            break
    return h, val, ess, it, passes


def _grid_modes(values: np.ndarray, shape) -> np.ndarray:
    """Indices of the local maxima of ``values`` over a lattice of ``shape``
    (C order), the points no lower than any neighbour along each axis: best
    first, the lowest index first among equal values."""
    v, mode = values.reshape(shape), np.ones(shape, dtype=bool)
    for axis in range(v.ndim):
        u, m = np.moveaxis(v, axis, 0), np.moveaxis(mode, axis, 0)    # views
        m[:-1] &= u[:-1] >= u[1:]
        m[1:] &= u[1:] >= u[:-1]
    idx = np.flatnonzero(mode)
    return idx[np.argsort(-values[idx], kind="stable")]


def maximize_surface(trace: ChainTrace, family, rect: HyperRect, *,
                     grid_points: int = 21, tol: float = 1e-6,
                     multi_starts: int = 8) -> MaxResult:
    """Argmax of log B_n over the rectangle.

    A coarse grid pass (``grid_points`` per axis), then projected Newton
    (:func:`_newton`) from its best point and, to probe for multimodality,
    from at most ``multi_starts`` other local maxima of the grid, best first
    (ties broken by lowest lexicographic index).  The log is maximized since
    the argmax is invariant to strictly increasing transforms.  Every pass
    runs over the trace's runs of equal rows
    (:func:`~priorscan.estimators._runs`), collapsed once here.
    """
    if trace.n == 0:
        raise ValueError("empty trace")
    grid, (Tmat, _, w, _) = rect.grid(grid_points), _runs(trace.Tmat)
    shift, c, _, _ = _grid_sums(family, grid, Tmat, w=w)
    starts = grid[_grid_modes(shift + np.log(c), (grid_points,) * rect.k)[:1 + multi_starts]]
    X = _moment_columns(Tmat, Tmat[0])
    consistent, iters, passes = True, 0, 0
    for i, x0 in enumerate(starts):
        h, v, ess, n_it, n_pass = _newton(family, Tmat, X, w, rect, x0, tol)
        iters, passes = iters + n_it, passes + n_pass
        if i == 0 or v > v_best + 1e-10:
            if i and np.linalg.norm(h - h_best) > 10 * tol:
                consistent = False
            h_best, v_best, ess_best = h, v, ess
    return MaxResult(h=h_best, log_value=float(v_best),
                     boundary=rect.on_boundary(h_best),
                     multistart_consistent=consistent, ess=float(ess_best),
                     optimizer={"starts": len(starts), "newton_iters": iters,
                                "moment_passes": passes})


# ------------------------------------------------------------------
# sandwich variance
# ------------------------------------------------------------------

def hessian_Jn(tsums: TourSums) -> np.ndarray:
    """J_n(h) = (sum_r hessS_r) / (sum_r N_r) = (1/n) sum_i hess f_h(theta_i)."""
    if tsums.hessS is None:
        raise ValueError("tour sums lack Hessian terms (with_derivs=False)")
    J = tsums.hessS.sum(axis=0) / tsums.N.sum() * np.exp(tsums.log_scale)
    if not np.all(np.isfinite(J)):
        raise ValueError("non-finite J_n")
    return 0.5 * (J + J.T)


def tau_n_sq(tsums: TourSums) -> np.ndarray:
    """Tour-based covariance of the surface gradient.

    (1/(R Nbar^2)) sum_r (gradS_r - N_r gradSbar/Nbar)(...)^T.
    """
    if tsums.gradS is None:
        raise ValueError("tour sums lack gradient terms (with_derivs=False)")
    R = tsums.R
    if R < 2:
        raise ValueError("need at least 2 complete tours")
    N = tsums.N
    Nbar = N.mean()
    gbar = tsums.gradS.mean(axis=0)
    dev = tsums.gradS - np.outer(N, gbar / Nbar)
    tau = dev.T @ dev / (R * Nbar ** 2) * np.exp(2.0 * tsums.log_scale)
    return 0.5 * (tau + tau.T)


# A J_n whose condition number exceeds this is numerically singular.
COND_LIMIT = 1e12


def v_n_sq(J_n: np.ndarray, tau_sq: np.ndarray) -> np.ndarray:
    """Sandwich J_n^{-1} tau_n^2 J_n^{-1}, symmetric PSD by construction; one
    eigendecomposition of the symmetric J_n gives its condition and inverse."""
    lam, Q = np.linalg.eigh(J_n)
    cond = np.abs(lam).max() / np.abs(lam).min() if np.abs(lam).min() > 0 else np.inf
    if not cond <= COND_LIMIT:                        # also a NaN eigenvalue
        raise np.linalg.LinAlgError(
            f"J_n numerically singular (condition number {cond:.3g})")
    Jinv = (Q / lam) @ Q.T
    v = Jinv @ tau_sq @ Jinv.T
    return 0.5 * (v + v.T)


# ------------------------------------------------------------------
# confidence ellipse
# ------------------------------------------------------------------

@dataclass
class Ellipse:
    """Region {h : R (h - center)^T shape^{-1} (h - center) <= threshold}."""

    center: np.ndarray
    shape: np.ndarray        # v_n^2
    R: int
    alpha: float
    threshold: float
    boundary: np.ndarray     # (128, k) polyline (k = 2 only)

    def contains(self, h) -> bool:
        d = np.asarray(h, dtype=float) - self.center
        stat = self.R * float(d @ np.linalg.solve(self.shape, d))
        return stat <= self.threshold + 1e-12


def confidence_ellipse(h_n, v_sq: np.ndarray, R: int, alpha: float,
                       n_boundary: int = 128) -> Ellipse:
    """Asymptotic (1 - alpha) confidence ellipse for the argmax."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    h_n = np.asarray(h_n, dtype=float)
    k = h_n.size
    v_sq = np.asarray(v_sq, dtype=float)
    evals, evecs = np.linalg.eigh(0.5 * (v_sq + v_sq.T))
    if np.any(evals < -1e-10 * max(1.0, evals.max())):
        raise ValueError("v_n^2 is not positive semidefinite")
    if k == 2:
        threshold = -2.0 * math.log(alpha)    # the chi-square(2) quantile
        ang = np.linspace(0.0, 2.0 * np.pi, n_boundary, endpoint=False)
        circ = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        root = evecs @ np.diag(np.sqrt(np.maximum(evals, 0.0)))
        boundary = h_n[None, :] + np.sqrt(threshold / R) * circ @ root.T
    else:
        from scipy.special import gammaincinv    # scipy stays out of start-up
        threshold = float(2.0 * gammaincinv(0.5 * k, 1.0 - alpha))
        boundary = np.empty((0, k))
    return Ellipse(center=h_n, shape=v_sq, R=int(R), alpha=alpha,
                   threshold=threshold, boundary=boundary)


# ------------------------------------------------------------------
# batching alternative
# ------------------------------------------------------------------

def batch_argmax_cov(trace: ChainTrace, family, rect: HyperRect,
                     M: int, h_n=None, grid_points: int = 21,
                     tol: float = 1e-6):
    """Batch-means covariance of the argmax, centered at the full-trace h_n.

    Returns (cov, boundary_count): per-batch argmaxes over M consecutive
    batches; cov = (1/M) sum_m (n/M) (h^[m] - h_n)(h^[m] - h_n)^T.

    No command uses it (the argmax takes the sandwich over batches); it stays
    because the benchmark's in-process run, ``perfbench/traced.py``, imports it.
    """
    if M < 2:
        raise ValueError("need at least 2 batches")
    L = trace.n // M
    if L < 2:
        raise ValueError("batches shorter than 2 draws")
    if h_n is None:
        h_n = maximize_surface(trace, family, rect, grid_points=grid_points,
                               tol=tol, multi_starts=0).h
    h_n = np.asarray(h_n, dtype=float)

    boundary_count = 0
    diffs = np.empty((M, rect.k))
    for m in range(M):
        sub = _slice_trace(trace, m * L, (m + 1) * L)
        res = maximize_surface(sub, family, rect, grid_points=grid_points,
                               tol=tol, multi_starts=0)
        boundary_count += int(res.boundary)
        diffs[m] = res.h - h_n
    n_used = M * L
    cov = (n_used / M) * (diffs.T @ diffs) / M
    return 0.5 * (cov + cov.T), boundary_count


def _slice_trace(trace: ChainTrace, a: int, b: int) -> ChainTrace:
    delta = trace.delta[a:b].copy()
    delta[0] = True  # batches are treated as standalone runs
    return ChainTrace(Tmat=trace.Tmat[a:b],
                      g={k: v[a:b] for k, v in trace.g.items()},
                      delta=delta, meta=dict(trace.meta), ends_at_regen=False)


# ------------------------------------------------------------------
# report
# ------------------------------------------------------------------

@dataclass
class ArgmaxReport:
    h_n: np.ndarray
    J_n: np.ndarray | None
    tau_n_sq: np.ndarray | None
    v_n_sq: np.ndarray
    R: int
    n: int
    E_N1_hat: float
    alpha: float
    chi2_threshold: float
    boundary_flag: bool
    ellipse: Ellipse
    method: str = "tour"     # "tour" or "batch"

    def to_json(self, extra: dict | None = None) -> str:
        payload = {
            "h_n": self.h_n.tolist(),
            "J_n": None if self.J_n is None else self.J_n.tolist(),
            "tau_n_sq": None if self.tau_n_sq is None else self.tau_n_sq.tolist(),
            "v_n_sq": self.v_n_sq.tolist(),
            "R": self.R,
            "n": self.n,
            "E_N1_hat": self.E_N1_hat,
            "alpha": self.alpha,
            "chi2_threshold": self.chi2_threshold,
            "boundary_flag": self.boundary_flag,
            "method": self.method,
            "ellipse_boundary": self.ellipse.boundary.tolist(),
        }
        if extra:
            payload.update(extra)
        return json.dumps(payload, sort_keys=True, indent=1)
