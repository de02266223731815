"""Empirical-Bayes argmax of B_n and its sampling uncertainty.

The maximizer ``h_n`` of the estimated surface targets the maximizer of the
marginal likelihood.  It is found by a coarse grid pass, then projected
Newton on the rectangle: the gradient and Hessian of log B_n follow from the
f_h-weighted mean and covariance of T, so each iteration is one pass over
the draws.  With regenerative tours, the sandwich variance
``v_n^2 = J_n^{-1} tau_n^2 J_n^{-1}`` yields an asymptotic confidence ellipse
scaled by the tour count R; without regeneration marks, a batch-means
covariance plays the same role.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from priorscan.chain_runtime import ChainTrace, TourSums
from priorscan.estimators import _grid_sums
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


def _moment_columns(Tmat: np.ndarray) -> np.ndarray:
    """Per-draw columns T - T0 and (T - T0)(T - T0)^T, flattened, T0 the first
    draw, so that the covariance is not a difference of large numbers."""
    D = Tmat - Tmat[0]
    return np.hstack([D, (D[:, :, None] * D[:, None, :]).reshape(D.shape[0], -1)])


def log_B_derivs(family, h, Tmat, X=None):
    """(log B_n, gradient, Hessian, weight ESS) at ``h`` from one
    :func:`_grid_sums` pass over the :func:`_moment_columns` ``X`` of Tmat
    (built here unless given; a search builds them once).

    log B_n(h) = K_n(omega_h - omega_1) - (A_h - A_1), K_n the empirical CGF
    of T, so grad = J^T E_w[T] - grad A and, with J the Jacobian of omega,
    hess = J^T Cov_w[T] J + sum_s E_w[T_s] hess omega_s - hess A."""
    spec, h, d = family.spec, np.asarray(h, dtype=float), Tmat.shape[1]
    X = _moment_columns(Tmat) if X is None else X
    shift, c, ess, m = _grid_sums(family, h[None, :], Tmat, X)
    mean = m[:d, 0] + Tmat[0]
    cov = m[d:, 0].reshape(d, d) - np.outer(m[:d, 0], m[:d, 0])
    J = spec.jac(h)
    hess = J.T @ cov @ J + np.tensordot(mean, spec.hess_canon(h), 1) - spec.hess_A(h)
    return (shift[0] + np.log(c[0]), mean @ J - spec.grad_A(h),
            0.5 * (hess + hess.T), ess[0])


def _newton(family, Tmat, X, rect: HyperRect, h, tol: float):
    """Projected Newton ascent of log B_n from ``h`` (Bertsekas 1982):
    (h, log B_n, weight ESS, iterations, moment passes).  Coordinates near a
    face the gradient points out of stay on it; the rest take Newton's step
    where their Hessian block is negative definite, else the width-scaled
    gradient.  Projected steps are halved until Armijo's condition holds; the
    search ends when a step moves h by at most ``tol``."""
    width = rect.upper - rect.lower
    val, g, H, ess = log_B_derivs(family, h, Tmat, X)
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
            trial = log_B_derivs(family, h_new, Tmat, X)
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


def maximize_surface(trace: ChainTrace, family, rect: HyperRect, *,
                     grid_points: int = 21, tol: float = 1e-6,
                     multi_starts: int = 8, seed: int = 0) -> MaxResult:
    """Argmax of log B_n over the rectangle.

    Coarse grid (``grid_points`` per axis, ties broken by lowest lexicographic
    index) followed by projected Newton (:func:`_newton`) from its best
    point; ``multi_starts`` extra random starts probe for multimodality.  The
    log is maximized since the argmax is invariant to strictly increasing
    transforms.
    """
    if trace.n == 0:
        raise ValueError("empty trace")
    grid, Tmat = rect.grid(grid_points), trace.Tmat
    shift, c, _, _ = _grid_sums(family, grid, Tmat)
    starts = [grid[int(np.argmax(shift + np.log(c)))]]   # lowest index on ties
    starts += list(rect.sample(np.random.default_rng(seed), multi_starts))
    X = _moment_columns(Tmat)
    consistent, iters, passes = True, 0, 0
    for i, x0 in enumerate(starts):
        h, v, ess, n_it, n_pass = _newton(family, Tmat, X, rect, x0, tol)
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


def v_n_sq(J_n: np.ndarray, tau_sq: np.ndarray,
           cond_limit: float = 1e12) -> np.ndarray:
    """Sandwich J_n^{-1} tau_n^2 J_n^{-1}; symmetric PSD by construction."""
    cond = np.linalg.cond(J_n)
    if not np.isfinite(cond) or cond > cond_limit:
        raise np.linalg.LinAlgError(
            f"J_n numerically singular (condition number {cond:.3g})")
    Jinv = np.linalg.inv(J_n)
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
    # the chi-square(k) quantile, imported here to keep scipy out of start-up
    # (the closed form -2 log(alpha) for k = 2 differs from it by an ulp)
    from scipy.special import gammaincinv
    threshold = float(2.0 * gammaincinv(0.5 * k, 1.0 - alpha))
    if k == 2:
        ang = np.linspace(0.0, 2.0 * np.pi, n_boundary, endpoint=False)
        circ = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        root = evecs @ np.diag(np.sqrt(np.maximum(evals, 0.0)))
        boundary = h_n[None, :] + np.sqrt(threshold / R) * circ @ root.T
    else:
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
