"""Hyperparameter spaces and prior-ratio families.

A prior family assigns to each hyperparameter ``h`` in a compact rectangle a
prior density ``nu_h``.  Everything downstream consumes only ratios
``f_h = nu_h / nu_ref`` evaluated through sufficient statistics, so this module
centers on :class:`ExpFamilySpec` (exponential families with a smooth canonical
map) and :class:`ExpFamilyRatio`, the one vectorized ratio the estimators use:
against one anchor ``nu_h1``, or against a serial-tempering mixture of anchors.

All ratio arithmetic is done in log space; exponentiation is deferred to the
last step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "HyperRect",
    "ExpFamilySpec",
    "EnvelopeSet",
    "ExpFamilyRatio",
    "envelope_corners",
    "check_envelope",
]


class InvalidSpecError(ValueError):
    """A family produced a non-finite value for finite inputs."""


# ------------------------------------------------------------------
# hyperparameter rectangle
# ------------------------------------------------------------------

@dataclass(frozen=True)
class HyperRect:
    """Axis-aligned compact rectangle of hyperparameters."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size < 1:
            raise ValueError("lower/upper must be 1-d vectors of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("rectangle bounds must be finite")
        if not np.all(lo < hi):
            raise ValueError("need lower[i] < upper[i] for all i")

    @property
    def k(self) -> int:
        return self.lower.size

    def contains(self, h, atol: float = 1e-12) -> bool:
        h = np.asarray(h, dtype=float)
        return bool(np.all(h >= self.lower - atol) and np.all(h <= self.upper + atol))

    def clip(self, h) -> np.ndarray:
        return np.clip(np.asarray(h, dtype=float), self.lower, self.upper)

    def grid(self, points_per_axis: int | Sequence[int]) -> np.ndarray:
        """Full lattice over the rectangle, shape (prod(points), k)."""
        if np.isscalar(points_per_axis):
            points_per_axis = [int(points_per_axis)] * self.k
        axes = [np.linspace(lo, hi, p) for lo, hi, p in
                zip(self.lower, self.upper, points_per_axis)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def corners(self) -> np.ndarray:
        cols = [(lo, hi) for lo, hi in zip(self.lower, self.upper)]
        return np.array(list(itertools.product(*cols)), dtype=float)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=(size, self.k))

    def on_boundary(self, h, rtol: float = 1e-6) -> bool:
        h = np.asarray(h, dtype=float)
        tol = rtol * (self.upper - self.lower)
        return bool(np.any(h - self.lower <= tol) or np.any(self.upper - h <= tol))


def logsumexp(x: np.ndarray, axis=None):
    """log sum exp(x) over ``axis`` (all entries by default), shifted by the max."""
    top = np.max(x, axis=axis, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    return np.squeeze(np.log(np.sum(np.exp(x - top), axis, keepdims=True)) + top, axis)[()]


# ------------------------------------------------------------------
# finite-difference fallbacks
# ------------------------------------------------------------------

def _fd_step(h: np.ndarray) -> np.ndarray:
    return 1e-5 * (1.0 + np.abs(h))


def fd_grad(f: Callable[[np.ndarray], float], h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    step = _fd_step(h)
    out = np.empty(h.size)
    for i in range(h.size):
        e = np.zeros_like(h)
        e[i] = step[i]
        out[i] = (f(h + e) - f(h - e)) / (2.0 * step[i])
    return out


def fd_jac(f: Callable[[np.ndarray], np.ndarray], h: np.ndarray) -> np.ndarray:
    """Jacobian (out_dim, k) of a vector-valued map by central differences."""
    h = np.asarray(h, dtype=float)
    step = _fd_step(h)
    cols = []
    for i in range(h.size):
        e = np.zeros_like(h)
        e[i] = step[i]
        cols.append((np.asarray(f(h + e)) - np.asarray(f(h - e))) / (2.0 * step[i]))
    return np.stack(cols, axis=-1)


def fd_hess(f: Callable[[np.ndarray], float], h: np.ndarray) -> np.ndarray:
    g = lambda x: fd_grad(f, x)
    jac = fd_jac(g, h)
    return 0.5 * (jac + jac.T)


# ------------------------------------------------------------------
# exponential-family specification
# ------------------------------------------------------------------

@dataclass(frozen=True)
class ExpFamilySpec:
    """Exponential family ``nu_h(theta) = b(theta) exp(omega(h).T(theta) - A(omega(h)))``.

    ``canon`` maps the user-facing hyperparameter to canonical coordinates;
    ``log_norm`` is the log-normalizer as a function of ``h`` directly.  The
    four derivative callables are closed forms; ``check_consistency``
    compares them against central finite differences.

    ``log_norm_canon`` evaluates the log-normalizer at an arbitrary canonical
    point; it is required only by the envelope construction, whose corner
    points generally are not images of any single ``h``.
    """

    k: int
    stat_dim: int
    canon: Callable[[np.ndarray], np.ndarray]
    log_norm: Callable[[np.ndarray], float]
    canon_jac: Callable[[np.ndarray], np.ndarray]
    canon_hess: Callable[[np.ndarray], np.ndarray]
    log_norm_grad: Callable[[np.ndarray], np.ndarray]
    log_norm_hess: Callable[[np.ndarray], np.ndarray]
    log_norm_canon: Callable[[np.ndarray], float] | None = None
    name: str = ""

    def canon_many(self, hs) -> tuple[np.ndarray, np.ndarray]:
        """omega(h) and A(h) at each row of ``hs``: (G, stat_dim) and (G,)."""
        return (np.array([self.canon(h) for h in hs], dtype=float),
                np.array([self.log_norm(h) for h in hs], dtype=float))

    # -- derivative access ------------------------------------------------
    def jac(self, h: np.ndarray) -> np.ndarray:
        return np.asarray(self.canon_jac(h), dtype=float)

    def hess_canon(self, h: np.ndarray) -> np.ndarray:
        """Second derivatives of each canonical coordinate: (stat_dim, k, k)."""
        return np.asarray(self.canon_hess(h), dtype=float)

    def grad_A(self, h: np.ndarray) -> np.ndarray:
        return np.asarray(self.log_norm_grad(h), dtype=float)

    def hess_A(self, h: np.ndarray) -> np.ndarray:
        return np.asarray(self.log_norm_hess(h), dtype=float)

    def check_consistency(self, h, rtol: float = 1e-4) -> None:
        """Finite-difference cross-check of the analytic derivatives."""
        h = np.asarray(h, dtype=float)
        g, gf = self.grad_A(h), fd_grad(self.log_norm, h)
        if not np.allclose(g, gf, rtol=rtol, atol=1e-8 * (1 + np.abs(gf).max())):
            raise InvalidSpecError(f"grad A inconsistent at h={h}: {g} vs {gf}")
        j, jf = self.jac(h), fd_jac(self.canon, h)
        if not np.allclose(j, jf, rtol=rtol, atol=1e-8 * (1 + np.abs(jf).max())):
            raise InvalidSpecError(f"canon Jacobian inconsistent at h={h}")


# ------------------------------------------------------------------
# the prior ratio (what the estimators consume)
# ------------------------------------------------------------------

class ExpFamilyRatio:
    """Prior ratio f_h = nu_h / nu_mix of an exponential family, vectorized
    over the draws of a trace.

    ``h1`` is one anchor, shape (k,), for a single chain run at h1, or m
    anchors h_1..h_m, shape (m, k), with tuning constants ``zetas`` (default
    all 1) for a serial-tempering chain, whose denominator is the mixture
    (1/m) sum_j nu_{h_j} / zeta_j (Geyer & Thompson 1995).  With omega_j, A_j
    the canonical point and log-normalizer of anchor j,

        log f_h = T.(omega_h - omega_1) - (A_h - A_1) - D(T),
        D(T) = log[(1/m) sum_j exp(T.(omega_j - omega_1) - (A_j - A_1) - log zeta_j)].

    With one anchor D is the constant -log zeta_1, folded into A_1, and no
    per-draw logsumexp is computed.  D does not depend on h, so the
    h-derivatives of log f_h are those of log nu_h.
    """

    def __init__(self, spec: ExpFamilySpec, h1, zetas=None):
        self.spec = spec
        self.h1 = np.asarray(h1, dtype=float)
        self.k = spec.k
        # per-anchor table: omega_j, A_j and log zeta_j
        self.omegas, self.As = spec.canon_many(np.atleast_2d(self.h1))
        self.m = self.As.size
        self.log_zetas = (np.zeros(self.m) if zetas is None
                          else np.log(np.asarray(zetas, dtype=float)))
        self._omega1 = self.omegas[0]
        self._A1 = float(self.As[0])
        if self.m > 1:
            self._anchor_dw = (self.omegas - self._omega1).T
            self._anchor_c = self.As - self._A1 + self.log_zetas
        elif zetas is not None:
            self._A1 += float(self.log_zetas[0])
        self._grid = None

    def _log_denominator(self, Tmat: np.ndarray) -> np.ndarray:
        """D(T) per draw (m > 1 only)."""
        return logsumexp(Tmat @ self._anchor_dw - self._anchor_c, axis=1) - np.log(self.m)

    def _grid_terms(self, h_grid) -> tuple[np.ndarray, np.ndarray]:
        """(omega_h - omega_1).T and A_h - A_1 over a grid, kept for the last
        grid of more than one point: the grid estimators evaluate one grid
        once per chunk of draws, and the one-point passes of a search between
        two grid passes do not evict the grid."""
        h_grid = np.asarray(h_grid, dtype=float)
        key = (h_grid.shape, h_grid.tobytes())
        if self._grid is not None and self._grid[0] == key:
            return self._grid[1:]
        omegas, As = self.spec.canon_many(h_grid)
        terms = ((omegas - self._omega1).T, As - self._A1)
        if h_grid.shape[0] > 1:
            self._grid = (key, *terms)
        return terms

    def log_f(self, h, Tmat):
        """log f_h at one ``h``, shape (n,); raises on a non-finite draw."""
        h = np.asarray(h, dtype=float)
        out = self.log_f_many(h[None, :], Tmat)[:, 0]
        if not np.all(np.isfinite(out)):
            raise InvalidSpecError(f"non-finite log ratio at h={h}")
        return out

    def log_f_many(self, h_grid: np.ndarray, Tmat: np.ndarray) -> np.ndarray:
        """log f_h for a whole grid at once, shape (n, G)."""
        dw, dA = self._grid_terms(h_grid)
        out = Tmat @ dw
        out -= dA
        if self.m > 1:
            out -= self._log_denominator(Tmat)[:, None]
        return out

    def grad_log_f(self, h, Tmat):
        h = np.asarray(h, dtype=float)
        return Tmat @ self.spec.jac(h) - self.spec.grad_A(h)[None, :]

    def hess_log_f(self, h, Tmat):
        h = np.asarray(h, dtype=float)
        hc = self.spec.hess_canon(h)          # (stat_dim, k, k)
        return np.tensordot(Tmat, hc, axes=(1, 0)) - self.spec.hess_A(h)[None, :, :]

    def score_sums(self, h, T0, S, m1, m2):
        """(sum f u, sum f (u u^T + hess log f)), u = grad log f_h, from S = sum f,
        m1 = sum f D, m2 = sum f D D^T (D = T - T0) over any leading axes: with
        J = d omega/dh, a = m1 J and b = T0 J - grad A, a + S b and J^T m2 J
        + a b^T + b a^T + S (b b^T - hess A) + sum_s (m1 + S T0)_s hess omega_s."""
        spec, J, S = self.spec, self.spec.jac(h), np.asarray(S, dtype=float)
        a, b = m1 @ J, T0 @ J - spec.grad_A(h)
        hess = (J.T @ m2 @ J + a[..., :, None] * b + b[:, None] * a[..., None, :]
                + S[..., None, None] * (np.outer(b, b) - spec.hess_A(h))
                + np.tensordot(m1 + S[..., None] * T0, spec.hess_canon(h), 1))
        return a + S[..., None] * b, hess


# ------------------------------------------------------------------
# envelope construction (corner bound for canonical exponential families)
# ------------------------------------------------------------------

@dataclass(frozen=True)
class EnvelopeSet:
    """Finite dominating mixture: sup_h nu_h(theta) <= sum_j coeffs[j] nu_{corner_j}(theta).

    Corners live in canonical coordinates (they need not be images of any h in
    the rectangle); ``c`` is the grid-approximated sup of exp(-A) over the
    rectangle's canonical image.
    """

    corners: np.ndarray       # (d, stat_dim) canonical coordinates
    coeffs: np.ndarray        # (d,)
    c: float
    log_norm_at_corners: np.ndarray  # (d,) A(omega_j)

    @property
    def d(self) -> int:
        return self.corners.shape[0]

    def log_corner_densities(self, Tmat: np.ndarray) -> np.ndarray:
        """(n, d) matrix of log nu_{corner_j}(theta) modulo the base measure."""
        return Tmat @ self.corners.T - self.log_norm_at_corners[None, :]


def envelope_corners(spec: ExpFamilySpec, rect: HyperRect,
                     grid_points: int = 101) -> EnvelopeSet:
    """Corner envelope for sup over the rectangle of nu_h.

    The canonical image of the rectangle is enclosed in its bounding box.  For
    any omega in the box with multilinear interpolation weights lambda_j over
    the 2^stat_dim box corners omega_j, convexity of exp gives
    exp(omega . T) <= sum_j lambda_j(omega) exp(omega_j . T), hence

        nu_h <= sum_j [lambda_j(omega(h)) exp(A_j - A(h))] nu_{omega_j}.

    Coefficients take the sup of the bracket over a dense h-grid plus local
    refinement (the objective is smooth, so the grid error is second order).
    The classical global constant c = sup exp(-A) is kept as a diagnostic.
    """
    if spec.stat_dim > 8:
        raise ValueError("corner construction limited to stat_dim <= 8 (2^d blowup)")
    if spec.log_norm_canon is None:
        raise ValueError("envelope construction requires log_norm_canon")
    from scipy.optimize import minimize  # only this construction needs it

    grid = rect.grid(grid_points)
    omegas, A_grid = spec.canon_many(grid)
    lo = omegas.min(axis=0)
    hi = omegas.max(axis=0)
    # refine the box so it certainly contains the exact image of the rect
    bnds = list(zip(rect.lower, rect.upper))
    for i in range(spec.stat_dim):
        for sign, ext, pick in ((1.0, lo, np.argmin), (-1.0, hi, np.argmax)):
            res = minimize(
                lambda h, i=i, s=sign: s * float(np.asarray(spec.canon(h))[i]),
                grid[int(pick(omegas[:, i]))], method="Nelder-Mead",
                bounds=bnds, options={"xatol": 1e-10, "fatol": 1e-14})
            val = sign * float(res.fun)
            ext[i] = min(ext[i], val) if sign > 0 else max(ext[i], val)
    pad = 1e-9 * np.maximum(hi - lo, 1.0)
    lo = lo - pad
    hi = hi + pad
    corners = np.array(list(itertools.product(*zip(lo, hi))), dtype=float)
    A_corners = np.array([float(spec.log_norm_canon(w)) for w in corners])
    log_c = float(np.max(-A_grid))

    span = np.where(hi > lo, hi - lo, 1.0)
    d = spec.stat_dim
    bounds = list(zip(rect.lower, rect.upper))

    def log_coeff_at(h, j):
        """log[lambda_j(omega(h))] + A_j - A(h); -inf where lambda_j = 0."""
        om = np.asarray(spec.canon(h), dtype=float)
        t = np.clip((om - lo) / span, 0.0, 1.0)
        w = np.where(_corner_bits(j, d), t, 1.0 - t)
        if np.any(w <= 0.0):
            return -np.inf
        return float(np.log(w).sum() + A_corners[j] - spec.log_norm(h))

    t_grid = np.clip((omegas - lo[None, :]) / span[None, :], 0.0, 1.0)
    n_corners = corners.shape[0]

    # certificate 1: per-corner sup of lambda_j exp(A_j - A(h))
    log_c1 = np.empty(n_corners)
    for j in range(n_corners):
        bits = _corner_bits(j, d)
        w = np.where(bits[None, :], t_grid, 1.0 - t_grid)
        with np.errstate(divide="ignore"):
            log_lam = np.log(w).sum(axis=1)
        vals = log_lam + A_corners[j] - A_grid
        best = int(np.argmax(vals))
        res = minimize(lambda h, j=j: -log_coeff_at(h, j), grid[best],
                       method="Nelder-Mead", bounds=bounds,
                       options={"xatol": 1e-8, "fatol": 1e-12})
        log_c1[j] = max(float(vals[best]), -float(res.fun))

    # certificate 2: the minimal uniform coefficient
    # c = sup_{h, T} nu_h(T) / sum_j nu_j(T), attained with equality.
    # The inner sup over T is concave (linear minus logsumexp), so BFGS with
    # the exact gradient is reliable; the outer sup over h uses a coarse grid
    # warm-started along the sweep plus a Nelder-Mead refinement.
    def inner_sup(h, T0):
        om = np.asarray(spec.canon(h), dtype=float)
        A = float(spec.log_norm(h))

        def neg(T):
            x = T @ corners.T - A_corners
            lse = logsumexp(x)
            return lse - (T @ om - A), np.exp(x - lse) @ corners - om

        res = minimize(neg, T0, jac=True, method="BFGS",
                       options={"gtol": 1e-10, "maxiter": 500})
        return -float(res.fun), res.x

    coarse = rect.grid(21)
    T0 = np.zeros(spec.stat_dim)
    best_val, best_h, best_T = -np.inf, coarse[0], T0
    for h in coarse:
        val, T0 = inner_sup(h, T0)
        if val > best_val:
            best_val, best_h, best_T = val, h, T0
    res = minimize(lambda h: -inner_sup(h, best_T)[0], best_h,
                   method="Nelder-Mead", bounds=bounds,
                   options={"xatol": 1e-8, "fatol": 1e-12})
    # the sup can be approached only asymptotically in T (e.g. when the
    # maximizing h sits at a corner), so the optimizer stops slightly below
    # it; a small margin keeps the certificate on the valid side
    log_c2 = np.full(n_corners, max(best_val, -float(res.fun)) + 1e-7)

    # the two coefficient sets are each valid as a whole; keep the tighter one
    coeffs = np.exp(log_c1 if log_c1.sum() <= log_c2.sum() else log_c2)
    if not np.all(np.isfinite(coeffs)):
        raise InvalidSpecError("non-finite envelope coefficients")
    return EnvelopeSet(corners=corners, coeffs=coeffs, c=float(np.exp(log_c)),
                       log_norm_at_corners=A_corners)


def _corner_bits(j: int, d: int) -> np.ndarray:
    """Which coordinates of corner j sit at the upper box face.

    Matches the ordering of itertools.product(*zip(lo, hi)): the first
    coordinate varies slowest.
    """
    return np.array([(j >> (d - 1 - i)) & 1 for i in range(d)], dtype=bool)


def check_envelope(env: EnvelopeSet, spec: ExpFamilySpec, rect: HyperRect,
                   samples: np.ndarray, h_grid: np.ndarray,
                   rel_slack: float = 1e-12, chunk: int = 200) -> int:
    """Count (theta, h) pairs violating the envelope inequality.

    ``samples`` is an (n, stat_dim) array of sufficient statistics; the sup
    over h is taken over ``h_grid``.  Comparison is in log space with a
    relative slack of ``rel_slack``.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    h_grid = np.atleast_2d(np.asarray(h_grid, dtype=float))
    if samples.size == 0 or h_grid.size == 0:
        raise ValueError("need nonempty samples and h grid")

    with np.errstate(divide="ignore"):
        log_coeffs = np.log(env.coeffs)
    log_rhs_terms = env.log_corner_densities(samples) + log_coeffs[None, :]
    log_rhs = logsumexp(log_rhs_terms, axis=1)

    violations = 0
    slack = np.log1p(rel_slack)
    for start in range(0, h_grid.shape[0], chunk):
        omegas, As = spec.canon_many(h_grid[start:start + chunk])
        log_nu = samples @ omegas.T - As[None, :]          # (n, chunk)
        violations += int(np.count_nonzero(log_nu > log_rhs[:, None] + slack))
    return violations
