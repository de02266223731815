"""Bayesian variable selection with a Zellner g-prior and Bernoulli inclusions.

Model: y = beta0 1 + X_gamma beta_gamma + eps, eps ~ N(0, sigma^2 I);
gamma_j iid Bernoulli(w); beta_gamma | gamma, sigma^2 ~
N(0, g sigma^2 (X_gamma^T X_gamma)^{-1}); flat improper prior on
(beta0, log sigma).  The hyperparameter is h = (w, g).

Only prior *ratios* at a fixed state are ever needed, so the improper part
cancels and the Radon-Nikodym derivative depends on the state through
(q_gamma, u) with u = beta_gamma^T X_gamma^T X_gamma beta_gamma / sigma^2.
That pair is linear in the log-ratio, so the family is expressed as an
:class:`ExpFamilySpec` over (w, g) and reuses all generic machinery.

The sampler is a collapsed Gibbs scan over gamma (beta0, beta_gamma, sigma^2
integrated out) followed by an exact joint draw of the continuous block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from priorscan.chain_runtime import ChainTrace, ModelChain, simulate
from priorscan.prior_family import ExpFamilySpec, HyperRect

__all__ = [
    "VSState",
    "VSModel",
    "vs_spec",
    "vs_rn_derivative",
    "synth_regression",
    "RegressionData",
]


def vs_spec(q: int) -> ExpFamilySpec:
    """Ratio family for h = (w, g) through the statistic T = (q_gamma, u).

    log f_h2/f_h1 = q_gamma log(w2/w1) + (q - q_gamma) log((1-w2)/(1-w1))
                    - (q_gamma/2) log(g2/g1) - (u/2)(1/g2 - 1/g1),
    which is omega(h) . T - A(h) (+ reference terms) with
    omega(h) = (log(w/(1-w)) - 0.5 log g, -1/(2g)) and A(h) = -q log(1-w).
    """

    def canon(h):
        w, g = h
        return np.array([np.log(w / (1.0 - w)) - 0.5 * np.log(g), -0.5 / g])

    def canon_jac(h):
        w, g = h
        return np.array([[1.0 / (w * (1.0 - w)), -0.5 / g],
                         [0.0, 0.5 / g ** 2]])

    def canon_hess(h):
        w, g = h
        return np.array([
            [[-1.0 / w ** 2 + 1.0 / (1.0 - w) ** 2, 0.0],
             [0.0, 0.5 / g ** 2]],
            [[0.0, 0.0],
             [0.0, -1.0 / g ** 3]],
        ])

    def log_norm(h):
        w, g = h
        return -q * np.log(1.0 - w)

    def log_norm_grad(h):
        w, g = h
        return np.array([q / (1.0 - w), 0.0])

    def log_norm_hess(h):
        w, g = h
        return np.array([[q / (1.0 - w) ** 2, 0.0], [0.0, 0.0]])

    return ExpFamilySpec(k=2, stat_dim=2, canon=canon, log_norm=log_norm,
                         canon_jac=canon_jac, canon_hess=canon_hess,
                         log_norm_grad=log_norm_grad, log_norm_hess=log_norm_hess,
                         name="vs-bernoulli-zellner")


def vs_rn_derivative(state: "VSState", h1, h2, q: int):
    """Prior ratio at a fixed state between hyperparameters h2 and h1.

    Returns (value, log value, gradient of the log in h2 = (w, g)).
    """
    w1, g1 = np.asarray(h1, dtype=float)
    w2, g2 = np.asarray(h2, dtype=float)
    for w, g in ((w1, g1), (w2, g2)):
        if not (0.0 < w < 1.0 and g > 0.0):
            raise ValueError("need 0 < w < 1 and g > 0")
    qg = int(state.gamma.sum())
    u = state.u
    logf = (qg * np.log(w2 / w1) + (q - qg) * np.log((1.0 - w2) / (1.0 - w1))
            - 0.5 * qg * np.log(g2 / g1) - 0.5 * u * (1.0 / g2 - 1.0 / g1))
    grad = np.array([qg / w2 - (q - qg) / (1.0 - w2),
                     -0.5 * qg / g2 + 0.5 * u / g2 ** 2])
    return float(np.exp(logf)), float(logf), grad


@dataclass
class VSState:
    gamma: np.ndarray          # (q,) bool
    sigma2: float
    beta0: float
    beta_gamma: np.ndarray     # (q_gamma,)
    u: float = 0.0             # beta^T X^T X beta / sigma^2, cached

    @property
    def q_gamma(self) -> int:
        return int(self.gamma.sum())


@dataclass(frozen=True)
class RegressionData:
    y: np.ndarray
    X: np.ndarray
    meta: dict = field(default_factory=dict)


def synth_regression(seed: int, m: int, q: int, sparsity: float = 0.3,
                     snr: float = 2.0) -> RegressionData:
    """Synthetic regression with standardized design and known sparse truth."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, q))
    X = (X - X.mean(axis=0)) / X.std(axis=0, ddof=0)
    q_true = max(1, int(np.ceil(sparsity * q)))
    support = rng.choice(q, size=q_true, replace=False)
    beta = np.zeros(q)
    beta[support] = rng.choice([-1.0, 1.0], size=q_true) * (1.0 + rng.random(q_true))
    signal = X @ beta
    sig_sd = signal.std(ddof=0) if q_true else 1.0
    noise_sd = sig_sd / snr if sig_sd > 0 else 1.0
    y = 1.0 + signal + noise_sd * rng.standard_normal(m)
    return RegressionData(y=y, X=X, meta={
        "seed": seed, "m": m, "q": q, "support": sorted(int(j) for j in support),
        "beta": beta.tolist(), "noise_sd": noise_sd,
    })


class VSModel:
    """Collapsed-Gibbs sampler machinery for the variable-selection model."""

    # the open box of h = (w, g), and the functionals its chain records
    DOMAIN = ((0.0, 1.0), (0.0, np.inf))
    KERNEL_ID = "vs-collapsed-gibbs"
    functionals = ("qgamma", "incl1")

    def __init__(self, y, X, rect: HyperRect | None = None):
        y = np.asarray(y, dtype=float)
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[0] != y.size:
            raise ValueError("X rows must match length of y")
        # center columns so the intercept direction is orthogonal to col(X)
        self.X = X - X.mean(axis=0)
        self.ybar = float(y.mean())
        self.ytil = y - self.ybar
        self.yss = float(self.ytil @ self.ytil)
        self.m, self.q = X.shape
        if self.m < 4:
            raise ValueError("need at least 4 observations")
        self.rect = rect if rect is not None else HyperRect(
            lower=[0.05, 1.0], upper=[0.95, 50.0])
        self._fit_cache: dict[bytes, float] = {}

    def spec(self) -> ExpFamilySpec:
        return vs_spec(self.q)

    # -- collapsed marginal ----------------------------------------------
    def _fit_quad(self, gamma: np.ndarray) -> float:
        """||projection of ytil onto col(X_gamma)||^2 (0 for the empty model).

        Cached per visited gamma — it depends on the data and gamma only."""
        if not gamma.any():
            return 0.0
        key = gamma.tobytes()
        cached = self._fit_cache.get(key)
        if cached is not None:
            return cached
        Xg = self.X[:, gamma]
        Q, R = np.linalg.qr(Xg)
        if np.min(np.abs(np.diag(R))) < 1e-10 * max(1.0, np.abs(R).max()):
            raise np.linalg.LinAlgError("rank-deficient X_gamma")
        proj = Q.T @ self.ytil
        out = float(proj @ proj)
        self._fit_cache[key] = out
        return out

    def log_collapsed(self, gamma: np.ndarray, h) -> float:
        """log p(y, gamma | w, g) up to an additive constant."""
        w, g = np.asarray(h, dtype=float)
        qg = int(gamma.sum())
        S = self.yss - g / (1.0 + g) * self._fit_quad(gamma)
        return (qg * np.log(w) + (self.q - qg) * np.log(1.0 - w)
                - 0.5 * qg * np.log(1.0 + g) - 0.5 * (self.m - 1) * np.log(S))

    # -- Gibbs ------------------------------------------------------------
    def start(self, rng: np.random.Generator, h) -> VSState:
        """Inclusions iid Bernoulli(w) (none where that design is
        rank-deficient), then the continuous block's exact draw given them."""
        gamma = rng.random(self.q) < h[0]
        try:
            return self.draw_continuous(gamma, h, rng)
        except np.linalg.LinAlgError:
            return self.draw_continuous(np.zeros(self.q, dtype=bool), h, rng)

    def sweep(self, state: VSState, h, rng: np.random.Generator) -> VSState:
        """A collapsed Gibbs scan over gamma, then the continuous block."""
        gamma = state.gamma.copy()
        for j in range(self.q):
            lp = np.empty(2)
            for val in (False, True):
                gamma[j] = val
                try:
                    lp[int(val)] = self.log_collapsed(gamma, h)
                except np.linalg.LinAlgError:
                    lp[int(val)] = -np.inf  # rank-deficient proposal rejected
            p1 = 1.0 / (1.0 + np.exp(lp[0] - lp[1]))
            gamma[j] = rng.random() < p1
        return self.draw_continuous(gamma, h, rng)

    def draw_continuous(self, gamma: np.ndarray, h,
                        rng: np.random.Generator) -> VSState:
        """Exact joint draw of (sigma^2, beta0, beta_gamma) given gamma."""
        w, g = np.asarray(h, dtype=float)
        shrink = g / (1.0 + g)
        S = self.yss - shrink * self._fit_quad(gamma)
        # sigma^2 ~ InvGamma((m-1)/2, S/2)
        sigma2 = float(S / (2.0 * rng.gamma(0.5 * (self.m - 1), 1.0)))
        beta0 = self.ybar + np.sqrt(sigma2 / self.m) * rng.standard_normal()
        if gamma.any():
            Xg = self.X[:, gamma]
            XtX = Xg.T @ Xg
            beta_hat = np.linalg.solve(XtX, Xg.T @ self.ytil)
            cov = shrink * sigma2 * np.linalg.inv(XtX)
            L = np.linalg.cholesky(0.5 * (cov + cov.T))
            beta_g = shrink * beta_hat + L @ rng.standard_normal(int(gamma.sum()))
            u = float(beta_g @ XtX @ beta_g) / sigma2
        else:
            beta_g = np.zeros(0)
            u = 0.0
        return VSState(gamma=gamma, sigma2=sigma2, beta0=beta0,
                       beta_gamma=beta_g, u=u)

    # -- trace plumbing ---------------------------------------------------
    def suffstat(self, state: VSState) -> np.ndarray:
        return np.array([float(state.q_gamma), state.u])

    def observe(self, state: VSState):
        return self.suffstat(state), {"qgamma": float(state.q_gamma),
                                      "incl1": float(state.gamma[0])}

    def kernel(self, h1) -> ModelChain:
        return ModelChain(self, h1)

    def trace(self, h1, n: int, seed=None, rng=None) -> ChainTrace:
        return simulate(self.kernel(h1), n=n, seed=seed, rng=rng,
                        meta={"h1": list(np.asarray(h1, dtype=float))})
