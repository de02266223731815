"""Conjugate normal-hierarchical toy model with closed-form oracles.

Data y_j ~ N(theta_j, sigma0^2) with iid prior theta_j ~ N(mu, tau^2),
h = (mu, tau^2).  Everything of interest is available in closed form — the
marginal likelihood, posterior expectations, and the empirical-Bayes argmax —
which makes this model the test oracle for the whole package.  Samplers: exact
iid posterior draws, and an independence Metropolis-Hastings chain with
retrospective regeneration marks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm

from priorscan.chain_runtime import ChainTrace, IIDKernel, log_regen_prob, simulate
from priorscan.prior_family import ExpFamilySpec, HyperRect

__all__ = [
    "NormalHierModel",
    "normal_hier_spec",
    "MHKernel",
    "mh_ensemble_traces",
]


def normal_hier_spec(J: int) -> ExpFamilySpec:
    """Exponential-family spec of the prior on theta in h = (mu, tau^2).

    T(theta) = (sum theta_j, sum theta_j^2), omega(h) = (mu/tau^2, -1/(2 tau^2)),
    A(h) = J [mu^2/(2 tau^2) + (1/2) log(2 pi tau^2)].
    """

    def canon(h):
        mu, t2 = h
        return np.array([mu / t2, -0.5 / t2])

    def canon_jac(h):
        mu, t2 = h
        return np.array([[1.0 / t2, -mu / t2 ** 2],
                         [0.0, 0.5 / t2 ** 2]])

    def canon_hess(h):
        mu, t2 = h
        return np.array([
            [[0.0, -1.0 / t2 ** 2],
             [-1.0 / t2 ** 2, 2.0 * mu / t2 ** 3]],
            [[0.0, 0.0],
             [0.0, -1.0 / t2 ** 3]],
        ])

    def log_norm(h):
        mu, t2 = h
        return J * (0.5 * mu ** 2 / t2 + 0.5 * np.log(2.0 * np.pi * t2))

    def log_norm_grad(h):
        mu, t2 = h
        return J * np.array([mu / t2, -0.5 * mu ** 2 / t2 ** 2 + 0.5 / t2])

    def log_norm_hess(h):
        mu, t2 = h
        return J * np.array([[1.0 / t2, -mu / t2 ** 2],
                             [-mu / t2 ** 2, mu ** 2 / t2 ** 3 - 0.5 / t2 ** 2]])

    def log_norm_canon(omega):
        w1, w2 = omega
        return J * (-0.25 * w1 ** 2 / w2 + 0.5 * np.log(2.0 * np.pi)
                    - 0.5 * np.log(-2.0 * w2))

    return ExpFamilySpec(k=2, stat_dim=2, canon=canon, log_norm=log_norm,
                         canon_jac=canon_jac, canon_hess=canon_hess,
                         log_norm_grad=log_norm_grad, log_norm_hess=log_norm_hess,
                         log_norm_canon=log_norm_canon, name="normal-hier")


@dataclass
class NormalHierModel:
    """The toy model: data, sampling sd, hyperparameter rectangle."""

    y: np.ndarray
    sigma0: float = 1.0
    rect: HyperRect = field(
        default_factory=lambda: HyperRect(lower=[-1.0, 0.3], upper=[1.0, 3.0]))

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        if self.y.ndim != 1 or self.y.size < 1:
            raise ValueError("y must be a nonempty vector")
        if self.sigma0 <= 0:
            raise ValueError("sigma0 must be positive")

    @property
    def J(self) -> int:
        return self.y.size

    def spec(self) -> ExpFamilySpec:
        return normal_hier_spec(self.J)

    # -- closed forms -----------------------------------------------------
    def posterior_params(self, h) -> tuple[np.ndarray, float]:
        """Posterior of theta given y under prior at h: independent normals."""
        mu, t2 = np.asarray(h, dtype=float)
        if t2 <= 0:
            raise ValueError("tau^2 must be positive")
        s2 = self.sigma0 ** 2
        mean = (self.y * t2 + mu * s2) / (t2 + s2)
        sd = np.sqrt(t2 * s2 / (t2 + s2))
        return mean, float(sd)

    def log_marginal(self, h) -> float:
        """log m_y(h) = sum_j log phi(y_j; mu, sigma0^2 + tau^2)."""
        mu, t2 = np.asarray(h, dtype=float)
        return float(norm.logpdf(self.y, loc=mu,
                                 scale=np.sqrt(self.sigma0 ** 2 + t2)).sum())

    def oracle_B(self, h, h1) -> float:
        return float(np.exp(self.log_marginal(h) - self.log_marginal(h1)))

    def oracle_I_theta1(self, h) -> float:
        mu, t2 = np.asarray(h, dtype=float)
        s2 = self.sigma0 ** 2
        return float((self.y[0] * t2 + mu * s2) / (t2 + s2))

    def oracle_argmax(self) -> np.ndarray:
        """Maximizer of m_y over the rectangle: (ybar, s^2 - sigma0^2) clipped."""
        ybar = self.y.mean()
        s2 = float(np.mean((self.y - ybar) ** 2))
        return self.rect.clip([ybar, s2 - self.sigma0 ** 2])

    # -- sufficient statistics / functionals ------------------------------
    def observe(self, theta) -> tuple[np.ndarray, dict[str, float]]:
        theta = np.asarray(theta, dtype=float)
        return (np.array([theta.sum(), (theta * theta).sum()]),
                {"theta1": float(theta[0])})

    # -- samplers ---------------------------------------------------------
    def exact_kernel(self, h1) -> IIDKernel:
        mean, sd = self.posterior_params(h1)

        def draw(rng):
            return mean + sd * rng.standard_normal(self.J)

        return IIDKernel(draw, self.observe, kernel_id="toy-exact")

    def exact_trace(self, h1, n: int, seed=None, rng=None) -> ChainTrace:
        """iid posterior draws, vectorized; every step is a regeneration."""
        if rng is None:
            rng = np.random.default_rng(seed)
        mean, sd = self.posterior_params(h1)
        theta = mean[None, :] + sd * rng.standard_normal((n, self.J))
        Tmat = np.column_stack([theta.sum(axis=1), (theta * theta).sum(axis=1)])
        return ChainTrace(
            Tmat=Tmat, g={"theta1": theta[:, 0]},
            delta=np.ones(n, dtype=bool),
            meta={"h1": list(np.asarray(h1, dtype=float)),
                  "kernel": "toy-exact", "n": n},
            ends_at_regen=True)

    def mh_kernel(self, h1, proposal_inflation: float = 2.0,
                  c: float | None = None, pilot: int = 1000,
                  pilot_seed: int = 0) -> "MHKernel":
        return MHKernel(self, h1, proposal_inflation=proposal_inflation,
                        c=c, pilot=pilot, pilot_seed=pilot_seed)

    def mh_trace(self, h1, *, n: int | None = None, R: int | None = None,
                 seed=None, rng=None, proposal_inflation: float = 2.0,
                 c: float | None = None) -> ChainTrace:
        kernel = self.mh_kernel(h1, proposal_inflation=proposal_inflation, c=c)
        return simulate(kernel, n=n, R=R, seed=seed, rng=rng,
                        meta={"h1": list(np.asarray(h1, dtype=float))})

    # -- serial tempering -------------------------------------------------
    def st_model(self, anchors: np.ndarray) -> "_ToySTModel":
        return _ToySTModel(self, np.atleast_2d(np.asarray(anchors, dtype=float)))


class MHKernel:
    """Independence Metropolis-Hastings on the toy posterior with regeneration.

    The proposal is the posterior at h1 with per-coordinate sd inflated by
    ``proposal_inflation``; the splitting constant ``c`` defaults to the
    median importance weight over a pilot sample from the proposal.
    Regeneration marks are drawn retrospectively on accepted moves.
    """

    has_regen = True

    def __init__(self, model: NormalHierModel, h1, proposal_inflation: float = 2.0,
                 c: float | None = None, pilot: int = 1000, pilot_seed: int = 0):
        self.model = model
        self.h1 = np.asarray(h1, dtype=float)
        self.mean, post_sd = model.posterior_params(self.h1)
        self.post_sd = post_sd
        self.prop_sd = proposal_inflation * post_sd
        self.kernel_id = "toy-indep-mh"
        if c is None:
            rng = np.random.default_rng(pilot_seed)
            draws = self.mean + self.prop_sd * rng.standard_normal((pilot, model.J))
            c = float(np.exp(np.median(self._log_w(draws))))
        if c <= 0:
            raise ValueError("splitting constant c must be positive")
        self.log_c = float(np.log(c))

    def _log_w(self, theta: np.ndarray) -> np.ndarray:
        """log(target/proposal) up to a constant, vectorized over rows."""
        theta = np.atleast_2d(theta)
        d_t = (theta - self.mean[None, :]) / self.post_sd
        d_p = (theta - self.mean[None, :]) / self.prop_sd
        return -0.5 * (d_t * d_t).sum(axis=1) + 0.5 * (d_p * d_p).sum(axis=1)

    def start(self, rng):
        # regeneration measure: proposal reweighted by min(w, c)/c (rejection)
        while True:
            theta = self.mean + self.prop_sd * rng.standard_normal(self.model.J)
            lw = float(self._log_w(theta)[0])
            if np.log(rng.random()) < min(lw - self.log_c, 0.0):
                return (theta, lw)

    def step(self, state, rng):
        theta, lw_x = state
        prop = self.mean + self.prop_sd * rng.standard_normal(self.model.J)
        lw_y = float(self._log_w(prop)[0])
        if np.log(rng.random()) < lw_y - lw_x:
            delta = np.log(rng.random()) < log_regen_prob(lw_x, lw_y, self.log_c)
            return (prop, lw_y), bool(delta)
        return state, False

    def observe(self, state):
        theta, _ = state
        return self.model.observe(theta)


def mh_ensemble_traces(model: NormalHierModel, h1, n: int, n_chains: int,
                       seed=None, proposal_inflation: float = 2.0,
                       c: float | None = None) -> list[ChainTrace]:
    """Run many independent MH chains in lockstep (vectorized across chains).

    Statistically identical to ``n_chains`` separate runs of
    :class:`MHKernel` with independent streams; used by replication studies
    where per-chain Python loops would dominate the budget.
    """
    kernel = model.mh_kernel(h1, proposal_inflation=proposal_inflation, c=c)
    rng = np.random.default_rng(seed)
    C, J = n_chains, model.J
    lc = kernel.log_c

    # start every chain from the regeneration measure by parallel rejection
    theta = np.empty((C, J))
    lw = np.empty(C)
    pending = np.arange(C)
    while pending.size:
        cand = kernel.mean + kernel.prop_sd * rng.standard_normal((pending.size, J))
        lw_c = kernel._log_w(cand)
        ok = np.log(rng.random(pending.size)) < np.minimum(lw_c - lc, 0.0)
        theta[pending[ok]] = cand[ok]
        lw[pending[ok]] = lw_c[ok]
        pending = pending[~ok]

    Tmats = np.empty((C, n, 2))
    theta1 = np.empty((C, n))
    deltas = np.zeros((C, n), dtype=bool)
    deltas[:, 0] = True
    for i in range(n):
        Tmats[:, i, 0] = theta.sum(axis=1)
        Tmats[:, i, 1] = (theta * theta).sum(axis=1)
        theta1[:, i] = theta[:, 0]
        if i == n - 1:
            break
        prop = kernel.mean + kernel.prop_sd * rng.standard_normal((C, J))
        lw_y = kernel._log_w(prop)
        accept = np.log(rng.random(C)) < lw_y - lw
        regen = accept & (np.log(rng.random(C)) < log_regen_prob(lw, lw_y, lc))
        theta[accept] = prop[accept]
        lw[accept] = lw_y[accept]
        deltas[:, i + 1] = regen

    meta = {"h1": list(np.asarray(h1, dtype=float)), "kernel": kernel.kernel_id}
    return [ChainTrace(Tmat=Tmats[ci], g={"theta1": theta1[ci]},
                       delta=deltas[ci], meta=dict(meta), ends_at_regen=False)
            for ci in range(C)]


class _ToySTModel:
    """Per-anchor exact posterior draws for serial tempering on the toy."""

    def __init__(self, model: NormalHierModel, anchors: np.ndarray):
        self.model = model
        self.params = [model.posterior_params(h) for h in anchors]

    def start(self, rng):
        mean, sd = self.params[0]
        return mean + sd * rng.standard_normal(self.model.J)

    def anchor_step(self, j, theta, rng):
        mean, sd = self.params[j]
        return mean + sd * rng.standard_normal(self.model.J)

    def suffstat(self, theta):
        theta = np.asarray(theta, dtype=float)
        return np.array([theta.sum(), (theta * theta).sum()])

    def observe(self, theta):
        return self.model.observe(theta)
