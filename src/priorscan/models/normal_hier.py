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

from priorscan.chain_runtime import ChainTrace, log_regen_prob
from priorscan.prior_family import ExpFamilySpec, HyperRect

__all__ = [
    "NormalHierModel",
    "normal_hier_spec",
    "MHKernel",
    "mh_ensemble_traces",
]

# Random floats per block of the MH chain: each block draws a (rows, J)
# array of 2^17 proposal normals (1 MB), so memory stays bounded as J grows.
BLOCK_FLOATS = 2 ** 17
# Rows per slice in which a drawn block is processed: the proposals, their
# log weights and the gathered states of a slice are a few hundred kB.
SLICE_ROWS = 2048
# The MH proposal is the posterior at h1 with each sd times PROPOSAL_INFLATION;
# by default c is the median importance weight of PILOT proposals drawn on
# the stream of seed PILOT_SEED.
PROPOSAL_INFLATION = 2.0
PILOT = 1000
PILOT_SEED = 0


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

    # the open box of h = (mu, tau^2), and the functionals its chains record
    DOMAIN = ((-np.inf, np.inf), (0.0, np.inf))
    KERNEL_ID = "toy-exact"
    functionals = ("theta1",)

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
        v = self.sigma0 ** 2 + t2
        return float(-0.5 * (self.J * np.log(2.0 * np.pi * v)
                             + ((self.y - mu) ** 2).sum() / v))

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
    @staticmethod
    def suffstat(theta) -> np.ndarray:
        """T(theta) = (sum theta_j, sum theta_j^2) over the last axis, for one
        state ``(J,)`` or a stack of them ``(n, J)``."""
        theta = np.asarray(theta, dtype=float)
        return np.stack([theta.sum(axis=-1), (theta * theta).sum(axis=-1)], axis=-1)

    def observe(self, theta) -> tuple[np.ndarray, dict[str, float]]:
        theta = np.asarray(theta, dtype=float)
        return self.suffstat(theta), {"theta1": float(theta[0])}

    # -- samplers ---------------------------------------------------------
    def start(self, rng: np.random.Generator, h) -> np.ndarray:
        """An exact posterior draw at h; ``sweep`` draws the next one afresh."""
        mean, sd = self.posterior_params(h)
        return mean + sd * rng.standard_normal(self.J)

    def sweep(self, theta, h, rng: np.random.Generator) -> np.ndarray:
        return self.start(rng, h)

    def exact_trace(self, h1, n: int, seed=None, rng=None) -> ChainTrace:
        """iid posterior draws, vectorized; every step is a regeneration."""
        if rng is None:
            rng = np.random.default_rng(seed)
        mean, sd = self.posterior_params(h1)
        theta = mean[None, :] + sd * rng.standard_normal((n, self.J))
        return ChainTrace(
            Tmat=self.suffstat(theta), g={"theta1": theta[:, 0]},
            delta=np.ones(n, dtype=bool),
            meta={"h1": list(np.asarray(h1, dtype=float)),
                  "kernel": self.KERNEL_ID, "n": n},
            ends_at_regen=True)

    def mh_kernel(self, h1, c: float | None = None) -> "MHKernel":
        return MHKernel(self, h1, c=c)

    def mh_trace(self, h1, *, n: int | None = None, R: int | None = None,
                 seed=None, rng=None) -> ChainTrace:
        kernel = self.mh_kernel(h1)
        if rng is None:
            rng = np.random.default_rng(seed)
        return kernel.trace(rng, n=n, R=R,
                            meta={"h1": list(np.asarray(h1, dtype=float))})


class MHKernel:
    """Independence Metropolis-Hastings on the toy posterior with regeneration.

    The proposal is the posterior at h1 with per-coordinate sd inflated by
    :data:`PROPOSAL_INFLATION`; the splitting constant ``c`` defaults to the
    median importance weight over a pilot sample from the proposal.
    Regeneration marks are drawn retrospectively on accepted moves.
    """

    has_regen = True

    def __init__(self, model: NormalHierModel, h1, c: float | None = None):
        self.model = model
        self.h1 = np.asarray(h1, dtype=float)
        self.mean, post_sd = model.posterior_params(self.h1)
        self.post_sd = post_sd
        self.prop_sd = PROPOSAL_INFLATION * post_sd
        self.kernel_id = "toy-indep-mh"
        if c is None:
            rng = np.random.default_rng(PILOT_SEED)
            draws = self.mean + self.prop_sd * rng.standard_normal((PILOT, model.J))
            # np.median's value at an even PILOT, without its numpy.ma import
            lw, m = np.sort(self._log_w(draws)), PILOT // 2       # NaN sorts last
            c = float("nan") if np.isnan(lw[-1]) else float(np.exp((lw[m - 1] + lw[m]) / 2))
        if not c > 0:
            raise ValueError(f"splitting constant c must be positive, got {c}")
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

    def trace(self, rng: np.random.Generator, *, n: int | None = None,
              R: int | None = None, meta=None) -> ChainTrace:
        """The chain :func:`~priorscan.chain_runtime.simulate` runs on this
        kernel, with the same transition law, drawn in blocks of steps.

        Each block draws the normals of its proposals and two uniform arrays
        (acceptance, regeneration) at once; only the order in which random
        numbers are drawn differs from ``start`` followed by ``step``.
        Exactly one of ``n`` (draws) and ``R`` (complete tours) is given.
        """
        if (n is None) == (R is None):
            raise ValueError("specify exactly one of n= and R=")
        if R is not None and R < 1:
            raise ValueError("R must be at least 1")
        J = self.model.J
        rows = max(1, BLOCK_FLOATS // J)

        def blocks():
            left = np.inf if n is None else n - 1     # proposals still needed
            while left > 0:
                b = int(min(rows, left))
                left -= b
                yield (rng.standard_normal((b, J)),
                       np.log(rng.random(b)), np.log(rng.random(b)))

        return self.run_blocks(self.start(rng), blocks(), n=n, R=R, meta=meta)

    def run_blocks(self, state, blocks, *, n: int | None = None,
                   R: int | None = None, meta=None) -> ChainTrace:
        """The chain from ``state`` (a draw from the regeneration measure) on
        the given random numbers.

        ``blocks`` yields ``(z, log_u, log_v)`` per block of steps: standard
        normals ``(b, J)`` for the proposals, and the logs of the uniforms
        that decide acceptance and, on an accepted move, regeneration.  The
        trace stops after ``n`` draws, or drops the regeneration that opens
        tour ``R + 1`` and ends there (``ends_at_regen``).  Its meta records
        ``accept_rate`` (accepted moves) and ``regen_rate`` (regeneration
        flags after the first) over the trace's n - 1 steps.

        Each block is processed in slices of :data:`SLICE_ROWS` steps, whose
        draws are written into the trace's arrays: allocated for ``n`` draws,
        or grown geometrically for an ``R`` target.
        """
        theta, lw = state
        out = _TraceArrays(n or 1 + SLICE_ROWS)
        out.put(0, self.model.suffstat(theta[None, :]), theta[:1], np.ones(1, dtype=bool))
        drawn, flags, accepted, ends_at_regen = 1, 1, 0, False
        for z, log_u, log_v in blocks:
            take = len(z) if n is None else min(len(z), n - drawn)
            for a in range(0, take, SLICE_ROWS):
                b = min(take, a + SLICE_ROWS)
                theta, lw, acc, delta = self._slice(theta, lw, z[a:b], log_u[a:b],
                                                    log_v[a:b], out, drawn)
                if R is not None and flags + np.count_nonzero(delta) > R:
                    # the regeneration opening tour R + 1 ends the trace there
                    stop = int(np.flatnonzero(delta)[R - flags])
                    accepted += np.count_nonzero(acc < stop)
                    drawn, ends_at_regen = drawn + stop, True
                    break
                flags += np.count_nonzero(delta)
                accepted += acc.size
                drawn += delta.size
            if ends_at_regen or drawn == n:
                break
            del z, log_u, log_v             # before the next block is drawn

        Tmat, th1, delta = out.trimmed(drawn)
        steps = max(drawn - 1, 1)
        info = {"kernel": self.kernel_id, "n": drawn,
                "accept_rate": int(accepted) / steps,
                "regen_rate": int(np.count_nonzero(delta[1:])) / steps}
        if meta:
            info.update(meta)
        return ChainTrace(Tmat=Tmat, g={"theta1": th1}, delta=delta, meta=info,
                          ends_at_regen=ends_at_regen)

    def _slice(self, theta, lw, z, log_u, log_v, out: "_TraceArrays", row: int):
        """Run the steps of one slice from state ``(theta, lw)`` and write
        their draws to ``out`` from ``row`` on.  Returns the state after the
        slice, its accepted steps and the regeneration flags of its draws."""
        prop = self.mean + self.prop_sd * z
        lw_y = self._log_w(prop)
        acc, lw_end = _accept_scan(lw_y, log_u, lw)
        lw_from = np.append(lw, lw_y[acc[:-1]])       # of the state each move leaves
        delta = np.zeros(len(z), dtype=bool)
        delta[acc] = log_v[acc] < log_regen_prob(lw_from, lw_y[acc], self.log_c)
        # the state after step j is row at[j] of [current, accepted...]
        states = np.vstack([theta, prop[acc]])
        moved = np.zeros(len(z), dtype=np.intp)
        moved[acc] = 1
        at = np.cumsum(moved)
        out.put(row, self.model.suffstat(states)[at], states[at, 0], delta)
        return states[-1], lw_end, acc, delta


class _TraceArrays:
    """The T, theta1 and regeneration-flag arrays of a chain being run,
    written one range of rows at a time and doubled in place when full."""

    def __init__(self, rows: int):
        self.arrays = (np.empty((rows, 2)), np.empty(rows), np.empty(rows, dtype=bool))

    def put(self, row: int, *values) -> None:
        size = row + len(values[0])
        if size > self.arrays[0].shape[0]:
            rows = max(size, 2 * self.arrays[0].shape[0])
            for arr in self.arrays:        # no views exist until trimmed
                arr.resize((rows,) + arr.shape[1:], refcheck=False)
        for arr, v in zip(self.arrays, values):
            arr[row:size] = v

    def trimmed(self, rows: int):
        """The first ``rows`` rows of each array, the rest given back."""
        for arr in self.arrays:
            if arr.shape[0] != rows:
                arr.resize((rows,) + arr.shape[1:], refcheck=False)
        return self.arrays


def _accept_scan(lw_y: np.ndarray, log_u: np.ndarray, lw: float):
    """Indices of the accepted proposals of a block, and the log weight of
    the state after it.

    The rule of :meth:`MHKernel.step`: move to proposal j iff
    ``log_u[j] < lw_y[j] - lw`` for the current state's log weight ``lw``,
    the chain's only sequential dependency.
    """
    acc = []
    for j, (ly, lu) in enumerate(zip(lw_y.tolist(), log_u.tolist())):
        if lu < ly - lw:
            acc.append(j)
            lw = ly
    return np.array(acc, dtype=np.intp), lw


def mh_ensemble_traces(model: NormalHierModel, h1, n: int, n_chains: int,
                       seed=None) -> list[ChainTrace]:
    """``n_chains`` independent MH chains of ``n`` draws each.

    Chain i is :meth:`MHKernel.trace` on the i-th stream spawned from
    ``SeedSequence(seed)``; one kernel, with one pilot estimate of ``c``,
    serves them all.  Used by replication studies.
    """
    kernel = model.mh_kernel(h1)
    meta = {"h1": list(np.asarray(h1, dtype=float))}
    return [kernel.trace(np.random.default_rng(s), n=n, meta=meta)
            for s in np.random.SeedSequence(seed).spawn(n_chains)]

