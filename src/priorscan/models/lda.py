"""Desk-scale latent Dirichlet allocation with a blocked Gibbs chain.

Model: topics beta_t ~ Dir_V(eta), doc mixtures theta_d ~ Dir_K(alpha), token
topics z ~ Cat(theta_d), words ~ Cat(beta_z).  The hyperparameter is
h = (eta, alpha); the prior ratio depends on the state only through
T = (sum log beta_tv, sum log theta_dk) since the z and word terms carry no h.

One chain step is a blocked Gibbs sweep: (beta, theta) from their Dirichlet
conditionals given the token topics, then every token topic at once, since
the z are conditionally independent given (beta, theta).  Its invariant law
is the posterior of (z, beta, theta), from which T is recorded.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from priorscan.chain_runtime import ChainTrace, ModelChain, simulate
from priorscan.prior_family import ExpFamilySpec, HyperRect

__all__ = [
    "LDAModel",
    "LDAState",
    "lda_spec",
    "lda_closeness",
    "synth_corpus",
    "save_corpus",
    "load_corpus",
    "Corpus",
]

SIMPLEX_CLAMP = 1e-300
PRIOR_CACHE = 64        # (eta, alpha) pairs whose gamma-shape priors a model keeps


# Bernoulli numbers B_2, B_4, ..., B_14 of the asymptotic series
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


def _digamma(x: float) -> float:
    """psi(x) for x > 0 (NaN elsewhere): the recurrence psi(x) = psi(x + 1)
    - 1/x up to x >= 10, then psi(x) ~ log x - 1/(2x) - sum_k B_2k / (2k x^2k)."""
    if not x > 0.0:
        return math.nan
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    z = 1.0 / (x * x)
    tail = 0.0
    for k, b in reversed(list(enumerate(_BERNOULLI, 1))):
        tail = (tail + b / (2 * k)) * z
    return acc + math.log(x) - 0.5 / x - tail


def _trigamma(x: float) -> float:
    """psi'(x) for x > 0 (NaN elsewhere): the recurrence psi'(x) = psi'(x + 1)
    + 1/x^2 up to x >= 10, then psi'(x) ~ 1/x + 1/(2x^2) + sum_k B_2k / x^(2k+1)."""
    if not x > 0.0:
        return math.nan
    acc = 0.0
    while x < 10.0:
        acc += 1.0 / (x * x)
        x += 1.0
    z = 1.0 / (x * x)
    tail = 0.0
    for b in reversed(_BERNOULLI):
        tail = (tail + b) * z
    return acc + (1.0 + 0.5 / x + tail) / x


def lda_spec(K: int, V: int, D: int) -> ExpFamilySpec:
    """(eta, alpha) exponential family over T = (sum log beta, sum log theta).

    A(eta, alpha) = -K[lgG(V eta) - V lgG(eta)] - D[lgG(K alpha) - K lgG(alpha)].
    Canonical coordinates are (eta - 1, alpha - 1).
    """
    def canon(h):
        return np.asarray(h, dtype=float) - 1.0

    def canon_jac(h):
        return np.eye(2)

    def canon_hess(h):
        return np.zeros((2, 2, 2))

    def log_norm(h):
        eta, alpha = h
        if not (eta > 0.0 and alpha > 0.0):
            return math.nan             # no Dirichlet; the grid pass flags it
        return (-K * (math.lgamma(V * eta) - V * math.lgamma(eta))
                - D * (math.lgamma(K * alpha) - K * math.lgamma(alpha)))

    def log_norm_grad(h):
        eta, alpha = h
        return np.array([-K * V * (_digamma(V * eta) - _digamma(eta)),
                         -D * K * (_digamma(K * alpha) - _digamma(alpha))])

    def log_norm_hess(h):
        eta, alpha = h
        d2e = -K * V * (V * _trigamma(V * eta) - _trigamma(eta))
        d2a = -D * K * (K * _trigamma(K * alpha) - _trigamma(alpha))
        return np.array([[d2e, 0.0], [0.0, d2a]])

    def log_norm_canon(omega):
        return log_norm(np.asarray(omega, dtype=float) + 1.0)

    return ExpFamilySpec(k=2, stat_dim=2, canon=canon, log_norm=log_norm,
                         canon_jac=canon_jac, canon_hess=canon_hess,
                         log_norm_grad=log_norm_grad, log_norm_hess=log_norm_hess,
                         log_norm_canon=log_norm_canon, name="lda-dirichlet")


# ------------------------------------------------------------------
# corpus
# ------------------------------------------------------------------

@dataclass(frozen=True)
class Corpus:
    docs: tuple            # tuple of int arrays of word ids
    V: int
    meta: dict = field(default_factory=dict)

    @property
    def D(self) -> int:
        return len(self.docs)

    @property
    def n_tokens(self) -> int:
        return sum(len(d) for d in self.docs)


def synth_corpus(seed: int, D: int = 6, V: int = 12, K: int = 2,
                 n_d: int = 30, eta: float = 0.5, alpha: float = 0.5) -> Corpus:
    """Documents drawn from the LDA generative model at known (eta, alpha)."""
    rng = np.random.default_rng(seed)
    beta = rng.dirichlet(np.full(V, eta), size=K)
    theta = rng.dirichlet(np.full(K, alpha), size=D)
    docs = []
    for d in range(D):
        z = rng.choice(K, size=n_d, p=theta[d])
        words = np.array([rng.choice(V, p=beta[k]) for k in z], dtype=np.int64)
        docs.append(words)
    return Corpus(docs=tuple(docs), V=V, meta={
        "seed": seed, "D": D, "V": V, "K": K, "n_d": n_d,
        "eta_true": eta, "alpha_true": alpha,
    })


def save_corpus(corpus: Corpus, path) -> None:
    """One document per line of whitespace-separated word ids + JSON sidecar."""
    path = Path(path)
    with open(path, "w") as fh:
        for doc in corpus.docs:
            fh.write(" ".join(str(int(w)) for w in doc) + "\n")
    sidecar = dict(corpus.meta)
    sidecar["V"] = corpus.V
    with open(path.with_suffix(path.suffix + ".json"), "w") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=1)


def load_corpus(path) -> Corpus:
    path = Path(path)
    docs = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            ids = [int(tok) for tok in line.split()]
            if not ids:
                raise ValueError(f"{path}:{line_no}: empty document")
            docs.append(np.asarray(ids, dtype=np.int64))
    with open(path.with_suffix(path.suffix + ".json")) as fh:
        meta = json.load(fh)
    V = int(meta["V"])
    for doc in docs:
        if doc.min() < 0 or doc.max() >= V:
            raise ValueError("word id outside vocabulary")
    return Corpus(docs=tuple(docs), V=V, meta=meta)


# ------------------------------------------------------------------
# sampler
# ------------------------------------------------------------------

@dataclass
class LDAState:
    z: np.ndarray         # (n_tokens,) topic per token
    ckv: np.ndarray       # (K, V) topic-word counts
    cdk: np.ndarray       # (D, K) doc-topic counts
    beta: np.ndarray      # (K, V) row-stochastic
    theta: np.ndarray     # (D, K) row-stochastic
    counts: np.ndarray | None = None    # (KV + DK,) ckv then cdk, both views of it


def lda_closeness(state: LDAState, i: int, j: int, eps: float) -> float:
    """Indicator that doc mixtures theta_i and theta_j are within eps."""
    x = state.theta[i] - state.theta[j]
    return float(math.sqrt(x @ x) <= eps)      # np.linalg.norm's 1-D formula


class LDAModel:
    """Blocked Gibbs machinery over a fixed corpus."""

    DOMAIN = ((0.0, np.inf), (0.0, np.inf))     # the open box of h = (eta, alpha)
    KERNEL_ID = "lda-blocked-gibbs"

    def __init__(self, corpus: Corpus, K: int,
                 rect: HyperRect | None = None,
                 closeness_pairs: tuple = ((0, 1, 0.05),)):
        if any(len(d) == 0 for d in corpus.docs):
            raise ValueError("empty documents are rejected at load")
        self.corpus = corpus
        self.K = int(K)
        self.V = corpus.V
        self.D = corpus.D
        self.rect = rect if rect is not None else HyperRect(
            lower=[0.1, 0.1], upper=[2.0, 2.0])
        self.closeness_pairs = tuple(closeness_pairs)
        # what its chains record: one closeness indicator per pair
        self.functionals = tuple(f"close_{i}_{j}" for i, j, _ in self.closeness_pairs)
        self.doc_ids = np.concatenate([
            np.full(len(doc), d, dtype=np.int64)
            for d, doc in enumerate(corpus.docs)])
        self.word_ids = np.concatenate(corpus.docs).astype(np.int64)
        # the (doc, word) pairs that occur, and each token's pair (by counts:
        # np.unique would page in ~0.4 MB of sorting code for this alone)
        dv = self.doc_ids * self.V + self.word_ids
        occurs = np.bincount(dv, minlength=self.D * self.V) > 0
        self._pair_of = (np.cumsum(occurs) - 1)[dv]
        self._pair_doc, self._pair_word = np.divmod(np.flatnonzero(occurs), self.V)
        # token i adds one count at z_i V + w_i (topic-word) and one at
        # KV + d_i K + z_i (doc-topic) of the concatenated count vector
        self._count_at = np.stack([self.word_ids, self.K * self.V + self.doc_ids * self.K])
        self._count_step = np.array([[self.V], [1]])
        self._priors = {}       # (eta, alpha) -> the gamma shapes' prior part

    def spec(self) -> ExpFamilySpec:
        return lda_spec(self.K, self.V, self.D)

    # -- state updates ----------------------------------------------------
    def start(self, rng: np.random.Generator, h) -> LDAState:
        """Every token's topic uniform at random, then one sweep at h."""
        z = rng.integers(0, self.K, size=self.word_ids.size)
        c, ckv, cdk = self._counts(z)
        return self.sweep(LDAState(z, ckv, cdk, beta=np.zeros((self.K, self.V)),
                                   theta=np.zeros((self.D, self.K)), counts=c), h, rng)

    def _counts(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The count vector of the token topics ``z``, then its topic-word and
        doc-topic counts as views of it."""
        K, V, D = self.K, self.V, self.D
        c = np.bincount((self._count_at + self._count_step * z).ravel(),
                        minlength=K * V + D * K)
        return c, c[:K * V].reshape(K, V), c[K * V:].reshape(D, K)

    def _prior(self, eta: float, alpha: float) -> np.ndarray:
        """eta over the topic-word shapes, then alpha over the doc-topic ones;
        kept per (eta, alpha), as a chain sweeps at h1 or at its anchors."""
        prior = self._priors.get((eta, alpha))
        if prior is None:
            if eta <= 0 or alpha <= 0:
                raise ValueError("eta and alpha must be positive")
            if len(self._priors) >= PRIOR_CACHE:
                self._priors.clear()
            prior = self._priors[eta, alpha] = np.repeat(
                [eta, alpha], [self.K * self.V, self.D * self.K])
        return prior

    def sweep(self, state: LDAState, h, rng: np.random.Generator) -> LDAState:
        """(beta, theta) given z, then every token's topic given (beta, theta).

        beta_t ~ Dir(eta + counts) and theta_d ~ Dir(alpha + counts) come from
        one standard-gamma draw over the topic-word shapes, then the
        doc-topic shapes.  The topic CDF, cumsum_k theta[d, k] beta[k, w], is
        a (K, pairs) table over the (doc, word) pairs that occur (at most
        min(tokens, D V) columns); each token reads its pair's column.
        """
        K, V = self.K, self.V
        g = rng.standard_gamma(self._prior(float(h[0]), float(h[1])) + state.counts)
        gb, gt = g[:K * V].reshape(K, V), g[K * V:].reshape(self.D, K)
        # np.add.reduce is what ndarray.sum calls, less a Python-level wrapper
        state.beta = gb / np.add.reduce(gb, axis=1, keepdims=True)
        state.theta = gt / np.add.reduce(gt, axis=1, keepdims=True)
        # p(z_i = k) proportional to theta[d_i, k] beta[k, w_i]: z_i counts
        # the first K - 1 cumulative sums at or below u_i ~ U(0, total_i)
        cdf = (state.theta.take(self._pair_doc, axis=0).T
               * state.beta.take(self._pair_word, axis=1)).cumsum(axis=0)
        cdf = cdf.take(self._pair_of, axis=1)
        u = rng.random(self.word_ids.size) * cdf[-1]
        state.z = np.add.reduce(cdf[:-1] <= u, axis=0)
        state.counts, state.ckv, state.cdk = self._counts(state.z)
        return state

    # -- trace plumbing ---------------------------------------------------
    def suffstat(self, state: LDAState) -> np.ndarray:
        logb = np.log(np.maximum(state.beta, SIMPLEX_CLAMP))
        logt = np.log(np.maximum(state.theta, SIMPLEX_CLAMP))
        return np.array([np.add.reduce(logb, axis=None), np.add.reduce(logt, axis=None)])

    def observe(self, state: LDAState):
        g_vals = {name: lda_closeness(state, i, j, eps)
                  for name, (i, j, eps) in zip(self.functionals, self.closeness_pairs)}
        return self.suffstat(state), g_vals

    def kernel(self, h1, burn: int = 50) -> ModelChain:
        return ModelChain(self, h1, burn=burn)

    def trace(self, h1, n: int, seed=None, rng=None, burn: int = 50) -> ChainTrace:
        return simulate(self.kernel(h1, burn=burn), n=n, seed=seed, rng=rng,
                        meta={"h1": list(np.asarray(h1, dtype=float))})

    def st_model(self, anchors: np.ndarray) -> ModelChain:
        return ModelChain(self, anchors)
