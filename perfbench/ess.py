"""Sampler efficiency from a priorscan trace file, with no library helper.

Batch-means effective sample size follows Flegal & Jones (2010, Ann. Stat.):
with a = ceil(sqrt(n)) batches of b = floor(n / a) draws, the asymptotic
variance is estimated by b times the sample variance of the batch means, and
ESS = n * var(x) / that estimate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np


def batch_means_var(x: np.ndarray) -> float:
    """Batch-means estimate of the asymptotic variance of the mean times n,
    with ceil(sqrt(n)) batches."""
    x = np.asarray(x, dtype=float)
    n = x.size
    a = math.ceil(math.sqrt(n))
    b = n // a
    if a < 2 or b < 1:
        raise ValueError(f"series of {n} draws is too short for batch means")
    return float(b * x[:a * b].reshape(a, b).mean(axis=1).var(ddof=1))


def batch_means_ess(x: np.ndarray) -> float:
    """Batch-means ESS of one series."""
    sigma2 = batch_means_var(x)
    if sigma2 <= 0.0:
        raise ValueError("zero batch-means variance; the series is constant")
    return float(np.size(x) * np.var(x, ddof=1) / sigma2)


@dataclass(frozen=True)
class ChainStats:
    n: int
    ess: tuple[float, ...]   # one per component of T
    accept_rate: float       # share of steps whose row changed
    regen_rate: float        # regeneration flags per draw after the first

    @property
    def ess_min(self) -> float:
        return min(self.ess)


def chain_stats(Tmat: np.ndarray, rows: np.ndarray, delta: np.ndarray) -> ChainStats:
    """Statistics of one chain.

    ``rows`` holds every recorded column of each draw (T, functionals), so a
    step is accepted when its row differs from the previous one.
    """
    Tmat = np.atleast_2d(np.asarray(Tmat, dtype=float))
    n = Tmat.shape[0]
    changed = np.any(rows[1:] != rows[:-1], axis=1)
    return ChainStats(
        n=n,
        ess=tuple(batch_means_ess(Tmat[:, j]) for j in range(Tmat.shape[1])),
        accept_rate=float(changed.mean()),
        # the first draw is always flagged (it starts from the regeneration
        # measure), so only later flags are regenerations of the chain
        regen_rate=float(np.count_nonzero(delta[1:]) / (n - 1)),
    )


def read_trace(path) -> tuple[dict, np.ndarray]:
    """Parse a version-1 trace file: a JSON header line, then one CSV row
    per draw (T, then functionals, then the regeneration flag)."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        if header.get("version") != 1:
            raise ValueError(f"unsupported trace version {header.get('version')!r}")
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    stat_dim = int(header["stat_dim"])
    if body.shape != (int(header["n"]), stat_dim + len(header["functionals"]) + 1):
        raise ValueError(f"trace body has shape {body.shape}, header disagrees")
    return header, body


def trace_body_stats(header: dict, body: np.ndarray) -> ChainStats:
    return chain_stats(body[:, :header["stat_dim"]], body[:, :-1], body[:, -1] != 0.0)
