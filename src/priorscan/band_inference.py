"""Globally valid confidence bands for I_g(·) (and B(·)) via batching.

The trace is cut into M consecutive batches; the sup over the grid of the
scaled deviation of each batch curve from the full-trace curve gives M
approximately iid sup statistics, and an upper order statistic of those sets a
single half-width valid simultaneously at every grid point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from priorscan.chain_runtime import ChainTrace
from priorscan.estimators import (ESS_UNRELIABLE, _deviations, _grid_sums,
                                  _segmentation)

__all__ = ["BandReport", "global_band"]

MIN_BATCH_LEN = 10


@dataclass
class BandReport:
    """Simultaneous band: center(h) ± half_width with one width for all h."""

    grid: np.ndarray          # (G, k)
    center: np.ndarray        # (G,)
    half_width: float
    M: int
    alpha: float
    sup_stats: np.ndarray     # (M,) the batch sup statistics, unsorted
    n: int
    target: str               # "I:<name>" or "B"
    ess: np.ndarray           # (G,) weight ESS of the center at each point

    @property
    def lower(self) -> np.ndarray:
        return self.center - self.half_width

    @property
    def upper(self) -> np.ndarray:
        return self.center + self.half_width

    def covers(self, truth: np.ndarray) -> bool:
        truth = np.asarray(truth, dtype=float)
        return bool(np.all(np.abs(truth - self.center) <= self.half_width + 1e-12))

    def to_csv(self, path) -> None:
        header = ",".join(f"h_{i+1}" for i in range(self.grid.shape[1]))
        np.savetxt(path, np.column_stack([self.grid, self.center, self.lower, self.upper]),
                   fmt="%.17g", delimiter=",", header=header + ",center,lower,upper",
                   comments="")

    def to_json(self, extra: dict | None = None) -> str:
        payload = {
            "M": self.M,
            "alpha": self.alpha,
            "half_width": self.half_width,
            "n": self.n,
            "target": self.target,
            "sup_stats_sorted": np.sort(self.sup_stats).tolist(),
            "ess_min": float(self.ess.min()),
            "n_unreliable": int(np.count_nonzero(self.ess < ESS_UNRELIABLE)),
        }
        if extra:
            payload.update(extra)
        return json.dumps(payload, sort_keys=True, indent=1)


def global_band(trace: ChainTrace, family, g_name: str | None,
                grid, M: int | None = None, alpha: float = 0.05) -> BandReport:
    """Simultaneous (1 - alpha) band for I_g(·) over the grid.

    ``g_name=None`` produces the analogous band for B(·).  The trace is split
    into M consecutive batches of floor(n/M) draws (trailing remainder
    dropped); the half-width is n^{-1/2} times the ceil((1-alpha) M)-th order
    statistic of the batch sup deviations scaled by sqrt(n/M).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    _, n_used, starts = _segmentation(trace.n, None, M)
    M = starts.size
    L = n_used // M
    if L < MIN_BATCH_LEN:
        raise ValueError(f"batch length {L} < {MIN_BATCH_LEN}; reduce M")
    Tmat = trace.Tmat[:n_used]
    g = None if g_name is None else trace.functional(g_name)[:n_used, None]
    shift, c, ess, I = _grid_sums(family, grid, Tmat, g)

    sup_stats = np.empty(M)
    for ids, dB, dI in _deviations(family, grid, Tmat, shift, c, I, starts, g,
                                   ratio=True):
        dev = dB * np.exp(shift) if g is None else dI
        sup_stats[ids] = np.sqrt(L) * np.abs(dev).max(axis=1)
    if not np.all(np.isfinite(sup_stats)):
        raise ValueError(f"{np.count_nonzero(~np.isfinite(sup_stats))} of {M} batch "
                         "curves are not finite (their weights underflow to 0)")
    order = int(np.ceil((1.0 - alpha) * M))                    # 1-based index
    half_width = float(np.sort(sup_stats)[order - 1] / np.sqrt(n_used))
    return BandReport(grid=grid, center=c * np.exp(shift) if g is None else I[0],
                      half_width=half_width, M=M, alpha=alpha, sup_stats=sup_stats,
                      n=n_used, target="B" if g is None else f"I:{g_name}", ess=ess)
