"""Globally valid confidence bands for I_g(·) (and B(·)) via batching.

The trace is cut into M consecutive batches; the sup over the grid of each
batch's scaled deviation from the full-trace curve gives M approximately iid
sup statistics, and an upper order statistic of those sets a single
half-width valid simultaneously at every grid point (Flegal & Jones 2010).
The deviations are the linearized ones of the pointwise SEs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from priorscan.chain_runtime import ChainTrace
from priorscan.estimators import ESS_UNRELIABLE, _deviations, _segmentation

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

    ``g_name=None`` produces the analogous band for B(·).  The center and the
    batch deviations (``estimators._deviations``) use all n draws, like the
    grid estimates, in M consecutive batches of floor(n/M) or ceil(n/M); the
    half-width is n^{-1/2} times the ceil((1-alpha) M)-th order statistic of
    the batch sup deviations scaled by sqrt(n/M).  A non-finite deviation,
    from a NaN or infinite functional value, raises ValueError.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    batches = _segmentation(trace.n, None, M)
    M, n = batches.R, batches.n_eff
    if n // M < MIN_BATCH_LEN:
        raise ValueError(f"batch length {n // M} < {MIN_BATCH_LEN}; reduce M")
    (shift, c, ess, I), deviations = _deviations(trace, family, grid, g_name, batches)
    sup_stats = np.empty(M)
    for ids, dB, dI in deviations:
        dev = dB * np.exp(shift) if g_name is None else dI
        sup_stats[ids] = np.sqrt(n / M) * np.abs(dev).max(axis=1)
    if not np.all(np.isfinite(sup_stats)):
        raise ValueError(f"{np.count_nonzero(~np.isfinite(sup_stats))} of {M} batch "
                         "deviations are not finite")
    order = int(np.ceil((1.0 - alpha) * M))                    # 1-based index
    half_width = float(np.sort(sup_stats)[order - 1] / np.sqrt(n))
    return BandReport(grid=grid, center=c * np.exp(shift) if g_name is None else I[0],
                      half_width=half_width, M=M, alpha=alpha, sup_stats=sup_stats,
                      n=n, target="B" if g_name is None else f"I:{g_name}", ess=ess)
