"""Chain traces, regenerative (split-chain) simulation, and tour statistics.

A :class:`ChainTrace` stores, per draw, the sufficient statistic ``T_i``, the
recorded functional values ``g_i`` and a regeneration flag ``delta_i`` — never
full states.  Tours are the segments between regenerations; per-tour sums of
``f_h`` and its hyperparameter derivatives feed every downstream variance
formula.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Mapping, Protocol, Sequence

import numpy as np

from priorscan.prior_family import ExpFamilyRatio

__all__ = [
    "ChainTrace",
    "TourIndex",
    "TourSums",
    "MinorizationPair",
    "Kernel",
    "IIDKernel",
    "simulate",
    "split_step",
    "indep_mh_regen_prob",
    "log_regen_prob",
    "segment_tours",
    "tour_sums",
    "save_trace",
    "load_trace",
]

TRACE_FORMAT_VERSION = 1


# ------------------------------------------------------------------
# trace container + serialization
# ------------------------------------------------------------------

@dataclass
class ChainTrace:
    """Per-draw record of sufficient statistics, functionals and regen flags.

    ``ends_at_regen`` is true when the draw after the last stored one would
    have been a regeneration (the trace ends exactly at a tour boundary);
    R-target simulation guarantees this, n-target simulation does not.
    """

    Tmat: np.ndarray                 # (n, stat_dim)
    g: dict[str, np.ndarray]         # each (n,)
    delta: np.ndarray                # (n,) bool
    meta: dict = field(default_factory=dict)
    ends_at_regen: bool = False

    def __post_init__(self):
        self.Tmat = np.atleast_2d(np.asarray(self.Tmat, dtype=float))
        self.delta = np.asarray(self.delta, dtype=bool)
        self.g = {k: np.asarray(v, dtype=float) for k, v in self.g.items()}
        n = self.Tmat.shape[0]
        if self.delta.shape != (n,):
            raise ValueError("delta length must match number of draws")
        for name, v in self.g.items():
            if v.shape != (n,):
                raise ValueError(f"functional {name!r} length must match draws")
        if n and not self.delta[0]:
            raise ValueError("delta[0] must be set (chain starts from the regeneration measure)")

    @property
    def n(self) -> int:
        return self.Tmat.shape[0]

    @property
    def stat_dim(self) -> int:
        return self.Tmat.shape[1]

    @property
    def functional_names(self) -> list[str]:
        return list(self.g)

    def functional(self, name: str) -> np.ndarray:
        try:
            return self.g[name]
        except KeyError:
            raise KeyError(f"unknown functional {name!r}; "
                           f"recorded: {self.functional_names}") from None


def save_trace(trace: ChainTrace, path) -> None:
    """Write a trace as text: one JSON header line, then one row per draw.

    Floats use %.17g, which round-trips IEEE doubles bit-exactly.
    """
    names = trace.functional_names
    header = {
        "version": TRACE_FORMAT_VERSION,
        "n": trace.n,
        "stat_dim": trace.stat_dim,
        "functionals": names,
        "ends_at_regen": trace.ends_at_regen,
        "meta": trace.meta,
    }
    body = np.column_stack([trace.Tmat, *(trace.g[name] for name in names),
                            trace.delta])
    row = "%.17g," * (body.shape[1] - 1) + "%d\n"
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        fh.write(row * trace.n % tuple(body.ravel().tolist()))


def load_trace(path) -> ChainTrace:
    with open(path) as fh:
        header = json.loads(fh.readline())
        if header.get("version") != TRACE_FORMAT_VERSION:
            raise ValueError(f"unsupported trace version {header.get('version')!r}")
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    stat_dim = header["stat_dim"]
    names = header["functionals"]
    Tmat = body[:, :stat_dim]
    g = {name: body[:, stat_dim + j] for j, name in enumerate(names)}
    delta = body[:, stat_dim + len(names)].astype(bool)
    return ChainTrace(Tmat=Tmat, g=g, delta=delta, meta=header.get("meta", {}),
                      ends_at_regen=header.get("ends_at_regen", False))


# ------------------------------------------------------------------
# kernels and simulation
# ------------------------------------------------------------------

class Kernel(Protocol):
    """Markov kernel with optional built-in regeneration marks.

    ``step`` returns the next state and whether that state was drawn from the
    regeneration measure.  Kernels without regeneration info set
    ``has_regen = False`` and always return delta = False.
    """

    has_regen: bool
    kernel_id: str

    def start(self, rng: np.random.Generator): ...
    def step(self, state, rng: np.random.Generator): ...
    def observe(self, state) -> tuple[np.ndarray, dict[str, float]]: ...


class IIDKernel:
    """Adapter turning an iid sampler into a kernel that regenerates every step."""

    has_regen = True

    def __init__(self, draw: Callable, observe: Callable, kernel_id: str = "iid"):
        self._draw = draw
        self._observe = observe
        self.kernel_id = kernel_id

    def start(self, rng):
        return self._draw(rng)

    def step(self, state, rng):
        return self._draw(rng), True

    def observe(self, state):
        return self._observe(state)


@dataclass(frozen=True)
class MinorizationPair:
    """Minorization K_theta(A) >= s(theta) Q(A) with the residual kernel.

    ``residual`` samples G_theta = (K_theta - s(theta) Q) / (1 - s(theta)).
    """

    s: Callable[[object], float]
    Q: Callable[[np.random.Generator], object]
    residual: Callable[[object, np.random.Generator], object]


def split_step(state, pair: MinorizationPair, rng: np.random.Generator):
    """One step of the split chain: regenerate from Q with prob s(state)."""
    p = float(pair.s(state))
    if not 0.0 <= p < 1.0:
        raise ValueError(f"minorization probability s={p} outside [0, 1)")
    if rng.random() < p:
        return pair.Q(rng), True
    return pair.residual(state, rng), False


def log_regen_prob(lw_x, lw_y, log_c):
    """Log regeneration probability on an accepted independence-MH move x -> y.

    ``lw`` is the log target/proposal density ratio, ``log_c`` the log
    splitting constant; vectorized over chains.  From the minorization with
    s(x) proportional to min(1, c/w_x) and regeneration measure proportional
    to proposal * min(w, c).
    """
    return np.minimum(0.0, np.minimum(np.maximum(lw_x, lw_y) - log_c,
                                      log_c - np.minimum(lw_x, lw_y)))


def indep_mh_regen_prob(w_x: float, w_y: float, c: float) -> float:
    """:func:`log_regen_prob` on the linear scale, for positive ``w`` and ``c``."""
    if not (w_x > 0 and w_y > 0 and c > 0):
        raise ValueError("w_x, w_y, c must all be positive")
    return float(np.exp(log_regen_prob(np.log(w_x), np.log(w_y), np.log(c))))


def simulate(kernel: Kernel, *, n: int | None = None, R: int | None = None,
             seed=None, rng: np.random.Generator | None = None,
             meta: Mapping | None = None) -> ChainTrace:
    """Run a kernel for a fixed number of steps or complete tours.

    Exactly one of ``n`` (draw count) and ``R`` (complete-tour count) must be
    given.  With ``R``, the chain runs until the regeneration opening tour
    R+1 and drops that draw, so the trace ends exactly at a tour boundary.
    """
    if (n is None) == (R is None):
        raise ValueError("specify exactly one of n= and R=")
    if R is not None and not getattr(kernel, "has_regen", False):
        raise ValueError("kernel has no regeneration info; R-target unavailable "
                         "(use n= and batching-based inference)")
    if rng is None:
        rng = np.random.default_rng(seed)

    T_rows: list[np.ndarray] = []
    g_rows: dict[str, list[float]] = {}
    deltas: list[bool] = []

    state = kernel.start(rng)
    delta = True  # start is a draw from the regeneration measure
    flags_stored = 0
    while True:
        if R is not None and delta and flags_stored >= R:
            ends_at_regen = True
            break
        if delta:
            flags_stored += 1
        T, g = kernel.observe(state)
        T_rows.append(np.asarray(T, dtype=float))
        for name, val in g.items():
            g_rows.setdefault(name, []).append(float(val))
        deltas.append(delta)
        if n is not None and len(T_rows) >= n:
            ends_at_regen = False
            break
        state, delta = kernel.step(state, rng)

    info = {"kernel": getattr(kernel, "kernel_id", "unknown"), "n": len(T_rows)}
    if meta:
        info.update(meta)
    return ChainTrace(
        Tmat=np.stack(T_rows),
        g={k: np.asarray(v) for k, v in g_rows.items()},
        delta=np.asarray(deltas, dtype=bool),
        meta=info,
        ends_at_regen=ends_at_regen,
    )


# ------------------------------------------------------------------
# tours
# ------------------------------------------------------------------

@dataclass(frozen=True)
class TourIndex:
    """Regeneration boundaries tau_0 < ... < tau_R, 1-based, tau_R = n_eff + 1.

    ``n_eff`` is the trace length after dropping any partial final tour.
    """

    boundaries: np.ndarray  # (R + 1,) ints
    n_eff: int

    @property
    def R(self) -> int:
        return self.boundaries.size - 1

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.boundaries)

    @property
    def starts0(self) -> np.ndarray:
        """0-based start index of each tour, for reduceat-style segment sums."""
        return self.boundaries[:-1] - 1


def segment_tours(trace: ChainTrace) -> TourIndex:
    """Tour boundaries from the trace's regeneration flags.

    If the trace does not end at a regeneration, the final partial tour is
    dropped (estimators are ratios over complete tours).
    """
    flags = np.flatnonzero(trace.delta) + 1  # 1-based positions
    n_complete_flags = flags.size if trace.ends_at_regen else flags.size - 1
    if n_complete_flags < 1:
        raise ValueError("need at least 2 regeneration flags (or one flag in a "
                         "trace ending at a regeneration) to form a complete tour")
    if trace.ends_at_regen:
        boundaries = np.append(flags, trace.n + 1)
    else:
        boundaries = flags
    return TourIndex(boundaries=boundaries.astype(int), n_eff=int(boundaries[-1] - 1))


@dataclass(frozen=True)
class TourSums:
    """Per-tour sums of f_h, g * f_h and the h-derivatives of f_h.

    All sums carry a common log-scale shift: the stored values are the true
    sums times ``exp(-log_scale)``.  Ratios of sums (B-ratios, I estimates,
    sandwich variances) are scale-invariant; absolute quantities must be
    multiplied back by ``exp(log_scale)``.
    """

    h: np.ndarray
    N: np.ndarray                        # (R,) tour lengths
    S: np.ndarray                        # (R,)
    T: dict[str, np.ndarray]             # name -> (R,)
    gradS: np.ndarray | None             # (R, k)
    hessS: np.ndarray | None             # (R, k, k)
    log_scale: float

    @property
    def R(self) -> int:
        return self.N.size

    @property
    def n(self) -> int:
        return int(self.N.sum())


def tour_sums(trace: ChainTrace, tours: TourIndex, family: ExpFamilyRatio, h,
              functionals: Sequence[str] | None = None,
              with_derivs: bool = True) -> TourSums:
    """Per-tour sums S_r, T_r and (optionally) grad/Hessian sums at ``h``.

    The grid passes of :mod:`priorscan.estimators` at the one-point grid
    ``h`` give the shift recorded in ``log_scale`` (see :class:`TourSums`) and
    the per-tour sums of f, of g f and of f times the per-draw columns
    u = grad log f and u u^T + hess log f.
    """
    from priorscan.estimators import _grid_sums, _segment_sums  # imports this module

    h = np.asarray(h, dtype=float)
    names = trace.functional_names if functionals is None else list(functionals)
    Tmat, k = trace.Tmat[:tours.n_eff], h.size
    cols = [trace.functional(name)[:tours.n_eff, None] for name in names]
    if with_derivs:
        u = family.grad_log_f(h, Tmat)                                   # (n, k)
        uu = u[:, :, None] * u[:, None, :] + family.hess_log_f(h, Tmat)  # (n, k, k)
        cols += [u, uu.reshape(-1, k * k)]
    shift = _grid_sums(family, h[None, :], Tmat)[0]
    x = np.concatenate([x for _, x in _segment_sums(
        family, h[None, :], Tmat, shift, tours.starts0,
        np.hstack(cols) if cols else None)])[:, :, 0]
    m = len(names)
    return TourSums(h=h, N=tours.lengths.astype(float), S=x[:, 0],
                    T={name: x[:, 1 + j] for j, name in enumerate(names)},
                    gradS=x[:, 1 + m:1 + m + k] if with_derivs else None,
                    hessS=x[:, 1 + m + k:].reshape(-1, k, k) if with_derivs else None,
                    log_scale=float(shift[0]))
