"""Chain traces, kernel simulation, the models' chains, and tour statistics.

A :class:`ChainTrace` stores, per draw, the sufficient statistic ``T_i``, the
recorded functional values ``g_i`` and a regeneration flag ``delta_i`` — never
full states.  Tours are the segments between regenerations; per-tour sums of
``f_h`` and its hyperparameter derivatives feed every downstream variance
formula.  :class:`ModelChain` is the one chain of every model that is
``start`` plus ``sweep`` at h: at one hyperparameter the kernel that
:func:`simulate` runs, and over m anchors the per-anchor moves of serial
tempering.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Protocol, Sequence

import numpy as np

from priorscan.prior_family import ExpFamilyRatio

__all__ = [
    "ChainTrace",
    "TourIndex",
    "TourSums",
    "Kernel",
    "ModelChain",
    "simulate",
    "log_regen_prob",
    "segment_tours",
    "tour_sums",
    "save_trace",
    "load_trace",
]

TRACE_FORMAT_VERSION = 1
# Rows per chunk of the trace writer, so that writing holds a few hundred kB
# of rows and text whatever the trace length.
WRITE_ROWS = 8192


# ------------------------------------------------------------------
# trace container + serialization
# ------------------------------------------------------------------

@dataclass
class ChainTrace:
    """Per-draw record of sufficient statistics, functionals and regen flags.

    ``ends_at_regen`` is true when the draw after the last stored one would
    have been a regeneration (the trace ends exactly at a tour boundary);
    the toy's iid draws and its MH chain run for R tours guarantee this,
    :func:`simulate` does not.
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

    Floats use %.17g, which round-trips IEEE doubles bit-exactly.  The body
    is written in chunks of :data:`WRITE_ROWS` rows; in each, every run of
    rows with equal bits (so -0.0 stays apart from 0.0) is formatted once and
    written once per draw it covers.
    """
    from priorscan.estimators import _runs  # imports this module

    names = trace.functional_names
    header = {
        "version": TRACE_FORMAT_VERSION,
        "n": trace.n,
        "stat_dim": trace.stat_dim,
        "functionals": names,
        "ends_at_regen": trace.ends_at_regen,
        "meta": trace.meta,
    }
    cols = [trace.Tmat, *(trace.g[name] for name in names), trace.delta]
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for a in range(0, trace.n, WRITE_ROWS):
            body = np.column_stack([c[a:a + WRITE_ROWS] for c in cols])
            bits, _, w, _ = _runs(body.view(np.int64))
            row = "%.17g," * (body.shape[1] - 1) + "%d\n"
            text = row * w.size % tuple(bits.view(float).ravel().tolist())
            fh.writelines(map(str.__mul__, text.splitlines(True), w.astype(int).tolist()))


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


class ModelChain:
    """A model's chain at the rows of ``anchors``: with one anchor the
    :class:`Kernel` at that h, with m the per-anchor model that serial
    tempering moves by ``anchor_step(j, state, rng)``, a sweep at anchor j.

    ``model`` supplies ``KERNEL_ID`` and four methods: ``start(rng, h)`` (a
    first state, its first sweep at h included), ``sweep(state, h, rng)``
    (one transition leaving the posterior at h invariant), ``suffstat(state)``
    (the prior's statistic T) and ``observe(state)`` (T and the recorded
    functionals).  ``start`` here sweeps ``burn - 1`` more times at the
    first anchor.
    """

    has_regen = False

    def __init__(self, model, anchors, burn: int = 0):
        self.model = model
        self.anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
        self.burn = burn
        self.kernel_id = model.KERNEL_ID

    def start(self, rng):
        state = self.model.start(rng, self.anchors[0])
        for _ in range(self.burn - 1):
            state = self.model.sweep(state, self.anchors[0], rng)
        return state

    def step(self, state, rng):
        return self.model.sweep(state, self.anchors[0], rng), False

    def anchor_step(self, j: int, state, rng):
        return self.model.sweep(state, self.anchors[j], rng)

    def suffstat(self, state) -> np.ndarray:
        return self.model.suffstat(state)

    def observe(self, state):
        return self.model.observe(state)


def log_regen_prob(lw_x, lw_y, log_c):
    """Log regeneration probability on an accepted independence-MH move x -> y.

    ``lw`` is the log target/proposal density ratio, ``log_c`` the log
    splitting constant; vectorized over chains.  From the minorization with
    s(x) proportional to min(1, c/w_x) and regeneration measure proportional
    to proposal * min(w, c).
    """
    return np.minimum(0.0, np.minimum(np.maximum(lw_x, lw_y) - log_c,
                                      log_c - np.minimum(lw_x, lw_y)))


def simulate(kernel: Kernel, *, n: int, seed=None,
             rng: np.random.Generator | None = None,
             meta: Mapping | None = None) -> ChainTrace:
    """Run a kernel for ``n`` draws, the start included.

    The regeneration flags are the kernel's; the trace need not end at a tour
    boundary, so :func:`segment_tours` drops a final partial tour.
    """
    if rng is None:
        rng = np.random.default_rng(seed)

    T_rows: list[np.ndarray] = []
    g_rows: dict[str, list[float]] = {}
    deltas: list[bool] = []

    state = kernel.start(rng)
    delta = True  # start is a draw from the regeneration measure
    while True:
        T, g = kernel.observe(state)
        T_rows.append(np.asarray(T, dtype=float))
        for name, val in g.items():
            g_rows.setdefault(name, []).append(float(val))
        deltas.append(delta)
        if len(T_rows) >= n:
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
    )


# ------------------------------------------------------------------
# tours
# ------------------------------------------------------------------

@dataclass(frozen=True)
class TourIndex:
    """Regeneration boundaries tau_0 < ... < tau_R, 1-based, tau_R = n_eff + 1."""

    boundaries: np.ndarray  # (R + 1,) ints

    @property
    def n_eff(self) -> int:
        """The draws the segments cover: the trace without any partial final tour."""
        return int(self.boundaries[-1]) - 1

    @property
    def R(self) -> int:
        return self.boundaries.size - 1

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.boundaries)

    @property
    def starts0(self) -> np.ndarray:
        """0-based start index of each tour: where the segment sums start a segment."""
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
    return TourIndex(boundaries=boundaries.astype(int))


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
    the per-tour sums of f, of g f and, with derivatives, of f D and f D D^T
    (D = T - T0, T0 the first row), all over the runs of equal rows of the
    trace (broken at the tour starts) weighted by their lengths;
    ``family.score_sums`` turns the last two into gradS and hessS.
    """
    from priorscan.estimators import _grid_sums, _runs, _segment_sums  # imports this module

    h = np.asarray(h, dtype=float)
    names = trace.functional_names if functionals is None else list(functionals)
    g = [trace.functional(name)[:tours.n_eff, None] for name in names]
    Tmat, G, w, starts = _runs(trace.Tmat[:tours.n_eff], np.hstack(g) if g else None,
                               tours.starts0)
    T0 = Tmat[0] if with_derivs else None
    shift = _grid_sums(family, h[None, :], Tmat, w=w)[0]
    P = np.concatenate([block for _, block in _segment_sums(family, h[None, :], Tmat, shift,
                                                            starts, G, w, T0)])[..., 0]
    S, m, d = P[:, 0], 1 + len(names), Tmat.shape[1]
    gradS, hessS = (family.score_sums(h, T0, S, P[:, m:m + d],
                                      P[:, m + d:].reshape(-1, d, d))
                    if with_derivs else (None, None))
    return TourSums(h=h, N=tours.lengths.astype(float), S=S,
                    T={name: P[:, 1 + j] for j, name in enumerate(names)},
                    gradS=gradS, hessS=hessS, log_scale=float(shift[0]))
