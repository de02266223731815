"""Serial tempering: one chain over (label, state) mixing posteriors at anchors.

The invariant distribution is a mixture over anchor hyperparameters h_1..h_m
with tuning constants zeta controlling label occupancy; replacing the
single-chain denominator by the mixture density keeps every downstream
estimator formula unchanged while stabilizing weights across all of the
rectangle.  The state moves by the model's
:class:`~priorscan.chain_runtime.ModelChain` over the anchors, a sweep at the
current label's anchor, so every model with ``start`` and ``sweep`` at h runs
here.  Uncertainty for serial-tempering traces uses batching (no
regeneration construction is attempted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from priorscan.chain_runtime import ChainTrace, ModelChain, simulate
from priorscan.estimators import _grid_sums
from priorscan.prior_family import ExpFamilyRatio, ExpFamilySpec, HyperRect

__all__ = [
    "STGrid",
    "MixtureRatio",
    "lattice_anchors",
    "lattice_neighbours",
    "st_step",
    "run_st",
    "tune_zeta",
    "STKernel",
    "LABEL_FUNCTIONAL",
]

LABEL_FUNCTIONAL = "_label"
# tune_zeta stops at the first round whose max/min label occupancy is at most this
OCCUPANCY_RATIO_TARGET = 2.0


@dataclass(frozen=True)
class STGrid:
    """Anchor hyperparameters with tuning constants, label moves and
    occupancy diagnostics.

    A label move from anchor j proposes ``neighbours[j, i]`` with i uniform
    over the table's columns; j itself stands for a move that stays.  The
    default is the path ``[j + 1, j - 1]`` along the anchors' order.  The
    table must list k in row j as often as j in row k, so that the proposal
    is symmetric and cancels in the acceptance ratio.
    """

    anchors: np.ndarray                 # (m, k)
    zetas: np.ndarray                   # (m,)
    occupancies: np.ndarray | None = None
    neighbours: np.ndarray | None = None    # (m, width) labels

    def __post_init__(self):
        anchors = np.atleast_2d(np.asarray(self.anchors, dtype=float))
        zetas = np.asarray(self.zetas, dtype=float)
        m = anchors.shape[0]
        nb = lattice_neighbours(m) if self.neighbours is None else np.asarray(self.neighbours)
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "zetas", zetas)
        object.__setattr__(self, "neighbours", nb)
        if zetas.shape != (m,):
            raise ValueError("need one zeta per anchor")
        if not np.all(np.isfinite(zetas) & (zetas > 0)):
            raise ValueError("zetas must be finite and positive")
        if not (nb.ndim == 2 and nb.shape[0] == m and nb.shape[1] >= 1
                and nb.dtype.kind in "iu" and np.all((nb >= 0) & (nb < m))):
            raise ValueError("need a row of anchor labels per anchor as neighbours")
        pairs = np.bincount((np.arange(m)[:, None] * m + nb).ravel(),
                            minlength=m * m).reshape(m, m)
        if not np.array_equal(pairs, pairs.T):
            raise ValueError("neighbours must be symmetric: row j lists k as often "
                             "as row k lists j")

    @property
    def m(self) -> int:
        return self.anchors.shape[0]


def lattice_anchors(rect: HyperRect, shape) -> np.ndarray:
    """Uniform anchor lattice over the rectangle (k <= 2), snaked so that
    consecutive indices are lattice neighbors (nearest-neighbor label
    proposals stay local): the rows of ``rect.grid(shape)`` along the first
    axis, every odd row reversed."""
    if rect.k > 2:
        raise ValueError("anchor lattices supported for k <= 2; pass explicit anchors")
    rows = rect.grid(shape).reshape(np.atleast_1d(shape)[0], -1, rect.k)
    rows[1::2] = rows[1::2, ::-1]
    return rows.reshape(-1, rect.k)


def lattice_neighbours(shape) -> np.ndarray:
    """The :class:`STGrid` neighbour table of ``lattice_anchors(rect, shape)``:
    for each label, the labels one lattice step away, +1 then -1 along each
    axis in turn, and the label itself where the step leaves the lattice.
    For one axis it is the path table ``[j + 1, j - 1]``."""
    shape = tuple(int(size) for size in np.atleast_1d(shape))
    label = np.arange(math.prod(shape)).reshape(shape[0], -1)
    label[1::2] = label[1::2, ::-1]         # lattice_anchors' snake
    label = label.reshape(shape)
    at = np.indices(shape)
    moves = []
    for axis, size in enumerate(shape):
        for step in (1, -1):
            to = at.copy()
            to[axis] = np.clip(at[axis] + step, 0, size - 1)   # off the lattice: stay
            moves.append(label[tuple(to)])
    table = np.empty((label.size, len(moves)), dtype=np.intp)
    table[label.ravel()] = np.stack(moves, axis=-1).reshape(label.size, -1)
    return table


# ------------------------------------------------------------------
# the mixture ratio
# ------------------------------------------------------------------

class MixtureRatio(ExpFamilyRatio):
    """f_h = nu_h / (1/m) sum_j nu_{h_j}/zeta_j over the anchors of ``grid``."""

    def __init__(self, spec: ExpFamilySpec, grid: STGrid):
        super().__init__(spec, grid.anchors, grid.zetas)
        self.moves = grid.neighbours.tolist()     # st_step's proposals, as ints


# ------------------------------------------------------------------
# the serial-tempering chain
# ------------------------------------------------------------------

def st_step(state, ratio: MixtureRatio, model: ModelChain,
            rng: np.random.Generator, T=None):
    """One serial-tempering transition on (label, theta).

    ``ratio`` is the chain's :class:`MixtureRatio`, whose per-anchor table
    (omegas, As, log_zetas) gives log nu_{h_j}(theta)/zeta_j.  The label
    proposal is uniform over row j of its grid's neighbour table; a proposal
    of j itself leaves the label unchanged and draws no acceptance uniform
    (symmetric proposal, so it cancels in the acceptance ratio).  The
    likelihood cancels too, leaving only prior ratios through the sufficient
    statistic: ``T`` when the caller has it for this theta, else
    ``model.suffstat(theta)``.  Then theta moves by the kernel of the
    (possibly new) label.
    """
    j, theta = state
    if ratio.m > 1:
        moves = ratio.moves[j]
        jp = moves[int(rng.random() * len(moves))]
        if jp != j:
            if T is None:
                T = model.suffstat(theta)
            T = np.asarray(T, dtype=float)
            log_num = float(ratio.omegas[jp] @ T) - ratio.As[jp] - ratio.log_zetas[jp]
            log_den = float(ratio.omegas[j] @ T) - ratio.As[j] - ratio.log_zetas[j]
            if np.log(rng.random()) < log_num - log_den:
                j = jp
    theta = model.anchor_step(j, theta, rng)
    return (j, theta)


class STKernel:
    """Kernel over (label, theta); labels are recorded as a trace functional.

    ``step`` reuses the sufficient statistic that ``observe`` formed for the
    same state, so the chain computes it once per draw.
    """

    has_regen = False
    kernel_id = "serial-tempering"

    def __init__(self, model: ModelChain, spec: ExpFamilySpec, grid: STGrid):
        self.model = model
        self.spec = spec
        self.grid = grid
        self.ratio = MixtureRatio(spec, grid)
        self._observed = (None, None)       # (state, its T) of the last observe

    def start(self, rng):
        return (0, self.model.start(rng))

    def step(self, state, rng):
        seen, T = self._observed
        self._observed = (None, None)       # step moves theta in place
        return st_step(state, self.ratio, self.model, rng,
                       T if seen is state else None), False

    def observe(self, state):
        j, theta = state
        T, g = self.model.observe(theta)
        self._observed = (state, T)
        g = dict(g)
        g[LABEL_FUNCTIONAL] = float(j)
        return T, g


def occupancies(trace: ChainTrace, m: int) -> np.ndarray:
    labels = trace.functional(LABEL_FUNCTIONAL).astype(int)
    return np.bincount(labels, minlength=m) / labels.size


def run_st(model: ModelChain, spec: ExpFamilySpec, grid: STGrid, n: int,
           seed=None, rng=None, meta: dict | None = None) -> ChainTrace:
    """Run the serial-tempering chain for n steps; occupancies go in meta."""
    kernel = STKernel(model, spec, grid)
    info = dict(meta or {})
    info["st_anchors"] = grid.anchors.tolist()
    info["st_zetas"] = grid.zetas.tolist()
    trace = simulate(kernel, n=n, seed=seed, rng=rng, meta=info)
    trace.meta["st_occupancies"] = occupancies(trace, grid.m).tolist()
    return trace


def zetas_from_logs(log_z: np.ndarray) -> np.ndarray:
    """exp(log_z) up to a common factor, taken about the midpoint of its range:
    finite and positive for a span of up to ~1400 nats (float64 holds e^+-709),
    where centring on the mean underflows the lowest anchors first."""
    lo, hi = float(np.min(log_z)), float(np.max(log_z))
    with np.errstate(over="ignore", invalid="ignore"):
        zetas = np.exp(log_z - 0.5 * (lo + hi))
    if not np.all(np.isfinite(zetas) & (zetas > 0)):
        raise ValueError(f"log zetas span {hi - lo:.6g} nats, more than float64 holds")
    return zetas


def tune_zeta(model: ModelChain, spec: ExpFamilySpec, grid: STGrid, *,
              rounds: int = 10, steps_per_round: int = 5000,
              seed=None) -> tuple[STGrid, bool, list[float]]:
    """Iteratively adjust zeta toward uniform label occupancy.

    Stops when the max/min occupancy ratio over a tuning run is at most
    :data:`OCCUPANCY_RATIO_TARGET`; returns (tuned grid, converged flag, each
    round's max/min occupancy ratio).  After each round, zeta_j becomes the
    round's mixture-reweighted estimate of the normalizing constant at anchor
    j: a fixed-point iteration whose exact solution gives uniform occupancy,
    and which updates anchors the labels rarely visited.  An anchor the labels
    never visited keeps its zeta: its estimate rests on no draw near it and
    can run off by thousands of nats in a few rounds.
    """
    rng = np.random.default_rng(seed)
    floor = 1.0 / (2.0 * steps_per_round)   # occupancy of an unvisited anchor
    best = grid
    best_ratio = np.inf
    ratios = []
    for r in range(rounds):
        trace = run_st(model, spec, grid, n=steps_per_round, rng=rng)
        occ = np.maximum(occupancies(trace, grid.m), floor)     # a finite ratio
        ratio = occ.max() / occ.min()
        ratios.append(float(ratio))
        if ratio < best_ratio:
            best, best_ratio = replace(grid, occupancies=occ), ratio
        if ratio <= OCCUPANCY_RATIO_TARGET:
            return replace(grid, occupancies=occ), True, ratios
        if r + 1 < rounds:          # the last round's update would go unused
            shift, c, _, _ = _grid_sums(MixtureRatio(spec, grid), grid.anchors, trace.Tmat)
            log_z = np.where(occ == floor, np.log(grid.zetas), shift + np.log(c))
            grid = replace(grid, zetas=zetas_from_logs(log_z))
    return best, False, ratios
