"""The benchmark's workloads: inputs, commands and output checks.

Every workload takes its seed from ``--seed``.  The seed goes into the
configs as ``[run] seed``, which seeds every chain, so the same seed gives
byte-identical inputs and outputs.  The data files are synthesized by
``priorscan synth`` during set-up from fixed data seeds (see each Params).
The program receives only the generated config and data files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ess import batch_means_var, read_trace

OUT = "out"            # output directory of every command, under the run dir
RELIABLE_ESS = 50.0    # grid points below this weight ESS are not checked
CHI2_2DF_1E4 = -2.0 * math.log(1e-4)   # chi-square(2) quantile at 1 - 1e-4


@dataclass(frozen=True)
class Command:
    name: str                   # priorscan sub-command
    config: str                 # config file in the run directory
    outputs: tuple[str, ...]    # files it must write under OUT


@dataclass(frozen=True)
class Params:
    """Everything that defines a workload's analysis; configs are rendered
    from it, and the traced run drives the library with the same values."""

    model: str
    h1: tuple[float, float]
    rect_lower: tuple[float, float]
    rect_upper: tuple[float, float]
    grid: int
    functional: str
    target: dict                        # {"R": ...} or {"n": ...}
    model_lines: tuple[str, ...] = ()   # extra [model] entries
    synth: tuple[str, ...] = ()         # [synth] entries; empty: no inputs
    synth_seed: int = 0                 # data seed of priorscan synth
    st_n: int = 0                       # st-run length; 0: no st-run
    st_zetas: tuple[float, ...] = ()


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class Workload:
    name: str
    params: Params
    commands: tuple[Command, ...]
    check: Callable[[Path, "Params", dict], list[Check]]
    why: str


def _nums(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def render_configs(p: Params, seed: int) -> dict[str, str]:
    """Config files (name -> text) for one seed."""
    (key, value), = p.target.items()
    run = ["[run]", f"model = {p.model}", f"seed = {seed}", f"out = {OUT}"]
    hyper = ["[hyper]", f"rect_lower = {_nums(p.rect_lower)}",
             f"rect_upper = {_nums(p.rect_upper)}", f"h1 = {_nums(p.h1)}",
             f"grid = {p.grid}"]
    tail = ["[model]", *p.model_lines, *hyper,
            "[inference]", "alpha = 0.05", f"functional = {p.functional}"]
    configs = {"run.ini": "\n".join([*run, f"{key} = {value}", *tail]) + "\n"}
    if p.st_n:
        configs["st.ini"] = "\n".join(
            [*run, f"n = {p.st_n}", *tail, "[st]", "anchors = lattice:3x3",
             f"zetas = {_nums(p.st_zetas)}"]) + "\n"
    if p.synth:
        configs["synth.ini"] = "\n".join(
            ["[run]", f"model = {p.model}", f"seed = {p.synth_seed}",
             "out = inputs", "[synth]", *p.synth]) + "\n"
    return configs


# ------------------------------------------------------------------
# output parsing
# ------------------------------------------------------------------

def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """A priorscan CSV: '# config_sha256=...' line, header, numeric rows."""
    lines = [ln for ln in path.read_text().splitlines()
             if ln.strip() and not ln.startswith("#")]
    return lines[0].split(","), np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def parse_output(path: Path):
    """Parse one output file; raises when it is malformed."""
    if path.name.endswith("trace.txt"):
        return read_trace(path)
    if path.suffix == ".json":
        return json.loads(path.read_text())
    if path.suffix == ".csv":
        header, body = read_csv(path)
        if body.shape[1] != len(header) or not body.size:
            raise ValueError(f"{path.name}: {body.shape} rows under {len(header)} columns")
        return body
    raise ValueError(f"no parser for {path.name}")


# ------------------------------------------------------------------
# checks (run after each pass, outside the timed window)
# ------------------------------------------------------------------

def _within_se(name: str, est: np.ndarray, truth: np.ndarray, z: float,
               need: float, min_ess: float = RELIABLE_ESS) -> Check:
    """Share of grid points with ESS >= min_ess (columns value, se, ess last)
    whose estimate lies within z SE of the truth.  Where SE is 0 (the h1 row
    of B), the estimate must equal the truth exactly."""
    value, se, ess_col = est[:, -3], est[:, -2], est[:, -1]
    keep = ess_col >= min_ess
    err = np.abs(value - truth)[keep]
    ok_pts = (err <= z * se[keep]) | (err == 0.0)
    share = float(ok_pts.mean()) if keep.any() else 0.0
    return Check(name, share >= need,
                 f"{share:.3f} of {int(keep.sum())} points with ESS >= "
                 f"{min_ess:g} within {z:g} SE (need {need:g})")


def check_toy(outdir: Path, p: Params, parsed: dict) -> list[Check]:
    from priorscan.models.normal_hier import NormalHierModel
    from priorscan.prior_family import HyperRect

    model = NormalHierModel(y=np.array([-2.0, -1.0, 0.0, 1.0, 2.0]),
                            rect=HyperRect(lower=p.rect_lower, upper=p.rect_upper))
    surf = parsed["surface.csv"]
    func = parsed[f"functional_{p.functional}.csv"]
    truth_B = np.array([model.oracle_B(h, p.h1) for h in surf[:, :2]])
    truth_I = np.array([model.oracle_I_theta1(h) for h in func[:, :2]])
    rep = parsed["argmax.json"]
    d = model.oracle_argmax() - np.asarray(rep["h_n"])
    stat = rep["R"] * float(d @ np.linalg.solve(np.asarray(rep["v_n_sq"]), d))
    return [
        _within_se("surface_oracle_B", surf, truth_B, 4.0, 0.95),
        _within_se("functional_oracle_I", func, truth_I, 4.0, 0.95),
        Check("argmax_oracle_in_ellipse", stat <= CHI2_2DF_1E4,
              f"R d'v^-1 d = {stat:.3f} for the oracle argmax "
              f"(need <= {CHI2_2DF_1E4:.2f}, the 1 - 1e-4 quantile)"),
    ]


def exact_vs_B(model, points: np.ndarray, h1) -> np.ndarray:
    """m(h)/m(h1) by enumerating all 2^q inclusion vectors."""
    from scipy.special import logsumexp

    q = model.q
    gammas = ((np.arange(2 ** q)[:, None] >> np.arange(q)) & 1).astype(bool)

    def log_m(h):
        return logsumexp([model.log_collapsed(g, h) for g in gammas])

    log_m1 = log_m(h1)
    return np.array([math.exp(log_m(h) - log_m1) for h in points])


def check_vs(outdir: Path, p: Params, parsed: dict) -> list[Check]:
    """B_n at 5 grid points, spread over those with weight ESS >= n/5, against
    exact enumeration.

    Points are not taken down to ESS 50: toward w = 0.95 the chain rarely
    visits the large models that dominate m(h), and at points with ESS
    65-500 B_n fell short of the exact value by up to 39 batch-means SE
    (seed 43), with nothing flagged.  That is the unflagged low-ESS defect
    of ROADMAP item 4.  It is not gated here, so that a correct run passes,
    but the detail line reports the worst z over 5 points with
    50 <= ESS < n/5 in every run, so it stays in view.
    """
    from priorscan.models.varsel import VSModel

    _, data = read_csv(outdir.parent / "inputs" / "regression.csv")
    model = VSModel(y=data[:, 0], X=data[:, 1:])
    surf = parsed["surface.csv"]
    min_ess = p.target["n"] / 5

    def spread_over(mask):
        idx = np.flatnonzero(mask)
        return surf[idx[np.linspace(0, idx.size - 1, 5).round().astype(int)]
                    if idx.size else idx]

    rows = spread_over(surf[:, -1] >= min_ess)
    check = _within_se("surface_exact_enumeration", rows,
                       exact_vs_B(model, rows[:, :2], p.h1), 5.0, 1.0, min_ess)
    low = spread_over((surf[:, -1] >= RELIABLE_ESS) & (surf[:, -1] < min_ess))
    if low.size:
        z = np.abs(low[:, 2] - exact_vs_B(model, low[:, :2], p.h1)) / low[:, 3]
        check = Check(check.name, check.ok,
                      f"{check.detail}; not gated: max {z.max():.1f} SE off at "
                      f"5 points with {RELIABLE_ESS:g} <= ESS < {min_ess:g}")
    return [check]


def check_lda(outdir: Path, p: Params, parsed: dict) -> list[Check]:
    surf = parsed["surface.csv"]
    st_surf = parsed["st_surface.csv"]
    at_h1 = np.all(surf[:, :2] == np.asarray(p.h1), axis=1)
    occ_ok, occ_detail = _occupancy_window(parsed)
    return [
        Check("surface_B_h1_is_1", bool(at_h1.sum() == 1 and surf[at_h1, 2][0] == 1.0),
              f"B_n(h1) = {surf[at_h1, 2].tolist()} (need exactly [1.0])"),
        Check("surfaces_finite",
              bool(np.all(np.isfinite(surf)) and np.all(np.isfinite(st_surf))),
              "every value of surface.csv and st_surface.csv is finite"),
        Check("st_occupancy_window", occ_ok, occ_detail),
    ]


def _occupancy_window(parsed: dict) -> tuple[bool, str]:
    """Label occupancies within [0.5/m, 2/m], widened by 4 batch-means SE.

    A short ST run cannot pin occupancies to the window itself: on the
    lda-st corpus, runs of 3000 steps left it in about 2 of 7 seeds.  The
    widening keeps the check on what a correct program guarantees; a label
    the chain never reaches still fails, since its occupancy and SE are 0.
    """
    occ = parsed["occupancy.csv"][:, -1]
    m = occ.size
    header, body = parsed["st_trace.txt"]
    labels = body[:, header["stat_dim"] + header["functionals"].index("_label")]
    se = np.array([math.sqrt(batch_means_var(labels == j) / labels.size)
                   for j in range(m)])
    lo, hi = 0.5 / m - 4.0 * se, 2.0 / m + 4.0 * se
    ok = bool(np.all((occ >= lo) & (occ <= hi)) and np.all(occ > 0.0))
    return ok, (f"occupancy x m in [{occ.min() * m:.3f}, {occ.max() * m:.3f}], "
                f"window [0.5, 2] widened by 4 SE (max SE x m {se.max() * m:.3f})")


# ------------------------------------------------------------------
# the workloads
# ------------------------------------------------------------------

SURFACE = ("surface.csv", "trace.txt")
ARGMAX = ("argmax.json", "ellipse.csv")
BAND = ("band.csv", "band.json")


def _commands(p: Params, band: bool = True) -> tuple[Command, ...]:
    surface = SURFACE + (f"functional_{p.functional}.csv",)
    cmds = [Command("surface", "run.ini", surface),
            Command("argmax", "run.ini", ARGMAX)]
    if band:
        cmds.append(Command("band", "run.ini", BAND))
    if p.st_n:
        cmds.append(Command("st-run", "st.ini",
                            ("occupancy.csv", "st_trace.txt", "st_surface.csv")))
    return tuple(cmds)


TOY = Params(
    model="normal-hier", h1=(0.0, 1.0), rect_lower=(-1.0, 0.3),
    rect_upper=(1.0, 3.0), grid=21, functional="theta1", target={"n": 90_000},
    model_lines=("y = -2, -1, 0, 1, 2", "kernel = mh"))

VS = Params(
    model="vs-bernoulli-zellner", h1=(0.3, 60.0), rect_lower=(0.05, 1.0),
    rect_upper=(0.95, 400.0), grid=21, functional="qgamma", target={"n": 10_000},
    model_lines=("data = inputs/regression.csv",),
    # one fixed regression, so every seed times the same posterior and only
    # the chains change with --seed; this one keeps the argmax interior
    synth=("kind = regression", "m = 100", "q = 12"), synth_seed=3)

# ST zetas: `priorscan st-tune` once, on the corpus below, with [run] seed = 5,
# [st] anchors = lattice:3x3, rounds = 10, steps_per_round = 3000 over the
# rectangle below (it converged, max/min occupancy 1.32).  They are workload
# constants so that st-tune, which may exit 1 on non-convergence, stays out
# of the timing.
LDA = Params(
    model="lda-dirichlet", h1=(1.0, 1.0), rect_lower=(0.5, 0.5),
    rect_upper=(2.0, 2.0), grid=7, functional="close_0_1", target={"n": 600},
    model_lines=("corpus = inputs/corpus.txt", "K = 2"),
    # the corpus of acceptance criterion 10, fixed so the zetas stay tuned
    synth=("kind = corpus", "D = 6", "V = 12", "K = 2", "n_d = 30"),
    synth_seed=10, st_n=2000,
    st_zetas=(14.228481921503855, 4.275954636247146, 0.9954231050565729,
              0.2866594514671936, 1.26384121083366, 7.668843000280752,
              1.1311910804321414, 0.151645963231309, 0.034645367824765246))

WORKLOADS = {w.name: w for w in (
    Workload(
        name="toy-regen", params=TOY, commands=_commands(TOY), check=check_toy,
        why=(
            # loads: chain_runtime tours, estimators and band over dense
            # (n, G) arrays (n = 90k, G = 441: ~320 MB each, above the
            # 300 MB L3), argmax_inference's full-trace Nelder-Mead.  Peak RSS
            # ~2.0 GB in argmax.  Bypasses batch-means inference and serial
            # tempering.  A streaming core, gradient argmax or faster trace
            # writer must show here; an LDA kernel change predicts no change.
            # A fixed n = 90k rather than R = 2000 tours: so that two passes
            # (~24 s each) fit in one run, and because with R fixed each
            # command's n, and with it its time and RSS, varied by ~5%
            # between seeds.  The CLI still takes the tour path: it segments
            # tours at the regeneration flags and drops the last, partial
            # tour.
            "regeneration/tour path with closed-form oracles; dense (n, G) "
            "reweighting and the full-trace argmax dominate")),
    Workload(
        name="vs-batch", params=VS, commands=_commands(VS), check=check_vs,
        why=(
            # loads: the pure-Python VS Gibbs scan (most of every command) and
            # batch_argmax_cov's ~100 small maximize_surface calls.  Grid
            # arrays are small (~35 MB).  Bypasses tours and serial tempering.
            # Predicted no change from a streaming core; a gradient argmax
            # shows in argmax_s only.  Not in BENCHMARK.json: the run-time
            # budget holds two workloads at runs long enough to be steady,
            # and lda-st also takes the batch-means path.  Run it by name.
            "batch-means path, no regeneration; the pure-Python Gibbs scan "
            "and batch argmax covariance dominate, grid arrays are small")),
    Workload(
        name="lda-st", params=LDA, commands=_commands(LDA, band=False), check=check_lda,
        why=(
            # loads: the pure-Python collapsed LDA sweep (~5 ms) in every
            # command, serial_tempering and MixtureRatio in st-run.  The
            # estimators are negligible, so a streaming core or gradient
            # argmax predicts no change; a blocked Gibbs kernel shows in
            # every *_s here.  Only workload with serial tempering.  argmax
            # runs too, as BENCHMARK.json's batch-means path
            # (batch_argmax_cov); in most seeds it lands on the rectangle's
            # edge and exits 1 (a warning).  band does not run, and n is 600,
            # so that two passes (~25 s each) fit in one run; st-run keeps
            # n = 2000, as runs of 1000 steps left the occupancy window.
            "collapsed LDA sweep dominates every command; only workload "
            "running serial tempering (st-run) and MixtureRatio")),
)}
