"""Command-line orchestration: config parsing, seeding, and CSV/JSON emission.

Commands: surface, argmax, band, st-tune, st-run, synth, oracle-check; an
[st] section puts every command's chain on serial tempering (see run_chain).
Configuration is an INI file whose every key SCHEMA parses and checks;
all randomness flows from per-stream generators derived from (seed, stream
name), so identical configs produce byte-identical outputs.  Exit codes:
0 ok, 1 runtime warning (boundary argmax / tuning non-convergence /
oracle mismatch), 2 configuration error, 3 runtime error (an unreadable
input or output file, a numerically singular J_n of the argmax's sandwich
over tours or, without regeneration marks, batches, or a ValueError such as
a trace with fewer than 2 complete tours or a band whose batch deviations
are not finite because the functional holds a NaN or infinite value).
"""

from __future__ import annotations

import argparse
import configparser
import gc
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from priorscan.argmax_inference import (
    ArgmaxReport,
    _slice_trace,
    confidence_ellipse,
    hessian_Jn,
    maximize_surface,
    tau_n_sq,
    v_n_sq,
)
from priorscan.band_inference import global_band
from priorscan.chain_runtime import ChainTrace, save_trace, segment_tours, tour_sums
from priorscan.estimators import (ESS_UNRELIABLE, _segmentation, grid_estimates,
                                  surface_on_grid)
from priorscan.models.lda import LDAModel, load_corpus, save_corpus, synth_corpus
from priorscan.models.normal_hier import NormalHierModel
from priorscan.models.varsel import VSModel, synth_regression
from priorscan.prior_family import ExpFamilyRatio, HyperRect, logsumexp
from priorscan.serial_tempering import (
    MixtureRatio,
    STGrid,
    lattice_anchors,
    lattice_neighbours,
    occupancies,
    run_st,
    tune_zeta,
)

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_WARN = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(Exception):
    pass


# ------------------------------------------------------------------
# config schema
# ------------------------------------------------------------------

def stream_rng(seed: int, name: str) -> np.random.Generator:
    """Independent, reproducible stream keyed by (seed, stream name)."""
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


def _numbers(text: str, kind=float) -> list:
    return [kind(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]


def _floats(text: str) -> np.ndarray:
    return np.array(_numbers(text), dtype=float)


def _checked(parse, ok):
    """``parse``, raising ValueError also where ``ok`` of the value is false."""
    def checked(text: str):
        if not ok(parse(text)):
            raise ValueError(text)
        return parse(text)
    return checked


def _anchors(text: str):
    """A lattice's counts per axis (tuple), or explicit anchor rows (array)."""
    if text.startswith("lattice:"):
        return tuple(int(v) for v in text[len("lattice:"):].split("x"))
    return np.array([_floats(row) for row in text.split(";")])   # ragged rows: ValueError


def _per_axis(counts: tuple, k: int, what: str) -> tuple:
    """k counts, each at least 1, from one count for every axis or k of them."""
    if min(counts, default=0) < 1 or len(counts) not in (1, k):
        raise ConfigError(f"{what}: expected 1 or {k} counts of at least 1, got {counts}")
    return counts * k if len(counts) == 1 else counts


TOY, VS, LDA = "normal-hier", "vs-bernoulli-zellner", "lda-dirichlet"
ALL = (TOY, VS, LDA)
REQUIRED = object()
COUNT, COUNT2 = _checked(int, lambda v: v >= 1), _checked(int, lambda v: v >= 2)
KERNELS, SYNTHS = ("mh", "exact"), ("regression", "corpus")

# (section, key) -> (kind, parser, default or REQUIRED, models whose configs may
# set it).  Keys as documented; configparser lowercases them, so they match in
# any case.  The README's key table lists the same keys.
SCHEMA = {
    ("run", "model"): ("model id", str, REQUIRED, ALL),
    ("run", "seed"): ("integer", int, 0, ALL),
    ("run", "out"): ("path", str, ".", ALL),
    ("run", "n"): ("integer >= 1", COUNT, None, ALL),
    ("run", "R"): ("integer >= 1", COUNT, None, (TOY,)),
    ("model", "y"): ("numbers", _floats, REQUIRED, (TOY,)),
    ("model", "sigma0"): ("number", float, 1.0, (TOY,)),
    ("model", "kernel"): ("mh or exact", _checked(str, KERNELS.__contains__), "mh", (TOY,)),
    ("model", "data"): ("path", str, REQUIRED, (VS,)),
    ("model", "corpus"): ("path", str, REQUIRED, (LDA,)),
    ("model", "K"): ("integer >= 1", COUNT, REQUIRED, (LDA,)),
    ("hyper", "rect_lower"): ("numbers", _floats, REQUIRED, ALL),
    ("hyper", "rect_upper"): ("numbers", _floats, REQUIRED, ALL),
    ("hyper", "h1"): ("numbers", _floats, REQUIRED, ALL),
    ("hyper", "grid"): ("integers", lambda text: tuple(_numbers(text, int)), (21,), ALL),
    ("inference", "alpha"): ("number in (0, 1)", _checked(float, lambda a: 0 < a < 1), 0.05, ALL),
    ("inference", "M"): ("integer >= 2", COUNT2, None, ALL),
    ("inference", "functional"): ("name", str, None, ALL),
    ("st", "anchors"): ("lattice:AxB or anchor rows", _anchors, (3, 3), ALL),
    ("st", "zetas"): ("numbers", _floats, None, ALL),
    ("st", "rounds"): ("integer >= 1", COUNT, 10, ALL),
    ("st", "steps_per_round"): ("integer >= 1", COUNT, 5000, ALL),
    ("synth", "kind"): ("regression or corpus", _checked(str, SYNTHS.__contains__), REQUIRED, ALL),
    # synth_regression standardizes each column by its SD, which needs m >= 2 rows
    ("synth", "m"): ("integer >= 2", COUNT2, 50, ALL),
    **{("synth", key): ("integer >= 1", COUNT, default, ALL)
       for key, default in (("q", 8), ("D", 6), ("V", 12), ("K", 2), ("n_d", 30))},
    **{("synth", key): ("number", float, default, ALL)
       for key, default in (("sparsity", 0.3), ("snr", 2.0), ("eta", 0.5), ("alpha", 0.5))},
}


def _unread(what: str, name: str, known: list) -> ConfigError:
    import difflib              # on the error path only

    near = difflib.get_close_matches(name, known, n=1)
    return ConfigError(f"{what}: no command reads it; "
                       + (f"did you mean {near[0]}?" if near else "known: " + ", ".join(known)))


class RunConfig:
    """The config file, every key parsed through SCHEMA when it is read:
    ``cfg[section, key]`` is the key's value, or its default."""

    def __init__(self, path: str):
        self.path = Path(path)
        if not self.path.is_file():
            raise ConfigError(f"config file not found: {path}")
        raw = self.path.read_bytes()
        self.sha256 = hashlib.sha256(raw).hexdigest()
        cp = configparser.ConfigParser(interpolation=None)     # values verbatim
        try:
            cp.read_string(raw.decode())
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
        self.sections, self.values = set(cp.sections()), {}
        model = cp.get("run", "model", fallback=None)
        sections = [f"[{s}]" for s in dict.fromkeys(s for s, _ in SCHEMA)]
        # configparser copies [DEFAULT]'s keys into every section
        for section in [cp.default_section] * bool(cp.defaults()) + cp.sections():
            if f"[{section}]" not in sections:
                raise _unread(f"[{section}]", f"[{section}]", sections)
            keys = {k.lower(): k for s, k in SCHEMA if s == section}
            for key, text in cp[section].items():
                if key not in keys:
                    raise _unread(f"[{section}] {key}", key, list(keys.values()))
                name = section, keys[key]
                kind, parse, _, models = SCHEMA[name]
                if model in ALL and model not in models:
                    raise ConfigError(f"[{section}] {name[1]}: the {model} model does not read it")
                try:
                    self.values[name] = parse(text)
                except ValueError as exc:
                    raise ConfigError(f"[{section}] {name[1]}: expected {kind}, "
                                      f"got {text!r}") from exc
        if ("hyper", "h1") in self.values and self.h1().size != self.rect().k:
            raise ConfigError(f"[hyper] h1: expected {self.rect().k} coordinates, "
                              f"got {self.h1().size}")

    def __getitem__(self, name: tuple[str, str]):
        if name in self.values:
            return self.values[name]
        if SCHEMA[name][2] is REQUIRED:
            raise ConfigError(f"missing [{name[0]}] {name[1]}")
        return SCHEMA[name][2]

    @property
    def out_dir(self) -> Path:
        p = Path(os.environ.get("PRIORSCAN_OUT") or self["run", "out"])
        p.mkdir(parents=True, exist_ok=True)
        return p

    def chain_target(self) -> dict:
        n, R = self["run", "n"], self["run", "R"]
        if (n is None) == (R is None):
            raise ConfigError("set exactly one of [run] n and [run] R")
        return {"n": n} if n is not None else {"R": R}

    def rect(self) -> HyperRect:
        try:
            return HyperRect(lower=self["hyper", "rect_lower"], upper=self["hyper", "rect_upper"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def h1(self) -> np.ndarray:
        return self["hyper", "h1"]

    def grid(self, rect: HyperRect) -> np.ndarray:
        return rect.grid(_per_axis(self["hyper", "grid"], rect.k, "[hyper] grid"))


# ------------------------------------------------------------------
# model construction + chain running
# ------------------------------------------------------------------

def build_model(cfg: RunConfig):
    """The config's model.  Every command builds it first, so the rectangle
    and an [st] section are checked against it here, before any chain runs."""
    mid, rect = cfg["run", "model"], cfg.rect()
    if mid == TOY:
        model = NormalHierModel(y=cfg["model", "y"], sigma0=cfg["model", "sigma0"], rect=rect)
    elif mid == VS:
        # first non-comment line is the header
        lines = [ln for ln in Path(cfg["model", "data"]).read_text().splitlines()
                 if ln.strip() and not ln.lstrip().startswith("#")]
        body = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
        model = VSModel(y=body[:, 0], X=body[:, 1:], rect=rect)
    elif mid == LDA:
        model = LDAModel(K=cfg["model", "K"], corpus=load_corpus(cfg["model", "corpus"]),
                         rect=rect)
    else:
        raise ConfigError(f"unknown model id {mid!r}")
    k = model.spec().k
    if rect.k != k:
        raise ConfigError(f"[hyper] rect_lower, rect_upper: the {mid} model has "
                          f"{k} hyperparameters, the rectangle {rect.k}")
    st_chain(model, cfg)
    return model


def st_chain(model, cfg: RunConfig, always: bool = False):
    """(STGrid, per-anchor model) of the serial-tempering chain from the [st]
    section.  Without one: None, or with ``always`` lattice:3x3, unit zetas.
    Labels on a lattice move between its neighbours along every axis."""
    if not (always or "st" in cfg.sections):
        return None
    if not hasattr(model, "st_model"):
        raise ConfigError(f"[st]: the {cfg['run', 'model']} model has no serial-tempering chain")
    if cfg["run", "R"] is not None:
        raise ConfigError("[run] R: serial tempering runs use [run] n")
    rect, anchors, zetas = cfg.rect(), cfg["st", "anchors"], cfg["st", "zetas"]
    neighbours = None               # explicit anchors: moves along the rows' order
    if isinstance(anchors, tuple):
        shape = _per_axis(anchors, rect.k, "[st] anchors")
        anchors, neighbours = lattice_anchors(rect, shape), lattice_neighbours(shape)
    elif anchors.shape[1] != rect.k:
        raise ConfigError(f"[st] anchors: each anchor needs {rect.k} coordinates")
    try:
        grid = STGrid(anchors=anchors, neighbours=neighbours,
                      zetas=np.ones(anchors.shape[0]) if zetas is None else zetas)
    except ValueError as exc:       # a zeta count or value from the config
        raise ConfigError(f"[st] zetas: {exc}") from exc
    return grid, model.st_model(anchors)


def run_chain(model, cfg: RunConfig, stream: str,
              st: bool = False) -> tuple[ChainTrace, ExpFamilyRatio]:
    """The command's chain and the prior ratio that reweights it.

    With an [st] section, or ``st`` (st-run), the serial-tempering chain over
    its anchors and their MixtureRatio, so that B_n is relative to the anchor
    mixture; otherwise the model's chain at h1 and ExpFamilyRatio(spec, h1).
    """
    rng = stream_rng(cfg["run", "seed"], stream)
    target = cfg.chain_target()
    spec, tempering = model.spec(), st_chain(model, cfg, st)
    if tempering is not None:
        grid, st_model = tempering
        return run_st(st_model, spec, grid, n=target["n"], rng=rng), MixtureRatio(spec, grid)
    h1 = cfg.h1()
    if not isinstance(model, NormalHierModel):      # [run] R is the toy's alone
        trace = model.trace(h1, target["n"], rng=rng)
    elif cfg["model", "kernel"] == "exact":
        (n,) = target.values()          # iid: R complete tours are R draws
        trace = model.exact_trace(h1, n, rng=rng)
    else:
        trace = model.mh_trace(h1, rng=rng, **target)
    return trace, ExpFamilyRatio(spec, h1)


def check_functional(trace: ChainTrace, g_name: str | None) -> None:
    """Raise ConfigError unless ``[inference] functional`` is unset or one
    the chain recorded."""
    if g_name is not None and g_name not in trace.g:
        raise ConfigError(f"[inference] functional: unknown {g_name!r}; "
                          f"recorded: {', '.join(trace.functional_names)}")


def trace_tours(trace: ChainTrace):
    """The trace's tours when it carries regeneration marks, else None (the
    estimators then use batch means)."""
    return segment_tours(trace) if trace.delta.sum() >= 2 or trace.ends_at_regen else None


# ------------------------------------------------------------------
# output helpers
# ------------------------------------------------------------------

def write_csv(path: Path, header: str, rows, cfg_hash: str) -> None:
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", comments="",
               header=f"# config_sha256={cfg_hash}\n{header}")


def write_json(path: Path, payload: dict, cfg_hash: str) -> None:
    payload = dict(payload)
    payload["config_sha256"] = cfg_hash
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=1))


def write_table(path: Path, table, cfg_hash: str) -> None:
    """The config hash line, then ``table.to_csv`` (an estimate or a band)."""
    with open(path, "w") as fh:
        fh.write(f"# config_sha256={cfg_hash}\n")
        table.to_csv(fh)


# ------------------------------------------------------------------
# commands
# ------------------------------------------------------------------

def cmd_surface(cfg: RunConfig) -> int:
    model = build_model(cfg)
    grid = cfg.grid(cfg.rect())
    M, g_name = cfg["inference", "M"], cfg["inference", "functional"]
    trace, family = run_chain(model, cfg, "surface")
    check_functional(trace, g_name)
    est, fest = grid_estimates(trace, family, grid, g_name, tours=trace_tours(trace), M=M)
    write_table(cfg.out_dir / "surface.csv", est, cfg.sha256)
    if fest is not None:
        write_table(cfg.out_dir / f"functional_{g_name}.csv", fest, cfg.sha256)
    save_trace(trace, cfg.out_dir / "trace.txt")
    return EXIT_OK


def cmd_argmax(cfg: RunConfig) -> int:
    model = build_model(cfg)
    rect = cfg.rect()
    alpha, M = cfg["inference", "alpha"], cfg["inference", "M"]
    trace, family = run_chain(model, cfg, "argmax")
    tours = trace_tours(trace)
    segments = _segmentation(trace.n, tours, M)[1]
    n_eff, R = segments.n_eff, segments.R
    # over the complete tours' or batches' rows, which the sandwich at h_n uses
    res = maximize_surface(_slice_trace(trace, 0, n_eff), family, rect)
    if res.ess < ESS_UNRELIABLE:
        print(f"warning: weight ESS {res.ess:.3g} at h_n is below "
              f"{ESS_UNRELIABLE:g}", file=sys.stderr)
    tsums = tour_sums(trace, segments, family, res.h, [])
    J, tau = hessian_Jn(tsums), tau_n_sq(tsums)
    v = v_n_sq(J, tau)
    ellipse = confidence_ellipse(res.h, v, R, alpha)
    report = ArgmaxReport(
        h_n=res.h, J_n=J, tau_n_sq=tau, v_n_sq=v, R=R, n=n_eff,
        E_N1_hat=n_eff / R, alpha=alpha, chi2_threshold=ellipse.threshold,
        boundary_flag=res.boundary, ellipse=ellipse,
        method="batch" if tours is None else "tour")
    (cfg.out_dir / "argmax.json").write_text(report.to_json(extra={
        "multistart_consistent": res.multistart_consistent,
        "ess_h_n": res.ess,
        "optimizer": res.optimizer,
        "config_sha256": cfg.sha256,
    }))
    if ellipse.boundary.size:
        write_csv(cfg.out_dir / "ellipse.csv", "h_1,h_2",
                  ellipse.boundary, cfg.sha256)
    return EXIT_WARN if res.boundary else EXIT_OK


def cmd_band(cfg: RunConfig, replicate: int = 0) -> int:
    if replicate < 0:
        raise ConfigError(f"--replicate must be at least 0, got {replicate}")
    model = build_model(cfg)
    rect = cfg.rect()
    grid = cfg.grid(rect)
    g_name, alpha, M = (cfg["inference", key] for key in ("functional", "alpha", "M"))
    if replicate > 0 and (not isinstance(model, NormalHierModel) or g_name != "theta1"):
        raise ConfigError("--replicate coverage needs the normal-hier model "
                          "with functional theta1 (analytic truth)")

    def one_band(stream: str):
        trace, family = run_chain(model, cfg, stream)
        check_functional(trace, g_name)
        return global_band(trace, family, g_name, grid, M=M, alpha=alpha)

    band = one_band("band")
    write_table(cfg.out_dir / "band.csv", band, cfg.sha256)
    (cfg.out_dir / "band.json").write_text(
        band.to_json(extra={"config_sha256": cfg.sha256}))

    if replicate > 0:
        truth = np.array([model.oracle_I_theta1(h) for h in grid])
        hits = int(band.covers(truth))
        for r in range(1, replicate):
            hits += int(one_band(f"band-rep-{r}").covers(truth))
        write_json(cfg.out_dir / "coverage.json", {
            "replications": replicate,
            "covered": hits,
            "coverage": hits / replicate,
            "alpha": alpha,
        }, cfg.sha256)
    return EXIT_OK


def _zeta_csv(path: Path, grid: STGrid, occ, cfg_hash: str) -> None:
    k = grid.anchors.shape[1]
    header = ",".join(f"h_{i+1}" for i in range(k)) + ",zeta,occupancy"
    rows = np.column_stack([grid.anchors, grid.zetas, occ])
    write_csv(path, header, rows, cfg_hash)


def cmd_st_tune(cfg: RunConfig) -> int:
    model = build_model(cfg)
    grid, st_model = st_chain(model, cfg, always=True)
    tuned, converged, ratios = tune_zeta(st_model, model.spec(), grid,
                                         rounds=cfg["st", "rounds"],
                                         steps_per_round=cfg["st", "steps_per_round"],
                                         seed=stream_rng(cfg["run", "seed"], "st-tune"))
    _zeta_csv(cfg.out_dir / "zeta.csv", tuned, tuned.occupancies, cfg.sha256)
    write_json(cfg.out_dir / "st_tune.json", {
        "converged": bool(converged),
        "zetas": tuned.zetas.tolist(),
        "occupancies": tuned.occupancies.tolist(),
        "occupancy_ratios": ratios,
    }, cfg.sha256)
    return EXIT_OK if converged else EXIT_WARN


def cmd_st_run(cfg: RunConfig) -> int:
    model = build_model(cfg)
    surface_grid, M = cfg.grid(cfg.rect()), cfg["inference", "M"]
    trace, family = run_chain(model, cfg, "st-run", st=True)
    occ = occupancies(trace, family.grid.m)
    _zeta_csv(cfg.out_dir / "occupancy.csv", family.grid, occ, cfg.sha256)
    save_trace(trace, cfg.out_dir / "st_trace.txt")
    est = surface_on_grid(trace, family, surface_grid, M=M)
    write_table(cfg.out_dir / "st_surface.csv", est, cfg.sha256)
    return EXIT_OK


def cmd_synth(cfg: RunConfig) -> int:
    kind, seed, out = cfg["synth", "kind"], cfg["run", "seed"], cfg.out_dir
    if kind == "regression":
        data = synth_regression(seed=seed, **{key: cfg["synth", key]
                                              for key in ("m", "q", "sparsity", "snr")})
        path = out / "regression.csv"
        header = "y," + ",".join(f"x_{j+1}" for j in range(data.X.shape[1]))
        write_csv(path, header, np.column_stack([data.y, data.X]), cfg.sha256)
        write_json(out / "regression.json", dict(data.meta), cfg.sha256)
        return EXIT_OK
    corpus = synth_corpus(seed=seed, **{key: cfg["synth", key]
                                        for key in ("D", "V", "K", "n_d", "eta", "alpha")})
    save_corpus(corpus, out / "corpus.txt")
    return EXIT_OK


def cmd_oracle_check(cfg: RunConfig) -> int:
    model = build_model(cfg)
    if not isinstance(model, NormalHierModel):
        raise ConfigError("oracle-check applies to the normal-hier model")
    grid, M = cfg.grid(cfg.rect()), cfg["inference", "M"]
    trace, family = run_chain(model, cfg, "oracle-check")
    est = surface_on_grid(trace, family, grid, tours=trace_tours(trace), M=M)
    # B_n is m(h) over the chain's mixture (1/m) sum_j m(h_j)/zeta_j: m(h1) at one anchor
    log_ref = logsumexp(np.array([model.log_marginal(a) for a in np.atleast_2d(family.h1)])
                        - family.log_zetas) - np.log(family.m)
    truth = np.array([np.exp(model.log_marginal(h) - log_ref) for h in grid])
    z = np.abs(est.values - truth) / np.maximum(est.se, 1e-300)
    frac_ok = float(np.mean(z <= 4.0))
    write_json(cfg.out_dir / "oracle_check.json", {
        "grid_points": int(grid.shape[0]),
        "fraction_within_4se": frac_ok,
        "max_z": float(z.max()),
    }, cfg.sha256)
    return EXIT_OK if frac_ok >= 0.95 else EXIT_WARN


# ------------------------------------------------------------------
# entry point
# ------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="priorscan",
        description="Hyperparameter surfaces from a single MCMC run, with "
                    "frequentist-valid uncertainty.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {"surface": cmd_surface, "argmax": cmd_argmax, "band": cmd_band,
                "st-tune": cmd_st_tune, "st-run": cmd_st_run, "synth": cmd_synth,
                "oracle-check": cmd_oracle_check}
    for name in commands:
        p = sub.add_parser(name)
        p.add_argument("config", help="path to key=value config file")
        if name == "band":
            p.add_argument("--replicate", type=int, default=0,
                           help="run a coverage study with this many replications")
    args = parser.parse_args(argv)

    try:
        cfg = RunConfig(args.config)
        if args.command == "band":
            return cmd_band(cfg, replicate=args.replicate)
        return commands[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    """The ``priorscan`` process: ``main`` on ``sys.argv``, then exit with its
    code.  ``gc.freeze()`` first moves every object out of the collector's
    reach, so the interpreter's exit skips the full collection over the
    ~23k objects in module reference cycles (numpy's and ours), whose memory
    the OS takes back anyway: 15-25 ms a command on a 2-vCPU host.  Not in
    ``main``, which tests call in-process."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
