"""Command-line orchestration: config parsing, seeding, and CSV/JSON emission.

Commands: surface, argmax, band, st-tune, st-run, synth, oracle-check.  Every
command but synth takes its model, grid and chain from one Run, built and
checked before any chain runs, and every output goes through RunConfig.write;
an [st] section puts every command's chain on serial tempering (see run_chain).
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
from priorscan.chain_runtime import (ChainTrace, ModelChain, TourIndex, save_trace,
                                     segment_tours, tour_sums)
from priorscan.estimators import (ESS_UNRELIABLE, _segmentation, grid_estimates,
                                  surface_on_grid)
from priorscan.models.lda import LDAModel, load_corpus, save_corpus, synth_corpus
from priorscan.models.normal_hier import NormalHierModel
from priorscan.models.varsel import VSModel, synth_regression
from priorscan.prior_family import ExpFamilyRatio, HyperRect, logsumexp
from priorscan.serial_tempering import (
    LABEL_FUNCTIONAL,
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
    ("model", "y"): ("finite numbers", _checked(_floats, lambda y: np.all(np.isfinite(y))),
                     REQUIRED, (TOY,)),
    ("model", "sigma0"): ("finite number > 0", _checked(float, lambda s: 0 < s < np.inf),
                          1.0, (TOY,)),
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
    ``cfg[section, key]`` is the key's value, or its default.  ``write`` is
    the one writer of the command outputs, each stamped with the file's hash."""

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

    def write(self, name: str, what, header: str | None = None, **extra) -> None:
        """Write ``what`` to the output directory as ``name``, stamped with the
        config's SHA-256.  A ``.json`` name takes a report (its ``to_json``)
        or a dict, plus ``extra``, and adds a ``config_sha256`` key; any other
        takes rows under ``header``, or an estimate or band table (its
        ``to_csv``), after a ``# config_sha256=`` line."""
        path = self.out_dir / name
        if name.endswith(".json"):
            extra["config_sha256"] = self.sha256
            path.write_text(what.to_json(extra=extra) if hasattr(what, "to_json")
                            else json.dumps({**what, **extra}, sort_keys=True, indent=1))
            return
        with open(path, "w") as fh:
            fh.write(f"# config_sha256={self.sha256}\n")
            if header is None:
                what.to_csv(fh)
            else:
                np.savetxt(fh, what, fmt="%.17g", delimiter=",", comments="", header=header)


# ------------------------------------------------------------------
# command set-up: the model and its chain
# ------------------------------------------------------------------

MODELS = {TOY: NormalHierModel, VS: VSModel, LDA: LDAModel}


class Run:
    """A command's set-up, built once before any chain runs: the model, its
    rectangle and grid, the [inference] keys, and the serial-tempering grid
    of an [st] section or, with ``st`` (st-tune, st-run), of lattice:3x3 with
    unit zetas, with the model's ModelChain over its anchors.  Labels on a
    lattice move between its neighbours along every axis.  The hyperparameters are
    checked against the model's open domain box before its data are read."""

    def __init__(self, cfg: RunConfig, st: bool = False):
        mid, rect = cfg["run", "model"], cfg.rect()
        if mid not in MODELS:
            raise ConfigError(f"unknown model id {mid!r}")
        domain = MODELS[mid].DOMAIN
        if rect.k != len(domain):
            raise ConfigError(f"[hyper] rect_lower, rect_upper: the {mid} model has "
                              f"{len(domain)} hyperparameters, the rectangle {rect.k}")

        def in_domain(what: str, points) -> None:
            lo, hi = np.transpose(domain)
            for h in np.atleast_2d(points):
                if not np.all((lo < h) & (h < hi)):
                    raise ConfigError(
                        f"{what}: {', '.join(f'{v:g}' for v in h)} lies outside the {mid} "
                        f"model's domain {' x '.join(f'({a:g}, {b:g})' for a, b in domain)}")

        in_domain("[hyper] rect_lower", rect.lower)
        in_domain("[hyper] rect_upper", rect.upper)
        if ("hyper", "h1") in cfg.values:
            in_domain("[hyper] h1", cfg.h1())
        self.cfg, self.rect, self.grid = cfg, rect, cfg.grid(rect)
        self.alpha, self.M, self.g_name = (cfg["inference", key]
                                           for key in ("alpha", "M", "functional"))
        self.st_grid = None
        if st or "st" in cfg.sections:
            if cfg["run", "R"] is not None:
                raise ConfigError("[run] R: serial tempering runs use [run] n")
            anchors, zetas = cfg["st", "anchors"], cfg["st", "zetas"]
            neighbours = None           # explicit anchors: moves along the rows' order
            if isinstance(anchors, tuple):
                shape = _per_axis(anchors, rect.k, "[st] anchors")
                anchors, neighbours = lattice_anchors(rect, shape), lattice_neighbours(shape)
            elif anchors.shape[1] != rect.k:
                raise ConfigError(f"[st] anchors: each anchor needs {rect.k} coordinates")
            in_domain("[st] anchors", anchors)
            try:
                self.st_grid = STGrid(anchors=anchors, neighbours=neighbours,
                                      zetas=np.ones(anchors.shape[0]) if zetas is None else zetas)
            except ValueError as exc:   # a zeta count or value from the config
                raise ConfigError(f"[st] zetas: {exc}") from exc

        if mid == TOY:
            model = NormalHierModel(y=cfg["model", "y"], sigma0=cfg["model", "sigma0"], rect=rect)
        elif mid == VS:
            # first non-comment line is the header
            lines = [ln for ln in Path(cfg["model", "data"]).read_text().splitlines()
                     if ln.strip() and not ln.lstrip().startswith("#")]
            body = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
            model = VSModel(y=body[:, 0], X=body[:, 1:], rect=rect)
        else:
            model = LDAModel(K=cfg["model", "K"], corpus=load_corpus(cfg["model", "corpus"]),
                             rect=rect)
        self.model, self.spec = model, model.spec()
        self.st_model = None if self.st_grid is None else ModelChain(model, self.st_grid.anchors)
        recorded = [*model.functionals] + [LABEL_FUNCTIONAL] * (self.st_grid is not None)
        if self.g_name is not None and self.g_name not in recorded:
            raise ConfigError(f"[inference] functional: unknown {self.g_name!r}; "
                              f"recorded: {', '.join(recorded)}")

    def chain(self, stream: str) -> tuple[ChainTrace, ExpFamilyRatio, TourIndex | None]:
        """(trace, ratio, tours) of the chain on ``stream``; tours is None
        without regeneration marks (the estimators then use batch means)."""
        trace, ratio = run_chain(self, stream)
        tours = segment_tours(trace) if trace.delta.sum() >= 2 or trace.ends_at_regen else None
        return trace, ratio, tours


def run_chain(run: Run, stream: str) -> tuple[ChainTrace, ExpFamilyRatio]:
    """The chain on ``stream`` and the prior ratio that reweights it: with an
    ST grid the serial-tempering chain over its anchors and their
    MixtureRatio, so that B_n is relative to the anchor mixture; otherwise
    the model's chain at h1 and ExpFamilyRatio(spec, h1)."""
    cfg, model, spec = run.cfg, run.model, run.spec
    rng = stream_rng(cfg["run", "seed"], stream)
    target = cfg.chain_target()
    if run.st_grid is not None:
        return (run_st(run.st_model, spec, run.st_grid, n=target["n"], rng=rng),
                MixtureRatio(spec, run.st_grid))
    h1 = cfg.h1()
    if not isinstance(model, NormalHierModel):      # [run] R is the toy's alone
        trace = model.trace(h1, target["n"], rng=rng)
    elif cfg["model", "kernel"] == "exact":
        (n,) = target.values()          # iid: R complete tours are R draws
        trace = model.exact_trace(h1, n, rng=rng)
    else:
        trace = model.mh_trace(h1, rng=rng, **target)
    return trace, ExpFamilyRatio(spec, h1)


# ------------------------------------------------------------------
# commands
# ------------------------------------------------------------------

def cmd_surface(cfg: RunConfig) -> int:
    run = Run(cfg)
    trace, family, tours = run.chain("surface")
    est, fest = grid_estimates(trace, family, run.grid, run.g_name, tours=tours, M=run.M)
    cfg.write("surface.csv", est)
    if fest is not None:
        cfg.write(f"functional_{run.g_name}.csv", fest)
    save_trace(trace, cfg.out_dir / "trace.txt")
    return EXIT_OK


def cmd_argmax(cfg: RunConfig) -> int:
    run = Run(cfg)
    trace, family, tours = run.chain("argmax")
    segments = _segmentation(trace.n, tours, run.M)
    n_eff, R = segments.n_eff, segments.R
    # over the complete tours' or batches' rows, which the sandwich at h_n uses
    res = maximize_surface(_slice_trace(trace, 0, n_eff), family, run.rect)
    if res.ess < ESS_UNRELIABLE:
        print(f"warning: weight ESS {res.ess:.3g} at h_n is below "
              f"{ESS_UNRELIABLE:g}", file=sys.stderr)
    tsums = tour_sums(trace, segments, family, res.h, [])
    J, tau = hessian_Jn(tsums), tau_n_sq(tsums)
    v = v_n_sq(J, tau)
    ellipse = confidence_ellipse(res.h, v, R, run.alpha)
    report = ArgmaxReport(
        h_n=res.h, J_n=J, tau_n_sq=tau, v_n_sq=v, R=R, n=n_eff,
        E_N1_hat=n_eff / R, alpha=run.alpha, chi2_threshold=ellipse.threshold,
        boundary_flag=res.boundary, ellipse=ellipse,
        method="batch" if tours is None else "tour")
    cfg.write("argmax.json", report, multistart_consistent=res.multistart_consistent,
              ess_h_n=res.ess, optimizer=res.optimizer)
    if ellipse.boundary.size:
        cfg.write("ellipse.csv", ellipse.boundary, "h_1,h_2")
    return EXIT_WARN if res.boundary else EXIT_OK


def cmd_band(cfg: RunConfig, replicate: int = 0) -> int:
    if replicate < 0:
        raise ConfigError(f"--replicate must be at least 0, got {replicate}")
    run = Run(cfg)
    if replicate > 0 and (not isinstance(run.model, NormalHierModel) or run.g_name != "theta1"):
        raise ConfigError("--replicate coverage needs the normal-hier model "
                          "with functional theta1 (analytic truth)")

    def one_band(stream: str):
        trace, family, _ = run.chain(stream)
        return global_band(trace, family, run.g_name, run.grid, M=run.M, alpha=run.alpha)

    band = one_band("band")
    cfg.write("band.csv", band)
    cfg.write("band.json", band)
    if replicate > 0:
        truth = np.array([run.model.oracle_I_theta1(h) for h in run.grid])
        hits = int(band.covers(truth))
        for r in range(1, replicate):
            hits += int(one_band(f"band-rep-{r}").covers(truth))
        cfg.write("coverage.json", {"replications": replicate, "covered": hits,
                                    "coverage": hits / replicate, "alpha": run.alpha})
    return EXIT_OK


def cmd_st_tune(cfg: RunConfig) -> int:
    run = Run(cfg, st=True)
    tuned, converged, ratios = tune_zeta(run.st_model, run.spec, run.st_grid,
                                         rounds=cfg["st", "rounds"],
                                         steps_per_round=cfg["st", "steps_per_round"],
                                         seed=stream_rng(cfg["run", "seed"], "st-tune"))
    cfg.write("zeta.csv", np.column_stack([tuned.anchors, tuned.zetas, tuned.occupancies]),
              ",".join(f"h_{i+1}" for i in range(run.rect.k)) + ",zeta,occupancy")
    cfg.write("st_tune.json", {"converged": bool(converged), "zetas": tuned.zetas.tolist(),
                               "occupancies": tuned.occupancies.tolist(),
                               "occupancy_ratios": ratios})
    return EXIT_OK if converged else EXIT_WARN


def cmd_st_run(cfg: RunConfig) -> int:
    run = Run(cfg, st=True)
    trace, family, _ = run.chain("st-run")
    occ = occupancies(trace, run.st_grid.m)
    cfg.write("occupancy.csv", np.column_stack([run.st_grid.anchors, run.st_grid.zetas, occ]),
              ",".join(f"h_{i+1}" for i in range(run.rect.k)) + ",zeta,occupancy")
    save_trace(trace, cfg.out_dir / "st_trace.txt")
    cfg.write("st_surface.csv", surface_on_grid(trace, family, run.grid, M=run.M))
    return EXIT_OK


def cmd_synth(cfg: RunConfig) -> int:
    kind, seed = cfg["synth", "kind"], cfg["run", "seed"]
    if kind == "regression":
        data = synth_regression(seed=seed, **{key: cfg["synth", key]
                                              for key in ("m", "q", "sparsity", "snr")})
        cfg.write("regression.csv", np.column_stack([data.y, data.X]),
                  "y," + ",".join(f"x_{j+1}" for j in range(data.X.shape[1])))
        cfg.write("regression.json", data.meta)
        return EXIT_OK
    corpus = synth_corpus(seed=seed, **{key: cfg["synth", key]
                                        for key in ("D", "V", "K", "n_d", "eta", "alpha")})
    corpus.meta["config_sha256"] = cfg.sha256       # into the corpus.txt.json sidecar
    save_corpus(corpus, cfg.out_dir / "corpus.txt")
    return EXIT_OK


def cmd_oracle_check(cfg: RunConfig) -> int:
    run = Run(cfg)
    if not isinstance(run.model, NormalHierModel):
        raise ConfigError("oracle-check applies to the normal-hier model")
    trace, family, tours = run.chain("oracle-check")
    est = surface_on_grid(trace, family, run.grid, tours=tours, M=run.M)
    # B_n is m(h) over the chain's mixture (1/m) sum_j m(h_j)/zeta_j: m(h1) at one anchor
    log_marginal = run.model.log_marginal
    log_ref = logsumexp(np.array([log_marginal(a) for a in np.atleast_2d(family.h1)])
                        - family.log_zetas) - np.log(family.m)
    truth = np.array([np.exp(log_marginal(h) - log_ref) for h in run.grid])
    z = np.abs(est.values - truth) / np.maximum(est.se, 1e-300)
    frac_ok = float(np.mean(z <= 4.0))
    cfg.write("oracle_check.json", {"grid_points": int(run.grid.shape[0]),
                                    "fraction_within_4se": frac_ok, "max_z": float(z.max())})
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
    args = vars(parser.parse_args(argv))
    try:
        cfg = RunConfig(args.pop("config"))
        return commands[args.pop("command")](cfg, **args)
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
