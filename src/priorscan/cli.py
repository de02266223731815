"""Command-line orchestration: config parsing, seeding, and CSV/JSON emission.

Commands: surface, argmax, band, st-tune, st-run, synth, oracle-check.
Configuration is a plain key=value file with sections (stdlib configparser);
all randomness flows from per-stream generators derived from (seed, stream
name), so identical configs produce byte-identical outputs.  Exit codes:
0 ok, 1 runtime warning (boundary argmax / tuning non-convergence /
oracle mismatch), 2 configuration error, 3 runtime error (an unreadable
input or output file, a numerically singular J_n, or a ValueError such as a
trace with fewer than 2 complete tours or a band that is not finite).
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from priorscan.argmax_inference import (
    ArgmaxReport,
    _slice_trace,
    batch_argmax_cov,
    confidence_ellipse,
    hessian_Jn,
    maximize_surface,
    tau_n_sq,
    v_n_sq,
)
from priorscan.band_inference import global_band
from priorscan.chain_runtime import ChainTrace, save_trace, segment_tours, tour_sums
from priorscan.estimators import ESS_UNRELIABLE, grid_estimates, surface_on_grid
from priorscan.models.lda import LDAModel, load_corpus, save_corpus, synth_corpus
from priorscan.models.normal_hier import NormalHierModel
from priorscan.models.varsel import VSModel, synth_regression
from priorscan.prior_family import ExpFamilyRatio, HyperRect
from priorscan.serial_tempering import (
    MixtureRatio,
    STGrid,
    lattice_anchors,
    occupancies,
    run_st,
    tune_zeta,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_WARN = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(Exception):
    pass


# ------------------------------------------------------------------
# config plumbing
# ------------------------------------------------------------------

def stream_rng(seed: int, name: str) -> np.random.Generator:
    """Independent, reproducible stream keyed by (seed, stream name)."""
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


def _number(text, kind=float, what: str = "value"):
    """``kind(text)`` for ``kind`` int or float, raising ConfigError."""
    try:
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"{what}: expected {kind.__name__}, got {text!r}") from exc


def _numbers(text: str, kind=float, what: str = "value") -> list:
    return [_number(tok, kind, what) for tok in text.replace(";", ",").split(",")
            if tok.strip()]


def _floats(text: str) -> np.ndarray:
    return np.array(_numbers(text), dtype=float)


class RunConfig:
    """Validated view over the parsed config file."""

    def __init__(self, path: str):
        self.path = Path(path)
        if not self.path.is_file():
            raise ConfigError(f"config file not found: {path}")
        raw = self.path.read_bytes()
        self.sha256 = hashlib.sha256(raw).hexdigest()
        cp = configparser.ConfigParser()
        try:
            cp.read_string(raw.decode())
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
        self.cp = cp

    def get(self, section: str, key: str, default=None, required: bool = False):
        if self.cp.has_option(section, key):
            return self.cp.get(section, key)
        if required:
            raise ConfigError(f"missing [{section}] {key}")
        return default

    def number(self, section: str, key: str, kind=float, default=None,
               required: bool = False):
        """The key's value as ``kind`` (int or float), None if absent."""
        text = self.get(section, key, default=default, required=required)
        return None if text is None else _number(text, kind, f"[{section}] {key}")

    # -- common blocks ----------------------------------------------------
    @property
    def model_id(self) -> str:
        return self.get("run", "model", required=True)

    @property
    def seed(self) -> int:
        return self.number("run", "seed", int, default=0)

    @property
    def out_dir(self) -> Path:
        out = os.environ.get("PRIORSCAN_OUT") or self.get("run", "out", default=".")
        p = Path(out)
        p.mkdir(parents=True, exist_ok=True)
        return p

    def chain_target(self) -> dict:
        n = self.number("run", "n", int)
        R = self.number("run", "R", int)
        if (n is None) == (R is None):
            raise ConfigError("set exactly one of [run] n and [run] R")
        key, value = ("n", n) if n is not None else ("R", R)
        if value < 1:
            raise ConfigError(f"[run] {key} must be at least 1, got {value}")
        return {key: value}

    def rect(self) -> HyperRect:
        lo = _floats(self.get("hyper", "rect_lower", required=True))
        hi = _floats(self.get("hyper", "rect_upper", required=True))
        try:
            return HyperRect(lower=lo, upper=hi)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def h1(self) -> np.ndarray:
        return _floats(self.get("hyper", "h1", required=True))

    def grid(self, rect: HyperRect) -> np.ndarray:
        points = _numbers(self.get("hyper", "grid", default="21"), int, "[hyper] grid")
        if len(points) == 1:
            points = points * rect.k
        return rect.grid(points)

    @property
    def alpha(self) -> float:
        a = self.number("inference", "alpha", default=0.05)
        if not 0.0 < a < 1.0:
            raise ConfigError("alpha must lie in (0, 1)")
        return a

    @property
    def M(self) -> int | None:
        return self.number("inference", "M", int)

    @property
    def functional(self) -> str | None:
        return self.get("inference", "functional")


# ------------------------------------------------------------------
# model construction + chain running
# ------------------------------------------------------------------

def build_model(cfg: RunConfig):
    mid = cfg.model_id
    rect = cfg.rect()
    if mid == "normal-hier":
        y = _floats(cfg.get("model", "y", required=True))
        sigma0 = cfg.number("model", "sigma0", default=1.0)
        return NormalHierModel(y=y, sigma0=sigma0, rect=rect)
    if mid == "vs-bernoulli-zellner":
        data = cfg.get("model", "data", required=True)
        # first non-comment line is the header
        lines = [ln for ln in Path(data).read_text().splitlines()
                 if ln.strip() and not ln.lstrip().startswith("#")]
        body = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
        return VSModel(y=body[:, 0], X=body[:, 1:], rect=rect)
    if mid == "lda-dirichlet":
        corpus = load_corpus(cfg.get("model", "corpus", required=True))
        K = cfg.number("model", "K", int, required=True)
        return LDAModel(corpus=corpus, K=K, rect=rect)
    raise ConfigError(f"unknown model id {mid!r}")


def run_chain(model, cfg: RunConfig, stream: str) -> ChainTrace:
    rng = stream_rng(cfg.seed, stream)
    target = cfg.chain_target()
    h1 = cfg.h1()
    if isinstance(model, NormalHierModel):
        if cfg.get("model", "kernel", default="mh") == "exact":
            (n,) = target.values()      # iid: R complete tours are R draws
            return model.exact_trace(h1, n, rng=rng)
        return model.mh_trace(h1, rng=rng, **target)
    if "R" in target:
        raise ConfigError("this model has no regeneration construction; use n")
    return model.trace(h1, target["n"], rng=rng)


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
    M, g_name = cfg.M, cfg.functional
    trace = run_chain(model, cfg, "surface")
    check_functional(trace, g_name)
    family = ExpFamilyRatio(model.spec(), cfg.h1())
    tours = trace_tours(trace)
    est, fest = grid_estimates(trace, family, grid, g_name, tours=tours, M=M)
    write_table(cfg.out_dir / "surface.csv", est, cfg.sha256)
    if fest is not None:
        write_table(cfg.out_dir / f"functional_{g_name}.csv", fest, cfg.sha256)
    save_trace(trace, cfg.out_dir / "trace.txt")
    return EXIT_OK


def cmd_argmax(cfg: RunConfig) -> int:
    model = build_model(cfg)
    rect = cfg.rect()
    alpha, M = cfg.alpha, cfg.M
    trace = run_chain(model, cfg, "argmax")
    family = ExpFamilyRatio(model.spec(), cfg.h1())
    tours = trace_tours(trace)
    # over the complete tours' rows, which the sandwich at h_n uses
    res = maximize_surface(trace if tours is None else
                           _slice_trace(trace, 0, tours.n_eff), family, rect)
    if res.ess < ESS_UNRELIABLE:
        print(f"warning: weight ESS {res.ess:.3g} at h_n is below "
              f"{ESS_UNRELIABLE:g}", file=sys.stderr)
    if tours is not None:
        tsums = tour_sums(trace, tours, family, res.h)
        J = hessian_Jn(tsums)
        tau = tau_n_sq(tsums)
        v = v_n_sq(J, tau)
        R = tours.R
        n_eff = tours.n_eff
        method = "tour"
        n_boundary = None
    else:
        M = M or max(2, int(np.ceil(np.sqrt(trace.n))))
        cov, n_boundary = batch_argmax_cov(trace, family, rect, M, h_n=res.h)
        # cov approximates n Var(h_n) = E(N1) v^2; fold into the R-scaled form
        J = tau = None
        n_eff = trace.n
        R = n_eff  # with E_N1_hat = 1 the ellipse scaling R/v^2 = n/cov
        v = cov
        method = "batch"
    ellipse = confidence_ellipse(res.h, v, R, alpha)
    report = ArgmaxReport(
        h_n=res.h, J_n=J, tau_n_sq=tau, v_n_sq=v, R=R, n=n_eff,
        E_N1_hat=n_eff / R, alpha=alpha, chi2_threshold=ellipse.threshold,
        boundary_flag=res.boundary, ellipse=ellipse, method=method)
    (cfg.out_dir / "argmax.json").write_text(report.to_json(extra={
        "multistart_consistent": res.multistart_consistent,
        "batch_boundary_count": n_boundary,
        "ess_h_n": res.ess,
        "optimizer": res.optimizer,
        "config_sha256": cfg.sha256,
    }))
    if ellipse.boundary.size:
        write_csv(cfg.out_dir / "ellipse.csv", "h_1,h_2",
                  ellipse.boundary, cfg.sha256)
    return EXIT_WARN if res.boundary else EXIT_OK


def cmd_band(cfg: RunConfig, replicate: int = 0) -> int:
    model = build_model(cfg)
    rect = cfg.rect()
    grid = cfg.grid(rect)
    g_name, alpha, M = cfg.functional, cfg.alpha, cfg.M

    def one_band(stream: str):
        trace = run_chain(model, cfg, stream)
        check_functional(trace, g_name)
        family = ExpFamilyRatio(model.spec(), cfg.h1())
        return global_band(trace, family, g_name, grid, M=M, alpha=alpha)

    band = one_band("band")
    write_table(cfg.out_dir / "band.csv", band, cfg.sha256)
    (cfg.out_dir / "band.json").write_text(
        band.to_json(extra={"config_sha256": cfg.sha256}))

    if replicate > 0:
        if not isinstance(model, NormalHierModel) or g_name != "theta1":
            raise ConfigError("--replicate coverage needs the normal-hier model "
                              "with functional theta1 (analytic truth)")
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


def _st_pieces(cfg: RunConfig, model):
    rect = cfg.rect()
    spec_txt = cfg.get("st", "anchors", default="lattice:3x3")
    if spec_txt.startswith("lattice:"):
        shape = [_number(v, int, "[st] anchors")
                 for v in spec_txt.split(":", 1)[1].split("x")]
        anchors = lattice_anchors(rect, shape if len(shape) > 1 else shape[0])
    else:
        anchors = np.array([_floats(row) for row in spec_txt.split(";")])
    zeta_txt = cfg.get("st", "zetas")
    zetas = (_floats(zeta_txt) if zeta_txt is not None
             else np.ones(anchors.shape[0]))
    grid = STGrid(anchors=anchors, zetas=zetas)
    if isinstance(model, (NormalHierModel, LDAModel)):
        st_model = model.st_model(anchors)
    else:
        raise ConfigError("serial tempering supported for normal-hier and "
                          "lda-dirichlet models")
    return grid, st_model, model.spec()


def _zeta_csv(path: Path, grid: STGrid, occ, cfg_hash: str) -> None:
    k = grid.anchors.shape[1]
    header = ",".join(f"h_{i+1}" for i in range(k)) + ",zeta,occupancy"
    occ = np.full(grid.m, np.nan) if occ is None else np.asarray(occ)
    rows = np.column_stack([grid.anchors, grid.zetas, occ])
    write_csv(path, header, rows, cfg_hash)


def cmd_st_tune(cfg: RunConfig) -> int:
    model = build_model(cfg)
    grid, st_model, spec = _st_pieces(cfg, model)
    rounds = cfg.number("st", "rounds", int, default=10)
    steps = cfg.number("st", "steps_per_round", int, default=5000)
    tuned, converged = tune_zeta(st_model, spec, grid, rounds=rounds,
                                 steps_per_round=steps,
                                 seed=stream_rng(cfg.seed, "st-tune"))
    _zeta_csv(cfg.out_dir / "zeta.csv", tuned, tuned.occupancies, cfg.sha256)
    write_json(cfg.out_dir / "st_tune.json", {
        "converged": bool(converged),
        "zetas": tuned.zetas.tolist(),
        "occupancies": None if tuned.occupancies is None
        else tuned.occupancies.tolist(),
    }, cfg.sha256)
    return EXIT_OK if converged else EXIT_WARN


def cmd_st_run(cfg: RunConfig) -> int:
    model = build_model(cfg)
    grid, st_model, spec = _st_pieces(cfg, model)
    target = cfg.chain_target()
    if "n" not in target:
        raise ConfigError("serial tempering runs use [run] n")
    surface_grid, M = cfg.grid(cfg.rect()), cfg.M
    trace = run_st(st_model, spec, grid, n=target["n"],
                   rng=stream_rng(cfg.seed, "st-run"))
    occ = occupancies(trace, grid.m)
    _zeta_csv(cfg.out_dir / "occupancy.csv", grid, occ, cfg.sha256)
    save_trace(trace, cfg.out_dir / "st_trace.txt")
    family = MixtureRatio(spec, grid)
    est = surface_on_grid(trace, family, surface_grid, M=M)
    write_table(cfg.out_dir / "st_surface.csv", est, cfg.sha256)
    return EXIT_OK


def cmd_synth(cfg: RunConfig) -> int:
    kind = cfg.get("synth", "kind", required=True)
    out = cfg.out_dir
    if kind == "regression":
        data = synth_regression(
            seed=cfg.seed,
            m=cfg.number("synth", "m", int, default=50),
            q=cfg.number("synth", "q", int, default=8),
            sparsity=cfg.number("synth", "sparsity", default=0.3),
            snr=cfg.number("synth", "snr", default=2.0))
        path = out / "regression.csv"
        header = "y," + ",".join(f"x_{j+1}" for j in range(data.X.shape[1]))
        write_csv(path, header, np.column_stack([data.y, data.X]), cfg.sha256)
        write_json(out / "regression.json", dict(data.meta), cfg.sha256)
        return EXIT_OK
    if kind == "corpus":
        corpus = synth_corpus(
            seed=cfg.seed,
            D=cfg.number("synth", "D", int, default=6),
            V=cfg.number("synth", "V", int, default=12),
            K=cfg.number("synth", "K", int, default=2),
            n_d=cfg.number("synth", "n_d", int, default=30),
            eta=cfg.number("synth", "eta", default=0.5),
            alpha=cfg.number("synth", "alpha", default=0.5))
        save_corpus(corpus, out / "corpus.txt")
        return EXIT_OK
    raise ConfigError(f"unknown synth kind {kind!r} (regression|corpus)")


def cmd_oracle_check(cfg: RunConfig) -> int:
    model = build_model(cfg)
    if not isinstance(model, NormalHierModel):
        raise ConfigError("oracle-check applies to the normal-hier model")
    grid, M = cfg.grid(cfg.rect()), cfg.M
    trace = run_chain(model, cfg, "oracle-check")
    family = ExpFamilyRatio(model.spec(), cfg.h1())
    tours = trace_tours(trace)
    est = surface_on_grid(trace, family, grid, tours=tours, M=M)
    h1 = cfg.h1()
    truth = np.array([model.oracle_B(h, h1) for h in grid])
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
    for name in ("surface", "argmax", "st-tune", "st-run", "synth",
                 "oracle-check"):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to key=value config file")
    p = sub.add_parser("band")
    p.add_argument("config", help="path to key=value config file")
    p.add_argument("--replicate", type=int, default=0,
                   help="run a coverage study with this many replications")
    args = parser.parse_args(argv)

    try:
        cfg = RunConfig(args.config)
        if args.command == "surface":
            return cmd_surface(cfg)
        if args.command == "argmax":
            return cmd_argmax(cfg)
        if args.command == "band":
            return cmd_band(cfg, replicate=args.replicate)
        if args.command == "st-tune":
            return cmd_st_tune(cfg)
        if args.command == "st-run":
            return cmd_st_run(cfg)
        if args.command == "synth":
            return cmd_synth(cfg)
        if args.command == "oracle-check":
            return cmd_oracle_check(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
