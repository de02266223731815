"""Traced run: the CLI commands' pipeline, called in-process through the
library, with a span around each call into a package module.

Spans (name, start, end, parent) are kept in memory and written to
spans.json in the run directory at the end.  A span's self time is its
duration minus the time its child spans cover.  Work too fine-grained for
spans is counted instead: kernel steps by wrapping the kernel (or, for
serial tempering, the per-anchor model) handed to the chain, and prior-ratio
evaluations by a counting subclass of ExpFamilyRatio / MixtureRatio passed
in as the family.  Peak allocation inside the estimator, argmax and band
calls comes from tracemalloc, which is on only around those calls; not
around batch_argmax_cov, whose ~100 small Python-level fits it slowed by
more than half on vs-batch, for arrays far smaller than the full-trace ones.

End-to-end numbers come only from the untraced run.  ``cli.<command>_s`` is
a command's pipeline in-process, without interpreter start-up and import
(``cli.import_s``); ``traced.total_s`` sums them, so the tracing overhead
shows against the untraced ``total_s`` less the imports.  ``cli.write_s``
times writing the command outputs through the library's public writers
(``to_csv``, ``to_json``), as the CLI's own helpers are private.
"""

from __future__ import annotations

import json
import math
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ess import chain_stats
from harness import fresh_rundir, median_of, run_child, set_up
from reconcile import STAGE_ROWS, reconcile
from workloads import Check, Params, Workload, read_csv

from priorscan import (ArgmaxReport, ExpFamilyRatio, HyperRect, MixtureRatio,
                       STGrid, batch_argmax_cov, confidence_ellipse,
                       functional_on_grid, global_band, hessian_Jn,
                       maximize_surface, run_st, segment_tours, simulate,
                       surface_on_grid, tau_n_sq, tour_sums, v_n_sq)
from priorscan.chain_runtime import load_trace, save_trace
from priorscan.cli import stream_rng
from priorscan.estimators import ESS_UNRELIABLE
from priorscan.models.lda import LDAModel, load_corpus
from priorscan.models.normal_hier import NormalHierModel
from priorscan.models.varsel import VSModel
from priorscan.serial_tempering import lattice_anchors, occupancies

ALPHA = 0.05
IMPORT_REPEATS = 3


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._open[-1] if self._open else None])
        self._open.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        return sum(e - s for n, s, e, _ in self.spans if n == name)

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for i, (name, s, e, _) in enumerate(self.spans):
            kids = sum(ke - ks for _, ks, ke, p in self.spans if p == i)
            out[name] = out.get(name, 0.0) + (e - s) - kids
        return out

    def dump(self, path: Path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        path.write_text(json.dumps(
            [{"name": n, "start": s - t0, "end": e - t0, "parent": p}
             for n, s, e, p in self.spans], indent=0))


class Counter:
    """Calls, seconds, points (draws x hyperparameters) and bytes of log f."""

    def __init__(self):
        self.calls = self.points = self.bytes = 0
        self.seconds = 0.0
        self.first_grid_s: float | None = None   # first log_f_many call

    def timed(self, fn, n_h: int, h, Tmat):
        t0 = time.perf_counter()
        out = fn(h, Tmat)
        dt = time.perf_counter() - t0
        self.seconds += dt
        if n_h > 1 and self.first_grid_s is None:
            self.first_grid_s = dt
        self.calls += 1
        self.points += Tmat.shape[0] * n_h
        self.bytes += out.nbytes
        return out


class Counting:
    """Mixin counting a ratio family's log f evaluations in ``counter``."""

    def __init__(self, *args, counter: Counter):
        super().__init__(*args)
        self.counter = counter

    def log_f(self, h, Tmat):
        return self.counter.timed(super().log_f, 1, h, Tmat)

    def log_f_many(self, h_grid, Tmat):
        return self.counter.timed(super().log_f_many, len(h_grid), h_grid, Tmat)


class CountingRatio(Counting, ExpFamilyRatio):
    pass


class CountingMixture(Counting, MixtureRatio):
    pass


class StepClock:
    def __init__(self):
        self.steps = 0
        self.seconds = 0.0


class TimedKernel:
    """Kernel wrapper timing start (burn-in included) and every step."""

    def __init__(self, inner, clock: StepClock):
        self.inner, self.clock = inner, clock
        self.has_regen = inner.has_regen
        self.kernel_id = inner.kernel_id

    def start(self, rng):
        t0 = time.perf_counter()
        state = self.inner.start(rng)
        self.clock.seconds += time.perf_counter() - t0
        return state

    def step(self, state, rng):
        t0 = time.perf_counter()
        out = self.inner.step(state, rng)
        self.clock.seconds += time.perf_counter() - t0
        self.clock.steps += 1
        return out

    def observe(self, state):
        return self.inner.observe(state)


class TimedSTModel:
    """Per-anchor model wrapper for serial tempering (run_st builds the kernel)."""

    def __init__(self, inner, clock: StepClock):
        self.inner, self.clock = inner, clock

    def start(self, rng):
        t0 = time.perf_counter()
        state = self.inner.start(rng)
        self.clock.seconds += time.perf_counter() - t0
        return state

    def anchor_step(self, j, theta, rng):
        t0 = time.perf_counter()
        out = self.inner.anchor_step(j, theta, rng)
        self.clock.seconds += time.perf_counter() - t0
        self.clock.steps += 1
        return out

    def suffstat(self, theta):
        return self.inner.suffstat(theta)

    def observe(self, theta):
        return self.inner.observe(theta)


@contextmanager
def peak_alloc(peaks: list[float]):
    """Append the tracemalloc peak (MB) of the enclosed call to ``peaks``."""
    tracemalloc.start()
    try:
        yield
    finally:
        peaks.append(tracemalloc.get_traced_memory()[1] / 2 ** 20)
        tracemalloc.stop()


def build_model(p: Params, rundir: Path, rect: HyperRect):
    if p.model == "normal-hier":
        return NormalHierModel(y=np.array([-2.0, -1.0, 0.0, 1.0, 2.0]), rect=rect)
    if p.model == "vs-bernoulli-zellner":
        _, data = read_csv(rundir / "inputs" / "regression.csv")
        return VSModel(y=data[:, 0], X=data[:, 1:], rect=rect)
    return LDAModel(load_corpus(rundir / "inputs" / "corpus.txt"), K=2, rect=rect)


class Pipeline:
    """One pass over the workload's commands; mirrors priorscan.cli."""

    def __init__(self, wl: Workload, seed: int, rundir: Path):
        self.p, self.seed = wl.params, seed
        self.commands = [c.name for c in wl.commands]
        self.out = rundir / "traced_out"
        self.out.mkdir(exist_ok=True)
        self.rect = HyperRect(lower=self.p.rect_lower, upper=self.p.rect_upper)
        self.grid = self.rect.grid(self.p.grid)
        self.h1 = np.asarray(self.p.h1, dtype=float)
        self.model = build_model(self.p, rundir, self.rect)
        self.tr = Tracer()
        self.log_f = Counter()
        self.mix_log_f = Counter()
        self.family = CountingRatio(self.model.spec(), self.h1, counter=self.log_f)
        self.chain_clock = StepClock()
        self.st_clock = StepClock()
        self.peaks = {"estimators": [], "argmax_inference": [], "band_inference": []}
        self.m: dict[str, float] = {}
        self.parsed: dict = {}          # outputs as the workload checks expect them
        self.warn_exits = 0
        self.unreliable = 0

    def chain(self, stream: str):
        kernel = (self.model.mh_kernel(self.h1) if self.p.model == "normal-hier"
                  else self.model.kernel(self.h1))
        with self.tr.span("chain_runtime.simulate"):
            t0 = time.perf_counter()
            trace = simulate(TimedKernel(kernel, self.chain_clock),
                             rng=stream_rng(self.seed, stream),
                             meta={"h1": list(self.h1)}, **self.p.target)
            return trace, time.perf_counter() - t0

    def tours(self, trace):
        """Tours as the CLI finds them, from the regeneration flags."""
        if not (trace.delta.sum() >= 2 or trace.ends_at_regen):
            return None
        with self.tr.span("chain_runtime.segment_tours"):
            return segment_tours(trace)

    def estimate(self, name: str, fn, *args, **kw):
        with self.tr.span(f"estimators.{name}"), peak_alloc(self.peaks["estimators"]):
            est = fn(*args, **kw)
        self.unreliable += int(np.count_nonzero(est.ess < ESS_UNRELIABLE))
        return est

    def write(self, path: Path, text_or_obj) -> None:
        with self.tr.span("cli.write"):
            if isinstance(text_or_obj, str):
                path.write_text(text_or_obj)
            else:
                text_or_obj.to_csv(path)

    @staticmethod
    def rows(est) -> np.ndarray:
        return np.column_stack([est.grid, est.values, est.se, est.ess])

    def surface(self) -> None:
        p = self.p
        with self.tr.span("cli.surface"):
            trace, sim_s = self.chain("surface")
            tours = self.tours(trace)
            est = self.estimate("surface_on_grid", surface_on_grid, trace,
                                self.family, self.grid, tours=tours)
            self.write(self.out / "surface.csv", est)
            fest = self.estimate("functional_on_grid", functional_on_grid, trace,
                                 self.family, p.functional, self.grid, tours=tours)
            self.write(self.out / f"functional_{p.functional}.csv", fest)
            with self.tr.span("chain_runtime.save_trace"):
                save_trace(trace, self.out / "trace.txt")
        with self.tr.span("chain_runtime.load_trace"):
            loaded = load_trace(self.out / "trace.txt")
        rows = np.column_stack([loaded.Tmat, *loaded.g.values()])
        stats = chain_stats(loaded.Tmat, rows, loaded.delta)
        n_tours = tours.R if tours is not None else 0
        self.m.update({
            "chain_runtime.draws_per_s": trace.n / sim_s,
            "chain_runtime.ess_min": stats.ess_min,
            "chain_runtime.ess_per_s": stats.ess_min / sim_s,
            "chain_runtime.tours": n_tours,
            "chain_runtime.tours_per_s": n_tours / sim_s,
            "chain_runtime.regen_rate": stats.regen_rate,
            "chain_runtime.accept_rate": stats.accept_rate,
            "chain_runtime.trace_bytes": (self.out / "trace.txt").stat().st_size,
            "surface_n": trace.n,
        })
        self.parsed["surface.csv"] = self.rows(est)
        self.parsed[f"functional_{p.functional}.csv"] = self.rows(fest)

    def argmax(self) -> None:
        with self.tr.span("cli.argmax"):
            trace, _ = self.chain("argmax")
            calls0 = self.log_f.calls
            with self.tr.span("argmax_inference.maximize"), \
                    peak_alloc(self.peaks["argmax_inference"]):
                res = maximize_surface(trace, self.family, self.rect)
            obj_evals = self.log_f.calls - calls0
            J = tau = None
            boundary = 0
            tours = self.tours(trace)
            if tours is not None:
                with self.tr.span("chain_runtime.tour_sums"):
                    tsums = tour_sums(trace, tours, self.family, res.h)
                with self.tr.span("argmax_inference.sandwich"), \
                        peak_alloc(self.peaks["argmax_inference"]):
                    J, tau = hessian_Jn(tsums), tau_n_sq(tsums)
                    v = v_n_sq(J, tau)
                    ellipse = confidence_ellipse(res.h, v, tours.R, ALPHA)
                R, n_eff, method = tours.R, tours.n_eff, "tour"
            else:
                M = max(2, math.ceil(math.sqrt(trace.n)))
                calls0 = self.log_f.calls
                with self.tr.span("argmax_inference.batch_cov"):
                    v, boundary = batch_argmax_cov(trace, self.family, self.rect, M,
                                                   h_n=res.h)
                    ellipse = confidence_ellipse(res.h, v, trace.n, ALPHA)
                self.m["argmax_inference.batch_cov_evals"] = self.log_f.calls - calls0
                R = n_eff = trace.n
                method = "batch"
            report = ArgmaxReport(
                h_n=res.h, J_n=J, tau_n_sq=tau, v_n_sq=v, R=R, n=n_eff,
                E_N1_hat=n_eff / R, alpha=ALPHA, chi2_threshold=ellipse.threshold,
                boundary_flag=res.boundary, ellipse=ellipse, method=method)
            text = report.to_json()
            self.write(self.out / "argmax.json", text)
        self.warn_exits += int(res.boundary)
        self.parsed["argmax.json"] = json.loads(text)
        self.m.update({
            "argmax_inference.obj_evals": obj_evals,
            "argmax_inference.boundary_count": boundary,
            "argmax_inference.multistart_consistent": int(res.multistart_consistent),
        })

    def band(self) -> None:
        with self.tr.span("cli.band"):
            trace, _ = self.chain("band")
            with self.tr.span("band_inference.global_band"), \
                    peak_alloc(self.peaks["band_inference"]):
                band = global_band(trace, self.family, self.p.functional, self.grid,
                                   alpha=ALPHA)
            self.write(self.out / "band.csv", band)
            self.write(self.out / "band.json", band.to_json())
        self.m["band_inference.M"] = band.M

    def st_run(self) -> None:
        p = self.p
        anchors = lattice_anchors(self.rect, [3, 3])
        st_grid = STGrid(anchors=anchors, zetas=np.asarray(p.st_zetas))
        with self.tr.span("cli.st_run"):
            with self.tr.span("serial_tempering.run"):
                trace = run_st(TimedSTModel(self.model.st_model(anchors), self.st_clock),
                               self.model.spec(), st_grid, n=p.st_n,
                               rng=stream_rng(self.seed, "st-run"))
                occ = occupancies(trace, st_grid.m)
            with self.tr.span("chain_runtime.save_trace"):
                save_trace(trace, self.out / "st_trace.txt")
            mix = CountingMixture(self.model.spec(), st_grid, counter=self.mix_log_f)
            est = self.estimate("surface_on_grid", surface_on_grid, trace, mix, self.grid)
            self.write(self.out / "st_surface.csv", est)
        self.m["chain_runtime.trace_bytes"] += (self.out / "st_trace.txt").stat().st_size
        self.m["serial_tempering.occupancy_ratio"] = float(occ.max() / occ.min())
        names = trace.functional_names
        body = np.column_stack([trace.Tmat, *(trace.g[k] for k in names), trace.delta])
        self.parsed["st_trace.txt"] = ({"stat_dim": trace.stat_dim, "functionals": names},
                                       body)
        self.parsed["occupancy.csv"] = np.column_stack([anchors, st_grid.zetas, occ])
        self.parsed["st_surface.csv"] = self.rows(est)

    def run(self) -> dict[str, float]:
        calls = {"surface": self.surface, "argmax": self.argmax, "band": self.band,
                 "st-run": self.st_run}
        for name in self.commands:
            calls[name]()
        tr, m = self.tr, self.m
        steps = self.chain_clock.steps + self.st_clock.steps
        step_s = self.chain_clock.seconds + self.st_clock.seconds
        m.setdefault("argmax_inference.batch_cov_evals", 0)
        m.setdefault("band_inference.M", 0)
        m.update({
            "models.step_s": step_s,
            "models.steps": steps,
            "models.step_us": 1e6 * step_s / steps,
            "chain_runtime.simulate_s": tr.total("chain_runtime.simulate"),
            "chain_runtime.simulate_self_s":
                tr.total("chain_runtime.simulate") - self.chain_clock.seconds,
            "chain_runtime.segment_tours_s": tr.total("chain_runtime.segment_tours"),
            "chain_runtime.tour_sums_s": tr.total("chain_runtime.tour_sums"),
            "chain_runtime.save_trace_s": tr.total("chain_runtime.save_trace"),
            "chain_runtime.load_trace_s": tr.total("chain_runtime.load_trace"),
            "prior_family.log_f_s": self.log_f.seconds,
            "prior_family.log_f_calls": self.log_f.calls,
            "prior_family.log_f_points": self.log_f.points,
            "prior_family.log_f_bytes": self.log_f.bytes,
            "estimators.surface_on_grid_s": tr.total("estimators.surface_on_grid"),
            "estimators.functional_on_grid_s": tr.total("estimators.functional_on_grid"),
            "estimators.peak_alloc_mb": max(self.peaks["estimators"]),
            "estimators.unreliable_points": self.unreliable,
            "argmax_inference.maximize_s": tr.total("argmax_inference.maximize"),
            "argmax_inference.sandwich_s": tr.total("argmax_inference.sandwich"),
            "argmax_inference.batch_cov_s": tr.total("argmax_inference.batch_cov"),
            "argmax_inference.variance_s": tr.total("argmax_inference.sandwich")
                + tr.total("argmax_inference.batch_cov"),
            "argmax_inference.peak_alloc_mb": max(self.peaks["argmax_inference"]),
            "band_inference.global_band_s": tr.total("band_inference.global_band"),
            "band_inference.peak_alloc_mb": max(self.peaks["band_inference"], default=0.0),
            "serial_tempering.run_s": tr.total("serial_tempering.run"),
            "serial_tempering.mixture_log_f_s": self.mix_log_f.seconds,
            "cli.surface_s": tr.total("cli.surface"),
            "cli.argmax_s": tr.total("cli.argmax"),
            "cli.band_s": tr.total("cli.band"),
            "cli.st_run_s": tr.total("cli.st_run"),
            "cli.write_s": tr.total("cli.write"),
            "cli.warn_exits": self.warn_exits,
            "traced.total_s": sum(tr.total(f"cli.{c}")
                                  for c in ("surface", "argmax", "band", "st_run")),
        })
        return m

    def reconciliation_inputs(self) -> dict[str, float]:
        """Stage figures named as in reconcile.STAGE_ROWS (toy-regen only)."""
        tr, peaks = self.tr, self.peaks["estimators"]
        first_sim = next(e - s for n, s, e, _ in tr.spans if n == "chain_runtime.simulate")
        first_save = next(e - s for n, s, e, _ in tr.spans if n == "chain_runtime.save_trace")
        return {
            "simulate_s": first_sim,
            "log_f_many_s": self.log_f.first_grid_s,
            "surface_on_grid_s": tr.total("estimators.surface_on_grid"),
            "functional_on_grid_s": tr.total("estimators.functional_on_grid"),
            "surface_alloc_mb": peaks[0],
            "functional_alloc_mb": peaks[1],
            "band_alloc_mb": max(self.peaks["band_inference"]),
            "maximize_s": tr.total("argmax_inference.maximize"),
            "save_trace_s": first_save,
        }


def cli_import_s(rundir: Path) -> float:
    """Median seconds for a fresh interpreter to import priorscan.cli."""
    code = ("import time; t0 = time.perf_counter(); import priorscan.cli; "
            "print(time.perf_counter() - t0)")
    times = []
    for i in range(IMPORT_REPEATS):
        res = run_child(["-c", code], rundir, rundir / f"import-{i}.log")
        if res.code != 0:
            raise RuntimeError(f"importing priorscan.cli failed:\n{res.log}")
        times.append(float(res.log.split()[-1]))
    return statistics.median(times)


def run(wl: Workload, seed: int, seconds: float, listed: set[str]):
    base = fresh_rundir(wl, trace=True)
    rundir = base / "setup-0"
    set_up(wl, seed, rundir)
    import_s = cli_import_s(rundir)
    passes, checks, lines = [], [], []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        pipe = Pipeline(wl, seed, rundir)
        m = pipe.run()
        last = time.perf_counter() - t0
        try:
            checks += wl.check(rundir / "traced_out", wl.params, pipe.parsed)
        except Exception as exc:
            checks.append(Check(f"{wl.name}_checks", False, f"{type(exc).__name__}: {exc}"))
        pipe.tr.dump(base / f"spans-{len(passes)}.json")
        passes.append(m)
        if time.perf_counter() - t_start + last > seconds:
            break
    values = median_of([{k: float(v) for k, v in m.items()} for m in passes])
    values["cli.import_s"] = import_s
    failed = sum(not c.ok for c in checks)

    lines.append(f"passes {len(passes)}; values are medians over passes; spans in "
                 f"{base.name}/spans-*.json")
    lines += [f"  check {c.name:28s} {'PASS' if c.ok else 'FAIL'}  {c.detail}"
              for c in checks]
    lines.append("self time by span name (last pass):")
    lines += [f"  {name:36s} {s:9.4f} s" for name, s in sorted(pipe.tr.self_times().items())]
    lines.append("path-specific values, not in BENCHMARK.json (0 where this "
                 "workload does not take the path):")
    lines += [f"  {k:44s} {v:.6g}" for k, v in sorted(values.items()) if k not in listed]
    if wl.name == "toy-regen":
        lines.append("ROADMAP baseline table, stage rows:")
        lines += reconcile(STAGE_ROWS, pipe.reconciliation_inputs(),
                           n=int(values["surface_n"]))
    # each command counts as one operation; one that raises ends the run
    attempted = len(passes) * len(wl.commands) + len(checks)
    return values, attempted, failed, lines
