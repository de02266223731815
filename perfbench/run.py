"""priorscan benchmark: wall time, peak RSS and ESS/s of the CLI commands.

Run from the root of a checkout:

    python3 perfbench/run.py --workload toy-regen --seed 1 --seconds 58 --trace 0

``--trace 0`` runs the priorscan CLI as a user does: one child process per
command, one after another, driven from this process (a closed loop with a
single client, no parallel runs).  ``setup_s`` is the median of at least
five set-ups (configs, then ``priorscan synth`` or a warm ``import
priorscan.cli``), one before each pass and the rest after the last.  The
run prints, by name and unit, the wall time and ``ru_maxrss`` of every
command (``surface_s``, ``argmax_s``, ``band_s``, ``st_run_s``,
``*_rss_mb``), their sum ``total_s``, ``ess_per_s`` (minimum batch-means
ESS over the components of T in surface's trace.txt, over ``surface_s``),
``failed_frac`` and ``cli.warn_exits``.  BENCHMARK.json bounds only
``setup_s``, ``total_s``, ``peak_rss_mb`` and ``surface_rss_mb``.  Single
command times are left out because not every workload runs every command
(``band_s`` is toy-regen's alone, ``st_run_s`` lda-st's), and their sum is
bounded as ``total_s``; a one-chain ESS estimate has a relative error near
sqrt(2 / sqrt(n)), 29% on lda-st, past the largest bound, 0.25, a metric
may have.

``--trace 1`` runs the same pipeline in-process through the library, timing
each module from outside (traced.py), and prints the per-layer metrics.

A run repeats the workload's commands while another pass fits in
``--seconds`` (at least once) and reports medians over passes; the
workloads are sized so that two passes fit in the 58 s of BENCHMARK.json.
On a shared 2-vCPU host the CPU speed drifts by ~15% over minutes (a
pure-Python loop alone shows it), which no run length removes; longer runs
smooth only its swings of tens of seconds.  Outputs are checked after every
pass, outside the timed window.  The last line of stdout is one JSON object
with keys correct, attempted, failed and metrics.  Run directories go to
.bench_runs/ in the checkout.

The workloads, and why each exists, are in workloads.py.  The ESS
estimator's tests: python3 -m pytest perfbench
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

from ess import trace_body_stats
from harness import (ROOT, SETUP_REPEATS, SRC, ChildResult, SetupError, cli_args, fresh_rundir,
                     median_of, program_present, run_child, set_up)
from reconcile import CLI_ROWS, reconcile
from workloads import OUT, WORKLOADS, Check, Workload, parse_output


def unit_of(name: str) -> str:
    return "1/s" if name.endswith("_per_s") else "MB" if name.endswith("_mb") else "s"


def metric_key(command: str) -> str:
    return command.replace("-", "_")


def output_digests(outdir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir())}


def combined_digest(digests: dict[str, str]) -> str:
    text = "".join(f"{name} {d}\n" for name, d in digests.items())
    return hashlib.sha256(text.encode()).hexdigest()


class Tally:
    """Operations attempted and failed: each command and each check is one."""

    def __init__(self):
        self.attempted = self.failed = self.warn_exits = 0
        self.lines: list[str] = []

    def command(self, name: str, res: ChildResult, problems: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        warn = res.code == 1 and not problems
        self.warn_exits += warn
        status = "FAILED: " + "; ".join(problems) if problems else (
            "ok, exit 1 (runtime warning)" if warn else "ok")
        self.lines.append(f"  command {name:8s} {res.wall_s:8.3f} s {res.rss_mb:8.1f} MB  "
                          f"{status}")

    def checks(self, checks: list[Check]) -> None:
        for c in checks:
            self.attempted += 1
            self.failed += not c.ok
            self.lines.append(f"  check {c.name:28s} {'PASS' if c.ok else 'FAIL'}  {c.detail}")


def command_problems(res: ChildResult, outdir: Path, outputs, parsed: dict) -> list[str]:
    """Exit 1 alone is not a failure: it also means 'runtime warning'."""
    problems = []
    if res.code not in (0, 1):
        problems.append(f"exit {res.code}")
    if res.traceback:
        problems.append("traceback on stderr")
    for name in outputs:
        try:
            parsed[name] = parse_output(outdir / name)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"{name}: {exc}")
    return problems


def run_checks(wl: Workload, outdir: Path, parsed: dict) -> list[Check]:
    try:
        return wl.check(outdir, wl.params, parsed)
    except Exception as exc:   # a missing or malformed output fails the checks
        return [Check(f"{wl.name}_checks", False, f"{type(exc).__name__}: {exc}")]


def one_pass(wl: Workload, rundir: Path, tally: Tally) -> tuple[dict[str, float], str]:
    outdir = rundir / OUT
    shutil.rmtree(outdir, ignore_errors=True)
    results = {c.name: run_child(cli_args(c.name, c.config), rundir,
                                 rundir / f"{c.name}.log")
               for c in wl.commands}
    # everything below is outside the timed window
    parsed: dict = {}
    for c in wl.commands:
        tally.command(c.name, results[c.name],
                      command_problems(results[c.name], outdir, c.outputs, parsed))
    tally.checks(run_checks(wl, outdir, parsed))

    m = {f"{metric_key(name)}_s": r.wall_s for name, r in results.items()}
    m.update({f"{metric_key(name)}_rss_mb": r.rss_mb for name, r in results.items()})
    m["total_s"] = sum(r.wall_s for r in results.values())
    m["peak_rss_mb"] = max(r.rss_mb for r in results.values())
    m["ess_per_s"] = 0.0    # stays 0 only when surface failed, which is counted
    if "trace.txt" in parsed:
        stats = trace_body_stats(*parsed["trace.txt"])
        m["ess_per_s"] = stats.ess_min / results["surface"].wall_s
    digest = combined_digest(output_digests(outdir)) if outdir.is_dir() else "none"
    return m, digest


def run_plain(wl: Workload, seed: int, seconds: float, listed: set[str]):
    """Set up, run the commands, repeat while another round fits.

    Each pass starts from a set-up of its own, so set-ups are spread over
    the run like the passes are, rather than bunched at its start; set-ups
    are topped up to SETUP_REPEATS after the last pass.
    """
    base = fresh_rundir(wl, trace=False)
    tally = Tally()
    setups, passes, digests = [], [], []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rundir = base / f"setup-{len(setups)}"
        setups.append(set_up(wl, seed, rundir))
        m, digest = one_pass(wl, rundir, tally)
        passes.append(m)
        digests.append(digest)
        if time.perf_counter() - t_start + (time.perf_counter() - t0) > seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(set_up(wl, seed, base / f"setup-{len(setups)}"))
    values = median_of(passes)
    values["setup_s"] = statistics.median(setups)
    (base / "digests.json").write_text(json.dumps(
        {"per_pass": digests, "files": output_digests(rundir / OUT)}, indent=1))

    lines = [f"passes {len(passes)}; setup_s is the median of {len(setups)} set-ups; "
             "other values are medians over passes",
             *tally.lines,
             f"  outputs_sha256 {' '.join(sorted(set(digests)))}",
             "measured, not bounded in BENCHMARK.json:",
             f"  {'failed_frac':36s} {tally.failed / tally.attempted:.6g} ratio "
             f"({tally.failed} of {tally.attempted} operations)",
             f"  {'cli.warn_exits':36s} {tally.warn_exits} count"]
    lines += [f"  {k:36s} {v:.6g} {unit_of(k)}"
              for k, v in sorted(values.items()) if k not in listed]
    if wl.name == "toy-regen":
        lines.append("ROADMAP baseline table, CLI rows:")
        lines += reconcile(CLI_ROWS, values, n=wl.params.target["n"])
    return values, tally.attempted, tally.failed, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not program_present():
        print(f"priorscan sources not found under {SRC}; run the benchmark from "
              "the root of a priorscan checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload]
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {wl.why}", flush=True)
    try:
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        listed = {m["name"] for m in wanted}
        if args.trace:
            import traced
            values, attempted, failed, lines = traced.run(wl, args.seed, args.seconds,
                                                          listed)
        else:
            values, attempted, failed, lines = run_plain(wl, args.seed, args.seconds,
                                                         listed)
    except SetupError as exc:
        print(exc, file=sys.stderr)
        return 1
    print("\n".join(lines))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
