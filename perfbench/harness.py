"""Child processes and workload set-up, shared by the plain and traced runs."""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import Workload, render_configs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_REPEATS = 5          # fewest set-ups in a benchmark run; setup_s is their median
CHILD_TIMEOUT_S = 45.0     # a command running longer is killed and counted failed;
                           # the slowest takes ~12 s, and a run with hung commands
                           # must still end within three minutes
TRACEBACK = "Traceback (most recent call last)"


class SetupError(RuntimeError):
    pass


def program_present() -> bool:
    return (SRC / "priorscan" / "cli.py").is_file()


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # bytecode is compiled once, in set-up, and not charged to every command
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@dataclass(frozen=True)
class ChildResult:
    wall_s: float      # process start to exit
    rss_mb: float      # the child's own ru_maxrss
    code: int          # exit code; negative for a signal
    log: str           # stdout and stderr

    @property
    def traceback(self) -> bool:
        return TRACEBACK in self.log


def run_child(args: list[str], cwd: Path, log_path: Path) -> ChildResult:
    """Run ``python3 <args>`` in ``cwd`` and wait for it.

    Resource use comes from ``os.wait4`` for this child alone:
    RUSAGE_CHILDREN is a running maximum over every child reaped so far.
    """
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=_child_env(),
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(wall_s=wall, rss_mb=usage.ru_maxrss / 1024.0,
                       code=proc.returncode, log=log_path.read_text())


def cli_args(command: str, config: str) -> list[str]:
    """What a user's ``priorscan <command> <config>`` runs."""
    return ["-m", "priorscan.cli", command, config]


def set_up(wl: Workload, seed: int, rundir: Path) -> float:
    """Write the configs and synthesize the inputs; returns the seconds taken.

    The synth child imports priorscan.cli, which compiles its bytecode; a
    workload without inputs imports it in a child of its own instead.
    """
    t0 = time.perf_counter()
    rundir.mkdir(parents=True)
    for name, text in render_configs(wl.params, seed).items():
        (rundir / name).write_text(text)
    if wl.params.synth:
        res = run_child(cli_args("synth", "synth.ini"), rundir, rundir / "synth.log")
    else:
        res = run_child(["-c", "import priorscan.cli"], rundir, rundir / "import.log")
    if res.code != 0:
        raise SetupError(f"set-up of {wl.name} exited {res.code}:\n{res.log}")
    return time.perf_counter() - t0


def fresh_rundir(wl: Workload, trace: bool) -> Path:
    """An empty run directory; it replaces the previous run's, so the disk
    holds one run per workload and mode (a toy run writes ~10 MB)."""
    base = RUNS / f"{wl.name}{'-traced' if trace else ''}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    return base


def median_of(passes: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
