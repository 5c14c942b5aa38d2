"""Run one workload in this interpreter and print its measurements as JSON.

``run.py`` starts this file in a fresh interpreter with ``src`` on the path,
so the peak memory it reports belongs to the workload alone.  The workload is
one closed-loop client: it calls ``conicpd.cli.main(argv)`` in process, one
task after another, and repeats the task list until ``--seconds`` have
passed.  Every task's output is checked on its first run and must come back
byte-identical on every later run.

Set-up is timed here too, between passes: ``--setup-probes`` fresh
interpreters, spread evenly over the run, each import ``conicpd.cli`` and
call ``build_parser()``.  The worker waits for each one, so none overlaps a
task.  After every untraced task a few milliseconds of the workload's
calibration work (the same kind of work, in code that is not conicpd's),
outside the task's timing, measure how fast the host runs at that time;
run.py scales the times by it (see ``calibration_seconds``).

With ``--trace 1`` the passes alternate between untraced and traced, so the
tracing overhead is measured against untraced passes of the same run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import mpmath
import numpy
import scipy

import conicpd
import conicpd.cli
from spans import Tracer
from workloads import CALIBRATIONS, REFERENCE_CALIBRATION_S, WORKLOADS, build_tasks, mc_cost

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
PROBE = ("import time; t = time.perf_counter(); import conicpd.cli as cli; "
         "cli.build_parser(); print(time.perf_counter() - t)")


def setup_probe() -> float:
    """Import-and-parser seconds of one fresh interpreter (same environment as this one)."""
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, capture_output=True,
                          text=True, check=True, timeout=120)
    return float(proc.stdout.strip().splitlines()[-1])


def run_task(task) -> tuple[int, str, str, float]:
    """One CLI call: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = conicpd.cli.main(list(task.argv))
        except Exception:  # a crash is a failed task, not a failed benchmark
            traceback.print_exc()
            code = -1
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


class Checker:
    """First output of each task is checked; later outputs must repeat it byte for byte.

    Only a digest of the first output is kept, with its check result and its
    Monte Carlo estimates, so the outputs add nothing to the peak memory.
    """

    def __init__(self, tasks):
        self.tasks = tasks
        self.first: list[tuple | None] = [None] * len(tasks)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, index, code, out, err):
        self.attempted += 1
        task = self.tasks[index]
        problems = []
        if code != 0:
            problems.append(f"exit code {code}: {err.strip()[-500:]}")
        elif self.first[index] is None:
            try:
                checked, estimates = task.check(out)
            except Exception as exc:  # unparsable output fails the task
                checked, estimates = [f"output check raised {exc!r}"], []
            self.first[index] = (hashlib.sha256(out.encode()).digest(), checked, estimates)
            problems += checked
        else:
            digest, checked, _estimates = self.first[index]
            problems += checked
            if hashlib.sha256(out.encode()).digest() != digest:
                problems.append("output differs from the first run")
        if problems:
            self.failed += 1
            self.errors += [f"{' '.join(task.argv)}: {p}" for p in problems[:3]]

    def estimates(self, index):
        first = self.first[index]
        return first[2] if first is not None and not first[1] else []


def calibration_seconds(work) -> float:
    """Seconds one run of a workload's calibration work takes (workloads.CALIBRATIONS).

    The fastest of these timings in a run follows how fast the host let this
    process run during that run, as the tasks' fastest runs do.
    """
    start = time.perf_counter()
    value = work()
    elapsed = time.perf_counter() - start
    if not math.isfinite(value):
        raise ArithmeticError("calibration work gave a non-finite result")
    return elapsed


def fastest_sum(times) -> float:
    """Sum over tasks of each task's fastest run.

    Interference from other tenants of a shared host only ever adds time.
    On a 2-vCPU VM, code ran up to ~2x slower than its best, smoothly (no
    scheduling gaps or steal time), in phases from a fraction of a second to
    minutes.  A task of at most a few tenths of a second, run 20 or more
    times in a run, has some runs at the best speed the host gave in that
    run, so its minimum is steady where its median follows how busy the
    host was.
    """
    return sum(min(t) for t in times)


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float,
        setup_probes: int = 0) -> dict:
    tasks = build_tasks(workload, seed, scale)
    checker = Checker(tasks)
    tracer = Tracer() if trace else None
    plain = [[] for _ in tasks]
    traced = [[] for _ in tasks]
    traced_bytes = []
    passes = 0
    setup = []
    calibration = []
    start = time.perf_counter()
    deadline = start + seconds
    # At least three passes: with tracing, two untraced and one traced.
    while passes < 3 or time.perf_counter() < deadline:
        tracing = trace and passes % 2 == 1
        if tracing:
            tracer.begin_pass()
            tracer.install()
        nbytes = 0
        try:
            for index, task in enumerate(tasks):
                code, out, err, dt = run_task(task)
                (traced if tracing else plain)[index].append(dt)
                nbytes += len(out.encode())
                # Checks call no conicpd code, so they add no spans.
                checker.record(index, code, out, err)
                del out  # so the next task runs without this output in memory
                if not tracing:
                    calibration.append(calibration_seconds(CALIBRATIONS[workload]))
        finally:
            if tracing:
                tracer.uninstall()
        if tracing:
            traced_bytes.append(nbytes)
        passes += 1
        # Probe k is due (k + 1/2) / setup_probes of the way through the run.
        now = time.perf_counter()
        while (len(setup) < setup_probes
               and now - start >= seconds * (len(setup) + 0.5) / setup_probes):
            setup.append(setup_probe())
    while len(setup) < setup_probes:
        setup.append(setup_probe())

    result = {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "errors": checker.errors[:20],
        "passes": passes,
        "wall_s": fastest_sum(plain),
        "setup_s": statistics.median(setup) if setup else None,
        "speed": REFERENCE_CALIBRATION_S[workload] / min(calibration),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "stamp": stamp(workload, seed),
    }
    result["mc_cost_s"] = sum(mc_cost(checker.estimates(i), min(t))
                              for i, t in enumerate(plain))
    if trace:
        layers = tracer.metrics(traced_bytes)
        layers["trace.overhead"] = fastest_sum(traced) / result["wall_s"] - 1.0
        result["per_layer"] = layers
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{workload}-seed{seed}.jsonl.gz")
    return result


def stamp(workload: str, seed: int) -> dict:
    """Machine and program identity; chunk size is recorded because it changes MC results."""
    estimation = sys.modules.get("conicpd.estimation")
    return {
        "workload": workload, "seed": seed, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "conicpd": conicpd.__version__,
        "chunk_rows": getattr(estimation, "CHUNK_ROWS", None),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--setup-probes", type=int, default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale,
                 args.setup_probes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
