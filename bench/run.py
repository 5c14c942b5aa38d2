"""conicpd benchmark: one workload, measured end to end or traced by layer.

Usage, from the repository root:

    python3 bench/run.py --workload mc --seed 1 --seconds 35 --trace 0

Workloads are ``mc``, ``quadrature`` and ``draws`` (see bench/workloads.py
for what each one runs and why).  With ``--trace 0`` the end-to-end metrics
are reported:

* ``setup_s``: median over fresh interpreters, started between passes, of
  importing ``conicpd.cli`` and calling ``build_parser()``;
* ``wall_s``: time for the workload's task list after set-up, as the sum
  over tasks of each task's fastest run in the passes made in ``--seconds``;
* ``peak_rss_mb``: peak resident memory of the workload's own process;
* ``mc_cost_s``: sum over tasks of seconds * (stderr / (1e-3 |exact|))^2 for
  their worst estimate, the projected time to reach 0.1% relative error.

The three times are given at a reference host speed: each is multiplied by
the reference time of the workload's calibration work over its fastest
timing between the tasks of the same run (workloads.CALIBRATIONS).  The
times as measured, and that factor, are printed on their own lines.
``error_rate`` (failed / attempted) is printed with them.

With ``--trace 1`` the per-layer metrics of a traced run are reported
instead.  Metric names and units are read from BENCHMARK.json at the
repository root.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Only the standard
library is used here; the workload runs in a child interpreter (worker.py)
with ``src`` on its path.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
TIME_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    # One client, no threads: keep BLAS single-threaded too.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="conicpd benchmark")
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="task size factor; below 1 only for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "conicpd" / "cli.py").is_file():
        print(f"bench: no conicpd sources under {SRC}", file=sys.stderr)
        return 2

    env = child_env()
    # The worker and the set-up probes it starts share one process group, so
    # a timeout ends them all.
    worker = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--scale", str(args.scale),
         "--setup-probes", str(0 if args.trace else SETUP_PROBES)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, stderr = worker.communicate(timeout=TIME_LIMIT_S)
    except BaseException:
        os.killpg(worker.pid, signal.SIGKILL)
        worker.communicate()
        print(f"bench: worker did not finish within {TIME_LIMIT_S:.0f} s", file=sys.stderr)
        raise
    sys.stderr.write(stderr)
    if worker.returncode != 0:
        print(f"bench: worker exited with code {worker.returncode}", file=sys.stderr)
        return 1
    result = json.loads(stdout.strip().splitlines()[-1])

    if args.trace:
        # A layer the workload never calls has no spans: its metrics are 0.
        listed = spec["per_layer"]
        values = defaultdict(float, result["per_layer"])
    else:
        listed = spec["end_to_end"]
        speed = result["speed"]
        values = {"wall_s": result["wall_s"] * speed, "setup_s": result["setup_s"] * speed,
                  "peak_rss_mb": result["peak_rss_mb"],
                  "mc_cost_s": result["mc_cost_s"] * speed}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{result['passes']} passes, {attempted} tasks run, {failed} failed")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'error_rate':40s} {failed / attempted:.6g} failed/attempted")
    if not args.trace:
        print(f"  {'host speed factor':40s} {speed:.6g} (reference / this run's calibration)")
        for name in ("wall_s", "setup_s", "mc_cost_s"):
            print(f"  {name + ' as measured':40s} {result[name]:.6g} s")
    for error in result["errors"]:
        print(f"  error: {error}")
    print("stamp " + json.dumps({**result["stamp"], "git_commit": git_commit()}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
