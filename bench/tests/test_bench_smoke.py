"""Smoke tests of the benchmark itself, at tiny task sizes.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import worker  # noqa: E402
from workloads import WORKLOADS, build_tasks  # noqa: E402

TINY = 0.02
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("special.log_gamma_complex.calls", "estimation.chunks", "processes.stick_fill",
          "cli.bytes_out", "processes.stick_masses_batch.calls", "mellin.log_F_contour.calls",
          "processes.sample_gem.calls")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_workload_passes_and_counts_repeat(workload):
    first = worker.run(workload, seed=3, seconds=0.0, trace=True, scale=TINY)
    again = worker.run(workload, seed=3, seconds=0.0, trace=True, scale=TINY)
    assert first["failed"] == 0, first["errors"]
    assert first["attempted"] == first["passes"] * len(build_tasks(workload, 3, TINY))
    for name in COUNTS:
        assert first["per_layer"].get(name) == again["per_layer"].get(name), name
    assert first["mc_cost_s"] > 0.0 and first["wall_s"] > 0.0


def test_counts_land_in_the_layers_each_workload_exercises():
    layers = {w: defaultdict(float, worker.run(w, seed=5, seconds=0.0, trace=True,
                                               scale=TINY)["per_layer"])
              for w in WORKLOADS}
    # Every listed metric is produced by some workload (a misspelt name would not be).
    for metric in SPEC["per_layer"]:
        assert any(layers[w][metric["name"]] != 0.0 for w in WORKLOADS), metric
    assert layers["mc"]["processes.stick_masses_batch.calls"] > 0
    assert 0.0 < layers["mc"]["processes.stick_fill"] < 1.0
    assert layers["mc"]["estimation.chunks"] >= layers["mc"]["processes.stick_masses_batch.calls"]
    assert layers["mc"]["mellin.log_F_contour.calls"] == 0
    assert layers["quadrature"]["special.log_gamma_complex.calls"] > 0
    assert layers["quadrature"]["processes.stick_masses_batch.calls"] == 0
    assert layers["mc"]["processes.sample_gem.calls"] == 0
    assert layers["draws"]["processes.sample_gem.calls"] > 0
    assert layers["draws"]["processes.stick_masses_batch.calls"] == 0
    assert layers["draws"]["mellin.log_F_contour.calls"] == 0
    assert layers["quadrature"]["processes.sample_gem.calls"] == 0


def test_seed_sets_every_task_seed():
    def argv_of(seed):
        return [t.argv for t in build_tasks("mc", seed, TINY)]

    assert argv_of(1) == argv_of(1)
    assert argv_of(1) != argv_of(2)


def _scale_field(out, field, factor):
    """Multiply one field of the first record by factor, in JSON or CSV output."""
    lines = out.splitlines()
    if lines[0].startswith("# "):
        col = lines[1].split(",").index(field)
        cells = lines[2].split(",")
        cells[col] = repr(float(cells[col]) * factor)
        lines[2] = ",".join(cells)
    else:
        record = json.loads(lines[1])
        record[field] *= factor
        lines[1] = json.dumps(record, sort_keys=True)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("workload, index, field", [
    ("mc", 0, "analytic"),        # laplace, JSON
    ("draws", -1, "total_mass"),  # sample, CSV
    ("quadrature", 0, "lnFn_over_n"),  # mellin, CSV
])
def test_checks_reject_corrupted_outputs(workload, index, field):
    task = build_tasks(workload, 7, TINY)[index]
    code, out, _err, _dt = worker.run_task(task)
    assert code == 0 and task.check(out)[0] == []
    assert task.check(_scale_field(out, field, 1.01))[0] != []


def _run_bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_run_prints_every_end_to_end_metric_last():
    proc = _run_bench(ROOT, "--workload", "quadrature", "--seed", "2", "--seconds", "0",
                      "--trace", "0", "--scale", str(TINY))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "error_rate" in proc.stdout


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "mc", "--seed", "1", "--seconds", "1",
                      "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
