"""Every task of the benchmark's workloads passes its own check, once.

``bench/workloads.py`` is loaded as it stands, so a name it imports from
conicpd, a wrong estimate or a new warning fails here, in the tier-1 suite,
and not first in a benchmark run.  Each task runs at seed 3 and full scale
through ``conicpd.cli.main``, as ``bench/worker.py`` runs it.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import sys
import warnings
from pathlib import Path

import pytest

from conicpd import cli

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("workload", ["mc", "quadrature", "draws"])
def test_every_bench_task_exits_0_quietly_and_passes_its_check(workloads, workload):
    tasks = workloads.build_tasks(workload, 3, 1.0)
    assert tasks
    for task in tasks:
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main(list(task.argv))
        label = " ".join(task.argv)
        assert code == 0, (label, err.getvalue())
        assert err.getvalue() == "" and not caught, (label, err.getvalue(),
                                                    [str(w.message) for w in caught])
        problems, _estimates = task.check(out.getvalue())
        assert problems == [], label
