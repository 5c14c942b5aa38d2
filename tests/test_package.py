"""The package as a whole.  Every public name is looked up in its defining
module on first use, so importing conicpd loads no module that is not used;
pyproject.toml carries the package's version; the demos run."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import conicpd

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", [n for n in conicpd.__all__ if n != "__version__"])
def test_public_names_are_the_defining_modules_objects(name):
    module = importlib.import_module(f"conicpd.{conicpd._EXPORTS[name]}")
    assert getattr(conicpd, name) is getattr(module, name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from conicpd import *", namespace)
    assert set(conicpd.__all__) <= namespace.keys()
    assert all(namespace[n] is getattr(conicpd, n) for n in conicpd.__all__)


def test_unknown_names_raise_attribute_error():
    assert not hasattr(conicpd, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        conicpd.no_such_name
    with pytest.raises(ImportError):
        exec("from conicpd import no_such_name", {})


def test_submodules_import_through_the_package():
    from conicpd import processes
    assert processes is importlib.import_module("conicpd.processes")
    assert processes.RngStream is conicpd.RngStream


def _fresh(code):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(REPO / "src")), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_dir_lists_every_public_name_before_it_is_looked_up():
    code = ("import json, conicpd; "
            "print(json.dumps(sorted(set(conicpd.__all__) - set(dir(conicpd)))))")
    assert _fresh(code) == []


def test_importing_the_package_loads_only_what_is_looked_up():
    code = ("import json, sys, conicpd; loaded = lambda: sorted(m for m in sys.modules "
            "if m.startswith(('conicpd.', 'scipy'))); before = loaded(); "
            "conicpd.RngStream; print(json.dumps([before, loaded()]))")
    assert _fresh(code) == [[], ["conicpd.errors", "conicpd.processes", "conicpd.stepfn"]]


def test_pyproject_version_is_the_package_version():
    # A regex, not tomllib: Python 3.10 has no TOML reader in the standard library.
    text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert re.findall(r'^version\s*=\s*"([^"]+)"', project, re.M) == [conicpd.__version__]


@pytest.mark.parametrize("demo", sorted(p.name for p in (REPO / "demos").glob("*.py")))
def test_demo_runs(tmp_path, demo):
    # Each demo runs in a fresh directory, where it may write its figure;
    # one that uses a public name the package no longer has fails here.
    proc = subprocess.run([sys.executable, str(REPO / "demos" / demo)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(REPO / "src")))
    assert proc.returncode == 0, proc.stderr
    if demo == "growth_rate.py":  # it reads the limit study's fields
        assert "extrapolated limit" in proc.stdout
