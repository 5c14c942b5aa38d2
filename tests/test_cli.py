import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conicpd import DomainError, PartitionSpec, __version__, box_mass_L
from conicpd.cli import _fmt, main, parse_step_function
from conicpd.estimation import CHUNK_ROWS


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(text):
    return [json.loads(line) for line in text.strip().splitlines()]


# --------------------------------------------------------- step-function DSL

def test_parse_step_function_roundtrip():
    f = parse_step_function("2@0:0.5,0.5@0.5:1")
    assert np.array_equal(f.breakpoints, [0.0, 0.5, 1.0])
    assert np.array_equal(f.values, [2.0, 0.5])


def test_parse_step_function_constant_and_reordering():
    f = parse_step_function("1@0:1")
    assert np.array_equal(f.values, [1.0])
    g = parse_step_function("0.5@0.5:1,2@0:0.5")   # order does not matter
    assert np.array_equal(g.values, [2.0, 0.5])


def test_parse_step_function_gap_names_segment():
    with pytest.raises(DomainError, match=r"'0\.5@0\.6:1'.*gap"):
        parse_step_function("2@0:0.5,0.5@0.6:1")


def test_parse_step_function_overlap():
    with pytest.raises(DomainError, match="overlaps"):
        parse_step_function("2@0:0.6,0.5@0.5:1")


def test_parse_step_function_other_errors():
    with pytest.raises(DomainError, match="non-positive"):
        parse_step_function("-2@0:1")
    with pytest.raises(DomainError, match=r"inside \[0, 1\)"):
        parse_step_function("2@0:1.5")
    with pytest.raises(DomainError, match="malformed"):
        parse_step_function("abc")
    with pytest.raises(DomainError, match="malformed"):
        parse_step_function("2@0")
    with pytest.raises(DomainError, match="right endpoint"):
        parse_step_function("2@0:0.5")
    with pytest.raises(DomainError, match="empty"):
        parse_step_function("   ")


# ------------------------------------------------------------ exit behaviour

def test_exit_codes(capsys, tmp_path):
    assert run_cli(capsys, ["saddle"])[0] == 0
    assert run_cli(capsys, [])[0] == 2
    assert run_cli(capsys, ["--help"])[0] == 0

    code, _out, err = run_cli(capsys, ["saddle", "--lambda", "-1"])
    assert code == 2 and "invalid configuration" in err

    code, _out, err = run_cli(capsys, ["laplace", "--samples", "10"])
    assert code == 2 and "--f" in err

    assert run_cli(capsys, ["sample", "--process", "weird"])[0] == 2
    assert run_cli(capsys, ["laplace", "--config", str(tmp_path / "missing.cfg")])[0] == 2
    assert run_cli(capsys, ["mellin", "--nmax", "100"])[0] == 2

    code, _out, err = run_cli(
        capsys, ["saddle", "--out", str(tmp_path / "no-such-dir" / "x.json")])
    assert code == 2 and "cannot write" in err

    # estimator refuses the infinite-variance region rather than emitting noise
    code, _out, err = run_cli(capsys, ["laplace", "--f", "0.5@0:1", "--samples", "10"])
    assert code == 2 and "diverges" in err


def test_oversized_stick_blocks_exit_2_without_running(capsys):
    # theta * log(1/eps) sticks per draw times the rows of one chunk would
    # need gigabytes; both routes refuse before drawing anything.
    for argv in (["sample", "--theta", "1e8", "--samples", "1"],
                 ["laplace", "--theta", "1e4", "--f", "1@0:1"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == "" and "--samples" in err, argv


def test_invariance_requires_both_explicit_functions(capsys):
    code, _out, err = run_cli(capsys, ["invariance", "--a", "2@0:1", "--samples", "100"])
    assert code == 2 and "both --a and --f" in err


# ---------------------------------------------------------------- output form

def test_saddle_json_output(capsys):
    code, out, _err = run_cli(capsys, ["saddle"])
    assert code == 0
    meta, record = json_lines(out)
    assert meta["version"] == "0.2.0"
    assert meta["config"]["command"] == "saddle"
    assert meta["config"]["lam"] == 1.0
    assert "out" not in meta["config"] and "config" not in meta["config"]
    assert record["gamma"] == pytest.approx(1.461632144968362341263, abs=1e-9)
    assert record["L"] == pytest.approx(-0.1214862905358496, abs=1e-9)
    # records are emitted with sorted keys
    first_record_line = out.strip().splitlines()[1]
    assert list(json.loads(first_record_line)) == sorted(record)


def test_meta_line_records_chunk_rows(capsys):
    # the Monte Carlo chunk size changes sampled output, so the meta line names it
    for fmt in ("json", "csv"):
        code, out, _err = run_cli(capsys, ["sample", "--samples", "1", "--format", fmt])
        assert code == 0
        first = out.splitlines()[0]
        meta = json.loads(first[2:] if fmt == "csv" else first)
        assert meta["chunk_rows"] == CHUNK_ROWS and meta["version"] == __version__


def test_mellin_csv_layout(capsys):
    code, out, _err = run_cli(capsys, ["mellin", "--nmax", "6"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# {")
    meta = json.loads(lines[0][2:])
    assert {"extrapolated_limit", "extrapolated_gap", "envelope_constant"} <= set(
        meta["config"])
    assert lines[1] == "n,lambda,r,gamma,L,lnFn_over_n,gap"
    assert len(lines) == 2 + 5   # n = 2..6
    first = lines[2].split(",")
    assert first[0] == "2" and float(first[1]) == 1.0 and float(first[2]) == 1.0


def test_sample_json_and_csv(capsys):
    code, out, _err = run_cli(capsys, ["sample", "--samples", "3", "--seed", "11"])
    assert code == 0
    lines = json_lines(out)
    assert len(lines) == 4
    for i, record in enumerate(lines[1:]):
        assert record["draw"] == i
        assert len(record["masses"]) == len(record["locations"])
        assert record["total_mass"] > 0.0

    code, out, _err = run_cli(
        capsys, ["sample", "--samples", "3", "--seed", "11", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == ("draw,atom,mass,location,total_mass,tail_bound,"
                        "log_weight,seed,stream_id")
    draws = {int(line.split(",")[0]) for line in lines[2:]}
    assert draws == {0, 1, 2}


def test_laplace_output_consistency(capsys):
    code, out, _err = run_cli(
        capsys, ["laplace", "--f", "2@0:1", "--samples", "20000", "--seed", "3"])
    assert code == 0
    _meta, record = json_lines(out)
    assert record["analytic"] == pytest.approx(0.5, rel=1e-12)
    assert abs(record["z_score"]) <= 4.0
    assert abs(record["estimate"] - 0.5) <= 4.0 * record["stderr"]


def test_invariance_explicit_pair(capsys):
    code, out, _err = run_cli(capsys, [
        "invariance", "--a", "2@0:0.5,0.5@0.5:1", "--f", "1.3@0:1",
        "--samples", "5000", "--seed", "5",
    ])
    assert code == 0
    _meta, record = json_lines(out)
    assert record["pair"] == 0
    assert record["phi"] == pytest.approx(1.0, abs=1e-14)
    assert record["analytic_residual"] <= 1e-14
    assert abs(record["z_score"]) <= 4.0


def test_invariance_random_pairs(capsys):
    code, out, _err = run_cli(
        capsys, ["invariance", "--pairs", "3", "--samples", "4000", "--seed", "2"])
    assert code == 0
    records = json_lines(out)[1:]
    assert [r["pair"] for r in records] == [0, 1, 2]
    for record in records:
        assert record["analytic_residual"] <= 1e-12
        assert abs(record["z_score"]) <= 5.0


def test_partition_sums_against_exact(capsys):
    code, out, _err = run_cli(capsys, [
        "partition-sums", "--weights", "1", "--b", "1", "--samples", "20000",
    ])
    assert code == 0
    _meta, record = json_lines(out)
    assert record["exact"] == pytest.approx(1.0, rel=1e-12)
    assert abs(record["z_score"]) <= 4.0


def test_box_mass_matches_library(capsys):
    code, out, _err = run_cli(
        capsys, ["box-mass", "--weights", "0.5,1.5", "--b", "0.5,1,2"])
    assert code == 0
    records = json_lines(out)[1:]
    spec = PartitionSpec(np.array([0.5, 1.5]))
    assert [r["b"] for r in records] == [0.5, 1.0, 2.0]
    for record in records:
        assert record["mass"] == pytest.approx(box_mass_L(spec, record["b"]), rel=1e-14)


def test_mp_demo_skips_mc_when_samples_zero(capsys):
    code, out, _err = run_cli(capsys, [
        "mp-demo", "--n", "3", "--smax", "1", "--spoints", "3", "--format", "csv",
    ])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "n,s,quad,mc,stderr,gauss,gap"
    assert len(lines) == 5
    assert all(line.split(",")[3] == "" for line in lines[2:])   # mc column empty


def test_divergence_subcommand(capsys):
    code, out, _err = run_cli(capsys, [
        "divergence", "--lambda", "2", "--nmin", "2", "--nmax", "4",
        "--schedule", "sqrt_n", "--format", "csv",
    ])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "n,lambda,r,gamma,L,lnFn_over_n,gap"
    radii = [float(line.split(",")[2]) for line in lines[2:]]
    assert radii == pytest.approx([np.sqrt(2), np.sqrt(3), 2.0], rel=1e-12)
    assert run_cli(capsys, ["divergence", "--schedule", "spiral"])[0] == 2


def test_fmt_prints_numpy_scalars_as_python_numbers():
    assert _fmt(np.float64(1.4616321449683622)) == "1.4616321449683622"
    assert _fmt(np.float32(0.5)) == "0.5"
    assert _fmt(np.int64(40)) == "40"
    assert _fmt(1.0) == "1.0" and _fmt(3) == "3" and _fmt(None) == "" and _fmt("a") == "a"


@pytest.mark.parametrize("argv", [
    ["mellin", "--lambda", "0.3", "--nmax", "5"],
    ["divergence", "--lambda", "0.5", "--schedule", "sqrt_n", "--nmax", "5"],
    ["saddle", "--lambda", "3", "--format", "csv"],
])
def test_contour_csv_cells_parse_as_floats(capsys, argv):
    code, out, _err = run_cli(capsys, argv)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# {")
    assert len(lines) >= 3
    for line in lines[2:]:
        for cell in line.split(","):
            float(cell)


# ------------------------------------------------------------- configuration

def test_config_file_precedence(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\ntheta = 1.5\nsamples = 500\nseed = 9\n")
    code, out, _err = run_cli(capsys, [
        "laplace", "--f", "2@0:1", "--config", str(cfg), "--samples", "600",
    ])
    assert code == 0
    meta, record = json_lines(out)
    resolved = meta["config"]
    assert resolved["theta"] == 1.5      # from file
    assert resolved["samples"] == 600    # flag wins over file
    assert resolved["seed"] == 9         # from file
    assert record["analytic"] == pytest.approx(2.0 ** -1.5, rel=1e-12)


def test_config_file_lambda_key(capsys, tmp_path):
    cfg = tmp_path / "lam.cfg"
    cfg.write_text("lambda = 2.0\n")
    code, out, _err = run_cli(capsys, ["saddle", "--config", str(cfg)])
    assert code == 0
    meta, record = json_lines(out)
    assert meta["config"]["lam"] == 2.0
    assert record["gamma"] == pytest.approx(2.479687450428178690538, abs=1e-9)


def test_config_file_rejects_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("thota = 1.5\n")
    code, _out, err = run_cli(capsys, ["saddle", "--config", str(cfg)])
    assert code == 2 and "unknown key 'thota'" in err
    cfg.write_text("just some text\n")
    assert run_cli(capsys, ["saddle", "--config", str(cfg)])[0] == 2


def test_negative_seed_rejected(capsys):
    assert run_cli(capsys, ["saddle", "--seed", "-3"])[0] == 2


# ------------------------------------------------------------- repeatability

def rerun_bytes(tmp_path, name, argv):
    first = tmp_path / f"{name}_a.out"
    second = tmp_path / f"{name}_b.out"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    return first.read_bytes(), second.read_bytes()


def test_byte_identical_reruns(tmp_path):
    cases = {
        "laplace": ["laplace", "--f", "2@0:0.5,0.6@0.5:1", "--samples", "20000",
                    "--seed", "7", "--streams", "2"],
        "mellin": ["mellin", "--nmax", "8"],
        "sample": ["sample", "--samples", "4", "--seed", "21", "--format", "csv"],
        "invariance": ["invariance", "--pairs", "2", "--samples", "3000", "--seed", "13"],
    }
    for name, argv in cases.items():
        a, b = rerun_bytes(tmp_path, name, argv)
        assert a == b, f"{name} output changed between identical runs"
        assert len(a) > 0


def test_different_seed_changes_output(tmp_path):
    base = ["laplace", "--f", "2@0:1", "--samples", "5000"]
    a, _ = rerun_bytes(tmp_path, "seed0", base + ["--seed", "0"])
    b, _ = rerun_bytes(tmp_path, "seed1", base + ["--seed", "1"])
    assert a != b


# ------------------------------------------------------------ console script

REPO = Path(__file__).resolve().parent.parent


def read_pyproject():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: setuptools>=61 ships a reader
        from setuptools.config.pyprojecttoml import load_file
        return load_file(REPO / "pyproject.toml")
    with open(REPO / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)


def write_launcher(bin_dir, entry_point):
    """Write the launcher script pip's installer generates for a console script."""
    module, sep, attr = entry_point.partition(":")
    assert sep and module and attr.isidentifier(), \
        f"console script {entry_point!r} is not module:attr"
    bin_dir.mkdir()
    launcher = bin_dir / "conicpd"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n"
    )
    launcher.chmod(0o755)


def check_console_script(path, env=None):
    """Run the command as a process: saddle output and exit codes 0 and 2."""
    proc = subprocess.run([path, "saddle", "--lambda", "2"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[1])
    assert record["gamma"] == pytest.approx(2.479687450428178690538, abs=1e-9)
    bad = subprocess.run([path, "saddle", "--lambda", "-1"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert bad.returncode == 2, bad.stderr
    assert "invalid configuration" in bad.stderr


def test_console_script_installed(tmp_path):
    """The declared ``conicpd`` entry point, launched as pip would install it."""
    entry_point = read_pyproject().get("project", {}).get("scripts", {}).get("conicpd")
    assert entry_point is not None, "pyproject.toml declares no conicpd script"
    bin_dir = tmp_path / "bin"
    write_launcher(bin_dir, entry_point)
    search = os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")])
    path = shutil.which("conicpd", path=search)
    assert path == str(bin_dir / "conicpd")
    env = dict(os.environ, PATH=search, PYTHONPATH=str(REPO / "src"))
    check_console_script(path, env)


@pytest.mark.skipif(shutil.which("conicpd") is None,
                    reason="no installed conicpd command on PATH")
def test_installed_console_script_on_path():
    check_console_script(shutil.which("conicpd"))
