import csv
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conicpd import (DomainError, PartitionSpec, __version__, box_mass_L, densities, laplace,
                     processes)
from conicpd import cli
from conicpd.cli import _SPECS, _fmt, _parser, main, parse_step_function
from conicpd.estimation import CHUNK_ROWS, stream_counts
from stick_batches import gamma_batch


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


# A tiling of [0, 1) by 1-12 pieces: its inner breakpoints, its values and
# the order its segments are written in.
_TILINGS = st.lists(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    max_size=11, unique=True,
).map(lambda inner: [0.0, *sorted(inner), 1.0]).flatmap(lambda edges: st.tuples(
    st.just(edges),
    st.lists(st.floats(min_value=1e-6, max_value=1e6),
             min_size=len(edges) - 1, max_size=len(edges) - 1),
    st.permutations(range(len(edges) - 1)),
))


def _segments(edges, values):
    return [f"{v!r}@{lo!r}:{hi!r}" for v, lo, hi in zip(values, edges[:-1], edges[1:])]


@settings(max_examples=100, deadline=None)
@given(_TILINGS)
def test_parse_step_function_round_trips_any_tiling(tiling):
    edges, values, order = tiling
    segments = _segments(edges, values)
    f = parse_step_function(",".join(segments[i] for i in order))
    assert f.breakpoints.tolist() == edges
    assert f.values.tolist() == values


@settings(max_examples=100, deadline=None)
@given(_TILINGS, st.sampled_from(["gap", "overlap", "right end"]), st.data())
def test_parse_step_function_names_the_segment_that_breaks_a_tiling(tiling, fault, data):
    edges, values, order = tiling
    pieces = len(values)
    if fault == "overlap":   # piece i starts inside the piece before it
        assume(pieces >= 2)
        i = data.draw(st.integers(1, pieces - 1))
        lo, hi = (edges[i - 1] + edges[i]) / 2, edges[i + 1]
        assume(edges[i - 1] < lo < edges[i])
    elif fault == "gap":     # piece i starts after the piece before it ends
        i = data.draw(st.integers(0, pieces - 1))
        lo, hi = (edges[i] + edges[i + 1]) / 2, edges[i + 1]
        assume(edges[i] < lo < hi)
    else:                    # the last piece stops short of 1
        i = pieces - 1
        lo, hi = edges[i], (edges[i] + 1.0) / 2
        assume(lo < hi < 1.0)
    segments = _segments(edges, values)
    segments[i] = f"{values[i]!r}@{lo!r}:{hi!r}"
    text = ",".join(segments[j] for j in order)
    if fault == "right end":
        expected = "do not reach the right endpoint 1"
    else:
        kind = "overlaps" if fault == "overlap" else "leaves a gap before"
        expected = f"'{segments[i]}' {kind} position"
    with pytest.raises(DomainError, match=re.escape(expected)):
        parse_step_function(text)


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
    code, out, err = run_cli(capsys, ["laplace", "--f", "0.5@0:1", "--samples", "10"])
    assert code == 2 and out == "" and err == (
        "conicpd: invalid configuration: second moment Psi(2f-1) diverges for min f <= 1/2; "
        "raise f above 1/2 everywhere\n")


def test_oversized_stick_blocks_exit_2_without_running(capsys):
    # theta * log(1/eps) sticks for a single draw would need gigabytes; the
    # refusal comes before anything is drawn, and since fewer draws cannot
    # help, it advises only theta and eps.
    code, out, err = run_cli(capsys, ["sample", "--theta", "1e8", "--samples", "1"])
    assert code == 2 and out == ""
    assert err.endswith("sampler budget; lower theta or raise eps\n") and "--samples" not in err


def test_invariance_requires_both_explicit_functions(capsys):
    code, _out, err = run_cli(capsys, ["invariance", "--a", "2@0:1", "--samples", "100"])
    assert code == 2 and "both --a and --f" in err


# ---------------------------------------------------------------- output form

def test_saddle_json_output(capsys):
    code, out, _err = run_cli(capsys, ["saddle"])
    assert code == 0
    meta, record = json_lines(out)
    assert meta["version"] == "0.17.0"
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
        # sample's batch bound decides which draws share a stick pass
        assert meta["batch_cells"] == cli.SAMPLE_BATCH_CELLS == 1 << 18
    assert "batch_cells" not in json_lines(run_cli(capsys, ["saddle"])[1])[0]


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


_TABLES = {
    "laplace": ["--f", "2@0:0.5,0.8@0.5:1", "--samples", "200"],
    "invariance": ["--pairs", "2", "--samples", "200"],
    "partition-sums": ["--weights", "0.5,1.5", "--b", "1,2", "--samples", "200"],
    "mellin": ["--nmax", "6"],
    "saddle": ["--lambda", "2"],
    "mp-demo": ["--n", "5,10", "--spoints", "3", "--samples", "100"],
    "divergence": ["--schedule", "sqrt_n", "--nmax", "6"],
    "box-mass": ["--weights", "0.5,1.5", "--b", "1,2"],
}


@pytest.mark.parametrize("argv", [[command, *flags] for command, flags in _TABLES.items()]
                         + [["mp-demo", "--n", "5", "--spoints", "2"]])
def test_csv_and_json_write_the_same_records(capsys, argv):
    # A CSV table's columns are its records' keys: every cell reads back as
    # the JSON value, and a null as an empty cell.
    assert set(_TABLES) == set(cli._COMMANDS) - {"sample"}
    code, out, _err = run_cli(capsys, [*argv, "--format", "json"])
    assert code == 0
    records = json_lines(out)[1:]
    code, out, _err = run_cli(capsys, [*argv, "--format", "csv"])
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out.split("\n", 1)[1]))
    assert len(set(header)) == len(header) and len(rows) == len(records) >= 1
    for row, record in zip(rows, records):
        assert sorted(header) == sorted(record)
        for column, cell in zip(header, row):
            value = record[column]
            assert cell == "" if value is None else type(value)(cell) == value, (column, cell)


def test_readme_commands_run(capsys, tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
    lines = [line.split("#", 1)[0].split() for block in blocks for line in block.splitlines()
             if line.startswith("conicpd ")]
    assert {argv[1] for argv in lines} == set(_SPECS)
    for argv in lines:
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, [*argv[1:], "--out", str(out)])
        assert (code, stdout, err) == (0, "", "") and out.stat().st_size > 0, argv


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


def test_mp_demo_rejects_negative_samples_and_non_finite_s(capsys):
    # 0 means "skip the Monte Carlo columns"; a negative count used to be
    # read the same way and written to the meta line.
    for argv in (["mp-demo", "--n", "3", "--samples", "-5"],
                 ["mp-demo", "--n", "3", "--smax", "nan"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == "" and "invalid configuration" in err, argv


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("value", ["inf", "nan", "1e400", "3,inf"])
def test_mp_demo_refuses_non_finite_dimensions(capsys, tmp_path, source, value):
    # int() of a non-finite float raised OverflowError or ValueError (exit 1).
    if source == "flag":
        argv = ["mp-demo", "--n", value]
    else:
        cfg = tmp_path / "n.cfg"
        cfg.write_text(f"n = {value}\n")
        argv = ["mp-demo", "--config", str(cfg)]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == "" and "n must contain integers" in err


def test_mp_demo_draws_do_not_depend_on_the_cell_budget(capsys, monkeypatch):
    # Each sample draws one normal and one chi-square value, so no rows x n
    # normal matrix exists: a budget below rows x n changes no byte.
    argv = ["mp-demo", "--n", "5", "--spoints", "3", "--samples", "1000"]
    code, want, _err = run_cli(capsys, argv)
    assert code == 0
    monkeypatch.setattr(processes, "_CELL_BUDGET", 4000)
    assert run_cli(capsys, argv) == (0, want, "")


# Runs the CLI with its address space capped at 1 GiB, so an allocation the
# CLI should have refused fails at once instead of swapping.  A non-zero
# first argument replaces the sampler's cell budget.
_CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from conicpd import processes
processes._CELL_BUDGET = int(sys.argv[1]) or processes._CELL_BUDGET
from conicpd.cli import main
sys.exit(main(sys.argv[2:]))
"""


def _run_capped(*argv, budget=0):
    return subprocess.run(
        [sys.executable, "-c", _CAPPED, str(budget), *argv], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=str(REPO / "src")))


@pytest.mark.parametrize("argv", [
    ["laplace", "--theta", "1e4", "--f", "1.5@0:1"],
    ["laplace", "--theta", "1e4", "--f", "1.0001@0:0.5,1.0002@0.5:1"],
    ["invariance", "--theta", "1e4", "--pairs", "1"],
    ["invariance", "--theta", "1e4", "--a", "1.0001@0:0.5,0.9999@0.5:1", "--f", "1.0002@0:1"],
    ["partition-sums", "--weights", "5000,5000"],
])
def test_estimators_at_large_theta_are_served_in_bounded_memory(argv):
    # A draw at theta = 1e4 held 2.3e5 sticks at eps = 1e-10: eight rows fit
    # the cell budget, and a full chunk exited 2.  Its piece masses are a few
    # gammas at any theta.  A zero stderr (every value underflows) must come
    # with the exact value itself.
    for samples in ("8", "40000"):
        proc = _run_capped(*argv, "--samples", samples)
        assert proc.returncode == 0 and proc.stderr == "", (samples, proc.stderr)
        for record in json_lines(proc.stdout)[1:]:
            exact = record.get("analytic", record.get("analytic_af", record.get("exact")))
            assert abs(record["estimate"] - exact) <= 6.0 * record["stderr"], record
            assert abs(record["z_score"]) <= 6.0


def test_rows_outside_every_box_do_not_overflow():
    # At weights 5000,5000 most totals overflow exp; those rows lie outside
    # every box, and exponentiating them used to print "RuntimeWarning:
    # overflow encountered in exp" on stderr.
    proc = _run_capped("partition-sums", "--weights", "5000,5000", "--samples", "8")
    assert proc.returncode == 0 and proc.stderr == ""


@pytest.mark.parametrize("theta, eps", [(0.5, 1e-10), (1.0, 1e-10), (4.0, 1e-10), (1.0, 1e-3)])
def test_ranked_dirichlet_atoms_meet_the_poisson_dirichlet_oracles(capsys, theta, eps):
    # Under PD(theta), E[sum V_i^k] = Gamma(k) Gamma(theta + 1) / Gamma(theta + k),
    # and the largest atom has E[V_1] = integral_0^inf exp(-y - theta E_1(y)) dy
    # (0.62433 at theta = 1, the Golomb-Dickman constant).  The atoms past
    # the truncation sum to at most tail_bound, which bounds what each
    # statistic can lose to it.
    from scipy import integrate, special

    code, out, _ = run_cli(capsys, ["sample", "--process", "dirichlet", "--theta", str(theta),
                                    "--eps", str(eps), "--samples", "4000"])
    assert code == 0
    records = json_lines(out)[1:]
    stats = []
    for record in records:
        masses = np.array(record["masses"])
        stats.append([np.sum(masses ** 2), np.sum(masses ** 3), masses[0]])
    stats = np.array(stats)
    largest, _ = integrate.quad(lambda y: math.exp(-y - theta * special.exp1(y)), 0.0, np.inf)
    assert largest == pytest.approx({0.5: 0.75782, 1.0: 0.62433, 4.0: 0.33677}[theta], abs=1e-5)
    want = [1.0 / (theta + 1.0), 2.0 / ((theta + 1.0) * (theta + 2.0)), largest]
    stderr = stats.std(axis=0, ddof=1) / math.sqrt(len(records))
    allowance = 4.0 * stderr + np.mean([record["tail_bound"] for record in records])
    assert np.all(np.abs(stats.mean(axis=0) - want) <= allowance)


_BOX_OVERFLOW = "the box mass prod b^theta_i / Gamma(theta_i + 1) = exp(920.87) is not a finite"


@pytest.mark.parametrize("argv, code, message", [
    (["box-mass", "--weights", "0.5,1.5", "--b", "1e200"], 3, _BOX_OVERFLOW),
    (["partition-sums", "--weights", "0.5,1.5", "--b", "1e200", "--samples", "16"], 3,
     _BOX_OVERFLOW),
    (["box-mass", "--weights", "1e306,1e306", "--b", "1e300"], 0, ""),
    (["box-mass", "--weights", "1e306,1e306", "--b", "1.7e308"], 3,
     "the box mass prod b^theta_i / Gamma(theta_i + 1) = exp(1.22716e+307) is not a finite"),
    (["partition-sums", "--weights", "1e306,1e306", "--b", "1e300", "--samples", "16"], 0, ""),
    (["sample", "--theta", "1e8", "--samples", "1"], 2,
     "exceeds the 67108864-cell sampler budget; lower theta or raise eps"),
    (["box-mass", "--weights", "1e308,1e308", "--b", "2"], 2,
     "partition weights must have a finite total"),
    (["invariance", "--theta", "1e5", "--pairs", "1", "--samples", "16"], 3,
     "the cocycle phi(a) = exp(1993.95) is not a finite float"),
    (["laplace", "--theta", "2000", "--f", "0.6@0:1", "--samples", "16"], 3,
     "the transform Psi(f) = exp(1021.65) is not a finite float"),
    (["sample", "--theta", "1e-320", "--samples", "2"], 0, ""),
    (["sample", "--theta", "1e-320", "--samples", "2", "--process", "dirichlet"], 0, ""),
    (["laplace", "--theta", "1e-320", "--f", "1.5@0:1", "--samples", "16"], 0, ""),
    (["invariance", "--theta", "1e-320", "--pairs", "1", "--samples", "16"], 0, ""),
    (["mp-demo", "--n", "3", "--smax", "1e200", "--spoints", "2"], 0, ""),
    (["mp-demo", "--n", "3,230", "--smax", "1e60", "--spoints", "2", "--samples", "16"], 0, ""),
    (["mp-demo", "--n", "5", "--smax", "1e308", "--spoints", "2"], 2,
     "s * sqrt(n) overflows a float"),
    (["saddle", "--lambda", "1.0381e-319"], 0, ""),
    (["saddle", "--lambda", "1e300"], 0, ""),
    (["saddle", "--lambda", "1.7e308"], 3,
     "L(lambda) = log Gamma(gamma) - gamma log lambda is not a finite float at lambda=1.7e+308"),
    # Psi(f) = e^471 is finite, but the sample variance overflows.
    (["laplace", "--theta", "700", "--f", "0.51@0:1", "--samples", "16"], 3,
     "the sample mean or variance of the estimate overflows a float"),
    # A full chunk of 2049 columns is one cell row past the 2^26-cell budget.
    (["invariance", "--pairs", "2049", "--samples", "32768"], 2,
     "32768 rows of 2049 columns exceed the 67108864-cell sampler budget"),
    (["partition-sums", "--weights", "1", "--b", ",".join(map(str, range(1, 2050))),
      "--samples", "32768"], 2, "32768 rows of 2049 columns exceed the 67108864-cell"),
    (["mellin", "--lambda", "1e8", "--nmin", "2", "--nmax", "3"], 3,
     "contour quadrature did not converge in 11419 nodes"),
    (["laplace", "--f", "nan@0:1"], 2, "non-finite number in step segment 'nan@0:1'"),
    (["partition-sums", "--weights", "abc"], 2,
     "weights must be a comma-separated list of numbers"),
    (["partition-sums", "--weights", ","], 2, "weights must not be empty"),
    (["partition-sums"], 2, "partition-sums needs --weights"),
    (["mp-demo", "--smax", "0"], 2, "need smax > 0 and at least two s points"),
    (["mp-demo", "--spoints", "1"], 2, "need smax > 0 and at least two s points"),
])
def test_extreme_inputs_exit_0_2_or_3_without_a_warning_or_a_non_finite_cell(capsys, argv,
                                                                             code, message):
    # Each of these used to exit 1 with a traceback, to warn on stderr, or to
    # print NaN, or is a refusal no other test reaches.  Under this suite's
    # filterwarnings, a warning raises here.  A refusal writes nothing.
    got, out, err = run_cli(capsys, argv)
    assert got == code, err
    assert message in err and (err == "") == (code == 0) and (out == "") == (code != 0)
    assert "NaN" not in out and "Infinity" not in out
    if argv[:2] == ["sample", "--theta"]:  # the exact limit: one stick of 1, no tail
        for record in json_lines(out)[1:]:
            assert record["masses"] == [record["total_mass"]] and record["tail_bound"] == 0.0


def test_a_box_mass_that_underflows_is_0_and_partition_sums_then_estimates_0(
        monkeypatch, capsys):
    # Each weight's exponent term was inf - inf = NaN, and both commands
    # exited 3; then partition-sums formed the 0 and met the stick path's
    # cell budget.  Every part's mass now lies far outside the box.
    argv = ["--weights", "1e306,1e306", "--b", "1e300"]
    code, out, err = run_cli(capsys, ["box-mass", *argv])
    assert code == 0 and err == "" and json_lines(out)[1]["mass"] == 0.0
    masses = []
    monkeypatch.setattr(densities, "box_mass_L",
                        lambda spec, b: masses.append(box_mass_L(spec, b)) or masses[-1])
    code, out, err = run_cli(capsys, ["partition-sums", *argv, "--samples", "16"])
    assert code == 0 and err == "" and masses == [0.0]
    (record,) = json_lines(out)[1:]
    assert (record["estimate"], record["stderr"], record["exact"], record["z_score"]) == (
        0.0, 0.0, 0.0, 0.0)


def test_partition_sums_refuses_an_overflowing_exact_side_before_drawing(monkeypatch, capsys):
    def refuse(*_args, **_kwargs):
        raise AssertionError("drew before refusing the exact side")

    monkeypatch.setattr(laplace, "weighted_box_mass", refuse)
    assert run_cli(capsys, ["partition-sums", "--weights", "0.5,1.5", "--b", "1e200"])[0] == 3


def test_a_count_past_the_cell_budget_exits_2(tmp_path, monkeypatch, capsys):
    # Seed 5's fourth batch at theta = 40 (250 rows a batch) holds a longer
    # row than its first three.  Under a budget that holds the first three
    # and no more, the fourth is refused once its counts are drawn, before
    # its matrix is, and the first three batches' draws stay written.
    rows = cli.SAMPLE_BATCH_CELLS // processes._buffer_width(40.0, 1e-10)
    argv = ["sample", "--theta", "40", "--samples", str(4 * rows), "--seed", "5"]
    stick_rows, widths = processes._stick_rows, []

    def measured(*args):
        masses, tails, cuts = stick_rows(*args)
        widths.append(masses.shape[1])
        return masses, tails, cuts

    monkeypatch.setattr(processes, "_stick_rows", measured)
    assert run_cli(capsys, argv + ["--out", os.devnull])[0] == 0
    assert len(widths) == 4 and widths[3] > max(widths[:3])
    out = tmp_path / "draws.json"
    proc = _run_capped(*argv, "--out", str(out), budget=rows * max(widths[:3]))
    assert proc.returncode == 2 and proc.stdout == ""
    assert "sampler budget" in proc.stderr and "--samples" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(out.read_text().splitlines()) == 1 + 3 * rows


def test_mp_demo_refuses_an_oversized_table_before_allocating():
    # A 10^12-point grid used to exit 1 with a memory-error traceback.
    proc = _run_capped("mp-demo", "--n", "5", "--spoints", str(10**12))
    assert proc.returncode == 2 and proc.stdout == ""
    assert "invalid configuration" in proc.stderr and "--spoints" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_mp_demo_serves_a_million_dimensions_at_a_full_chunk():
    # 32768 rows x 10^6 normals would be 262 GB; the coordinate's own law
    # needs two numbers a row.  Until 0.7.0 this exited 2 over the cell budget.
    proc = _run_capped("mp-demo", "--n", "5000,1000000", "--spoints", "4",
                       "--samples", "100000", "--streams", "2")
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    rows = list(csv.DictReader(io.StringIO(proc.stdout.split("\n", 1)[1])))
    assert [int(row["n"]) for row in rows] == [5000] * 4 + [1000000] * 4
    for row in rows[1:4] + rows[5:]:
        assert abs(float(row["mc"]) - float(row["quad"])) <= 4.0 * float(row["stderr"]), row


def test_mp_demo_row_bound_counts_every_dimension(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MP_DEMO_ROWS", 6)
    code, out, _err = run_cli(capsys, ["mp-demo", "--n", "3,5", "--spoints", "3"])
    assert code == 0 and len(out.splitlines()) == 2 + 6
    code, out, err = run_cli(capsys, ["mp-demo", "--n", "3,5", "--spoints", "4"])
    assert code == 2 and out == "" and "6-row mp-demo table" in err


# sha256 of the mc,stderr cells (one "mc,stderr" line per row) of
# mp-demo --n 3,8 --smax 4 --spoints 129 --samples 100000 --streams S --seed 5,
# frozen at 0.7.0 from the one-normal, one-chi-square coordinate draw (whose
# law tests are in test_gaussian.py): several chunks per stream and two
# column blocks of s points.
_MP_DEMO_MC_SHA256 = {
    1: "967f8d73877c4e81607439c7bf9a5aff0e88d6aa2e028ab4b34a1c346b514b00",
    3: "5e54254eb8e788d6ad68c9be95bca38206b6677167ef4a412cd5f839de8a4df9",
}


@pytest.mark.parametrize("streams", list(_MP_DEMO_MC_SHA256))
def test_mp_demo_mc_cells_are_frozen(capsys, streams):
    code, out, _err = run_cli(capsys, [
        "mp-demo", "--n", "3,8", "--smax", "4", "--spoints", "129", "--samples", "100000",
        "--streams", str(streams), "--seed", "5"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.split("\n", 1)[1])))
    assert len(rows) == 2 * 129
    body = "".join(f"{row['mc']},{row['stderr']}\n" for row in rows)
    assert hashlib.sha256(body.encode()).hexdigest() == _MP_DEMO_MC_SHA256[streams]


def _many_pieces(count: int, step: float) -> str:
    """--f text of ``count`` equal pieces with values 0.6, 0.6 + step, ..."""
    return ",".join(f"{0.6 + step * i:g}@{i / count:g}:{(i + 1) / count:g}" for i in range(count))


_F = {"constant": "1.5@0:1", "three": "1.8@0:0.3,0.9@0.3:0.7,1.3@0.7:1",
      "forty": _many_pieces(40, 0.05), "eighty": _many_pieces(80, 0.02)}

# sha256 of every line after the meta line of each argv + --seed 11 (and
# --samples 3000 unless given), frozen from the binary-search lookups that
# the comparison loop replaced, re-frozen at 0.9.0 with the narrow first
# stick block, and at 0.14.0, when every estimator came to draw its piece
# masses exactly, which changed every byte.  The 40- and 80-piece fs give
# rows of that many gammas; the weights 0.1,0.2,0.3 have cumulative
# probabilities ending at 0.9999999999999999.
_ESTIMATOR_BODY_SHA256 = [
    (("laplace", "--theta", "0.5", "--f", _F["constant"], "--streams", "1"),
     "a1ddb1919856b5b807d954f57e5d4693712b13c45b30f3cf10a4bfcc563bc268"),
    (("laplace", "--theta", "0.5", "--f", _F["three"], "--streams", "1"),
     "1af3a7d5559ada7ccc1082a1b98541675a207cbbb95b7e888f1e73b8a0f5d566"),
    (("laplace", "--theta", "1", "--f", _F["constant"], "--streams", "1"),
     "be591d8226e8fc177330bdce73a5a08ac0b0c8ba5f84c7c38e00a2e676595b3f"),
    (("laplace", "--theta", "1", "--f", _F["three"], "--streams", "1"),
     "94e97d50796c90fa63d156f2e3ffa8364d3c7ba6d20c6f6a4c05dea7f759029c"),
    (("laplace", "--theta", "4", "--f", _F["constant"], "--streams", "1"),
     "11fc7c0fcdd155dd2d6fd2ebfdc84c0e2cd1b270c6bbbbf8e8452c6964ea6ba2"),
    (("laplace", "--theta", "4", "--f", _F["three"], "--streams", "2"),
     "81f6396972244c522cba2c7088a6b5028082a6a08c4fce42eba312cd750111e1"),
    (("laplace", "--theta", "8", "--f", _F["constant"], "--streams", "1"),
     "e60d7b1d51b286daf94c70eee7a8cf5d0e7280fe1b9f05ef04788a58299130f8"),
    (("laplace", "--theta", "8", "--f", _F["three"], "--streams", "1"),
     "1f3bfd77dcf3d94d99b17f652de1d4ad00555054a62b87fc7a0bcfd2bfe36819"),
    (("laplace", "--theta", "1", "--f", _F["forty"], "--streams", "1"),
     "4a6af50f9345bb8f709490dbf153bba950398ec9553f62247b0986c5b37853c2"),
    (("laplace", "--theta", "1", "--f", _F["eighty"], "--streams", "1"),
     "cb22bc5d897be80748346815b30a5b6c2693be8151a6629237c438edd1533a48"),
    (("partition-sums", "--weights", "0.5,1.5", "--b", "0.5,1,2"),
     "866b704dbe98ccad39a1f6e16cc473d9c9e8147492ad2a77124fb74fcfcb1035"),
    (("partition-sums", "--weights", "0.1,0.2,0.3"),
     "29dc3a4ddd587b91056be4ff1092a542c47c505463150c9ed41744ee2e62e124"),
    (("invariance", "--pairs", "4", "--samples", "2000", "--format", "csv"),
     "12a2a7a22334e127ec8a7cc258033c196d63f4ba67a3739b4171ddbba25c4251"),
    # A chunk boundary inside one stream, and two streams.
    (("laplace", "--theta", "1", "--f", _F["constant"], "--streams", "1", "--samples", "33000"),
     "1f23add64f19bbc0e364cfc66e031e51c585f98ef5df5cfb76a8d03733630d4f"),
    (("laplace", "--theta", "2", "--f", _F["constant"], "--streams", "2"),
     "5bf80e15fcf20dfe30acd957bb8d40f242be1404290691b58b101632fac13a1d"),
    # The box kernel at a chunk boundary.
    (("partition-sums", "--weights", "0.5,1.5", "--b", "1", "--samples", "33000"),
     "42557049349b7627120e2fd1ee55064de39f323c51c0c228200b370df3885b9a"),
]


@pytest.mark.parametrize("argv, digest", _ESTIMATOR_BODY_SHA256)
def test_estimator_output_bytes_are_frozen(capsys, argv, digest):
    argv = list(argv) + ["--seed", "11"] + ([] if "--samples" in argv else ["--samples", "3000"])
    code, out, _err = run_cli(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.split("\n", 1)[1].encode()).hexdigest() == digest


@pytest.mark.parametrize("block_cells", [1 << 3, 1 << 7])
@pytest.mark.parametrize("argv, digest", _ESTIMATOR_BODY_SHA256)
def test_estimator_output_bytes_do_not_depend_on_row_blocks(capsys, monkeypatch, argv, digest,
                                                            block_cells):
    # Row blocks of at most 8 or 128 cells: one row a block for the 40- and
    # 80-piece fs, and uneven last blocks elsewhere.
    monkeypatch.setattr(laplace, "_BLOCK_CELLS", block_cells)
    test_estimator_output_bytes_are_frozen(capsys, argv, digest)


def test_only_sample_reaches_the_stick_path_and_no_command_starts_a_thread(capsys, monkeypatch):
    # The estimators draw their piece masses without sticks, so one that
    # drifted back onto the stick path fails here.  sample reaches it, with
    # passes of more than 2^17 cells at 20000 draws.  No command starts a
    # thread or leaves one behind.
    threads, started, cells = threading.enumerate(), [], []
    stick_rows = processes._stick_rows
    thread_start = threading.Thread.start

    def refuse(*_args, **_kwargs):
        raise AssertionError("an estimator reached processes._stick_rows")

    def counted(*args):
        masses, tails, cuts = stick_rows(*args)
        cells.append(masses.size)
        return masses, tails, cuts

    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(thread.name) or thread_start(thread))
    monkeypatch.setattr(processes, "_stick_rows", refuse)
    for argv in (["laplace", "--f", _F["three"], "--samples", "3000"],
                 ["invariance", "--pairs", "3", "--samples", "3000"],
                 ["partition-sums", "--weights", "0.5,1.5", "--samples", "3000"]):
        assert run_cli(capsys, argv)[0] == 0, argv
        assert threading.enumerate() == threads and started == [], argv
    monkeypatch.setattr(processes, "_stick_rows", counted)
    assert main(["sample", "--samples", "20000", "--out", os.devnull]) == 0
    assert threading.enumerate() == threads and started == []
    assert max(cells) > 1 << 17


_STEP3 = "1.8@0.0:0.3,0.9@0.3:0.7,1.3@0.7:1.0"

# sha256 of every line after the meta line of the bench's 14 mc-shaped argv
# (workload seed 2), plus a theta = 4 task of workload seed 311, each with
# its --seed; frozen before the kernels streamed their row blocks, and
# re-frozen at 0.9.0 and at 0.14.0 as the table above.
_MC_BODY_SHA256 = [
    (("laplace", "--theta", "0.5", "--f", "1.5@0.0:1.0", "--samples", "8192"),
     "2104669064", "1ec4b12cf0fdd8db063a71958a0b8b3c72399620d9f2c1d61907dc30f2de3450"),
    (("laplace", "--theta", "0.5", "--f", _STEP3, "--samples", "8192"),
     "1705610640", "f9901e73f349da12ac7f65b5ca0bd388d30a5406080b21952788172724f38c09"),
    (("laplace", "--theta", "1.0", "--f", "1.5@0.0:1.0", "--samples", "8192"),
     "1457654484", "4f3d90d0602cbb766be4b5e9d572b5dc8acd436fb56046462bdd715c21f4aec5"),
    (("laplace", "--theta", "1.0", "--f", _STEP3, "--samples", "8192"),
     "1312480814", "0d79994d2640ac07e0af834be3f81a7ec1552b2a0b6d652b3fb618596f4df794"),
    (("laplace", "--theta", "4.0", "--f", "1.5@0.0:1.0", "--samples", "4096"),
     "816715227", "2bc41ccabd5a9802be62b7f5fa82883fb309504812c358c119f22a4638bcb0fc"),
    (("laplace", "--theta", "4.0", "--f", _STEP3, "--samples", "4096", "--streams", "2"),
     "1673831587", "84a92cb3275f53919c0d8f8c539e8dd80c55f9cb211a2d93dd8e4d6a262771c2"),
    (("laplace", "--theta", "4.0", "--f", "1.5@0.0:1.0", "--samples", "4096"),
     "1609523211", "f821ae0a0d5eef50e57fd72b924cb4023cd0eb39a0c3e559b8a29343ae12e119"),
    (("laplace", "--theta", "4.0", "--f", _STEP3, "--samples", "4096", "--streams", "2"),
     "973238861", "bc7b7dc4f4b8ad55c7100f3d9999494c30552f675b9eecadb44f84fe379b29d4"),
    (("laplace", "--theta", "8.0", "--f", "1.5@0.0:1.0", "--samples", "2048"),
     "1188544692", "8a961211a8c4f012ff6060271405eb9fbe2364e5e7d3f10eb343361b65abb169"),
    (("laplace", "--theta", "8.0", "--f", _STEP3, "--samples", "2048"),
     "116293682", "08038ff2c4690e09b68d224dc0d3fd680c856cb73c16a166b6b016b3daa8fe2d"),
    (("laplace", "--theta", "8.0", "--f", "1.5@0.0:1.0", "--samples", "2048"),
     "1120397550", "b8bcfec7bcb026b9c9dd623efed8a3b9aad2b380e356b94f9ff5acb7d4f52f6d"),
    (("laplace", "--theta", "8.0", "--f", _STEP3, "--samples", "2048"),
     "31173149", "3728e97f7a6e3bff2f926ce039820823a5fe0cdf1db1db880558d7f59dc19797"),
    (("partition-sums", "--weights", "0.5,1.5", "--b", "0.5,1.0,2.0", "--samples", "8192"),
     "433586074", "82fbc5a37abe52405c00f5a5668dd4773f5b6f0372c6b18b4a84c222d4614851"),
    (("invariance", "--pairs", "24", "--samples", "1500", "--format", "csv"),
     "540110510", "80fe9773bc9e8a617d3b4b7381c2b71171f3772591a9bd170e3a2f9e33b1d189"),
    (("laplace", "--theta", "4.0", "--f", "1.5@0.0:1.0", "--samples", "4096"),
     "1654520701", "b1ec37a8681fe523bc3d84133b30d05147e842931177ac0bd4b35316068c2f1c"),
]


@pytest.mark.parametrize("block_cells", [1 << 16, 1 << 7, 1 << 3])
@pytest.mark.parametrize("argv, seed, digest", _MC_BODY_SHA256)
def test_mc_shaped_output_bytes_are_frozen(capsys, monkeypatch, argv, seed, digest, block_cells):
    # As in the row-block test above, in blocks of the default size, of 128
    # cells and of 8.
    monkeypatch.setattr(laplace, "_BLOCK_CELLS", block_cells)
    code, out, _err = run_cli(capsys, list(argv) + ["--seed", seed])
    assert code == 0
    assert hashlib.sha256(out.split("\n", 1)[1].encode()).hexdigest() == digest


def _window(command, lam, first, *schedule):
    return (command, "--lambda", lam, *schedule, "--nmin", str(first), "--nmax", str(first + 1))


# sha256 of every line after the meta line, preceded by the meta line's
# contour-derived extrapolated_limit, extrapolated_gap and envelope_constant
# where present: the bench's 15 contour windows and 4 saddle argv, and the
# default mellin and sqrt_n divergence tables.  Frozen at 0.12.0, before
# each grid level came to evaluate only the nodes it keeps, and re-frozen at
# 0.17.0, when the saddle came to be solved by Newton's method from the
# inverse-digamma start and moved each contour's abscissa by ~1e-13.
_QUADRATURE_BODY_SHA256 = [
    (_window("mellin", "0.3", 2),
     "bacd7170e473fd27910fb97a9ffdd47a78f7a14f3cbd7851433f4850452da0bb"),
    (_window("mellin", "1.0", 2),
     "c6961761770def055d21d39e2c03f0fd180908f9b6c693de642b35f935a0ceb8"),
    (_window("mellin", "3.0", 2),
     "a971ca59b6fa3876e61d1dc469fdc2fec2e42700343d44b1f1ba55cc7e976a06"),
    (_window("divergence", "1.0", 2, "--schedule", "constant"),
     "548142d1aa060717d96cc91e0a27aae3eb16b6ffdae22afc246f12b11d52878f"),
    (_window("divergence", "0.5", 2, "--schedule", "sqrt_n"),
     "fbf964395849c6aad56f639c7f73f84df14c51512c309a87634f496e9c71e933"),
    (_window("mellin", "0.3", 20),
     "b233feab8401c9fb48db451ce947a72eaa261ee34da9c368ee88892c23f5bf36"),
    (_window("mellin", "1.0", 20),
     "45a703b8cfab18660f8ee9e540e7a2af87ed502c3341383a64919df5393aa6d6"),
    (_window("mellin", "3.0", 20),
     "aec67e9ee242cf1fbd3a7a7537058323ed9762971f193a5a930d10b4604bc259"),
    (_window("divergence", "1.0", 20, "--schedule", "constant"),
     "d758b51aeadb6fb156e25c6f31177e23df7b79d05da94af0833e9197f4566fc6"),
    (_window("divergence", "0.5", 20, "--schedule", "sqrt_n"),
     "5e09a0c3662837f21099b0d711eb78b3c8a716ba9215df2b2d33452b6fa0f4d5"),
    (_window("mellin", "0.3", 39),
     "aeaaff67adaf63c5149bbb0405b5d0e2dd749938f83c098f29a73230535ffe50"),
    (_window("mellin", "1.0", 39),
     "d060a7db3c0d7d5eab531421eb640f896839d2738f2e7d9c6d44e82f02063fd5"),
    (_window("mellin", "3.0", 39),
     "5bc9264b95658abeb307aaa3b664546c7b379afca5941f5528740a4dd3c7c5ff"),
    (_window("divergence", "1.0", 39, "--schedule", "constant"),
     "2682a621d5213d97a08c5807dc42024d293d2c54f0564de0e1826cd752fdd59a"),
    (_window("divergence", "0.5", 39, "--schedule", "sqrt_n"),
     "f27ae84bd1a778a1d33bbc9d07f5019fe1f3a107f602f812d24fc8c46925a92f"),
    (("saddle", "--lambda", "1e-08"),
     "17fab6c23422d26604f4ae9afbc65f2d28cfd64d5b5a538167bd06668541bf0d"),
    (("saddle", "--lambda", "0.001"),
     "61ba45f00b42344aac33a7233975be54430b32b60369509968009fe18406235c"),
    (("saddle", "--lambda", "1000.0"),
     "c49f1f04bfad39fb616940ebfe8639b43e16438025d738fa34374a9a7893d1c9"),
    (("saddle", "--lambda", "100000000.0"),
     "0002f60019577ddde39c3656fb0ab118b986b007d9965580fdf1f6082694af0a"),
    (("mellin", "--nmax", "40"),
     "7cf56b82ac4639943ff317dbde291ad389d08beaeb8917726b742d81fa827a01"),
    (("divergence", "--schedule", "sqrt_n"),
     "37a6feedc8d4fcb8c0a6d6c148f4a352b37e4165dbc7413af2b6c5b39795bea3"),
]


@pytest.mark.parametrize("argv, digest", _QUADRATURE_BODY_SHA256)
def test_quadrature_output_bytes_are_frozen(capsys, argv, digest):
    code, out, _err = run_cli(capsys, list(argv))
    assert code == 0
    meta, body = out.split("\n", 1)
    config = json.loads(meta.removeprefix("# "))["config"]
    fields = "".join(f"{key}={config[key]!r}\n" for key in (
        "extrapolated_limit", "extrapolated_gap", "envelope_constant") if key in config)
    assert (argv[0] == "mellin") == bool(fields)
    assert hashlib.sha256((fields + body).encode()).hexdigest() == digest


def test_frozen_step_functions_have_the_piece_counts_they_are_named_for():
    pieces = {key: parse_step_function(text).values.size for key, text in _F.items()}
    assert pieces == {"constant": 1, "three": 3, "forty": 40, "eighty": 80}


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


def test_divergence_refuses_an_empty_range(capsys):
    # nmin > nmax used to print the meta line, the header and no rows.
    code, out, err = run_cli(capsys, ["divergence", "--nmin", "5", "--nmax", "2"])
    assert code == 2 and out == "" and "non-empty" in err


def test_divergence_row_bound_counts_the_whole_range(capsys, monkeypatch):
    monkeypatch.setattr(cli, "DIVERGENCE_ROWS", 3)
    code, out, _err = run_cli(capsys, ["divergence", "--nmin", "2", "--nmax", "4"])
    assert code == 0 and len(out.splitlines()) == 2 + 3
    code, out, err = run_cli(capsys, ["divergence", "--nmin", "2", "--nmax", "5"])
    assert code == 2 and out == "" and "3-row divergence table" in err


def test_divergence_refuses_an_oversized_range_before_allocating():
    # np.arange(2, 10^12 + 1) used to fail to allocate; a range in the
    # millions ran for minutes.
    proc = _run_capped("divergence", "--nmax", str(10**12))
    assert proc.returncode == 2 and proc.stdout == ""
    assert "invalid configuration" in proc.stderr and "--nmax" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, value", [
    (["--lambda", "1e10", "--scale", "1e300", "--schedule", "sqrt_n"], "inf"),
    (["--lambda", "1e-300", "--scale", "1e-300"], "0.0"),
])
def test_divergence_refuses_an_argument_that_overflows_or_underflows(argv, value):
    # A subprocess, so that a numpy warning would reach stderr as it does
    # for a user: lambda * r_n used to print "RuntimeWarning: overflow
    # encountered in multiply" and then blame "lambda".
    proc = _run_capped("divergence", *argv, "--nmin", "2", "--nmax", "3")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("conicpd: invalid configuration: lambda * r_n = "
                           f"{value} is not a finite positive real at n=2\n")


def test_divergence_refuses_an_n_past_int64():
    # mellin._check_ns's astype(int) used to exit 1 with an OverflowError
    # traceback.
    proc = _run_capped("divergence", "--nmin", str(10**30), "--nmax", str(10**30))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("conicpd: invalid configuration: "
                           "n must be a positive integer below 2**63\n")


def test_a_contour_that_does_not_decay_names_its_inputs(capsys):
    # The CLI has no abscissa flag, so "check the abscissa" named nothing
    # the user could act on.
    code, out, err = run_cli(capsys, ["mellin", "--lambda", "1e12", "--nmin", "2", "--nmax", "3"])
    assert code == 3 and out == ""
    assert err.startswith("conicpd: numerical failure: contour integrand failed to decay")
    for field in ("|t| <= 1e6", "n=2", "lambda=1000000000000.0", "abscissa=1000000000000.5"):
        assert field in err, field


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


def test_fmt_quotes_text_cells_per_rfc_4180():
    assert _fmt("0.5,1.5") == '"0.5,1.5"'
    assert _fmt('say "hi"') == '"say ""hi"""'
    assert _fmt("a\nb") == '"a\nb"' and _fmt("a\rb") == '"a\rb"'
    assert _fmt("2@0:1") == "2@0:1"


@pytest.mark.parametrize("argv, key, text", [
    (["partition-sums", "--weights", "0.5,1.5", "--samples", "2000"], "weights", "0.5,1.5"),
    (["box-mass", "--weights", "0.5,1.5", "--b", "0.5,2"], "weights", "0.5,1.5"),
    (["laplace", "--f", "1.8@0:0.5,1.2@0.5:1", "--samples", "2000"], "f",
     "1.8@0:0.5,1.2@0.5:1"),
])
def test_csv_text_cells_with_commas_stay_in_their_column(capsys, argv, key, text):
    code, out, _err = run_cli(capsys, argv + ["--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    reader = csv.DictReader(io.StringIO("\n".join(lines[1:])))
    rows = list(reader)
    assert rows
    for row in rows:
        assert None not in row and len(row) == len(reader.fieldnames)
        assert row[key] == text
        for column in reader.fieldnames:
            if column != key:
                float(row[column])


# sha256 of every line after the meta line of
# sample --format F --process P --theta T --streams S --samples 3 --seed 7,
# frozen at version 0.5.0 (batched draws), once the records had matched
# test_sample_records_are_sorted_gamma_batch_rows, and re-frozen at 0.9.0
# with the stick batches, at 0.15.0, when the first block became the
# budgeted width and the locations came in draw order, and at 0.16.0, when
# the stick pass came to draw each row's stick count first.
_SAMPLE_BODY_SHA256 = {
    ("json", "dirichlet", 1, 1): "523cd6abe0e4638c7095e6800434f019657d500b80d41cab75f38293b7894679",
    ("json", "dirichlet", 1, 2): "e48398ff15fa18e9da066c56def255d720a42ad6e9c883fda3c86fcecf2db673",
    ("json", "dirichlet", 8, 1): "bc33bb280240e1ca6a2be107aea5273e974e7912752fcdb8df51985dd7c05c2d",
    ("json", "dirichlet", 8, 2): "86d3bebb22f6a27cbb8e733d49b7ff889754fab2012703fdb93b337f45190aa4",
    ("json", "dirichlet", 64, 1): "010e7d2f92463df88eb6a1dfbaaaa6cbb13722d570a910fbb2d65648d44dce67",
    ("json", "dirichlet", 64, 2): "b30b58f93da55bc652e0e67e45d5798916f6a0d2f77eb65a23f2343d6e5836eb",
    ("json", "gamma", 1, 1): "93f0d3087c6a55038e1e72e3cc5734a911050ace248801f187264828449fd5f0",
    ("json", "gamma", 1, 2): "7217b217d700f4698955ca1648c62a345ef8b300ec6b725dc60cce9a901bde3e",
    ("json", "gamma", 8, 1): "b0959140eeb0c445c4ac351390218a62c044d3fd686e7c80a68e3b2d64297809",
    ("json", "gamma", 8, 2): "29ebb7df00d87a74d42d60ce08395b9ca823db6015bb703ec87ca20364a48145",
    ("json", "gamma", 64, 1): "6964ef4033a45f243374db4aac8c9ce246cb066976d831d98d40353378e477a4",
    ("json", "gamma", 64, 2): "8820302deca23ec73812a33bdafa67ebc73a2d2d31c0c4d0488528b6cfa1ca00",
    ("json", "lebesgue", 1, 1): "13af272a002fde4b58fc0491d83177f11a3711cacc97b0298af0be3c8500a808",
    ("json", "lebesgue", 1, 2): "7bf909674e14beaf1ccbae4f8621d54632e2a65789b9f429656a6cf3e6f8b6d6",
    ("json", "lebesgue", 8, 1): "cdefef2ede7972a8ac8d44ecf2edf4dfd6e60619c9f9fe614083cc3aa2922264",
    ("json", "lebesgue", 8, 2): "95d16786060c0e927c5108c50ec721196c528eec8ddc128ebf43d6894aa455ef",
    ("json", "lebesgue", 64, 1): "8ee8df80f14de5fbc3ab93bcf111aadd2016036078980f3b677296e0b248f8d8",
    ("json", "lebesgue", 64, 2): "09a041e6be67f1c32f0dfaabe1c2874fa123bf72bf2b4ea9de9cab7e0bfed89d",
    ("csv", "dirichlet", 1, 1): "892e32ec7f0d03d55dffa83432a97764cd2adb0b57676e9adde9bfa5e7a75f25",
    ("csv", "dirichlet", 1, 2): "8dc51150f61d44ef8f8656da581384afcc9f287d9c35bb0566cfd16934328b7f",
    ("csv", "dirichlet", 8, 1): "ae6bcd2a92a45a33c94fafbb86aef9d66011253d04554affa84406b70cbac434",
    ("csv", "dirichlet", 8, 2): "2fd897f6ddc0cd02ac1167535d0b26bfe0c2fec7b478e13e56c4726b3ccbe282",
    ("csv", "dirichlet", 64, 1): "7a0dabc5c7ae48d452684c8cbcb787c227c105d6daea2164bdab14d24b580884",
    ("csv", "dirichlet", 64, 2): "64dc27b795ce3bf6509fc50d761e357953cb3d818d9f01ee722cd2210b0071c9",
    ("csv", "gamma", 1, 1): "7d5195cc2ed6b29a33c41e610a507042a579bc41f92ced15b4457e8e4d021079",
    ("csv", "gamma", 1, 2): "d73fef19ec3cc351f35de597e27d6871ebb8c42d69bc00a5194dda48095af639",
    ("csv", "gamma", 8, 1): "2e02a52e4f586869e0113942cfeff9975b67fc3dbcb83a7e9363e11f61d4fc2f",
    ("csv", "gamma", 8, 2): "52b85a5e4c8d5cd0c12bba07c19dcd0a6e66618eb0cc6c3fb1318e3f0dc7570b",
    ("csv", "gamma", 64, 1): "dc203f4e1bdcaf7d1f0b7fad3cf006063557a35041e66a90e638cf1f470d4c50",
    ("csv", "gamma", 64, 2): "443241cbd02b3a2f3dfa6b66728ab1d150507303de5f4aa3428262ff22af230b",
    ("csv", "lebesgue", 1, 1): "63c3b5dd3a950356e1ab1fca55e56b1037b45a10d03cc3bd4c11a6c26a0bb3de",
    ("csv", "lebesgue", 1, 2): "cf86052e92cefaf6162e5055ce315f08cd6c748a35b91776c751f3713224ddf1",
    ("csv", "lebesgue", 8, 1): "d91c66aebafb61bc14d0dfb6780a0696d099961502a9e3f78e0691cf465ec6ec",
    ("csv", "lebesgue", 8, 2): "246363a533dd6b9ba1332850894204450dbc6c988f912ac893b298cf5014bfff",
    ("csv", "lebesgue", 64, 1): "2ca060cb07a2b39f6de937345cb76df7901c1e17125cc86812680002c03f4d0b",
    ("csv", "lebesgue", 64, 2): "a52fe577d0ba1d699c2758bbc367405054fe50bdc04666a35ad82559a1784f3a",
}


@pytest.mark.parametrize("fmt, process, theta, streams", list(_SAMPLE_BODY_SHA256))
def test_sample_output_bytes_are_frozen(capsys, fmt, process, theta, streams):
    code, out, _err = run_cli(capsys, [
        "sample", "--format", fmt, "--process", process, "--theta", str(theta),
        "--streams", str(streams), "--samples", "3", "--seed", "7"])
    assert code == 0
    body = out.split("\n", 1)[1]
    digest = hashlib.sha256(body.encode()).hexdigest()
    assert digest == _SAMPLE_BODY_SHA256[fmt, process, theta, streams]


# sha256 of every line after the meta line of the bench's draws-shaped
# sample --theta T --process P --format F --samples N --seed 14, frozen at
# version 0.5.0 and re-frozen at 0.9.0, 0.15.0 and 0.16.0 like the table
# above.
_DRAWS_BODY_SHA256 = {
    (1, 150, "gamma", "json"): "4d58f9c3944173c632a2519133bd368cb5c7968cb28e86a6b762e59c4a076d87",
    (1, 150, "gamma", "csv"): "4c4933adaae3fb2693622688b2ca2530231d5b81e63e545816d28a8b408ec919",
    (1, 150, "lebesgue", "json"): "f8a795010f43922d8b45580583d9c411fe790df5b35e68c1f246c1261a426a88",
    (1, 150, "lebesgue", "csv"): "74daf11f4d93ffb01425372e1c21226f7507043a9e9ead01bd1408b3863067f4",
    (8, 25, "gamma", "json"): "03b6cd61918b61a1af767e74c7460ba4ec07627817a7368d1f4734ae6307e434",
    (8, 25, "gamma", "csv"): "61173584155a9be516a277c50846676408cec9ebdde2a1c14829ffc56b2af88a",
    (8, 25, "lebesgue", "json"): "20b94c0d7134c98edfa743eba676d1a3648df385db4816241ae301a73312fa0b",
    (8, 25, "lebesgue", "csv"): "bfd5ba8f6ee8bc8b3540135f7677366f1faa8b5b312e58ba0503497ae4a3db82",
    (64, 4, "gamma", "json"): "4d010e76460085f9c13fb85e69042a3a8c9a46d7bfb95bc2d94cd79305c73cbd",
    (64, 4, "gamma", "csv"): "d10701492b692370101b45a02c3f7fab8a0e5f247460ef6dd93b1e9d8b599e7b",
    (64, 4, "lebesgue", "json"): "b6922eb09645e833ba4714bacc8372af8ed0c3dc17e59e3a77466f6769fc8991",
    (64, 4, "lebesgue", "csv"): "d202ec3fae9869ac366420dacfc0f64861c3964b3592abd341213073d00d9532",
}


@pytest.mark.parametrize("theta, samples, process, fmt", list(_DRAWS_BODY_SHA256))
def test_draws_shaped_sample_bytes_are_frozen(capsys, theta, samples, process, fmt):
    code, out, _err = run_cli(capsys, [
        "sample", "--theta", repr(float(theta)), "--process", process, "--format", fmt,
        "--samples", str(samples), "--seed", "14"])
    assert code == 0
    body = out.split("\n", 1)[1]
    assert hashlib.sha256(body.encode()).hexdigest() == _DRAWS_BODY_SHA256[
        theta, samples, process, fmt]


def sample_records(out, fmt):
    """The draw records of ``sample`` output in either format, as JSON would give them."""
    if fmt == "json":
        return json_lines(out)[1:]
    records = []
    for row in csv.DictReader(io.StringIO(out.split("\n", 1)[1])):
        if not records or records[-1]["draw"] != int(row["draw"]):
            records.append({"draw": int(row["draw"]), "masses": [], "locations": [],
                            **{c: float(row[c]) for c in ("total_mass", "tail_bound",
                                                          "log_weight")},
                            "seed": int(row["seed"]), "stream_id": int(row["stream_id"])})
        assert int(row["atom"]) == len(records[-1]["masses"])
        records[-1]["masses"].append(float(row["mass"]))
        records[-1]["locations"].append(float(row["location"]))
    return records


def expected_sample_rows(process, batch):
    """``sample``'s records of a ``gamma_batch`` batch.

    Each row's masses are sorted decreasing and its locations are the first
    of its row of uniforms, in draw order.
    """
    masses, locations, totals, tails = batch
    rows = []
    for m, x, total, tail in zip(masses, locations, totals.tolist(), tails.tolist()):
        atoms = np.count_nonzero(m)
        scale = 1.0 if process == "dirichlet" else total
        rows.append({"masses": np.sort(m)[::-1][:atoms] * scale, "locations": x[:atoms],
                     "total_mass": scale,
                     "tail_bound": tail * scale,
                     "log_weight": total if process == "lebesgue" else 0.0})
    return rows


def assert_records_match(records, expected):
    assert len(records) == len(expected)
    for got, want in zip(records, expected):
        for key in ("masses", "locations"):
            assert np.array_equal(np.array(got[key]), want[key]), key
        for key in ("total_mass", "tail_bound", "log_weight"):
            assert got[key] == want[key], key


@pytest.mark.parametrize("streams", [1, 2])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("theta", [1, 8, 64])
@pytest.mark.parametrize("process", ["dirichlet", "gamma", "lebesgue"])
def test_sample_records_are_sorted_gamma_batch_rows(capsys, process, theta, fmt, streams):
    # One batch per stream here: the stream's records are the rows of one
    # gamma_batch call on its generator, each with its masses sorted
    # decreasing and its locations in draw order, the masses and tail
    # scaled by the total (a dirichlet draw has total 1).
    samples, seed = 5, 23
    code, out, err = run_cli(capsys, [
        "sample", "--process", process, "--theta", str(theta), "--format", fmt,
        "--samples", str(samples), "--streams", str(streams), "--seed", str(seed)])
    assert code == 0 and err == ""
    records = sample_records(out, fmt)
    assert [r["draw"] for r in records] == list(range(samples))
    for stream, count in enumerate(stream_counts(samples, streams)):
        got = [r for r in records if r["stream_id"] == stream]
        assert all(r["seed"] == seed for r in got)
        gen = processes.RngStream(seed, stream).generator()
        assert_records_match(got, expected_sample_rows(
            process, gamma_batch(theta, 1e-10, count, gen)))


@pytest.mark.parametrize("process", ["dirichlet", "gamma", "lebesgue"])
def test_sample_runs_one_stick_pass_per_batch(capsys, monkeypatch, process):
    # With batches of at most `rows` draws, stream s runs ceil(count_s / rows)
    # stick passes, and each gamma batch is the next gamma_batch call on the
    # stream's generator.
    passes = []
    stick_rows = processes._stick_rows

    def counted(theta, eps, rows, gen):
        passes.append(rows)
        return stick_rows(theta, eps, rows, gen)

    monkeypatch.setattr(processes, "_stick_rows", counted)
    theta, samples, streams, seed = 8.0, 11, 2, 4
    width = processes._buffer_width(theta, 1e-10)
    for rows in (3, 4, 11):
        monkeypatch.setattr(cli, "SAMPLE_BATCH_CELLS", rows * width + width - 1)
        passes.clear()
        code, out, _err = run_cli(capsys, [
            "sample", "--process", process, "--theta", str(theta), "--samples", str(samples),
            "--streams", str(streams), "--seed", str(seed)])
        assert code == 0
        assert json_lines(out)[0]["batch_cells"] == rows * width + width - 1
        counts = stream_counts(samples, streams)
        sizes = [min(rows, count - start) for count in counts for start in range(0, count, rows)]
        assert passes == sizes and len(sizes) == sum(-(-count // rows) for count in counts)
        if process == "dirichlet":
            continue
        records, expected = json_lines(out)[1:], []
        for stream, count in enumerate(counts):
            gen = processes.RngStream(seed, stream).generator()
            for start in range(0, count, rows):
                expected += expected_sample_rows(process, gamma_batch(
                    theta, 1e-10, min(rows, count - start), gen))
        assert_records_match(records, expected)


def test_a_gamma_draw_whose_masses_underflow_when_scaled_exits_3(capsys):
    # At theta = 0.001 and eps = 1e-100 a draw keeps masses down to near
    # eps, and its Gamma(theta) total is often far below 1e-200, so their
    # product can round to 0 (15 of the one-draw seeds 0-199): a numerical
    # failure of a valid configuration.  Seed 0's seventh draw is the
    # first; the six before it are already written.
    code, out, err = run_cli(capsys, ["sample", "--theta", "0.001", "--eps", "1e-100",
                                      "--samples", "200"])
    assert code == 3 and err.startswith("conicpd: numerical failure") and "total mass" in err
    records = json_lines(out)
    assert "batch_cells" in records[0]
    assert [record["draw"] for record in records[1:]] == list(range(6))


def test_a_subnormal_eps_exits_2_before_any_draw(capsys):
    # At eps = 1e-320 a kept stick's mass could round to 0.  The run used
    # to stop part-way with exit 3 (106 draws written at this seed); the eps
    # is now refused before any draw, with the output empty.
    code, out, err = run_cli(capsys, ["sample", "--theta", "4", "--eps", "1e-320",
                                      "--samples", "200"])
    assert code == 2 and out == "" and err.strip() == (
        "conicpd: invalid configuration: truncation eps 1e-320 lets a kept atom mass "
        "underflow to 0; raise eps")


@pytest.mark.parametrize("flags", [
    ["--theta", "-1"], ["--theta", "nan"], ["--eps", "1.5"], ["--eps", "0"],
    ["--seed", str(2**64)], ["--samples", "0"], ["--theta", "1e8"], ["--eps", "1e-320"],
])
def test_sample_refusals_before_any_draw_leave_the_output_empty(capsys, tmp_path, flags):
    out = tmp_path / "draws.json"
    for argv in (["sample"] + flags, ["sample", "--out", str(out)] + flags):
        code, text, err = run_cli(capsys, argv)
        assert code == 2 and text == "" and "invalid configuration" in err
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_refusal_mid_run_keeps_the_draws_already_written(capsys, monkeypatch, fmt):
    # With batches of two draws, a NaN mass in the second batch refuses its
    # first row: the first batch's two draws are written, and the run exits 2.
    stick_rows, passes = processes._stick_rows, []

    def nan_in_second_batch(*args, **kwargs):
        masses, tails, cuts = stick_rows(*args, **kwargs)
        passes.append(len(cuts))
        if len(passes) == 2:
            masses[0, 1] = np.nan
        return masses, tails, cuts

    monkeypatch.setattr(processes, "_stick_rows", nan_in_second_batch)
    monkeypatch.setattr(cli, "SAMPLE_BATCH_CELLS", 2 * processes._buffer_width(1.0, 1e-10))
    argv = ["sample", "--samples", "5", "--seed", "3", "--format", fmt]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and err.strip() == (
        "conicpd: invalid configuration: atom masses must be finite and strictly positive")
    assert passes == [2, 2] and [r["draw"] for r in sample_records(out, fmt)] == [0, 1]
    monkeypatch.setattr(processes, "_stick_rows", stick_rows)
    code, whole, _err = run_cli(capsys, argv)
    assert code == 0 and whole.startswith(out) and len(sample_records(whole, fmt)) == 5


# The child's own peak resident memory, in bytes.  On Linux, ru_maxrss also
# counts the memory of the process that started it, up to its exec, so the
# child reads its address space's high-water mark (VmHWM) instead.
_PEAK_RSS = """
import resource, sys
from conicpd.cli import main
code = main(sys.argv[1:])
try:
    with open("/proc/self/status") as fh:
        print(1024 * next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")))
except OSError:
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * (1 if sys.platform == "darwin" else 1024))
sys.exit(code)
"""


def test_sample_memory_does_not_grow_with_the_draw_count(tmp_path):
    # Each draw is written as it is formed, so ten times the draws keep the
    # same peak; holding every record took about 10 KB a draw.
    peaks_mb = []
    for samples in (2000, 20_000):
        out = tmp_path / f"{samples}.csv"
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS, "sample", "--theta", "1", "--format", "csv",
             "--samples", str(samples), "--out", str(out)],
            capture_output=True, text=True, timeout=600,
            env=dict(os.environ, PYTHONPATH=str(REPO / "src")))
        assert proc.returncode == 0, proc.stderr
        assert out.read_text().count("\n") > samples
        peaks_mb.append(int(proc.stdout) / 2**20)
    assert abs(peaks_mb[1] - peaks_mb[0]) < 16.0, peaks_mb


@pytest.mark.parametrize("argv", [
    ["sample", "--process", "lebesgue"],
    ["laplace", "--f", "2@0:1"],
])
def test_streams_that_draw_nothing_are_not_walked(capsys, monkeypatch, argv):
    # Only min(samples, streams) streams draw; the rest are not even keyed,
    # so a huge --streams costs nothing, and the meta line reports it as given.
    made = []
    generator = processes.RngStream.generator

    def counted(self):
        made.append(self.stream_id)
        return generator(self)

    monkeypatch.setattr(processes.RngStream, "generator", counted)
    code, many, err = run_cli(capsys, argv + ["--samples", "3", "--streams", str(10**5)])
    assert code == 0 and err == "" and made == [0, 1, 2]
    code, few, err = run_cli(capsys, argv + ["--samples", "3", "--streams", "3"])
    assert code == 0 and err == "" and made == [0, 1, 2] * 2
    assert json.loads(many.split("\n", 1)[0])["config"]["streams"] == 10**5
    assert many.split("\n", 1)[1] == few.split("\n", 1)[1]


@pytest.mark.parametrize("argv", [
    ["sample", "--seed", str(2**64)],
    ["laplace", "--f", "2@0:1", "--samples", "3", "--seed", str(2**64)],
    # Without Monte Carlo columns this used to exit 0 and print the seed.
    ["mp-demo", "--samples", "0", "--seed", str(2**64)],
])
def test_seeds_and_streams_past_64_bits_exit_2(capsys, argv):
    # Philox keys are two 64-bit words.
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == "" and "below 2**64" in err


def test_invariance_pairs_key_only_the_streams_that_draw(capsys, monkeypatch):
    # The pairs share one batch on streams 1000, 1001, ..., so a --streams of
    # 2**63 keys the pair generator's stream and the three streams that draw.
    # (Until 0.8.0 pair k drew on streams from 1000 + k * streams, and pair 2
    # was refused at 2**64.)
    made = []
    generator = processes.RngStream.generator

    def counted(self):
        made.append(self.stream_id)
        return generator(self)

    monkeypatch.setattr(processes.RngStream, "generator", counted)
    argv = ["invariance", "--pairs", "3", "--samples", "3"]
    code, many, err = run_cli(capsys, argv + ["--streams", str(2**63)])
    assert code == 0 and err == "" and made == [999_983, 1000, 1001, 1002]
    code, few, err = run_cli(capsys, argv + ["--streams", "3"])
    assert code == 0 and many.split("\n", 1)[1] == few.split("\n", 1)[1]


def test_parser_is_reused_without_carrying_state(capsys):
    code, out, err = run_cli(capsys, ["sample", "--theta", "x"])
    assert code == 2 and out == "" and "invalid float value: 'x'" in err

    code, out, err = run_cli(capsys, ["saddle", "--lambda", "2"])
    assert code == 0 and err == ""
    meta, record = json_lines(out)
    assert meta["config"] == {"command": "saddle", "format": "json", "lam": 2.0}
    assert record["gamma"] == pytest.approx(2.479687450428178690538, abs=1e-9)

    runs = [run_cli(capsys, ["sample", "--samples", "2"]) for _ in range(2)]
    for code, out, err in runs:
        assert code == 0 and err == ""
        assert json_lines(out)[0]["config"] == {
            "command": "sample", "eps": 1e-10, "format": "json", "process": "gamma",
            "samples": 2, "seed": 0, "streams": 1, "theta": 1.0}
    assert runs[0][1] == runs[1][1]

    code, _out, err = run_cli(capsys, ["saddle", "--lambda", "y"])
    assert code == 2 and "invalid float value: 'y'" in err
    assert _parser() is _parser()


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


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("command, key, value", [
    ("saddle", "format", "xml"),
    ("sample", "process", "weird"),
    ("divergence", "schedule", "spiral"),
    ("laplace", "theta", "abc"),
])
def test_allowed_values_are_checked_for_flags_and_config_files(
        capsys, tmp_path, source, command, key, value):
    if source == "flag":
        argv = [command, f"--{key}", value]
    else:
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = {value}\n")
        argv = [command, "--config", str(cfg)]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == "" and repr(value) in err


def test_config_file_accepts_keys_of_other_subcommands(capsys, tmp_path):
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("theta = 2.5\nschedule = sqrt_n\nlambda = 2.0\n")
    code, out, _err = run_cli(capsys, ["saddle", "--config", str(cfg)])
    assert code == 0
    assert json_lines(out)[0]["config"] == {"command": "saddle", "format": "json",
                                             "lam": 2.0}


# The flags of each subcommand; no other option may appear.  Only the
# subcommands that draw random numbers take --seed and --streams.
_COMMON_FLAGS = {"--out", "--format", "--config"}
_FLAGS = {
    "sample": {"--theta", "--eps", "--samples", "--process", "--seed", "--streams"},
    "laplace": {"--theta", "--samples", "--f", "--seed", "--streams"},
    "invariance": {"--theta", "--samples", "--pairs", "--a", "--f", "--seed", "--streams"},
    "partition-sums": {"--weights", "--b", "--samples", "--seed", "--streams"},
    "mellin": {"--lambda", "--nmax", "--nmin"},
    "saddle": {"--lambda"},
    "mp-demo": {"--n", "--smax", "--spoints", "--samples", "--seed", "--streams"},
    "divergence": {"--lambda", "--schedule", "--scale", "--nmax", "--nmin"},
    "box-mass": {"--weights", "--b"},
}

# A valid value, other than the default, for every option but --config;
# sample counts are small so each run is quick.
_RNG_VALUES = {"seed": "4", "streams": "2"}
_ROUND_TRIP_VALUES = {
    "sample": {"theta": "2.0", "eps": "1e-8", "samples": "2", "process": "dirichlet",
               **_RNG_VALUES},
    "laplace": {"theta": "2.0", "samples": "200", "f": "2@0:1", **_RNG_VALUES},
    "invariance": {"theta": "2.0", "samples": "100", "pairs": "1", "a": "1.5@0:1",
                   "f": "2@0:1", **_RNG_VALUES},
    "partition-sums": {"weights": "0.5,1.5", "b": "0.5,1", "samples": "200", **_RNG_VALUES},
    "mellin": {"lam": "2.0", "nmax": "5", "nmin": "3"},
    "saddle": {"lam": "2.0"},
    "mp-demo": {"n": "5", "smax": "1.5", "spoints": "3", "samples": "16", **_RNG_VALUES},
    "divergence": {"lam": "0.5", "schedule": "sqrt_n", "scale": "1.5", "nmax": "5",
                   "nmin": "3"},
    "box-mass": {"weights": "0.5,1.5", "b": "0.5,1"},
}


def _round_trip_cases():
    for command, spec in _SPECS.items():
        for flag in spec:
            if flag.dest != "config":
                for key in sorted({flag.flag[2:], flag.dest}):
                    yield command, flag.flag, key


def _meta_config(text):
    return json.loads(text.splitlines()[0].removeprefix("# "))["config"]


@pytest.mark.parametrize("command, flag, key", list(_round_trip_cases()))
def test_config_line_and_flag_resolve_alike(capsys, tmp_path, command, flag, key):
    spec = {f.flag: f for f in _SPECS[command]}
    values = dict(_ROUND_TRIP_VALUES[command])
    values["format"] = "csv" if spec["--format"].default == "json" else "json"
    values["out"] = str(tmp_path / "out.txt")
    assert set(values) == {f.dest for f in spec.values()} - {"config"}
    as_flags = {f.flag: values[f.dest] for f in spec.values() if f.dest in values}

    assert main([command, *(x for item in as_flags.items() for x in item)]) == 0
    from_flag = (tmp_path / "out.txt").read_text()
    (tmp_path / "out.txt").unlink()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {as_flags.pop(flag)}\n")
    argv = [command, *(x for item in as_flags.items() for x in item), "--config", str(cfg)]
    assert main(argv) == 0
    from_file = (tmp_path / "out.txt").read_text()
    assert capsys.readouterr().out == ""
    assert _meta_config(from_file) == _meta_config(from_flag)
    assert from_file == from_flag


@pytest.mark.parametrize("command", list(_FLAGS))
def test_help_lists_exactly_the_spec_flags(capsys, command):
    spec_flags = {f.flag for f in _SPECS[command]}
    assert spec_flags == _FLAGS[command] | _COMMON_FLAGS
    code, out, _err = run_cli(capsys, [command, "--help"])
    assert code == 0
    assert set(re.findall(r"(?<![\w-])--[a-z][\w-]*", out)) == spec_flags | {"--help"}


_BAD_SEED = "seed must be a non-negative integer below 2**64"
_BAD_STREAMS = "stream count must be a positive integer"


def test_negative_seed_rejected(capsys):
    # The library's check of the seed, not one of the CLI's own.
    code, out, err = run_cli(capsys, ["laplace", "--f", "2@0:1", "--seed", "-3"])
    assert code == 2 and out == "" and _BAD_SEED in err


@pytest.mark.parametrize("argv, message", [
    (["sample", "--seed", "-1"], _BAD_SEED),
    (["invariance", "--seed", "-1"], _BAD_SEED),
    (["partition-sums", "--weights", "1", "--seed", "-1"], _BAD_SEED),
    (["mp-demo", "--seed", "-1"], _BAD_SEED),
    (["sample", "--streams", "0"], _BAD_STREAMS),
    (["laplace", "--f", "2@0:1", "--streams", "0"], _BAD_STREAMS),
    (["invariance", "--streams", "0"], _BAD_STREAMS),
    (["partition-sums", "--weights", "1", "--streams", "0"], _BAD_STREAMS),
    # Without Monte Carlo columns mp-demo used to accept any stream count.
    (["mp-demo", "--streams", "0"], _BAD_STREAMS),
    (["invariance", "--pairs", "0"], "pairs must be a positive integer"),
])
def test_seeds_streams_and_pairs_are_checked_by_the_library(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize("command", ["mellin", "saddle", "divergence", "box-mass"])
def test_deterministic_subcommands_take_no_seed(capsys, command):
    # They draw nothing at random, so a seed would be a setting that changes nothing.
    for flag in ("--seed", "--streams"):
        code, out, err = run_cli(capsys, [command, flag, "1"])
        assert code == 2 and out == "" and "unrecognized arguments" in err


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize("argv", [
    ["laplace", "--f", "2@0:1", "--samples", "10"],
    ["invariance", "--pairs", "1", "--samples", "10"],
    ["partition-sums", "--weights", "0.5,1.5", "--b", "1", "--samples", "10"],
])
def test_estimators_take_no_eps(capsys, tmp_path, argv, form):
    # The estimators draw their piece masses exactly, so a truncation level
    # would be a setting that changes nothing.  An --eps flag is refused; an
    # eps line, which a config file shared with sample may hold, is left out
    # of the run and of its meta line.
    code, plain, _err = run_cli(capsys, argv)
    assert code == 0 and "eps" not in json.loads(plain.splitlines()[0].removeprefix("# "))["config"]
    if form == "flag":
        code, out, err = run_cli(capsys, [*argv, "--eps", "1e-8"])
        assert code == 2 and out == "" and "unrecognized arguments: --eps" in err
    else:
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("eps = 1e-8\n")
        assert run_cli(capsys, [*argv, "--config", str(cfg)]) == (0, plain, "")


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


def test_cli_import_leaves_scipy_stats_unloaded():
    """Importing the CLI and building its parser must not pull in scipy.stats,
    scipy.integrate, scipy.special or concurrent.futures.

    scipy.stats alone takes about half a second to import, as long as the
    rest of the start-up together; scipy.integrate adds about a quarter
    second, and only the semigroup convolution check needs it.  scipy.special
    takes about a third of a second, and only the subcommands that compute
    special functions import the modules that use it.  concurrent.futures
    (with the logging it loads) takes about 11 ms, some 6% of the start-up,
    and nothing in conicpd needs it.
    """
    code = ("import sys, conicpd.cli; conicpd.cli.build_parser(); "
            "print([m for m in ('scipy.stats', 'scipy.integrate', 'scipy.special', "
            "'concurrent.futures') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(REPO / "src")), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Run in one fresh interpreter: the scipy-free subcommands first, then every
# subcommand whose runner imports a module that calls scipy.
_COLD_START = """
import contextlib, io, json, sys
from conicpd.cli import main

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(argv))

codes = {
    "sample": run("sample", "--samples", "2", "--process", "lebesgue"),
    "laplace": run("laplace", "--f", "2@0:0.5,1.5@0.5:1", "--samples", "500"),
    "invariance": run("invariance", "--pairs", "1", "--samples", "500"),
}
scipy_free = "scipy.special" not in sys.modules
codes.update({
    "saddle": run("saddle"),
    "partition-sums": run("partition-sums", "--weights", "1,1", "--samples", "500"),
    "mp-demo": run("mp-demo", "--n", "3", "--spoints", "3"),
    "box-mass": run("box-mass", "--weights", "1,1"),
    "mellin": run("mellin", "--nmax", "4"),
    "divergence": run("divergence", "--nmax", "4"),
})
print(json.dumps({"scipy_free": scipy_free, "codes": codes}))
"""


def test_scipy_free_subcommands_run_without_scipy_and_the_rest_load_it():
    proc = subprocess.run([sys.executable, "-c", _COLD_START], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["scipy_free"], "sample, laplace or invariance loaded scipy.special"
    assert set(result["codes"]) == set(_SPECS)
    assert all(code == 0 for code in result["codes"].values()), result["codes"]


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
