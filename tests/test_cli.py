import csv
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conicpd import DomainError, NumericalError, PartitionSpec, __version__, box_mass_L, processes
from conicpd.cli import _SPECS, _fmt, _parser, main, parse_step_function
from conicpd.estimation import CHUNK_ROWS
from conicpd.stepfn import _LOOP_EDGES


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
    assert meta["version"] == "0.4.0"
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


def test_mp_demo_refuses_normals_over_the_cell_budget(capsys, monkeypatch):
    # rows x n normals per chunk are bounded by the sampler's cell budget;
    # a small budget shows the refusal without a large allocation.
    monkeypatch.setattr(processes, "_CELL_BUDGET", 4000)
    code, out, err = run_cli(capsys, ["mp-demo", "--n", "5", "--spoints", "3",
                                      "--samples", "1000"])
    assert code == 2 and out == "" and "cell sampler budget" in err


# sha256 of the mc,stderr cells (one "mc,stderr" line per row) of
# mp-demo --n 3,8 --smax 4 --spoints 129 --samples 100000 --streams S --seed 5,
# frozen from the per-point Monte Carlo runs the batched kernel replaced:
# several chunks per stream and two column blocks of s points.
_MP_DEMO_MC_SHA256 = {
    1: "df65bcb456e0343ea1f560eea7d7bd4065cdce9d7e4fea94e86a4bb4e422a6f9",
    3: "a4622060b59011e3d5ea4444c3392d329fd1c156872b2c0e1833152bcdf98a37",
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
# the comparison loop replaced.  The 40-piece f is counted by the loop and
# the 80-piece f by the searchsorted fallback; the weights 0.1,0.2,0.3 have
# cumulative probabilities ending at 0.9999999999999999.
_ESTIMATOR_BODY_SHA256 = [
    (("laplace", "--theta", "0.5", "--f", _F["constant"], "--streams", "1"),
     "9b1cce7d778df1bfe612901d0b93977e941c443a8b0261914c67a3a69d57c8c3"),
    (("laplace", "--theta", "0.5", "--f", _F["three"], "--streams", "1"),
     "3fae4eead7402893bdab40853014d4f34015588de3e3a8f764a9cfc5bcd61be3"),
    (("laplace", "--theta", "1", "--f", _F["constant"], "--streams", "1"),
     "4f58e3b9b0047d6aeb403fd24f840a0ccb53b3be1f183f56ea851b9fc1a52ac8"),
    (("laplace", "--theta", "1", "--f", _F["three"], "--streams", "1"),
     "b8ff7c5b4fb59f5290c1e2678623d485aca8ab71775a7e3af96291f896ae3a6f"),
    (("laplace", "--theta", "4", "--f", _F["constant"], "--streams", "1"),
     "b395b307f01bc5c996b62b790106b4cf411f8b8cc7e11279d0b7367d712e9e1f"),
    (("laplace", "--theta", "4", "--f", _F["three"], "--streams", "2"),
     "6cc762b8aa81510afafd7465c0c88d325a68f00e58a224174fac79e432e75046"),
    (("laplace", "--theta", "8", "--f", _F["constant"], "--streams", "1"),
     "9a124cc56042e997d7d593138d45580c38c454f3040ebcbdc494e2084894c5df"),
    (("laplace", "--theta", "8", "--f", _F["three"], "--streams", "1"),
     "60a56f6354dd70e4d97ef2f0cae4f65aee307960e6e7fba579f4b8301ebe44bd"),
    (("laplace", "--theta", "1", "--f", _F["forty"], "--streams", "1"),
     "3218e8bda6f0583bb6dfd93edc0e5d22d2a89011878019da7a7da497ff06de93"),
    (("laplace", "--theta", "1", "--f", _F["eighty"], "--streams", "1"),
     "10ea18eb0c7324d768c5cf621c5a2aff45bd99cd7a84c4e4854a29a303c615ef"),
    (("partition-sums", "--weights", "0.5,1.5", "--b", "0.5,1,2"),
     "db124e18bab5a31118c9ee02edaaec6b595be57bf49d30e6ca39ff848d1364db"),
    (("partition-sums", "--weights", "0.1,0.2,0.3"),
     "0ce4f4e440bf3d64dfaeeae625b38981b54f67733430c18220fbc5b37fcb351d"),
    (("invariance", "--pairs", "4", "--samples", "2000", "--format", "csv"),
     "f37292522511b849407c268c0c67a49bb6dfe3675713eca16633b858ade1fe20"),
    # Kernels that skip their unread location uniforms, frozen while they
    # still drew them: a chunk boundary inside one stream, two streams, and
    # the box kernel, which draws its marks after the skipped block.
    (("laplace", "--theta", "1", "--f", _F["constant"], "--streams", "1", "--samples", "33000"),
     "66746af4e7dbb17f86f9716b2ad5e2c452745dd9c5a7e19b99f5d89f2e3a8630"),
    (("laplace", "--theta", "2", "--f", _F["constant"], "--streams", "2"),
     "cdc142565bad764cb79d3dd5ed46a944ef12401f05a8151c7df6813e39f0603b"),
    (("partition-sums", "--weights", "0.5,1.5", "--b", "1", "--samples", "33000"),
     "0fdb87413f8da22187e6bbfe0e175aa499215070bcfe46f81c5117a43a323759"),
]


@pytest.mark.parametrize("argv, digest", _ESTIMATOR_BODY_SHA256)
def test_estimator_output_bytes_are_frozen(capsys, argv, digest):
    argv = list(argv) + ["--seed", "11"] + ([] if "--samples" in argv else ["--samples", "3000"])
    code, out, _err = run_cli(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.split("\n", 1)[1].encode()).hexdigest() == digest


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("argv, digest", _ESTIMATOR_BODY_SHA256)
def test_estimator_output_bytes_do_not_depend_on_row_blocks(capsys, monkeypatch, argv, digest,
                                                            width):
    # Width 1 is the serial path; three threads with no size floor split
    # every pass of every chunk into six uneven blocks, whatever the host's
    # CPU count.
    monkeypatch.setattr(processes, "_WIDTH", width)
    monkeypatch.setattr(processes, "_SPLIT_CELLS", 0)
    test_estimator_output_bytes_are_frozen(capsys, argv, digest)


_INVARIANCE_CASE = next(case for case in _ESTIMATOR_BODY_SHA256 if case[0][0] == "invariance")


@pytest.mark.parametrize("width", [1, 2, 3])
def test_invariance_bytes_do_not_depend_on_pair_fan_out(capsys, monkeypatch, width):
    # No pass reaches the size floor, so at width 2 and 3 the pairs run at
    # once on the pool, each with its passes in one block; width 1 runs them
    # one after another.
    monkeypatch.setattr(processes, "_WIDTH", width)
    monkeypatch.setattr(processes, "_SPLIT_CELLS", 1 << 62)
    test_estimator_output_bytes_are_frozen(capsys, *_INVARIANCE_CASE)


_STEP3 = "1.8@0.0:0.3,0.9@0.3:0.7,1.3@0.7:1.0"

# sha256 of every line after the meta line of the bench's 14 mc-shaped argv
# (workload seed 2, whose second theta = 4 task extends a stick batch), plus
# the theta = 4 task of workload seed 311 whose first stick block is outgrown,
# each with its --seed; frozen before the kernels streamed their row blocks.
_MC_BODY_SHA256 = [
    (("laplace", "--theta", "0.5", "--f", "1.5@0.0:1.0", "--samples", "8192"),
     "2104669064", "e22c898f411becf500f753757395f00ed9a67d2c1448f2f8dcea4d63613548ea"),
    (("laplace", "--theta", "0.5", "--f", _STEP3, "--samples", "8192"),
     "1705610640", "7938448afc98ab8e85c896b37eb19d6d9cce37655d4b0f4c92724d9616d1e4d6"),
    (("laplace", "--theta", "1.0", "--f", "1.5@0.0:1.0", "--samples", "8192"),
     "1457654484", "7d3eb7f21f925007ccb920ccaafb720693e66f67f3ceaa9da83583916f3c77c6"),
    (("laplace", "--theta", "1.0", "--f", _STEP3, "--samples", "8192"),
     "1312480814", "fc5b7c9a189f1266c669c7026984a1223f7da360a4edfa0a84f303c35db9ec73"),
    (("laplace", "--theta", "4.0", "--f", "1.5@0.0:1.0", "--samples", "4096"),
     "816715227", "69fc860c3b68436c9c360fa41a308d683e08fa4b4cd6cefbb445837a088cfb31"),
    (("laplace", "--theta", "4.0", "--f", _STEP3, "--samples", "4096", "--streams", "2"),
     "1673831587", "cd985b697f6f78eeaa65ea5df17057c6a470dd9378ace43bf44e67c3d58f9c53"),
    (("laplace", "--theta", "4.0", "--f", "1.5@0.0:1.0", "--samples", "4096"),
     "1609523211", "1d24c2f506871bf45c81423b2e989dcd4358fe60ff01e0ef0bce38338192c4b0"),
    (("laplace", "--theta", "4.0", "--f", _STEP3, "--samples", "4096", "--streams", "2"),
     "973238861", "c625cb832505a678950ab08c280305c42454faf146c156c4bcfe113ebab19ab1"),
    (("laplace", "--theta", "8.0", "--f", "1.5@0.0:1.0", "--samples", "2048"),
     "1188544692", "4c1e5b490b761b7e3097ca8a1942b4cbad7b7dc77936c1abeb126034903f9923"),
    (("laplace", "--theta", "8.0", "--f", _STEP3, "--samples", "2048"),
     "116293682", "d2fff02b6bd7d64dbfcb32c05e10402848c7cd6dc661c068cc737b009dda64a7"),
    (("laplace", "--theta", "8.0", "--f", "1.5@0.0:1.0", "--samples", "2048"),
     "1120397550", "4ea9299820d1ae6af6d31251cf427edcead62bfd1d5fef47fea7475cf11537bc"),
    (("laplace", "--theta", "8.0", "--f", _STEP3, "--samples", "2048"),
     "31173149", "1ff855e7f984a18a06476751ca599b6cb10275c7e0f2c2cf1633af8d017a7b1a"),
    (("partition-sums", "--weights", "0.5,1.5", "--b", "0.5,1.0,2.0", "--samples", "8192"),
     "433586074", "11e9e9ece5dfb3b1f5ce1b68aae201bc9b2b199b503f17160d0a2abb737236ee"),
    (("invariance", "--pairs", "24", "--samples", "1500", "--format", "csv"),
     "540110510", "42185d0f390e84af1becb44155f0e49c9a67f673742357a5fda31763dc005249"),
    (("laplace", "--theta", "4.0", "--f", "1.5@0.0:1.0", "--samples", "4096"),
     "1654520701", "68891bb571cae1078ea8882c5d557b89e2be35c7f0894429cc85be75d350a619"),
]


@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("argv, seed, digest", _MC_BODY_SHA256)
def test_mc_shaped_output_bytes_are_frozen(capsys, monkeypatch, argv, seed, digest, width):
    # As in the row-block test above: width 1 is serial, and with no size
    # floor every pass of two rows or more splits over 2 or 3 threads.
    monkeypatch.setattr(processes, "_WIDTH", width)
    monkeypatch.setattr(processes, "_SPLIT_CELLS", 0)
    code, out, _err = run_cli(capsys, list(argv) + ["--seed", seed])
    assert code == 0
    assert hashlib.sha256(out.split("\n", 1)[1].encode()).hexdigest() == digest


def test_the_first_failing_pair_surfaces_once_no_pair_runs(capsys, monkeypatch):
    # Pair 5 fails first in time while pair 2 waits for it; pair 2's failure
    # is the one a serial run meets, so it is the one reported.
    from conicpd import estimation, laplace

    monkeypatch.setattr(processes, "_WIDTH", 3)
    monkeypatch.setattr(processes, "_SPLIT_CELLS", 1 << 62)
    lock, running, fifth_failed = threading.Lock(), [0], threading.Event()

    def failing(n_samples, rng, *args):
        pair = rng.stream_id - 1000
        with lock:
            running[0] += 1
        try:
            if pair == 2:
                fifth_failed.wait(30.0)
                time.sleep(0.01)
            if pair in (2, 5):
                if pair == 5:
                    fifth_failed.set()
                raise NumericalError(f"pair {pair} failed")
            return estimation._pooled_mean(n_samples, rng, *args)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(laplace, "_pooled_mean", failing)
    code, out, err = run_cli(capsys, ["invariance", "--pairs", "12", "--samples", "300",
                                      "--streams", "1", "--seed", "4"])
    assert code == 3 and out == ""
    assert "pair 2 failed" in err and "pair 5" not in err
    assert fifth_failed.is_set() and running[0] == 0


def test_frozen_step_functions_straddle_the_lookup_crossover():
    inner = {key: parse_step_function(text).breakpoints.size - 2 for key, text in _F.items()}
    assert inner["three"] < inner["forty"] <= _LOOP_EDGES < inner["eighty"]


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
# frozen from the row-per-atom formatter this one replaced.
_SAMPLE_BODY_SHA256 = {
    ("json", "dirichlet", 1, 1): "33a098b2ef977a9048c3126c5d56de29f046fd64889af3463342450a08c1b53a",
    ("json", "dirichlet", 1, 2): "b130500a06a2a1d25caa1bef70b095c9fc75e818ea44df044e2e1d361422596c",
    ("json", "dirichlet", 8, 1): "e5a5173a3fb5ce0340506800c9e48e1c10a10e3c1ecb4896d504a99b201694c8",
    ("json", "dirichlet", 8, 2): "b2dfbcb841730c39b80af8787c47bea63068618fd55111df37e75dae85af8663",
    ("json", "dirichlet", 64, 1): "b99482e8b394969d2b0e2841491c931b1a85f36029a50f1c3cd5c8d4f9cc2df1",
    ("json", "dirichlet", 64, 2): "c207231d8b44a22acea7d4838772db7cdaa9871114f6f4e2dfc67f7125ef1c5c",
    ("json", "gamma", 1, 1): "0dad05d52476b85fcdfea5302e7abe000462cadf374c008dba831f2843c3e5f1",
    ("json", "gamma", 1, 2): "cc406b0d2b3759eef92fc8200eedfe78a3dd5ae7d93e6f67863df744539c3cea",
    ("json", "gamma", 8, 1): "005d6b0b195da9bc4731f4ae5f3964b06bbace8181e16877e0a0c27f869d0d94",
    ("json", "gamma", 8, 2): "3db71ed94effbee7b763a7e59fa2e5d6f2f4cf2063cd7b7ea426e8513fd80bf7",
    ("json", "gamma", 64, 1): "42a402eb38cf858e6e5843e5d46214882a94308693d5e57b4856a1aab68364a7",
    ("json", "gamma", 64, 2): "c9e6d85e372fbe90216bdfa74407d9c4c6202d0a0b7bf1be6588ebf895508e82",
    ("json", "lebesgue", 1, 1): "871e5db13c011ad24702c4ad28f99de25255e04f46783332e13f2ea045677d94",
    ("json", "lebesgue", 1, 2): "0914936fe344c1bcf53cea5365f30815a8a5c55706d574b97174ed0fd26e81ba",
    ("json", "lebesgue", 8, 1): "d0833ee0d436f655d8e789bc403b1f0ab413092b96e47a678aa9b7115de43032",
    ("json", "lebesgue", 8, 2): "ab27fb32ef4bc349eb45de1174f09b75a0112ce95f80e0b6e94335fc008c4c2f",
    ("json", "lebesgue", 64, 1): "bca9234c76e648979e22d30f0c0d31279a4a1b06e05d4a4a02d0b582158cf727",
    ("json", "lebesgue", 64, 2): "2dc2383c6c4caf66b0284ca4779f6140edc9a9f86c03ccd92fe5e757bdbedfa3",
    ("csv", "dirichlet", 1, 1): "8f9b160ae368a2abc7c6713b892c87c142359300d49c331718d52fa07620aaf4",
    ("csv", "dirichlet", 1, 2): "bdbc58ec8314ffde650b588d9de91280c44104018e546a756c23ad4007868813",
    ("csv", "dirichlet", 8, 1): "dc8254148dc4ac3ff8461301102318d735b53cbef2d426e1f3d85b89d1016c50",
    ("csv", "dirichlet", 8, 2): "730c51693179fdaf22d5cd4965a3e8197e8e143a9c2d47f859e8da5bffcc40c1",
    ("csv", "dirichlet", 64, 1): "0044bb76746259dcfe99b5ebcd367e76e6fc7c3788e68eb11d32b45ccca2a821",
    ("csv", "dirichlet", 64, 2): "b431eb953092ac873dd2fd38360e8de5efe937f6dea31d632d504b01a86f0a31",
    ("csv", "gamma", 1, 1): "378e7afeadc06e5601b1beb53d578e388702479e6367349fbf77d62d090e01d0",
    ("csv", "gamma", 1, 2): "5657636480c5127d19505bce6d241472701c83ffbc48b03271e641ff47a5b518",
    ("csv", "gamma", 8, 1): "17c6320669045fa644bdcfceb54992f7507c928234903fe4ccc4312365c10dd7",
    ("csv", "gamma", 8, 2): "99894e1ce9a42519269097d560f4334759d6bfc0376fcbb0c54164fe1aeca945",
    ("csv", "gamma", 64, 1): "08e46c211c878602d775cf6af7421cf1bedfd834cb90a0c1bfc74ee31be9445d",
    ("csv", "gamma", 64, 2): "340d69bf643c7a0a15ca572314dac43d9262dc4590d73c2cf9d8b57bc3e649c9",
    ("csv", "lebesgue", 1, 1): "983f2f3f1573a0604d1e1a352cdb98eb95d2e61927a54016044ae4a839e0f3ce",
    ("csv", "lebesgue", 1, 2): "f89e910989c713465a061ac01ce3b7a766c2a7aaffb099ede05aa746b54e639a",
    ("csv", "lebesgue", 8, 1): "6f188f4d5debc589c9492067421e32766777043b6ec810bfbd4b8756d7023a05",
    ("csv", "lebesgue", 8, 2): "1b1ec2e23f7dfcbf1e108c00fbc84ff86207134f93d9d99e421fa4a817dd433d",
    ("csv", "lebesgue", 64, 1): "daf420f5837d3546cfc3e308c8bb42b706fec8f7440c1dc3ca1954ed33f917d4",
    ("csv", "lebesgue", 64, 2): "977fd1acb5631077525be8a1e70ab025227fe56b726e16c0a45450afac2796fc",
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
# sample --theta T --process P --format F --samples N --seed 14, frozen
# before the scalar samplers built each draw's series once.
_DRAWS_BODY_SHA256 = {
    (1, 150, "gamma", "json"): "0c528d7f6e4396d9d231577091ca0d31718e1370bef70fb46c0f711078b1ef1e",
    (1, 150, "gamma", "csv"): "bda7c7a9a636b78704eddfe524c5eac0a98bcde6169341e9f8586e82cb7c5bff",
    (1, 150, "lebesgue", "json"): "46cd3870f7d5b73f37b83e0caae19705286eaaecc3ca8ef869fb017f725a845a",
    (1, 150, "lebesgue", "csv"): "6609786a4bb0ced0f09622d2fa2a15b3551f50d002c230519dcb111c977f35bf",
    (8, 25, "gamma", "json"): "215d53427b02d7d4424c48ff3cc6b35b47ecdb4107e57e7241922fc5dcc0b589",
    (8, 25, "gamma", "csv"): "89c5fb77341db783a5b1a6245254c53dc79645dcdfe75e7207c18934f48b0461",
    (8, 25, "lebesgue", "json"): "7c31ae58c72bddaa9ebbc2110f51490045c4dcf49c2c7d3791f3cea6fa3c150c",
    (8, 25, "lebesgue", "csv"): "85026f422cc2686471b7361595454c25826358fecf18374646ec3414ba7181e0",
    (64, 4, "gamma", "json"): "eb6ab388b3f980223bab00599c9e22d1276f494f0b31dde33c48e6614bc2ebdb",
    (64, 4, "gamma", "csv"): "a6155b6c07a5209bd917319ba735e973405a0b4534ba348473c548d6912fd85a",
    (64, 4, "lebesgue", "json"): "c418045c90e70d2e12823e9cfce7cb82e2c31359e8e662f548843b54b1e30fa0",
    (64, 4, "lebesgue", "csv"): "6de03be1041718899b21a6dc49485d74b2c4c264bcb3cf0cfee43ca914e777de",
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
    ["invariance", "--pairs", "3", "--samples", "3", "--streams", str(2**63)],
])
def test_seeds_and_streams_past_64_bits_exit_2(capsys, argv):
    # Philox keys are two 64-bit words; the last case keys pair 2 at 2**64.
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == "" and "below 2**64" in err


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
    "laplace": {"--theta", "--eps", "--samples", "--f", "--seed", "--streams"},
    "invariance": {"--theta", "--eps", "--samples", "--pairs", "--a", "--f", "--seed",
                   "--streams"},
    "partition-sums": {"--weights", "--b", "--eps", "--samples", "--seed", "--streams"},
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
    "laplace": {"theta": "2.0", "eps": "1e-8", "samples": "200", "f": "2@0:1", **_RNG_VALUES},
    "invariance": {"theta": "2.0", "eps": "1e-8", "samples": "100", "pairs": "1",
                   "a": "1.5@0:1", "f": "2@0:1", **_RNG_VALUES},
    "partition-sums": {"weights": "0.5,1.5", "b": "0.5,1", "eps": "1e-8", "samples": "200",
                       **_RNG_VALUES},
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


def test_negative_seed_rejected(capsys):
    code, out, err = run_cli(capsys, ["laplace", "--f", "2@0:1", "--seed", "-3"])
    assert code == 2 and out == "" and "seed must be >= 0" in err


@pytest.mark.parametrize("command", ["mellin", "saddle", "divergence", "box-mass"])
def test_deterministic_subcommands_take_no_seed(capsys, command):
    # They draw nothing at random, so a seed would be a setting that changes nothing.
    for flag in ("--seed", "--streams"):
        code, out, err = run_cli(capsys, [command, flag, "1"])
        assert code == 2 and out == "" and "unrecognized arguments" in err


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
    (with the logging it loads) takes about 11 ms, some 6% of the start-up;
    the samplers import it when they first split a pass over row blocks.
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
