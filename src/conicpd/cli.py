"""Command-line driver.

Every subcommand resolves its configuration (flags > config file > defaults),
runs the corresponding library routine, and emits either newline-delimited
JSON records or an RFC-4180-style CSV.  The first line always records the
fully resolved configuration, the Monte Carlo chunk size (it fixes how each
stream's draws are cut into batches; ``sample`` adds its own batch bound)
and the tool version, and nothing time- or host-dependent is ever written,
so identical configurations produce byte-identical output.  Records are
written as they are formed, once every refusal that needs no draw has run.

Exit codes: 0 success, 2 validation/configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import sys
from typing import NamedTuple

import numpy as np

# Modules with functions that call scipy are imported by the runners that use
# them, so `sample`, `laplace` and `invariance` start without scipy.
from . import __version__
from .errors import DomainError, NumericalError
from .estimation import CHUNK_ROWS, _stream_chunks, stream_counts
from .processes import RngStream, _batch_rows, _draw_rows, _integer
from .stepfn import StepFunction


def parse_step_function(text: str) -> StepFunction:
    """Parse "v1@b0:b1,v2@b1:b2,..." into a StepFunction on [0, 1).

    Segments may be given in any order but must tile [0, 1) exactly; errors
    name the offending segment.
    """
    if not isinstance(text, str) or not text.strip():
        raise DomainError("empty step-function text")
    pieces = []
    for raw in text.split(","):
        seg = raw.strip()
        try:
            value_part, span = seg.split("@")
            lo_part, hi_part = span.split(":")
            value, lo, hi = float(value_part), float(lo_part), float(hi_part)
        except (ValueError, TypeError):
            raise DomainError(f"malformed step segment '{seg}' (expected value@lo:hi)") from None
        if not all(map(math.isfinite, (value, lo, hi))):
            raise DomainError(f"non-finite number in step segment '{seg}'")
        if value <= 0.0:
            raise DomainError(f"step segment '{seg}' has a non-positive value")
        if not (0.0 <= lo < hi <= 1.0):
            raise DomainError(f"step segment '{seg}' does not sit inside [0, 1)")
        pieces.append((lo, hi, value, seg))
    pieces.sort(key=lambda p: p[0])
    cursor = 0.0
    for lo, hi, _value, seg in pieces:
        if lo != cursor:
            kind = "overlaps" if lo < cursor else "leaves a gap before"
            raise DomainError(f"step segment '{seg}' {kind} position {cursor}")
        cursor = hi
    if cursor != 1.0:
        raise DomainError("step segments do not reach the right endpoint 1")
    breakpoints = np.array([0.0] + [p[1] for p in pieces])
    values = np.array([p[2] for p in pieces])
    return StepFunction(breakpoints, values)


def _parse_float_list(text: str, name: str) -> list[float]:
    try:
        vals = [float(v) for v in str(text).split(",") if v.strip() != ""]
    except ValueError:
        raise DomainError(f"{name} must be a comma-separated list of numbers") from None
    if not vals:
        raise DomainError(f"{name} must not be empty")
    return vals


def _parse_int_list(text: str, name: str) -> list[int]:
    vals = _parse_float_list(text, name)
    if not all(v.is_integer() for v in vals):   # False for inf and nan too
        raise DomainError(f"{name} must contain integers")
    return [int(v) for v in vals]


class Flag(NamedTuple):
    """One option: its flag and a config-file line (keyed by the flag name
    without dashes, or by dest) both parse as ``type`` and, if given, must be
    one of ``choices``."""

    flag: str
    dest: str
    type: type
    default: object
    help: str
    choices: tuple[str, ...] | None = None


_THETA = Flag("--theta", "theta", float, 1.0, "total weight theta > 0")
_LAMBDA = Flag("--lambda", "lam", float, 1.0, "argument lambda > 0")
_NMAX = Flag("--nmax", "nmax", int, 40, "largest n in the table")
_NMIN = Flag("--nmin", "nmin", int, 2, "smallest n in the table")
_WEIGHTS = Flag("--weights", "weights", str, None, "comma list of part weights, e.g. 0.5,1.5")
_EDGES = Flag("--b", "b", str, "1", "comma list of box edges")
# Only the subcommands that draw random numbers take these.
_RNG = (Flag("--seed", "seed", int, 0, "base RNG seed (default 0)"),
        Flag("--streams", "streams", int, 1, "independent stream count"))


def _common(fmt: str) -> tuple[Flag, ...]:
    return (
        Flag("--out", "out", str, None, "output path (default stdout)"),
        Flag("--format", "format", str, fmt, "output format", ("csv", "json")),
        Flag("--config", "config", str, None, "key=value file supplying defaults (flags win)"),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conicpd",
        description="Samplers, transforms and asymptotics for sigma-finite "
                    "measures on the cone of discrete measures.",
    )
    sub = parser.add_subparsers(dest="command")
    for name, (help_text, _format, _flags, _run) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in _SPECS[name]:
            p.add_argument(flag.flag, dest=flag.dest, type=flag.type, choices=flag.choices,
                           default=None, help=flag.help)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # main() parses with one parser per process: building the tree costs
    # milliseconds, as much as a small subcommand.  Parsing leaves it as it was.
    return build_parser()


def _read_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read config file {path}: {exc}") from None
    out = {}
    for idx, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"config line {idx} is not key=value: '{line}'")
        key, value = (part.strip() for part in line.split("=", 1))
        flag = _FILE_KEYS.get(key)
        if flag is None:
            raise DomainError(f"config line {idx} has unknown key '{key}'")
        try:
            out[flag.dest] = flag.type(value)
        except ValueError:
            raise DomainError(f"config line {idx}: cannot parse '{value}' for '{key}'") from None
        if flag.choices and out[flag.dest] not in flag.choices:
            raise DomainError(f"config line {idx}: '{value}' is not a valid '{key}' "
                              f"(choose from {', '.join(flag.choices)})")
    return out


def resolve_config(args: argparse.Namespace) -> dict:
    file_values = _read_config_file(args.config) if args.config else {}
    resolved = {}
    for flag in _SPECS[args.command]:
        value = getattr(args, flag.dest)
        resolved[flag.dest] = file_values.get(flag.dest, flag.default) if value is None else value
    resolved["command"] = args.command
    return resolved


def _fmt(value):
    """One CSV cell: floats by repr, None empty, other text quoted per RFC 4180 when needed."""
    if value is None:
        return ""
    if isinstance(value, float):
        # np.float64 subclasses float, but on numpy 2 its repr is
        # "np.float64(x)".  str() of numpy integers and of other numpy floats
        # already prints a plain number.
        return repr(value) if type(value) is float else repr(float(value))
    text = str(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


_SAMPLE_DRAW_COLS = ["total_mass", "tail_bound", "log_weight", "seed", "stream_id"]
_SAMPLE_COLS = ["draw", "atom", "mass", "location"] + _SAMPLE_DRAW_COLS
# Most cells of a batch of `sample` draws, each row sized at
# ``processes._buffer_width`` columns, with at least one row.  It fixes
# which draws share a stick pass, and so the output bytes: the meta line
# records it.
SAMPLE_BATCH_CELLS = 1 << 18


def _sample_csv_lines(r: dict) -> str:
    """One line per atom: the draw's cells are formatted once and repeated on each."""
    draw = r["draw"]
    tail = "".join("," + _fmt(r[c]) for c in _SAMPLE_DRAW_COLS)
    return "".join(f"{draw},{atom},{mass!r},{loc!r}{tail}\n"
                   for atom, (mass, loc) in enumerate(zip(r["masses"], r["locations"])))


def _emit(cfg: dict, records, fh):
    """Write the meta line, then each record as soon as it is formed.

    A CSV table's header is its first record's keys, in insertion order, and
    each line holds ``_fmt(r[c])`` for those keys: the records are the one
    statement of a table's columns.  ``sample`` alone writes one line per
    atom, under ``_SAMPLE_COLS``.  Every runner but ``sample``'s refuses an
    input that would give no record.
    """
    header = {k: v for k, v in cfg.items() if k not in ("out", "config")}
    meta = {"chunk_rows": CHUNK_ROWS, "config": header, "version": __version__}
    if cfg["command"] == "sample":
        meta["batch_cells"] = SAMPLE_BATCH_CELLS
    meta = json.dumps(meta, sort_keys=True)
    if cfg["format"] == "json":
        fh.write(meta + "\n")
        for r in records:
            fh.write(json.dumps(r, sort_keys=True) + "\n")
        return
    columns = _SAMPLE_COLS if cfg["command"] == "sample" else list(records[0])
    fh.write("# " + meta + "\n" + ",".join(columns) + "\n")
    if cfg["command"] == "sample":
        for r in records:
            fh.write(_sample_csv_lines(r))
        return
    for r in records:
        fh.write(",".join(_fmt(r[c]) for c in columns) + "\n")


def _output(out: str | None):
    if out is None:
        return contextlib.nullcontext(sys.stdout)
    return open(out, "w", encoding="utf-8", newline="\n")


def _run_sample(cfg):
    # Every refusal that needs no draw runs here, before anything is written:
    # theta, eps, the sample count, the last stream's key and an oversized row.
    counts = stream_counts(cfg["samples"], cfg["streams"])
    RngStream(cfg["seed"], len(counts) - 1)
    rows = _batch_rows(cfg["theta"], cfg["eps"], SAMPLE_BATCH_CELLS)
    return _sample_records(cfg, counts, rows)


def _sample_records(cfg, counts, rows):
    """Each stream's draws, in batches of at most ``rows``, one record per draw."""
    theta, eps, seed = cfg["theta"], cfg["eps"], cfg["seed"]
    normalized, lebesgue = cfg["process"] == "dirichlet", cfg["process"] == "lebesgue"
    draw = itertools.count()
    for stream, gen, batch in _stream_chunks(RngStream(seed), counts, rows):
        # A generator expression per batch: its rows, views of the batch's
        # matrices, are let go before the next batch is drawn.
        yield from ({"theta": theta, "eps": eps, "masses": masses.tolist(),
                     "locations": locations.tolist(), "total_mass": total,
                     "tail_bound": tail, "log_weight": total if lebesgue else 0.0,
                     "seed": seed, "stream_id": stream, "draw": next(draw)}
                    for masses, locations, total, tail in _draw_rows(
                        theta, eps, batch, gen, normalized=normalized))


def _run_laplace(cfg):
    from .laplace import analytic_laplace, mc_laplace
    if not cfg["f"]:
        raise DomainError("laplace needs --f (or f= in the config file)")
    f = parse_step_function(cfg["f"])
    exact = analytic_laplace(cfg["theta"], f)
    est = mc_laplace(cfg["theta"], f, cfg["samples"], RngStream(cfg["seed"]),
                     streams=cfg["streams"])
    return [{"theta": cfg["theta"], "f": cfg["f"], "samples": est.n_samples,
             "estimate": est.estimate, "stderr": est.stderr,
             "analytic": exact, "z_score": est.z(exact)}]


def _random_invariance_pair(gen):
    # min(a) >= e^-0.25 and min(f) >= 1.1 keep min(a f) > 0.85, well inside
    # the finite-variance region of the weighted estimator.
    grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    a = StepFunction(grid, np.exp(gen.uniform(-0.25, 0.25, size=4)))
    f = StepFunction(grid, gen.uniform(1.1, 1.6, size=4))
    return a, f


def _run_invariance(cfg):
    from .laplace import quasi_invariance_pairs
    explicit = bool(cfg["a"]) or bool(cfg["f"])
    if explicit and not (cfg["a"] and cfg["f"]):
        raise DomainError("invariance needs both --a and --f when either is given")
    pair_count = 1 if explicit else _integer(cfg["pairs"], "pairs")
    config_gen = RngStream(cfg["seed"], 999_983).generator()
    if explicit:
        pairs = [(parse_step_function(cfg["a"]), parse_step_function(cfg["f"]))]
    else:
        pairs = [_random_invariance_pair(config_gen) for _ in range(pair_count)]
    reports = quasi_invariance_pairs(cfg["theta"], pairs, cfg["samples"],
                                     RngStream(cfg["seed"], 1000), streams=cfg["streams"])
    return [{
        "pair": pair, "phi": report.phi_a,
        "analytic_f": report.analytic_f, "analytic_af": report.analytic_af,
        "analytic_residual": report.analytic_residual,
        "estimate": report.mc.estimate, "stderr": report.mc.stderr,
        "z_score": report.z_score,
    } for pair, report in enumerate(reports)]


def _partition(cfg):
    """The parts, the box edges and the edges' exact masses, formed before any draw."""
    from .densities import PartitionSpec, box_mass_L
    if not cfg["weights"]:
        raise DomainError(f"{cfg['command']} needs --weights")
    spec = PartitionSpec(np.array(_parse_float_list(cfg["weights"], "weights")))
    edges = _parse_float_list(cfg["b"], "b")
    return spec, edges, [box_mass_L(spec, b) for b in edges]


def _run_partition_sums(cfg):
    from .laplace import weighted_box_mass
    spec, edges, exacts = _partition(cfg)
    results = weighted_box_mass(spec, edges, cfg["samples"], RngStream(cfg["seed"]),
                                streams=cfg["streams"])
    return [{"weights": cfg["weights"], "b": b, "samples": est.n_samples,
             "estimate": est.estimate, "stderr": est.stderr,
             "exact": exact, "z_score": est.z(exact)}
            for b, exact, est in zip(edges, exacts, results)]


def _run_mellin(cfg):
    from .mellin import L_limit_study
    study = L_limit_study(cfg["lam"], n_max=cfg["nmax"], n_min=cfg["nmin"])
    cfg["extrapolated_limit"] = study.extrapolated_limit
    cfg["extrapolated_gap"] = study.extrapolated_gap
    cfg["envelope_constant"] = study.envelope_constant
    return study.rows()


def _run_saddle(cfg):
    from .mellin import solve_saddle
    sol = solve_saddle(cfg["lam"])
    return [{"lambda": sol.lam, "gamma": sol.gamma, "L": sol.L_value,
             "curvature": sol.curvature, "ratio_form": sol.ratio_form}]


# Most rows (s points x dimensions) an `mp-demo` table may hold.  A table
# this long already takes seconds and hundreds of megabytes; a much larger
# --spoints would fail to allocate its grid instead of being refused.
MP_DEMO_ROWS = 1 << 20


def _run_mp_demo(cfg):
    from .gaussian import charfun_gap_rows
    dims = _parse_int_list(cfg["n"], "n")
    if cfg["spoints"] < 2 or cfg["smax"] <= 0.0:
        raise DomainError("need smax > 0 and at least two s points")
    if cfg["spoints"] * len(dims) > MP_DEMO_ROWS:
        raise DomainError(f"--spoints x dimensions = {cfg['spoints'] * len(dims)} rows exceeds "
                          f"the {MP_DEMO_ROWS}-row mp-demo table; lower --spoints")
    s_grid = np.linspace(0.0, cfg["smax"], cfg["spoints"])
    return charfun_gap_rows(s_grid, dims, samples=cfg["samples"], rng=RngStream(cfg["seed"]),
                            streams=cfg["streams"])


# Most rows (nmax - nmin + 1) a `divergence` table may hold.  A sqrt_n table
# of this length already takes seconds; a much larger --nmax would run for
# minutes or fail to allocate its range instead of being refused.
DIVERGENCE_ROWS = 1 << 14


def _run_divergence(cfg):
    from .mellin import RadiusSchedule, divergence_experiment
    rows = cfg["nmax"] - cfg["nmin"] + 1
    if rows > DIVERGENCE_ROWS:
        raise DomainError(f"nmax - nmin + 1 = {rows} rows exceeds the {DIVERGENCE_ROWS}-row "
                          "divergence table; lower --nmax")
    schedule = RadiusSchedule(kind=cfg["schedule"], scale=cfg["scale"])
    table = divergence_experiment(cfg["lam"], schedule,
                                  np.arange(cfg["nmin"], cfg["nmax"] + 1))
    return table.rows()


def _run_box_mass(cfg):
    _spec, edges, masses = _partition(cfg)
    return [{"weights": cfg["weights"], "b": b, "mass": mass} for b, mass in zip(edges, masses)]


# name: (help, default output format, the subcommand's own flags, runner).  A
# runner checks its configuration and returns the records, or a generator of
# them; every check that needs no draw runs before it returns.
_COMMANDS = {
    "sample": ("draw weighted atom series", "json", (
        _THETA, Flag("--eps", "eps", float, 1e-10, "stick-breaking truncation threshold"),
        Flag("--samples", "samples", int, 5, "number of draws"),
        Flag("--process", "process", str, "gamma", "measure to draw from",
             ("dirichlet", "gamma", "lebesgue")),
        *_RNG,
    ), _run_sample),
    "laplace": ("Monte Carlo vs analytic Laplace transform", "json", (
        _THETA,
        Flag("--samples", "samples", int, 100_000, "Monte Carlo sample count"),
        Flag("--f", "f", str, None, "step function, e.g. 2@0:1 or 2@0:0.5,0.5@0.5:1"),
        *_RNG,
    ), _run_laplace),
    "invariance": ("multiplicator quasi-invariance identities", "json", (
        _THETA,
        Flag("--samples", "samples", int, 50_000, "Monte Carlo samples per pair"),
        Flag("--pairs", "pairs", int, 20, "number of random (a, f) pairs"),
        Flag("--a", "a", str, None, "explicit multiplicator step function"),
        Flag("--f", "f", str, None, "explicit test step function"),
        *_RNG,
    ), _run_invariance),
    "partition-sums": ("weighted box masses of partition sums", "json", (
        _WEIGHTS, _EDGES,
        Flag("--samples", "samples", int, 100_000, "Monte Carlo sample count"),
        *_RNG,
    ), _run_partition_sums),
    "mellin": ("limit study of (log F_n)/n", "csv", (_LAMBDA, _NMAX, _NMIN), _run_mellin),
    "saddle": ("saddle point and rate L(lambda)", "json", (_LAMBDA,), _run_saddle),
    "mp-demo": ("sphere vs Gaussian characteristic functions", "csv", (
        Flag("--n", "n", str, "5,10,20,50,100,200", "comma list of dimensions"),
        Flag("--smax", "smax", float, 3.0, "right end of the s grid"),
        Flag("--spoints", "spoints", int, 31, "number of s grid points"),
        Flag("--samples", "samples", int, 0, "Monte Carlo samples per point (0 = skip)"),
        *_RNG,
    ), _run_mp_demo),
    "divergence": ("non-convergence along radius schedules", "csv", (
        _LAMBDA._replace(help="constant test value lambda > 0"),
        Flag("--schedule", "schedule", str, "constant", "radius schedule",
             ("constant", "sqrt_n")),
        Flag("--scale", "scale", float, 1.0, "radius scale"),
        _NMAX, _NMIN,
    ), _run_divergence),
    "box-mass": ("exact sigma-finite box masses", "json", (_WEIGHTS, _EDGES), _run_box_mass),
}

_SPECS = {name: flags + _common(fmt) for name, (_help, fmt, flags, _run) in _COMMANDS.items()}

# Config-file keys: any key known to some subcommand is accepted; a file
# cannot name another config file.
_FILE_KEYS = {key: flag for spec in _SPECS.values() for flag in spec
              if flag.dest != "config" for key in (flag.flag[2:], flag.dest)}


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        return int(exc.code) if exc.code else 0
    if not args.command:
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = resolve_config(args)
        _help, _format, _flags, run = _COMMANDS[args.command]
        records = run(cfg)
        with _output(cfg.get("out")) as fh:
            _emit(cfg, records, fh)
    except DomainError as exc:
        print(f"conicpd: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"conicpd: cannot write output: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"conicpd: numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
