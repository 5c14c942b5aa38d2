"""Task lists of the three benchmark workloads and the checks on their outputs.

A workload is a fixed list of ``conicpd`` CLI invocations built from the
workload seed.  Every task carries a check that parses the CLI output and
compares it with references computed before timing starts (closed forms,
``F_direct``, scipy and mpmath evaluations), and a list of Monte Carlo
estimates (estimate, stderr, exact) from which the cost-to-accuracy metric
is formed.

Why these workloads:

* ``mc``: the batch stick sampler, the estimator kernels and the pooled
  merge do the work, and no contour code runs.  theta spans 0.5..8 so both
  stick matrix sizing faults show (padding at small theta, repeated growth
  at theta >= 4).  Many small ``invariance`` estimates expose per-call
  overhead.
* ``quadrature``: contour, saddle, special functions and sphere quadrature
  do the work, and no sampler runs.  ``mellin`` shares one saddle across n;
  ``divergence`` with ``sqrt_n`` needs a saddle per row.
* ``draws``: ``sample`` at theta 1, 8 and 64, in JSON and CSV, for the
  gamma and Lebesgue-weighted processes.  The scalar per-draw sampler and
  CLI record formatting do the work, not the batch kernel.

Every task is kept short (at most ~0.15 s on a 2-vCPU Xeon VM), so that each
one runs many times in a run and its fastest run is steady; see worker.py.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import mpmath as mp
import numpy as np
from scipy import integrate, optimize
from scipy import special as sp

from conicpd.densities import PartitionSpec, box_mass_L
from conicpd.laplace import analytic_laplace
from conicpd.mellin import F_direct
from conicpd.stepfn import StepFunction

# An estimate fails its check when it lies further than this many standard
# errors from the exact value.  The integrands are chosen with min f >= 0.9,
# so their fourth moments are finite and the z-scores are close to normal.
Z_LIMIT = 6.0
# Target relative standard error of the cost-to-accuracy metric.
TARGET_REL_SE = 1e-3
LOG_F_TOL = 1e-8


# A check returns the problems found in an output and its Monte Carlo
# estimates as (estimate, stderr, exact) triples.
Check = Callable[[str], tuple[list[str], list[tuple[float, float, float]]]]


@dataclass
class Task:
    """One CLI invocation plus the check of its output."""

    argv: list[str]
    check: Check


# ---------------------------------------------------------------------------
# Output parsing.


def parse_output(text: str) -> tuple[dict, list[dict]]:
    """Split CLI output into its meta line and its records (JSON or CSV)."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty output")
    if lines[0].startswith("# "):
        meta = json.loads(lines[0][2:])
        rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
        return meta, [{k: _csv_value(v) for k, v in row.items()} for row in rows]
    return json.loads(lines[0]), [json.loads(line) for line in lines[1:]]


def _csv_value(text):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def _close(a, b, rel, abs_tol=0.0):
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


def _z_errors(label, estimate, stderr, exact):
    if stderr > 0.0:
        if abs(estimate - exact) > Z_LIMIT * stderr:
            return [f"{label}: estimate {estimate!r} is more than {Z_LIMIT} stderr "
                    f"({stderr!r}) from {exact!r}"]
        return []
    return [] if estimate == exact else [f"{label}: zero stderr but {estimate!r} != {exact!r}"]


# ---------------------------------------------------------------------------
# mc workload.


def _step_text(pieces) -> str:
    return ",".join(f"{v}@{lo}:{hi}" for lo, hi, v in pieces)


def _step_function(pieces) -> StepFunction:
    return StepFunction(np.array([pieces[0][0]] + [hi for _lo, hi, _v in pieces]),
                        np.array([v for _lo, _hi, v in pieces]))


def _laplace_task(theta, pieces, samples, seed, streams=1) -> Task:
    exact = analytic_laplace(theta, _step_function(pieces))
    text = _step_text(pieces)

    def check(out):
        (rec,) = parse_output(out)[1]
        errors = [] if _close(rec["analytic"], exact, 1e-12) else ["laplace: analytic mismatch"]
        if rec["samples"] != samples:
            errors.append("laplace: wrong sample count")
        errors += _z_errors(f"laplace theta={theta}", rec["estimate"], rec["stderr"], exact)
        return errors, [(rec["estimate"], rec["stderr"], exact)]

    argv = ["laplace", "--theta", repr(theta), "--f", text, "--samples", str(samples),
            "--seed", str(seed)]
    if streams > 1:
        argv += ["--streams", str(streams)]
    return Task(argv, check)


def _partition_task(weights, edges, samples, seed) -> Task:
    spec = PartitionSpec(np.array(weights))
    exact = {b: box_mass_L(spec, b) for b in edges}

    def check(out):
        records = parse_output(out)[1]
        if [r["b"] for r in records] != list(edges):
            return ["partition-sums: wrong box edges"], []
        errors = []
        for r in records:
            if not _close(r["exact"], exact[r["b"]], 1e-12):
                errors.append(f"partition-sums b={r['b']}: exact mismatch")
            errors += _z_errors(f"partition-sums b={r['b']}", r["estimate"], r["stderr"],
                                exact[r["b"]])
        return errors, [(r["estimate"], r["stderr"], exact[r["b"]]) for r in records]

    argv = ["partition-sums", "--weights", ",".join(map(repr, weights)),
            "--b", ",".join(map(repr, edges)), "--samples", str(samples), "--seed", str(seed)]
    return Task(argv, check)


def _invariance_task(pairs, samples, seed) -> Task:
    def check(out):
        records = parse_output(out)[1]
        if [r["pair"] for r in records] != list(range(pairs)):
            return ["invariance: wrong pair list"], []
        errors = []
        for r in records:
            if r["analytic_residual"] > 1e-12 or not _close(
                    r["phi"] * r["analytic_af"], r["analytic_f"], 1e-12):
                errors.append(f"invariance pair {r['pair']}: cocycle identity fails")
            errors += _z_errors(f"invariance pair {r['pair']}", r["estimate"], r["stderr"],
                                r["analytic_af"])
        return errors, [(r["estimate"], r["stderr"], r["analytic_af"]) for r in records]

    argv = ["invariance", "--pairs", str(pairs), "--samples", str(samples),
            "--seed", str(seed), "--format", "csv"]
    return Task(argv, check)


def _mc_tasks(seeds, scale):
    rows = max(64, int(8192 * scale))
    constant = [(0.0, 1.0, 1.5)]
    step = [(0.0, 0.3, 1.8), (0.3, 0.7, 0.9), (0.7, 1.0, 1.3)]
    tasks = []
    for theta, size, repeats in ((0.5, rows, 1), (1.0, rows, 1),
                                 (4.0, rows // 2, 2), (8.0, rows // 4, 2)):
        # At theta >= 4 the stick matrix grows in steps whose number depends
        # on the seed, so one task's cost does too; several smaller tasks,
        # each with its own seed, average that out of the workload's total.
        for _ in range(repeats):
            tasks.append(_laplace_task(theta, constant, size, next(seeds)))
            tasks.append(_laplace_task(theta, step, size, next(seeds),
                                       streams=2 if theta == 4.0 else 1))
    tasks.append(_partition_task([0.5, 1.5], [0.5, 1.0, 2.0], rows, next(seeds)))
    tasks.append(_invariance_task(max(2, int(24 * scale)), max(64, int(1500 * scale)),
                                  next(seeds)))
    return tasks


# ---------------------------------------------------------------------------
# quadrature workload.


def _saddle_gamma(lam: float) -> float:
    """Root of scipy's digamma(g) = log lam, independent of conicpd.special."""
    target = math.log(lam)
    return optimize.brentq(lambda g: sp.digamma(g) - target, 1e-300, 1e300,
                           xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=2000)


def mp_log_F(n: int, lam: float) -> float:
    """log F_n(lam) by mpmath quadrature of the inverse-Mellin contour."""
    g = _saddle_gamma(lam)
    with mp.workdps(25):
        log_lam = mp.log(lam)
        s0 = mp.mpf(g)
        peak = n * (mp.loggamma(s0) - s0 * log_lam)
        width = 1 / mp.sqrt(n * mp.psi(1, s0))

        def height(t):
            s = mp.mpc(s0, t)
            return mp.re(mp.exp(n * (mp.loggamma(s) - s * log_lam) - peak))

        value = mp.quad(height, [mp.mpf(0)] + [width * 2 ** k for k in range(-1, 12)])
        return float(peak + mp.log(value / mp.pi))


def _log_F_reference(n: int, lam: float, deep: bool) -> list[tuple[str, float]]:
    refs = []
    if n == 2:
        refs.append(("2 K0(2 lambda)", math.log(2.0 * sp.k0e(2.0 * lam)) - 2.0 * lam))
    if n <= 3:
        refs.append(("F_direct", math.log(F_direct(n, lam))))
    if deep:
        refs.append(("mpmath", mp_log_F(n, lam)))
    return refs


def _saddle_errors(label, lam, gamma, L):
    errors = []
    resid = abs(sp.digamma(gamma) - math.log(lam))
    if resid > 1e-12:
        errors.append(f"{label}: saddle residual {resid:.3e} above 1e-12")
    if not _close(L, sp.gammaln(gamma) - gamma * math.log(lam), 1e-10, 1e-12):
        errors.append(f"{label}: L does not match log Gamma(gamma) - gamma log lambda")
    return errors


def _contour_task(argv, nmin, nmax, lam_of_row, deep_ns) -> Task:
    """mellin / divergence rows: saddle, L, and log F_n against references."""
    ns = list(range(nmin, nmax + 1))
    # References depend on the row's effective argument lambda * r_n.
    refs = {n: _log_F_reference(n, lam_of_row(n), n in deep_ns) for n in ns
            if n <= 3 or n in deep_ns}

    def check(out):
        records = parse_output(out)[1]
        if [int(r["n"]) for r in records] != ns:
            return [f"{argv[0]}: wrong row list"], []
        errors = []
        for r in records:
            n = int(r["n"])
            lam = lam_of_row(n)
            if not _close(r["lambda"] * r["r"], lam, 1e-12):
                errors.append(f"{argv[0]} n={n}: effective lambda mismatch")
                continue
            errors += _saddle_errors(f"{argv[0]} n={n}", lam, r["gamma"], r["L"])
            if abs(r["gap"] - (r["lnFn_over_n"] - r["L"])) > 1e-12 * max(1.0, abs(r["L"])):
                errors.append(f"{argv[0]} n={n}: gap is not lnFn_over_n - L")
            for name, ref in refs.get(n, []):
                if abs(n * r["lnFn_over_n"] - ref) > LOG_F_TOL * max(1.0, abs(ref)):
                    errors.append(f"{argv[0]} n={n}: log F_n {n * r['lnFn_over_n']!r} "
                                  f"differs from {name} {ref!r}")
        return errors, []

    return Task(argv, check)


def _mellin_task(lam, nmin, nmax) -> Task:
    argv = ["mellin", "--lambda", repr(lam), "--nmin", str(nmin), "--nmax", str(nmax)]
    return _contour_task(argv, nmin, nmax, lambda n: lam, {nmax})


def _divergence_task(lam, schedule, nmin, nmax) -> Task:
    argv = ["divergence", "--lambda", repr(lam), "--schedule", schedule,
            "--nmin", str(nmin), "--nmax", str(nmax)]
    radius = (lambda n: 1.0) if schedule == "constant" else math.sqrt
    return _contour_task(argv, nmin, nmax, lambda n: lam * radius(n), {nmax})


def _saddle_task(lam) -> Task:
    def check(out):
        (rec,) = parse_output(out)[1]
        errors = _saddle_errors(f"saddle lambda={lam}", lam, rec["gamma"], rec["L"])
        if not _close(rec["curvature"], sp.polygamma(1, rec["gamma"]), 1e-10):
            errors.append(f"saddle lambda={lam}: curvature is not trigamma(gamma)")
        if not _close(rec["ratio_form"], math.exp(rec["L"]), 1e-12):
            errors.append(f"saddle lambda={lam}: ratio_form is not exp(L)")
        return errors, []

    return Task(["saddle", "--lambda", repr(lam)], check)


def sphere_charfun(n: int, s: float) -> float:
    """E cos(s x_1) on the sphere of radius sqrt(n): Gamma(n/2) (2/x)^nu J_nu(x)."""
    x = s * math.sqrt(n)
    if x == 0.0:
        return 1.0
    nu = 0.5 * n - 1.0
    return math.exp(sp.gammaln(0.5 * n) + nu * math.log(2.0 / x)) * sp.jv(nu, x)


def _mp_demo_task(dims, smax, spoints, samples, seed) -> Task:
    def check(out):
        records = parse_output(out)[1]
        if len(records) != len(dims) * spoints:
            return ["mp-demo: wrong row count"], []
        errors = []
        for r in records:
            n, s = int(r["n"]), r["s"]
            label = f"mp-demo n={n} s={s}"
            if abs(r["quad"] - sphere_charfun(n, s)) > 1e-9:
                errors.append(f"{label}: quadrature differs from the Bessel closed form")
            if r["gauss"] != math.exp(-0.5 * s * s) or r["gap"] != abs(r["quad"] - r["gauss"]):
                errors.append(f"{label}: Gaussian column mismatch")
            errors += _z_errors(label, r["mc"], r["stderr"], r["quad"])
        return errors, [(r["mc"], r["stderr"], r["quad"]) for r in records]

    argv = ["mp-demo", "--n", ",".join(map(str, dims)), "--smax", repr(smax),
            "--spoints", str(spoints), "--samples", str(samples), "--seed", str(seed)]
    return Task(argv, check)


def _quadrature_tasks(seeds, scale):
    # Contour tables of up to n = 40 are cut into windows of two rows (each
    # row costs about the same), so no task runs long; the windows starting
    # at n = 2 carry the closed-form checks, the last row of each the mpmath one.
    tasks = []
    for first in (2, 20, 39):
        window = (first, first + 1)
        tasks += [_mellin_task(0.3, *window), _mellin_task(1.0, *window),
                  _mellin_task(3.0, *window), _divergence_task(1.0, "constant", *window),
                  _divergence_task(0.5, "sqrt_n", *window)]
    tasks += [_saddle_task(lam) for lam in (1e-8, 1e-3, 1e3, 1e8)]
    # s <= 1.5 keeps every sphere charfun value above 0.2, so the relative
    # error in the cost metric stays defined.  One task per dimension, each
    # with its own seed, so the cost metric averages four independent worst
    # estimates rather than taking one.
    for n in (5, 10, 20, 50):
        tasks.append(_mp_demo_task([n], 1.5, 7, max(64, int(2500 * scale)), next(seeds)))
    return tasks


# ---------------------------------------------------------------------------
# draws workload.


_SAMPLE_CSV_HEADER = "draw,atom,mass,location,total_mass,tail_bound,log_weight,seed,stream_id"


def _sample_table(out, fmt):
    """Per-atom (draw, mass, location) and per-draw (draw, total, tail, log_weight)."""
    if fmt == "csv":
        lines = out.splitlines()
        if lines[1] != _SAMPLE_CSV_HEADER:
            raise ValueError("unexpected sample CSV header")
        table = np.loadtxt(lines[2:], delimiter=",", ndmin=2)
        draw = table[:, 0].astype(int)
        first = np.r_[True, draw[1:] != draw[:-1]]
        return draw, table[:, 2], table[:, 3], table[first][:, [0, 4, 5, 6]]
    records = parse_output(out)[1]
    draw = np.repeat([r["draw"] for r in records], [len(r["masses"]) for r in records])
    mass = np.concatenate([r["masses"] for r in records])
    location = np.concatenate([r["locations"] for r in records])
    per_draw = np.array([[r["draw"], r["total_mass"], r["tail_bound"], r["log_weight"]]
                         for r in records])
    return draw, mass, location, per_draw


def _sample_task(theta, process, fmt, samples, seed) -> Task:
    def check(out):
        draw, mass, location, per_draw = _sample_table(out, fmt)
        if not np.array_equal(per_draw[:, 0], np.arange(samples)):
            return [f"sample theta={theta}: wrong draw list"], []
        total, tail, log_weight = per_draw[:, 1], per_draw[:, 2], per_draw[:, 3]
        sums = np.bincount(draw, weights=mass, minlength=samples)
        same_draw = draw[1:] == draw[:-1]
        label = f"sample theta={theta} {process} {fmt}"
        errors = []
        for bad, what in (
            (np.any(mass <= 0.0) or np.any(same_draw & (mass[1:] > mass[:-1])),
             "masses are not positive and decreasing"),
            (np.any(location < 0.0) or np.any(location >= 1.0), "locations outside [0, 1)"),
            (np.any(sums > total * (1.0 + 1e-12)), "total mass below the sum of the masses"),
            (np.any(np.abs(sums + tail - total) > 1e-9 * total),
             "masses plus tail do not add up to the total"),
            (not np.array_equal(log_weight, total if process == "lebesgue" else 0.0 * total),
             "wrong importance weight"),
        ):
            if bad:
                errors.append(f"{label}: {what}")
        # Total mass is Gamma(theta) distributed for both processes, so the
        # standard error of its mean is known exactly.
        estimate = (float(total.mean()), math.sqrt(theta / samples), theta)
        errors += _z_errors(f"{label} mean total mass", *estimate)
        return errors, [estimate]

    argv = ["sample", "--theta", repr(theta), "--process", process, "--format", fmt,
            "--samples", str(samples), "--seed", str(seed)]
    return Task(argv, check)


def _draws_tasks(seeds, scale):
    tasks = []
    for theta, samples in ((1.0, 150), (8.0, 25), (64.0, 4)):
        for process in ("gamma", "lebesgue"):
            for fmt in ("json", "csv"):
                tasks.append(_sample_task(theta, process, fmt, max(4, int(samples * scale)),
                                          next(seeds)))
    return tasks


# ---------------------------------------------------------------------------
# Calibration work: a few milliseconds of the same kind of work as each
# workload, written with numpy, scipy, mpmath and the standard library only,
# so no change to conicpd changes it.  worker.py times it after every task;
# the fastest of those timings tells how fast the host ran during the run.


def _calibrate_mc() -> float:
    """Stick breaking and weighted sums in numpy, as the batch sampler and estimators do."""
    rng = np.random.default_rng(12345)
    v = rng.beta(1.0, 4.0, size=(1024, 48))
    sticks = v * np.cumprod(np.hstack([np.ones((1024, 1)), 1.0 - v[:, :-1]]), axis=1)
    locations = rng.random((1024, 48))
    acc = float((sticks * (1.0 + (locations < 0.3))).sum(axis=1).mean())
    for _ in range(40):
        acc += float(np.exp(-sticks[:64]).sum())
    return acc


def _calibrate_quadrature() -> float:
    """Scalar complex special functions in Python and a scipy quadrature."""
    acc = 0.0
    for i in range(24):
        acc += float(mp.re(mp.loggamma(mp.mpc(1.0 + 0.1 * i, 0.5 * i))))
    for i in range(600):
        z = complex(2.0 + 0.01 * i, 0.3 * i)
        acc += ((z - 0.5) * cmath.log(z) - z + 1.0 / (12.0 * z)).real
    acc += integrate.quad(lambda t: math.exp(-t * t) * math.cos(3.0 * t), 0.0, 6.0)[0]
    return acc


def _calibrate_draws() -> float:
    """Per-draw Python work: build records and format them as JSON and CSV."""
    rng = random.Random(12345)
    lines = []
    for draw in range(24):
        masses = sorted((rng.gammavariate(0.5, 1.0) for _ in range(40)), reverse=True)
        record = {"draw": draw, "masses": masses, "locations": [rng.random() for _ in masses]}
        lines.append(json.dumps(record, sort_keys=True))
        lines.extend(f"{draw},{k},{m!r},{x!r}"
                     for k, (m, x) in enumerate(zip(masses, record["locations"])))
    return float(len("\n".join(lines)))


CALIBRATIONS = {"mc": _calibrate_mc, "quadrature": _calibrate_quadrature,
                "draws": _calibrate_draws}
# Fastest timing of each calibration on the host the benchmark was written
# on (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4).  The times a run
# reports are scaled to this host speed; the constants only set that unit.
REFERENCE_CALIBRATION_S = {"mc": 0.00325, "quadrature": 0.00247, "draws": 0.00351}


_BUILDERS = {"mc": _mc_tasks, "quadrature": _quadrature_tasks, "draws": _draws_tasks}
WORKLOADS = tuple(_BUILDERS)


def build_tasks(workload: str, seed: int, scale: float = 1.0) -> list[Task]:
    """Task list of a workload; every CLI --seed is derived from the workload seed."""
    rng = random.Random(f"{workload}:{seed}")
    seeds = iter(lambda: rng.randrange(2 ** 31), None)
    return _BUILDERS[workload](seeds, scale)


def mc_cost(estimates, seconds: float) -> float:
    """Projected seconds for a task to reach TARGET_REL_SE on all its estimates.

    The sample count of a task scales every estimate's stderr alike, so the
    worst estimate sets the cost: seconds * max (stderr / (target |exact|))^2.
    """
    ratios = [(se / (TARGET_REL_SE * abs(exact))) ** 2
              for _est, se, exact in estimates if exact != 0.0]
    return seconds * max(ratios, default=0.0)
