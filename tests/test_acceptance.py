"""Acceptance battery: eleven numbered end-to-end criteria.

Each test prints exactly one PASS/FAIL line (through the capture-disabled
console, so the verdicts are visible live) and then asserts.  Tolerances are
either exact-arithmetic bounds or multiples of the reported estimator
standard errors; all random inputs use frozen seeds.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import gammainc, k0, psi
from scipy.stats import kstest, pearsonr

from conicpd import (
    PartitionSpec,
    RadiusSchedule,
    RngStream,
    StepFunction,
    analytic_laplace,
    box_mass_L,
    divergence_experiment,
    F_contour,
    F_direct,
    L_limit_study,
    lemma1_pointwise_check,
    mc_laplace,
    mp_convergence_table,
    semigroup_convolution_check,
    solve_saddle,
    weighted_box_mass,
)
from conicpd.cli import main as cli_main
from stick_batches import gamma_batch


@pytest.fixture
def verdict(capsys):
    def _report(num, ok, detail):
        with capsys.disabled():
            print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
        assert ok, f"criterion {num}: {detail}"
    return _report


def test_criterion_01_one_dimensional_marginal(verdict):
    f = StepFunction.constant(2.0)
    start = time.perf_counter()
    est = mc_laplace(1.0, f, 1_000_000, RngStream(101))
    elapsed = time.perf_counter() - start
    exact = analytic_laplace(1.0, f)
    ok = (
        abs(est.estimate - 0.5) <= 3.0 * est.stderr
        and est.stderr < 0.002
        and abs(exact - 0.5) <= 1e-15
        and elapsed < 30.0
    )
    verdict(1, ok, f"estimate={est.estimate:.6f} (0.5 +- {3 * est.stderr:.2e}), "
                   f"stderr={est.stderr:.2e} < 0.002, analytic={exact!r}, "
                   f"time={elapsed:.1f}s < 30s")


def test_criterion_02_kernel_group_invariance(verdict):
    gen = RngStream(202).generator()
    grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    worst_residual = 0.0
    hits = 0
    for pair in range(20):
        raw = gen.uniform(-0.3, 0.3, size=4)
        a = StepFunction(grid, np.exp(raw - raw.mean()))   # zero log-mean
        f = StepFunction(grid, gen.uniform(1.1, 1.7, size=4))
        value_f = analytic_laplace(1.0, f)
        value_af = analytic_laplace(1.0, a * f)
        worst_residual = max(worst_residual, abs(value_af - value_f))
        est = mc_laplace(1.0, a * f, 50_000, RngStream(202, 1 + pair))
        if abs(est.estimate - value_af) <= 3.0 * est.stderr:
            hits += 1
    ok = worst_residual <= 1e-12 and hits >= 18
    verdict(2, ok, f"max analytic residual={worst_residual:.2e} <= 1e-12 over 20 "
                   f"pairs; mc within 3 stderr in {hits}/20 (need >= 18)")


def test_criterion_03_weighted_box_masses(verdict):
    b_values = [0.5, 1.0, 2.0]
    pieces = []
    worst_z = 0.0
    for idx, weights in enumerate([[1.0], [1.0, 1.0], [0.5, 1.5]]):
        spec = PartitionSpec(np.array(weights))
        results = weighted_box_mass(spec, b_values, 1_000_000, RngStream(303, idx))
        zs = []
        for b, est in zip(b_values, results):
            z = (est.estimate - box_mass_L(spec, b)) / est.stderr
            worst_z = max(worst_z, abs(z))
            zs.append(f"{z:+.2f}")
        pieces.append(f"{tuple(weights)}: z={','.join(zs)}")
    ok = worst_z <= 3.0
    verdict(3, ok, f"max |z|={worst_z:.2f} <= 3 at 1e6 samples; " + "; ".join(pieces))


def test_criterion_04_gamma_process_marginals(verdict):
    spec = PartitionSpec(np.array([0.5, 1.0, 1.5]))
    gen = RngStream(404).generator()
    cuts = np.cumsum(spec.probabilities())
    n_draws, chunk = 100_000, 25_000
    collected = [[] for _ in range(spec.n)]
    for _ in range(n_draws // chunk):
        masses, _locs, totals, _tails = gamma_batch(spec.theta, 1e-10, chunk, gen)
        marks = np.minimum(
            np.searchsorted(cuts, gen.random(masses.shape), side="right"), spec.n - 1)
        scaled = masses * totals[:, None]
        for i in range(spec.n):
            collected[i].append(np.where(marks == i, scaled, 0.0).sum(axis=1))
    parts = [np.concatenate(chunks) for chunks in collected]
    p_values = [kstest(part, lambda x, th=th: gammainc(th, x)).pvalue
                for part, th in zip(parts, spec.weights)]
    corr_stats = [abs(pearsonr(parts[i], parts[j]).statistic) * math.sqrt(n_draws)
                  for i, j in ((0, 1), (0, 2), (1, 2))]
    ok = all(p >= 1e-3 for p in p_values) and all(c <= 4.0 for c in corr_stats)
    verdict(4, ok, "KS p=" + ",".join(f"{p:.3f}" for p in p_values)
                   + " (all >= 1e-3); |corr|*sqrt(N)="
                   + ",".join(f"{c:.2f}" for c in corr_stats) + " (all <= 4)")


def test_criterion_05_pointwise_decomposition(verdict):
    gen = RngStream(505).generator()
    worst = 0.0
    for _ in range(1000):
        n = int(gen.integers(1, 7))
        spec = PartitionSpec(gen.uniform(0.2, 3.0, size=n))
        x = gen.uniform(0.05, 5.0, size=n)
        worst = max(worst, lemma1_pointwise_check(spec, x))
    verdict(5, worst <= 1e-10,
            f"max factorisation residual={worst:.2e} <= 1e-10 over 1000 random "
            f"points, n <= 6")


def test_criterion_06_semigroup_convolution(verdict):
    grid = [0.5, 0.7, 1.0, 1.5, 2.0, 3.0]
    worst = max(semigroup_convolution_check(t1, t2) for t1 in grid for t2 in grid)
    verdict(6, worst <= 1e-8,
            f"max convolution error={worst:.2e} <= 1e-8 on the 6x6 shape grid "
            f"(including sub-unit shapes)")


def test_criterion_07_contour_vs_direct(verdict):
    start = time.perf_counter()
    worst_pair = 0.0
    for n in (2, 3):
        for lam in (0.5, 1.0, 2.0):
            ratio = F_contour(n, lam) / F_direct(n, lam)
            worst_pair = max(worst_pair, abs(ratio - 1.0))
    worst_bessel = max(
        abs(F_contour(2, lam) / (2.0 * k0(2.0 * lam)) - 1.0)
        for lam in (0.5, 1.0, 2.0)
    )
    elapsed = time.perf_counter() - start
    ok = worst_pair <= 1e-6 and worst_bessel <= 1e-8 and elapsed < 60.0
    verdict(7, ok, f"max |contour/direct - 1|={worst_pair:.2e} <= 1e-6 "
                   f"(n in 2,3; lambda in 0.5,1,2); two-atom value vs Bessel "
                   f"rel={worst_bessel:.2e} <= 1e-8; time={elapsed:.1f}s < 60s")


def test_criterion_08_saddle_and_rate_limit(verdict):
    worst_res = max(
        abs(psi(solve_saddle(float(lam)).gamma) - math.log(lam))
        for lam in np.geomspace(1e-3, 1e3, 41)
    )
    ok = worst_res <= 1e-12
    pieces = [f"saddle residual={worst_res:.1e} <= 1e-12 on the log grid"]
    for lam in (0.5, 1.0, 2.0):
        study = L_limit_study(lam, n_max=40)
        ns = study.ns
        gaps = np.abs(study.gaps)
        window = ns <= 20
        c_fit = float(np.max(gaps[window] * ns[window] / np.log(ns[window])))
        envelope_ok = bool(np.all(gaps <= c_fit * np.log(ns) / ns + 1e-12))
        corrected_gap = abs(study.corrected[-1] - study.saddle.L_value)
        ok = ok and envelope_ok and corrected_gap < 0.03
        pieces.append(
            f"lam={lam}: envelope C={c_fit:.2f} fitted on n<=20 "
            f"{'holds' if envelope_ok else 'BROKEN'} through n=40, raw "
            f"gap(40)={study.gaps[-1]:+.3f}, corrected gap(40)={corrected_gap:.1e} < 0.03"
        )
    verdict(8, ok, "; ".join(pieces))


def test_criterion_09_no_constant_normalization(verdict):
    ns = np.arange(2, 41)
    ok = True
    pieces = []
    for lam in (0.5, 1.0, 2.0):
        table = divergence_experiment(lam, RadiusSchedule("constant"), ns=ns)
        L = float(table.limits[0])
        rate10 = float(table.rates[ns == 10][0])
        rate40 = float(table.rates[ns == 40][0])
        log_D = table.rates * ns
        target = -math.log(lam)   # the finite limit weak convergence would need
        drift10 = abs(float(log_D[ns == 10][0]) - target)
        drift40 = abs(float(log_D[ns == 40][0]) - target)
        case_ok = (
            abs(L) > 0.01
            and abs(rate40) > 0.01
            and math.copysign(1.0, rate40) == math.copysign(1.0, L)
            and abs(rate40 - L) < abs(rate10 - L)
            and drift40 > drift10 + 1.0
        )
        ok = ok and case_ok
        pieces.append(f"lam={lam}: rate(40)={rate40:+.3f} -> L={L:+.3f} (|L|>0.01), "
                      f"|ln Dn - ln(1/lam)| grows {drift10:.1f} -> {drift40:.1f}")
    verdict(9, ok, "; ".join(pieces))


def test_criterion_10_sphere_gaussian_contrast(verdict):
    rows = mp_convergence_table()
    gaps = [row["sup_gap"] for row in rows]
    gap100 = next(row["sup_gap"] for row in rows if row["n"] == 100)
    ok = all(a > b for a, b in zip(gaps, gaps[1:])) and gap100 <= 0.02
    verdict(10, ok, "sup gap strictly decreasing: "
                    + ", ".join(f"n={row['n']}: {row['sup_gap']:.4f}" for row in rows)
                    + f"; gap(100)={gap100:.4f} <= 0.02")


def test_criterion_11_cli_determinism(verdict, tmp_path):
    cases = {
        "saddle": ["saddle", "--lambda", "0.75"],
        "laplace": ["laplace", "--f", "1.4@0:0.3,0.9@0.3:1", "--samples", "30000",
                    "--streams", "2", "--seed", "5"],
        "sample": ["sample", "--samples", "5", "--theta", "1.5", "--seed", "9",
                   "--format", "csv"],
        "partition-sums": ["partition-sums", "--weights", "0.5,1.5", "--b", "0.5,1",
                           "--samples", "20000"],
        "mellin": ["mellin", "--nmax", "10", "--lambda", "2"],
        "divergence": ["divergence", "--nmax", "8", "--schedule", "sqrt_n"],
        "invariance": ["invariance", "--pairs", "2", "--samples", "5000"],
        "mp-demo": ["mp-demo", "--n", "3,10", "--spoints", "5", "--samples", "2000"],
        "box-mass": ["box-mass", "--weights", "1,2", "--b", "0.5,1,2"],
    }
    mismatched = []
    for name, argv in cases.items():
        first = tmp_path / f"{name}-a.out"
        second = tmp_path / f"{name}-b.out"
        assert cli_main(argv + ["--out", str(first)]) == 0, name
        assert cli_main(argv + ["--out", str(second)]) == 0, name
        if first.read_bytes() != second.read_bytes():
            mismatched.append(name)
    verdict(11, not mismatched,
            f"byte-identical reruns for {len(cases)} subcommands"
            + (f"; MISMATCH in {mismatched}" if mismatched else ""))
