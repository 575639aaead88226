"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS line on success (visible with pytest -s / on failure)."""

import itertools
import math
import time

import pytest
import scipy.linalg

from gpflow.cli import main
from gpflow.flows import RunConfig, run, sign_normalize
from gpflow.grid import GridFunction, MetricKind, build_grid, norm_l2
from gpflow.problem import Problem, harmonic_potential, well_potential, zero_potential
from gpflow.spectral import fit_rate, linearized_operator, lowest_two_eigen
from gpflow.verify import check_suite, failures
from oracles import laplacian_matrix

SCHEMES = tuple(MetricKind)
BETAS = (0.0, 10.0, 100.0)
POTENTIALS = ("zero", "harmonic:20", "well:1000:0.25:0.75")
GRIDS = {"1d-255": (1, [255]), "2d-63x63": (2, [63, 63])}


def make_problem(beta, potential, gridkey):
    dim, n = GRIDS[gridkey]
    grid = build_grid(dim, n, [(0.0, 1.0)] * dim)
    if potential == "zero":
        V = zero_potential(grid)
    elif potential.startswith("harmonic:"):
        V = harmonic_potential(grid, float(potential.split(":")[1]))
    else:
        _, depth, lo, hi = potential.split(":")
        V = well_potential(grid, float(depth), float(lo), float(hi))
    return Problem(grid, V, beta)


@pytest.fixture(scope="session")
def benchmarks():
    """All 18 benchmark problems, solved once by each of the three schemes."""
    out = {}
    for beta, potential, gridkey in itertools.product(BETAS, POTENTIALS, GRIDS):
        problem = make_problem(beta, potential, gridkey)
        reports = {scheme: run(problem, RunConfig(scheme=scheme)) for scheme in SCHEMES}
        out[(beta, potential, gridkey)] = (problem, reports)
    return out


def test_criterion_1_linear_oracle():
    grid = build_grid(1, [127], [(0.0, 1.0)])
    problem = Problem(grid, zero_potential(grid), 0.0)
    dense = laplacian_matrix(grid).toarray()
    lam0 = scipy.linalg.eigvalsh(dense)[0]
    assert abs(lam0 - math.pi**2) <= 5e-3
    for scheme in SCHEMES:
        start = time.time()
        report = run(problem, RunConfig(scheme=scheme, init="random", seed=0))
        elapsed = time.time() - start
        assert report.status == "converged"
        assert report.final_record.residual <= 1e-9
        assert abs(report.final_record.gamma - lam0) <= 1e-8 * lam0
        assert elapsed <= 5.0
    print("ACCEPTANCE 1 linear oracle (gamma = lambda0 = pi^2): PASS")


def assert_energy_decay(key, reports):
    for scheme, report in reports.items():
        assert report.status == "converged", (key, scheme)
        energies = [r.energy for r in report.records]
        assert all(a >= b for a, b in zip(energies, energies[1:])), (key, scheme)
        for r in report.records:
            if r.alpha > 0.0 and r.sufficient_decrease:
                assert r.decrease >= 0.5 * r.alpha * r.residual**2, (key, scheme, r.n)


def assert_schemes_agree(key, problem, reports):
    finals = {s: sign_normalize(r.final) for s, r in reports.items()}
    gammas = {s: r.final_record.gamma for s, r in reports.items()}
    for a, b in itertools.combinations(SCHEMES, 2):
        dist = norm_l2(GridFunction(problem.grid, finals[a].values - finals[b].values))
        assert dist <= 1e-6, (key, a, b, dist)
        assert abs(gammas[a] - gammas[b]) <= 1e-6, (key, a, b)


def test_criterion_2_energy_decay(benchmarks):
    for key, (problem, reports) in benchmarks.items():
        assert_energy_decay(key, reports)
    print("ACCEPTANCE 2 energy decay on all 18 benchmarks x 3 schemes: PASS")


def test_criterion_3_cross_scheme_agreement(benchmarks):
    for key, (problem, reports) in benchmarks.items():
        assert_schemes_agree(key, problem, reports)
    print("ACCEPTANCE 3 cross-scheme agreement (L2 and gamma within 1e-6): PASS")


def test_criteria_2_3_in_3d():
    grid = build_grid(3, [15] * 3, [(0.0, 1.0)] * 3)
    problem = Problem(grid, harmonic_potential(grid, 20.0), 100.0)
    reports = {scheme: run(problem, RunConfig(scheme=scheme)) for scheme in SCHEMES}
    assert_energy_decay("3d-15^3", reports)
    assert_schemes_agree("3d-15^3", problem, reports)
    print("ACCEPTANCE 2+3 in 3D (15^3, harmonic:20, beta=100): PASS")


def test_criterion_4_eigengap_and_rate():
    problem = make_problem(100.0, "zero", "1d-255")
    ref = run(problem, RunConfig(scheme=MetricKind.H1, tol=1e-11)).final
    spectral = lowest_two_eigen(linearized_operator(problem, ref))
    assert spectral.lambda1 - spectral.lambda0 > 0.0

    def tail_rate(report):
        deltas = [r.delta for r in report.records if r.delta is not None and r.delta > 1e-7]
        return fit_rate(deltas[len(deltas) // 3 :], threshold=math.inf)

    for scheme in SCHEMES:
        fit = tail_rate(run(problem, RunConfig(scheme=scheme), reference=ref))
        assert fit.rho < 1.0, scheme
        assert fit.r_squared >= 0.99, (scheme, fit.r_squared)

    rhos = {}
    for alpha in (0.05, 0.1, 0.2, 0.4):
        cfg = RunConfig(scheme=MetricKind.H1, mode="fixed", alpha0=alpha, max_iter=3000)
        report = run(problem, cfg, reference=ref)
        deltas = [r.delta for r in report.records if r.delta is not None and r.delta > 1e-7]
        rhos[alpha] = fit_rate(deltas[len(deltas) // 3 :], threshold=math.inf).rho
    assert rhos[0.05] > rhos[0.1]  # linear-in-alpha regime
    print(
        "ACCEPTANCE 4 eigengap and geometric rate "
        f"(rho(0.05)={rhos[0.05]:.3f} > rho(0.1)={rhos[0.1]:.3f}): PASS"
    )


def test_criterion_5_lemma_suite(benchmarks):
    start = time.time()
    for key, (problem, reports) in benchmarks.items():
        report = reports[MetricKind.H1]
        spectral = lowest_two_eigen(linearized_operator(problem, report.final))
        results = check_suite(problem, report, spectral, trials=5, seed=0)
        bad = failures(results)
        assert bad == [], (key, [(r.name, r.margin) for r in bad])
    elapsed = time.time() - start
    assert elapsed <= 120.0
    print(f"ACCEPTANCE 5 lemma suite clean on all 18 benchmarks ({elapsed:.0f}s): PASS")


def test_criterion_6_gradient_consistency():
    for beta, potential in ((100.0, "zero"), (10.0, "harmonic:20")):
        problem = make_problem(beta, potential, "1d-255")
        results = {r.name: r for r in check_suite(problem, trials=20, seed=0)}
        check = results["energy:gradient_consistency"]
        assert check.passed and check.trials == 20, check
    print("ACCEPTANCE 6 gradient vs finite differences (20 directions, 1e-6): PASS")


def test_criterion_7_cli_determinism(tmp_path):
    for fmt in ("json", "csv"):
        args = [
            "run", "--n", "127", "--beta", "10", "--potential", "harmonic:20",
            "--init", "random", "--seed", "123", "--format", fmt,
        ]
        a = tmp_path / f"a.{fmt}"
        b = tmp_path / f"b.{fmt}"
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
    print("ACCEPTANCE 7 byte-identical CLI output for identical seeds: PASS")
