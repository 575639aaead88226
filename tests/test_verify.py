import dataclasses
import math

import pytest

from gpflow.flows import RunConfig, run
from gpflow.grid import MetricKind, build_grid
from gpflow.problem import Problem, harmonic_potential, zero_potential
from gpflow.spectral import linearized_operator, lowest_two_eigen
from gpflow.verify import (
    ALL_CHECKS,
    CheckContext,
    check_suite,
    cross_scheme_agreement,
    failures,
)

EXPECTED_CHECKS = {
    "grid:inner_symmetry",
    "grid:positive_definite",
    "grid:summation_by_parts",
    "lemma:equiv_a0_H1",
    "lemma:equiv_au_H1",
    "lemma:stab_au",
    "greens:adjoint_identity",
    "lemma:Gu",
    "greens:self_adjoint",
    "lemma:Gau",
    "energy:gradient_consistency",
    "energy:pythagorean_split",
    "lemma:esti_gradEu",
    "energy:projection_tangency",
    "lemma:esti_retraction",
    "lemma:linear_error",
    "thm:energy_decay",
    "flows:sufficient_decrease",
    "thm:iterate_boundedness",
    "flows:manifold_residence",
    "thm:residual_summability",
    "thm:local_exponential",
    "spectral:eigen_residual",
    "spectral:ground_state_consistency",
    "spectral:gamma_equals_lambda0",
    "lemma:Elocalconvex",
    "spectral:rate_vs_gap",
}


@pytest.fixture(scope="module")
def linear_setup():
    grid = build_grid(1, [127], [(0.0, 1.0)])
    problem = Problem(grid, zero_potential(grid), 0.0)
    report = run(problem, RunConfig(scheme=MetricKind.H1))
    spectral = lowest_two_eigen(linearized_operator(problem, report.final))
    return problem, report, spectral


@pytest.fixture(scope="module")
def nonlinear_setup():
    grid = build_grid(1, [63], [(0.0, 1.0)])
    problem = Problem(grid, harmonic_potential(grid, 10.0), 20.0)
    report = run(problem, RunConfig(scheme=MetricKind.A0))
    spectral = lowest_two_eigen(linearized_operator(problem, report.final))
    return problem, report, spectral


def test_registry_completeness():
    # every named invariant has a suite entry, and nothing extra
    assert set(ALL_CHECKS) == EXPECTED_CHECKS


def test_result_names_match_registry(linear_setup):
    problem, report, spectral = linear_setup
    results = check_suite(problem, report, spectral, trials=3, seed=0)
    assert [r.name for r in results] == list(ALL_CHECKS)


def test_full_suite_passes_linear(linear_setup):
    problem, report, spectral = linear_setup
    results = check_suite(problem, report, spectral, trials=10, seed=0)
    assert failures(results) == []
    skipped = {r.name for r in results if r.skipped}
    # no sweep data supplied; the default bump is the exact ground state here, so
    # the run converges at step 0 and its one-record trace has nothing to decrease
    assert skipped == {
        "spectral:rate_vs_gap",
        "thm:energy_decay",
        "flows:sufficient_decrease",
        "thm:residual_summability",
    }


def test_full_suite_passes_nonlinear(nonlinear_setup):
    problem, report, spectral = nonlinear_setup
    results = check_suite(problem, report, spectral, trials=10, seed=1)
    assert failures(results) == []


def test_passed_iff_margin_nonnegative(nonlinear_setup):
    problem, report, spectral = nonlinear_setup
    for r in check_suite(problem, report, spectral, trials=5, seed=2):
        if r.skipped:
            assert math.isnan(r.margin)
        else:
            assert r.passed == (r.margin >= 0.0)


def test_determinism(nonlinear_setup):
    problem, report, spectral = nonlinear_setup
    a = check_suite(problem, report, spectral, trials=5, seed=7)
    b = check_suite(problem, report, spectral, trials=5, seed=7)
    for ra, rb in zip(a, b):
        assert (ra.name, ra.passed, ra.skipped, ra.trials, ra.detail) == (
            rb.name,
            rb.passed,
            rb.skipped,
            rb.trials,
            rb.detail,
        )
        assert ra.margin == rb.margin or (math.isnan(ra.margin) and math.isnan(rb.margin))


def test_check_alone_gives_its_suite_result():
    # each check reads only its own (seed, name) generator, so running the
    # checks one at a time, in reverse order, changes no result
    grid = build_grid(2, [15, 15], [(0.0, 1.0)] * 2)
    problem = Problem(grid, harmonic_potential(grid, 20.0), 10.0)
    report = run(problem, RunConfig(scheme=MetricKind.AU))
    assert report.status == "converged"
    spectral = lowest_two_eigen(linearized_operator(problem, report.final))
    suite = {r.name: r for r in check_suite(problem, report, spectral, trials=3, seed=4)}
    ctx = CheckContext(problem, report, spectral, trials=3, seed=4)
    for name in reversed(list(ALL_CHECKS)):
        alone = ALL_CHECKS[name](ctx)
        if alone.skipped:
            assert (alone.name, alone.skipped, alone.detail) == (name, True, suite[name].detail)
            assert suite[name].skipped
        else:
            assert alone == suite[name]


def test_trials_zero_skips_sampled_checks(nonlinear_setup):
    problem, report, spectral = nonlinear_setup
    results = {r.name: r for r in check_suite(problem, report, spectral, trials=0, seed=0)}
    sampled = [
        "grid:inner_symmetry",
        "grid:positive_definite",
        "grid:summation_by_parts",
        "lemma:equiv_a0_H1",
        "lemma:equiv_au_H1",
        "lemma:stab_au",
        "greens:adjoint_identity",
        "lemma:Gu",
        "greens:self_adjoint",
        "lemma:Gau",
        "energy:gradient_consistency",
        "energy:pythagorean_split",
        "lemma:esti_gradEu",
        "energy:projection_tangency",
        "lemma:esti_retraction",
        "lemma:linear_error",
        "lemma:Elocalconvex",
    ]
    for name in sampled:
        assert results[name].skipped, name
    # trace-level checks still run
    assert not results["thm:energy_decay"].skipped


NO_TRIALS = "no trials requested"
NO_REPORT = "no run report available"
NO_USTAR = "no converged ground state available"
NO_SPECTRAL = "no spectral report available"
# every check's skip detail with neither report nor trials, without and with
# a spectral report; a check skips with the first prerequisite it lacks
SKIP_DETAILS = {
    "grid:inner_symmetry": (NO_TRIALS, NO_TRIALS),
    "grid:positive_definite": (NO_TRIALS, NO_TRIALS),
    "grid:summation_by_parts": (NO_TRIALS, NO_TRIALS),
    "lemma:equiv_a0_H1": (NO_TRIALS, NO_TRIALS),
    "lemma:equiv_au_H1": (NO_USTAR, NO_USTAR),
    "lemma:stab_au": (NO_USTAR, NO_USTAR),
    "greens:adjoint_identity": (NO_TRIALS, NO_TRIALS),
    "lemma:Gu": (NO_TRIALS, NO_TRIALS),
    "greens:self_adjoint": (NO_TRIALS, NO_TRIALS),
    "lemma:Gau": (NO_USTAR, NO_USTAR),
    "energy:gradient_consistency": (NO_TRIALS, NO_TRIALS),
    "energy:pythagorean_split": (NO_TRIALS, NO_TRIALS),
    "lemma:esti_gradEu": (NO_TRIALS, NO_TRIALS),
    "energy:projection_tangency": (NO_TRIALS, NO_TRIALS),
    "lemma:esti_retraction": (NO_TRIALS, NO_TRIALS),
    "lemma:linear_error": (NO_TRIALS, NO_TRIALS),
    "thm:energy_decay": (NO_REPORT, NO_REPORT),
    "flows:sufficient_decrease": (NO_REPORT, NO_REPORT),
    "thm:iterate_boundedness": (NO_REPORT, NO_REPORT),
    "flows:manifold_residence": (NO_REPORT, NO_REPORT),
    "thm:residual_summability": (NO_REPORT, NO_REPORT),
    "thm:local_exponential": (NO_USTAR, NO_USTAR),
    "spectral:eigen_residual": (NO_SPECTRAL, NO_USTAR),
    "spectral:ground_state_consistency": (NO_SPECTRAL, NO_USTAR),
    "spectral:gamma_equals_lambda0": (NO_SPECTRAL, "no converged run available"),
    "lemma:Elocalconvex": (NO_SPECTRAL, NO_USTAR),
    "spectral:rate_vs_gap": (NO_SPECTRAL, "no stepsize sweep provided"),
}


def test_skip_details_follow_the_prerequisite_order(nonlinear_setup):
    problem, _, spectral = nonlinear_setup
    for column, spec in enumerate((None, spectral)):
        results = check_suite(problem, None, spec, trials=0)
        assert [r.name for r in results] == list(SKIP_DETAILS)
        for r in results:
            assert r.skipped and not r.passed and r.trials == 0, r.name
            assert math.isnan(r.margin), r.name
            assert r.detail == SKIP_DETAILS[r.name][column], r.name


def test_negative_trials_rejected(linear_setup):
    problem, report, spectral = linear_setup
    with pytest.raises(ValueError):
        check_suite(problem, report, spectral, trials=-1, seed=0)


def test_missing_spectral_skips_dependents(nonlinear_setup):
    problem, report, _ = nonlinear_setup
    results = {r.name: r for r in check_suite(problem, report, None, trials=3, seed=0)}
    for name in (
        "spectral:eigen_residual",
        "spectral:ground_state_consistency",
        "spectral:gamma_equals_lambda0",
        "lemma:Elocalconvex",
        "spectral:rate_vs_gap",
    ):
        assert results[name].skipped, name
    assert failures(list(results.values())) == []


def test_missing_report_skips_dependents(nonlinear_setup):
    problem, _, _ = nonlinear_setup
    results = {r.name: r for r in check_suite(problem, None, None, trials=3, seed=0)}
    for name in (
        "thm:energy_decay",
        "thm:local_exponential",
        "lemma:equiv_au_H1",
        "lemma:stab_au",
        "lemma:Gau",
        "flows:manifold_residence",
    ):
        assert results[name].skipped, name
    # pure sampled checks run without any report
    assert not results["greens:adjoint_identity"].skipped
    assert failures(list(results.values())) == []


def test_tampered_report_fails_energy_decay(nonlinear_setup):
    problem, report, spectral = nonlinear_setup
    bumped = report.records[1]
    tampered_records = list(report.records)
    tampered_records[1] = dataclasses.replace(bumped, energy=bumped.energy + 1.0)
    tampered = dataclasses.replace(report, records=tampered_records)
    results = {r.name: r for r in check_suite(problem, tampered, spectral, trials=0, seed=0)}
    decay = results["thm:energy_decay"]
    assert not decay.passed and not decay.skipped
    assert decay.margin < 0.0


def test_rate_vs_gap_with_sweep(nonlinear_setup):
    problem, report, spectral = nonlinear_setup
    sweep = [(0.05, 0.97), (0.1, 0.94), (0.2, 0.89)]
    results = {
        r.name: r
        for r in check_suite(problem, report, spectral, trials=0, seed=0, sweep=sweep)
    }
    assert results["spectral:rate_vs_gap"].passed


def scheme_runs(problem, cfg):
    """The three schemes' runs from cfg, in MetricKind order, each run when drawn."""
    return (run(problem, dataclasses.replace(cfg, scheme=scheme)) for scheme in MetricKind)


def test_cross_scheme_agreement_linear():
    grid = build_grid(1, [63], [(0.0, 1.0)])
    problem = Problem(grid, zero_potential(grid), 0.0)
    result = cross_scheme_agreement(problem, scheme_runs(problem, RunConfig(init="random", seed=5)))
    assert result.passed
    assert result.margin >= 0.0


def test_cross_scheme_agreement_skips_on_nonconvergence():
    grid = build_grid(1, [63], [(0.0, 1.0)])
    problem = Problem(grid, harmonic_potential(grid, 10.0), 50.0)
    runs = scheme_runs(problem, RunConfig(max_iter=2, init="random", seed=5))
    result = cross_scheme_agreement(problem, runs)
    assert result.skipped
    assert "max_iter" in result.detail
    assert next(runs).config.scheme is MetricKind.A0  # h1's skip drew no later run
