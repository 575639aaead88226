import ast
import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpflow import cli
from gpflow.cli import (
    UsageError,
    build_potential,
    build_problem,
    main,
    parse_config,
)
from gpflow.flows import RunConfig, run
from gpflow.grid import GridFunction, MetricKind, build_grid
from gpflow.verify import CheckResult


def test_parse_defaults():
    cfg = parse_config(["run"])
    assert cfg.command == "run"
    assert cfg.dim == 1
    assert cfg.n == (127,)
    assert cfg.bounds == ((0.0, 1.0),)
    assert cfg.scheme == "h1"
    assert cfg.potential == "zero"
    assert cfg.format == "json"


def test_parse_overrides():
    cfg = parse_config(
        ["run", "--dim", "2", "--n", "63", "--beta", "10", "--scheme", "au",
         "--bounds", "0,2", "--potential", "harmonic:20", "--seed", "5"]
    )
    assert cfg.n == (63, 63)
    assert cfg.bounds == ((0.0, 2.0), (0.0, 2.0))
    assert cfg.scheme == "au"
    assert cfg.beta == 10.0
    assert cfg.seed == 5


def test_parse_rejects_bad_scheme():
    with pytest.raises(UsageError) as err:
        parse_config(["run", "--scheme", "bogus"])
    assert "h1" in str(err.value) and "a0" in str(err.value) and "au" in str(err.value)


def test_parse_rejects_unknown_flag():
    with pytest.raises(UsageError):
        parse_config(["run", "--frobnicate", "1"])


def test_sweep_requires_alphas():
    with pytest.raises(UsageError):
        parse_config(["sweep"])
    cfg = parse_config(["sweep", "--alphas", "0.05,0.1,0.2"])
    assert cfg.alphas == (0.05, 0.1, 0.2)


def test_config_file_precedence(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"beta": 25.0, "n": "31", "scheme": "a0"}))
    cfg = parse_config(["run", "--config", str(path), "--scheme", "au"])
    assert cfg.beta == 25.0  # from file
    assert cfg.n == (31,)  # from file
    assert cfg.scheme == "au"  # flag wins


def test_config_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"betta": 1.0}))
    with pytest.raises(UsageError):
        parse_config(["run", "--config", str(path)])


def test_potential_presets():
    grid = build_grid(1, [3], [(0.0, 1.0)])
    cfg = parse_config(["run", "--potential", "harmonic:2"])
    V = build_potential(cfg, grid)
    np.testing.assert_allclose(V.values, 2.0 * (np.array([0.25, 0.5, 0.75]) - 0.5) ** 2)
    cfg = parse_config(["run", "--potential", "well:100:0.4:0.6"])
    V = build_potential(cfg, grid)
    np.testing.assert_allclose(V.values, [100.0, 0.0, 100.0])
    # a well over every node is valid: V = 0 throughout
    cfg = parse_config(["run", "--potential", "well:100:0:1"])
    np.testing.assert_array_equal(build_potential(cfg, grid).values, [0.0, 0.0, 0.0])
    with pytest.raises(UsageError):
        build_potential(parse_config(["run", "--potential", "mystery"]), grid)
    with pytest.raises(UsageError):
        build_potential(parse_config(["run", "--potential", "harmonic:abc"]), grid)


def test_potential_from_file(tmp_path):
    grid = build_grid(1, [3], [(0.0, 1.0)])
    path = tmp_path / "V.csv"
    np.savetxt(path, [1.0, 2.0, 3.0])
    cfg = parse_config(["run", "--potential", f"file:{path}"])
    np.testing.assert_allclose(build_potential(cfg, grid).values, [1.0, 2.0, 3.0])


def test_negative_potential_rejected(tmp_path):
    path = tmp_path / "V.csv"
    np.savetxt(path, [-1.0, 0.0, 0.0])
    cfg = parse_config(["run", "--n", "3", "--potential", f"file:{path}"])
    with pytest.raises(UsageError):
        build_problem(cfg)


def test_run_json_schema_and_roundtrip(tmp_path):
    out = tmp_path / "report.json"
    code = main(["run", "--n", "31", "--beta", "5", "-o", str(out)])
    assert code == 0
    text = out.read_text()
    data = json.loads(text)
    assert set(data) == {"meta", "iterations", "final"}
    assert set(data["meta"]) == {"scheme", "dim", "n", "beta", "potential", "seed", "version"}
    assert set(data["iterations"][0]) == {"n", "energy", "residual", "gamma", "alpha", "decrease"}
    assert data["final"]["status"] == "converged"
    assert data["final"]["rate"] is None or set(data["final"]["rate"]) == {"rho", "r_squared"}
    # serialize -> parse -> serialize is byte-identical
    assert json.dumps(json.loads(text), indent=2) + "\n" == text


def test_run_csv_format(tmp_path):
    out = tmp_path / "trace.csv"
    code = main(["run", "--n", "31", "--beta", "5", "--format", "csv", "-o", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.endswith("\n") and not text.endswith("\n\n")
    lines = text.splitlines()
    assert lines[0] == "n,energy,residual,gamma,alpha,decrease"
    jout = tmp_path / "report.json"
    main(["run", "--n", "31", "--beta", "5", "-o", str(jout)])
    iterations = json.loads(jout.read_text())["iterations"]
    assert len(lines) - 1 == len(iterations)
    # 17 significant digits: values survive the round trip exactly
    first = lines[1].split(",")
    assert float(first[1]) == iterations[0]["energy"]
    assert float(first[2]) == iterations[0]["residual"]


def test_determinism_byte_identical(tmp_path):
    args = ["run", "--n", "63", "--beta", "20", "--init", "random", "--seed", "42"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_exit_code_nonconvergence(tmp_path):
    out = tmp_path / "r.json"
    code = main(["run", "--n", "63", "--beta", "50", "--max-iter", "2", "-o", str(out)])
    assert code == 2
    assert json.loads(out.read_text())["final"]["status"] == "max_iter"


def test_run_that_stops_moving_ends_at_once(tmp_path):
    # at beta = 1e300 the residual sits at ~eps sqrt(beta): from some step
    # on, alpha g is lost in u's rounding and the step returns u itself
    out = tmp_path / "r.json"
    code = main(["run", "--n", "7", "--beta", "1e300", "--scheme", "au", "-o", str(out)])
    assert code == 2
    payload = json.loads(out.read_text())
    assert payload["final"]["status"] == "stalled"
    assert len(payload["iterations"]) <= 50
    assert payload["iterations"][-1]["decrease"] == 0.0


def test_run_that_cannot_certify_its_stall_is_an_error(tmp_path, capsys):
    # at beta = 1e300 on 7^2 nodes fixed a_u steps stall at a state CG
    # cannot solve to its tight tolerance: no report, one error line
    out = tmp_path / "r.json"
    argv = ["run", "--dim", "2", "--n", "7", "--beta", "1e300", "--scheme", "au", "--mode",
            "fixed", "-o", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: preconditioned CG stopped short")
    assert "Traceback" not in captured.out + captured.err
    assert not out.exists()


def test_exit_code_usage_error(capsys):
    assert main(["run", "--scheme", "bogus"]) == 1
    assert "error:" in capsys.readouterr().err


def test_verify_command(tmp_path):
    out = tmp_path / "checks.json"
    code = main(["verify", "--n", "31", "--beta", "5", "--trials", "3", "-o", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    names = [c["name"] for c in data["checks"]]
    assert "thm:energy_decay" in names
    assert all(c["passed"] or c["skipped"] for c in data["checks"])


def test_verify_exit_code_on_failure(tmp_path, monkeypatch):
    failing = [CheckResult("thm:energy_decay", passed=False, margin=-1.0, trials=1, detail="x")]
    monkeypatch.setattr(cli, "check_suite", lambda *a, **k: failing)
    out = tmp_path / "checks.json"
    assert main(["verify", "--n", "31", "-o", str(out)]) == 3


def test_verify_cross_scheme_runs_each_scheme_once(tmp_path, monkeypatch):
    # the configured scheme's run serves the spectrum, the suite and the
    # cross-scheme check alike
    configs = []

    def recording_run(problem, cfg, *args, **kwargs):
        configs.append(cfg)
        return run(problem, cfg, *args, **kwargs)

    monkeypatch.setattr(cli, "run", recording_run)
    argv = ["verify", "--n", "31", "--beta", "5", "--scheme", "a0", "--cross-scheme",
            "--trials", "1"]
    assert main(argv + ["-o", str(tmp_path / "checks.json")]) == 0
    base = cli.run_config(parse_config(argv))
    others = [dataclasses.replace(base, scheme=s) for s in (MetricKind.H1, MetricKind.AU)]
    assert configs == [base] + others


def test_spectrum_command(tmp_path):
    out = tmp_path / "spec.json"
    code = main(["spectrum", "--n", "31", "--beta", "0", "-o", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    lam0 = data["spectrum"]["lambda0"]
    h = 1.0 / 32
    assert lam0 == pytest.approx((2.0 / h**2) * (1.0 - math.cos(math.pi * h)), rel=1e-10)
    assert data["spectrum"]["lambda1"] > lam0
    assert data["final"]["lambda"] == pytest.approx(lam0, rel=1e-8)


def test_spectrum_reports_eigensolve_residuals(tmp_path):
    # LOBPCG's iteration count and both final residuals follow gap_factor,
    # with the tolerance they were checked against
    out = tmp_path / "spec.json"
    args = ["spectrum", "--dim", "2", "--n", "15", "--beta", "10", "--potential", "harmonic:20"]
    assert main(args + ["-o", str(out)]) == 0
    spectrum = json.loads(out.read_text())["spectrum"]
    assert list(spectrum) == [
        "lambda0", "lambda1", "gap_factor", "iterations", "residuals", "tol"
    ]
    assert isinstance(spectrum["iterations"], int) and spectrum["iterations"] > 0
    assert len(spectrum["residuals"]) == 2
    assert all(0.0 <= r <= spectrum["tol"] for r in spectrum["residuals"])


def test_sweep_command(tmp_path):
    out = tmp_path / "sweep.json"
    code = main(["sweep", "--n", "31", "--beta", "5", "--alphas", "0.1,0.2", "-o", str(out)])
    assert code == 0
    entries = json.loads(out.read_text())["sweep"]
    assert [e["alpha"] for e in entries] == [0.1, 0.2]
    assert all(e["status"] == "converged" for e in entries)
    assert entries[0]["rho"] > entries[1]["rho"]  # larger alpha contracts faster here


def test_sweep_entry_of_an_unconverged_run_has_no_rate(tmp_path):
    # a run cut off by max_iter leaves 21 residuals but no rate to fit
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--n", "63", "--beta", "100", "--max-iter", "20", "--alphas", "0.1",
            "-o", str(out)]
    assert main(argv) == 2
    (entry,) = json.loads(out.read_text())["sweep"]
    assert entry["status"] == "max_iter" and entry["iterations"] == 21
    assert entry["rho"] is None and entry["r_squared"] is None


def test_sweep_keeps_its_entries_past_a_breakdown(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--n", "7", "--beta", "10", "--alphas", "0.1,1e200", "-o", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: h1 run broke down at step 0")
    converged, broken = json.loads(out.read_text())["sweep"]
    assert list(converged) == ["alpha", "status", "lambda", "iterations", "rho", "r_squared"]
    assert converged["alpha"] == 0.1 and converged["status"] == "converged"
    assert converged["lambda"] > 0.0 and converged["iterations"] > 0
    assert converged["rho"] is not None and converged["r_squared"] is not None
    assert broken == {
        "alpha": 1e200,
        "status": "breakdown",
        "lambda": None,
        "iterations": None,
        "rho": None,
        "r_squared": None,
    }
    assert list(broken) == list(converged)


def test_sweep_keeps_its_entries_past_a_failed_green_solve(tmp_path, capsys):
    # at beta = 1e300 every a_u run's CG stops short of its tolerance: each
    # alpha keeps a breakdown entry, and the first failure is reported
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--dim", "3", "--n", "5", "--beta", "1e300", "--scheme", "au",
            "--alphas", "0.5,1e-3", "-o", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: preconditioned CG stopped short")
    entries = json.loads(out.read_text())["sweep"]
    assert [(e["alpha"], e["status"]) for e in entries] == [(0.5, "breakdown"),
                                                           (1e-3, "breakdown")]


def test_sweep_keeps_an_entry_per_uncertifiable_stall(tmp_path, capsys):
    # the fixed a_u stall that CG cannot certify (see
    # test_run_that_cannot_certify_its_stall_is_an_error) is a breakdown at
    # every alpha
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--dim", "2", "--n", "7", "--beta", "1e300", "--scheme", "au", "--mode",
            "fixed", "--alphas", "0.5,0.1", "-o", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: preconditioned CG stopped short")
    entries = json.loads(out.read_text())["sweep"]
    assert [(e["alpha"], e["status"]) for e in entries] == [(0.5, "breakdown"),
                                                           (0.1, "breakdown")]


def test_sweep_checks_every_alpha_before_its_first_run(monkeypatch, capsys):
    runs, flow_run = [], cli.run

    def counting_run(*args, **kwargs):
        runs.append(args)
        return flow_run(*args, **kwargs)

    monkeypatch.setattr(cli, "run", counting_run)
    assert main(["sweep", "--n", "63", "--alphas", "0.1,0.2,-1"]) == 1
    err = capsys.readouterr().err
    assert err == "error: need alpha0 >= alpha_floor > 0\n"
    assert runs == []


def test_a_call_reads_its_start_file_once(tmp_path, monkeypatch, capsys):
    # build_problem reads the start file, and its values reach every run of
    # the call unretracted, as run's u0, which each run retracts once
    start, out = tmp_path / "start.csv", tmp_path / "out"
    x = np.linspace(0.0, 1.0, 33)[1:-1]
    np.savetxt(start, x * (1.0 - x) * (1.0 + 3.0 * x))
    reads, loadtxt = [], np.loadtxt

    def counting_loadtxt(fname, *args, **kwargs):
        reads.append(fname)
        return loadtxt(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
    problem_args = ["--n", "31", "--beta", "10", "--potential", "harmonic:20", "--init", "file",
                    "--init-path", str(start)]
    for command in (["verify", "--cross-scheme", "--trials", "1"],
                    ["sweep", "--alphas", "0.1,0.2,0.4"], ["run", "--scheme", "a0"]):
        reads.clear()
        assert main(command + problem_args + ["-o", str(out)]) == 0
        assert reads == [str(start)], command
    cfg = parse_config(["run", "--scheme", "a0"] + problem_args)
    problem, u0 = build_problem(cfg)
    expected = run(problem, cli.run_config(cfg), u0=GridFunction(problem.grid, loadtxt(start)))
    assert json.loads(out.read_text()) == cli.report_payload(cfg, expected)
    # a zero start has no direction: still a usage error
    np.savetxt(start, np.zeros(31))
    assert main(["run"] + problem_args) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot use start file {start}: retraction undefined at zero\n"


def test_a_value_that_starts_with_a_minus_sign_is_no_flag(capsys):
    # '-' then a digit, or '-.' then a digit, starts a value: argparse alone
    # reads -1,1 and -1e5 as flags and reports their option's value missing
    args = ["run", "--n", "15", "--potential", "harmonic:20", "--beta", "10"]
    assert parse_config(args + ["--bounds", "-1,1"]).bounds == ((-1.0, 1.0),)
    assert main(args + ["--bounds", "-1,1"]) == 0
    spaced = capsys.readouterr()
    assert main(args + ["--bounds=-1,1"]) == 0
    assert capsys.readouterr() == spaced
    assert main(["run", "--beta", "-1e5"]) == 1
    assert capsys.readouterr().err == "error: beta must be non-negative\n"
    # so is a token that starts like a negative infinity or NaN, in any case:
    # each names its value's fault, as the --flag=value form does
    for flag, value, err in (("--seed", "-1", "--seed must be >= 0, got -1"),
                             ("--tol", "-inf", "--tol must be finite, got '-inf'"),
                             ("--bounds", "-inf,1", "--bounds must be finite, got '-inf'"),
                             ("--beta", "-nan", "--beta must be finite, got '-nan'"),
                             ("--alpha0", "-Infinity", "--alpha0 must be finite, got '-Infinity'")):
        assert main(["run", flag, value]) == 1
        assert capsys.readouterr().err == f"error: {err}\n"
        assert main(["run", f"{flag}={value}"]) == 1
        assert capsys.readouterr().err == f"error: {err}\n"
    # the short flags stay flags
    assert main(["run", "--tol", "-o"]) == 1
    assert capsys.readouterr().err == "error: argument --tol: expected one argument\n"


def test_config_cross_scheme_takes_json_booleans(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"cross_scheme": True}))
    assert parse_config(["verify", "--config", str(path)]).cross_scheme is True
    path.write_text(json.dumps({"cross_scheme": False}))
    assert parse_config(["verify", "--config", str(path)]).cross_scheme is False
    for value in ("false", "true", 0, 1, None):
        path.write_text(json.dumps({"cross_scheme": value}))
        with pytest.raises(UsageError):
            parse_config(["verify", "--config", str(path)])


def test_config_string_keys_are_type_checked(tmp_path):
    path = tmp_path / "cfg.json"
    # a number as output path would be opened as a file descriptor
    for values in ({"output": 3}, {"init_path": 3}, {"potential": 5}, {"potential": None}):
        path.write_text(json.dumps(values))
        with pytest.raises(UsageError):
            parse_config(["run", "--config", str(path)])
    path.write_text(json.dumps({"output": None, "init_path": None}))
    cfg = parse_config(["run", "--config", str(path)])
    assert cfg.output is None and cfg.init_path is None


def test_cli_defaults_are_the_library_defaults(tmp_path):
    assert cli.run_config(parse_config(["run"])) == RunConfig()
    # a config file that spells out every default changes nothing
    path = tmp_path / "cfg.json"
    for command in ("run", "verify", "spectrum", "sweep"):
        alphas = [0.1] if command == "sweep" else None
        path.write_text(json.dumps({**cli._DEFAULTS, "alphas": alphas}))
        flags = ["--alphas", "0.1"] if alphas else []
        assert parse_config([command, "--config", str(path)]) == parse_config([command] + flags)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["run", "--trials", "1"], "--trials"),
        (["run", "--alphas", "0.1"], "--alphas"),
        (["run", "--cross-scheme"], "--cross-scheme"),
        (["spectrum", "--cross-scheme"], "--cross-scheme"),
        (["verify", "--alphas", "0.1"], "--alphas"),
        (["sweep", "--alphas", "0.1", "--trials", "1"], "--trials"),
    ],
)
def test_flags_belong_to_their_commands(argv, flag, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: unrecognized arguments: {flag}")


def test_every_config_key_is_valid_for_every_command(tmp_path):
    path = tmp_path / "cfg.json"
    for command in ("run", "verify", "spectrum", "sweep"):
        flags = ["--alphas", "0.1"] if command == "sweep" else []
        for key, default in cli._DEFAULTS.items():
            path.write_text(json.dumps({key: default}))
            assert parse_config([command, "--config", str(path)] + flags).command == command


# one valid value per setting, none of them the default: as the flag's
# argument (None: a flag without one), as a config-file value, and parsed
SETTINGS = {
    "dim": ("2", 2, 2),
    "n": ("31", 31, (31,)),
    "bounds": ("0,2", "0,2", ((0.0, 2.0),)),
    "potential": ("harmonic:20", "harmonic:20", "harmonic:20"),
    "beta": ("10", 10, 10.0),
    "scheme": ("AU", "Au", "au"),
    "tol": ("1e-6", 1e-6, 1e-6),
    "max_iter": ("7", 7, 7),
    "seed": ("3", 3, 3),
    "init": ("random", "random", "random"),
    "init_path": ("start.csv", "start.csv", "start.csv"),
    "mode": ("fixed", "fixed", "fixed"),
    "alpha0": ("0.25", 0.25, 0.25),
    "shrink": ("0.9", 0.9, 0.9),
    "alpha_floor": ("1e-6", 1e-6, 1e-6),
    "output": ("out.json", "out.json", "out.json"),
    "format": ("CSV", "csv", "csv"),
    "trials": ("5", 5, 5),
    "cross_scheme": (None, True, True),
    "alphas": ("0.1,0.2", [0.1, 0.2], (0.1, 0.2)),
}


def test_settings_cover_the_option_table():
    assert set(SETTINGS) == set(cli._DEFAULTS)


@pytest.mark.parametrize("name", list(SETTINGS))
def test_flag_and_file_value_parse_alike(name, tmp_path):
    flag_value, file_value, parsed = SETTINGS[name]
    command = {"trials": "verify", "cross_scheme": "verify", "alphas": "sweep"}.get(name, "run")
    flag = "--" + name.replace("_", "-")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({name: file_value}))
    from_flag = parse_config([command, flag] + ([] if flag_value is None else [flag_value]))
    from_file = parse_config([command, "--config", str(path)])
    assert from_flag == from_file
    assert getattr(from_flag, name) == parsed


@pytest.mark.parametrize(
    "name, text, file_values, parsed",
    [
        ("n", "31,15", [[31, 15]], (31, 15)),
        ("n", "31", [[31], 31], (31, 31)),
        ("bounds", "-1,1", [[-1, 1], [-1.0, 1.0]], ((-1.0, 1.0), (-1.0, 1.0))),
        ("alphas", "0.1,0.2", [[0.1, 0.2]], (0.1, 0.2)),
        ("alphas", "0.1", [[0.1], 0.1], (0.1,)),
    ],
)
def test_list_setting_parses_text_a_json_list_or_one_number(name, text, file_values, parsed,
                                                            tmp_path):
    command = ["sweep"] if name == "alphas" else ["run", "--dim", "2"]
    from_flag = parse_config(command + ["--" + name, text])
    assert getattr(from_flag, name) == parsed
    path = tmp_path / "cfg.json"
    for value in file_values:
        path.write_text(json.dumps({name: value}))
        assert parse_config(command + ["--config", str(path)]) == from_flag


@pytest.mark.parametrize("name", ["n", "bounds", "alphas"])
def test_list_setting_names_a_bad_entry_and_rejects_no_entry(name, tmp_path):
    command = ["sweep"] if name == "alphas" else ["run"]
    flag = "--" + name
    kind = "an integer" if name == "n" else "a number"
    with pytest.raises(UsageError, match=f"^{flag} expects {kind}, got '6x'$"):
        parse_config(command + [flag, "6x,3"])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({name: []}))
    for argv in ([flag, ""], [flag, " , "], ["--config", str(path)]):
        with pytest.raises(UsageError, match=f"^{flag} expects at least one value$"):
            parse_config(command + argv)


def test_import_leaves_scipy_fft_unloaded():
    # scipy.fft pulls in scipy.special (~0.1 s); only the sine transform on a
    # grid with an axis over 128 nodes imports it, and a one-axis grid never
    # transforms: its solves and its eigen preconditioner are tridiagonal
    code = """if True:
        import sys, gpflow.cli
        assert 'scipy.fft' not in sys.modules
        from gpflow import (MetricKind, Problem, RunConfig, build_grid, harmonic_potential,
                            linearized_operator, lowest_two_eigen, run)
        grid = build_grid(1, [255], [(0.0, 1.0)])
        prob = Problem(grid, harmonic_potential(grid, 20.0), 100.0)
        for scheme in (MetricKind.H1, MetricKind.A0, MetricKind.AU):
            report = run(prob, RunConfig(scheme=scheme))
            assert report.status == 'converged'
        lowest_two_eigen(linearized_operator(prob, report.final))
        sys.exit('scipy.fft' in sys.modules)
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))  # find gpflow as we do
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_solves_on_two_and_three_axes_leave_scipy_unloaded():
    # the stencil, the sine transform and the per-axis eigenbases are numpy:
    # importing the CLI, the three flows on 2D-31 (harmonic and well, so
    # CG runs) and 3D-9, the spectrum and a 2D verify import no scipy module
    code = """if True:
        import sys, gpflow.cli

        def scipy_modules():
            return [m for m in sys.modules if m.split('.')[0] == 'scipy']

        assert not scipy_modules(), scipy_modules()
        from gpflow import (MetricKind, Problem, RunConfig, build_grid, harmonic_potential,
                            linearized_operator, lowest_two_eigen, run, well_potential)
        for dim, n in ((2, 31), (3, 9)):
            grid = build_grid(dim, [n] * dim, [(0.0, 1.0)] * dim)
            for V in (harmonic_potential(grid, 20.0), well_potential(grid, 1000.0, 0.25, 0.75)):
                prob = Problem(grid, V, 100.0)
                for scheme in (MetricKind.H1, MetricKind.A0, MetricKind.AU):
                    report = run(prob, RunConfig(scheme=scheme))
                    assert report.status == 'converged'
                lowest_two_eigen(linearized_operator(prob, report.final))
        assert gpflow.cli.main(['verify', '--dim', '2', '--n', '15', '--beta', '10',
                                '--potential', 'well:1000:0.25:0.75', '--trials', '2']) == 0
        assert not scipy_modules(), scipy_modules()
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))  # find gpflow as we do
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr[-2000:]


def test_a_long_axis_loads_scipy_fft_only(tmp_path):
    # a 2D grid with an axis over DENSE_SINE_MAX nodes transforms through
    # scipy.fft.dstn, and factors no tridiagonal and assembles no sparse matrix
    code = f"""if True:
        import sys, gpflow.cli
        argv = ['run', '--dim', '2', '--n', '130', '--beta', '10', '--potential', 'harmonic:20',
                '--scheme', 'au', '-o', {str(tmp_path / "out")!r}]
        assert gpflow.cli.main(argv) == 0
        loaded = [m for m in ('scipy.fft', 'scipy.sparse', 'scipy.linalg') if m in sys.modules]
        assert loaded == ['scipy.fft'], loaded
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))  # find gpflow as we do
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr[-2000:]


def test_scipy_is_imported_in_one_function():
    # static: every scipy import of the package sits in
    # greens.laplacian_inverse, so which calls load scipy is its choice alone
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "gpflow"
    owners = []

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, owner + [child.name])
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            owners.extend((module, ".".join(owner)) for name in names
                          if name.split(".")[0] == "scipy")
            visit(child, module, owner)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, [])
    assert owners and set(owners) == {("greens", "laplacian_inverse")}, owners


def test_every_cache_holds_one_entry():
    # static: every functools.cache and lru_cache of the package is
    # lru_cache(maxsize=1), so a cache holds what its last call built and
    # nothing of a finished problem or grid stays alive in it
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "gpflow"

    def name(node):
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    caches, one_entry = [], []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if name(node) in ("cache", "lru_cache"):
                caches.append((path.stem, node.lineno))
            if (isinstance(node, ast.Call) and name(node.func) == "lru_cache" and not node.args
                    and [(k.arg, getattr(k.value, "value", None)) for k in node.keywords]
                    == [("maxsize", 1)]):
                one_entry.append((path.stem, node.lineno))
    assert caches and sorted(caches) == sorted(one_entry), caches


def test_one_axis_calls_load_scipy_linalg_only(tmp_path):
    # a 1D run, spectrum and verify factor tridiagonals (scipy.linalg's
    # LAPACK) and never transform or assemble a sparse matrix
    code = f"""if True:
        import sys, gpflow.cli
        out = {str(tmp_path / "out")!r}
        for argv in (['run', '--n', '63', '--beta', '10', '--scheme', 'a0'],
                     ['spectrum', '--n', '63', '--beta', '10', '--potential', 'harmonic:20'],
                     ['verify', '--n', '31', '--beta', '10', '--scheme', 'au', '--trials', '2']):
            assert gpflow.cli.main(argv + ['-o', out]) == 0, argv
        loaded = [m for m in ('scipy.fft', 'scipy.sparse', 'scipy.linalg') if m in sys.modules]
        assert loaded == ['scipy.linalg'], loaded
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))  # find gpflow as we do
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr[-2000:]


@pytest.mark.parametrize("flags", [["--init", "file", "--init-path", "empty.csv"],
                                   ["--potential", "file:empty.csv"]])
def test_empty_node_value_file_prints_one_error_line(flags, tmp_path):
    # in a subprocess: pytest records warnings in-process, so numpy's
    # "input contained no data" warning would not reach the stderr checked here
    (tmp_path / "empty.csv").write_text("")
    code = "import sys, gpflow.cli; sys.exit(gpflow.cli.main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))  # find gpflow as we do
    result = subprocess.run([sys.executable, "-c", code, "run", "--n", "3", *flags, "-o", "out"],
                            env=env, cwd=tmp_path, capture_output=True, text=True)
    assert result.returncode == 1
    assert result.stderr.count("\n") == 1 and result.stderr.startswith("error: "), result.stderr


def _stall_lobpcg(A, S, *args, **kwargs):
    # the start rows and their products back, after no iteration: no eigenpairs
    return S[:2], np.array([A(x) for x in S[:2]]), 0


def test_spectrum_byte_identical(tmp_path):
    args = ["spectrum", "--dim", "2", "--n", "15", "--beta", "10", "--potential", "harmonic:20"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "argv, code, stall",
    [
        (["run", "--n", "0"], 1, False),
        (["run", "--bounds", "1,0"], 1, False),
        (["run", "--bounds", "0,inf"], 1, False),
        (["run", "--beta", "nan"], 1, False),
        (["run", "--tol", "nan"], 1, False),
        (["run", "--alpha0", "inf"], 1, False),
        (["run", "--shrink", "nan"], 1, False),
        (["run", "--alpha-floor", "nan"], 1, False),
        (["sweep", "--n", "7", "--alphas", "0.1,nan"], 1, False),
        (["verify", "--n", "7", "--trials", "-1"], 1, False),
        # two wells split by a 1e16 barrier: lambda1 - lambda0 below resolution
        (["spectrum", "--n", "3", "--scheme", "a0", "--potential", "file:{barrier}"], 2, False),
        (["spectrum", "--n", "7", "--beta", "10"], 2, True),
        # the eigensolve needs at least 3 interior unknowns
        (["verify", "--n", "1"], 1, False),
        (["spectrum", "--n", "1"], 1, False),
        (["verify", "--n", "2"], 1, False),
        (["spectrum", "--dim", "2", "--n", "1,2"], 1, False),
        # malformed start files
        (["run", "--n", "7", "--init", "file", "--init-path", "{short}"], 1, False),
        (["run", "--n", "7", "--init", "file", "--init-path", "{text}"], 1, False),
        # config-file values of the wrong type for integer keys
        (["run", "--config", "{cfg_dim}"], 1, False),
        (["run", "--config", "{cfg_max_iter}"], 1, False),
        (["run", "--config", "{cfg_seed}"], 1, False),
        (["verify", "--n", "7", "--config", "{cfg_trials}"], 1, False),
        # a JSON boolean is no number: true would read as 1
        (["run", "--n", "7", "--config", "{cfg_max_iter_bool}"], 1, False),
        (["run", "--n", "7", "--config", "{cfg_beta_bool}"], 1, False),
        # CG stops short of its tolerance (a zero tolerance is unreachable);
        # a well is not additive, so its a0 operator runs CG
        (["run", "--dim", "2", "--n", "7", "--scheme", "a0", "--potential", "well:1000:0.25:0.75"],
         2, "cg"),
        # config-file values of the wrong type for boolean and string keys
        (["verify", "--n", "7", "--config", "{cfg_cross}"], 1, False),
        (["run", "--n", "7", "--config", "{cfg_init_path}"], 1, False),
        # config-file values of the wrong type under a flag that overrides them
        (["run", "--n", "7", "--config", "{cfg_output}"], 1, False),
        (["verify", "--n", "7", "--cross-scheme", "--config", "{cfg_cross}"], 1, False),
        # a config-file alpha list that is empty
        (["sweep", "--n", "7", "--config", "{cfg_alphas}"], 1, False),
        # csv is a run trace format only
        (["verify", "--n", "15", "--trials", "1", "--format", "csv"], 1, False),
        # spacings whose 1/h^2 underflows or overflows
        (["run", "--bounds", "0,1e-300"], 1, False),
        (["run", "--bounds", "0,1e300"], 1, False),
        # a potential beyond the float range
        (["run", "--potential", "harmonic:1e200"], 1, False),
        (["run", "--init", "random", "--seed", "-1"], 1, False),
        # a retraction beyond the float range, fixed or as the first trial of
        # a backtracking search, and beta * u^3 beyond it
        (["run", "--n", "7", "--beta", "10", "--mode", "fixed", "--alpha0", "1e200"], 2, False),
        (["run", "--n", "7", "--beta", "10", "--alpha0", "1e200"], 2, False),
        (["run", "--n", "7", "--beta", "1e308"], 2, False),
        # one alpha of a sweep breaks down
        (["sweep", "--n", "7", "--beta", "10", "--alphas", "0.1,1e200"], 2, False),
        # a stepsize policy out of range, and a config file that is no object
        (["run", "--n", "7", "--alpha-floor", "-1"], 1, False),
        (["run", "--n", "7", "--shrink", "2"], 1, False),
        (["run", "--n", "7", "--config", "{cfg_null}"], 1, False),
        # a file's number far out of range is named as written, not in 301 digits
        (["run", "--config", "{cfg_dim_huge}"], 1, False),
        (["run", "--config", "{cfg_seed_huge}"], 1, False),
        # counts beyond their caps: trials, and interior unknowns before
        # anything is allocated for them
        (["verify", "--n", "7", "--trials", "1" + "0" * 300], 1, False),
        (["verify", "--n", "7", "--config", "{cfg_trials_huge}"], 1, False),
        (["run", "--dim", "3", "--n", "100000"], 1, False),
        # a verify whose trials times unknowns exceed its work budget
        (["verify", "--dim", "2", "--n", "63", "--trials", "1000"], 1, False),
        # a well with reversed or NaN bounds, or a NaN depth
        (["run", "--n", "3", "--potential", "well:1:0.75:0.25"], 1, False),
        (["run", "--n", "3", "--potential", "well:1:nan:1"], 1, False),
        (["run", "--n", "3", "--potential", "well:nan:0.25:0.75"], 1, False),
        # a well that holds no interior node
        (["run", "--n", "3", "--potential", "well:1:2:3"], 1, False),
        # a file's node count far out of range is named as written too
        (["run", "--config", "{cfg_n_huge}"], 1, False),
    ],
)
def test_bad_input_exits_with_one_error_line(argv, code, stall, tmp_path, monkeypatch, capsys):
    """``stall`` stubs a solver: True the eigensolver, "cg" the Green's solve."""
    contents = {
        "barrier": "0\n1e16\n0\n",
        "short": "1\n2\n",
        "text": "abc\nxyz\n",
        "cfg_dim": json.dumps({"dim": "x"}),
        "cfg_max_iter": json.dumps({"max_iter": 2.5}),
        "cfg_seed": json.dumps({"seed": "s"}),
        "cfg_trials": json.dumps({"trials": [1]}),
        "cfg_max_iter_bool": json.dumps({"max_iter": True}),
        "cfg_beta_bool": json.dumps({"beta": True}),
        "cfg_cross": json.dumps({"cross_scheme": "false"}),
        "cfg_init_path": json.dumps({"init": "file", "init_path": 3}),
        "cfg_output": json.dumps({"output": 3}),  # "-o out" is appended below
        "cfg_alphas": json.dumps({"alphas": []}),
        "cfg_null": "null",
        "cfg_dim_huge": json.dumps({"dim": 1e300}),
        "cfg_seed_huge": json.dumps({"seed": -1e300}),
        "cfg_trials_huge": json.dumps({"trials": 1e300}),
        "cfg_n_huge": json.dumps({"n": [7, -1e300]}),
    }
    files = {key: tmp_path / key for key in contents}
    for key, text in contents.items():
        files[key].write_text(text)
    if stall is True:
        monkeypatch.setattr("gpflow.spectral._lobpcg", _stall_lobpcg)
    elif stall == "cg":
        monkeypatch.setattr("gpflow.greens.CG_RTOL", 0.0)
    argv = [a.format(**files) for a in argv]
    assert main(argv + ["-o", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert len(err) <= 200
    assert "Traceback" not in err


# --- a fuzz test of the error contract ----------------------------------------

FUZZ_FILES = {
    "barrier": "0\n1e16\n0\n",
    "short": "1\n2\n",
    "text": "abc\nxyz\n",
}


def _either(valid, invalid):
    """A flag's (accepted values, rejected values) as two strategies; an
    accepted value may still fail a run, e.g. by overflowing it."""
    return st.sampled_from(valid), st.sampled_from(invalid)


OPTIONS = {
    "--dim": _either(["1", "2", "3"], ["0", "4", "x"]),
    "--bounds": _either(["0,1", "0.5,3", "0,1e-3"], ["1,0", "0,inf", "0,1e-300", "0,1e300", "x"]),
    "--potential": _either(
        ["zero", "harmonic:20", "harmonic:1e150", "well:1000:0.25:0.75", "well:1e300:0.25:0.75"],
        ["harmonic:1e200", "harmonic:-1", "harmonic:nan", "well:-1:0.25:0.75", "well:1:0.75:0.25",
         "bogus", "harmonic:", "file:{missing}", "file:{barrier}"],
    ),
    "--beta": _either(["0", "10", "100", "1e4", "1e200", "1e300", "1e308"],
                      ["nan", "inf", "-1", "x", ""]),
    "--scheme": _either(["h1", "a0", "au", "AU"], ["l2", "x"]),
    "--tol": _either(["1e-9", "1e-3", "1", "1e-300"], ["0", "-1", "nan", "-inf", "x"]),
    "--seed": _either(["0", "1", "3"], ["-1", "x"]),
    "--init": _either(["default_bump", "random"], ["file", "x"]),
    "--init-path": _either(["{short}"], ["{text}", "{missing}"]),
    "--mode": _either(["backtracking", "fixed"], ["x"]),
    "--alpha0": _either(["0.5", "0.1", "4", "1e10", "1e200"], ["0", "-1", "nan", "inf"]),
    "--shrink": _either(["0.5", "0.9", "0.1"], ["0", "1", "2", "nan"]),
    "--alpha-floor": _either(["1e-8", "1e-3", "0.25"], ["-1", "nan", "inf"]),
    "--format": _either(["json", "csv"], ["xml"]),
    "--alphas": _either(["0.1,0.2", "0.5", "0.1,1e200"], ["nan", "", "0.1,x"]),
}
CONFIGS = (
    st.fixed_dictionaries({}, optional={
        "beta": st.sampled_from([0.0, 10.0, 1e300]),
        "potential": st.sampled_from(["zero", "harmonic:20"]),
        "scheme": st.sampled_from(["h1", "a0", "au"]),
        "mode": st.sampled_from(["backtracking", "fixed"]),
        "tol": st.sampled_from([1e-9, 1e-4]),
        "cross_scheme": st.booleans(),
        "seed": st.integers(0, 3),
    }).map(json.dumps),
    st.one_of(
        st.dictionaries(
            st.sampled_from(sorted(cli._DEFAULTS) + ["bogus"]),
            st.one_of(st.none(), st.booleans(), st.integers(-2, 15), st.floats(),
                      st.text(max_size=4), st.lists(st.integers(-1, 3), max_size=2)),
            min_size=1, max_size=4,
        ).map(json.dumps),
        st.sampled_from(["{", "", "null", "3", "[1, 2]", '["dim"]', '"dim"']),
    ),
)


@st.composite
def cli_calls(draw):
    """(argv, config file text): a command on a grid of at most 15 nodes per
    axis, at most 50 iterations per run and 2 trials per check, with up to
    six further flags, of which at most one takes a rejected value (or
    names a config file whose text may be rejected)."""
    command = draw(st.sampled_from(["run", "verify", "spectrum", "sweep"]))
    flags = draw(st.lists(st.sampled_from(sorted(set(OPTIONS) - {"--alphas"}) + ["--config"]),
                          unique=True, max_size=6))
    if command == "sweep":
        flags.append("--alphas")
    broken = draw(st.one_of(st.none(), st.sampled_from(["--n", "--max-iter"] + flags)))
    argv = [command, "--n", draw(
        st.sampled_from(["0", "2", "x", "", "7.5", "7,7,7,7"]) if broken == "--n"
        else st.integers(3, 15).map(str)
    )]
    argv += ["--max-iter", draw(
        st.sampled_from(["0", "-1", "x"]) if broken == "--max-iter"
        else st.integers(1, 50).map(str)
    )]
    if command == "verify":
        argv += ["--trials", str(draw(st.integers(0, 2)))]
        if draw(st.booleans()):
            argv.append("--cross-scheme")
    config = "{}"
    for flag in flags:
        if flag == "--config":
            argv += [flag, "{config}"]
            config = draw(CONFIGS[flag == broken])
        else:
            argv += [flag, draw(OPTIONS[flag][flag == broken])]
    return argv, config


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for key, text in FUZZ_FILES.items():
        (root / key).write_text(text)
    return root


# the wall-time bound on one drawn call: the draws' grids, iterations and
# trials are small, so every call ends in well under a second
CALL_SECONDS = 20.0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(call=cli_calls())
# one-axis a0 and a_u runs whose operator's diagonal reaches 1e300: an
# overflow breaks the run down (exit 2), or the run ends at max_iter (exit 2)
@example(call=(["run", "--n", "7", "--max-iter", "50", "--scheme", "au", "--beta", "1e300"], "{}"))
@example(call=(["run", "--n", "7", "--max-iter", "50", "--scheme", "a0", "--beta", "1e300"], "{}"))
@example(call=(["run", "--n", "7", "--max-iter", "50", "--scheme", "a0", "--potential",
                "well:1e300:0.25:0.75"], "{}"))
@example(call=(["run", "--n", "7", "--max-iter", "50", "--scheme", "au", "--potential",
                "well:1e300:0.25:0.75", "--beta", "1e300"], "{}"))
# a local run that never comes within the rate fit's threshold of u*
@example(call=(["verify", "--n", "3", "--max-iter", "1", "--trials", "0", "--alpha0", "4",
                "--mode", "fixed"], "{}"))
def test_every_invocation_exits_by_the_error_contract(fuzz_dir, call):
    # exit codes 0, 1 (usage), 2 (no convergence) or 3 (a check failed);
    # never a traceback, at most one error line, and exactly one for a usage
    # error; and every call ends within CALL_SECONDS, timed around main
    # itself (hypothesis's deadline stays off, so a slow host does not flake
    # a draw)
    argv, config = call
    (fuzz_dir / "config").write_text(config)
    files = {key: fuzz_dir / key for key in (*FUZZ_FILES, "config", "missing")}
    argv = [a.format(**files) for a in argv] + ["-o", str(fuzz_dir / "out")]
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    seconds = time.perf_counter() - start
    err = stderr.getvalue()
    assert seconds <= CALL_SECONDS, (argv, seconds)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err, argv
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) <= 1, (argv, err)
    if code == 1:
        assert len(errors) == 1, (argv, err)
