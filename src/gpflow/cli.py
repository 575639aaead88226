"""Command-line front end: config parsing, presets, runs, and serialization.

Subcommands: ``run`` (one gradient-flow run), ``verify`` (run plus the full
invariant suite), ``spectrum`` (linearized eigenpair at the computed state),
``sweep`` (fixed-stepsize runs over an alpha list).  Output is JSON, or CSV
for a ``run`` trace, rendered deterministically so identical seeds give
byte-identical files.

Exit codes: 0 success, 1 usage error, 2 non-convergence, 3 check failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .flows import (
    ConvergenceReport,
    FlowBreakdownError,
    RunConfig,
    StepPolicy,
    load_function,
    run,
)
from .greens import GreenSolveError
from .grid import GridFunction, MetricKind, build_grid
from .problem import Problem, harmonic_potential, well_potential, zero_potential
from .spectral import SpectralReport, linearized_operator, lowest_two_eigen
from .verify import CheckResult, check_suite, failures


class UsageError(ValueError):
    """Bad flags or inconsistent configuration; maps to exit code 1."""


class SolveError(RuntimeError):
    """A solver stopped short of its goal; maps to exit code 2."""


_SCHEMES = {"h1": MetricKind.H1, "a0": MetricKind.A0, "au": MetricKind.AU}

_DEFAULTS = {
    "dim": 1,
    "n": "127",
    "bounds": "0,1",
    "potential": "zero",
    "beta": 0.0,
    "scheme": "h1",
    "tol": 1e-9,
    "max_iter": 50000,
    "seed": 0,
    "init": "default_bump",
    "init_path": None,
    "mode": "backtracking",
    "alpha0": 0.5,
    "shrink": 0.5,
    "alpha_floor": 1e-8,
    "output": None,
    "format": "json",
    "trials": 20,
    "alphas": None,
    "cross_scheme": False,
}


@dataclass(frozen=True)
class CliConfig:
    """Fully resolved invocation: command plus every knob with its default."""

    command: str
    dim: int
    n: tuple[int, ...]
    bounds: tuple[tuple[float, float], ...]
    potential: str
    beta: float
    scheme: str
    tol: float
    max_iter: int
    seed: int
    init: str
    init_path: str | None
    mode: str
    alpha0: float
    shrink: float
    alpha_floor: float
    output: str | None
    format: str
    trials: int
    alphas: tuple[float, ...] | None
    cross_scheme: bool


class _Parser(argparse.ArgumentParser):
    """argparse would sys.exit(2) on bad flags; map them to exit code 1."""

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gpflow",
        description="Ground states of the Gross-Pitaevskii equation by projected Sobolev gradient flows.",
    )
    parser.add_argument("--version", action="version", version=f"gpflow {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add_common(p):
        p.add_argument("--config", help="JSON file with default option values")
        p.add_argument("--dim", type=int, help="spatial dimension (1-3)")
        p.add_argument("--n", help="interior nodes per axis, e.g. 127 or 63,63")
        p.add_argument("--bounds", help="box interval per axis, e.g. 0,1")
        p.add_argument(
            "--potential",
            help="zero | harmonic:<omega> | well:<depth>:<lo>:<hi> | file:<path>",
        )
        p.add_argument("--beta", type=float, help="interaction strength (>= 0)")
        p.add_argument("--scheme", help="h1 | a0 | au")
        p.add_argument("--tol", type=float, help="residual stopping tolerance")
        p.add_argument("--max-iter", dest="max_iter", type=int)
        p.add_argument("--seed", type=int, help="single seed for all randomness")
        p.add_argument("--init", help="default_bump | random | file")
        p.add_argument("--init-path", dest="init_path")
        p.add_argument("--mode", help="backtracking | fixed stepsize policy")
        p.add_argument("--alpha0", type=float, help="initial / fixed stepsize")
        p.add_argument("--shrink", type=float, help="backtracking shrink factor")
        p.add_argument("--alpha-floor", dest="alpha_floor", type=float)
        p.add_argument("--output", "-o", help="output path (default: stdout)")
        p.add_argument("--format", help="json | csv (csv: run only)")

    p_run = sub.add_parser("run", help="one gradient-flow run")
    add_common(p_run)
    p_verify = sub.add_parser("verify", help="run a scheme, then the invariant suite")
    add_common(p_verify)
    p_verify.add_argument("--trials", type=int, help="random trials per sampled check")
    p_verify.add_argument(
        "--cross-scheme",
        dest="cross_scheme",
        action="store_const",
        const=True,
        help="also run all three schemes and check they agree",
    )
    p_spectrum = sub.add_parser("spectrum", help="linearized eigenpair at the computed state")
    add_common(p_spectrum)
    p_sweep = sub.add_parser("sweep", help="fixed-stepsize runs over an alpha list")
    add_common(p_sweep)
    p_sweep.add_argument("--alphas", help="comma-separated stepsizes, e.g. 0.05,0.1,0.2")
    return parser


def parse_config(argv: list[str]) -> CliConfig:
    """Resolve flags over optional config-file values over built-in defaults."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.command is None:
        raise UsageError("a command is required: run, verify, spectrum or sweep")

    file_values = {}
    if getattr(ns, "config", None):
        try:
            with open(ns.config) as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {ns.config}: {exc}")
        if not isinstance(file_values, dict):
            raise UsageError(f"config file {ns.config} must hold a JSON object")
        unknown = set(file_values) - set(_DEFAULTS)
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")

    def pick(key, convert, **options):
        """The flag's value, else the file's, else the default, converted.

        A file value is converted, and so type-checked, even when a flag
        overrides it: a bad value in the file is an error either way.
        """
        flag = "--" + key.replace("_", "-")
        if key in file_values:
            from_file = convert(file_values[key], flag, **options)
        value = getattr(ns, key, None)
        if value is not None:
            return convert(value, flag, **options)
        if key in file_values:
            return from_file
        return convert(_DEFAULTS[key], flag, **options)

    dim = pick("dim", _int)
    if dim not in (1, 2, 3):
        raise UsageError(f"--dim must be 1, 2 or 3, got {dim}")
    n = pick("n", _parse_int_list)
    if len(n) == 1:
        n = n * dim
    if len(n) != dim:
        raise UsageError(f"--n gives {len(n)} axes but --dim is {dim}")
    if ns.command in ("verify", "spectrum") and math.prod(n) < 3:
        raise UsageError(
            f"{ns.command} needs at least 3 interior unknowns for its eigensolve, "
            f"got {math.prod(n)}"
        )
    bounds = _parse_bounds(pick("bounds", _parse_float_list), dim)
    scheme = pick("scheme", _str).lower()
    if scheme not in _SCHEMES:
        raise UsageError(f"--scheme must be one of h1, a0, au, got {scheme!r}")
    fmt = pick("format", _str).lower()
    if fmt not in ("json", "csv"):
        raise UsageError(f"--format must be json or csv, got {fmt!r}")
    if fmt == "csv" and ns.command != "run":
        raise UsageError(f"--format csv is only available for run, not {ns.command}")
    mode = pick("mode", _str)
    if mode not in ("backtracking", "fixed"):
        raise UsageError(f"--mode must be backtracking or fixed, got {mode!r}")
    alphas = pick("alphas", _alphas)
    if ns.command == "sweep" and not alphas:
        raise UsageError("sweep requires --alphas, e.g. --alphas 0.05,0.1,0.2")
    trials = pick("trials", _int)
    if trials < 0:
        raise UsageError(f"--trials must be >= 0, got {trials}")
    seed = pick("seed", _int)
    if seed < 0:
        raise UsageError(f"--seed must be >= 0, got {seed}")

    return CliConfig(
        command=ns.command,
        dim=dim,
        n=tuple(n),
        bounds=bounds,
        potential=pick("potential", _str),
        beta=pick("beta", _finite),
        scheme=scheme,
        tol=pick("tol", _finite),
        max_iter=pick("max_iter", _int),
        seed=seed,
        init=pick("init", _str),
        init_path=pick("init_path", _str, optional=True),
        mode=mode,
        alpha0=pick("alpha0", _finite),
        shrink=pick("shrink", _finite),
        alpha_floor=pick("alpha_floor", _finite),
        output=pick("output", _str, optional=True),
        format=fmt,
        trials=trials,
        alphas=alphas,
        cross_scheme=pick("cross_scheme", _bool),
    )


def _finite(value, flag):
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise UsageError(f"{flag} expects a number, got {value!r}")
    if not math.isfinite(number):
        raise UsageError(f"{flag} must be finite, got {value!r}")
    return number


def _int(value, flag):
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f"{flag} expects an integer, got {value!r}")
    if not isinstance(value, str) and number != value:  # 2.5 would truncate
        raise UsageError(f"{flag} expects an integer, got {value!r}")
    return number


def _bool(value, flag):
    if not isinstance(value, bool):  # "false" would be truthy
        raise UsageError(f"{flag} expects true or false, got {value!r}")
    return value


def _str(value, flag, optional=False):
    if value is None and optional:
        return None
    if not isinstance(value, str):
        raise UsageError(f"{flag} expects a string, got {value!r}")
    return value


def _alphas(value, flag):
    if value is None:
        return None
    if isinstance(value, str):
        return tuple(_parse_float_list(value, flag))
    if not isinstance(value, list):
        raise UsageError(f"{flag} expects a list of numbers, got {value!r}")
    return tuple(_finite(a, flag) for a in value)


def _parse_int_list(value, flag):
    text = str(value)
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated integers, got {text!r}")


def _parse_float_list(value, flag):
    values = [_finite(part, flag) for part in str(value).split(",") if part.strip()]
    if not values:
        raise UsageError(f"{flag} expects at least one value")
    return values


def _parse_bounds(parts, dim):
    if len(parts) == 2:
        interval = (parts[0], parts[1])
        return tuple(interval for _ in range(dim))
    if len(parts) == 2 * dim:
        return tuple((parts[2 * k], parts[2 * k + 1]) for k in range(dim))
    raise UsageError(
        f"--bounds expects 'a,b' (shared) or one pair per axis, got {len(parts)} values"
    )


def build_potential(cfg: CliConfig, grid) -> GridFunction:
    """Resolve a potential preset string into node values."""
    spec = cfg.potential
    if spec == "zero":
        return zero_potential(grid)
    if spec.startswith("harmonic:"):
        try:
            omega = float(spec.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"malformed harmonic preset {spec!r}; expected harmonic:<omega>")
        return harmonic_potential(grid, omega)
    if spec.startswith("well:"):
        parts = spec.split(":")
        if len(parts) != 4:
            raise UsageError(f"malformed well preset {spec!r}; expected well:<depth>:<lo>:<hi>")
        try:
            depth, lo, hi = (float(p) for p in parts[1:])
        except ValueError:
            raise UsageError(f"malformed well preset {spec!r}; numbers expected")
        return well_potential(grid, depth, lo, hi)
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        try:
            values = np.loadtxt(path, delimiter=",").ravel()
        except OSError as exc:
            raise UsageError(f"cannot read potential file {path}: {exc}")
        return GridFunction(grid, values)
    raise UsageError(
        f"unknown potential {spec!r}; use zero, harmonic:<omega>, well:<depth>:<lo>:<hi> or file:<path>"
    )


def build_problem(cfg: CliConfig) -> Problem:
    try:
        grid = build_grid(cfg.dim, cfg.n, cfg.bounds)
        problem = Problem(grid, build_potential(cfg, grid), cfg.beta)
    except ValueError as exc:
        raise UsageError(str(exc))
    if cfg.init == "file" and cfg.init_path:
        # read once up front so a malformed start file is a usage error
        try:
            load_function(problem, cfg.init_path)
        except ValueError as exc:
            raise UsageError(f"cannot use start file {cfg.init_path}: {exc}")
    return problem


def run_config(cfg: CliConfig, alpha0: float | None = None, mode: str | None = None) -> RunConfig:
    try:
        policy = StepPolicy(
            mode=mode or cfg.mode,
            alpha0=alpha0 if alpha0 is not None else cfg.alpha0,
            shrink=cfg.shrink,
            alpha_floor=cfg.alpha_floor,
        )
        return RunConfig(
            scheme=_SCHEMES[cfg.scheme],
            policy=policy,
            tol=cfg.tol,
            max_iter=cfg.max_iter,
            seed=cfg.seed,
            init=cfg.init,
            init_path=cfg.init_path,
        )
    except ValueError as exc:
        raise UsageError(str(exc))


# --- serialization -----------------------------------------------------------


def _meta(cfg: CliConfig) -> dict:
    return {
        "scheme": cfg.scheme,
        "dim": cfg.dim,
        "n": list(cfg.n),
        "beta": cfg.beta,
        "potential": cfg.potential,
        "seed": cfg.seed,
        "version": __version__,
    }


def report_payload(cfg: CliConfig, report: ConvergenceReport) -> dict:
    rate = None
    if report.rate is not None:
        rate = {"rho": report.rate.rho, "r_squared": report.rate.r_squared}
    return {
        "meta": _meta(cfg),
        "iterations": [
            {
                "n": r.n,
                "energy": r.energy,
                "residual": r.residual,
                "gamma": r.gamma,
                "alpha": r.alpha,
                "decrease": r.decrease,
            }
            for r in report.records
        ],
        "final": {
            "status": report.status,
            "lambda": report.final_record.gamma,
            "rate": rate,
        },
    }


def checks_payload(cfg: CliConfig, results: list[CheckResult]) -> dict:
    def jsonable(x):
        return None if isinstance(x, float) and math.isnan(x) else x

    return {
        "meta": _meta(cfg),
        "checks": [
            {
                "name": r.name,
                "passed": r.passed,
                "skipped": r.skipped,
                "margin": jsonable(r.margin),
                "trials": r.trials,
                "detail": r.detail,
            }
            for r in results
        ],
    }


def spectral_payload(cfg: CliConfig, report: ConvergenceReport, spectral: SpectralReport) -> dict:
    return {
        "meta": _meta(cfg),
        "spectrum": {
            "lambda0": spectral.lambda0,
            "lambda1": spectral.lambda1,
            "gap_factor": spectral.gap_factor,
            "iterations": spectral.iterations,
            "residuals": spectral.residuals,
            "tol": spectral.tol,
        },
        "final": {"status": report.status, "lambda": report.final_record.gamma},
    }


def render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def render_csv(report: ConvergenceReport) -> str:
    lines = ["n,energy,residual,gamma,alpha,decrease"]
    for r in report.records:
        lines.append(
            "%d,%.17g,%.17g,%.17g,%.17g,%.17g"
            % (r.n, r.energy, r.residual, r.gamma, r.alpha, r.decrease)
        )
    return "\n".join(lines) + "\n"


def write_output(text: str, path: str | None) -> None:
    """Write rendered output; None path means stdout."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# --- commands ----------------------------------------------------------------


def cmd_run(cfg: CliConfig) -> int:
    report = run(build_problem(cfg), run_config(cfg))
    if cfg.format == "csv":
        write_output(render_csv(report), cfg.output)
    else:
        write_output(render_json(report_payload(cfg, report)), cfg.output)
    return 0 if report.status == "converged" else 2


def _spectral_at_final(problem, report):
    op = linearized_operator(problem, report.final)
    try:
        return lowest_two_eigen(op)
    except RuntimeError as exc:  # degenerate eigengap, or an unconverged eigenpair
        raise SolveError(str(exc)) from exc


def cmd_verify(cfg: CliConfig) -> int:
    problem = build_problem(cfg)
    report = run(problem, run_config(cfg))
    if report.status != "converged":
        write_output(render_json(report_payload(cfg, report)), cfg.output)
        return 2
    spectral = _spectral_at_final(problem, report)
    results = check_suite(problem, report, spectral, trials=cfg.trials, seed=cfg.seed)
    if cfg.cross_scheme:
        from .verify import cross_scheme_agreement

        results = results + [cross_scheme_agreement(problem, run_config(cfg))]
    write_output(render_json(checks_payload(cfg, results)), cfg.output)
    return 3 if failures(results) else 0


def cmd_spectrum(cfg: CliConfig) -> int:
    problem = build_problem(cfg)
    report = run(problem, run_config(cfg))
    if report.status != "converged":
        write_output(render_json(report_payload(cfg, report)), cfg.output)
        return 2
    spectral = _spectral_at_final(problem, report)
    write_output(render_json(spectral_payload(cfg, report, spectral)), cfg.output)
    return 0


def cmd_sweep(cfg: CliConfig) -> int:
    """One entry per alpha; a run that breaks down keeps its entry, with status
    "breakdown" and null results, and the first breakdown is reported."""
    problem = build_problem(cfg)
    entries, breakdown = [], None
    for alpha in cfg.alphas:
        entry = {"alpha": alpha, "status": "breakdown", "lambda": None, "iterations": None,
                 "rho": None, "r_squared": None}
        try:
            report = run(problem, run_config(cfg, alpha0=alpha, mode="fixed"))
        except FlowBreakdownError as exc:
            breakdown = breakdown or exc
        else:
            entry["status"] = report.status
            entry["lambda"] = report.final_record.gamma
            entry["iterations"] = len(report.records)
            if report.rate is not None:
                entry["rho"] = report.rate.rho
                entry["r_squared"] = report.rate.r_squared
        entries.append(entry)
    write_output(render_json({"meta": _meta(cfg), "sweep": entries}), cfg.output)
    if breakdown is not None:
        _print_error(breakdown)
    return 0 if all(e["status"] == "converged" for e in entries) else 2


_COMMANDS = {"run": cmd_run, "verify": cmd_verify, "spectrum": cmd_spectrum, "sweep": cmd_sweep}


def _print_error(exc: Exception) -> None:
    # one line, whatever the message: numpy's loadtxt errors span two
    print("error: " + " ".join(str(exc).split()), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        cfg = parse_config(argv)
        return _COMMANDS[cfg.command](cfg)
    except (UsageError, OSError) as exc:
        _print_error(exc)
        return 1
    # GreenSolveError: CG hit its cap; FlowBreakdownError: a step left the float range
    except (SolveError, GreenSolveError, FlowBreakdownError) as exc:
        _print_error(exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
