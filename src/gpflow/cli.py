"""Command-line front end: config parsing, presets, runs, and serialization.

Subcommands: ``run`` (one gradient-flow run), ``verify`` (run plus the full
invariant suite), ``spectrum`` (linearized eigenpair at the computed state),
``sweep`` (fixed-stepsize runs over an alpha list).  Output is JSON, or CSV
for a ``run`` trace, rendered deterministically so identical seeds give
byte-identical files.

Each setting is one row of ``_OPTIONS``: its default, the converter that
checks a value, its help text and the commands that take it as a flag.  The
flags, the keys of a ``--config`` JSON file, ``_DEFAULTS`` and ``CliConfig``
derive from that table, and the run settings' defaults are ``RunConfig``'s
own.  A flag wins over the file, the file over the default.

Exit codes: 0 success, 1 usage error, 2 non-convergence, 3 check failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings
from collections.abc import Callable
from dataclasses import make_dataclass, replace
from typing import NamedTuple

import numpy as np

from . import __version__
from .flows import (
    ConvergenceReport,
    FlowBreakdownError,
    RunConfig,
    retract,
    run,
)
from .greens import GreenSolveError
from .grid import GridFunction, MetricKind, build_grid
from .problem import Problem, harmonic_potential, well_potential, zero_potential
from .spectral import EigenSolveError, SpectralReport, linearized_operator, lowest_two_eigen
from .verify import CheckResult, check_suite, cross_scheme_agreement, failures


class UsageError(ValueError):
    """Bad flags or inconsistent configuration; maps to exit code 1."""


# caps that keep a call bounded: draws per sampled check, interior unknowns,
# prod(n), checked before anything is allocated (32 MiB per vector), and a
# verify's work, trials * prod(n): each cap bounds one count, not their
# product (a 1,000-trial verify of a 63 x 63 well takes 71 s), and
# MAX_VERIFY_WORK admits 264 trials at 63 x 63
MAX_TRIALS = 1000
MAX_UNKNOWNS = 2**22
MAX_VERIFY_WORK = 2**20


# --- converters: (value, flag) -> value, for flag strings and JSON values alike


def _finite(value, flag):
    if isinstance(value, bool):  # float(True) is 1.0
        raise UsageError(f"{flag} expects a number, got {value!r}")
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
    # 2.5 would truncate, and int(True) is 1
    if isinstance(value, bool) or (not isinstance(value, str) and number != value):
        raise UsageError(f"{flag} expects an integer, got {value!r}")
    return number


def _natural(value, flag, least=0):
    number = _int(value, flag)
    if number < least:  # named as written: int(-1e300) has 301 digits
        raise UsageError(f"{flag} must be >= {least}, got {value}")
    return number


def _trials(value, flag):
    # the value is not echoed: a flag's huge count runs to hundreds of digits
    number = _natural(value, flag)
    if number > MAX_TRIALS:
        raise UsageError(f"{flag} must be at most {MAX_TRIALS}")
    return number


def _bool(value, flag):
    if not isinstance(value, bool):  # "false" would be truthy
        raise UsageError(f"{flag} expects true or false, got {value!r}")
    return value


def _str(value, flag):
    if not isinstance(value, str):
        raise UsageError(f"{flag} expects a string, got {value!r}")
    return value


def _lower(value, flag):
    return _str(value, flag).lower()


def _one_of(*choices, convert=_str):
    """A converter that accepts ``convert``'s result when it is one of ``choices``."""
    *head, last = choices
    wording = f"{', '.join(map(str, head))} or {last}"

    def one_of(value, flag):
        converted = convert(value, flag)
        if converted not in choices:
            # a file's number as written: int(1e300) has 301 digits
            shown = converted if isinstance(value, str) else value
            raise UsageError(f"{flag} must be {wording}, got {shown!r}")
        return converted

    return one_of


def _optional(convert):
    """``convert``, passing None through."""
    return lambda value, flag: None if value is None else convert(value, flag)


def _list_of(convert):
    """A converter of a comma-separated string (blank parts skipped), a JSON
    list or one JSON value to a tuple of at least one ``convert``ed entry."""

    def list_of(value, flag):
        if isinstance(value, str):
            value = [part for part in value.split(",") if part.strip()]
        elif not isinstance(value, list):
            value = [value]
        if not value:
            raise UsageError(f"{flag} expects at least one value")
        return tuple(convert(entry, flag) for entry in value)

    return list_of


# --- the settings ------------------------------------------------------------

_SUBCOMMANDS = {
    "run": "one gradient-flow run",
    "verify": "run a scheme, then the invariant suite",
    "spectrum": "linearized eigenpair at the computed state",
    "sweep": "fixed-stepsize runs over an alpha list",
}


class _Option(NamedTuple):
    """One setting: its default, the converter that checks a flag or file
    value, its ``--help`` text, and the commands that take it as a flag."""

    default: object
    convert: Callable[[object, str], object]
    help: str | None
    commands: tuple[str, ...] = tuple(_SUBCOMMANDS)


_RUN = RunConfig()
_SCHEMES = tuple(kind.value for kind in MetricKind)

# one row per setting, in --help order; the name is the config-file key, and
# with dashes for underscores the flag
_OPTIONS = {
    "dim": _Option(1, _one_of(1, 2, 3, convert=_int), "spatial dimension (1-3)"),
    "n": _Option("127", _list_of(lambda value, flag: _natural(value, flag, 1)),
                 "interior nodes per axis, e.g. 127 or 63,63"),
    "bounds": _Option("0,1", _list_of(_finite), "box interval per axis, e.g. 0,1"),
    "potential": _Option("zero", _str,
                         "zero | harmonic:<omega> | well:<depth>:<lo>:<hi> | file:<path>"),
    "beta": _Option(0.0, _finite, "interaction strength (>= 0)"),
    "scheme": _Option(_RUN.scheme.value, _one_of(*_SCHEMES, convert=_lower), " | ".join(_SCHEMES)),
    "tol": _Option(_RUN.tol, _finite, "residual stopping tolerance"),
    "max_iter": _Option(_RUN.max_iter, _int, None),
    "seed": _Option(_RUN.seed, _natural, "single seed for all randomness"),
    "init": _Option(_RUN.init, _str, "default_bump | random | file"),
    "init_path": _Option(None, _optional(_str), None),
    "mode": _Option(_RUN.mode, _one_of("backtracking", "fixed"), "backtracking | fixed stepsize policy"),
    "alpha0": _Option(_RUN.alpha0, _finite, "initial / fixed stepsize"),
    "shrink": _Option(_RUN.shrink, _finite, "backtracking shrink factor"),
    "alpha_floor": _Option(_RUN.alpha_floor, _finite, None),
    "output": _Option(None, _optional(_str), "output path (default: stdout)"),
    "format": _Option("json", _one_of("json", "csv", convert=_lower), "json | csv (csv: run only)"),
    "trials": _Option(20, _trials, "random trials per sampled check", ("verify",)),
    "cross_scheme": _Option(False, _bool, "also run all three schemes and check they agree",
                            ("verify",)),
    "alphas": _Option(None, _optional(_list_of(_finite)),
                      "comma-separated stepsizes, e.g. 0.05,0.1,0.2", ("sweep",)),
}

_DEFAULTS = {name: option.default for name, option in _OPTIONS.items()}

CliConfig = make_dataclass("CliConfig", ["command", *_OPTIONS], frozen=True, namespace={
    "__doc__": "Fully resolved invocation: command plus every knob with its default.",
    "__module__": __name__,
})


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


class _Parser(argparse.ArgumentParser):
    """argparse would sys.exit(2) on bad flags; map them to exit code 1.  A
    token that starts like a negative number float() reads ('-' then a
    digit, '.digit', 'inf' or 'nan', in any case: -1,1, -1e5, -inf) is a
    value, which argparse alone reads as a flag unless it is a plain number."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gpflow",
        description="Ground states of the Gross-Pitaevskii equation by projected Sobolev gradient flows.",
    )
    parser.add_argument("--version", action="version", version=f"gpflow {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for command, summary in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="JSON file with default option values")
        for name, option in _OPTIONS.items():
            if command not in option.commands:
                continue
            flags = [_flag(name), "-o"] if name == "output" else [_flag(name)]
            # a boolean flag takes no value and sets its setting
            action = {"action": "store_const", "const": True} if option.convert is _bool else {}
            p.add_argument(*flags, help=option.help, **action)
    return parser


def parse_config(argv: list[str] | None) -> CliConfig:
    """Resolve flags over optional config-file values over built-in defaults.

    A file value is converted, and so type-checked, even when a flag
    overrides it: a bad value in the file is an error either way.
    """
    ns = _build_parser().parse_args(argv)
    if ns.command is None:
        raise UsageError("a command is required: run, verify, spectrum or sweep")

    file_values = {}
    if ns.config:
        try:
            with open(ns.config) as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {ns.config}: {exc}")
        if not isinstance(file_values, dict):
            raise UsageError(f"config file {ns.config} must hold a JSON object")
        unknown = set(file_values) - set(_OPTIONS)
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")

    values = {}
    for name, option in _OPTIONS.items():
        flag = _flag(name)
        values[name] = option.convert(file_values.get(name, option.default), flag)
        given = getattr(ns, name, None)  # None: not given, or not a flag of this command
        if given is not None:
            values[name] = option.convert(given, flag)

    # the rules that span settings; one n or one interval serves every axis
    dim, n, bounds = values["dim"], values["n"], values["bounds"]
    if len(n) == 1:
        n = values["n"] = n * dim
    if len(n) != dim:
        raise UsageError(f"--n gives {len(n)} axes but --dim is {dim}")
    if math.prod(n) > MAX_UNKNOWNS:
        raise UsageError(f"--n gives more than {MAX_UNKNOWNS} interior unknowns")
    if ns.command == "verify" and values["trials"] * math.prod(n) > MAX_VERIFY_WORK:
        raise UsageError(
            f"--trials {values['trials']} on {math.prod(n)} interior unknowns exceeds the "
            f"verify budget of {MAX_VERIFY_WORK} trial-unknowns"
        )
    if ns.command in ("verify", "spectrum") and math.prod(n) < 3:
        raise UsageError(
            f"{ns.command} needs at least 3 interior unknowns for its eigensolve, "
            f"got {math.prod(n)}"
        )
    if len(bounds) == 2:
        bounds = bounds * dim
    if len(bounds) != 2 * dim:
        raise UsageError(
            f"--bounds expects 'a,b' (shared) or one pair per axis, got {len(bounds)} values"
        )
    values["bounds"] = tuple(zip(bounds[::2], bounds[1::2]))
    if values["format"] == "csv" and ns.command != "run":
        raise UsageError(f"--format csv is only available for run, not {ns.command}")
    if ns.command == "sweep" and not values["alphas"]:
        raise UsageError("sweep requires --alphas, e.g. --alphas 0.05,0.1,0.2")
    return CliConfig(command=ns.command, **values)


def read_node_values(path: str) -> np.ndarray:
    """A node-value file's numbers (lexicographic order), flat.  An empty
    file gives no values, which the grid's size check rejects, without
    numpy's warning on stderr."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(path, delimiter=",").ravel()


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
            values = read_node_values(path)
        except OSError as exc:
            raise UsageError(f"cannot read potential file {path}: {exc}")
        return GridFunction(grid, values)
    raise UsageError(
        f"unknown potential {spec!r}; use zero, harmonic:<omega>, well:<depth>:<lo>:<hi> or file:<path>"
    )


def build_problem(cfg: CliConfig) -> tuple[Problem, GridFunction | None]:
    """The problem, and the start file's values, read once (a malformed file is
    a usage error) and unretracted: ``run`` retracts its ``u0`` itself."""
    try:
        grid = build_grid(cfg.dim, cfg.n, cfg.bounds)
        problem = Problem(grid, build_potential(cfg, grid), cfg.beta)
    except ValueError as exc:
        raise UsageError(str(exc))
    u0 = None
    if cfg.init == "file" and cfg.init_path:
        try:
            u0 = GridFunction(grid, read_node_values(cfg.init_path))
            retract(u0)  # a zero start has no direction
        except ValueError as exc:
            raise UsageError(f"cannot use start file {cfg.init_path}: {exc}")
    return problem, u0


def run_config(cfg: CliConfig) -> RunConfig:
    """A file start runs from ``build_problem``'s u0 at RunConfig's default
    init; --init and --init-path are checked after RunConfig's settings."""
    starts = ("default_bump", "random")
    try:
        config = RunConfig(scheme=MetricKind(cfg.scheme), mode=cfg.mode, alpha0=cfg.alpha0,
                           shrink=cfg.shrink, alpha_floor=cfg.alpha_floor, tol=cfg.tol,
                           max_iter=cfg.max_iter, seed=cfg.seed,
                           init=cfg.init if cfg.init in starts else _RUN.init)
    except ValueError as exc:
        raise UsageError(str(exc))
    if cfg.init not in (*starts, "file"):
        raise UsageError("init must be 'default_bump', 'random' or 'file'")
    if cfg.init == "file" and not cfg.init_path:
        raise UsageError("init 'file' requires init_path")
    return config


# --- serialization -----------------------------------------------------------

# in order: the IterationRecord fields of run's JSON iterations and CSV trace,
# the CheckResult fields of a check row, the SpectralReport fields of spectrum
_COLUMNS = ("n", "energy", "residual", "gamma", "alpha", "decrease")
_CHECK_FIELDS = ("name", "passed", "skipped", "margin", "trials", "detail")
_SPECTRUM_FIELDS = ("lambda0", "lambda1", "gap_factor", "iterations", "residuals", "tol")


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
        "iterations": [{c: getattr(r, c) for c in _COLUMNS} for r in report.records],
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
        "checks": [{f: jsonable(getattr(r, f)) for f in _CHECK_FIELDS} for r in results],
    }


def spectral_payload(cfg: CliConfig, report: ConvergenceReport, spectral: SpectralReport) -> dict:
    return {
        "meta": _meta(cfg),
        "spectrum": {f: getattr(spectral, f) for f in _SPECTRUM_FIELDS},
        "final": {"status": report.status, "lambda": report.final_record.gamma},
    }


def render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def render_csv(report: ConvergenceReport) -> str:
    # 17 significant digits keep every float's bits, and print the step
    # number n as %d would
    lines = [",".join(_COLUMNS)]
    lines += [",".join("%.17g" % getattr(r, c) for c in _COLUMNS) for r in report.records]
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
    problem, u0 = build_problem(cfg)
    report = run(problem, run_config(cfg), u0=u0)
    if cfg.format == "csv":
        write_output(render_csv(report), cfg.output)
    else:
        write_output(render_json(report_payload(cfg, report)), cfg.output)
    return 0 if report.status == "converged" else 2


def _solve_to_spectrum(cfg: CliConfig, problem: Problem, u0: GridFunction | None):
    """The converged run from u0 and the spectrum at its final state; None
    once the report of a run that did not converge is written."""
    report = run(problem, run_config(cfg), u0=u0)
    if report.status != "converged":
        write_output(render_json(report_payload(cfg, report)), cfg.output)
        return None
    return report, lowest_two_eigen(linearized_operator(problem, report.final))


def cmd_verify(cfg: CliConfig) -> int:
    problem, u0 = build_problem(cfg)
    solved = _solve_to_spectrum(cfg, problem, u0)
    if solved is None:
        return 2
    report, spectral = solved
    results = check_suite(problem, report, spectral, trials=cfg.trials, seed=cfg.seed)
    if cfg.cross_scheme:  # the other two schemes run from the same config and start
        reports = (report if scheme is report.config.scheme
                   else run(problem, replace(report.config, scheme=scheme), u0=u0)
                   for scheme in MetricKind)
        results = results + [cross_scheme_agreement(problem, reports)]
    write_output(render_json(checks_payload(cfg, results)), cfg.output)
    return 3 if failures(results) else 0


def cmd_spectrum(cfg: CliConfig) -> int:
    solved = _solve_to_spectrum(cfg, *build_problem(cfg))
    if solved is None:
        return 2
    report, spectral = solved
    write_output(render_json(spectral_payload(cfg, report, spectral)), cfg.output)
    return 0


def cmd_sweep(cfg: CliConfig) -> int:
    """One entry per alpha, every alpha checked before the first run; a run that
    breaks down or whose Green's solve fails keeps its entry, with status
    "breakdown" and null results, and the first such error is reported."""
    problem, u0 = build_problem(cfg)
    configs = [run_config(replace(cfg, mode="fixed", alpha0=alpha)) for alpha in cfg.alphas]
    entries, breakdown = [], None
    for alpha, config in zip(cfg.alphas, configs):
        entry = {"alpha": alpha, "status": "breakdown", "lambda": None, "iterations": None,
                 "rho": None, "r_squared": None}
        try:
            report = run(problem, config, u0=u0)
        except (FlowBreakdownError, GreenSolveError) as exc:
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
    try:
        cfg = parse_config(argv)
        return _COMMANDS[cfg.command](cfg)
    except (UsageError, OSError) as exc:
        _print_error(exc)
        return 1
    # CG hit its cap, a step left the float range, or the eigensolve found
    # no certified pair (an unconverged pair, a breakdown, a degenerate gap)
    except (GreenSolveError, FlowBreakdownError, EigenSolveError) as exc:
        _print_error(exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
