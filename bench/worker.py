"""One fresh benchmark worker process: set up, run one pass, check, report.

Started by run.py as `python3 bench/worker.py --workload W --seed S --mode M`
with `src/` of the checkout first on the import path.  Modes:

- `setup`: import gpflow and build every Problem of the workload, then stop.
- `pass`: set up, then run the workload's operation list once, untraced.
- `traced`: the same pass with the span recorder installed.

The last stdout line is one JSON object.  Operation outputs are checked
against tolerances and against `baseline.json` (values, never bytes), so a
wrong answer is a failed operation and its time is not counted.  `setup_s`,
`wall_s` and the per-operation times are scaled to the reference speed (see
SpeedClock); `setup_raw_s` and `wall_raw_s` are the unscaled times.  `wall_s`
sums the program calls only, not the oracles or the reference kernel.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import sys
import time

# numpy and gpflow are imported only after the set-up clock starts in main().

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# acceptance-suite benchmark set (tests/test_acceptance.py)
BETAS = (0.0, 10.0, 100.0)
POTENTIALS = ("zero", "harmonic:20", "well:1000:0.25:0.75")
GRIDS = (("1d-255", 1, 255), ("2d-63", 2, 63))
SCHEMES = ("h1", "a0", "au")
AGREE_TOL = 1e-6  # criterion 3: gamma and sign-normalized L2 state
BASELINE_RTOL = 1e-6
CLOSED_FORM_RTOL = 1e-8  # criterion 1

CLI_MIX = (
    ("verify-1d", "verify", ["verify", "--n", "255", "--beta", "100", "--trials", "5"], True),
    ("verify-2d-harmonic", "verify",
     ["verify", "--dim", "2", "--n", "63", "--beta", "10", "--potential", "harmonic:20",
      "--trials", "5"], True),
    ("verify-2d-well", "verify",
     ["verify", "--dim", "2", "--n", "63", "--beta", "100", "--potential",
      "well:1000:0.25:0.75", "--trials", "5"], True),
    ("spectrum-2d", "spectrum",
     ["spectrum", "--dim", "2", "--n", "63", "--beta", "100", "--potential", "harmonic:20"],
     False),
    ("sweep-2d", "sweep",
     ["sweep", "--dim", "2", "--n", "31", "--beta", "10", "--alphas", "0.05,0.1,0.2,0.4"],
     False),
    ("run-1d-random", "run",
     ["run", "--n", "127", "--beta", "10", "--potential", "harmonic:20", "--init", "random",
      "--format", "csv"], True),
)


class Fail(Exception):
    """An operation's output failed its oracle."""


def _require(cond, message):
    if not cond:
        raise Fail(message)


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(1.0, abs(b))


def load_baseline():
    with open(os.path.join(HERE, "baseline.json")) as fh:
        return json.load(fh)


# --- problems ----------------------------------------------------------------


def make_problem(g, dim, n, potential, beta):
    grid = g.build_grid(dim, [n] * dim, [(0.0, 1.0)] * dim)
    if potential == "zero":
        V = g.zero_potential(grid)
    elif potential.startswith("harmonic:"):
        V = g.harmonic_potential(grid, float(potential.split(":")[1]))
    else:
        _, depth, lo, hi = potential.split(":")
        V = g.well_potential(grid, float(depth), float(lo), float(hi))
    return g.Problem(grid, V, beta)


def build_problems(g, workload):
    if workload == "bench18":
        out = []
        for beta in BETAS:
            for potential in POTENTIALS:
                for key, dim, n in GRIDS:
                    label = f"{key}/{potential}/beta{beta:g}"
                    out.append((label, potential, make_problem(g, dim, n, potential, beta)))
        return out
    if workload == "solve-3d":
        return [("3d-19/harmonic:20/beta100", "harmonic:20",
                 make_problem(g, 3, 19, "harmonic:20", 100.0))]
    return []


# --- oracles (numpy only, so a traced pass records no oracle work) ------------


def closed_form_lambda0(grid):
    """Smallest eigenvalue of the discrete Dirichlet -Laplacian."""
    return sum(
        (2.0 / h**2) * (1.0 - math.cos(math.pi * h / (b - a)))
        for (a, b), h in zip(grid.bounds, grid.h)
    )


def check_run(report, tol):
    _require(report.status == "converged", f"status {report.status}")
    records = report.records
    _require(records[-1].residual <= tol, f"residual {records[-1].residual:.3e}")
    for prev, nxt in zip(records, records[1:]):
        _require(prev.energy >= nxt.energy, f"energy rose at step {nxt.n}")
    for r in records:
        if r.alpha > 0.0 and r.sufficient_decrease:
            _require(r.decrease >= 0.5 * r.alpha * r.residual**2, f"decrease at {r.n}")


def signed_state(report):
    import numpy as np

    v = np.asarray(report.final.values)
    return -v if v.sum() < 0.0 else v


def check_agreement(problem, reports):
    import numpy as np

    w = problem.grid.cell_volume
    states = {s: signed_state(r) for s, r in reports.items()}
    gammas = {s: r.final_record.gamma for s, r in reports.items()}
    for i, a in enumerate(SCHEMES):
        for b in SCHEMES[i + 1:]:
            dist = math.sqrt(w) * float(np.linalg.norm(states[a] - states[b]))
            _require(dist <= AGREE_TOL, f"{a}/{b} L2 distance {dist:.2e}")
            dg = abs(gammas[a] - gammas[b])
            _require(dg <= AGREE_TOL, f"{a}/{b} gamma difference {dg:.2e}")


# --- workloads ----------------------------------------------------------------


class Op:
    __slots__ = ("name", "kind", "seconds", "scaled", "ok", "why")

    def __init__(self, name, kind):
        self.name, self.kind = name, kind
        self.seconds, self.scaled, self.ok, self.why = 0.0, 0.0, True, ""

    def fail(self, why):
        self.ok, self.why = False, self.why or why


# --- reference speed ------------------------------------------------------------
#
# A shared cloud host changes its CPU speed in phases lasting from about a
# second to minutes (on a 2-vCPU Xeon VM the same solve takes 0.76 s in one
# phase and 1.17 s in another).  A fixed reference kernel -- a Python
# loop, small-array numpy arithmetic and a sparse LU, the three kinds of work
# the solver does -- is timed right before and right after every operation
# and, from a SIGALRM handler, every SAMPLE_EVERY_S while it runs (not in a
# traced pass, whose span self times would include the handler).  The
# operation's time, less the handler's, is scaled by the mean reference speed
# over those samples.  The kernel calls nothing in gpflow, so a change to the
# program moves the scaled times as it moves the raw ones; raw times are
# reported too.

REFERENCE_S = 0.012  # the kernel's usual time on a 2-vCPU Xeon VM
BOUNDARY_SAMPLES = 3
SAMPLE_EVERY_S = 0.25


class SpeedClock:
    """Times operations and scales each to the reference speed."""

    def __init__(self, ticks=True):
        import numpy as np
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu

        n = 24
        d = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])
        self._np, self._splu = np, splu
        self._matrix = (sp.kron(sp.identity(n), d) + sp.kron(d, sp.identity(n))).tocsc()
        self._rhs = np.ones(n * n)
        self._x = np.linspace(0.0, 1.0, 4000)
        self._samples: list[float] | None = None  # set while an operation runs
        self._paused = 0.0
        self._tick_every = SAMPLE_EVERY_S if ticks else 0.0
        self.factors: list[float] = []
        self._kernel()  # first calls pay for lazy imports and cold caches
        self.last = self.factor()
        signal.signal(signal.SIGALRM, self._tick)

    def _kernel(self):
        start = time.perf_counter()
        s = 0
        for i in range(40000):
            s += i * i
        y = self._x
        for _ in range(200):
            y = self._np.sqrt(y * y + 1.0) - 0.5 * y
        for _ in range(3):
            self._splu(self._matrix).solve(self._rhs)
        return (time.perf_counter() - start) / REFERENCE_S

    def factor(self):
        """Slowness against the reference: median kernel time over REFERENCE_S."""
        f = sorted(self._kernel() for _ in range(BOUNDARY_SAMPLES))[BOUNDARY_SAMPLES // 2]
        self.factors.append(f)
        return f

    def _tick(self, signum, frame):
        if self._samples is None:
            return
        start = time.perf_counter()
        self._samples.append(self._kernel())
        self._paused += time.perf_counter() - start

    def timed(self, op, fn):
        self._samples, self._paused = [self.last], 0.0
        signal.setitimer(signal.ITIMER_REAL, self._tick_every, self._tick_every)
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a raised error is a failed operation
            op.fail(f"{type(exc).__name__}: {exc}")
            result = None
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            samples, self._samples = self._samples, None
        op.seconds = elapsed - self._paused
        self.last = self.factor()
        samples.append(self.last)
        op.scaled = op.seconds * sum(1.0 / f for f in samples) / len(samples)
        return result


def run_solves(g, problems, seed, baseline, ops, probe, clock, eigen):
    """Each problem solved by h1, a0 and au; optionally the eigenpair at au."""
    for label, potential, problem in problems:
        reports, group = {}, []
        for scheme in SCHEMES:
            op = Op(f"{label}/{scheme}", f"solve_{scheme}")
            cfg = g.RunConfig(scheme=g.MetricKind(scheme), seed=seed)
            mark = probe.mark() if probe else None
            report = clock.timed(op, lambda: g.run(problem, cfg))
            ops.append(op)
            group.append(op)
            if report is None:
                continue
            try:
                check_run(report, cfg.tol)
                expect = baseline["gamma"][label]
                gamma = report.final_record.gamma
                _require(_close(gamma, expect, BASELINE_RTOL),
                         f"gamma {gamma!r} vs baseline {expect!r}")
                if potential == "zero" and problem.beta == 0.0:
                    lam0 = closed_form_lambda0(problem.grid)
                    _require(_close(gamma, lam0, CLOSED_FORM_RTOL),
                             f"gamma {gamma!r} vs closed form {lam0!r}")
                reports[scheme] = report
            except Fail as exc:
                op.fail(str(exc))
            if probe:
                probe.check_run_counts(op, scheme, report, mark)
        if len(reports) == len(SCHEMES):
            try:
                check_agreement(problem, reports)
            except Fail as exc:
                for op in group:
                    op.fail(f"agreement: {exc}")
        if eigen:
            op = Op(f"{label}/eigen", "eigen")
            ops.append(op)
            if "au" not in reports:
                op.fail("no converged au state")
                continue
            ustar = reports["au"].final
            spec = clock.timed(op, lambda: g.lowest_two_eigen(g.linearized_operator(problem, ustar)))
            if spec is None:
                continue
            try:
                gamma = reports["au"].final_record.gamma
                _require(_close(spec.lambda0, gamma, 1e-6),
                         f"lambda0 {spec.lambda0!r} vs au gamma {gamma!r}")
                _require(spec.lambda1 > spec.lambda0, "no spectral gap")
                expect = baseline["eigen"][label]
                _require(_close(spec.lambda0, expect[0], BASELINE_RTOL), "lambda0 vs baseline")
                _require(_close(spec.lambda1, expect[1], BASELINE_RTOL), "lambda1 vs baseline")
            except Fail as exc:
                op.fail(str(exc))


def run_cli_mix(seed, baseline, ops, outdir, probe, clock):
    from gpflow import cli

    expected_checks = None
    for name, kind, argv, seeded in CLI_MIX:
        path = os.path.join(outdir, f"{name}.out")
        args = argv + (["--seed", str(seed)] if seeded else []) + ["-o", path]
        op = Op(name, kind)
        ops.append(op)
        mark = probe.mark() if probe else None
        code = clock.timed(op, lambda: cli.main(args))
        if code is None:
            continue
        try:
            with open(path) as fh:
                text = fh.read()
            if probe:
                probe.output_bytes += len(text.encode())
            expect = baseline["cli"][name]
            if kind == "verify":
                _require(code == 0, f"exit code {code}")
                checks = json.loads(text)["checks"]
                names = [c["name"] for c in checks]
                expected_checks = expected_checks or names
                _require(names == expected_checks, "check set differs between verify commands")
                failed = [c["name"] for c in checks if not c["passed"] and not c["skipped"]]
                _require(not failed, f"failed checks {failed}")
                skipped = sorted(c["name"] for c in checks if c["skipped"])
                _require(skipped == expect["skipped"], f"skip set {skipped}")
            elif kind == "spectrum":
                _require(code == 0, f"exit code {code}")
                data = json.loads(text)
                spec = data["spectrum"]
                _require(data["final"]["status"] == "converged", "run not converged")
                _require(_close(spec["lambda0"], data["final"]["lambda"], 1e-6),
                         "lambda0 vs final gamma")
                _require(_close(spec["lambda0"], expect["lambda0"], BASELINE_RTOL),
                         "lambda0 vs baseline")
                _require(_close(spec["lambda1"], expect["lambda1"], BASELINE_RTOL),
                         "lambda1 vs baseline")
            elif kind == "sweep":
                entries = json.loads(text)["sweep"]
                statuses = [e["status"] for e in entries]
                _require(statuses == expect["statuses"], f"statuses {statuses}")
                _require(code == (0 if all(s == "converged" for s in statuses) else 2),
                         f"exit code {code}")
                for e, lam in zip(entries, expect["lambda"]):
                    _require(_close(e["lambda"], lam, BASELINE_RTOL), f"alpha {e['alpha']} lambda")
            else:
                _require(code == 0, f"exit code {code}")
                rows = [line.split(",") for line in text.strip().splitlines()[1:]]
                energies = [float(r[1]) for r in rows]
                _require(all(a >= b for a, b in zip(energies, energies[1:])), "energy rose")
                _require(float(rows[-1][2]) <= 1e-9, "final residual above tol")
                _require(_close(float(rows[-1][3]), expect["gamma"], BASELINE_RTOL),
                         f"gamma {rows[-1][3]} vs baseline")
                if probe:
                    probe.check_cli_run_counts(op, len(rows), mark)
        except (Fail, OSError, ValueError, KeyError, IndexError) as exc:
            op.fail(str(exc))
        finally:
            if os.path.exists(path):
                os.unlink(path)


# --- traced-run probe and recorder self-test -------------------------------------


class Probe:
    """Recorder plus the checks that its counts match the program's own."""

    def __init__(self, recorder):
        self.rec = recorder
        self.output_bytes = 0
        self.visible_iterations = 0
        self.problems: list[str] = []

    def mark(self):
        return self.rec.mark()

    def _iterations_since(self, mark):
        spans = self.rec.main_spans(mark, self.rec.mark())
        iters = sum(1 for s in spans
                    if s[0] == "energy.scheme_state" and s[3] is not None
                    and s[3][0] == "flows.run")
        return iters, spans

    def check_cli_run_counts(self, op, rows, mark):
        iters, _ = self._iterations_since(mark)
        if iters != rows:
            self.problems.append(f"{op.name}: {iters} scheme_state spans vs {rows} CSV rows")

    def check_run_counts(self, op, scheme, report, mark):
        if report is None:
            return
        iters, spans = self._iterations_since(mark)
        builds = sum(1 for s in spans if s[0] == "greens.operator_build")
        records = len(report.records)
        self.visible_iterations += records
        if iters != records:
            self.problems.append(f"{op.name}: {iters} scheme_state spans vs {records} records")
        expect_builds = records if scheme == "au" else 1
        if builds != expect_builds:
            self.problems.append(f"{op.name}: {builds} operator builds, expected {expect_builds}")


# --- entry --------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("bench18", "cli-mix", "solve-3d"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "pass", "traced"))
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--spans", help="where a traced pass writes its spans")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import gpflow as g
    import gpflow.cli  # noqa: F401  (part of the CLI workload's import cost)

    src = os.path.join(ROOT, "src")
    if not os.path.abspath(g.__file__).startswith(src + os.sep):
        print(f"gpflow imported from {g.__file__}, not from {src}", file=sys.stderr)
        return 1

    probe = None
    if args.mode == "traced":
        import recorder

        rec = recorder.Recorder()
        recorder.install_gpflow(rec, g)
        probe = Probe(rec)
    problems = build_problems(g, args.workload)
    setup_s = time.perf_counter() - t0
    clock = SpeedClock(ticks=probe is None)
    result = {"setup_s": setup_s / clock.last, "setup_raw_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    baseline = load_baseline()
    ops: list[Op] = []
    if args.workload == "cli-mix":
        run_cli_mix(args.seed, baseline, ops, args.outdir, probe, clock)
    else:
        run_solves(g, problems, args.seed, baseline, ops, probe, clock,
                   eigen=args.workload == "solve-3d")
    result["wall_s"] = sum(op.scaled for op in ops)
    result["wall_raw_s"] = sum(op.seconds for op in ops)
    result["speed_factor"] = sorted(clock.factors)[len(clock.factors) // 2]
    result["ops"] = [[op.name, op.kind, op.scaled, op.ok, op.why] for op in ops]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if probe is not None:
        import recorder

        spans = probe.rec.all_spans()
        result["restored"] = probe.rec.uninstall()
        result["aggregate"] = recorder.aggregate(spans)
        result["counts"] = recorder.counts(spans)
        result["counts"]["cli.output_bytes"] = probe.output_bytes
        result["counts"]["bench.visible_iterations"] = probe.visible_iterations
        result["self_test"] = probe.problems
        result["check_names"] = list(getattr(g.verify, "ALL_CHECKS", {}))
        result["spans"] = len(spans)
        if args.spans:
            probe.rec.write(args.spans)
    else:
        import numpy
        import scipy

        result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                              "scipy": scipy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
