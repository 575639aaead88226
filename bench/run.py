"""gpflow benchmark: three workloads, end-to-end metrics and a traced run.

    python3 bench/run.py --workload bench18 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; gpflow is imported from its `src/`.
Every pass runs in its own fresh worker process (bench/worker.py), one at a
time, with BLAS pinned to one thread and GPFLOW_THREADS=2, so a worker never
runs more than two compute threads.

Workloads (why each was chosen is also in BENCHMARK.json):

- `bench18`: `gpflow.run` with h1, a0 and au on the acceptance suite's 18
  problems.  Many small solves: the flows, energy and LU layers; au
  refactorizes its operator every iteration.  `solve_green`, `spectral` and
  `verify` are never called, so it predicts no change for work on them.
- `cli-mix`: a CLI session through `gpflow.cli.main` (three `verify`, one
  `spectrum`, one threaded `sweep`, one random-start `run`).  Most time is
  in the Jacobi-CG Green's solves of the check suite and the stencil.
- `solve-3d`: one 19^3 problem solved by h1, a0 and au, then the two lowest
  eigenpairs at the au state: the same LU and spectral layers on one large
  problem.

`--seed` reaches every place the program draws random numbers: the check
suite's probes (`verify --seed`) and the random start of the CLI `run`.
`bench18` and `solve-3d` start from the default bump, which is
seed-independent by design, so their inputs are the same for every seed.

Every time is scaled to a reference speed: a shared cloud host changes its
CPU speed in phases of seconds to minutes, so the worker times a fixed
reference kernel (no gpflow code) right before and after each operation and
every 0.25 s during it, and scales the operation's time by the mean
reference speed over those samples (`SpeedClock` in worker.py).  A change to
the program moves scaled and raw times alike; the raw ones are printed on a
`# raw` line and, with `--trace 1`, as `wall_raw_s`, `setup_raw_s` and
`speed_factor`.

`--trace 0` repeats untraced passes until `--seconds` have elapsed and prints
the end-to-end metrics: `wall_s` is the median over passes of the summed
scaled operation times, `setup_s` the median over five set-up-only workers
and every pass worker.  `--trace 1` runs two traced passes between untraced
ones and prints the per-layer metrics: exact counts, which must repeat
between the two traced passes, self times (median of the two), the untraced
per-operation timings and the tracing overhead (median traced `wall_s` minus
median untraced `wall_s`; it is smaller than the pass-to-pass spread and can
read below zero).  Spans are written
to `.bench_out/spans-<workload>-seed<seed>-<k>.csv.gz`.

The last stdout line is the JSON result; lines before it starting with `#`
describe the machine and any failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from recorder import MODULES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bench18", "cli-mix", "solve-3d")
SETUP_WORKERS = 5
DEADLINE_S = 170.0
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "GPFLOW_THREADS": "2",
}
OP_KINDS = ("solve_h1", "solve_a0", "solve_au", "eigen", "verify", "sweep")
LARGEST_VECTOR_DOF = 19**3


class WorkerError(RuntimeError):
    pass


# --- machine block -------------------------------------------------------------


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def machine_block(versions):
    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        "unknown",
    )
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(f"{base}/{index}/level").strip()
        kind = _read(f"{base}/{index}/type").strip().lower()
        size = _read(f"{base}/{index}/size").strip()
        if level and size:
            caches[f"L{level}{'' if kind == 'unified' else kind[0]}"] = size
    dim = 3
    vector_bytes = 8 * LARGEST_VECTOR_DOF
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "caches_per_core": caches,
        **versions,
        "threads": dict(WORKER_ENV, sweep_workers=int(WORKER_ENV["GPFLOW_THREADS"])),
        "stencil_computed": {
            "note": "computed from the code, not measured",
            "flops_per_dof": f"5 * dim ({5 * dim} in 3D): per axis 2v - up - down, / h^2, +=",
            "min_bytes_per_dof": 16,
            "numpy_temporaries_bytes_per_dof": f"8 * (1 + 17 * dim) ({8 * (1 + 17 * dim)} in 3D)",
        },
        "working_set": (
            f"largest vector {vector_bytes} B (19^3 doubles) against "
            f"{caches.get('L2', '?')} L2: every working set fits in cache, "
            "so the benchmark makes no memory-bandwidth claim"
        ),
    }


# --- workers ----------------------------------------------------------------------


def run_worker(args, deadline, mode, spans=None, tag=""):
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise WorkerError("time budget exhausted before a worker could start")
    outdir = os.path.join(args.outdir, f"w{tag}")
    os.makedirs(outdir, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--outdir", outdir]
    if spans:
        cmd += ["--spans", spans]
    # the check suite writes restart files through tempfile; keep them in the checkout
    env = dict(os.environ, **WORKER_ENV, TMPDIR=outdir)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker exceeded the {DEADLINE_S:.0f} s budget")
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def summarize_ops(passes):
    attempted = failed = 0
    failures = []
    for p in passes:
        for name, kind, seconds, ok, why in p["ops"]:
            attempted += 1
            if not ok:
                failed += 1
                failures.append(f"{name}: {why}")
    return attempted, failed, failures


def op_seconds(p, kind):
    """Summed time of the pass's successful operations of one kind."""
    return sum((s for _, k, s, ok, _ in p["ops"] if k == kind and ok), 0.0)


# --- per-layer metrics --------------------------------------------------------------


def layer_metrics(traced, untraced, check_names):
    """Per-layer numbers from one traced pass (and its untraced twin)."""
    agg, c = traced["aggregate"], traced["counts"]

    def fn(name):
        return agg.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    m = {}
    for name in ("greens.lu_factor", "greens.lu_solve", "greens.solve_green",
                 "grid.apply_neg_laplacian", "grid.edge_difference_sum", "grid.inner",
                 "energy.scheme_state", "energy.step_decrease", "energy.metric_gradient",
                 "flows.run", "spectral.lowest_two_eigen", "verify.check_suite", "cli.main",
                 "problem.build"):
        m[f"{name}.calls"] = fn(name)["calls"]
        m[f"{name}.self_s"] = fn(name)["self_s"]
    m["grid.gridfunction.constructions"] = fn("grid.gridfunction")["calls"]
    m["grid.gridfunction.self_s"] = fn("grid.gridfunction")["self_s"]
    m["greens.operator_builds"] = fn("greens.operator_build")["calls"]
    m["greens.cg_iters"] = c["greens.cg_iters"]
    solves = fn("greens.solve_green")["calls"]
    m["greens.cg_iters_per_solve"] = c["greens.cg_iters"] / solves if solves else 0.0
    dofs = c["grid.stencil_dofs"]
    m["grid.stencil_ns_per_dof"] = (
        1e9 * fn("grid.apply_neg_laplacian")["self_s"] / dofs if dofs else 0.0
    )
    m["energy.project_tangent.calls"] = fn("energy.project_tangent")["calls"]
    m["energy.energy.calls"] = fn("energy.energy")["calls"]
    m["flows.iterations"] = c["flows.iterations"]
    m["flows.ls_trials"] = c["flows.ls_trials"]
    m["flows.ls_trials_per_step"] = (
        c["flows.ls_trials"] / c["flows.steps"] if c["flows.steps"] else 0.0
    )
    m["flows.accept_ratio"] = c["flows.accepted"] / c["flows.ls_trials"] if c["flows.ls_trials"] else 0.0
    m["spectral.dense_calls"] = c["spectral.dense_calls"]
    m["spectral.inverse_power_solves"] = c["spectral.inverse_power_solves"]
    for name in check_names:
        m[f"verify.check.{name.replace(':', '.')}_s"] = fn(f"verify.check.{name}")["total_s"]
    m["verify.checks_failed"] = c["verify.checks_failed"]
    m["verify.checks_skipped"] = c["verify.checks_skipped"]
    m["cli.output_bytes"] = c["cli.output_bytes"]
    for module in MODULES:
        prefix = module + "."
        m[f"{module}.layer_self_s"] = sum(
            (v["self_s"] for k, v in agg.items() if k.startswith(prefix)), 0.0
        )
    m["trace.spans"] = traced["spans"]
    for kind in OP_KINDS:
        m[f"{kind}_s"] = op_seconds(untraced, kind)
    return m


EXACT_COUNTS = ("flows.iterations", "flows.ls_trials", "greens.cg_iters", "spectral.dense_calls",
                "spectral.inverse_power_solves", "verify.checks_failed", "verify.checks_skipped",
                "cli.output_bytes", "grid.stencil_dofs")


def self_test(workload, traced_passes, check_names):
    """The recorder's counts against the program's own results.

    A mismatch means a count no longer measures what its name says (the
    program moved or redefined the call it is taken from), so it may not be
    cited as a count; it does not make the program's outputs wrong.
    """
    problems = []
    first = traced_passes[0]
    for k, p in enumerate(traced_passes):
        problems += [f"traced pass {k}: {msg}" for msg in p["self_test"]]
    calls = [{n: v["calls"] for n, v in p["aggregate"].items()} for p in traced_passes]
    for k in range(1, len(traced_passes)):
        if calls[k] != calls[0]:
            diff = sorted(n for n in set(calls[k]) | set(calls[0])
                          if calls[k].get(n) != calls[0].get(n))
            problems.append(f"span call counts differ between traced passes: {diff[:10]}")
        for key in EXACT_COUNTS:
            if traced_passes[k]["counts"][key] != first["counts"][key]:
                problems.append(f"{key} differs between traced passes")
    c = first["counts"]
    if workload != "cli-mix" and c["flows.iterations"] != c["bench.visible_iterations"]:
        problems.append(
            f"flows.iterations {c['flows.iterations']} != summed len(report.records) "
            f"{c['bench.visible_iterations']}"
        )
    registered = first["check_names"]
    if sorted(registered) != sorted(check_names):
        problems.append(f"registered checks {registered} differ from the benchmark's list")
    if workload == "cli-mix":
        seen = {n[len("verify.check."):] for n in first["aggregate"] if n.startswith("verify.check.")}
        if seen != set(check_names):
            problems.append(f"traced checks cover {len(seen)} of {len(check_names)} names")
    return problems


# --- main -----------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gpflow", "__init__.py")):
        print(f"error: no gpflow sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    # verify.check.grid.inner_symmetry_s names the check grid:inner_symmetry
    check_names = [
        n[len("verify.check."):-len("_s")].replace(".", ":", 1)
        for n in per_layer if n.startswith("verify.check.")
    ]

    args.outdir = os.path.join(ROOT, ".bench_out", f"run-{os.getpid()}")
    os.makedirs(args.outdir, exist_ok=True)
    try:
        setups = [run_worker(args, deadline, "setup", tag=f"s{k}")
                  for k in range(SETUP_WORKERS)]
        if args.trace == 0:
            passes = []
            start = time.monotonic()
            while not passes or time.monotonic() - start < args.seconds:
                passes.append(run_worker(args, deadline, "pass", tag=f"p{len(passes)}"))
            setups += passes
            metrics = {
                "setup_s": statistics.median(w["setup_s"] for w in setups),
                "wall_s": statistics.median(p["wall_s"] for p in passes),
                "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            }
            attempted, failed, failures = summarize_ops(passes)
            metrics["ok_frac"] = (attempted - failed) / attempted
            versions = passes[0]["versions"]
            problems = []
            units = end_to_end
            raw = {
                "setup_raw_s": statistics.median(w["setup_raw_s"] for w in setups),
                "wall_raw_s": statistics.median(p["wall_raw_s"] for p in passes),
                "pass_wall_s": [round(p["wall_s"], 4) for p in passes],
                "speed_factors": [round(p["speed_factor"], 4) for p in passes],
                "passes": len(passes),
            }
        else:
            # untraced, traced, traced, untraced: the overhead estimate is
            # balanced against drift in machine speed; the last pass runs
            # only while it fits comfortably in the time budget.
            start = time.monotonic()
            untraced = [run_worker(args, deadline, "pass", tag="u0")]
            traced = []
            for k in range(2):
                spans = os.path.join(ROOT, ".bench_out",
                                     f"spans-{args.workload}-seed{args.seed}-{k}.csv.gz")
                traced.append(run_worker(args, deadline, "traced", spans=spans, tag=f"t{k}"))
            if (time.monotonic() - start) / 3 < 0.5 * (deadline - time.monotonic()):
                untraced.append(run_worker(args, deadline, "pass", tag="u1"))
            attempted, failed, failures = summarize_ops(untraced + traced)
            problems = self_test(args.workload, traced, check_names)
            if not all(t["restored"] for t in traced):
                failures.append("recorder: a wrapped attribute was not restored")
            layers = [layer_metrics(t, u, check_names) for t, u in zip(traced, untraced * 2)]
            metrics = {}
            for name in layers[0]:
                values = [lm[name] for lm in layers]
                metrics[name] = values[0] if isinstance(values[0], int) else statistics.median(values)
            traced_wall = statistics.median(t["wall_s"] for t in traced)
            untraced_wall = statistics.median(u["wall_s"] for u in untraced)
            metrics["trace.overhead_s"] = traced_wall - untraced_wall
            metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / untraced_wall
            metrics["fail_frac"] = failed / attempted
            metrics["trace.selftest_failures"] = len(problems)
            metrics["setup_raw_s"] = statistics.median(w["setup_raw_s"] for w in setups)
            metrics["wall_raw_s"] = statistics.median(u["wall_raw_s"] for u in untraced)
            metrics["speed_factor"] = statistics.median(u["speed_factor"] for u in untraced)
            raw = None
            versions = untraced[0]["versions"]
            units = per_layer
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(args.outdir, ignore_errors=True)

    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1
    print("# machine " + json.dumps(machine_block(versions), sort_keys=True))
    if raw:
        print("# raw " + json.dumps(raw))
    for line in failures:
        print("# FAILED " + line)
    for line in problems:
        print("# SELFTEST " + line)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
