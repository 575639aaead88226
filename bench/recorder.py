"""In-memory span recorder for the traced benchmark run.

The recorder wraps gpflow's public functions from the outside, so the
program itself carries no tracing code.  Every wrapped call records one span
(name, start, end, parent) in a per-thread list; nothing is written until the
run ends.  `install_gpflow` patches each public function of the eight modules
once and binds that one wrapper in every `gpflow.*` namespace that imported
it; `uninstall` restores every patched attribute.

Self time follows the usual rule: a span's duration minus the part of its
interval covered by its child spans (the union, so children that ran in
parallel threads are not counted twice).  Spans that start on a worker thread
with nothing open on that thread are children of the span open on the main
thread at that moment; that is how the threaded `sweep` command nests.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import threading
import time
import weakref

MODULES = ("grid", "problem", "greens", "energy", "flows", "spectral", "verify", "cli")

# span layout: [name, start, end, parent span or None, extra]
_NAME, _START, _END, _PARENT, _EXTRA = range(5)


class Recorder:
    """Collects spans from wrapped callables and restores them afterwards."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack: list = []
        self._threads: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------

    def _thread_state(self):
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans = []
            local.stack = (
                self._main_stack
                if threading.current_thread() is threading.main_thread()
                else []
            )
            with self._lock:
                self._threads.append(local.spans)
            return local.spans, local.stack

    def wrap(self, name, fn, namer=None, extra=None):
        """Return fn wrapped to record a span named `name`.

        `namer(args)` may choose the name per call; `extra(args, result)`
        stores a value on the span for the metrics below.
        """
        rec = self
        main_stack = self._main_stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = rec._thread_state()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else None
            span = [namer(args) if namer else name, 0.0, 0.0, parent, None]
            spans.append(span)
            stack.append(span)
            span[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = clock()
                stack.pop()
            if extra is not None:
                span[_EXTRA] = extra(args, result)
            return result

        return wrapper

    def patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_item(self, mapping, key, value):
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> bool:
        """Restore every patched attribute; True when all are back."""
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        restored = all(
            (owner[attr] if isinstance(owner, dict) else getattr(owner, attr)) is original
            for owner, attr, original in self._patches
        )
        self._patches.clear()
        return restored

    def mark(self) -> int:
        """Number of spans recorded so far on the main thread."""
        spans, _ = self._thread_state()
        return len(spans)

    def main_spans(self, start: int, end: int) -> list:
        spans, _ = self._thread_state()
        return spans[start:end]

    def all_spans(self) -> list:
        with self._lock:
            return [span for spans in self._threads for span in spans]

    def write(self, path: str) -> int:
        """Write every span as gzip CSV: id, name, start, end, parent id."""
        spans = self.all_spans()
        ids = {id(span): k for k, span in enumerate(spans)}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start,end,parent\n")
            for k, span in enumerate(spans):
                parent = span[_PARENT]
                pid = ids[id(parent)] if parent is not None else -1
                fh.write(f"{k},{span[_NAME]},{span[_START]:.9f},{span[_END]:.9f},{pid}\n")
        return len(spans)


# --- gpflow instrumentation -------------------------------------------------


def _public_functions(module):
    return {
        name: value
        for name, value in vars(module).items()
        if inspect.isfunction(value)
        and not name.startswith("_")
        and value.__module__ == module.__name__
    }


def install_gpflow(rec: Recorder, gpflow) -> None:
    """Wrap the public functions of every gpflow module, plus the methods
    and registries that carry the per-layer counts."""
    import importlib

    modules = {m: importlib.import_module(f"gpflow.{m}") for m in MODULES}
    checks = getattr(modules["verify"], "ALL_CHECKS", {})
    check_names = {fn: name for name, fn in checks.items()}
    run = getattr(modules["flows"], "run", None)
    stencil = getattr(modules["grid"], "apply_neg_laplacian", None)

    def check_extra(args, result):
        return (result.passed, result.skipped)

    def run_extra(args, result):
        steps = accepted = 0
        for r in result.records:
            if r.alpha > 0.0:
                steps += 1
                accepted += bool(r.sufficient_decrease)
        return (steps, accepted)

    def grid_dof(args, result):
        return args[0].dof

    wrappers = {}
    for short, module in modules.items():
        for name, fn in _public_functions(module).items():
            if fn in check_names:
                span_name = "verify.check." + check_names[fn]
                wrappers[fn] = rec.wrap(span_name, fn, extra=check_extra)
            elif fn is run:
                wrappers[fn] = rec.wrap("flows.run", fn, extra=run_extra)
            elif fn is stencil:
                wrappers[fn] = rec.wrap("grid.apply_neg_laplacian", fn, extra=grid_dof)
            else:
                wrappers[fn] = rec.wrap(f"{short}.{name}", fn)

    for namespace in (gpflow, *modules.values()):
        for name, value in list(vars(namespace).items()):
            if inspect.isfunction(value) and value in wrappers:
                rec.patch(namespace, name, wrappers[value])
    for name, fn in list(checks.items()):
        if fn in wrappers:
            rec.patch_item(checks, name, wrappers[fn])

    solved = weakref.WeakSet()  # operators that have factorized already

    def solve_name(args):
        op = args[0]
        with rec._lock:
            if op in solved:
                return "greens.lu_solve"
            solved.add(op)
        return "greens.lu_factor"

    # (module, class, method, span name, namer); a class or method a later
    # version of the program drops is skipped, and its counts read zero.
    methods = (
        ("grid", "GridFunction", "__post_init__", "grid.gridfunction", None),
        ("greens", "LinearOperator", "__init__", "greens.operator_build", None),
        ("greens", "LinearOperator", "solve", "greens.lu_solve", solve_name),
        ("greens", "LinearOperator", "apply", "greens.apply", None),
        ("problem", "Problem", "__init__", "problem.build", None),
    )
    for module, cls_name, attr, span_name, namer in methods:
        cls = getattr(modules[module], cls_name, None)
        if cls is not None and attr in vars(cls):
            rec.patch(cls, attr, rec.wrap(span_name, getattr(cls, attr), namer=namer))


# --- analysis ----------------------------------------------------------------


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def aggregate(spans) -> dict:
    """Per span name: calls, total seconds and self seconds."""
    children: dict[int, list] = {}
    for span in spans:
        parent = span[_PARENT]
        if parent is not None:
            children.setdefault(id(parent), []).append((span[_START], span[_END]))
    stats: dict[str, list] = {}
    for span in spans:
        start, end = span[_START], span[_END]
        kids = children.get(id(span))
        own = (end - start) - (_covered(kids, start, end) if kids else 0.0)
        entry = stats.setdefault(span[_NAME], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += own
    return {name: {"calls": c, "total_s": t, "self_s": s} for name, (c, t, s) in stats.items()}


def counts(spans) -> dict:
    """The exact counts named in the per-layer table, from span structure."""
    iterations = ls_trials = cg_iters = steps = accepted = 0
    inverse_power = 0
    iterative_eigen = set()
    checks_failed = checks_skipped = 0
    stencil_dofs = 0
    for span in spans:
        name, parent, extra = span[_NAME], span[_PARENT], span[_EXTRA]
        pname = parent[_NAME] if parent is not None else None
        if name == "energy.scheme_state" and pname == "flows.run":
            iterations += 1
        elif name == "energy.step_decrease" and pname == "flows.run":
            ls_trials += 1
        elif name == "greens.apply" and pname == "greens.conjugate_gradient":
            cg_iters += 1
        elif extra is None:  # the call raised
            pass
        elif name == "grid.apply_neg_laplacian":
            stencil_dofs += extra
        elif name == "flows.run":
            steps += extra[0]
            accepted += extra[1]
        elif name.startswith("verify.check."):
            passed, skipped = extra
            checks_skipped += skipped
            checks_failed += (not passed) and (not skipped)
        if name in ("greens.lu_factor", "greens.lu_solve"):
            ancestor = parent
            while ancestor is not None and ancestor[_NAME] != "spectral.lowest_two_eigen":
                ancestor = ancestor[_PARENT]
            if ancestor is not None:
                inverse_power += 1
                iterative_eigen.add(id(ancestor))
    eigen_calls = sum(1 for s in spans if s[_NAME] == "spectral.lowest_two_eigen")
    return {
        "flows.iterations": iterations,
        "flows.ls_trials": ls_trials,
        "flows.steps": steps,
        "flows.accepted": accepted,
        "greens.cg_iters": cg_iters,
        "grid.stencil_dofs": stencil_dofs,
        "spectral.inverse_power_solves": inverse_power,
        "spectral.dense_calls": eigen_calls - len(iterative_eigen),
        "verify.checks_failed": checks_failed,
        "verify.checks_skipped": checks_skipped,
    }
