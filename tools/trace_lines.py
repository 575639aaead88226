"""List the lines of the gpflow package that the CLI invocation set never runs.

    PYTHONPATH=src python tools/trace_lines.py

Runs every call of ``tools/cli_invocations.py`` in this process, each in a
new temporary directory, under ``sys.settrace`` (the standard library only;
gpflow starts no thread, so this thread's trace sees every call), and prints one row per module of the package: how many of its executable
lines no call ran, of how many, and their numbers; then the total.  A
module's executable lines are the lines its code objects map an instruction
to (``co_lines()``), its functions' and classes' included.  Run it in a new
process: a module imported before the trace starts has its top level
counted as not run.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import tempfile

TOOLS = os.path.dirname(os.path.abspath(__file__))


def _sibling(name):
    """The module tools/<name>.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(TOOLS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_calls = _sibling("cli_invocations")
invocations = _calls.invocations


def executable_lines(path: str) -> set[int]:
    """The lines of a source file that some instruction of its code maps to."""
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None, or 0: no source line
        todo.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def trace_calls(files, calls) -> dict[str, set[int]]:
    """The lines of ``files`` (paths as the import system names them) that
    ran while gpflow.cli was imported and ran ``calls``, (name, argv) pairs."""
    ran = {path: set() for path in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):  # a "call": trace the frame's lines if it is ours
        lines = ran.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)
        return local

    previous, home = sys.gettrace(), os.getcwd()
    sys.settrace(trace)
    try:
        from gpflow import cli

        for _, call in calls:
            with tempfile.TemporaryDirectory() as scratch:
                os.chdir(scratch)
                try:
                    _calls._invoke(cli, call)
                finally:
                    os.chdir(home)
    finally:
        sys.settrace(previous)
    return ran


def main(argv=None) -> int:
    if (sys.argv[1:] if argv is None else argv):
        print("usage: python tools/trace_lines.py", file=sys.stderr)
        return 1
    package = importlib.util.find_spec("gpflow").submodule_search_locations[0]
    files = [os.path.join(package, name) for name in sorted(os.listdir(package))
             if name.endswith(".py")]
    ran = trace_calls(files, invocations())
    missed_total = lines_total = 0
    for path in files:
        lines = executable_lines(path)
        missed = sorted(lines - ran[path])
        missed_total += len(missed)
        lines_total += len(lines)
        print(f"{os.path.basename(path)}: {len(missed)} of {len(lines)} not run: "
              + ", ".join(map(str, missed)))
    print(f"total: {missed_total:,} of {lines_total:,} not run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
