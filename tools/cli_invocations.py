"""Run a fixed set of CLI invocations and write what each one produced.

    PYTHONPATH=src python tools/cli_invocations.py OUTDIR

OUTDIR must not exist yet.  For every invocation, OUTDIR/<name>/ receives
``out`` (the file written through ``-o``, absent if none was written),
``stdout``, ``stderr`` and ``code`` (the exit code of ``gpflow.cli.main``, or
of the ``SystemExit`` that argparse raises after ``--help`` and
``--version``).  Each invocation runs in OUTDIR/<name>/, and the input files
it reads (a config file, a start file, a potential file; ``INPUTS``) are
written there first, with fixed contents, and named by their bare file
names, since some outputs print them (``meta.potential``).  Every output is
byte-deterministic, so ``diff -r`` between the OUTDIRs of two checkouts
shows exactly the invocations whose behaviour changed.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

# the benchmark's cli-mix session; the seeded commands run at seeds 0 and 1
CLI_MIX = (
    ("verify-1d", ["verify", "--n", "255", "--beta", "100", "--trials", "5"], True),
    ("verify-2d-harmonic",
     ["verify", "--dim", "2", "--n", "63", "--beta", "10", "--potential", "harmonic:20",
      "--trials", "5"], True),
    ("verify-2d-well",
     ["verify", "--dim", "2", "--n", "63", "--beta", "100", "--potential",
      "well:1000:0.25:0.75", "--trials", "5"], True),
    ("spectrum-2d",
     ["spectrum", "--dim", "2", "--n", "63", "--beta", "100", "--potential", "harmonic:20"],
     False),
    ("sweep-2d",
     ["sweep", "--dim", "2", "--n", "31", "--beta", "10", "--alphas", "0.05,0.1,0.2,0.4"],
     False),
    ("run-1d-random",
     ["run", "--n", "127", "--beta", "10", "--potential", "harmonic:20", "--init", "random",
      "--format", "csv"], True),
)

EXTRA = (
    ("verify-a0-cross-scheme",
     ["verify", "--n", "63", "--beta", "10", "--scheme", "a0", "--cross-scheme",
      "--trials", "3"]),
    ("verify-trials0",
     ["verify", "--n", "63", "--beta", "20", "--potential", "harmonic:10", "--trials", "0"]),
    ("verify-3d-9", ["verify", "--dim", "3", "--n", "9", "--beta", "10", "--trials", "2"]),
    ("run-2d-au",
     ["run", "--dim", "2", "--n", "31", "--beta", "100", "--scheme", "au", "--potential",
      "harmonic:20"]),
    ("sweep-breakdown", ["sweep", "--n", "7", "--beta", "10", "--alphas", "0.1,1e200"]),
    # a Green's solve that fails keeps its alpha's entry too
    ("sweep-cg-failure",
     ["sweep", "--dim", "3", "--n", "5", "--beta", "1e300", "--scheme", "au", "--alphas",
      "0.5,1e-3"]),
    ("run-alpha0-1e10",
     ["run", "--n", "7", "--beta", "10", "--alpha0", "1e10", "--max-iter", "200"]),
    ("run-alpha0-1e20",
     ["run", "--n", "7", "--beta", "10", "--alpha0", "1e20", "--max-iter", "200"]),
    ("run-3d-a0",
     ["run", "--dim", "3", "--n", "19", "--beta", "100", "--potential", "harmonic:20",
      "--scheme", "a0"]),
    # solve-3d's a_u run: CG and the stencil on three axes
    ("run-3d-au",
     ["run", "--dim", "3", "--n", "19", "--beta", "100", "--potential", "harmonic:20",
      "--scheme", "au"]),
    # h1 on three axes of different lengths
    ("run-3d-uneven-h1",
     ["run", "--dim", "3", "--n", "9,11,7", "--beta", "10", "--potential",
      "well:1000:0.25:0.75"]),
    # the spectrum on a 3D grid, where the eigensolve's preconditioner runs
    # the sine transform on three axes
    ("spectrum-3d",
     ["spectrum", "--dim", "3", "--n", "19", "--beta", "100", "--potential", "harmonic:20"]),
    ("run-1d-a0",
     ["run", "--n", "255", "--beta", "100", "--potential", "harmonic:20", "--scheme", "a0"]),
    ("run-1d-au",
     ["run", "--n", "255", "--beta", "100", "--potential", "well:1000:0.25:0.75",
      "--scheme", "au"]),
    # steps that stop moving end the run ("stalled", exit 2)
    ("run-au-beta-1e300", ["run", "--n", "7", "--beta", "1e300", "--scheme", "au"]),
    # fixed steps that return to an earlier iterate end the run too
    ("run-au-fixed-beta-1e200",
     ["run", "--dim", "2", "--n", "7", "--beta", "1e200", "--scheme", "au", "--mode", "fixed"]),
    # a fixed stall whose state CG cannot solve to CG_RTOL: a run does not
    # end on a state it cannot certify, so it is an error (exit 2)
    ("run-au-fixed-beta-1e300",
     ["run", "--dim", "2", "--n", "7", "--beta", "1e300", "--scheme", "au", "--mode", "fixed"]),
    # backtracking searches that end unaccepted along loosely solved states:
    # each state is re-solved tightly and the step decided again, until one
    # stalls
    ("run-2d-au-stall",
     ["run", "--dim", "2", "--n", "7", "--beta", "1e200", "--scheme", "au"]),
    # a well is not additive across the axes, so its a0 solves run CG,
    # preconditioned by the exact solve of the potential's additive part
    ("run-2d-well-a0",
     ["run", "--dim", "2", "--n", "31", "--beta", "100", "--potential", "well:1000:0.25:0.75",
      "--scheme", "a0"]),
    # a trap too deep for its grid: the split's rounding swamps lambda_min,
    # so a0 runs preconditioned CG, and the search ends at its stepsize floor
    ("run-2d-harmonic-1e100-a0",
     ["run", "--dim", "2", "--n", "7", "--potential", "harmonic:1e100", "--beta", "1e100",
      "--scheme", "a0"]),
    # a run cut short: verify and spectrum write the run report and exit 2
    ("verify-unconverged", ["verify", "--n", "63", "--beta", "50", "--max-iter", "2"]),
    ("spectrum-unconverged", ["spectrum", "--n", "63", "--beta", "50", "--max-iter", "2"]),
    # the suite after an a_u run, on a potential that is not additive
    ("verify-2d-well-au",
     ["verify", "--dim", "2", "--n", "15", "--beta", "10", "--scheme", "au", "--potential",
      "well:1000:0.25:0.75", "--trials", "2"]),
    # an axis over DENSE_SINE_MAX nodes: CG's sine transforms go through
    # scipy.fft.dstn, the one 2D path that imports scipy, with the stencil
    # under CG at a size the set has nowhere else
    ("run-2d-long-axis",
     ["run", "--dim", "2", "--n", "130", "--beta", "10", "--potential", "harmonic:20",
      "--scheme", "au"]),
    # the same long axis under the eigensolve: the exact H1 solves and the
    # preconditioner's shifted inverse (greens.laplacian_inverse) both go
    # through scipy.fft.dstn
    ("spectrum-2d-long-axis",
     ["spectrum", "--dim", "2", "--n", "130,7", "--beta", "10", "--potential", "harmonic:20"]),
    # a random start at beta = 0 on V = 0: H1's Green's term solves V u, a
    # right-hand side of zeros that holds -0.0 wherever u < 0, which the
    # exact operators must answer with +0.0
    ("run-2d-zero-beta0-random",
     ["run", "--dim", "2", "--n", "15", "--beta", "0", "--potential", "zero", "--init",
      "random"]),
    ("run-1d-zero-beta0-random",
     ["run", "--n", "31", "--beta", "0", "--potential", "zero", "--init", "random"]),
    # bench18's costliest run: warm-started CG on the well's potential basis
    ("run-2d-63-well-a0",
     ["run", "--dim", "2", "--n", "63", "--beta", "100", "--potential", "well:1000:0.25:0.75",
      "--scheme", "a0"]),
    # h1 on 25^3 = 15,625 unknowns, a size at which numpy's dot products
    # print other bits under two BLAS threads than under one, from record
    # 0's energy on; its bytes hold at one thread
    ("run-3d-25-h1",
     ["run", "--dim", "3", "--n", "25", "--beta", "100", "--potential", "harmonic:20",
      "--scheme", "h1"]),
    # a box centred on 0, its bounds given as a separate token that starts
    # with a minus sign
    ("run-bounds-negative",
     ["run", "--n", "15", "--bounds", "-1,1", "--potential", "harmonic:20", "--beta", "10"]),
)

# "{file}" in an argument names the input file ``file`` of INPUTS; its
# contents are integers, so that they do not depend on the host's libm
INPUTS = {
    "config.json": '{"betta": 1.0}',
    # a lopsided start on the 2D-31^2 grid, and one on the 1D 63-node grid
    "start-2d.csv": "".join(
        f"{(i + 1) * (31 - i) * (j + 1) * (31 - j) + 300 * ((3 * i + 5 * j) % 7)}\n"
        for i in range(31) for j in range(31)),
    "start-1d.csv": "".join(f"{(i + 1) * (63 - i) + 50 * (i % 4)}\n" for i in range(63)),
    # a potential on the 2D-15^2 grid that is not additive across the axes
    "potential.csv": "".join(f"{10 * ((i - 4) ** 2 + (j - 9) ** 2) + 500 * (i > 7 and j < 5)}\n"
                             for i in range(15) for j in range(15)),
    "empty.csv": "",
    # list settings as JSON lists: n one entry per axis, bounds one shared pair
    "config-lists.json": '{"dim": 2, "n": [15, 15], "bounds": [-1, 1], "potential": "harmonic:20", '
                         '"beta": 10}',
}

# the CLI's file inputs: a start file under run and under verify's three
# cross-scheme runs, a potential file, whose path meta.potential prints, an
# empty start and potential file (usage errors, one error line), and a
# config file of list settings
FILES = (
    ("run-init-file",
     ["run", "--dim", "2", "--n", "31", "--beta", "10", "--potential", "harmonic:20",
      "--scheme", "a0", "--init", "file", "--init-path", "{start-2d.csv}"]),
    ("verify-init-file-cross-scheme",
     ["verify", "--n", "63", "--beta", "10", "--potential", "harmonic:20", "--scheme", "a0",
      "--init", "file", "--init-path", "{start-1d.csv}", "--cross-scheme", "--trials", "3"]),
    ("run-potential-file",
     ["run", "--dim", "2", "--n", "15", "--beta", "10", "--potential", "file:{potential.csv}"]),
    ("usage-init-file-empty", ["run", "--n", "3", "--init", "file", "--init-path", "{empty.csv}"]),
    ("usage-potential-file-empty", ["run", "--n", "3", "--potential", "file:{empty.csv}"]),
    ("run-config-lists", ["run", "--config", "{config-lists.json}"]),
)

# the parser: usage errors (exit 1, one error line), whose stderr is compared,
# and the help and version texts
PARSER = (
    ("usage-dim-x", ["run", "--dim", "x"]),
    ("usage-dim-4", ["run", "--dim", "4"]),
    ("usage-scheme", ["run", "--scheme", "l2"]),
    ("usage-format", ["run", "--format", "xml"]),
    ("usage-format-csv-verify", ["verify", "--format", "csv"]),
    ("usage-mode", ["run", "--mode", "x"]),
    # RunConfig checks the stepsize rule first, then tol
    ("usage-shrink-tol", ["run", "--shrink", "1", "--tol", "0"]),
    ("usage-alpha0-floor", ["run", "--alpha0", "1e-9"]),
    ("usage-max-iter", ["run", "--max-iter", "2.5"]),
    ("usage-trials-x", ["verify", "--trials", "x"]),
    ("usage-trials-huge", ["verify", "--trials", "1" + "0" * 300]),
    ("usage-n-huge", ["run", "--dim", "3", "--n", "100000"]),
    # a bad entry of a list setting is named alone
    ("usage-n-entry", ["run", "--n", "6x,3"]),
    ("usage-verify-work", ["verify", "--dim", "2", "--n", "63", "--trials", "1000"]),
    ("usage-seed-x", ["run", "--seed", "x"]),
    ("usage-seed-negative", ["run", "--seed", "-1"]),
    # a long value is echoed cut short
    ("usage-seed-huge", ["run", "--seed", "-1" + "0" * 300]),
    # long unrecognized arguments are echoed cut short too
    ("usage-unrecognized-long", ["run", "--trials", "1" * 300]),
    ("usage-unrecognized-word", ["run", "w" * 300]),
    ("usage-tol-minus-inf", ["run", "--tol", "-inf"]),
    ("usage-bounds-minus-inf", ["run", "--bounds", "-inf,1"]),
    ("usage-beta-x", ["run", "--beta", "x"]),
    ("usage-beta-nan", ["run", "--beta", "nan"]),
    ("usage-beta-long", ["run", "--beta", "x" * 300]),
    ("usage-well-reversed", ["run", "--n", "3", "--potential", "well:1:0.75:0.25"]),
    ("usage-well-outside", ["run", "--n", "3", "--potential", "well:1:2:3"]),
    ("usage-trials-on-run", ["run", "--trials", "1"]),
    ("usage-alphas-on-run", ["run", "--alphas", "0.1"]),
    ("usage-sweep-no-alphas", ["sweep"]),
    ("usage-config-unknown-key", ["run", "--config", "{config.json}"]),
    # the CLI's start checks, which come after the run settings' own
    ("usage-init-no-path", ["run", "--init", "file"]),
    ("usage-init-bogus", ["run", "--init", "x"]),
    ("usage-init-bogus-tol", ["run", "--init", "x", "--tol", "0"]),
    ("help", ["--help"]),
    ("help-run", ["run", "--help"]),
    ("help-verify", ["verify", "--help"]),
    ("help-spectrum", ["spectrum", "--help"]),
    ("help-sweep", ["sweep", "--help"]),
    ("version", ["--version"]),
)


def invocations():
    for name, argv, seeded in CLI_MIX:
        if not seeded:
            yield name, argv
            continue
        for seed in (0, 1):
            yield f"{name}-seed{seed}", argv + ["--seed", str(seed)]
    yield from EXTRA
    yield from FILES
    yield from PARSER


def _invoke(cli, call):
    """Run one call in the current directory, after writing the input files
    it names there: (exit code, stdout, stderr)."""
    for file, text in INPUTS.items():
        placeholder = "{" + file + "}"
        if any(placeholder in arg for arg in call):
            with open(file, "w") as fh:
                fh.write(text)
            call = [arg.replace(placeholder, file) for arg in call]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(call + ["-o", "out"])
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def main(argv=None) -> int:
    from gpflow import cli

    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or os.path.exists(args[0]):
        print("usage: python tools/cli_invocations.py OUTDIR (a new directory)", file=sys.stderr)
        return 1
    outdir = args[0]
    # argparse wraps its help text to the terminal's width
    os.environ["COLUMNS"] = "80"
    home = os.getcwd()
    for name, call in invocations():
        target = os.path.join(outdir, name)
        os.makedirs(target)
        os.chdir(target)
        try:
            code, stdout, stderr = _invoke(cli, call)
        finally:
            os.chdir(home)
        for part, text in (("stdout", stdout), ("stderr", stderr), ("code", f"{code}\n")):
            with open(os.path.join(target, part), "w") as fh:
                fh.write(text)
        print(f"{name}: exit {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
