"""The CLI invocation set prints the bytes committed in cli_invocations.json.gz.

The file holds, per invocation of ``tools/cli_invocations.py``, its ``out``
(null when none was written), ``stdout``, ``stderr`` and ``code``, run at
one BLAS thread, with the fingerprint of the host that wrote it and the
command that rewrites it from the current tree:

    PYTHONPATH=src python tests/test_invocations.py

A change that moves an output on purpose rewrites the file and names each
moved invocation in CHANGES.md.
"""

import contextlib
import gzip
import importlib.metadata
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
from test_tools import _load

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "cli_invocations.json.gz")
COMMAND = "PYTHONPATH=src python tests/test_invocations.py"
PARTS = ("out", "stdout", "stderr", "code")
RTOL = 1e-10


def fingerprint() -> dict:
    """What the outputs' bits depend on besides the code: the numpy and scipy
    builds (their kernels and bundled BLAS), the CPU features numpy
    dispatches on (integer powers, for one, round by them), and Python's
    version (argparse's help layout)."""
    from numpy._core._multiarray_umath import __cpu_features__

    return {
        "python": "%d.%d" % sys.version_info[:2],
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "cpu_features": sorted(name for name, on in __cpu_features__.items() if on),
    }


def run_invocations(outdir: str) -> dict:
    """Run the invocation set into ``outdir`` at one BLAS thread, and read
    back every invocation's parts as text, bytes decoded as written."""
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    subprocess.run([sys.executable, os.path.join(ROOT, "tools", "cli_invocations.py"), outdir],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    outputs = {}
    for name in sorted(os.listdir(outdir)):
        parts = outputs[name] = {}
        for part in PARTS:
            path = os.path.join(outdir, name, part)
            parts[part] = None
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    parts[part] = fh.read().decode("utf-8")
    return outputs


def _write_outdir(outputs: dict, outdir: str) -> None:
    for name, parts in outputs.items():
        os.makedirs(os.path.join(outdir, name))
        for part, text in parts.items():
            if text is not None:
                with open(os.path.join(outdir, name, part), "wb") as fh:
                    fh.write(text.encode("utf-8"))


def _compare(golden_dir: str, now_dir: str, rtol: float) -> tuple[int, str]:
    """tools/compare_invocations.py's exit status and report, the
    invocations that printed the same bytes left out."""
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        status = _load("compare_invocations").main([golden_dir, now_dir, "--rtol", str(rtol)])
    moved = [line for line in report.getvalue().splitlines() if not line.endswith(": same")]
    return status, "\n".join(moved)


def test_invocations_print_the_committed_bytes(tmp_path):
    with gzip.open(GOLDEN, "rt", encoding="utf-8") as fh:
        golden = json.load(fh)
    now_dir, golden_dir = str(tmp_path / "now"), str(tmp_path / "golden")
    outputs = run_invocations(now_dir)
    if outputs == golden["invocations"]:
        return
    _write_outdir(golden["invocations"], golden_dir)
    status, report = _compare(golden_dir, now_dir, RTOL)
    host = fingerprint()
    if host == golden["fingerprint"]:
        raise AssertionError(
            f"the invocation set's bytes moved from {GOLDEN}; if on purpose, rewrite it "
            f"with `{COMMAND}` and list each moved invocation in CHANGES.md:\n{report}")
    # bits are not portable across builds and CPUs: compare by value there
    moved = {key: (golden["fingerprint"].get(key), value) for key, value in host.items()
             if golden["fingerprint"].get(key) != value}
    where = f"this host's fingerprint differs from the file's, as (file, host): {moved}"
    assert status == 0, f"{where}; compared by value at rtol {RTOL:g}, outputs moved:\n{report}"
    warnings.warn(f"{where}: the invocation set was compared by value at rtol {RTOL:g}, "
                  "not by bytes, and agrees")


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        outputs = run_invocations(os.path.join(scratch, "out"))
    golden = {"command": COMMAND, "fingerprint": fingerprint(), "invocations": outputs}
    data = json.dumps(golden, indent=1, sort_keys=True).encode("utf-8")
    with open(GOLDEN, "wb") as fh:
        fh.write(gzip.compress(data, mtime=0))
    print(f"wrote {len(outputs)} invocations to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
