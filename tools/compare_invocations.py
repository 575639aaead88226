"""Compare two OUTDIRs of tools/cli_invocations.py by value.

    python tools/compare_invocations.py A B [--rtol 1e-10]

``diff -r A B`` says whether two checkouts print the same bytes; this says
whether they print the same values.  Per invocation (a subdirectory of A or
B) it compares ``code``, ``stderr``, ``stdout`` and ``out``:

- exactly: the exit code, stderr, and every string, boolean, null, key and
  list length of the JSON outputs, so each check's ``name``, ``passed`` and
  ``skipped`` too;
- to the relative tolerance rtol, |a - b| <= rtol * max(|a|, |b|): every
  number, lambda and gamma included.  Numbers printed inside text (a check's
  ``detail``, the rows of a CSV) are compared as numbers, the text around
  them exactly.

It prints one line per invocation: ``same`` (byte-identical), ``within
rtol`` with the largest relative change and where it is, or ``MOVED``
followed by what moved: each exact mismatch, then the numbers beyond rtol
by path (list positions and the lines of a text as ``[*]``, the k-th
number within a line as ``#k``), with how many moved and by how much.  The
exit status is 0 when nothing moved, 1 otherwise, and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

FILES = ("code", "stderr", "stdout", "out")
EXACT = ("code", "stderr")
# a decimal number as Python, json and %g print it: 3, -0.5, 1e-10, 2.5E+03
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
INDEX = re.compile(r"\[\d+\]")


class Comparison:
    """What moved in one invocation: exact mismatches, and numbers beyond rtol
    grouped by path pattern (list indices as [*]), with their largest change."""

    def __init__(self, rtol: float):
        self.rtol = rtol
        self.exact: list[str] = []
        self.beyond: dict[str, tuple[int, float]] = {}
        self.largest = (0.0, "")

    def number(self, path: str, a: float, b: float) -> None:
        if a == b:
            return
        rel = abs(a - b) / max(abs(a), abs(b))
        if not rel <= self.rtol:  # beyond the tolerance, or nan
            pattern = INDEX.sub("[*]", path)
            count, worst = self.beyond.get(pattern, (0, 0.0))
            self.beyond[pattern] = (count + 1, max(worst, rel))
        elif rel > self.largest[0]:
            self.largest = (rel, path)

    def value(self, path: str, a, b) -> None:
        if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
            if a is not b:
                self.exact.append(f"{path} {a!r} -> {b!r}")
        elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
            self.number(path, float(a), float(b))
        elif isinstance(a, str) and isinstance(b, str):
            self.text(path, a, b)
        elif isinstance(a, dict) and isinstance(b, dict):
            if list(a) != list(b):
                self.exact.append(f"{path} keys {list(a)} -> {list(b)}")
            for key in [key for key in a if key in b]:
                self.value(f"{path}.{key}" if path else key, a[key], b[key])
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self.exact.append(f"{path} {len(a)} -> {len(b)} entries")
            for k, (x, y) in enumerate(zip(a, b)):
                label = x.get("name") if isinstance(x, dict) else None
                self.value(f"{path}[{label or k}]", x, y)
        else:
            self.exact.append(f"{path} {type(a).__name__} -> {type(b).__name__}")

    def text(self, path: str, a: str, b: str) -> None:
        if a == b:
            return
        lines_a, lines_b = a.splitlines(), b.splitlines()
        if len(lines_a) != len(lines_b):
            self.exact.append(f"{path} {len(lines_a)} -> {len(lines_b)} lines")
        for k, (x, y) in enumerate(zip(lines_a, lines_b)):
            where = f"{path}[{k + 1}]" if len(lines_a) > 1 else path
            if NUMBER.sub("#", x) != NUMBER.sub("#", y):
                self.exact.append(f"{where} {x!r} -> {y!r}")
                continue
            for m, (p, q) in enumerate(zip(NUMBER.findall(x), NUMBER.findall(y))):
                self.number(f"{where}#{m + 1}", float(p), float(q))

    @property
    def moved(self) -> bool:
        return bool(self.exact or self.beyond)

    def line(self, name: str, identical: bool) -> str:
        if self.moved:
            beyond = ", ".join(
                f"{pattern} ({count}x, up to {worst:.2g})"
                for pattern, (count, worst) in self.beyond.items()
            )
            parts = self.exact + ([f"beyond rtol {self.rtol:g}: {beyond}"] if beyond else [])
            return f"{name}: MOVED " + "; ".join(parts)
        if identical:
            return f"{name}: same"
        rel, where = self.largest
        return f"{name}: within rtol {self.rtol:g} (largest relative change {rel:.2g} at {where})"


def _read(directory: str, part: str) -> str | None:
    path = os.path.join(directory, part)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return fh.read()


def _parsed(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return text


def compare(a_dir: str, b_dir: str, rtol: float) -> tuple[str, bool]:
    """One invocation's line, and whether anything moved."""
    name = os.path.basename(a_dir.rstrip(os.sep))
    result = Comparison(rtol)
    identical = True
    for part in FILES:
        a, b = _read(a_dir, part), _read(b_dir, part)
        if a == b:
            continue
        identical = False
        if a is None or b is None:
            result.exact.append(f"{part} {'absent' if a is None else 'present'} -> "
                                f"{'absent' if b is None else 'present'}")
        elif part in EXACT:
            result.exact.append(f"{part} {a.strip()!r} -> {b.strip()!r}")
        else:
            result.value(part, _parsed(a), _parsed(b))
    return result.line(name, identical), result.moved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="OUTDIR of the reference checkout")
    parser.add_argument("b", help="OUTDIR of the checkout under test")
    parser.add_argument("--rtol", type=float, default=1e-10,
                        help="relative tolerance for numbers (default 1e-10)")
    args = parser.parse_args(argv)
    if not (os.path.isdir(args.a) and os.path.isdir(args.b)):
        print("error: A and B must be directories", file=sys.stderr)
        return 2
    moved = False
    for name in sorted(set(os.listdir(args.a)) | set(os.listdir(args.b))):
        a_dir, b_dir = os.path.join(args.a, name), os.path.join(args.b, name)
        if not (os.path.isdir(a_dir) and os.path.isdir(b_dir)):
            print(f"{name}: MOVED only in {'A' if os.path.isdir(a_dir) else 'B'}")
            moved = True
            continue
        line, changed = compare(a_dir, b_dir, args.rtol)
        print(line)
        moved = moved or changed
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
