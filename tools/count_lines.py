"""Count the lines of a Python package by kind.

    python tools/count_lines.py src/gpflow

Prints one row per module (every ``*.py`` under the directory, by relative
path) and a package total, each with its total, code, docstring, comment
and blank lines.  Every line is of exactly one kind:

- docstring: a line of a string statement that comes first in a module,
  class or function body;
- code: any other line that a token other than a comment touches (every
  line of a multi-line string or bracketed expression included);
- comment: a line that holds only a comment;
- blank: the rest.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize

KINDS = ("total", "code", "docstring", "comment", "blank")
LAYOUT = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The line counts of one module's source, keyed by KINDS."""
    docstring = _docstring_lines(ast.parse(source))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    total = len(source.splitlines())
    code -= docstring
    comment -= docstring | code
    counts = {"total": total, "code": len(code), "docstring": len(docstring),
              "comment": len(comment)}
    counts["blank"] = total - counts["code"] - counts["docstring"] - counts["comment"]
    return counts


def count_package(root: str) -> dict[str, dict[str, int]]:
    """count() of every module under root, by path relative to root."""
    modules = {}
    for folder, dirs, files in os.walk(root):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as f:
                    modules[os.path.relpath(path, root)] = count(f.read())
    return modules


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Count a package's lines by kind.")
    parser.add_argument("package", help="a package directory, such as src/gpflow")
    args = parser.parse_args(argv)
    if not os.path.isdir(args.package):
        parser.error(f"no directory {args.package}")
    modules = count_package(args.package)
    modules["total"] = {kind: sum(m[kind] for m in modules.values()) for kind in KINDS}
    width = max(len(name) for name in modules)
    print(f"{'module':<{width}}" + "".join(f"{kind:>11}" for kind in KINDS))
    for name, counts in modules.items():
        print(f"{name:<{width}}" + "".join(f"{counts[kind]:>11,}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
