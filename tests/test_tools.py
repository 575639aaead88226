import importlib.util
import json
import os

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def _load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(TOOLS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _invocation(root, name, out, code=0, stderr=""):
    target = root / name
    target.mkdir(parents=True)
    (target / "code").write_text(f"{code}\n")
    (target / "stderr").write_text(stderr)
    (target / "stdout").write_text("")
    (target / "out").write_text(out if isinstance(out, str) else json.dumps(out, indent=2))


def test_compare_invocations_by_value(tmp_path, capsys):
    compare = _load("compare_invocations")
    check = {"name": "spectral:eigen_residual", "passed": True, "skipped": False,
             "margin": 0.5, "detail": "residual 1.000e-10"}
    before = {"spectrum": {"lambda0": 191.25, "lambda1": 208.8}, "checks": [check]}
    a, b = tmp_path / "a", tmp_path / "b"
    for root, lam0, margin, passed, row in (
        (a, 191.25, 0.5, True, "0,1.5,0.25"),
        (b, 191.25 * (1 + 1e-12), 0.5 * (1 + 1e-6), False, "0,1.5,0.2500001"),
    ):
        _invocation(root, "same", before)
        _invocation(root, "close", {**before, "spectrum": {"lambda0": lam0, "lambda1": 208.8}})
        _invocation(root, "moved", {**before, "checks": [{**check, "passed": passed,
                                                          "margin": margin}]})
        _invocation(root, "csv", "n,energy,gamma\n" + row + "\n")
    _invocation(a, "exit", before)
    _invocation(b, "exit", before, code=2, stderr="error: x\n")
    assert compare.main([str(a), str(b)]) == 1
    lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert lines["same"] == "same"
    assert lines["close"].startswith("within rtol 1e-10 (largest relative change 1e-12 at")
    assert lines["close"].endswith("out.spectrum.lambda0)")
    assert lines["moved"] == (
        "MOVED out.checks[spectral:eigen_residual].passed True -> False; beyond rtol "
        "1e-10: out.checks[spectral:eigen_residual].margin (1x, up to 1e-06)"
    )
    assert lines["csv"].startswith("MOVED beyond rtol 1e-10: out[*]#3 (1x, up to 4e-07)")
    assert lines["exit"] == "MOVED code '0' -> '2'; stderr '' -> 'error: x'"
    assert compare.main([str(a), str(a)]) == 0


def test_cli_invocations_records_the_parser(tmp_path, monkeypatch, capsys):
    # only the usage errors, --help and --version: the parser's, and the
    # file inputs' usage errors
    invocations = _load("cli_invocations")
    calls = invocations.PARSER + tuple(
        call for call in invocations.FILES if call[0].startswith("usage-"))
    monkeypatch.setenv("COLUMNS", "80")  # the tool sets it; restored after the test
    monkeypatch.setattr(invocations, "invocations", lambda: iter(calls))
    out = tmp_path / "out"
    assert invocations.main([str(out)]) == 0
    capsys.readouterr()

    def read(name, part):
        return (out / name / part).read_text()

    for name, _ in calls:
        usage_error = name.startswith("usage-")
        assert read(name, "code") == ("1\n" if usage_error else "0\n")
        if usage_error:
            err = read(name, "stderr")
            assert err.count("\n") == 1 and err.startswith("error: ")
    assert read("usage-config-unknown-key", "stderr") == "error: unknown config keys: betta\n"
    assert read("help", "stdout").startswith("usage: gpflow [-h] [--version]")
    assert read("help-verify", "stdout").startswith("usage: gpflow verify [-h]")
    assert "--cross-scheme" in read("help-verify", "stdout")
    assert read("version", "stdout").startswith("gpflow ")


def test_count_lines_by_kind(tmp_path, capsys):
    count_lines = _load("count_lines")
    source = '''"""Module docstring,
on two lines."""

import os  # a trailing comment is code


# a comment line
class A:
    """Class docstring."""

    def f(self):
        """Method
        docstring.
        """
        text = """not a docstring

        but a string"""
        return (text,
                os.sep)
'''
    assert count_lines.count(source) == {
        "total": 19, "code": 8, "docstring": 6, "comment": 1, "blank": 4}
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "m.py").write_text(source)
    (tmp_path / "pkg" / "empty.py").write_text("")
    assert count_lines.main([str(tmp_path / "pkg")]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["module", "total", "code", "docstring", "comment", "blank"]
    assert rows[1:] == [["empty.py", "0", "0", "0", "0", "0"],
                        ["m.py", "19", "8", "6", "1", "4"],
                        ["total", "19", "8", "6", "1", "4"]]
