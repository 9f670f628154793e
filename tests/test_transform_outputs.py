"""The CLI against its recorded output.

data/transform_outputs.json holds one record per invocation, in the order
of TRANSFORM, CLOSEDNESS, EXACT, then USAGE.

- `transform --format json` (TRANSFORM) and `closedness --format json`
  (CLOSEDNESS): the exit code and the JSON report.  Everything but the
  extras and the check details must be equal; in an extra or a detail,
  the text around the numbers must be equal and each number must lie
  within REL_TOL of its recorded value (ABS_TOL for values at zero): the
  numbers are FD residuals, loop sums and grid sizes that a change in the
  order of float operations may move in the last digit printed.
- The exact commands (EXACT), each with --format json, and every bad
  input of tests/test_cli.py that exits 2 (USAGE): the exit code, stdout
  and stderr, which must be equal character for character.  Each runs in
  an empty temporary directory holding its input files, if any, written
  in Latin-1 (one byte per character, so a record can hold bytes that
  are not UTF-8), with COLUMNS=80 for argparse's usage lines.  The one
  exit-2 case of tests/test_cli.py that patches the program first is not
  an invocation and is left out, and so are the two term-budget cases,
  which tests/test_cli.py checks character for character itself.

Run this file with Python to rewrite the record from the current program:

    PYTHONPATH=src python tests/test_transform_outputs.py
"""

import contextlib
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

from recipgas.cli import MAX_DEGREE, MAX_NODES, main
from recipgas.transforms import OneParamFamily
from recipgas.transforms.catalog import entries

DATA = Path(__file__).resolve().parent / "data" / "transform_outputs.json"
# at 17 nodes (the default) every Newton start is found by the blocked
# search, at 65 nodes through the buckets
TRANSFORM = [["--format", "json", "transform", "--flow", flow,
              "--nodes", nodes] for nodes in ("17", "65")
             for flow in ("constant", "shear", "vortex")]
CLOSEDNESS = [["--format", "json", "closedness", "--flow", flow]
              for flow in ("constant", "shear", "vortex")]
NUMERIC = TRANSFORM + CLOSEDNESS
# pushforward under mu_minus exits 2 and verify-map of mu_minus exits 1
EXACT = [["--format", "json", *argv] for argv in [
    ["commutators"], ["automorphism"], ["solve-ansatz"],
    *(["pushforward", "--catalog", name]
      for name in ("bateman", "theorem", "mu_minus")),
    *(["verify-map", "--catalog", name] for name in entries()),
    *(["lie-check", "--family", name] for name in entries(OneParamFamily)),
    *(["verify-point", "--catalog", name]
      for name in ("E1", "E2", "munk_prim")),
    *(["verify-generator", "--generator", name]
      for name in ("X1", "X2", "X3", "X4", "X5", "Xh", "XF", "Xh1", "XF1")),
]]


def _map(**changes):
    """The text of the identity map's record with the given keys changed."""
    return json.dumps({"R": "rho", "U": "u", "V": "v", "P": "p", "H": "S",
                       "form": [["1", "0"], ["0", "1"]], **changes})


# (argv, {file name: text}) of each bad input, in the order of
# tests/test_cli.py
USAGE = [
    (["verify-generator", "--file", "g.json", "--generator", "X3"],
     {"g.json": json.dumps({"zeta_rho": "rho"})}),
    (["verify-map", "--file", "/no/such/file.json"], {}),
    *(([*argv], {}) for argv in [
        ("transform", "--nodes", "1"),
        ("transform", "--nodes", "2"),
        ("closedness", "--nodes", "1"),
        ("closedness", "--nodes", "2"),
        ("solve-ansatz", "--degree", "-1"),
        ("transform", "--nodes", str(MAX_NODES + 1)),
        ("closedness", "--nodes", str(MAX_NODES + 1)),
        ("solve-ansatz", "--degree", str(MAX_DEGREE + 1)),
        *((command, "--catalog", "bateman", "--param", "b1=" + value)
          for value in ("1e400", "10^400")
          for command in ("transform", "closedness")),
        ("transform", "--catalog", "bateman", "--nodes", "5", "--param",
         "b1=1e160", "--param", "b2=0", "--param", "b3=1", "--param",
         "b4=0"),
        *(("closedness", "--tol", tol) for tol in ("nan", "0", "-1", "inf")),
        *(("transform", "--flow", flow, "--nodes", "3")
          for flow in ("constant", "shear", "vortex")),
        ("transform", "--catalog", "theorem"),
        ("verify-map", "--catalog", "munk_prim", "--param", "a33=2"),
        ("lie-check", "--family", "munk_prim"),
        ("verify-point", "--catalog", "E1", "--param", "psi=1"),
        ("verify-map", "--catalog", "bateman", "--param", "zz=1"),
        ("lie-check", "--family", "one_param_linear", "--param", "zz=1"),
        ("verify-point", "--catalog", "munk_prim", "--param", "zz=1"),
        ("verify-map", "--catalog", "bateman_simplified", "--param", "b3=0"),
        ("verify-map", "--catalog", "one_param_q13", "--param", "b1=5"),
        ("verify-point", "--catalog", "munk_prim", "--param",
         "psi=identity"),
        ("verify-map", "--catalog", "bateman", "--param", "b1=formal"),
        ("lie-check", "--family", "E1"),
        ("lie-check", "--family", "bateman"),
        ("transform", "--catalog", "nonsense"),
        ("verify-map", "--catalog", "bateman", "--param", "b1=fromal"),
        ("verify-point", "--catalog", "munk_prim", "--param",
         "psi=idnetity"),
        ("verify-map", "--catalog", "one_param_q13", "--param",
         "q13=x^40000"),
        ("verify-map", "--catalog", "bateman", "--param", "b1=1/0"),
        ("pushforward", "--param", "b1=1/0"),
        ("lie-check", "--param", "entropy=1/0"),
        *((command, "--catalog", family)
          for command in ("transform", "closedness")
          for family in entries(OneParamFamily)),
        ("verify-point", "--catalog", "munk_prim", "--param", "psi=0"),
        ("verify-map", "--catalog", "theorem", "--param", "psi=0"),
        ("lie-check", "--points", "5"),
        ("lie-check", "--tol", "1e-9"),
    ]),
    *((["verify-map", "--file", "identity.json", *extra],
       {"identity.json": _map()})
      for extra in (["--catalog", "mu_minus"], ["--param", "b1=0"],
                    ["--catalog", "munk_prim", "--param", "psi=1"])),
    *((["verify-map", "--file", "bad.json"], {"bad.json": text})
      for text in [
          json.dumps({}),
          _map(form=[["1", "0"]]),
          _map(H=1),
          _map(V="vv"),
          _map(Q="p"),
          _map(inverse={"zz": "rho"}),
          _map(R="rho^2^2^2^2^2"),
          _map(R="rho^9^9^9"),
          _map(R="2^(9^9)"),
          _map(inverse={"rho": "2*rho", "u": "u", "v": "v", "p": "p",
                        "S": "S"}),
          _map(params={"b1": "1"}),
      ]),
    *((["verify-map", "--file", "deep.json"],
       {"deep.json": _map(**{key: value})})
      for key, value in [("R", "(" * 3000 + "rho" + ")" * 3000),
                         ("R", "rho^" + "^".join(["1"] * 3000)),
                         ("H", "F(" * 600 + "S" + ")" * 600)]),
    *((["verify-generator", "--file", "bad.json"],
       {"bad.json": json.dumps(d)})
      for d in [{"zeta_rho": "rho", "form": [["1", "0"]]}, {"zeta_rho": 5},
                {"zeta_u": "rho*uu"}, {"zeta_rh": "rho"}]),
    *(([command, "--file", "bad.json"], {"bad.json": "\xff\xfe"})
      for command in ("verify-map", "verify-generator")),
]
# the report prints 4 significant digits: one unit in the last of them
REL_TOL = 1e-3
# numerics.RESIDUAL_FLOOR: residuals below it count as converged
ABS_TOL = 1e-13
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


@contextlib.contextmanager
def _inside(path):
    """Run the body with path as the working directory (contextlib.chdir
    needs Python 3.11)."""
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def record(argv, files=None):
    """{"argv", "exit", "stdout", "stderr"} of one in-process run of the
    CLI in a new directory holding the files, and "files" when there are
    any; for NUMERIC the JSON report replaces stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, _inside(tmp), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for name, text in (files or {}).items():
            Path(name).write_text(text, encoding="latin-1")
        try:
            code = main(list(argv))
        except SystemExit as exit_:     # argparse refuses an argument
            code = exit_.code
    if list(argv) in NUMERIC:
        return {"argv": list(argv), "exit": code,
                "report": json.loads(out.getvalue())}
    rec = {"argv": list(argv), "exit": code, "stdout": out.getvalue(),
           "stderr": err.getvalue()}
    if files:
        rec["files"] = files
    return rec


def _recorded(kind):
    """The records that hold the key kind."""
    return [r for r in json.loads(DATA.read_text()) if kind in r]


def _split(text):
    """(text with each number replaced by #, the numbers as floats)."""
    return NUMBER.sub("#", text), [float(m) for m in NUMBER.findall(text)]


def _assert_close(got, want, where):
    """got and want are equal but for numbers within the tolerances."""
    (got_text, got_nums), (want_text, want_nums) = _split(got), _split(want)
    assert got_text == want_text, where
    assert all(math.isclose(g, w, rel_tol=REL_TOL, abs_tol=ABS_TOL)
               for g, w in zip(got_nums, want_nums)), (where, got, want)


def test_transform_outputs():
    recorded = _recorded("report")
    assert [r["argv"] for r in recorded] == NUMERIC
    for want in recorded:
        got = record(want["argv"])
        assert got["exit"] == want["exit"], want["argv"]
        got_report, want_report = dict(got["report"]), dict(want["report"])
        got_extras = got_report.pop("extras")
        want_extras = want_report.pop("extras")
        got_checks = got_report.pop("checks")
        want_checks = want_report.pop("checks")
        assert got_report == want_report, want["argv"]
        assert got_extras.keys() == want_extras.keys(), want["argv"]
        for key, text in want_extras.items():
            _assert_close(got_extras[key], text, (want["argv"], key))
        assert len(got_checks) == len(want_checks), want["argv"]
        for got_check, want_check in zip(got_checks, want_checks):
            got_detail = got_check.pop("detail")
            want_detail = want_check.pop("detail")
            assert got_check == want_check, want["argv"]
            _assert_close(got_detail, want_detail,
                          (want["argv"], want_check["name"]))


def test_exact_outputs():
    recorded = _recorded("stdout")
    assert [r["argv"] for r in recorded] == \
        EXACT + [argv for argv, _ in USAGE]
    for want in recorded:
        assert record(want["argv"], want.get("files")) == want


def test_usage_records_exit_2():
    # every bad input exits 2 with a message on stderr and nothing on
    # stdout
    recorded = _recorded("stdout")[len(EXACT):]
    assert [r["argv"] for r in recorded] == [argv for argv, _ in USAGE]
    for r in recorded:
        assert (r["exit"], r["stdout"]) == (2, ""), r["argv"]
        assert r["stderr"].endswith("\n"), r["argv"]


if __name__ == "__main__":
    DATA.write_text(json.dumps(
        [record(a) for a in NUMERIC + EXACT] +
        [record(a, files) for a, files in USAGE],
        indent=1, sort_keys=True) + "\n")
