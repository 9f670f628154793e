"""The CLI against its recorded output.

data/transform_outputs.json holds one record per invocation, in the order
of TRANSFORM, then EXACT.

- `transform --format json` (TRANSFORM): the exit code and the JSON
  report.  Everything but the extras must be equal; in an extra, the text
  around the numbers must be equal and each number must lie within
  REL_TOL of its recorded value (ABS_TOL for values at zero): the numbers
  are FD residuals and grid sizes that a change in the order of float
  operations may move in the last digit printed.
- The exact commands (EXACT), each with --format json: the exit code,
  stdout and stderr, which must be equal character for character.

Run this file with Python to rewrite the record from the current program:

    PYTHONPATH=src python tests/test_transform_outputs.py
"""

import contextlib
import io
import json
import math
import re
from pathlib import Path

from recipgas.cli import main
from recipgas.transforms import OneParamFamily
from recipgas.transforms.catalog import entries

DATA = Path(__file__).resolve().parent / "data" / "transform_outputs.json"
# at 17 nodes (the default) every Newton start is found by the blocked
# search, at 65 nodes through the buckets
TRANSFORM = [["--format", "json", "transform", "--flow", flow,
              "--nodes", nodes] for nodes in ("17", "65")
             for flow in ("constant", "shear", "vortex")]
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
# the report prints 4 significant digits: one unit in the last of them
REL_TOL = 1e-3
# numerics.RESIDUAL_FLOOR: residuals below it count as converged
ABS_TOL = 1e-13
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def record(argv):
    """{"argv", "exit", "stdout", "stderr"} of one in-process run of the
    CLI; for transform the JSON report replaces stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    if "transform" in argv:
        return {"argv": list(argv), "exit": code,
                "report": json.loads(out.getvalue())}
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def _recorded(kind):
    """The records that hold the key kind."""
    return [r for r in json.loads(DATA.read_text()) if kind in r]


def _split(text):
    """(text with each number replaced by #, the numbers as floats)."""
    return NUMBER.sub("#", text), [float(m) for m in NUMBER.findall(text)]


def test_transform_outputs():
    recorded = _recorded("report")
    assert [r["argv"] for r in recorded] == TRANSFORM
    for want in recorded:
        got = record(want["argv"])
        assert got["exit"] == want["exit"], want["argv"]
        got_report, want_report = dict(got["report"]), dict(want["report"])
        got_extras = got_report.pop("extras")
        want_extras = want_report.pop("extras")
        assert got_report == want_report, want["argv"]
        assert got_extras.keys() == want_extras.keys(), want["argv"]
        for key, text in want_extras.items():
            (got_text, got_nums), (want_text, want_nums) = \
                _split(got_extras[key]), _split(text)
            assert got_text == want_text, (want["argv"], key)
            assert all(math.isclose(g, w, rel_tol=REL_TOL, abs_tol=ABS_TOL)
                       for g, w in zip(got_nums, want_nums)), \
                (want["argv"], key, got_extras[key], text)


def test_exact_outputs():
    recorded = _recorded("stdout")
    assert [r["argv"] for r in recorded] == EXACT
    for want in recorded:
        assert record(want["argv"]) == want


if __name__ == "__main__":
    DATA.write_text(json.dumps([record(a) for a in TRANSFORM + EXACT],
                               indent=1, sort_keys=True) + "\n")
