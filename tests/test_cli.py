"""Command-line interface: exit codes, formats, determinism."""

import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from recipgas import cli
from recipgas.cli import build_parser, main
from recipgas.gasdyn import MAX_TERMS, standard_context
from recipgas.liealg import generator_from_dict
from recipgas.prolong import determining_residuals
from recipgas.reports import Report
from recipgas.transforms import OneParamFamily, ReciprocalMap, verify
from recipgas.transforms.catalog import entries
from recipgas.transforms.verify import residual_report

from helpers import assert_witness_holds

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = Path(__file__).resolve().parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_commutators(capsys):
    code, out = run(capsys, "commutators")
    assert code == 0
    assert "X3" in out and "-X3" in out and "-X5" in out


def test_commutators_json_reads_like_the_text_table(capsys):
    code, out = run(capsys, "--format", "json", "commutators")
    assert code == 0
    table = json.loads(out)["table"]
    assert table["[X3,X4]"] == "-X3"
    assert table["[X1,X2]"] == "0"
    assert table["[Xh,XF]"] == "-X[F(S)*h'(S)]"
    assert not [v for v in table.values() if "Fraction(" in v]


def test_verify_generator_pass(capsys):
    code, out = run(capsys, "verify-generator", "--generator", "X3")
    assert code == 0
    assert "verdict: PASS" in out


def test_verify_generator_names_the_constant_slices(capsys):
    # h = 1 and F = 1 carry the labels criterion 4 gives them
    for name in ("Xh1", "XF1"):
        code, out = run(capsys, "verify-generator", "--generator", name)
        assert code == 0
        assert out.startswith("== determining equations for %s ==\n" % name)


def test_verify_generator_from_file(capsys, tmp_path):
    d = {"zeta_rho": "rho", "zeta_u": "0", "zeta_v": "0", "zeta_p": "0",
         "zeta_S": "0", "form": [["0", "0"], ["0", "0"]]}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(d))
    code, out = run(capsys, "verify-generator", "--file", str(path))
    assert code == 1
    assert "verdict: FAIL" in out


def test_verify_generator_report_is_pinned(capsys, tmp_path, monkeypatch):
    # the failing generator above, as recorded in
    # data/verify_generator_zeta_rho.json: its witness is a point where the
    # momentum-x residual rho*(u*u_x + v*u_y) is 2233/4096
    d = {"zeta_rho": "rho", "zeta_u": "0", "zeta_v": "0", "zeta_p": "0",
         "zeta_S": "0", "form": [["0", "0"], ["0", "0"]]}
    monkeypatch.chdir(tmp_path)
    Path("g.json").write_text(json.dumps(d))
    code, out = run(capsys, "--format", "json", "verify-generator",
                    "--file", "g.json")
    assert code == 1
    assert out == (DATA / "verify_generator_zeta_rho.json").read_text()
    ds = determining_residuals(generator_from_dict(standard_context(), d))
    assert_witness_holds(json.loads(out), dict(ds.residuals))


def test_generator_file_takes_no_generator_flag(capsys, tmp_path):
    # --generator would be dropped in favour of the file, so it is refused;
    # with neither flag the generator is X3
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"zeta_rho": "rho"}))
    assert main(["verify-generator", "--file", str(path),
                 "--generator", "X3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    code, out = run(capsys, "verify-generator")
    assert code == 0 and "determining equations for X3" in out


def test_verify_map_catalog(capsys):
    code, out = run(capsys, "verify-map", "--catalog", "bateman",
                    "--param", "b1=1", "--param", "b2=0", "--param", "b3=1",
                    "--param", "b4=0")
    assert code == 0 and "verdict: PASS" in out


def test_verify_map_fail_exit_code(capsys):
    code, out = run(capsys, "verify-map", "--catalog", "mu_minus")
    assert code == 1 and "verdict: FAIL" in out
    assert "witness" in out


def test_verify_map_broken_file(capsys, tmp_path):
    bad = {
        "R": "rho", "U": "u", "V": "v", "P": "p", "H": "S",
        "form": [["1", "0"], ["0", "p"]],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(bad))
    code, out = run(capsys, "verify-map", "--file", str(path))
    assert code == 1


def test_missing_file_is_usage_error(capsys):
    code = main(["verify-map", "--file", "/no/such/file.json"])
    assert code == 2


def test_verify_point(capsys):
    code, out = run(capsys, "verify-point", "--catalog", "munk_prim")
    assert code == 0 and "verdict: PASS" in out


@pytest.mark.parametrize("name", ["munk_prim", "E1", "E2"])
def test_verify_point_report_is_pinned(capsys, name):
    # the point-symmetry reports as recorded in data/verify_point_*.json
    code, out = run(capsys, "--format", "json", "verify-point",
                    "--catalog", name)
    assert code == 0
    assert out == (DATA / ("verify_point_%s.json" % name)).read_text()


def test_verify_map_report_is_pinned(capsys):
    # a failing reciprocity report with both a witness and side conditions,
    # as recorded in data/verify_map_mu_minus.json
    code, out = run(capsys, "--format", "json", "verify-map",
                    "--catalog", "mu_minus")
    assert code == 1
    assert out == (DATA / "verify_map_mu_minus.json").read_text()


def test_verify_point_witness_is_a_failing_residual(capsys, monkeypatch):
    # the residuals verify_point_symmetry hands to residual_report
    seen = {}

    def recording(title, residuals, *args, **kw):
        seen.update(residuals)
        return residual_report(title, residuals, *args, **kw)

    monkeypatch.setattr(verify, "residual_report", recording)
    code, out = run(capsys, "--format", "json", "verify-point",
                    "--catalog", "mu_minus")
    assert code == 1
    rep = json.loads(out)
    assert rep["side_conditions"] == ["rho*psi(S)^2 != 0"]
    assert_witness_holds(rep, seen)


def test_solve_ansatz_degree0(capsys):
    code, out = run(capsys, "solve-ansatz", "--degree", "0")
    assert code == 0
    assert "dimension: 3" in out


def test_pushforward(capsys):
    code, out = run(capsys, "pushforward", "--catalog", "bateman",
                    "--param", "entropy=identity")
    assert code == 0
    assert "satisfies the automorphism constraints" in out


def test_pushforward_names_the_image_of_a_constant_slice(capsys):
    code, out = run(capsys, "pushforward", "--generator", "XF1")
    assert code == 1
    assert "bateman_*(XF1)(zs=1)" in out


@pytest.mark.parametrize("argv", [[], ["--catalog", "theorem"]])
def test_pushforward_defaults_to_the_identity_entropy(capsys, argv):
    # the default entry bateman and the symbolic theorem map (formal psi)
    # push forward through their solved inverses
    code, out = run(capsys, "pushforward", *argv)
    assert code == 0, out
    assert "satisfies the automorphism constraints" in out


def test_automorphism(capsys):
    code, out = run(capsys, "automorphism")
    assert code == 0
    assert "a33*a44-a34*a43-a33 = 0" in out


def test_lie_check(capsys):
    code, out = run(capsys, "lie-check", "--family", "one_param_linear")
    assert code == 0
    assert out.count("PASS Lie ") == 9 and out.count("PASS additivity ") == 9


@pytest.mark.parametrize("family, params", [
    ("one_param_bateman", ()),
    ("one_param_q13", ("q12=0", "q13=1")),
    ("one_param_exp", ("k1=1", "k2=1", "q12=0")),
    ("one_param_linear", ("k2=1", "q12=0")),
    ("one_param_q13", ("q12=q12", "q13=q13")),
])
def test_lie_check_is_exact(capsys, family, params):
    # criterion 7's families and a symbolic one pass with no tolerance
    argv = ["lie-check", "--family", family]
    for p in params:
        argv += ["--param", p]
    code, out = run(capsys, *argv)
    assert code == 0 and out.endswith("verdict: PASS\n")


def test_transform_and_closedness(capsys):
    code, out = run(capsys, "transform", "--flow", "constant",
                    "--catalog", "bateman_simplified", "--nodes", "9")
    assert code == 0
    code, out = run(capsys, "closedness", "--flow", "constant",
                    "--catalog", "bateman_simplified", "--nodes", "5")
    assert code == 0


@pytest.mark.parametrize("nodes", [3, 5])
def test_closedness_loop_is_the_grid_boundary(capsys, monkeypatch, nodes):
    # the vortex grid sits at origin (0.5, 0.3), away from the core at r = 0
    loops = []
    real = cli.loop_closedness

    def captured(sol, T, loop):
        loops.append(loop)
        return real(sol, T, loop)

    monkeypatch.setattr(cli, "loop_closedness", captured)
    code, _ = run(capsys, "closedness", "--flow", "vortex",
                  "--nodes", str(nodes))
    assert code == 0
    x1 = y1 = (nodes - 1) / 24
    assert loops == [[(0.5, 0.3), (0.5 + x1, 0.3), (0.5 + x1, 0.3 + y1),
                      (0.5, 0.3 + y1), (0.5, 0.3)]]
    assert all(x >= 0.5 for x, _ in loops[0])


def test_json_format_and_out_file(capsys, tmp_path):
    path = tmp_path / "rep.json"
    code, _ = run(capsys, "--format", "json", "--out", str(path),
                  "verify-map", "--catalog", "identity")
    assert code == 0
    data = json.loads(path.read_text())
    assert data["schema"] == 1
    assert data["verdict"] == "PASS"


def test_reports_are_deterministic(capsys):
    code1, out1 = run(capsys, "verify-map", "--catalog", "mu_minus",
                      "--seed", "20240801")
    code2, out2 = run(capsys, "verify-map", "--catalog", "mu_minus",
                      "--seed", "20240801")
    assert (code1, out1) == (code2, out2)


def test_seed_after_subcommand_accepted(capsys):
    code, _ = run(capsys, "lie-check", "--family", "one_param_linear",
                  "--seed", "7")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ("transform", "--nodes", "1"),
    ("transform", "--nodes", "2"),
    ("closedness", "--nodes", "1"),
    ("closedness", "--nodes", "2"),
    ("solve-ansatz", "--degree", "-1"),
])
def test_bad_sizes_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag,high", [
    ("transform", "--nodes", cli.MAX_NODES),
    ("closedness", "--nodes", cli.MAX_NODES),
    ("solve-ansatz", "--degree", cli.MAX_DEGREE),
])
def test_sizes_have_upper_bounds(capsys, command, flag, high):
    # argument parsing only: nothing runs at the bound
    parser = build_parser()
    args = parser.parse_args([command, flag, str(high)])
    assert getattr(args, flag[2:]) == high
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([command, flag, str(high + 1)])
    assert exc.value.code == 2
    assert "must be at most %d, got %d" % (high, high + 1) \
        in capsys.readouterr().err


@pytest.mark.parametrize("command", ["transform", "closedness"])
@pytest.mark.parametrize("value", ["1e400", "10^400"])
def test_parameter_too_large_for_a_float(capsys, command, value):
    assert main([command, "--catalog", "bateman", "--param",
                 "b1=" + value]) == 2
    assert capsys.readouterr().err == \
        "error: parameter b1=%s is too large for a float\n" % value


def test_coefficient_too_large_for_a_float(capsys):
    # each parameter fits a float, a coefficient of the map does not
    assert main(["transform", "--catalog", "bateman", "--nodes", "5",
                 "--param", "b1=1e160", "--param", "b2=0", "--param", "b3=1",
                 "--param", "b4=0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: coefficient too large for a float")
    assert err.count("\n") == 1


def test_exact_commands_take_a_parameter_too_large_for_a_float(capsys):
    code, _ = run(capsys, "verify-map", "--catalog", "bateman", "--param",
                  "b1=1e400")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ("closedness", "--tol", "nan"),
    ("closedness", "--tol", "0"),
    ("closedness", "--tol", "-1"),
    ("closedness", "--tol", "inf"),
])
def test_bad_tolerances_are_usage_errors(capsys, argv):
    # a tolerance no residual can pass would read as a verification FAIL
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "must be a positive finite number" in capsys.readouterr().err


@pytest.mark.parametrize("flow", ["constant", "shear", "vortex"])
def test_grid_without_width_is_a_usage_error(capsys, flow):
    # the 1-cell margins of the primed grid leave 3 nodes no width
    assert main(["transform", "--flow", flow, "--nodes", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert main(["transform", "--flow", flow, "--nodes", "4"]) == 0


@pytest.mark.parametrize("alpha", [2 ** 12, 2 ** 20, 2 ** 30])
def test_transform_under_a_dilation(capsys, alpha):
    # mu_plus dilates the form matrix by alpha, which pushes the primed
    # vortex grid to where an ulp of a coordinate passes NEWTON_TOL
    assert main(["transform", "--flow", "vortex", "--catalog", "mu_plus",
                 "--param", "psi=1", "--param", "alpha=%d" % alpha,
                 "--nodes", "65"]) == 0
    assert capsys.readouterr().out.endswith("verdict: PASS\n")


def test_unbound_parameter_is_named(capsys):
    assert main(["transform", "--catalog", "theorem"]) == 2
    assert capsys.readouterr().err == "error: no value for a35\n"


@pytest.mark.parametrize("argv", [
    ("verify-map", "--catalog", "munk_prim", "--param", "a33=2"),
    ("lie-check", "--family", "munk_prim"),
    ("verify-point", "--catalog", "E1", "--param", "psi=1"),
    ("verify-map", "--catalog", "bateman", "--param", "zz=1"),
    ("lie-check", "--family", "one_param_linear", "--param", "zz=1"),
    ("verify-point", "--catalog", "munk_prim", "--param", "zz=1"),
    ("verify-map", "--catalog", "bateman_simplified", "--param", "b3=0"),
    ("verify-map", "--catalog", "one_param_q13", "--param", "b1=5"),
    ("verify-point", "--catalog", "munk_prim", "--param", "psi=identity"),
    ("verify-map", "--catalog", "bateman", "--param", "b1=formal"),
    ("lie-check", "--family", "E1"),
    ("lie-check", "--family", "bateman"),
    ("transform", "--catalog", "nonsense"),
    # a misspelt word is an unknown name, not a new free variable
    ("verify-map", "--catalog", "bateman", "--param", "b1=fromal"),
    ("verify-point", "--catalog", "munk_prim", "--param", "psi=idnetity"),
    # a total degree beyond the packed-exponent limit
    ("verify-map", "--catalog", "one_param_q13", "--param", "q13=x^40000"),
    # a zero denominator in a rational value
    ("verify-map", "--catalog", "bateman", "--param", "b1=1/0"),
    ("pushforward", "--param", "b1=1/0"),
    ("lie-check", "--param", "entropy=1/0"),
])
def test_bad_catalog_requests_are_usage_errors(capsys, argv):
    # a map where a family is needed, a parameter the entry does not take
    # (munk_prim takes only psi of mu_plus), or a bad value: exit 2 with
    # one line, not a traceback
    assert main(list(argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["transform", "closedness"])
@pytest.mark.parametrize("family", entries(OneParamFamily))
def test_numeric_commands_take_only_maps(capsys, command, family):
    # a family's map keeps eps free, and the float evaluators need a value
    # for every symbol: help lists only maps, and a family is refused for
    # its kind
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert family not in capsys.readouterr().out
    assert main([command, "--catalog", family]) == 2
    assert capsys.readouterr().err == \
        "error: %s is of kind OneParamFamily, need ReciprocalMap: %s\n" % (
            family, ", ".join(entries(ReciprocalMap)))


@pytest.mark.parametrize("argv,value", [
    (("verify-point", "--catalog", "munk_prim", "--param", "psi=identity"),
     "'identity'"),
    (("verify-map", "--catalog", "bateman", "--param", "b1=formal"),
     "'formal'"),
    (("verify-point", "--catalog", "munk_prim", "--param", "psi=0"),
     "division by zero"),
    (("verify-map", "--catalog", "theorem", "--param", "psi=0"),
     "division by zero"),
])
def test_words_are_not_parameter_values(capsys, argv, value):
    # only entropy takes the words identity/formal; elsewhere they must not
    # become free variables of a different, symbolic map.  A value that
    # makes a denominator zero is refused with a message that says so
    assert main(list(argv)) == 2
    assert value in capsys.readouterr().err


def test_denominator_emptied_by_substitution_is_a_usage_error(
        capsys, tmp_path, monkeypatch):
    # no command substitutes a value that empties a denominator of the
    # map by itself, so verify-map here first sends u to v in the map
    # rho' = rho/(u-v): the substitution raises, and the command exits 2
    # with the kernel's message
    record = {"R": "rho/(u-v)", "U": "u", "V": "v", "P": "p", "H": "S",
              "form": [["1", "0"], ["0", "1"]]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(record))
    check = cli.verify_reciprocal
    monkeypatch.setattr(cli, "verify_reciprocal", lambda T, *a, **k: check(
        T.substitute({"u": T.V}), *a, **k))
    assert main(["verify-map", "--file", str(path)]) == 2
    assert capsys.readouterr().err == "error: division by zero\n"


@pytest.mark.parametrize("option", [("--points", "5"), ("--tol", "1e-9")])
def test_lie_check_takes_no_sampling_options(capsys, option):
    # the exact check has no sample points and no tolerance
    with pytest.raises(SystemExit) as exc:
        main(["lie-check", *option])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _readme_commands():
    text = (SRC.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [shlex.split(line.split("#", 1)[0])[1:]
            for line in block.splitlines() if line.startswith("recipgas ")]


def test_readme_commands_name_entries_of_the_right_kind():
    # argparse does not check catalog names; the registry does, so the
    # documented commands must name entries of the kinds they take
    commands = _readme_commands()
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        if hasattr(args, "kinds"):
            assert args.entry in entries(*args.kinds), argv


def test_empty_report_fails():
    rep = Report("nothing checked")
    assert not rep.passed and rep.verdict == "FAIL"
    rep.add("one check", True)
    assert rep.passed


def test_module_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-m", "recipgas", "--help"],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "paper-suite" in proc.stdout


@pytest.mark.parametrize("extra", [
    ("--catalog", "mu_minus"),
    ("--param", "b1=0"),
    ("--catalog", "munk_prim", "--param", "psi=1"),
])
def test_map_file_takes_no_catalog_flags(capsys, tmp_path, extra):
    # the flags would be dropped in favour of the file, so they are refused
    path = tmp_path / "identity.json"
    path.write_text(json.dumps({"R": "rho", "U": "u", "V": "v", "P": "p",
                                "H": "S", "form": [["1", "0"], ["0", "1"]]}))
    assert main(["verify-map", "--file", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify-map", "--file", str(path), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("record, key", [
    ({}, "form"),
    ({"R": "rho", "U": "u", "V": "v", "P": "p", "H": "S",
      "form": [["1", "0"]]}, "form"),
    ({"R": "rho", "U": "u", "V": "v", "P": "p", "H": 1,
      "form": [["1", "0"], ["0", "1"]]}, "H"),
    ({"R": "rho", "U": "u", "V": "vv", "P": "p", "H": "S",
      "form": [["1", "0"], ["0", "1"]]}, "V"),
    ({"R": "rho", "U": "u", "V": "v", "P": "p", "H": "S",
      "form": [["1", "0"], ["0", "1"]], "Q": "p"}, "Q"),
    # a map carries no inverse and no params: both keys are unknown
    ({"R": "rho", "U": "u", "V": "v", "P": "p", "H": "S",
      "form": [["1", "0"], ["0", "1"]], "inverse": {"zz": "rho"}}, "inverse"),
    ({"R": "rho^2^2^2^2^2", "U": "u", "V": "v", "P": "p", "H": "S",
      "form": [["1", "0"], ["0", "1"]]}, "R"),
    ({"R": "rho^9^9^9", "U": "u", "V": "v", "P": "p", "H": "S",
      "form": [["1", "0"], ["0", "1"]]}, "R"),
    ({"R": "2^(9^9)", "U": "u", "V": "v", "P": "p", "H": "S",
      "form": [["1", "0"], ["0", "1"]]}, "R"),
    ({"R": "rho", "U": "u", "V": "v", "P": "p", "H": "S",
      "form": [["1", "0"], ["0", "1"]],
      "inverse": {"rho": "2*rho", "u": "u", "v": "v", "p": "p", "S": "S"}},
     "inverse"),
    ({"R": "rho", "U": "u", "V": "v", "P": "p", "H": "S",
      "form": [["1", "0"], ["0", "1"]], "params": {"b1": "1"}}, "params"),
])
def test_malformed_map_file_is_usage_error(capsys, tmp_path, record, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(record))
    assert main(["verify-map", "--file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert repr(key) in err


@pytest.mark.parametrize("key, value", [
    ("R", "(" * 3000 + "rho" + ")" * 3000),
    ("R", "rho^" + "^".join(["1"] * 3000)),
    ("H", "F(" * 600 + "S" + ")" * 600),
])
def test_deep_nesting_is_usage_error(capsys, tmp_path, key, value):
    # each used to exit 3 with a RecursionError from the parser
    record = {"R": "rho", "U": "u", "V": "v", "P": "p", "H": "S",
              "form": [["1", "0"], ["0", "1"]], key: value}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(record))
    assert main(["verify-map", "--file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: map key %r: nesting deeper than" % key)
    assert err.count("\n") == 1


# 7315 terms once expanded, parsed in about 0.1 s: the map's verdict took
# 85-125 s before the term budget refused it
TOO_MANY_TERMS = "rho*(u+v+p+rho+S)^18"


def test_term_budget_refuses_a_map_record(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"R": TOO_MANY_TERMS, "U": "u", "V": "v",
                                "P": "p", "H": "S",
                                "form": [["1", "0"], ["0", "1"]]}))
    start = time.perf_counter()
    assert main(["verify-map", "--file", str(path)]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == \
        "error: map key 'R': 7315 terms, more than the %d allowed\n" \
        % MAX_TERMS


def test_term_budget_refuses_a_param_value(capsys):
    start = time.perf_counter()
    assert main(["verify-map", "--catalog", "bateman",
                 "--param", "b1=" + TOO_MANY_TERMS]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == \
        "error: 7315 terms, more than the %d allowed\n" % MAX_TERMS


def test_witness_beyond_integer_string_limit(capsys, tmp_path):
    # the witness residual of rho -> rho^16384 has more digits than Python
    # converts to a string; the report approximates it and ends with the
    # verdict
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"R": "rho^2^14", "U": "u", "V": "v",
                                "P": "p", "H": "S",
                                "form": [["1", "0"], ["0", "1"]]}))
    assert main(["verify-map", "--file", str(path)]) == 1
    out = capsys.readouterr().out
    assert "-digit numerator" in out and "verdict: FAIL" in out


def _digits_value(digits):
    """The integer of a decimal digit string, read in pieces that stay
    inside Python's integer string limit."""
    n = 0
    for i in range(0, len(digits), 1000):
        piece = digits[i:i + 1000]
        n = n * 10 ** len(piece) + int(piece)
    return n


@pytest.mark.parametrize("field, value, code", [
    ("R", "(2*rho)^2^14", 1),
    ("H", "F(2^16384*S)", 0),
])
def test_coefficient_beyond_integer_string_limit(capsys, tmp_path, field,
                                                 value, code):
    # 2^16384 has 4933 digits, more than Python converts to a string; the
    # report, and the atom key of F(2^16384*S), write it out exactly
    record = {"R": "rho", "U": "u", "V": "v", "P": "p", "H": "S",
              "form": [["1", "0"], ["0", "1"]], field: value}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(record))
    assert main(["verify-map", "--file", str(path)]) == code
    out = capsys.readouterr().out
    assert out.rstrip().endswith("verdict: %s" % ("PASS", "FAIL")[code])
    if field == "R":
        line = next(ln for ln in out.splitlines()
                    if "density-map-nonzero" in ln)
        digits = line.split(": ", 1)[1]
        assert digits.endswith("*rho^16384")
        digits = digits[:-len("*rho^16384")]
        assert len(digits) == 4933
        assert _digits_value(digits) == 2 ** 16384


def test_value_text_beyond_integer_string_limit():
    from fractions import Fraction

    from recipgas.transforms.verify import _value_text
    assert _value_text(Fraction(-3, 7)) == "-3/7"
    assert _value_text(Fraction(3 * 10 ** 5000, 7)) == (
        "4.285714e+4999 (approximately; 5001-digit numerator, 1-digit "
        "denominator)")
    assert _value_text(Fraction(-1, 10 ** 6000 - 1)) == (
        "-1.000000e-6000 (approximately; 1-digit numerator, 6000-digit "
        "denominator)")


@pytest.mark.parametrize("record, key", [
    ({"zeta_rho": "rho", "form": [["1", "0"]]}, "form"),
    ({"zeta_rho": 5}, "zeta_rho"),
    ({"zeta_u": "rho*uu"}, "zeta_u"),
    ({"zeta_rh": "rho"}, "zeta_rh"),
])
def test_malformed_generator_file_is_usage_error(capsys, tmp_path, record,
                                                 key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(record))
    assert main(["verify-generator", "--file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert repr(key) in err


@pytest.mark.parametrize("command", ["verify-map", "verify-generator"])
def test_file_not_utf8_is_usage_error(capsys, tmp_path, command):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe")
    assert main([command, "--file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_infinite_transformed_residual_fails(capsys, monkeypatch):
    # inf == inf, so only a finiteness test catches a blown-up residual
    monkeypatch.setattr(cli, "fd_residuals",
                        lambda sol: {"mass": float("inf")})
    code, out = run(capsys, "transform", "--nodes", "5")
    assert code == 1 and "verdict: FAIL" in out


def test_internal_error_exits_3(capsys, monkeypatch):
    # a bug is not a verification FAIL (1) nor a usage error (2)
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_commutators", broken)
    assert main(["commutators"]) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"
