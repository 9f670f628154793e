"""Command-line front end.

Exit codes: 0 when the requested verification passes, 1 when it fails,
2 on usage or input errors, 3 on an internal error.  All randomness flows
from --seed, so identical invocations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import accept
from .gasdyn import standard_context
from .liealg import (_entry_text, commutator_table_text, constant_slices,
                     generator_from_dict, megaideal_constraints,
                     reciprocal_algebra, standard_basis, x_f, x_h)
from .numerics import (ConstantFlow, GridSpec, ShearFlow, VortexFlow,
                       fd_residuals, loop_closedness, make_solution,
                       transform_solution)
from .prolong import determining_residuals
from .reports import Report
from .symkernel import Expr, parse
from .symkernel.errors import InvalidParams, SymkernelError
from .transforms import (OneParamFamily, ReciprocalMap, catalog, decompose,
                         load_map, pushforward, pushforward_matrix,
                         verify_automorphism_solution, verify_flow,
                         verify_point_symmetry, verify_reciprocal)
from .transforms.catalog import entries, parameters
from .transforms.verify import DEFAULT_SEED, residual_report


def _parse_value(ctx, text):
    if text in ("identity", "formal"):
        return text
    try:
        return Fraction(text)
    except ValueError:
        return parse(ctx, text)
    except ZeroDivisionError:
        raise SymkernelError("zero denominator in value %r" % text) from None


def _params(ctx, args, floats=False, **defaults):
    """Parameters for the command's catalog entry: `defaults` for those the
    entry takes, then --param.  With floats, for a command that evaluates
    the map in floats, a constant value too large for a float is
    InvalidParams."""
    out = {k: v for k, v in defaults.items()
           if k in parameters(args.entry, *args.kinds)}
    for item in args.param:
        if "=" not in item:
            raise SymkernelError("--param expects name=value, got %r" % item)
        k, v = (t.strip() for t in item.split("=", 1))
        out[k] = value = _parse_value(ctx, v)
        if not floats:
            continue
        if isinstance(value, Expr) and value.is_constant():
            value = value.as_rational()
        if isinstance(value, Fraction):
            try:
                float(value)
            except OverflowError:
                raise InvalidParams("parameter %s=%s is too large for a "
                                    "float" % (k, v)) from None
    return out


def _entry(ctx, args, **defaults):
    """The command's catalog entry, of one of the kinds the command takes."""
    return catalog(ctx, args.entry, *args.kinds,
                   **_params(ctx, args, **defaults))


def _catalog_map(ctx, args, **defaults):
    """The reciprocal map of the command's catalog entry; a one-parameter
    family gives its symbolic map."""
    entry = _entry(ctx, args, **defaults)
    return entry.map_sym if isinstance(entry, OneParamFamily) else entry


# the largest grid side of transform and closedness, and the largest ansatz
# degree of solve-ansatz: on a 2-core x86 host transform takes about 11 s
# at 561 nodes (the vortex under bateman(1/2, 1/4, 1, 1/8), whose Newton
# inversion stops without convergence; about 0.8 s for identity) and
# solve-ansatz about 2 s at degree 12
MAX_NODES = 561
MAX_DEGREE = 12


def _between(low, high):
    """argparse type: an integer from low to high."""
    def convert(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                "must be at least %d, got %d" % (low, value))
        if value > high:
            raise argparse.ArgumentTypeError(
                "must be at most %d, got %d" % (high, value))
        return value
    convert.__name__ = "integer"
    return convert


def _tolerance(text):
    """argparse type: a positive finite float."""
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(
            "must be a positive finite number, got %s" % text)
    return value


_tolerance.__name__ = "number"


def _emit(args, text_report, json_dict):
    if args.format == "json":
        body = json.dumps(json_dict, indent=2, sort_keys=True) + "\n"
    else:
        body = text_report + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def _emit_report(args, rep: Report) -> int:
    _emit(args, rep.to_text(), rep.to_json_dict())
    return 0 if rep.passed else 1


def _named_generator(ctx, name):
    basis = {g.label: g for g in standard_basis(ctx) + [x_h(ctx), x_f(ctx)]
             + constant_slices(ctx)}
    if name not in basis:
        raise SymkernelError("unknown generator %r (have %s)"
                             % (name, ", ".join(sorted(basis))))
    return basis[name]


def cmd_commutators(args) -> int:
    L = reciprocal_algebra(standard_context())
    text = commutator_table_text(L)
    if args.format == "json":
        labels = L.labels()
        table = {"[%s,%s]" % (labels[i], labels[j]): _entry_text(entry, labels)
                 for (i, j), entry in L.structure_constants().items()}
        _emit(args, text, {"schema": 1, "algebra": "Lrt", "table": table})
    else:
        _emit(args, text, {})
    return 0


def cmd_verify_generator(args) -> int:
    ctx = standard_context()
    if args.file:
        if args.generator is not None:
            raise SymkernelError("--file takes no --generator")
        with open(args.file, encoding="utf-8") as fh:
            g = generator_from_dict(ctx, json.load(fh))
    else:
        name = "X3" if args.generator is None else args.generator
        g = _named_generator(ctx, name)
    ds = determining_residuals(g, args.reduction)
    return _emit_report(args, residual_report(
        "determining equations for %s" % (g.label or args.file),
        ds.residuals, seed=args.seed))


def cmd_verify_map(args) -> int:
    ctx = standard_context()
    if args.file:
        if args.entry or args.param:
            raise SymkernelError("--file takes no --catalog or --param")
        T = load_map(ctx, args.file)
    else:
        T = _catalog_map(ctx, args)
    rep = verify_reciprocal(T, solve_for=args.reduction, seed=args.seed)
    return _emit_report(args, rep)


def cmd_verify_point(args) -> int:
    ctx = standard_context()
    rep = verify_point_symmetry(_catalog_map(ctx, args), seed=args.seed)
    return _emit_report(args, rep)


def cmd_solve_ansatz(args) -> int:
    from .prolong import solve_ansatz
    ctx = standard_context()
    sol = solve_ansatz(ctx, args.degree)
    rep = Report("polynomial ansatz, degree %d" % args.degree)
    rep.add("all %d basis elements re-verified" % sol.dimension,
            sol.reverified)
    rep.extras["dimension"] = sol.dimension
    rep.extras["candidates"] = sol.candidates
    for i, g in enumerate(sol.generators):
        rep.extras["basis_%02d" % i] = str(g)
    return _emit_report(args, rep)


def cmd_pushforward(args) -> int:
    ctx = standard_context()
    # a map with a formal entropy map has no inverse to push forward by
    T = _catalog_map(ctx, args, entropy="identity")
    x = standard_basis(ctx)
    rep = Report("pushforward under %s" % T.name)
    if args.generator:
        g = _named_generator(ctx, args.generator)
        image = pushforward(T, g)
        try:
            coeffs = decompose(image, x[2:5])
            rep.add("image in span{X3', X4', X5'}", True,
                    "(%s)" % ", ".join(str(c) for c in coeffs))
        except SymkernelError:
            rep.add("image in span{X3', X4', X5'}", False, str(image))
    else:
        M = pushforward_matrix(T, x[2:5])
        res = verify_automorphism_solution(M, megaideal_constraints(ctx))
        det = res.extras["det"]
        rep.add("matrix satisfies the automorphism constraints", res.passed)
        rep.add("matrix nonsingular", not det.is_zero(), "det = %s" % det)
        for i, row in enumerate(M.entries):
            rep.extras["row_%d" % i] = "[%s]" % ", ".join(str(e)
                                                          for e in row)
    return _emit_report(args, rep)


def cmd_automorphism(args) -> int:
    cons = megaideal_constraints(standard_context())
    rep = Report("automorphism constraints for the 3-dimensional megaideal")
    rep.add("constraint count", len(cons) == 9, str(len(cons)))
    for i, c in enumerate(cons):
        rep.extras["constraint_%d" % (i + 1)] = "%s = 0" % c
    return _emit_report(args, rep)


def cmd_lie_check(args) -> int:
    fam = _entry(standard_context(), args)
    return _emit_report(args, verify_flow(fam, args.seed))


def _flow(args):
    if args.flow == "constant":
        return ConstantFlow()
    if args.flow == "shear":
        return ShearFlow.example()
    if args.flow == "vortex":
        return VortexFlow(w0=1, m=1)
    raise SymkernelError("unknown flow %r" % args.flow)


def _flow_grid(args):
    if args.flow == "vortex":
        return GridSpec(0.5, 0.3, 1 / 24, 1 / 24, args.nodes, args.nodes)
    return GridSpec(0.0, 0.0, 1.0 / (args.nodes - 1),
                    1.0 / (args.nodes - 1), args.nodes, args.nodes)


def cmd_transform(args) -> int:
    ctx = standard_context()
    # entries that take an entropy map transform flows by the identity one
    T = _entry(ctx, args, floats=True, entropy="identity")
    sol = make_solution(_flow(args), _flow_grid(args))
    out = transform_solution(sol, T)
    res = fd_residuals(out)
    rep = Report("transform %s under %s" % (args.flow, args.entry))
    worst = max(res.values())
    rep.add("transformed residuals finite", math.isfinite(worst), "")
    for k, v in res.items():
        rep.extras["residual_" + k] = "%.3e" % v
    rep.extras["primed_grid"] = "origin (%.6g, %.6g) spacing (%.3g, %.3g)" \
        % (out.grid.x0, out.grid.y0, out.grid.hx, out.grid.hy)
    return _emit_report(args, rep)


def cmd_closedness(args) -> int:
    ctx = standard_context()
    T = _entry(ctx, args, floats=True, entropy="identity")
    grid = _flow_grid(args)
    sol = make_solution(_flow(args), grid)
    val = loop_closedness(sol, T, grid.boundary_loop())
    rep = Report("loop closedness of %s on %s" % (args.entry, args.flow))
    rep.add("|loop dx'| + |loop dy'| < %g" % args.tol, val < args.tol,
            "%.3e" % val)
    return _emit_report(args, rep)


def cmd_paper_suite(args) -> int:
    lines = []
    reports = accept.run_paper_suite(seed=args.seed)
    ok = True
    for rep in reports:
        ok = ok and rep.passed
        lines.append("%-4s %s" % (rep.verdict, rep.title))
    lines.append("paper-suite: %s (%d/%d criteria)" % (
        "PASS" if ok else "FAIL",
        sum(1 for r in reports if r.passed), len(reports)))
    text = "\n".join(lines)
    if args.verbose:
        text = "\n\n".join(r.to_text() for r in reports) + "\n" + text
    _emit(args, text, {
        "schema": 1, "suite": "paper",
        "criteria": [r.to_json_dict() for r in reports],
        "verdict": "PASS" if ok else "FAIL",
    })
    return 0 if ok else 1


def _add_entry(p, flag, default, *kinds):
    """The catalog entry a command takes, of one of the given kinds, and
    its parameters."""
    p.add_argument(flag, dest="entry", default=default, metavar="NAME",
                   help="catalog entry: %s" % ", ".join(entries(*kinds)))
    p.add_argument("--param", action="append", default=[],
                   help="name=value")
    p.set_defaults(kinds=kinds)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--format", choices=("text", "json"),
                        default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="write the report here")
    ap = argparse.ArgumentParser(
        prog="recipgas",
        description="Verification engine for reciprocal transformations "
                    "of 2D stationary gas dynamics")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--format", choices=("text", "json"), default="text")
    ap.add_argument("--out", default=None, help="write the report here")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add("commutators", help="print the commutator table of L_rt")
    p.set_defaults(fn=cmd_commutators)

    p = add("verify-generator",
            help="determining-equation residuals of a generator")
    p.add_argument("--file", default=None, help="generator JSON file")
    p.add_argument("--generator", default=None, help="named basis "
                   "generator (X1..X5, Xh, XF, Xh1, XF1; default X3)")
    p.add_argument("--reduction", choices=("x", "y"), default="x")
    p.set_defaults(fn=cmd_verify_generator)

    p = add("verify-map", help="reciprocity of a transformation")
    _add_entry(p, "--catalog", None)
    p.add_argument("--file", default=None, help="map JSON file")
    p.add_argument("--reduction", choices=("x", "y"), default="x")
    p.set_defaults(fn=cmd_verify_map)

    p = add("verify-point", help="point-symmetry verification")
    _add_entry(p, "--catalog", "munk_prim")
    p.set_defaults(fn=cmd_verify_point)

    p = add("solve-ansatz", help="polynomial-ansatz generator search")
    p.add_argument("--degree", type=_between(0, MAX_DEGREE),
                   default=accept.ANSATZ_DEGREE)
    p.set_defaults(fn=cmd_solve_ansatz)

    p = add("pushforward",
            help="generator pushforward and decomposition")
    _add_entry(p, "--catalog", "bateman")
    p.add_argument("--generator", default=None)
    p.set_defaults(fn=cmd_pushforward)

    p = add("automorphism",
            help="generate the automorphism constraint system")
    p.set_defaults(fn=cmd_automorphism)

    p = add("lie-check", help="exact Lie equation and additivity of a "
            "one-parameter family")
    _add_entry(p, "--family", "one_param_bateman", OneParamFamily)
    p.set_defaults(fn=cmd_lie_check)

    p = add("transform", help="transform an exact solution numerically")
    p.add_argument("--flow", default="shear",
                   choices=("constant", "shear", "vortex"))
    _add_entry(p, "--catalog", "bateman_simplified", ReciprocalMap)
    p.add_argument("--nodes", type=_between(3, MAX_NODES), default=17)
    p.set_defaults(fn=cmd_transform)

    p = add("closedness", help="loop integrals of dx', dy'")
    p.add_argument("--flow", default="shear",
                   choices=("constant", "shear", "vortex"))
    _add_entry(p, "--catalog", "bateman_simplified", ReciprocalMap)
    p.add_argument("--nodes", type=_between(3, MAX_NODES), default=17)
    p.add_argument("--tol", type=_tolerance, default=accept.LOOP_TOL)
    p.set_defaults(fn=cmd_closedness)

    p = add("paper-suite", help="run every acceptance criterion")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_paper_suite)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (SymkernelError, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except Exception as exc:
        sys.stderr.write("internal error: %s: %s\n"
                         % (type(exc).__name__, exc))
        return 3


if __name__ == "__main__":
    sys.exit(main())
