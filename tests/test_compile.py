"""compile_exprs and compile_exprs_fixed against exact rational
evaluation; the float evaluator on scalars and arrays."""

import math
import random
import re
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from recipgas.gasdyn import standard_context
from recipgas.symkernel import (FIXED_BITS, Expr, compile_exprs,
                                compile_exprs_fixed, numeric, parse)
from recipgas.symkernel.errors import NumericDomain, UnboundSymbol
from recipgas.transforms import (bateman, bateman_simplified, identity_map,
                                 involution_E1_reciprocal,
                                 involution_E2_reciprocal, mu_minus, mu_plus,
                                 one_param_bateman, one_param_exp,
                                 one_param_linear, one_param_q13,
                                 theorem_map)

POINTS = 20


@pytest.fixture(scope="module")
def ctx():
    return standard_context()


def _paper_maps(ctx):
    """(name, map, value range of the family symbol or None)."""
    maps = [
        ("identity", identity_map(ctx), None),
        ("bateman", bateman(ctx, 1, 0, 1, 0, entropy="identity"), None),
        ("bateman symbolic", bateman(ctx, entropy="identity"), None),
        ("bateman_simplified",
         bateman_simplified(ctx, 1, 0, entropy="identity"), None),
        ("theorem", theorem_map(ctx, alpha=1, beta=2, k=1, a11=1,
                                a34=Fraction(1, 2), a35=2, a45=3, psi=1,
                                entropy="identity"), None),
        ("mu_plus", mu_plus(ctx, alpha=1, beta=2), None),
        ("mu_minus", mu_minus(ctx, a33=1, a54=0, a11=1, alpha=1, beta=2),
         None),
        ("E1", involution_E1_reciprocal(ctx), None),
        ("E2", involution_E2_reciprocal(ctx), None),
    ]
    fams = [
        (one_param_bateman(ctx), (-1, 1)),
        (one_param_q13(ctx, q12=0, q13=1), (-1, 1)),
        (one_param_exp(ctx, k1=1, k2=1, q12=0), (7, 9)),
        (one_param_linear(ctx, k2=1, q12=0), (-1, 1)),
    ]
    maps += [(fam.name, fam.map_sym, (fam.symbol, lo, hi))
             for fam, (lo, hi) in fams]
    return maps


def _rational_point(rng, names, symbol):
    """Fields in the safe ranges of sample_float_state, in 64ths; the
    family symbol in the given range of 8ths; every other name (free
    parameters and formal atoms such as psi(S)) in [1/2, 2]."""
    point = {}
    for n in sorted(names):
        if n in ("rho", "p", "S"):
            point[n] = Fraction(rng.randint(32, 128), 64)
        elif n in ("u", "v"):
            point[n] = Fraction(rng.choice([-1, 1]) * rng.randint(7, 128), 64)
        elif symbol is not None and n == symbol[0]:
            point[n] = Fraction(rng.randint(symbol[1], symbol[2]), 8)
        else:
            point[n] = Fraction(rng.randint(32, 128), 64)
    return point


def _draw(T, symbol, rng):
    """POINTS rational points where every denominator of T is nonzero."""
    comps = T.components()
    names = set().union(*(c.free_variables() for c in comps))
    points = []
    while len(points) < POINTS:
        point = _rational_point(rng, names, symbol)
        if all(d.eval_rational(point) != 0 for d in T.denominators()):
            points.append(point)
    return points


def test_paper_maps_match_exact_values(ctx):
    rng = random.Random(20240801)
    for name, T, symbol in _paper_maps(ctx):
        comps = T.components()
        evaluate = compile_exprs(comps)
        points = _draw(T, symbol, rng)
        scalar = []
        for point in points:
            got = evaluate({k: float(v) for k, v in point.items()})
            for c, g in zip(comps, got):
                want = float(c.eval_rational(point))
                assert g == pytest.approx(want, rel=1e-12, abs=1e-300), \
                    (name, str(c), point)
            scalar.append([float(g) for g in got])
        # the same points as arrays: equal to the scalar results bit for bit
        arrays = {k: np.array([float(p[k]) for p in points])
                  for k in points[0]}
        got = evaluate(arrays)
        for k in range(len(comps)):
            column = np.broadcast_to(got[k], (POINTS,))
            assert np.array_equal(column, [row[k] for row in scalar]), \
                (name, str(comps[k]))


@pytest.mark.parametrize("name, arg", [("tan", "eps"), ("h", "S")])
def test_atom_is_read_by_display_name(ctx, name, arg):
    atom = Expr.function(ctx, name, parse(ctx, arg))
    e = 2 * atom + parse(ctx, arg)
    assert compile_exprs([e])({str(atom): 0.25, arg: 1.0}) == [1.5]
    fixed = compile_exprs_fixed([e])
    one = 1 << FIXED_BITS
    assert fixed({str(atom): one // 4, arg: one}) == [3 * one // 2]
    assert e.eval_rational({str(atom): Fraction(1, 4), arg: 1}) == \
        Fraction(3, 2)
    # the argument alone gives no value for the atom
    for evaluate in (compile_exprs([e]), fixed):
        with pytest.raises(UnboundSymbol, match=re.escape(str(atom))):
            evaluate({arg: 1})
    with pytest.raises(UnboundSymbol, match=re.escape(str(atom))):
        e.eval_rational({arg: 1})


def test_tan_atom_of_the_q13_leaf(ctx):
    # an atom given by display name needs no arguments
    t = Expr.function(ctx, "tan", parse(ctx, "eps*q13"))
    assert compile_exprs([t * 2])({str(t): 0.25}) == [0.5]


def test_errors(ctx):
    zero_den = compile_exprs([parse(ctx, "1/(p-1)")])
    with pytest.raises(NumericDomain):
        zero_den({"p": 1.0})
    with pytest.raises(NumericDomain):
        zero_den({"p": np.array([0.5, 1.0])})
    overflow = compile_exprs([parse(ctx, "p^400")])
    with pytest.raises(NumericDomain):
        overflow({"p": 1e300})
    with pytest.raises(NumericDomain):
        overflow({"p": np.array([1.0, 1e300])})
    with pytest.raises(UnboundSymbol):
        compile_exprs([parse(ctx, "u+v")])({"u": 1.0})
    tan = Expr.function(ctx, "tan", parse(ctx, "eps"))
    with pytest.raises(UnboundSymbol):
        compile_exprs([tan])({"u": 1.0})
    with pytest.raises(UnboundSymbol):
        compile_exprs([Expr.function(ctx, "h", parse(ctx, "S"))])({"S": 1.0})


def test_coefficient_too_large_for_a_float(ctx):
    # the float evaluator holds its coefficients as floats
    with pytest.raises(NumericDomain, match="too large for a float"):
        compile_exprs([parse(ctx, "10^400*p")])


def test_scalars_broadcast_against_arrays(ctx):
    evaluate = compile_exprs([parse(ctx, "rho*u^2+p"), parse(ctx, "3/2")])
    vals = evaluate({"rho": 2.0, "u": np.array([1.0, 2.0]), "p": 1})
    assert np.array_equal(vals[0], [3.0, 9.0])
    assert vals[1] == 1.5


def test_high_powers_match_exact_values(ctx):
    e = parse(ctx, "p^7*u^3-2*rho^5*v^4+(u*v)^2/(p^3+rho^6)")
    point = {"p": Fraction(3, 2), "u": Fraction(-5, 4), "rho": Fraction(7, 8),
             "v": Fraction(9, 16)}
    got = compile_exprs([e])({k: float(v) for k, v in point.items()})[0]
    assert got == pytest.approx(float(e.eval_rational(point)), rel=1e-14)


def test_large_polynomials_compile(ctx):
    # 3003 terms and a power of degree 2000: the generated code stays
    # within the compiler's nesting limits
    big = compile_exprs([parse(ctx, "(1+u+v+p+rho+S)^10")])
    a = {"u": 0.25, "v": -0.5, "p": 0.75, "rho": 0.5, "S": 0.125}
    assert big(a)[0] == pytest.approx((1 + sum(a.values())) ** 10,
                                      rel=1e-12)
    high = compile_exprs([parse(ctx, "u^2000")])
    assert high({"u": 1.0005})[0] == pytest.approx(1.0005 ** 2000, rel=1e-12)


def _scaled(q):
    """floor(q * 2^FIXED_BITS) of a rational."""
    return math.floor(q * 2 ** FIXED_BITS)


def test_fixed_evaluator_matches_exact_values(ctx):
    # every input is a dyadic rational, so exact at the fixed scale, and
    # each value is the floor of the exact value at that scale
    rng = random.Random(20240802)
    for name, T, symbol in _paper_maps(ctx):
        comps = T.components()
        evaluate = compile_exprs_fixed(comps)
        for point in _draw(T, symbol, rng):
            got = evaluate({k: _scaled(v) for k, v in point.items()})
            for c, g in zip(comps, got):
                assert g == _scaled(c.eval_rational(point)), \
                    (name, str(c), point)


def test_fixed_evaluator_errors(ctx):
    one = 2 ** FIXED_BITS
    zero_den = compile_exprs_fixed([parse(ctx, "u/(p-1)")])
    assert zero_den({"u": 3 * one, "p": 4 * one}) == [one]
    with pytest.raises(NumericDomain):
        zero_den({"u": one, "p": one})
    with pytest.raises(UnboundSymbol):
        zero_den({"u": one})
    tan = Expr.function(ctx, "tan", parse(ctx, "eps"))
    with pytest.raises(UnboundSymbol):
        compile_exprs_fixed([tan])({"eps": one})
    assert compile_exprs_fixed([tan * 2])({str(tan): one // 4}) == [one // 2]
    # a value floors toward -infinity
    third = compile_exprs_fixed([parse(ctx, "u/3")])
    assert third({"u": one}) == [one // 3]
    assert third({"u": -one}) == [-(one // 3) - 1]
    neg = compile_exprs_fixed([parse(ctx, "-u^3/(p^2+1)")])
    assert neg({"u": one // 2, "p": -one // 2}) == [_scaled(Fraction(-1, 10))]


def test_integer_arrays_evaluate_in_floats(ctx):
    # integer and bool arrays are read as float64: an int64 product of two
    # inputs of 2^40 would wrap
    evaluate = compile_exprs([parse(ctx, e) for e in
                              ("u*v", "u^2*v - p", "(u*v)/(p+1)", "-u")])
    big = {"u": 2 ** 40, "v": 2 ** 40, "p": 3}
    floats = evaluate({k: np.array([float(v)]) for k, v in big.items()})
    got = evaluate({k: np.array([v], dtype=np.int64)
                    for k, v in big.items()})
    assert [g.tobytes() for g in got] == [f.tobytes() for f in floats]
    assert floats[0][0] == 2.0 ** 80
    on = evaluate({"u": np.array([True]), "v": np.array([True]),
                   "p": np.array([False])})
    assert [float(g[0]) for g in on] == [1.0, 1.0, 1.0, -1.0]
    # a float32 array keeps float32 arithmetic
    u, v, p = (np.array([x], dtype=np.float32) for x in (1 / 3, 3.0, 0.1))
    got = compile_exprs([parse(ctx, "u*v + 1/2*p")])({"u": u, "v": v,
                                                      "p": p})[0]
    assert got.dtype == np.float32
    assert got.tobytes() == (0.0 + u * v + 0.5 * p).tobytes()


def _generated_source(monkeypatch):
    """The list that collects the source of each function generated while
    the monkeypatch holds.  The code cache is emptied first, so that a
    source some earlier test compiled is seen too."""
    numeric._code.cache_clear()
    sources = []

    def spy(src, *args):
        sources.append(src)
        return compile(src, *args)

    monkeypatch.setattr(numeric, "compile", spy, raising=False)
    return sources


def _with_unit_factors(src):
    """src with every term of a sum that has no coefficient given one of
    1.0 or -1.0, as the generator once wrote it."""
    out = []
    for line in src.splitlines():
        target, eq, value = line.partition(" = ")
        if eq and " + " in value:
            head, *terms = value.split(" + ")
            terms = ["-1.0 * " + t[1:] if t.startswith("-v") else
                     "1.0 * " + t if t.startswith("v") else t
                     for t in terms]
            line = target + eq + " + ".join([head] + terms)
        out.append(line)
    return "\n".join(out) + "\n"


UNIT_EXPRS = ("u*v - u^2*p + 1/2*rho - 3*S + 1 - v",
              "-u*v^2 + p",
              "-u",
              "(u*v - p^2)/(rho*S - u + 1)",
              "-(3*u - v)/(u*v - 1/2*p)",
              "(1/2*u + 3*v)/(-rho + S)")


def test_unit_coefficients_are_signs(ctx, monkeypatch):
    # a coefficient of +-1 is written as a sign, with the same bits as an
    # explicit factor of 1.0 or -1.0, on scalars (signed zeros too) and on
    # arrays
    sources = _generated_source(monkeypatch)
    exprs = [parse(ctx, e) for e in UNIT_EXPRS]
    evaluate = compile_exprs(exprs)
    src, = sources
    assert not re.search(r"(?<![\d.])1\.0 \*", src), src
    assert "-v" in src
    env = {"_float": numeric._float, "_all": np.all,
           "NumericDomain": NumericDomain}
    exec(_with_unit_factors(src), env)
    reference = env["_evaluate"]
    assert re.search(r"(?<![\d.])1\.0 \*", _with_unit_factors(src))
    rng = random.Random(20240803)
    names = ("rho", "u", "v", "p", "S")
    values = [0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e-170, -1e170]
    points = [dict(zip(names, rng.choices(values, k=5))) for _ in range(200)]
    points += [{n: rng.uniform(-4, 4) for n in names} for _ in range(200)]
    # the generated function itself, which leaves overflows unraised
    raw = numeric._generate(exprs, numeric._FLOATS)
    kept = []
    for point in points:
        try:
            want = [np.float64(w).tobytes() for w in reference(point)]
        except NumericDomain:
            continue
        got = [np.float64(g).tobytes() for g in raw(point)]
        assert got == want, point
        kept.append(point)
    assert len(kept) > 300
    arrays = {n: np.array([p[n] for p in kept]) for n in names}
    with np.errstate(all="ignore"):
        got, want = raw(arrays), reference(arrays)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    point = {n: 0.25 * k for k, n in enumerate(names, 1)}
    assert evaluate(point) == pytest.approx([float(e.eval_rational(
        {n: Fraction(v) for n, v in point.items()})) for e in exprs],
        rel=1e-15)


def test_fixed_evaluator_at_unit_coefficients(ctx, monkeypatch):
    sources = _generated_source(monkeypatch)
    exprs = [parse(ctx, e) for e in UNIT_EXPRS]
    evaluate = compile_exprs_fixed(exprs)
    assert re.search(r"[+] -?v\d", sources[0]), sources[0]
    dens = [e.as_numer_denom()[1] for e in exprs]
    rng = random.Random(20240804)
    names = ("rho", "u", "v", "p", "S")
    done = 0
    while done < 50:
        point = {n: Fraction(rng.randint(-128, 128), 64) for n in names}
        if any(d.eval_rational(point) == 0 for d in dens):
            continue
        done += 1
        got = evaluate({n: _scaled(v) for n, v in point.items()})
        assert got == [_scaled(e.eval_rational(point)) for e in exprs], point


def _bits(values):
    return [np.float64(v).tobytes() if np.ndim(v) == 0 else v.tobytes()
            for v in values]


def test_equal_source_compiles_once(monkeypatch):
    # the code of a source is cached: an equal source from a fresh context
    # is not compiled again and evaluates to the same bits
    sources = _generated_source(monkeypatch)
    texts = ("u*v^2 - 3/7*p", "(rho*u + 1)/(p^2 - v)", "-S")
    first = compile_exprs([parse(standard_context(), t) for t in texts])
    assert len(sources) == 1
    second = compile_exprs([parse(standard_context(), t) for t in texts])
    assert len(sources) == 1
    rng = np.random.default_rng(5)
    names = ("rho", "u", "v", "p", "S")
    scalars = {n: float(x) for n, x in zip(names, rng.uniform(1, 2, 5))}
    arrays = {n: rng.uniform(1, 2, 7) for n in names}
    for point in (scalars, arrays):
        assert _bits(second(point)) == _bits(first(point))


def test_long_coefficients_are_not_cached(ctx, monkeypatch):
    # coefficients above 64 bits are globals of the generated code, set
    # per compile: two maps that differ only there share a source, and
    # each keeps its own values
    sources = _generated_source(monkeypatch)
    one = 2 ** FIXED_BITS
    coeffs = (2 ** 70 + 1, 2 ** 70 + 3)
    evaluators = [compile_exprs_fixed([parse(ctx, "%d*u - v" % c)])
                  for c in coeffs]
    src, = sources
    assert "_c" in src
    assert numeric._code.cache_info().hits == 1
    for c, evaluate in zip(coeffs, evaluators):
        assert evaluate({"u": one, "v": 3 * one}) == [(c - 3) * one]


def test_code_cache_across_threads(ctx):
    # threads that compile one source with different long coefficients,
    # and sources that churn the cache, each get their own exact values
    one = 2 ** FIXED_BITS
    shared = [parse(ctx, "%d*u - v" % (2 ** 70 + n)) for n in range(160)]
    churn = [parse(ctx, "u + %d" % n) for n in range(160)]
    errors = []

    def work(k):
        try:
            for n in range(k, 160, 4):
                got = compile_exprs_fixed([shared[n]])({"u": one,
                                                        "v": 3 * one})
                assert got == [(2 ** 70 + n - 3) * one], (n, got)
                assert compile_exprs([churn[n]])({"u": 0.5}) == [0.5 + n]
        except AssertionError as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors


def test_code_cache_is_bounded(ctx):
    numeric._code.cache_clear()
    for k in range(numeric._CODE_CACHE + 5):
        assert compile_exprs([parse(ctx, "u + %d" % k)])({"u": 1.0}) == \
            [1.0 + k]
    info = numeric._code.cache_info()
    assert info.misses == numeric._CODE_CACHE + 5
    assert info.currsize == info.maxsize == numeric._CODE_CACHE


_ZERO_DEN = "zero denominator at the evaluation point"


@pytest.mark.parametrize("kind", ["float", "float64", "0-d", "1-d"])
@pytest.mark.parametrize("text, point, message", [
    ("u/(p - 1)", {"u": 1.0, "p": 1.0}, _ZERO_DEN),
    # the sum 0.0 + p turns a -0.0 input into a +0.0 denominator
    ("u/p", {"u": 1.0, "p": -0.0}, _ZERO_DEN),
    ("u + p", {"u": math.nan, "p": 1.0}, "overflow"),
    ("u/p", {"u": math.nan, "p": 1.0}, "overflow"),
    ("p^400", {"p": 1e300}, "overflow"),
    ("u*p", {"u": 1e300, "p": -1e300}, "overflow"),
], ids=["zero", "minus zero", "nan", "nan over", "power", "product"])
def test_checks_of_every_number_type(ctx, kind, text, point, message):
    # a Python float, a numpy scalar, a 0-d and a 1-d array (whose other
    # element is fine) meet the same error
    wrap = {"float": float, "float64": np.float64, "0-d": np.array,
            "1-d": lambda x: np.array([1.5, x])}[kind]
    evaluate = compile_exprs([parse(ctx, text)])
    with pytest.raises(NumericDomain) as exc:
        evaluate({n: wrap(x) for n, x in point.items()})
    assert str(exc.value) == message
    good = evaluate({n: wrap(1.5) for n in point})
    assert np.all(np.isfinite(good[0]))


@pytest.mark.parametrize("value", [0.0, -0.0])
def test_zero_denominators_of_every_type(value):
    # the denominator check itself, at -0.0 too
    nonzero = numeric._FLOATS.nonzero
    for d in (value, np.float64(value), np.array(value),
              np.array([1.0, value]), np.array([value], dtype=np.float32)):
        assert not nonzero(d), d
    for d in (0.5, np.float64(-2.0), np.array(3.0), np.array([1.0, -1e-300]),
              math.nan, np.array([math.inf])):
        assert nonzero(d), d
