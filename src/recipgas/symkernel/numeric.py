"""Numeric evaluation of expressions, compiled once per list of Exprs.

One code generator turns Exprs of one context into one generated Python
function of an assignment dict.  A _Numbers record says how that code
writes a coefficient, reads an input and tests a denominator, so the same
generator serves two number types:

- compile_exprs: Python floats and, elementwise, numpy arrays, with the
  same result bit for bit: each term is float(c) * x^e * ..., terms are
  summed from 0.0 left to right in the polynomial's dict order, and a
  numerator is divided by its denominator unless that is 1.  A power x^e
  is the product (x^(e-1)) * x, formed once per function: numpy's power
  and Python's pow differ in the last bit for a few percent of arguments,
  products do not.
- compile_exprs_mp: mpmath numbers at the caller's working precision, in
  the same term order; each rational coefficient is one mpf bound when
  the function is compiled, and inputs pass through unconverted.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NumericDomain, UnboundSymbol
from .poly import QQ, mono_items, pis_const, pleading_mono

# implementations of the elementary functions the float evaluator computes
FN_IMPLS = {
    "tan": np.tan,
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "log": np.log,
}

# terms per generated line, so that huge sums stay shallow for the compiler
_TERMS_PER_LINE = 64

_ZERO_MESSAGE = "zero denominator at the evaluation point"


def _float(value):
    if isinstance(value, (float, np.ndarray)):
        return value
    return float(value)


class _Numbers(NamedTuple):
    """How generated code handles one number type."""
    constant: object   # (rational, env) -> source text of its value
    convert: object    # applied to each input value, or None
    nonzero: object    # true when a denominator value has no zero
    impls: dict        # function name -> implementation of its atoms


_FLOATS = _Numbers(lambda c, env: repr(float(c)), _float, np.all, FN_IMPLS)


def compile_exprs(exprs):
    """evaluate(assignment) -> [value of each Expr], compiled once.

    The assignment maps variable names, and formal-function atoms by
    display name, to floats or to numpy arrays that broadcast together.
    An atom it lacks is computed from its arguments when FN_IMPLS has its
    function; a derivative marker never is.  A missing name raises
    UnboundSymbol; a zero denominator or a non-finite value raises
    NumericDomain.
    """
    raw = _generate(list(exprs), _ZERO_MESSAGE, _FLOATS)

    def evaluate(assignment: dict) -> list:
        try:
            # numpy overflows to inf where Python floats raise
            with np.errstate(all="ignore"):
                values = raw(assignment)
        except KeyError as exc:
            raise UnboundSymbol(exc.args[0]) from None
        except OverflowError as exc:
            raise NumericDomain(str(exc)) from None
        for v in values:
            if not np.all(np.isfinite(v)):
                raise NumericDomain("overflow")
        return values

    return evaluate


def compile_exprs_mp(exprs):
    """evaluate(assignment) -> [value of each Expr] in mpmath arithmetic.

    Compile under the working precision the values are wanted at (for
    example inside mpmath.workdps(40)): each rational coefficient becomes
    one mpf then.  The assignment maps variable names, and formal-function
    atoms by display name, to mpf values, which are used as given.  A
    missing name raises UnboundSymbol; a zero denominator raises
    NumericDomain.
    """
    import mpmath

    def constant(c, env):
        name = "_q%s_%d" % (str(c.numerator).replace("-", "m"),
                            c.denominator)
        if name not in env:
            env[name] = mpmath.mpf(c.numerator) / c.denominator
        return name

    raw = _generate(list(exprs), _ZERO_MESSAGE,
                    _Numbers(constant, None, bool, {}))

    def evaluate(assignment: dict) -> list:
        try:
            return raw(assignment)
        except KeyError as exc:
            raise UnboundSymbol(exc.args[0]) from None

    return evaluate


def _generate(exprs, zero_message: str, numbers: _Numbers):
    """The generated function of the assignment, without error mapping."""
    ctx = exprs[0].ctx if exprs else None
    env = {"_float": numbers.convert, "_all": numbers.nonzero,
           "NumericDomain": NumericDomain}
    read = "_float(a[%r])" if numbers.convert else "a[%r]"
    zero = numbers.constant(QQ(0), env)
    lines = []
    top = {}        # variable index -> highest power held in a local

    def load(idx, e):
        """The local holding variable idx to the power e."""
        if idx not in top:
            if idx in ctx.atoms:
                env["_atom%d" % idx] = _atom(ctx.atoms[idx], numbers)
                value = "_atom%d(a)" % idx
            else:
                value = read % ctx.names[idx]
            lines.append("v%d_1 = %s" % (idx, value))
            top[idx] = 1
        for k in range(top[idx] + 1, e + 1):
            lines.append("v%d_%d = v%d_%d * v%d_1" % (idx, k, idx, k - 1, idx))
        top[idx] = max(top[idx], e)
        return "v%d_%d" % (idx, e)

    def poly(target, p):
        terms = []
        for m, c in p.items():
            factors = [numbers.constant(c, env)]
            factors += [load(v, e) for v, e in mono_items(m)]
            terms.append(" * ".join(factors))
        head = zero
        for k in range(0, len(terms), _TERMS_PER_LINE):
            chunk = terms[k:k + _TERMS_PER_LINE]
            lines.append("%s = %s" % (target, " + ".join([head] + chunk)))
            head = target
        if not terms:
            lines.append("%s = %s" % (target, zero))

    dens = {}
    for k, e in enumerate(exprs):
        # the rational coefficients over a monic denominator
        lc = e.den[pleading_mono(e.den)]
        poly("r%d" % k, _over(e.num, lc))
        if pis_const(e.den):     # a monic constant denominator is 1
            continue
        den = _over(e.den, lc)
        key = tuple(den.items())
        d = dens.get(key)
        if d is None:
            d = dens[key] = "d%d" % len(dens)
            poly(d, den)
            lines.append("if not _all(%s): raise NumericDomain(%r)"
                         % (d, zero_message))
        lines.append("r%d = r%d / %s" % (k, k, d))
    body = lines + ["return [%s]" % ", ".join("r%d" % k
                                              for k in range(len(exprs)))]
    src = "def _evaluate(a):\n" + "".join("    %s\n" % ln for ln in body)
    exec(compile(src, "<compile_exprs>", "exec"), env)
    return env["_evaluate"]


def _over(p, lc: int):
    """The polynomial p/lc, with QQ coefficients where lc is not 1."""
    return p if lc == 1 else {m: QQ(c, lc) for m, c in p.items()}


def _atom(info, numbers: _Numbers):
    """Value of a formal-function atom: from the assignment by display
    name, else its implementation applied to its arguments."""
    display = info.display
    fn = None if any(info.orders) else numbers.impls.get(info.fname)
    convert = numbers.convert or (lambda v: v)
    args = _generate(list(info.args), "zero denominator in %s" % display,
                     numbers)

    def value(a):
        if display in a:
            return convert(a[display])
        if fn is None:
            raise UnboundSymbol(display)
        return fn(*args(a))

    return value
