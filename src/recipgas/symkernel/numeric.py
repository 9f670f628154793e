"""Numeric evaluation of expressions, compiled once per list of Exprs.

One code generator turns Exprs of one context into one generated Python
function of an assignment dict.  A _Numbers record says how that code
splits an Expr into numerator and denominator, writes a coefficient,
reads an input, tests a denominator and divides, so the same generator
serves two number types:

- compile_exprs: Python floats and, elementwise, numpy arrays, with the
  same result bit for bit: each term is float(c) * x^e * ..., written
  x^e * ... or -x^e * ... where c is 1 or -1 (the same bits), terms are
  summed from 0.0 left to right in the polynomial's dict order, and a
  numerator is divided by its denominator unless that is 1.  A power x^e
  is the product (x^(e-1)) * x, formed once per function: numpy's power
  and Python's pow differ in the last bit for a few percent of arguments,
  products do not.
- compile_exprs_fixed: Python ints X that stand for X / 2^FIXED_BITS.
  Numerator and denominator are evaluated exactly in integers, each term
  brought over its polynomial's total degree D by a factor
  2^(FIXED_BITS*(D-|m|)) folded into its coefficient, and each value is
  floor(value * 2^FIXED_BITS), from one floor division.

A generated source is compiled once while it stays in the code cache:
_code keeps the code objects of the last _CODE_CACHE distinct sources of
the process (functools.lru_cache, safe across threads), keyed on the
source text.  That key is exact: a
float coefficient, and an integer one of up to 64 bits, is written into
the source as a literal, and the source names every input it reads.  A
longer integer coefficient is a global of the generated code, in an env
built afresh on every call and given to one exec of the cached code, so
two evaluators that share a source never share a value.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NumericDomain, UnboundSymbol
from .poly import (MONO_ONE, QQ, mono_items, pdegree, pis_const,
                   pleading_mono)

# terms per generated line, so that huge sums stay shallow for the compiler
_TERMS_PER_LINE = 64

# fractional bits of the integer evaluator's inputs and values
FIXED_BITS = 256

# distinct generated sources whose code objects are kept; a lie-flow pass
# compiles 34
_CODE_CACHE = 128


def _float(value):
    """value as a float, or as an array of floats: an array of integers or
    bools becomes float64, so that products of inputs are float products;
    a floating array keeps its dtype."""
    if isinstance(value, np.ndarray):
        return value if value.dtype.kind == "f" else value.astype(float)
    if isinstance(value, float):
        return value
    return float(value)


class _Numbers(NamedTuple):
    """How generated code handles one number type."""
    split: object      # Expr -> (numerator, denominator or None, quotient)
    constant: object   # (coefficient, env) -> source text of its value
    convert: object    # applied to each input value, or None
    nonzero: object    # true when a denominator value has no zero


def _float_split(e):
    """Rational coefficients over a monic denominator, which divides the
    numerator unless it is 1."""
    lc = e.den[pleading_mono(e.den)]
    if pis_const(e.den):
        return _over(e.num, lc), None, None
    return _over(e.num, lc), _over(e.den, lc), "%s / %s"


def _fixed_split(e):
    """Integer numerator and denominator, each over 2^(FIXED_BITS*degree),
    and the floor division that scales their quotient by 2^FIXED_BITS."""
    shift = FIXED_BITS * (1 + pdegree(e.den) - pdegree(e.num))
    if e.den == {MONO_ONE: 1}:
        if shift == 0:
            return _scaled(e.num), None, None
        return _scaled(e.num), None, (
            "%%s << %d" % shift if shift > 0 else "%%s >> %d" % -shift)
    return _scaled(e.num), _scaled(e.den), (
        "(%%s << %d) // %%s" % shift if shift >= 0
        else "%%s // (%%s << %d)" % -shift)


def _scaled(p):
    """p with each term brought over the total degree D of p: the
    coefficient of monomial m times 2^(FIXED_BITS*(D-|m|))."""
    top = pdegree(p)
    return {m: c << FIXED_BITS * (top - sum(e for _, e in mono_items(m)))
            for m, c in p.items()}


def _int_constant(c, env):
    """A short coefficient as a literal, a long one as a global of the
    generated code (decimal literals are limited in length)."""
    if c.bit_length() <= 64:
        return repr(c)
    name = "_c%d" % len(env)
    env[name] = c
    return name


def _nonzero(d):
    """True when a denominator value has no zero (-0.0 is zero): a Python
    float by a comparison, which costs far less than a numpy reduction,
    an array or numpy scalar by its .all()."""
    return d != 0.0 if isinstance(d, float) else d.all()


_FLOATS = _Numbers(_float_split, lambda c, env: repr(float(c)), _float,
                   _nonzero)
_FIXED = _Numbers(_fixed_split, _int_constant, None, bool)


def compile_exprs(exprs):
    """evaluate(assignment) -> [value of each Expr], compiled once.

    The assignment maps variable names, and formal-function atoms by
    display name, to floats or to numpy arrays that broadcast together.
    A missing name raises UnboundSymbol; a coefficient too large for a
    float, a zero denominator or a non-finite value raises NumericDomain.
    """
    try:
        raw = _generate(list(exprs), _FLOATS)
    except OverflowError as exc:
        raise NumericDomain("coefficient too large for a float (%s)"
                            % exc) from None

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
            if not (math.isfinite(v) if isinstance(v, float)
                    else np.isfinite(v).all()):
                raise NumericDomain("overflow")
        return values

    return evaluate


def compile_exprs_fixed(exprs):
    """evaluate(assignment) -> [floor(value * 2^FIXED_BITS) of each Expr].

    The assignment maps variable names, and formal-function atoms by
    display name, to ints X that stand for X / 2^FIXED_BITS.  Every value
    is exact before its one floor division.  A missing name raises
    UnboundSymbol; a zero denominator raises NumericDomain.
    """
    raw = _generate(list(exprs), _FIXED)

    def evaluate(assignment: dict) -> list:
        try:
            return raw(assignment)
        except KeyError as exc:
            raise UnboundSymbol(exc.args[0]) from None

    return evaluate


def _generate(exprs, numbers: _Numbers):
    """The generated function of the assignment, without error mapping.
    Every variable slot, a formal-function atom too, is read from the
    assignment by its name (an atom's display name)."""
    ctx = exprs[0].ctx if exprs else None
    env = {"_float": numbers.convert, "_all": numbers.nonzero,
           "NumericDomain": NumericDomain}
    read = "_float(a[%r])" if numbers.convert else "a[%r]"
    zero = numbers.constant(0, env)
    lines = []
    top = {}        # variable index -> highest power held in a local

    def load(idx, e):
        """The local holding variable idx to the power e."""
        if idx not in top:
            lines.append("v%d_1 = %s" % (idx, read % ctx.names[idx]))
            top[idx] = 1
        for k in range(top[idx] + 1, e + 1):
            lines.append("v%d_%d = v%d_%d * v%d_1" % (idx, k, idx, k - 1, idx))
        top[idx] = max(top[idx], e)
        return "v%d_%d" % (idx, e)

    def poly(target, p):
        terms = []
        for m, c in p.items():
            factors = [load(v, e) for v, e in mono_items(m)]
            if factors and c in (1, -1):
                # 1.0 * x is x and -1.0 * x is -x, bit for bit
                terms.append(("-" if c < 0 else "") + " * ".join(factors))
            else:
                terms.append(" * ".join([numbers.constant(c, env)]
                                        + factors))
        head = zero
        for k in range(0, len(terms), _TERMS_PER_LINE):
            chunk = terms[k:k + _TERMS_PER_LINE]
            lines.append("%s = %s" % (target, " + ".join([head] + chunk)))
            head = target
        if not terms:
            lines.append("%s = %s" % (target, zero))

    dens = {}
    for k, e in enumerate(exprs):
        r = "r%d" % k
        num, den, quotient = numbers.split(e)
        poly(r, num)
        if den is None:
            if quotient:
                lines.append("%s = %s" % (r, quotient % r))
            continue
        key = tuple(den.items())
        d = dens.get(key)
        if d is None:
            d = dens[key] = "d%d" % len(dens)
            poly(d, den)
            lines.append("if not _all(%s): raise NumericDomain("
                         "'zero denominator at the evaluation point')" % d)
        lines.append("%s = %s" % (r, quotient % (r, d)))
    body = lines + ["return [%s]" % ", ".join("r%d" % k
                                              for k in range(len(exprs)))]
    src = "def _evaluate(a):\n" + "".join("    %s\n" % ln for ln in body)
    exec(_code(src), env)
    return env["_evaluate"]


@lru_cache(maxsize=_CODE_CACHE)
def _code(src):
    """The code object of a generated source."""
    return compile(src, "<compile_exprs>", "exec")


def _over(p, lc: int):
    """The polynomial p/lc, with QQ coefficients where lc is not 1."""
    return p if lc == 1 else {m: QQ(c, lc) for m, c in p.items()}
