"""Float evaluation of expressions, compiled once per list of Exprs.

compile_exprs turns Exprs of one context into one generated Python
function of an assignment dict.  The same code runs on Python floats and,
elementwise, on numpy arrays, with the same result bit for bit: each term
is float(c) * x^e * ..., terms are summed from 0.0 left to right in the
polynomial's dict order, and a numerator is divided by its denominator
unless that is 1.  A power x^e is the product (x^(e-1)) * x, formed once
per function: numpy's power and Python's pow differ in the last bit for
a few percent of arguments, products do not.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericDomain, UnboundSymbol
from .poly import mono_items, pis_const

DEFAULT_FN_IMPLS = {
    "tan": np.tan,
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "log": np.log,
}

# terms per generated line, so that huge sums stay shallow for the compiler
_TERMS_PER_LINE = 64


def compile_exprs(exprs, fn_impls: dict | None = None):
    """evaluate(assignment) -> [value of each Expr], compiled once.

    The assignment maps variable names, and formal-function atoms by
    display name, to floats or to numpy arrays that broadcast together.
    An atom it lacks is computed from its arguments by fn_impls, keyed by
    function name or, for a derivative marker, by (name, orders), over
    DEFAULT_FN_IMPLS.  A missing name raises UnboundSymbol; a zero
    denominator or a non-finite value raises NumericDomain.
    """
    impls = dict(DEFAULT_FN_IMPLS)
    if fn_impls:
        impls.update(fn_impls)
    raw = _generate(list(exprs), impls,
                    "zero denominator at the evaluation point")

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


def _float(value):
    if isinstance(value, (float, np.ndarray)):
        return value
    return float(value)


def _generate(exprs, impls: dict, zero_message: str):
    """The generated function of the assignment, without error mapping."""
    ctx = exprs[0].ctx if exprs else None
    env = {"_float": _float, "_all": np.all, "NumericDomain": NumericDomain}
    lines = []
    top = {}        # variable index -> highest power held in a local

    def load(idx, e):
        """The local holding variable idx to the power e."""
        if idx not in top:
            if idx in ctx.atoms:
                env["_atom%d" % idx] = _atom(ctx.atoms[idx], impls)
                value = "_atom%d(a)" % idx
            else:
                value = "_float(a[%r])" % ctx.names[idx]
            lines.append("v%d_1 = %s" % (idx, value))
            top[idx] = 1
        for k in range(top[idx] + 1, e + 1):
            lines.append("v%d_%d = v%d_%d * v%d_1" % (idx, k, idx, k - 1, idx))
        top[idx] = max(top[idx], e)
        return "v%d_%d" % (idx, e)

    def poly(target, p):
        terms = []
        for m, c in p.items():
            factors = [repr(float(c))]
            factors += [load(v, e) for v, e in mono_items(m)]
            terms.append(" * ".join(factors))
        head = "0.0"
        for k in range(0, len(terms), _TERMS_PER_LINE):
            chunk = terms[k:k + _TERMS_PER_LINE]
            lines.append("%s = %s" % (target, " + ".join([head] + chunk)))
            head = target
        if not terms:
            lines.append("%s = 0.0" % target)

    dens = {}
    for k, e in enumerate(exprs):
        poly("r%d" % k, e.num)
        if pis_const(e.den):     # a monic constant denominator is 1
            continue
        key = tuple(e.den.items())
        d = dens.get(key)
        if d is None:
            d = dens[key] = "d%d" % len(dens)
            poly(d, e.den)
            lines.append("if not _all(%s): raise NumericDomain(%r)"
                         % (d, zero_message))
        lines.append("r%d = r%d / %s" % (k, k, d))
    body = lines + ["return [%s]" % ", ".join("r%d" % k
                                              for k in range(len(exprs)))]
    src = "def _evaluate(a):\n" + "".join("    %s\n" % ln for ln in body)
    exec(compile(src, "<compile_exprs>", "exec"), env)
    return env["_evaluate"]


def _atom(info, impls: dict):
    """Value of a formal-function atom: from the assignment by display
    name, else its implementation applied to its arguments."""
    display = info.display
    key = (info.fname, info.orders) if any(info.orders) else info.fname
    fn = impls.get(key)
    args = _generate(list(info.args), impls,
                     "zero denominator in %s" % display)

    def value(a):
        if display in a:
            return _float(a[display])
        if fn is None:
            raise UnboundSymbol(display)
        return fn(*args(a))

    return value
