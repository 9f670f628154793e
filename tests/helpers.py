"""Reference helpers shared by the tests; the package does not use them."""

from recipgas.symkernel import Expr


def monomial(ctx, key) -> Expr:
    """The monomial Expr of an Expr.collect() key, a tuple of
    (name, exponent) pairs."""
    e = Expr.const(ctx, 1)
    for name, exp in key:
        e = e * Expr.var(ctx, name) ** exp
    return e
