"""Exact symbolic kernel: expressions, parsing, sparse exact row
reduction."""

from .context import Context
from .errors import (CyclicBinding, DivisionByZeroExpr, NotPolynomialInVars,
                     NumericDomain, ParseError, SymkernelError, UnboundSymbol,
                     UnknownVariable, VariableMismatch)
from .expr import DEFAULT_FN_IMPLS, Expr
from .parser import parse
from .poly import QQ

__all__ = [
    "Context", "Expr", "parse", "QQ", "DEFAULT_FN_IMPLS",
    "SymkernelError", "DivisionByZeroExpr", "UnknownVariable",
    "CyclicBinding", "NotPolynomialInVars", "UnboundSymbol",
    "NumericDomain", "ParseError", "VariableMismatch",
]
