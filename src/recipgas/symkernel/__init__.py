"""Exact symbolic kernel: expressions, parsing, sparse exact row
reduction, compiled float and mpmath evaluation."""

from .context import Context
from .errors import (CyclicBinding, DivisionByZeroExpr, NotPolynomialInVars,
                     NumericDomain, ParseError, SymkernelError, UnboundSymbol,
                     UnknownVariable, VariableMismatch)
from .expr import Expr
from .numeric import DEFAULT_FN_IMPLS, compile_exprs, compile_exprs_mp
from .parser import parse
from .poly import QQ

__all__ = [
    "Context", "Expr", "parse", "QQ", "DEFAULT_FN_IMPLS", "compile_exprs",
    "compile_exprs_mp",
    "SymkernelError", "DivisionByZeroExpr", "UnknownVariable",
    "CyclicBinding", "NotPolynomialInVars", "UnboundSymbol",
    "NumericDomain", "ParseError", "VariableMismatch",
]
