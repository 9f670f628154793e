"""Exact symbolic kernel: expressions, parsing, sparse exact row
reduction, compiled float and mpmath evaluation."""

from .context import Context
from .errors import (DegreeOverflow, DivisionByZeroExpr, InvalidParams,
                     NotPolynomialInVars, NumericDomain, ParseError,
                     SymkernelError, UnboundSymbol, UnknownVariable,
                     VariableMismatch)
from .expr import Expr, substitute_all
from .numeric import FN_IMPLS, compile_exprs, compile_exprs_mp
from .parser import parse
from .poly import QQ

__all__ = [
    "Context", "Expr", "substitute_all", "parse", "QQ", "FN_IMPLS",
    "compile_exprs", "compile_exprs_mp", "SymkernelError", "DegreeOverflow",
    "DivisionByZeroExpr", "UnknownVariable", "NotPolynomialInVars",
    "UnboundSymbol", "NumericDomain", "ParseError", "VariableMismatch",
    "InvalidParams",
]
