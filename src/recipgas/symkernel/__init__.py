"""Exact symbolic kernel: expressions, parsing, sparse exact row
reduction, compiled float evaluation and exact integer evaluation at a
2^-256 fixed-point scale."""

from .context import Context
from .errors import (DegreeOverflow, DivisionByZeroExpr, InvalidParams,
                     NotPolynomialInVars, NumericDomain, ParseError,
                     SymkernelError, UnboundSymbol, UnknownVariable,
                     VariableMismatch)
from .expr import Expr, substitute_all
from .numeric import FIXED_BITS, compile_exprs, compile_exprs_fixed
from .parser import parse
from .poly import QQ

__all__ = [
    "Context", "Expr", "substitute_all", "parse", "QQ", "FIXED_BITS",
    "compile_exprs", "compile_exprs_fixed", "SymkernelError",
    "DegreeOverflow", "DivisionByZeroExpr", "UnknownVariable",
    "NotPolynomialInVars", "UnboundSymbol", "NumericDomain", "ParseError",
    "VariableMismatch", "InvalidParams",
]
