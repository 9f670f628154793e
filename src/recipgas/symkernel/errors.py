"""Exception types raised by the symbolic kernel."""


class SymkernelError(Exception):
    pass


class DivisionByZeroExpr(SymkernelError):
    """A denominator normalized to the zero polynomial."""


class UnknownVariable(SymkernelError):
    pass


class NotPolynomialInVars(SymkernelError):
    pass


class UnboundSymbol(SymkernelError):
    pass


class NumericDomain(SymkernelError):
    """Zero denominator or overflow during floating-point evaluation."""


class ParseError(SymkernelError):
    def __init__(self, message, line, col):
        super().__init__("%s (line %d, column %d)" % (message, line, col))
        self.line = line
        self.col = col


class VariableMismatch(SymkernelError):
    pass


class DegreeOverflow(SymkernelError):
    """A total degree beyond the packed-monomial limit of 2^15 - 1."""
