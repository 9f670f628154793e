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
    """An evaluation needs a value for names the assignment lacks."""

    def __init__(self, *names):
        super().__init__("no value for %s" % ", ".join(names))


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
