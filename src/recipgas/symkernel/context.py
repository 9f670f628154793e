"""Variable table and formal-function registry.

A Context owns the ordered set of symbol names.  Each carries a role tag:
coordinate, field, parameter or jet for a plain variable, function for a
formal function application.  Applications such as h(S) or G(rho, S), and
their derivative markers h'(S), G^(1,0)(rho, S), are registered as opaque
generators: they occupy variable slots of their own and are related to
each other only through differentiation.

A Context grows as expressions name new formal applications, and it takes
no lock: a Context and the Exprs built on it belong to one thread.  Code
outside the kernel asks a Context about names (idx, role, ensure) and
never reads its tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import UnknownVariable

ROLES = ("coordinate", "field", "parameter", "jet", "function")


@dataclass(frozen=True)
class AtomInfo:
    """A formal function application occupying one variable slot."""
    fname: str
    orders: tuple       # per-argument derivative order
    args: tuple         # argument Exprs
    display: str


@dataclass
class Context:
    names: list = field(default_factory=list)
    roles: dict = field(default_factory=dict)     # name -> role
    index: dict = field(default_factory=dict)     # name -> int
    atoms: dict = field(default_factory=dict)     # index -> AtomInfo
    atom_index: dict = field(default_factory=dict)  # key -> index

    def declare(self, name: str, role: str = "parameter") -> int:
        if role not in ROLES:
            raise ValueError("unknown role %r" % role)
        if name in self.index:
            raise ValueError("variable %r already declared" % name)
        idx = len(self.names)
        self.names.append(name)
        self.index[name] = idx
        self.roles[name] = role
        return idx

    def ensure(self, name: str) -> int:
        if name in self.index:
            return self.index[name]
        return self.declare(name)

    def idx(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise UnknownVariable(name) from None

    def role(self, name: str) -> str:
        return self.roles[name]

    def atom_slot(self, fname: str, orders: tuple, args: tuple) -> int:
        """Variable slot for a formal application, creating it if new."""
        key = (fname, orders, tuple(str(a) for a in args))
        idx = self.atom_index.get(key)
        if idx is not None:
            return idx
        display = _atom_display(fname, orders, args)
        idx = len(self.names)
        self.names.append(display)
        self.index[display] = idx
        self.roles[display] = "function"
        self.atoms[idx] = AtomInfo(fname, orders, tuple(args), display)
        self.atom_index[key] = idx
        return idx


def _atom_display(fname: str, orders: tuple, args: tuple) -> str:
    argstr = ",".join(str(a) for a in args)
    if len(orders) == 1:
        return "%s%s(%s)" % (fname, "'" * orders[0], argstr)
    if any(orders):
        return "%s^(%s)(%s)" % (fname, ",".join(str(o) for o in orders), argstr)
    return "%s(%s)" % (fname, argstr)
