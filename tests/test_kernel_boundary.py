"""Only symkernel knows how an Expr or a Context is stored.

Modules under src/recipgas outside symkernel/ ask Expr and Context
questions (as_numer_denom, primitive, coefficients, role, ...).  They do
not import the polynomial module, read the numerator and denominator
dicts or the Context tables, or build an Expr that skips normalisation.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "recipgas"
PRIVATE_ATTRIBUTES = {"num", "den", "atoms", "info", "atom_index", "roles"}


def _imports_poly(node):
    if isinstance(node, ast.Import):
        return any(a.name.endswith("symkernel.poly") for a in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.endswith("symkernel.poly") or (
            module.endswith("symkernel")
            and any(a.name == "poly" for a in node.names))
    return False


def _violations(path):
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        if _imports_poly(node):
            yield node.lineno, "imports symkernel.poly"
        elif isinstance(node, ast.Attribute) \
                and node.attr in PRIVATE_ATTRIBUTES:
            yield node.lineno, "reads .%s" % node.attr
        elif isinstance(node, ast.keyword) and node.arg == "_normalized":
            yield node.lineno, "passes _normalized"


def test_kernel_representation_stays_inside_symkernel():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE)
        if rel.parts[0] == "symkernel":
            continue
        found += ["%s:%d %s" % (rel, line, what)
                  for line, what in _violations(path)]
    assert not found, "kernel internals used outside symkernel: " + \
        ", ".join(found)
