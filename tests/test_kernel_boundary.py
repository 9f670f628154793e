"""Only symkernel knows how an Expr or a Context is stored.

Modules under src/recipgas outside symkernel/ ask Expr and Context
questions (as_numer_denom, primitive, coefficients, role, ...).  They do
not import the polynomial module, read the numerator and denominator
dicts or the Context tables, or build an Expr that skips normalisation.

Extended-precision arithmetic stays in the Lie check: only
transforms/verify.py imports mpmath, for its stencil nodes and leaf
values; every other number the program computes is a float or exact.

The numeric flow checks lie_equation_check and composition_additivity
serve only the lie-flow benchmark: inside the package only their module
and the transforms package's exports name them, so no verdict of the
program comes from them.  Likewise only their module evaluates a leaf's
numeric law (LEAVES[...].law); the program's verdicts use the leaf's ODE
and addition law.
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


def _imports_mpmath(node):
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "mpmath" for a in node.names)
    return isinstance(node, ast.ImportFrom) and node.level == 0 \
        and node.module.split(".")[0] == "mpmath"


def _modules_where(pred):
    """The package's modules, as paths relative to it, that hold a node
    for which pred is true."""
    return sorted(str(path.relative_to(PACKAGE))
                  for path in PACKAGE.rglob("*.py")
                  if any(pred(node) for node in ast.walk(
                      ast.parse(path.read_text(), str(path)))))


def test_mpmath_only_in_the_lie_check():
    found = _modules_where(_imports_mpmath)
    assert found == ["transforms/verify.py"], found


NUMERIC_FLOW_CHECKS = {"lie_equation_check", "composition_additivity"}


def _names(node):
    """The identifiers a node names: a name, an attribute, an imported or
    defined name, or a string (an __all__ entry)."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.alias):
        return {node.name, node.asname}
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    return set()


def test_numeric_flow_checks_only_exported():
    found = _modules_where(lambda node: _names(node) & NUMERIC_FLOW_CHECKS)
    assert found == ["transforms/__init__.py", "transforms/verify.py"], found


def test_leaf_law_read_only_by_the_numeric_checks():
    found = _modules_where(
        lambda node: isinstance(node, ast.Attribute) and node.attr == "law")
    assert found == ["transforms/verify.py"], found
