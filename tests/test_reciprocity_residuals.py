"""The six reciprocity residuals of every catalog entry, pinned against
the construction they replace.

transformed_law_residuals pulls the primed conserved forms back through
the form matrix inside one substitution, over reserved atoms, and
verify_reciprocal reduces the four law residuals and the two closedness
residuals in one reduce_on_manifold call.  For every build that
tests/test_catalog_components.py pins (every CATALOG entry at its
defaults and at rational parameters, under both entropy maps where the
builder takes one), the same residuals are built the plain way: Expr
products cx' * f1j + cy' * f2j of the substituted law coefficients, then
one reduction for the laws and one for the closedness of dx' and dy'.
Every residual must agree as text.
"""

import pytest

from recipgas.gasdyn import (CLOSEDNESS_NAMES, OneForm, closedness_residuals,
                             conservation_law_forms, reduce_on_manifold,
                             standard_context)
from recipgas.symkernel import parse, substitute_all
from recipgas.symkernel.errors import ParseError
from recipgas.transforms import CATALOG, verify_reciprocal
from recipgas.transforms.verify import (PULLBACK_ATOMS, RECIP_LAW_NAMES,
                                        transformed_law_residuals)
from test_catalog_components import build_map, cases


def plain_residuals(T, solve_for):
    """The six reduced residuals by Expr products and two reductions."""
    laws = conservation_law_forms(T.ctx)
    primed = substitute_all([c for law in laws for c in (law.cx, law.cy)],
                            T.field_map())
    pulled = [OneForm(*(cxp * a + cyp * b for a, b in zip(*T.f)))
              for cxp, cyp in zip(primed[::2], primed[1::2])]
    return reduce_on_manifold([w.exterior_derivative() for w in pulled],
                              solve_for) \
        + reduce_on_manifold([OneForm(*row).exterior_derivative()
                              for row in T.f], solve_for)


def case_id(value) -> str:
    """The test id of a case's entry name, or key=value,... of its
    params."""
    if isinstance(value, str):
        return value
    return ",".join("%s=%s" % kv for kv in value.items()) or "defaults"


@pytest.mark.parametrize("solve_for", ["x", "y"])
@pytest.mark.parametrize("name, params", cases(), ids=case_id)
def test_residuals_match_the_plain_construction(name, params, solve_for):
    T = build_map(standard_context(), name, params)
    got = reduce_on_manifold(
        transformed_law_residuals(T) + closedness_residuals(T.f), solve_for)
    want = plain_residuals(T, solve_for)
    assert [str(r) for r in got] == [str(r) for r in want]
    for r in got:
        assert not set(PULLBACK_ATOMS) & r.free_variables()
    rep = verify_reciprocal(T, solve_for)
    assert [(c.name, c.passed) for c in rep.items[:6]] == [
        (n, r.is_zero()) for n, r in zip(RECIP_LAW_NAMES + CLOSEDNESS_NAMES,
                                         want)]


def test_every_entry_is_covered():
    assert {name for name, _ in cases()} == set(CATALOG)


@pytest.mark.parametrize("atom", PULLBACK_ATOMS)
def test_parse_refuses_the_reserved_atoms(atom):
    ctx = standard_context()
    # the atoms are declared in the context once it has pulled a map back
    transformed_law_residuals(build_map(ctx, "identity", {}))
    assert atom in ctx.index
    with pytest.raises(ParseError):
        parse(ctx, atom)
    with pytest.raises(ParseError):
        parse(ctx, "rho + %s" % atom)
