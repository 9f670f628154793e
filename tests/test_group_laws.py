"""Group laws of the map algebra, decided exactly on fixed words.

The reciprocal transformations form a group acting on the equivalence
algebra, so composition, inversion and pushforward obey laws that need no
outside oracle (Olver 1986, ch. 1: the pushforward of vector fields
preserves the bracket and composes, so the automorphism matrices of
criterion 8 multiply).  The maps are the Bateman map at b = (1, 0, 2, 0),
the theorem map of criterion 8 and the involutions E1, E2, all with the
identity entropy map, so each has an inverse.  The theorem map sends the
central X1 to a11 X1, and each involution after it flips that sign.
The same laws on drawn words are in test_group_laws_drawn.py.
"""

from fractions import Fraction
from itertools import combinations, product

import pytest

from recipgas.gasdyn import standard_context
from recipgas.liealg import commutator, standard_basis
from recipgas.transforms import (bateman, compose, invert,
                                 involution_E1_reciprocal,
                                 involution_E2_reciprocal, pushforward,
                                 pushforward_matrix, theorem_map,
                                 verify_reciprocal)

CTX = standard_context()
MAPS = {
    "bateman": bateman(CTX, 1, 0, 2, 0, entropy="identity"),
    "theorem": theorem_map(CTX, alpha=1, beta=2, k=1, a11=1,
                           a34=Fraction(1, 2), a35=2, a45=3, psi=1,
                           entropy="identity"),
    "E1": involution_E1_reciprocal(CTX),
    "E2": involution_E2_reciprocal(CTX),
}
PAIRS = list(product(MAPS, repeat=2))
MEGAIDEAL = standard_basis(CTX)[2:5]


def _mul3(a, b):
    """Product a b of 3x3 matrices."""
    return tuple(tuple(sum(a[k][n] * b[n][i] for n in range(3))
                       for i in range(3)) for k in range(3))


@pytest.mark.parametrize("a, b", PAIRS)
def test_composition_is_reciprocal(a, b):
    assert verify_reciprocal(compose(MAPS[a], MAPS[b])).passed


@pytest.mark.parametrize("a, b", PAIRS)
def test_inverse_of_composition(a, b):
    A, B = MAPS[a], MAPS[b]
    assert invert(compose(A, B)).components() == \
        compose(invert(B), invert(A)).components()


@pytest.mark.parametrize("a", MAPS)
def test_pushforward_preserves_brackets(a):
    A = MAPS[a]
    for X, Y in combinations(MEGAIDEAL, 2):
        assert pushforward(A, commutator(X, Y)) == \
            commutator(pushforward(A, X), pushforward(A, Y))


@pytest.mark.parametrize("a, b", PAIRS)
def test_pushforward_composes(a, b):
    A, B = MAPS[a], MAPS[b]
    AB = compose(A, B)
    for X in MEGAIDEAL:
        assert pushforward(AB, X) == pushforward(A, pushforward(B, X))


@pytest.mark.parametrize("a, b", PAIRS)
def test_automorphism_matrices_multiply(a, b):
    # (AB)_* X_i = A_*(sum_n M_B[n][i] X_n), and the entries are constants
    MA, MB, MAB = (pushforward_matrix(T, MEGAIDEAL).entries
                   for T in (MAPS[a], MAPS[b], compose(MAPS[a], MAPS[b])))
    assert all(e.is_constant() for row in MA + MB for e in row)
    assert MAB == _mul3(MA, MB)


@pytest.mark.parametrize("a11", [1, -1])
@pytest.mark.parametrize("involution", [None, "E1", "E2"])
def test_center_sign_under_involutions(a11, involution):
    # T_* X1 = a11 X1 for the theorem map at criterion 8's parameters, and
    # each involution after it flips the sign once
    T = theorem_map(CTX, alpha=1, beta=2, k=1, a11=a11, a34=Fraction(1, 2),
                    a35=2, a45=3, psi=1, entropy="identity")
    sign = a11
    if involution:
        T = compose(MAPS[involution], T)
        sign = -sign
    X1 = standard_basis(CTX)[0]
    assert pushforward(T, X1) == X1.scale(sign)
