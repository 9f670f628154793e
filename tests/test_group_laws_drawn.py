"""Group laws (a)-(e) of test_group_laws.py on drawn words.

A word holds one to three catalog maps at rational parameters: bateman,
theorem_map, mu_plus, E1, E2 and members of the four one-parameter
families at rational leaf values.  Every map has the identity entropy map,
so each has an inverse, and law (b) draws from all of them.  The words come
from the derandomized hypothesis profile of conftest.py; the three
pushforward laws, which cost the most, draw fewer of them.
"""

from fractions import Fraction
from functools import reduce
from itertools import combinations

import pytest

from recipgas.liealg import commutator
from recipgas.transforms import (bateman, compose, invert, mu_plus,
                                 one_param_bateman, one_param_exp,
                                 one_param_linear, one_param_q13,
                                 pushforward, pushforward_matrix, theorem_map,
                                 verify_reciprocal)

from test_group_laws import CTX, MAPS, MEGAIDEAL, _mul3

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

Q = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
NONZERO = Q.filter(bool)
SIGN = st.sampled_from((1, -1))
C, ID = st.just(CTX), st.just("identity")


def _at(family, value):
    """The member of the family at the leaf value."""
    return family.map_at(value)


ENTRY = st.one_of(
    st.builds(bateman, C, NONZERO, Q, NONZERO, Q, entropy=ID),
    st.builds(theorem_map, C, alpha=NONZERO, beta=Q, k=NONZERO, a11=SIGN,
              a34=Q, a35=NONZERO, a45=Q, psi=NONZERO, entropy=ID),
    st.builds(mu_plus, C, a33=NONZERO, a54=Q, a11=SIGN, alpha=NONZERO,
              beta=Q, psi=NONZERO, entropy=ID),
    st.sampled_from((MAPS["E1"], MAPS["E2"])),
    st.builds(_at, st.builds(one_param_bateman, C), Q),
    st.builds(_at, st.builds(one_param_q13, C, Q, NONZERO), Q),
    # the exponential leaf is positive
    st.builds(_at, st.builds(one_param_exp, C, NONZERO, Q, Q),
              Q.filter(lambda x: x > 0)),
    st.builds(_at, st.builds(one_param_linear, C, Q, Q), Q))
WORDS = st.integers(1, 3).flatmap(
    lambda n: st.lists(ENTRY, min_size=n, max_size=n))


def _pushforward_word(word, X):
    """X pushed forward by the word's maps one at a time, last first."""
    for T in reversed(word):
        X = pushforward(T, X)
    return X


@given(word=WORDS)
def test_drawn_composition_is_reciprocal(word):
    assert verify_reciprocal(reduce(compose, word)).passed


@given(word=WORDS)
def test_drawn_inverse_of_composition(word):
    assert invert(reduce(compose, word)).components() == reduce(
        compose, [invert(T) for T in reversed(word)]).components()


@given(word=WORDS)
@settings(max_examples=15)
def test_drawn_pushforward_composes(word):
    W = reduce(compose, word)
    for X in MEGAIDEAL:
        assert pushforward(W, X) == _pushforward_word(word, X)


@given(word=WORDS)
@settings(max_examples=15)
def test_drawn_pushforward_preserves_brackets(word):
    W = reduce(compose, word)
    for X, Y in combinations(MEGAIDEAL, 2):
        assert pushforward(W, commutator(X, Y)) == \
            commutator(pushforward(W, X), pushforward(W, Y))


@given(word=WORDS)
@settings(max_examples=15)
def test_drawn_automorphism_matrices_multiply(word):
    mats = [pushforward_matrix(T, MEGAIDEAL).entries
            for T in word + [reduce(compose, word)]]
    assert mats[-1] == reduce(_mul3, mats[:-1])
