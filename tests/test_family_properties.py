"""Hypothesis property tests on random families: increasing sequences with
their extension to magic unitaries, permutations with the convolution of their
representations, and seeded banded block families.

The classical families are exact (1x1 generators of Python ints 0 and 1), so
every relation must hold with an exact zero residual, and every comparison is
an equality.  The block families are complex floats and hold to 1e-10.
"""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from qspread.qis import (
    IncreasingSequence,
    build_block_rep,
    check_increasing_relations,
    classical_point_rep,
    extend_to_permutation,
    quantum_extension,
)
from qspread.qperm import check_magic_unitary, permutation_rep
from qspread.reports import EXACT_ZERO

from helpers import compose, convolution

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def increasing_sequences(draw):
    """1 <= l_1 < ... < l_k <= n with 1 <= k <= n <= 7."""
    n = draw(st.integers(1, 7))
    values = draw(st.sets(st.integers(1, n), min_size=1, max_size=n))
    return IncreasingSequence(len(values), n, tuple(sorted(values)))


@st.composite
def block_families(draw):
    """``build_block_rep`` with 1 <= k, n <= 3, n <= dim <= 4 and a random seed."""
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return build_block_rep(k, n, draw(st.integers(n, 4)), draw(st.integers(0, 2**31)))


def permutations_of(n: int):
    return st.permutations(range(1, n + 1)).map(tuple)


def permutation_pairs():
    return st.integers(1, 5).flatmap(
        lambda n: st.tuples(permutations_of(n), permutations_of(n)))


def same_generators(left, right) -> bool:
    return left.gens.keys() == right.gens.keys() and all(
        (left.gens[key] == right.gens[key]).all() for key in right.gens)


class TestIncreasingSequenceProperties:
    @PROPERTY_SETTINGS
    @given(increasing_sequences())
    def test_classical_point_passes_its_relations_exactly(self, l):
        report = check_increasing_relations(classical_point_rep(l), tolerance=0)
        assert report.passed
        assert report.max_residual == EXACT_ZERO

    @PROPERTY_SETTINGS
    @given(increasing_sequences())
    def test_extension_is_the_extended_permutation(self, l):
        extended = quantum_extension(classical_point_rep(l), tolerance=0)
        expected = permutation_rep(extend_to_permutation(l))
        assert (extended.k, extended.n, extended.dim) == (l.n, l.n, 1)
        assert same_generators(extended, expected)


class TestConvolutionProperties:
    @PROPERTY_SETTINGS
    @given(permutation_pairs())
    def test_convolution_represents_the_composition(self, pair):
        a, b = pair
        conv = convolution(permutation_rep(a), permutation_rep(b))
        assert conv.dim == 1
        assert same_generators(conv, permutation_rep(compose(a, b)))

    @PROPERTY_SETTINGS
    @given(permutation_pairs())
    def test_convolution_is_an_exact_magic_unitary(self, pair):
        a, b = pair
        report = check_magic_unitary(
            convolution(permutation_rep(a), permutation_rep(b)), tolerance=0)
        assert report.passed
        assert report.max_residual == EXACT_ZERO


class TestBlockFamilyProperties:
    @PROPERTY_SETTINGS
    @given(block_families())
    def test_block_family_passes_its_relations_and_extends_to_magic(self, rep):
        assert check_increasing_relations(rep, tolerance=1e-10).passed
        extended = quantum_extension(rep, tolerance=1e-10)
        assert check_magic_unitary(extended, tolerance=1e-10).passed
