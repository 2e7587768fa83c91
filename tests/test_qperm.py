from __future__ import annotations

import itertools

import numpy as np
import pytest

from qspread.linalg import projection_pair, residual_norm
from qspread.qis import quantum_extension, two_projection_rep
from qspread.qperm import check_magic_unitary, permutation_rep, two_point_rep
from qspread.reports import EXACT_ZERO

from helpers import compose, convolution


def all_permutations(n):
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


class TestPermutationRep:
    def test_identity(self):
        rep = permutation_rep((1, 2, 3))
        for i in range(1, 4):
            for j in range(1, 4):
                assert rep.gen(i, j)[0, 0] == (1 if i == j else 0)

    def test_swap(self):
        rep = permutation_rep((2, 1))
        assert rep.gen(2, 1)[0, 0] == 1
        assert rep.gen(1, 2)[0, 0] == 1
        assert rep.gen(1, 1)[0, 0] == 0

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            permutation_rep((1, 1, 3))

    def test_magic_exact(self):
        for perm in all_permutations(4):
            report = check_magic_unitary(permutation_rep(perm), tolerance=0)
            assert report.passed
            assert report.max_residual == EXACT_ZERO


class TestMagicUnitary:
    def test_two_point_projection_family(self):
        p, q = projection_pair(0.6)
        report = check_magic_unitary(two_point_rep(q), tolerance=1e-12)
        assert report.passed, report.max_residual

    def test_extension_of_two_projection_family(self):
        extended = quantum_extension(two_projection_rep(0.9))
        report = check_magic_unitary(extended, tolerance=1e-10)
        assert report.passed, report.max_residual

    def test_derived_orthogonality_follows(self):
        # the in-row/in-column orthogonality must come along for free
        for rep in (
            permutation_rep((3, 1, 2)),
            two_point_rep(projection_pair(1.2)[1]),
            quantum_extension(two_projection_rep(0.4)),
        ):
            report = check_magic_unitary(rep, tolerance=1e-10)
            defining = report.params["defining_residual"]
            derived = report.params["derived_residual"]
            assert derived <= 50 * defining + 1e-13

    def test_failure_detected(self):
        p, _ = projection_pair(0.0)
        rep = two_point_rep(p + 0.2 * np.eye(2))
        report = check_magic_unitary(rep, tolerance=1e-9)
        assert not report.passed
        assert report.witness is not None

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            check_magic_unitary(two_projection_rep(0.5))


class TestConvolution:
    def test_matches_composition_exhaustively_n_le_4(self):
        for n in (2, 3, 4):
            for a in all_permutations(n):
                for b in all_permutations(n):
                    conv = convolution(permutation_rep(a), permutation_rep(b))
                    expected = permutation_rep(compose(a, b))
                    for key, g in expected.gens.items():
                        assert conv.gens[key][0, 0] == g[0, 0]

    def test_identity_neutral(self):
        rep = two_point_rep(projection_pair(0.75)[1])
        conv = convolution(rep, permutation_rep((1, 2)))
        for key, g in rep.gens.items():
            assert np.array_equal(conv.gens[key], g)

    def test_projection_rep_self_convolution(self):
        rep = two_point_rep(projection_pair(0.33)[1])
        conv = convolution(rep, rep)
        assert conv.dim == 4
        report = check_magic_unitary(conv, tolerance=1e-10)
        assert report.passed, report.max_residual

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            convolution(permutation_rep((1, 2)), permutation_rep((1, 2, 3)))

    def test_associative_exhaustive_n3(self):
        for a in all_permutations(3):
            for b in all_permutations(3):
                for c in all_permutations(3):
                    left = convolution(convolution(permutation_rep(a), permutation_rep(b)),
                                       permutation_rep(c))
                    right = convolution(permutation_rep(a),
                                        convolution(permutation_rep(b), permutation_rep(c)))
                    for key in left.gens:
                        assert left.gens[key][0, 0] == right.gens[key][0, 0]

    def test_associative_sampled_n4(self):
        rng = np.random.default_rng(14)
        perms = all_permutations(4)
        for _ in range(40):
            a, b, c = (perms[rng.integers(len(perms))] for _ in range(3))
            left = convolution(convolution(permutation_rep(a), permutation_rep(b)),
                               permutation_rep(c))
            right = convolution(permutation_rep(a),
                                convolution(permutation_rep(b), permutation_rep(c)))
            for key in left.gens:
                assert left.gens[key][0, 0] == right.gens[key][0, 0]

    def test_associative_matrix_reps(self):
        u = two_point_rep(projection_pair(0.5)[1])
        v = two_point_rep(projection_pair(1.1)[1])
        w = permutation_rep((2, 1))
        left = convolution(convolution(u, v), w)
        right = convolution(u, convolution(v, w))
        worst = max(
            residual_norm(np.asarray(left.gens[key], dtype=complex)
                          - np.asarray(right.gens[key], dtype=complex))
            for key in left.gens
        )
        assert worst < 1e-12
