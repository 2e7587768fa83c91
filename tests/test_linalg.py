from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from qspread.invariance import check_kernel_sums
from qspread.linalg import (
    BAlgebra,
    dagger,
    is_exact,
    projection_pair,
    random_hermitian,
    random_pvm,
    random_rational_symmetric,
    random_unitary,
    residual_norm,
    residual_norms,
)
from qspread.moments import random_matrix_law, random_rational_matrix_law
from qspread.partitions import MobiusCache
from qspread.qis import (
    build_block_rep,
    check_increasing_relations,
    classical_point_rep,
    enumerate_increasing,
    quantum_extension,
    two_projection_rep,
)
from qspread.qperm import check_magic_unitary, permutation_rep
from qspread.reports import EXACT_ZERO, ResidualTracker


class TestInvolution:
    def test_float_backend(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = random_hermitian(4, rng) + 1j * random_hermitian(4, rng)
            b = random_hermitian(4, rng)
            assert np.allclose(dagger(a @ b), dagger(b) @ dagger(a), atol=1e-12)
            assert np.allclose(dagger(dagger(a)), a, atol=1e-15)

    def test_exact_backend(self):
        rng = np.random.default_rng(12)
        a = random_rational_symmetric(3, rng)
        b = random_rational_symmetric(3, rng)
        assert (dagger(a @ b) == dagger(b) @ dagger(a)).all()
        assert (dagger(dagger(a)) == a).all()
        assert is_exact(a @ b)


class TestPartialExpectation:
    def test_unit(self):
        alg = BAlgebra(d=2, D=3)
        assert np.allclose(alg.expect(np.eye(alg.ambient_dim, dtype=complex)), np.eye(2))

    def test_embedded_element_fixed(self):
        alg = BAlgebra(d=2, D=3)
        rng = np.random.default_rng(5)
        b = random_hermitian(2, rng)
        assert np.allclose(alg.expect(alg.embed(b)), b, atol=1e-14)

    def test_traceless_second_factor_killed(self):
        alg = BAlgebra(d=2, D=2)
        b = np.array([[1, 2], [3, 4]], dtype=complex)
        t = np.array([[1, 0], [0, -1]], dtype=complex)  # traceless
        assert np.allclose(alg.expect(np.kron(b, t)), np.zeros((2, 2)), atol=1e-15)

    def test_idempotent_onto_b(self):
        alg = BAlgebra(d=2, D=4)
        rng = np.random.default_rng(6)
        a = random_hermitian(8, rng)
        e = alg.expect(a)
        assert np.allclose(alg.expect(alg.embed(e)), e, atol=1e-13)

    def test_bimodule_property(self):
        alg = BAlgebra(d=2, D=3)
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = random_hermitian(6, rng)
            b1 = random_hermitian(2, rng)
            b2 = random_hermitian(2, rng)
            lhs = alg.expect(alg.embed(b1) @ a @ alg.embed(b2))
            assert np.allclose(lhs, b1 @ alg.expect(a) @ b2, atol=1e-12)

    def test_trace_compatibility(self):
        # phi(E[a] (x) 1) = phi(a), and phi is tracial
        alg = BAlgebra(d=2, D=3)
        rng = np.random.default_rng(8)
        a = random_hermitian(6, rng)
        b = random_hermitian(6, rng)
        phi = lambda x: np.trace(x) / x.shape[0]
        assert abs(phi(alg.embed(alg.expect(a))) - phi(a)) < 1e-12
        assert abs(phi(a @ b) - phi(b @ a)) < 1e-12

    def test_exact_backend(self):
        alg = BAlgebra(d=2, D=2)
        rng = np.random.default_rng(9)
        b = random_rational_symmetric(2, rng)
        assert (alg.expect(alg.embed(b)) == b).all()
        assert (alg.expect(np.eye(alg.ambient_dim, dtype=object)) == np.eye(2, dtype=object)).all()

    def test_dimension_mismatch(self):
        alg = BAlgebra(d=2, D=3)
        with pytest.raises(ValueError):
            alg.expect(np.eye(5, dtype=complex))
        with pytest.raises(ValueError):
            alg.embed(np.eye(3, dtype=complex))


class TestProjectionPair:
    def test_theta_zero(self):
        p, q = projection_pair(0.0)
        assert np.allclose(p, q)

    def test_theta_right_angle(self):
        p, q = projection_pair(np.pi / 2)
        assert np.allclose(q, np.diag([0, 1]))
        assert np.allclose(p @ q, np.zeros((2, 2)), atol=1e-15)

    def test_theta_eighth_turn(self):
        p, q = projection_pair(np.pi / 4)
        assert abs(np.trace(p @ q) - 0.5) < 1e-12  # cos^2(pi/4)

    @pytest.mark.parametrize("theta", [0.3, 1.1, 2.8])
    def test_projections(self, theta):
        for x in projection_pair(theta):
            assert residual_norm(x @ x - x) < 1e-14
            assert residual_norm(dagger(x) - x) < 1e-14


class TestRandomPVM:
    def test_single(self):
        (p,) = random_pvm(1, 3, seed=0)
        assert np.allclose(p, np.eye(3))

    def test_full_flag(self):
        ps = random_pvm(4, 4, seed=1)
        assert sum(int(round(np.trace(p).real)) for p in ps) == 4

    def test_residuals(self):
        ps = random_pvm(2, 4, seed=3)
        assert residual_norm(sum(ps) - np.eye(4)) < 1e-12
        for i, p in enumerate(ps):
            assert residual_norm(p @ p - p) < 1e-12
            assert residual_norm(dagger(p) - p) < 1e-12
            for q in ps[i + 1 :]:
                assert residual_norm(p @ q) < 1e-12

    def test_too_small(self):
        with pytest.raises(ValueError):
            random_pvm(3, 2, seed=0)

    def test_seed_determinism(self):
        a = random_pvm(2, 4, seed=9)
        b = random_pvm(2, 4, seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestHelpers:
    def test_unitary(self):
        u = random_unitary(5, np.random.default_rng(2))
        assert residual_norm(u @ dagger(u) - np.eye(5)) < 1e-12

    def test_residual_norm_exact_zero(self):
        z = np.zeros((2, 2), dtype=object)
        assert residual_norm(z) == 0
        assert type(residual_norm(z)) is int

    def test_partial_expectation_function(self):
        alg = BAlgebra(d=1, D=2)
        a = np.array([[2, 0], [0, 4]], dtype=complex)
        assert np.allclose(alg.expect(a), [[3]])


class TestZeroDefects:
    def test_zero_float_defect_skips_the_norm(self, monkeypatch):
        def no_norm(*args, **kwargs):
            raise AssertionError("np.linalg.norm called on a zero defect")

        monkeypatch.setattr(np.linalg, "norm", no_norm)
        for shape in ((2, 2), (4, 4), (0, 0)):
            value = residual_norm(np.zeros(shape, dtype=complex))
            assert value == 0.0 and type(value) is float

    def test_nan_defect_reaches_the_norm_and_fails_its_report(self, monkeypatch):
        defect = np.array([[np.nan, 0], [0, 0]], dtype=complex)
        seen = []
        monkeypatch.setattr(np.linalg, "norm", lambda a, ord=None: seen.append(a) or np.nan)
        value = residual_norm(defect)
        assert len(seen) == 1 and math.isnan(value)
        tracker = ResidualTracker("nan_defect", 1e-9)
        tracker.add(("case",), value)
        report = tracker.report()
        assert not report.passed and report.witness == ["case"]


class TestResidualNorms:
    """The batched residuals of check_kernel_sums follow residual_norm slice
    by slice: the same value of the same type, the int 0 for an exact zero
    defect, and a NaN that still reaches the norm."""

    @staticmethod
    def same(got, want):
        return type(got) is type(want) and (got == want or math.isnan(got) and math.isnan(want))

    def test_float_stack(self):
        rng = np.random.default_rng(11)
        stack = rng.normal(size=(6, 3, 3)) + 1j * rng.normal(size=(6, 3, 3))
        stack[1] = 0
        stack[3] = -0.0
        stack[4] = 1e-300 * stack[4]
        stack[5, 2, 0] = np.inf
        got = residual_norms(stack)
        assert all(self.same(g, residual_norm(a)) for g, a in zip(got, stack, strict=True))
        assert got[1] == got[3] == 0.0 and math.isnan(got[5])

    def test_exact_stack(self):
        zero, one = np.zeros((2, 2), dtype=object), np.eye(2, dtype=object)
        stack = np.array([zero, [[1, -3], [0, Fraction(-7, 2)]], one,
                          [[0, 0], [Fraction(1, 9), 0]], [[Fraction(0), 0], [0, 0]]], dtype=object)
        got = residual_norms(stack)
        assert all(self.same(g, residual_norm(a)) for g, a in zip(got, stack, strict=True))
        assert got[0] == got[4] == 0 and type(got[0]) is type(got[4]) is int
        assert got[1:4] == [Fraction(7, 2), 1, Fraction(1, 9)] and type(got[2]) is int

    def test_zero_slices_skip_the_svd(self, monkeypatch):
        svd, seen = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: seen.append(len(a)) or svd(a, **kw))
        stack = np.zeros((5, 2, 2), dtype=complex)
        stack[2, 0, 1] = 3j
        assert residual_norms(stack) == [0.0, 0.0, 3.0, 0.0, 0.0] and seen == [1]

    def test_nan_slice_reaches_the_norm(self):
        stack = np.zeros((3, 2, 2), dtype=complex)
        stack[1, 0, 0] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            residual_norm(stack[1])
        with pytest.raises(np.linalg.LinAlgError):
            residual_norms(stack)


class TestBackendIsTheDtype:
    """Units and zeros take the dtype of the arrays they stand beside."""

    def test_units_and_zeros_take_the_dtype_of_their_data(self):
        for family in (two_projection_rep(0.3), build_block_rep(2, 2, 3, 0)):
            gen = family.gen(1, 1)
            assert family.unit().dtype == family.zero().dtype == gen.dtype == np.complex128
            assert (family.unit() == np.eye(family.dim)).all() and not family.zero().any()
        law = random_matrix_law(2, 3, 1)
        assert law.unit().dtype == law.zero().dtype == law.ambient.dtype == np.complex128
        alg = BAlgebra(d=2, D=3)
        for b in (np.eye(2, dtype=object), np.eye(2, dtype=complex)):
            assert alg.embed(b).dtype == b.dtype
        assert all(type(x) is int for x in alg.embed(np.eye(2, dtype=object)).flat)


class TestIntegerFamilies:
    """Classical 0/1 families hold Python ints; a Fraction appears only where
    the data has a denominator."""

    def test_exact_unit_and_zero_are_ints(self):
        rep, law = permutation_rep((2, 3, 1)), random_rational_matrix_law(2, 3, 1)
        for unit, zero, d in ((rep.unit(), rep.zero(), 1), (law.unit(), law.zero(), 2)):
            assert is_exact(unit) and is_exact(zero)
            assert all(type(x) is int for x in (*unit.flat, *zero.flat))
            assert (unit == np.eye(d)).all() and not zero.any() and zero.shape == (d, d)

    def test_classical_families_give_int_or_fraction_residuals(self, monkeypatch):
        kinds = set()
        add = ResidualTracker.add

        def recording(tracker, witness, residual):
            kinds.add(type(residual))
            add(tracker, witness, residual)

        monkeypatch.setattr(ResidualTracker, "add", recording)
        reps = [permutation_rep(p) for p in itertools.permutations((1, 2, 3))]
        for l in enumerate_increasing(2, 4):
            point = classical_point_rep(l)
            assert check_increasing_relations(point, tolerance=0).max_residual == EXACT_ZERO
            reps.append(quantum_extension(point, tolerance=0))
        cache = MobiusCache()
        for rep in reps:
            assert all(type(x) is int for g in rep.gens.values() for x in g.flat)
            assert check_magic_unitary(rep, tolerance=0).max_residual == EXACT_ZERO
            assert check_kernel_sums(rep, 3, tolerance=0, cache=cache).max_residual == EXACT_ZERO
        assert kinds and kinds <= {int, Fraction}

    def test_kernel_sums_on_permutation_reps_do_no_fraction_arithmetic(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("Fraction arithmetic")

        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__", "__neg__", "__abs__", "__pow__"):
            monkeypatch.setattr(Fraction, name, refuse)
        cache = MobiusCache()
        for perm in itertools.permutations((1, 2, 3)):
            report = check_kernel_sums(permutation_rep(perm), 4, tolerance=0, cache=cache)
            assert report.max_residual == EXACT_ZERO

    def test_expectations_of_int_input_are_fractions(self):
        alg = BAlgebra(d=2, D=3)
        a = np.eye(6, dtype=object)
        a[0, 3] = 3  # row (1, 1), column (2, 1) of M_2 (x) M_3
        e = alg.expect(a)
        assert all(type(x) is Fraction for x in e.flat)
        assert (e == np.array([[1, 1], [0, 1]])).all()
        t = alg.trace_state(np.eye(2, dtype=object))
        assert type(t) is Fraction and t == 1
        assert type(alg.trace_state(np.zeros((2, 2), dtype=object))) is Fraction
