from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from qspread.linalg import residual_norm
from qspread.moments import (
    CATALAN_CAP,
    FreeSequence,
    IndependentSequence,
    ScalarLaw,
    Word,
    free_iid_moment,
    moment_cumulant_roundtrip,
    partition_cumulant,
    partition_moment,
    random_matrix_law,
    random_rational_matrix_law,
    sandwiched_moment,
    semicircular_law,
)
from qspread import moments
from qspread.partitions import MobiusCache, Partition, catalan, enumerate_all, kernel

CACHE = MobiusCache()


def cumulant_sum(law, word: Word):
    """The joint free moment as the sum of partitioned cumulants over NC(m)
    below the kernel: the slow path that free_iid_moment keeps only for
    crossing kernels."""
    single = word.with_indices((1,) * word.length)
    shared: dict = {}
    total = law.zero()
    for part in CACHE.below(kernel(word.indices)):
        total = total + partition_cumulant(law, part, single, CACHE, shared)
    return total


def peeled_moment(law, part: Partition, inserts: list, powers: list):
    """The nested moment by peeling, the path ``partition_moment`` replaced:
    evaluate the leftmost interval block through the law, splice its value
    into the inserts around it, drop the block, relabel the rest by position
    and repeat.  Kept as the differential oracle of the nesting-tree fold."""
    if part.m == 0:
        return inserts[0]

    def bmul(a, b):
        return a @ b if isinstance(a, np.ndarray) else a * b

    for block in part.blocks:
        if block[-1] - block[0] == len(block) - 1:
            lo, hi = block[0], block[-1]  # positions, 1-based
            value = sandwiched_moment(law, [law.unit(), *inserts[lo:hi], law.unit()],
                                      powers[lo - 1:hi])
            spliced = bmul(bmul(inserts[lo - 1], value), inserts[hi])
            remaining = [b for b in part.blocks if b != block]
            relabel = {x: r + 1 for r, x in enumerate(sorted(x for b in remaining for x in b))}
            rest = Partition(part.m - len(block), [[relabel[x] for x in b] for b in remaining])
            return peeled_moment(law, rest, inserts[:lo - 1] + [spliced] + inserts[hi + 1:],
                                 powers[:lo - 1] + powers[hi:])
    raise ValueError(f"{part!r} has no interval block (crossing partition)")


def random_scalar_law(seed: int, max_order: int = 12) -> ScalarLaw:
    rng = np.random.default_rng(seed)
    moments = [Fraction(1)] + [
        Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
        for _ in range(max_order)
    ]
    return ScalarLaw(moments)


class TestWord:
    def test_validation(self):
        law = semicircular_law()
        with pytest.raises(ValueError):
            Word((1, 2), (law.unit(),) * 2, (1, 1))  # missing insert
        with pytest.raises(ValueError):
            Word((0,), (law.unit(),) * 2, (1,))  # bad index
        with pytest.raises(ValueError):
            Word((1,), (law.unit(),) * 2, (0,))  # bad power

    def test_plain_and_relabel(self):
        law = semicircular_law()
        w = Word.plain(law, (1, 2, 1))
        assert w.powers == (1, 1, 1)
        v = w.with_indices((3, 4, 3))
        assert v.inserts is w.inserts


class TestLaws:
    def test_scalar_law_eval(self):
        law = ScalarLaw([Fraction(1), Fraction(1, 2), Fraction(3)])
        # E[b0 x b1 x b2] = b0 b1 b2 E[x^2]
        assert law.eval([Fraction(2), Fraction(1), Fraction(5)]) == Fraction(30)
        assert law.eval([Fraction(7)]) == Fraction(7)  # zero variables

    def test_scalar_law_needs_unit_zeroth_moment(self):
        with pytest.raises(ValueError):
            ScalarLaw([0, 1])

    def test_semicircular_moments(self):
        law = semicircular_law()
        assert law.moments[:7] == [1, 0, 1, 0, 2, 0, 5]

    def test_semicircular_moments_are_the_catalan_ints(self):
        law = semicircular_law()
        assert len(law.moments) == CATALAN_CAP + 1 and law.exact
        for p, value in enumerate(law.moments):
            assert type(value) is int, p
            assert value == (0 if p % 2 else catalan(p // 2)), p
        # the unit and zero stay Fractions, so every product keeps its backend
        assert type(law.unit()) is Fraction and type(law.zero()) is Fraction

    def test_matrix_law_zero_variables(self):
        law = random_matrix_law(2, 2, seed=0)
        rng = np.random.default_rng(1)
        b = law.random_element(rng)
        assert residual_norm(law.eval([b]) - b) < 1e-12

    def test_matrix_law_multilinearity(self):
        law = random_matrix_law(2, 3, seed=2)
        rng = np.random.default_rng(3)
        b0, b1, c1, b2 = (law.random_element(rng) for _ in range(4))
        lam = 1.7 - 0.4j
        lhs = law.eval([b0, b1 + lam * c1, b2])
        rhs = law.eval([b0, b1, b2]) + lam * law.eval([b0, c1, b2])
        assert residual_norm(lhs - rhs) < 1e-10

    def test_exact_matrix_law(self):
        law = random_rational_matrix_law(2, 2, seed=4)
        b = law.unit()
        out = law.eval([b, b])
        assert out.dtype == object
        assert all(isinstance(x, Fraction) for x in out.flat)


class TestPartitionMoment:
    def test_single_block_is_plain_eval(self):
        law = random_matrix_law(2, 2, seed=5)
        rng = np.random.default_rng(6)
        inserts = tuple(law.random_element(rng) for _ in range(4))
        word = Word((1, 1, 1), inserts, (1, 1, 1))
        direct = law.eval(list(inserts))
        assert residual_norm(partition_moment(law, Partition.full(3), word) - direct) < 1e-10

    def test_singletons_unroll(self):
        law = random_matrix_law(2, 2, seed=7)
        rng = np.random.default_rng(8)
        inserts = tuple(law.random_element(rng) for _ in range(4))
        word = Word((1, 1, 1), inserts, (1, 2, 1))
        ex1 = law.eval([law.unit(), law.unit()])
        ex2 = sandwiched_moment(law, [law.unit(), law.unit()], [2])
        expected = inserts[0] @ ex1 @ inserts[1] @ ex2 @ inserts[2] @ ex1 @ inserts[3]
        got = partition_moment(law, Partition.singletons(3), word)
        assert residual_norm(got - expected) < 1e-10

    def test_worked_ten_point_nesting(self):
        # pi = {{1,5,8},{2,4},{3},{6,7},{9,10}}, unit inserts: the recursion
        # must reproduce the hand-built nesting of interval evaluations
        law = random_matrix_law(2, 2, seed=9)
        one = law.unit()
        pi = Partition(10, [[1, 5, 8], [2, 4], [3], [6, 7], [9, 10]])
        word = Word.plain(law, (1,) * 10)
        e1 = law.eval([one, one])
        e24 = law.eval([one, e1, one])
        e67 = law.eval([one, one, one])
        e158 = law.eval([one, e24, e67, one])
        e910 = law.eval([one, one, one])
        expected = e158 @ e910
        assert residual_norm(partition_moment(law, pi, word) - expected) < 1e-9

    def test_crossing_rejected(self):
        law = semicircular_law()
        word = Word.plain(law, (1,) * 4)
        with pytest.raises(ValueError):
            partition_moment(law, Partition(4, [[1, 3], [2, 4]]), word)

    def test_mixed_indices_rejected(self):
        law = semicircular_law()
        word = Word.plain(law, (1, 2))
        with pytest.raises(ValueError):
            partition_moment(law, Partition.full(2), word)

    def test_exact_backend_agrees_with_float_shape(self):
        law = random_rational_matrix_law(2, 2, seed=10)
        word = Word.plain(law, (1, 1))
        out = partition_moment(law, Partition.singletons(2), word)
        ex = law.eval([law.unit(), law.unit()])
        assert (out == ex @ ex).all()

    @pytest.mark.parametrize("law", [random_matrix_law(2, 2, 11), random_rational_matrix_law(
        2, 2, 12), semicircular_law()], ids=["float-matrix", "rational-matrix", "semicircular"])
    def test_fold_equals_peeling_bit_for_bit(self, law):
        # every partition of NC(m), m <= 7, random inserts, powers in {1, 2}
        rng = np.random.default_rng(13)
        for m in range(8):
            for part in CACHE.nc(m):
                inserts = tuple(law.random_element(rng) for _ in range(m + 1))
                powers = tuple(int(p) for p in rng.integers(1, 3, size=m))
                got = partition_moment(law, part, Word((1,) * m, inserts, powers))
                assert np.array_equal(got, peeled_moment(law, part, list(inserts),
                                                         list(powers))), (part, powers)

    def test_empty_partition_is_the_one_insert(self):
        law = random_matrix_law(2, 2, seed=14)
        b = law.random_element(np.random.default_rng(15))
        assert partition_moment(law, Partition.full(0), Word((), (b,), ())) is b


class TestPartitionCumulant:
    def test_m1_is_moment(self):
        law = random_matrix_law(2, 2, seed=11)
        rng = np.random.default_rng(12)
        word = Word((1,), (law.random_element(rng), law.random_element(rng)), (1,))
        k = partition_cumulant(law, Partition.full(1), word, CACHE, {})
        m = partition_moment(law, Partition.full(1), word)
        assert residual_norm(k - m) < 1e-12

    def test_m2_two_term_expansion(self):
        law = random_matrix_law(2, 2, seed=13)
        rng = np.random.default_rng(14)
        inserts = tuple(law.random_element(rng) for _ in range(3))
        word = Word((1, 1), inserts, (1, 1))
        k = partition_cumulant(law, Partition.full(2), word, CACHE, {})
        whole = law.eval(list(inserts))
        left = law.eval([inserts[0], inserts[1]])  # E[b0 x b1]
        right = law.eval([law.unit(), inserts[2]])  # E[x b2]
        assert residual_norm(k - (whole - left @ right)) < 1e-10

    def test_semicircular_free_cumulants(self):
        law = semicircular_law()
        for m, expected in [(1, 0), (2, 1), (3, 0), (4, 0)]:
            word = Word.plain(law, (1,) * m)
            assert partition_cumulant(law, Partition.full(m), word, CACHE, {}) == expected


class TestRoundtrip:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_exact_scalar(self, m):
        law = random_scalar_law(seed=20 + m)
        assert moment_cumulant_roundtrip(law, m, seed=m, tolerance=0, cache=CACHE)

    def test_each_partition_moment_is_computed_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(moments, "partition_moment",
                            lambda *args: calls.append(args[1]) or partition_moment(*args))
        for m in range(1, 6):
            calls.clear()
            assert moment_cumulant_roundtrip(random_scalar_law(seed=m), m, seed=m, tolerance=0,
                                             cache=CACHE)
            assert sorted(calls, key=repr) == sorted(CACHE.nc(m), key=repr)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_float_matrix(self, m):
        law = random_matrix_law(2, 2, seed=30 + m)
        assert moment_cumulant_roundtrip(law, m, seed=m, tolerance=1e-9, cache=CACHE)

    def test_exact_matrix(self):
        law = random_rational_matrix_law(2, 2, seed=40)
        for m in (1, 2, 3):
            assert moment_cumulant_roundtrip(law, m, seed=m, tolerance=0, cache=CACHE)

    def test_with_powers(self):
        law = random_scalar_law(seed=41)
        assert moment_cumulant_roundtrip(law, 3, seed=3, powers=(2, 1, 3), tolerance=0,
                                         cache=CACHE)


class TestFreeIIDMoment:
    def test_alternating_semicircular_vanishes(self):
        law = semicircular_law()
        word = Word.plain(law, (1, 2, 1, 2))
        assert free_iid_moment(law, word, CACHE) == 0

    def test_nested_semicircular_is_one(self):
        law = semicircular_law()
        word = Word.plain(law, (1, 2, 2, 1))
        assert free_iid_moment(law, word, CACHE) == 1

    def test_length_one_index_free(self):
        law = random_scalar_law(seed=50)
        w1 = Word.plain(law, (1,))
        w9 = Word.plain(law, (9,))
        assert free_iid_moment(law, w1, CACHE) == free_iid_moment(law, w9, CACHE)

    def test_kernel_relabeling_invariance(self):
        law = random_scalar_law(seed=51)
        rng = np.random.default_rng(52)
        for _ in range(30):
            m = rng.integers(1, 5)
            idx = tuple(int(x) for x in rng.integers(1, 4, size=m))
            word = Word.plain(law, idx, powers=tuple(int(p) for p in rng.integers(1, 3, size=m)))
            shift = {v: v + 7 for v in set(idx)}
            relabeled = word.with_indices(tuple(shift[i] for i in idx))
            assert free_iid_moment(law, word, CACHE) == free_iid_moment(law, relabeled, CACHE)

    def test_increasing_relabeling_exhaustive(self):
        # spreadability of the synthesized joint moments at the moment level:
        # substituting i_r -> l_{i_r} for strictly increasing l changes nothing
        law = random_scalar_law(seed=53)
        sequences = [l for l in itertools.combinations(range(1, 6), 3)]
        for m in range(1, 5):
            for idx in itertools.product((1, 2, 3), repeat=m):
                word = Word.plain(law, idx)
                base = free_iid_moment(law, word, CACHE)
                for l in sequences:
                    relabeled = word.with_indices(tuple(l[i - 1] for i in idx))
                    assert free_iid_moment(law, relabeled, CACHE) == base

    def test_bimodule_scaling(self):
        law = random_rational_matrix_law(2, 2, seed=54)
        rng = np.random.default_rng(55)
        b = law.random_element(rng)
        inserts = tuple(law.random_element(rng) for _ in range(4))
        word = Word((1, 2, 1), inserts, (1, 1, 1))
        base = free_iid_moment(law, word, CACHE)
        scaled_left = Word((1, 2, 1), (b @ inserts[0],) + inserts[1:], (1, 1, 1))
        scaled_right = Word((1, 2, 1), inserts[:-1] + (inserts[-1] @ b,), (1, 1, 1))
        assert (free_iid_moment(law, scaled_left, CACHE) == b @ base).all()
        assert (free_iid_moment(law, scaled_right, CACHE) == base @ b).all()

    def test_shared_moments_are_bit_identical_to_recomputing_them(self):
        # float backends: crossing kernels keep the cumulant sum with one
        # shared moment dict, and the same summation order must give the same
        # bits; non-crossing kernels take the nested moment, equal to roundoff
        rng = np.random.default_rng(57)
        scalar = ScalarLaw([1.0 + 0j] + [complex(*rng.standard_normal(2)) for _ in range(8)])
        for law in (scalar, random_matrix_law(2, 2, seed=58)):
            for m in range(1, 6):
                for idx in itertools.product((1, 2, 3), repeat=m):
                    word = Word(idx, tuple(law.random_element(rng) for _ in range(m + 1)),
                                (1,) * m)
                    single = word.with_indices((1,) * m)
                    recomputed = law.zero()
                    for part in CACHE.below(kernel(idx)):
                        recomputed = recomputed + partition_cumulant(law, part, single, CACHE, {})
                    got = free_iid_moment(law, word, CACHE)
                    if kernel(idx).is_noncrossing():
                        assert np.max(np.abs(got - recomputed)) <= 1e-12, idx
                    else:
                        assert np.array_equal(got, recomputed), idx

    @pytest.mark.parametrize("law", [semicircular_law(), random_rational_matrix_law(2, 2, 59)],
                             ids=["semicircular", "rational-matrix"])
    def test_nested_moment_equals_the_cumulant_sum_exactly(self, law):
        # the cumulant sum, which free_iid_moment skips at non-crossing
        # kernels, is the oracle: every kernel of P(m), m <= 5, both powers
        rng = np.random.default_rng(60)
        for m in range(1, 6):
            for part in enumerate_all(m):
                idx = tuple(r + 1 for r in part.rgs)
                for powers in ((1,) * m, (2,) + (1,) * (m - 1)):
                    word = Word(idx, tuple(law.random_element(rng) for _ in range(m + 1)),
                                powers)
                    assert np.array_equal(free_iid_moment(law, word, CACHE),
                                          cumulant_sum(law, word)), (idx, powers)

    def test_cumulants_are_summed_only_at_crossing_kernels(self, monkeypatch):
        calls = []
        monkeypatch.setattr(moments, "partition_cumulant",
                            lambda *args, **kw: calls.append(args[1]) or partition_cumulant(
                                *args, **kw))
        law = semicircular_law()
        for part in enumerate_all(4):
            calls.clear()
            word = Word.plain(law, tuple(r + 1 for r in part.rgs))
            assert free_iid_moment(law, word, CACHE) == cumulant_sum(law, word)
            assert bool(calls) == (not part.is_noncrossing()), part

    def test_constant_indices_match_direct_eval(self):
        law = random_scalar_law(seed=56)
        for m in range(1, 5):
            word = Word.plain(law, (3,) * m, powers=(2,) + (1,) * (m - 1))
            direct = sandwiched_moment(law, word.inserts, word.powers)
            assert free_iid_moment(law, word, CACHE) == direct


class TestSequenceModels:
    def test_free_sequence_memoizes(self):
        seq = FreeSequence(semicircular_law(), CACHE)
        w = Word.plain(seq.law, (1, 2, 2, 1))
        assert seq.moment(w) == 1
        assert seq.moment(w.with_indices((3, 5, 5, 3))) == 1
        assert len(seq._memo) == 1

    def test_independent_sequence_factorizes(self):
        seq = IndependentSequence({1: [1, 2, 5], 2: [1, 3, 10]})
        law = ScalarLaw([Fraction(1), Fraction(0)])
        w = Word.plain(law, (1, 2))
        assert seq.moment(w) == 6  # E[x1] E[x2] = 2 * 3
        w2 = Word.plain(law, (1, 1))
        assert seq.moment(w2) == 5  # E[x1^2]

    def test_independent_sequence_not_identically_distributed(self):
        seq = IndependentSequence({1: [1, 1], 2: [1, 2]})
        law = ScalarLaw([Fraction(1), Fraction(0)])
        a = seq.moment(Word.plain(law, (1,)))
        b = seq.moment(Word.plain(law, (2,)))
        assert a != b

    def test_independent_sequence_short_list_names_the_orders(self):
        seq = IndependentSequence({1: [1, 0, 1], 2: [1, 0, 1, 0]})
        law = ScalarLaw([Fraction(1), Fraction(0)])
        assert seq.moment(Word.plain(law, (2, 2, 2))) == 0
        with pytest.raises(ValueError, match="index 1 knows moments up to order 2, needs 3"):
            seq.moment(Word.plain(law, (1, 1, 1)))
        with pytest.raises(ValueError, match="index 2 knows moments up to order 3, needs 4"):
            seq.moment(Word.plain(law, (2, 2), powers=(3, 1)))
