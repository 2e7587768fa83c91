from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from qspread.moments import (
    FreeSequence, IndependentSequence, Word, free_iid_moment, random_rational_matrix_law,
    semicircular_law,
)
from qspread.partitions import (
    MobiusCache, OrderError, Partition, kernel, kernel_rgs, leq, meet,
)
from qspread.reports import EXACT_ZERO
from qspread.suites import (
    DEFAULT_CONFIG, _broken_sequence, _kernel_pattern_tuples, merge_config, run_section,
)
from qspread.weingarten import (
    _band_offsets,
    block_state_moment,
    combinatorial_unit_identity,
    finite_n_reconstruction,
    free_projection_oracle,
    oracle_equivalence_sweep,
    reconstruction_weight,
    state_positivity_evidence,
)

CACHE = MobiusCache()


def enumerated_unit_sum(tau: Partition, cols, n: int, cache: MobiusCache) -> Fraction:
    """The unit identity's sum as it was computed before the grouping by
    kernel: one reconstruction weight per assignment of {1..n} to the blocks
    of tau, all n^|tau| of them."""
    total = Fraction(0)
    for assignment in itertools.product(range(1, n + 1), repeat=tau.size()):
        band = [0] * tau.m
        for value, block in zip(assignment, tau.blocks):
            for pos in block:
                band[pos - 1] = value
        total += reconstruction_weight(cols, tuple(band), n, cache)
    return total


def enumerated_reconstruction(seq, word: Word, n: int, cache: MobiusCache):
    """The reconstruction as it was computed before the sum over band
    kernels: one reconstruction weight per band tuple, all n^m of them, with
    the model's moment read once per kernel of the shifted indices."""
    cols, total, moments = word.indices, 0, {}
    for band in itertools.product(range(1, n + 1), repeat=word.length):
        weight = reconstruction_weight(cols, band, n, cache)
        if weight == 0:
            continue
        shifted = tuple((j - 1) * n + i for j, i in zip(cols, band))
        key = kernel_rgs(shifted)
        if key not in moments:
            moments[key] = seq.moment(word.with_indices(shifted))
        total = total + moments[key] * weight
    return total


def classical_iid(count: int) -> IndependentSequence:
    """Classically independent standard semicircular variables at indices
    1..count: exact and kernel-invariant, but not free."""
    return IndependentSequence({i: semicircular_law().moments for i in range(1, count + 1)})


class TestBandOffsets:
    def test_matches_the_band_definition(self):
        # row l of column j is in band when (j - 1) n < l <= j n, at every position
        for k, n, m in itertools.product(range(1, 4), range(1, 4), range(1, 3)):
            for cols in itertools.product(range(1, k + 1), repeat=m):
                for rows in itertools.product(range(1, k * n + 1), repeat=m):
                    pairs = list(zip(rows, cols))
                    in_band = all((j - 1) * n < l <= j * n for l, j in pairs)
                    expected = tuple(l - (j - 1) * n for l, j in pairs) if in_band else None
                    assert _band_offsets(rows, cols, n) == expected, (k, n, rows, cols)


class TestStateMoment:
    def test_single_letter(self):
        for n in (1, 2, 3, 5):
            # first row of the second band
            assert block_state_moment((n + 1,), (2,), n, CACHE) == Fraction(1, n)

    def test_same_column_distinct_rows_vanish(self):
        assert block_state_moment((1, 2), (1, 1), 3, CACHE) == 0

    def test_same_column_equal_rows_collapse(self):
        assert block_state_moment((2, 2), (1, 1), 3, CACHE) == Fraction(1, 3)

    def test_off_band_zero_pattern(self):
        for k, n in [(2, 2), (3, 2)]:
            for cols in itertools.product(range(1, k + 1), repeat=2):
                for rows in itertools.product(range(1, k * n + 1), repeat=2):
                    if _band_offsets(rows, cols, n) is None:
                        assert block_state_moment(rows, cols, n, CACHE) == 0


class TestOracle:
    def test_single_letter(self):
        assert free_projection_oracle((5,), (2,), 4, CACHE) == Fraction(1, 4)

    def test_same_column_words(self):
        # products within one column collapse: pick k=2, n=3, column 2
        for rows in itertools.product(range(4, 7), repeat=3):
            expected = Fraction(1, 3) if len(set(rows)) == 1 else Fraction(0)
            assert free_projection_oracle(rows, (2, 2, 2), 3, CACHE) == expected

    def test_alternating_two_column_word(self):
        query = ((1, 3, 1, 3), (1, 2, 1, 2), 2)
        psi = block_state_moment(*query, CACHE)
        oracle = free_projection_oracle(*query, CACHE)
        assert psi == oracle
        # hand value for free projections p, q of trace 1/2: center p = 1/2+a,
        # q = 1/2+b with a^2 = b^2 = 1/4 and vanishing alternating moments, so
        # phi(pqpq) = (1/2)^4 + 2 (1/2)^2 (1/4) = 3/16
        assert psi == Fraction(3, 16)

    def test_off_band_rejected(self):
        with pytest.raises(ValueError):
            free_projection_oracle((3,), (1,), 2, CACHE)

    def test_small_sweep_matches(self):
        report = oracle_equivalence_sweep(2, 2, 4, CACHE)
        assert report.passed
        assert report.max_residual == EXACT_ZERO


class TestReconstructionWeight:
    def test_single_position(self):
        for n in (1, 2, 4):
            for i in range(1, n + 1):
                assert reconstruction_weight((3,), (i,), n, CACHE) == Fraction(1, n)

    def test_total_mass_constant_columns(self):
        # n = 2, equal columns: the four weights sum to 1
        total = sum(
            reconstruction_weight((1, 1), band, 2, CACHE)
            for band in itertools.product((1, 2), repeat=2)
        )
        assert total == 1

    def test_distinct_columns_flat_weight(self):
        for band in itertools.product((1, 2, 3), repeat=2):
            assert reconstruction_weight((1, 2), band, 3, CACHE) == Fraction(1, 9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            reconstruction_weight((1,), (1, 2), 2, CACHE)


class TestCombinedKernel:
    def test_matches_direct_kernel(self):
        for m in (1, 2, 3, 4):
            for cols in itertools.product((1, 2), repeat=m):
                for band in itertools.product((1, 2, 3), repeat=m):
                    shifted = tuple((j - 1) * 3 + i for j, i in zip(cols, band))
                    assert meet(kernel(cols), kernel(band)) == kernel(shifted)


class TestUnitIdentity:
    def test_single_position(self):
        assert combinatorial_unit_identity(Partition.full(1), (4,), 3, CACHE) == 1

    def test_pair_block_nine_term_sum(self):
        # literal 9-term filtered sum, independent of the blockwise loop
        tau = Partition.full(2)
        total = Fraction(0)
        for band in itertools.product((1, 2, 3), repeat=2):
            if leq(tau, kernel(band)):
                total += reconstruction_weight((2, 2), band, 3, CACHE)
        assert total == 1
        assert combinatorial_unit_identity(tau, (2, 2), 3, CACHE) == 1

    def test_exhaustive_small(self):
        for m in (1, 2, 3):
            for tau in CACHE.nc(m):
                for cols in itertools.product((1, 2), repeat=m):
                    if not leq(tau, kernel(cols)):
                        continue
                    for n in (1, 2, 3):
                        assert combinatorial_unit_identity(tau, cols, n, CACHE) == 1

    def test_grouped_by_kernel_equals_the_enumeration_on_the_default_sweep(self):
        cfg = DEFAULT_CONFIG["reconstruction"]
        cache, identities = MobiusCache(), 0
        for m in range(1, cfg["unit_m_max"] + 1):
            for cols in _kernel_pattern_tuples(m, cache):
                for tau in cache.below(kernel(cols)):
                    for n in range(1, cfg["unit_n_max"] + 1):
                        grouped = combinatorial_unit_identity(tau, cols, n, cache)
                        assert grouped == enumerated_unit_sum(tau, cols, n, cache)
                        identities += 1
        assert identities == 296

    def test_domain_errors(self):
        with pytest.raises(OrderError):
            combinatorial_unit_identity(Partition.full(2), (1, 2), 2, CACHE)
        with pytest.raises(OrderError):
            combinatorial_unit_identity(Partition(4, [[1, 3], [2, 4]]), (1, 1, 1, 1), 2, CACHE)


class TestReconstruction:
    def test_single_position_average(self):
        law = semicircular_law()
        word = Word.plain(law, (2,), powers=(2,))
        for n in (1, 2, 3):
            assert finite_n_reconstruction(FreeSequence(law, CACHE), word, n, CACHE) == (
                free_iid_moment(law, word, CACHE))

    def test_alternating_semicircular(self):
        law = semicircular_law()
        word = Word.plain(law, (1, 2, 1, 2))
        direct = free_iid_moment(law, word, CACHE)
        assert direct == 0
        for n in (2, 3):
            assert finite_n_reconstruction(FreeSequence(law, CACHE), word, n, CACHE) == direct

    def test_matrix_law_exact(self):
        law = random_rational_matrix_law(2, 2, seed=21)
        for m in (1, 2, 3):
            for cols in itertools.product((1, 2), repeat=m):
                word = Word.plain(law, cols)
                direct = free_iid_moment(law, word, CACHE)
                for n in (1, 2, 3):
                    got = finite_n_reconstruction(FreeSequence(law, CACHE), word, n, CACHE)
                    assert (got == direct).all(), (cols, n)

    def test_n_independence(self):
        law = semicircular_law()
        word = Word.plain(law, (1, 2, 2, 1))
        values = {finite_n_reconstruction(FreeSequence(law, CACHE), word, n, CACHE)
                  for n in (1, 2, 3, 4)}
        assert values == {free_iid_moment(law, word, CACHE)}

    @pytest.mark.parametrize("make", [
        lambda cache: FreeSequence(semicircular_law(), cache),
        lambda cache: FreeSequence(random_rational_matrix_law(2, 2, 7), cache),
        lambda cache: classical_iid(12),
    ], ids=["semicircular", "rational_matrix", "classical"])
    def test_band_kernel_sum_equals_the_enumeration(self, make):
        # every column index times n <= 3 stays within the classical model's 12 lists
        cache = MobiusCache()
        seq = make(cache)
        words = [Word.plain(seq, cols)
                 for m in range(1, 5) for cols in _kernel_pattern_tuples(m, cache)]
        words.append(Word.plain(seq, (1, 2, 1), powers=(2, 1, 1)))
        for word in words:
            for n in (1, 2, 3):
                got = finite_n_reconstruction(seq, word, n, cache)
                want = enumerated_reconstruction(make(cache), word, n, cache)
                assert np.all(got == want), (word.indices, word.powers, n)

    def test_classical_iid_model_misses_by_a_known_defect(self):
        # classical i.i.d. semicirculars are kernel-invariant but not free: at
        # cols (1, 2, 1, 2) their moment is E[x^2]^2 = 1, and the reconstruction
        # gives (2n - 1) / n^2, where the free model gives its own moment 0
        expected = [Fraction(3, 4), Fraction(5, 9), Fraction(7, 16), Fraction(9, 25),
                    Fraction(11, 36)]
        for n, want in zip(range(2, 7), expected):
            seq = classical_iid(2 * n)
            word = Word.plain(seq, (1, 2, 1, 2))
            assert seq.moment(word) == 1
            assert finite_n_reconstruction(seq, word, n, CACHE) == want
            assert want == Fraction(2 * n - 1, n**2)
            free = FreeSequence(semicircular_law(), CACHE)
            assert finite_n_reconstruction(free, Word.plain(free, (1, 2, 1, 2)), n, CACHE) == 0

    def test_model_without_kernel_invariance_rejected(self):
        seq = _broken_sequence(4)
        assert seq.exact and not seq.kernel_invariant
        with pytest.raises(ValueError, match="kernel-invariant"):
            finite_n_reconstruction(seq, Word.plain(seq, (1,)), 2, CACHE)

    def test_one_synthesis_per_shifted_kernel_of_nonzero_weight(self, monkeypatch):
        from qspread import moments

        law, cache, calls = semicircular_law(), MobiusCache(), []
        monkeypatch.setattr(moments, "free_iid_moment",
                            lambda law, word, cache: calls.append(word.indices)
                            or free_iid_moment(law, word, cache))
        for m in range(1, 5):
            for cols in _kernel_pattern_tuples(m, cache):
                for n in (1, 2, 3):
                    calls.clear()
                    finite_n_reconstruction(FreeSequence(law, cache), Word.plain(law, cols), n,
                                            cache)
                    kernels = {kernel_rgs((j - 1) * n + i for j, i in zip(cols, band))
                               for band in itertools.product(range(1, n + 1), repeat=m)
                               if reconstruction_weight(cols, band, n, cache)}
                    assert sorted(kernel_rgs(c) for c in calls) == sorted(kernels), (cols, n)
        calls.clear()
        finite_n_reconstruction(FreeSequence(law, cache), Word.plain(law, (1, 2, 3)), 3, cache)
        assert len(calls) == 1

    @pytest.mark.parametrize("overrides", [{}, {"reconstruction": {"n_max": 32}}],
                             ids=["defaults", "n_max_32"])
    def test_section_synthesizes_each_free_moment_once(self, monkeypatch, overrides):
        # one model per law keeps each word's moments across n: 16 syntheses at
        # the defaults (m <= 3, two laws), whatever n_max is
        from qspread import moments

        calls = []

        def recording(law, word, cache):
            calls.append((id(law), id(word.inserts), kernel_rgs(word.indices), word.powers))
            return free_iid_moment(law, word, cache)

        monkeypatch.setattr(moments, "free_iid_moment", recording)
        reports = run_section("reconstruction", merge_config(overrides), MobiusCache())
        assert all(r.passed for r in reports)
        assert len(calls) == 16 and len(set(calls)) == 16

    def test_float_law_rejected(self):
        from qspread.moments import random_matrix_law

        law = random_matrix_law(2, 2, seed=5)
        with pytest.raises(ValueError, match="exact"):
            finite_n_reconstruction(FreeSequence(law, CACHE), Word.plain(law, (1,)), 2, CACHE)
        seq = IndependentSequence({1: [1, 0.0, 1.0], 2: [1, 0.0, 1.0]})
        with pytest.raises(ValueError, match="exact"):
            finite_n_reconstruction(seq, Word.plain(seq, (1,)), 2, CACHE)


class TestPositivityEvidence:
    def test_gram_psd_small(self):
        report = state_positivity_evidence(2, 2, max_len=2, tolerance=1e-10, cache=CACHE)
        assert report.passed, report.params
        assert report.params["evidence_only"] is True
        assert report.params["gram_size"] == 21

    def test_one_state_moment_per_unordered_word_pair(self, monkeypatch):
        # eigvalsh reads only the lower triangle, so psi is evaluated once per
        # pair b <= a (the empty pair is 1 without a call); the eigenvalue is
        # the one of the full Gram matrix, bit for bit
        from qspread import weingarten

        calls = []
        monkeypatch.setattr(weingarten, "block_state_moment",
                            lambda rows, cols, n, cache: calls.append((rows, cols))
                            or block_state_moment(rows, cols, n, cache))
        report = state_positivity_evidence(2, 2, max_len=2, tolerance=1e-10, cache=CACHE)
        size = report.params["gram_size"]
        assert len(calls) == size * (size + 1) // 2 - 1
        letters = [(1, 1), (2, 1), (3, 2), (4, 2)]
        words = [()] + [w for r in (1, 2) for w in itertools.product(letters, repeat=r)]

        def psi(word):
            if not word:
                return 1.0
            return float(block_state_moment(
                tuple(l for l, _ in word), tuple(j for _, j in word), 2, CACHE))

        full = np.array([[psi(tuple(reversed(wa)) + wb) for wb in words] for wa in words])
        assert np.array_equal(full, full.T)
        assert np.linalg.eigvalsh(full)[0] == report.params["min_eigenvalue"]
