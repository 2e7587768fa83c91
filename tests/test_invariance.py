from __future__ import annotations

import itertools
import operator
from fractions import Fraction

import numpy as np
import pytest

from qspread import invariance
from qspread.invariance import (
    _column_rows,
    _kernel_classes,
    _lhs,
    _mobius_p,
    _stack,
    check_bvalued_spreadable,
    check_exchangeable,
    check_kernel_sums,
    check_spreadable,
    kernel_constrained_sum,
    random_insert_words,
    suite_words,
)
from qspread.linalg import (
    dagger,
    is_exact,
    projection_pair,
    random_rational_matrix,
    random_unitary,
    residual_norm,
)
from qspread.moments import (
    FreeSequence,
    IndependentSequence,
    Word,
    random_matrix_law,
    random_rational_matrix_law,
    semicircular_law,
)
from qspread.partitions import (
    MobiusCache, Partition, catalan, enumerate_all, enumerate_nc, kernel, leq, nesting_plan,
)
from qspread.qis import (
    Representation,
    build_block_rep,
    classical_point_rep,
    enumerate_increasing,
    quantum_extension,
    two_projection_rep,
)
from qspread.qperm import permutation_rep, two_point_rep
from qspread.reports import EXACT_ZERO, ResidualTracker
from qspread.suites import DEFAULT_CONFIG, _broken_sequence, run_section

from helpers import _fold, _rows_for, convolution

CACHE = MobiusCache()
SEED = 20260810  # the seed of the acceptance criteria and the default config


def projection_perm_rep(theta=0.8):
    return two_point_rep(projection_pair(theta)[1])


def enumerated_kernel_sum(rep, part, targets):
    """Brute-force oracle for kernel_constrained_sum: one product for every
    blockwise-constant row tuple, leaving out only the tuples with an exactly
    zero factor on the exact backend.  Valid for crossing partitions too."""
    exact = is_exact(rep.gen(1, 1))
    nonzero = {key: not exact or g.any() for key, g in rep.gens.items()}
    choices = [
        [v for v in range(1, rep.n + 1) if all(nonzero[(v, targets[p - 1])] for p in block)]
        for block in part.blocks
    ]
    total = rep.zero()
    for assignment in itertools.product(*choices):
        rows = [0] * part.m
        for value, block in zip(assignment, part.blocks):
            for pos in block:
                rows[pos - 1] = value
        product = rep.gen(rows[0], targets[0])
        for i, j in zip(rows[1:], targets[1:]):
            product = product @ rep.gen(i, j)
        total = total + product
    return total


def tuple_sum_lhs(seq, rep, word, value, combine):
    """Differential oracle for ``_lhs``: the plain sum over all of [n]^m of
    combine(value(word at i), u_{i_1 j_1} ... u_{i_m j_m}), one generator
    product per tuple, nothing skipped."""
    total = None
    for rows in itertools.product(range(1, rep.n + 1), repeat=word.length):
        product = rep.gen(rows[0], word.indices[0])
        for i, j in zip(rows[1:], word.indices[1:]):
            product = product @ rep.gen(i, j)
        term = combine(value(word.with_indices(rows)), product)
        total = term if total is None else total + term
    return total


def engine_memo(rep):
    """A fresh memo of ``_lhs`` for ``rep``, as the checks make it."""
    return {"g": {}, "classes": {}, "stack": {}, "rows": _column_rows(rep)}


def engine_defects(seq, rep, words, bvalued=False):
    """(word, _lhs - oracle) for every word, through one memo for all of
    them, as the checks keep it."""
    value, combine = (seq.moment, np.kron) if bvalued else (seq.phi_moment, operator.mul)
    memo = engine_memo(rep)
    words = list(words)
    for word in words:
        got = _lhs(seq, rep, word, value, combine, memo)
        want = tuple_sum_lhs(seq, rep, word, value, combine)
        yield word, got - want


def bernoulli_iid(n=4):
    """Classical i.i.d. +-1 Bernoulli variables: one moment list for all."""
    return IndependentSequence({i: [1, 0] * 4 for i in range(1, n + 1)})


def fold_and_oracle(rep, max_len, memo=None):
    """(case, fold, enumeration) for every non-crossing partition of size up
    to max_len and every target tuple, the fold being ``_stack`` at the
    targets through one rows list and one memo for the whole sweep, as the
    engine keeps them per check."""
    rows, memo = _column_rows(rep), {} if memo is None else memo
    for m in range(1, max_len + 1):
        for part in enumerate_nc(m):
            plan = nesting_plan(part)
            for targets in itertools.product(range(1, rep.k + 1), repeat=m):
                yield ((part, targets), _stack(rows, plan, targets, memo),
                       enumerated_kernel_sum(rep, part, targets))


class TestKernelConstrainedSum:
    def test_column_sum(self):
        rep = projection_perm_rep()
        out = kernel_constrained_sum(rep, Partition.full(1), (2,))
        assert residual_norm(out - np.eye(2)) < 1e-12

    def test_row_orthogonality_case(self):
        rep = projection_perm_rep()
        out = kernel_constrained_sum(rep, Partition.full(2), (1, 2))
        assert residual_norm(out) < 1e-12

    def test_exhaustive_permutation_reps(self):
        for perm in itertools.permutations(range(1, 4)):
            rep = permutation_rep(tuple(perm))
            report = check_kernel_sums(rep, max_len=3, tolerance=0, cache=CACHE)
            assert report.passed
            assert report.max_residual == EXACT_ZERO

    def test_extended_rep(self):
        rep = quantum_extension(two_projection_rep(0.65))
        report = check_kernel_sums(rep, max_len=3, tolerance=1e-10, cache=CACHE)
        assert report.passed, report.max_residual

    def test_crossing_partition_rejected(self):
        rep = permutation_rep((2, 1, 3, 4))
        crossing = Partition(4, [(1, 3), (2, 4)])
        with pytest.raises(ValueError, match="crossing"):
            kernel_constrained_sum(rep, crossing, (1, 2, 1, 2))

    def test_targets_beyond_columns_rejected(self):
        with pytest.raises(ValueError):
            kernel_constrained_sum(two_projection_rep(0.4), Partition.full(1), (3,))

    def test_increasing_rep_targets_bounded_by_k(self):
        rep = two_projection_rep(0.4)
        report = check_kernel_sums(rep, max_len=3, tolerance=1e-10, cache=CACHE)
        assert report.passed, report.max_residual


class TestSharedKernelSumTables:
    """One cache's kernel-sum tables, per (k, m), serve every family: exact
    permutation reps, a float extension with the same k as the n = 4 reps,
    and a float square family give the same reports and the same cases in
    either order as each with a fresh cache."""

    @staticmethod
    def families():
        reps = [(permutation_rep(perm), 4) for n in range(1, 5)
                for perm in itertools.permutations(range(1, n + 1))]
        return reps + [(quantum_extension(two_projection_rep(0.6)), 3),
                       (projection_perm_rep(), 4)]

    @staticmethod
    def sweep(families, cache_for, monkeypatch):
        cases = []
        add = ResidualTracker.add

        def counted(self, witness, residual):
            cases[-1] += 1
            add(self, witness, residual)

        out = []
        with monkeypatch.context() as patch:
            patch.setattr(ResidualTracker, "add", counted)
            for rep, max_len in families:
                cases.append(0)
                tol = 0 if is_exact(rep.gen(1, 1)) else 1e-10
                report = check_kernel_sums(rep, max_len, tolerance=tol,
                                           cache=cache_for()).to_json_dict()
                report.pop("runtime_ms")
                out.append((report, cases[-1]))
        return out

    def test_shared_cache_in_either_order_is_a_fresh_cache_per_rep(self, monkeypatch):
        families = self.families()
        fresh = self.sweep(families, MobiusCache, monkeypatch)
        shared = MobiusCache()
        forward = self.sweep(families, lambda: shared, monkeypatch)
        backward = self.sweep(families[::-1], lambda: shared, monkeypatch)
        assert forward == fresh and backward[::-1] == fresh
        assert sorted(shared._kernel_sum_tables) == [(k, m) for k in (1, 2, 3, 4)
                                                     for m in (1, 2, 3, 4)]

    def test_one_nesting_plan_per_table_entry(self, monkeypatch):
        calls = []
        monkeypatch.setattr(invariance, "nesting_plan",
                            lambda part: calls.append(part) or nesting_plan(part))
        cache, cfg = MobiusCache(), DEFAULT_CONFIG["kernel_sums"]
        assert all(report.passed for report in run_section("kernel_sums", DEFAULT_CONFIG, cache))
        entries = [entry for _, table in cache._kernel_sum_tables.values() for entry in table]
        assert len(calls) == len(entries) == cfg["n_max"] * sum(
            catalan(m) for m in range(1, cfg["m_max"] + 1))


class TestFoldMatchesEnumeration:
    """The nesting-tree fold against the brute-force enumeration, on every
    non-crossing partition and every target tuple."""

    def test_permutation_reps_exact(self):
        for n in (1, 2, 3):
            for perm in itertools.permutations(range(1, n + 1)):
                for case, folded, enumerated in fold_and_oracle(permutation_rep(perm), 5):
                    assert np.array_equal(folded, enumerated), (perm, case)

    def test_classical_point_reps_exact(self):
        for n in range(1, 5):
            for k in range(1, n + 1):
                for l in enumerate_increasing(k, n):
                    for case, folded, enumerated in fold_and_oracle(classical_point_rep(l), 5):
                        assert np.array_equal(folded, enumerated), (l.values, case)

    @staticmethod
    def unrelated_exact_family() -> Representation:
        rng = np.random.default_rng(5)
        gens = {(i, j): random_rational_matrix(2, 2, rng) for i in range(1, 4) for j in (1, 2)}
        gens[(2, 1)] = gens[(3, 2)] = np.zeros((2, 2), dtype=object)
        return Representation(kind="increasing", k=2, n=3, gens=gens, dim=2)

    def test_unrelated_exact_family(self):
        # The fold is an identity of sums, not a consequence of the defining
        # relations: on generators that satisfy none of them the sums are not
        # 0 or 1, so the order of the factors and of the blocks shows.  Each
        # sum here is one call of the public function, with a memo of its own.
        rep = self.unrelated_exact_family()
        for m in range(1, 5):
            for part in enumerate_nc(m):
                for targets in itertools.product(range(1, rep.k + 1), repeat=m):
                    assert np.array_equal(kernel_constrained_sum(rep, part, targets),
                                          enumerated_kernel_sum(rep, part, targets)
                                          ), (part, targets)

    def test_unrelated_exact_family_through_one_memo(self):
        # One block-stack memo for the whole sweep, as the engine keeps it.
        # A key without the span's shape or without its targets hands one
        # block's sum to another; on a valid family every sum is 0 or 1, so
        # such a hand-over can go unseen, while here the sums differ.
        rep, memo = self.unrelated_exact_family(), {}
        for case, folded, enumerated in fold_and_oracle(rep, 4, memo):
            assert np.array_equal(folded, enumerated), case
        assert memo

    def test_extended_rep_to_roundoff(self):
        rep = quantum_extension(two_projection_rep(0.65))
        for case, folded, enumerated in fold_and_oracle(rep, 4):
            assert residual_norm(folded - enumerated) <= 1e-12, case


def all_column_rows(rep: Representation):
    """The tuple of all k columns and the rows that check_kernel_sums stacks
    from: rows[v - 1] maps that tuple to the (k, d, d) stack of row v."""
    every = tuple(range(1, rep.k + 1))
    return every, [{every: np.array([rep.gen(v, j) for j in every])}
                   for v in range(1, rep.n + 1)]


class TestSweepMatchesFold:
    """``_stack`` against ``helpers._fold`` at each target tuple, both with
    all columns at every position (check_kernel_sums) and with the tuple's
    own columns (the engine): the zero matrix where the fold is None, and the
    same matrix bit for bit (the same association of the same products)
    elsewhere, on every non-crossing partition of size up to 4, with one
    memo of each kind for the whole sweep, as the checks keep them."""

    @staticmethod
    def assert_sweep_is_fold(rep, max_len=4):
        (every, rows), columns, rows_for = all_column_rows(rep), _column_rows(rep), _rows_for(rep)
        stack_memo, column_memo, fold_memo = {}, {}, {}
        for m in range(1, max_len + 1):
            tuples = list(itertools.product(range(1, rep.k + 1), repeat=m))
            for part in enumerate_nc(m):
                plan = nesting_plan(part)
                swept = _stack(rows, plan, (every,) * m, stack_memo)
                assert swept.shape == (len(tuples), rep.dim, rep.dim), part
                assert swept.dtype == rep.zero().dtype, part
                for targets, got in zip(tuples, swept):
                    want = _fold(rep.gens, plan, targets, rows_for, fold_memo)
                    one = _stack(columns, plan, targets, column_memo)
                    assert one.shape == (rep.dim, rep.dim), (part, targets)
                    for stacked in (got, one):
                        if want is None:
                            assert not (stacked != 0).any(), (part, targets)
                        elif is_exact(rep.gen(1, 1)):
                            assert np.array_equal(stacked, want), (part, targets)
                        else:
                            assert stacked.tobytes() == want.tobytes(), (part, targets)
        assert stack_memo and column_memo

    @pytest.mark.parametrize("n", [3, 4])
    def test_permutation_reps(self, n):
        for perm in itertools.permutations(range(1, n + 1)):
            self.assert_sweep_is_fold(permutation_rep(perm))

    def test_float_extended_rep(self):
        self.assert_sweep_is_fold(quantum_extension(two_projection_rep(0.6)))

    def test_exact_extension_of_a_classical_point(self):
        l = enumerate_increasing(2, 4)[2]
        self.assert_sweep_is_fold(quantum_extension(classical_point_rep(l)))

    def test_unrelated_exact_family(self):
        # sums that are not 0 or 1, so a misplaced product or a memo key
        # that hands one block's stack to another would show
        self.assert_sweep_is_fold(TestFoldMatchesEnumeration.unrelated_exact_family())

    def test_unrelated_float_family(self):
        # generic complex entries, where another order of the rows or of the
        # products changes the rounding, so the bits would differ
        rng = np.random.default_rng(8)
        gens = {(i, j): rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                for i in range(1, 4) for j in (1, 2)}
        self.assert_sweep_is_fold(Representation(kind="increasing", k=2, n=3, gens=gens, dim=2))

    def test_vanished_block_fills_every_tuple_it_begins(self):
        rep = permutation_rep((2, 1, 3))
        plan = nesting_plan(Partition(3, [(1, 2), (3,)]))
        every, rows = all_column_rows(rep)
        swept = _stack(rows, plan, (every,) * 3, {})
        # targets (1, 2, j): no row i has u_{i1} and u_{i2} both nonzero
        assert _fold(rep.gens, plan, (1, 2, 1), _rows_for(rep), {}) is None
        assert not (swept[3:6] != 0).any()
        assert (swept[:3] != 0).any()


def zeta_inverse_all(m):
    """All of P(m) and the inverse of its zeta matrix, by exact Gauss-Jordan
    elimination: entry [a][b] is mu_P(parts[a], parts[b])."""
    parts = list(enumerate_all(m))
    size = len(parts)
    aug = [[Fraction(int(leq(p, q))) for q in parts] + [Fraction(int(r == c)) for c in range(size)]
           for r, p in enumerate(parts)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return parts, [row[size:] for row in aug]


class TestMobiusOfAllPartitions:
    def test_against_zeta_inversion(self):
        for m in range(1, 6):
            parts, inverse = zeta_inverse_all(m)
            for a, pi in enumerate(parts):
                for b, sigma in enumerate(parts):
                    if leq(pi, sigma):
                        assert _mobius_p(pi, sigma) == inverse[a][b], (pi, sigma)
                    else:
                        assert inverse[a][b] == 0, (pi, sigma)

    def test_kernel_classes(self):
        # the classes are the partitions with at most n blocks, each with a
        # tuple of its kernel in [n]^m and its column of the inverse zeta
        # matrix of all of P(m), cut to the classes
        for m in range(1, 6):
            parts, inverse = zeta_inverse_all(m)
            for n in range(1, m + 1):
                classes = _kernel_classes(m, n)
                where = [parts.index(sigma) for sigma, _, _, _ in classes]
                assert [parts[b] for b in where] == [p for p in parts if p.size() <= n]
                for (sigma, tup, terms, plan), b in zip(classes, where):
                    assert kernel(tup) == sigma and max(tup) <= n
                    assert (plan is None) == (not sigma.is_noncrossing())
                    column = {a: inverse[where[a]][b] for a in range(len(classes))
                              if inverse[where[a]][b] != 0}
                    assert dict(terms) == column, sigma


class TestEngineMatchesTupleSum:
    """``_lhs`` against the plain sum over [n]^m: exactly on the permutation
    and classical-point representations, to 1e-12 on the float ones."""

    @staticmethod
    def assert_exact(defects):
        for word, defect in defects:
            assert all(x == 0 for x in defect.flat), word

    @staticmethod
    def assert_close(defects):
        for word, defect in defects:
            assert max(abs(x) for x in defect.flat) <= 1e-12, word

    def test_criterion_7_words(self):
        proj = projection_perm_rep(0.8)
        extended = quantum_extension(two_projection_rep(0.8))
        for law in (semicircular_law(), random_matrix_law(2, 2, SEED + 3)):
            seq = FreeSequence(law, CACHE)
            self.assert_close(engine_defects(seq, proj, suite_words(law, 2, 4)))
            self.assert_close(engine_defects(seq, extended, suite_words(law, 4, 4)))
        words = suite_words(semicircular_law(), 2, 2)
        self.assert_close(engine_defects(_broken_sequence(2), proj, words))

    def test_criterion_8_words(self):
        law = semicircular_law()
        seq = FreeSequence(law, CACHE)
        rect = two_projection_rep(0.9)
        self.assert_close(engine_defects(seq, rect, suite_words(law, 2, 4)))
        block = build_block_rep(2, 2, dim=2, seed=SEED + 4)
        self.assert_close(engine_defects(seq, block, suite_words(law, 2, 3)))
        self.assert_close(engine_defects(seq, quantum_extension(rect), suite_words(law, 2, 4)))
        self.assert_close(engine_defects(_broken_sequence(4), rect, suite_words(law, 2, 2)))

    def test_bvalued_suite_words(self):
        cfg, seed = DEFAULT_CONFIG["bvalued"], DEFAULT_CONFIG["seed"]
        law = random_matrix_law(cfg["d"], cfg["D"], seed + 8)
        words = random_insert_words(law, 2, cfg["max_word_len"], seed=seed + 9)
        words += [Word.plain(law, (1,) * m) for m in range(1, cfg["max_word_len"] + 1)]
        self.assert_close(engine_defects(FreeSequence(law, CACHE), two_projection_rep(cfg["theta"]),
                                         words, bvalued=True))

    @pytest.mark.parametrize("rep", [permutation_rep((2, 3, 1)),
                                     build_block_rep(3, 2, dim=2, seed=SEED + 4)])
    def test_engine_stacks_hold_one_matrix(self, rep):
        # The engine reads _stack at its word's targets, so every block stack
        # it memoizes is one matrix; a stack over a whole span would hold k^L.
        law = semicircular_law()
        seq, memo = FreeSequence(law, CACHE), engine_memo(rep)
        for word in suite_words(law, 3, 3):
            _lhs(seq, rep, word, seq.phi_moment, operator.mul, memo)
        assert memo["stack"]
        assert all(stack.shape == (rep.dim, rep.dim) for stack in memo["stack"].values())

    def test_permutation_reps_exact(self):
        law = semicircular_law()
        for perm in itertools.permutations(range(1, 4)):
            rep = permutation_rep(perm)
            for seq in (FreeSequence(law, CACHE), bernoulli_iid(3), _broken_sequence(3)):
                self.assert_exact(engine_defects(seq, rep, suite_words(law, 3, 3)))

    def test_classical_point_reps_exact(self):
        law = semicircular_law()
        matrix_law = random_rational_matrix_law(2, 2, seed=SEED)
        insert_words = random_insert_words(matrix_law, 2, 3, seed=SEED + 1)
        for l in enumerate_increasing(2, 4):
            rep = classical_point_rep(l)
            for seq in (FreeSequence(law, CACHE), bernoulli_iid(), _broken_sequence(4)):
                self.assert_exact(engine_defects(seq, rep, suite_words(law, 2, 3)))
            self.assert_exact(engine_defects(FreeSequence(matrix_law, CACHE), rep,
                                             insert_words, bvalued=True))


class TestExchangeable:
    def test_classical_points_reduce_to_classical_exchangeability(self):
        seq = FreeSequence(semicircular_law(), CACHE)
        words = suite_words(seq.law, max_targets=3, max_len=3)
        for perm in itertools.permutations(range(1, 4)):
            report = check_exchangeable(seq, permutation_rep(tuple(perm)), words, tolerance=0)
            assert report.passed
            assert report.max_residual == EXACT_ZERO

    def test_all_zero_g_gives_the_int_zero(self):
        # E[x_1] = 0 for the semicircular law, so the one kernel class of a
        # single letter has g exactly zero and no term is summed
        seq = FreeSequence(semicircular_law(), CACHE)
        rep, word = permutation_rep((2, 1)), Word.plain(seq.law, (1,))
        lhs = _lhs(seq, rep, word, seq.phi_moment, operator.mul, engine_memo(rep))
        assert lhs == 0 and type(lhs) is int
        report = check_exchangeable(seq, rep, [word], tolerance=0)
        assert report.passed and report.max_residual == EXACT_ZERO

    def test_free_semicircular_passes_projection_rep(self):
        seq = FreeSequence(semicircular_law(), CACHE)
        words = suite_words(seq.law, max_targets=2, max_len=4)
        report = check_exchangeable(seq, projection_perm_rep(), words, tolerance=1e-9)
        assert report.passed, report.max_residual

    def test_free_matrix_law_passes(self):
        seq = FreeSequence(random_matrix_law(2, 2, seed=6), CACHE)
        words = suite_words(seq.law, max_targets=2, max_len=3)
        report = check_exchangeable(seq, projection_perm_rep(1.1), words, tolerance=1e-9)
        assert report.passed, report.max_residual

    def test_broken_law_fails_with_witness(self):
        seq = IndependentSequence({1: [1, 1, 2, 4], 2: [1, 2, 5, 14]})
        words = suite_words(semicircular_law(), max_targets=2, max_len=2)
        report = check_exchangeable(seq, projection_perm_rep(), words, tolerance=1e-9)
        assert not report.passed
        assert report.witness is not None
        assert float(report.max_residual) > 0.05

    def test_classical_iid_fails_only_the_quantum_rep(self):
        # The same law in every index makes the model classical i.i.d. and
        # kernel-invariant.  It is classically exchangeable, so every
        # permutation rep passes exactly.  It is not free, so the quantum rep
        # fails: the coefficient g of the crossing class {1,3}{2,4}, where
        # free and classical cumulants first differ, is not zero.
        law = semicircular_law()
        seq = bernoulli_iid()
        assert seq.kernel_invariant and not _broken_sequence(4).kernel_invariant
        for perm in itertools.permutations(range(1, 4)):
            report = check_exchangeable(seq, permutation_rep(perm), suite_words(law, 3, 4),
                                        tolerance=0)
            assert report.max_residual == EXACT_ZERO, perm
        rep = quantum_extension(two_projection_rep(0.8))
        report = check_exchangeable(seq, rep, suite_words(law, 4, 4), tolerance=1e-9)
        assert not report.passed
        assert report.witness == ["word", [1, 2, 1, 4], [1, 1, 1, 1]]
        word = Word.plain(law, (1, 2, 1, 4))
        for model, crossing in ((seq, [Partition(4, [(1, 3), (2, 4)])]),
                                (FreeSequence(law, CACHE), [])):
            memo = engine_memo(rep)
            _lhs(model, rep, word, model.phi_moment, operator.mul, memo)
            classes = memo["g"][(word.powers, id(word.inserts))]  # those with g != 0
            assert [sigma for sigma, plan, _ in classes if plan is None] == crossing
        plain = tuple_sum_lhs(seq, rep, word, seq.phi_moment, operator.mul)
        plain_residual = residual_norm(plain - seq.phi_moment(word) * rep.unit())
        assert abs(report.max_residual - plain_residual) <= 1e-12
        assert abs(report.max_residual - 0.4995736939486883) <= 1e-12

    def test_equivariance_under_conjugation(self):
        seq = FreeSequence(semicircular_law(), CACHE)
        words = suite_words(seq.law, max_targets=2, max_len=3)
        rep = projection_perm_rep(0.7)
        u = random_unitary(2, np.random.default_rng(3))
        conjugated = Representation(
            kind="permutation", k=2, n=2,
            gens={key: u @ g @ dagger(u) for key, g in rep.gens.items()},
            dim=2,
        )
        base = check_exchangeable(seq, rep, words, tolerance=1e-9)
        moved = check_exchangeable(seq, conjugated, words, tolerance=1e-9)
        assert base.passed and moved.passed
        assert abs(float(base.max_residual) - float(moved.max_residual)) < 1e-11

    def test_monotone_under_convolution(self):
        seq = FreeSequence(semicircular_law(), CACHE)
        words = suite_words(seq.law, max_targets=2, max_len=3)
        u = projection_perm_rep(0.5)
        v = projection_perm_rep(1.2)
        assert check_exchangeable(seq, u, words, tolerance=1e-9).passed
        assert check_exchangeable(seq, v, words, tolerance=1e-9).passed
        conv = convolution(u, v)
        report = check_exchangeable(seq, conv, words, tolerance=1e-8)
        assert report.passed, report.max_residual

    def test_word_targets_validated(self):
        seq = FreeSequence(semicircular_law(), CACHE)
        bad = [Word.plain(seq.law, (3,))]
        with pytest.raises(ValueError):
            check_exchangeable(seq, projection_perm_rep(), bad, tolerance=1e-9)


class TestSpreadable:
    def test_classical_specialization(self):
        # quantum spreadability checked at every classical point is exactly
        # classical spreadability of the model
        seq = FreeSequence(semicircular_law(), CACHE)
        words = suite_words(seq.law, max_targets=2, max_len=3)
        for l in enumerate_increasing(2, 4):
            report = check_spreadable(seq, classical_point_rep(l), words, tolerance=0)
            assert report.passed
            assert report.max_residual == EXACT_ZERO

    def test_two_projection_family_semicircular(self):
        seq = FreeSequence(semicircular_law(), CACHE)
        words = suite_words(seq.law, max_targets=2, max_len=4)
        report = check_spreadable(seq, two_projection_rep(0.9), words, tolerance=1e-9)
        assert report.passed, report.max_residual

    def test_k1_reduces_to_stationarity(self):
        seq = FreeSequence(semicircular_law(), CACHE)
        rep = build_block_rep(1, 3, dim=3, seed=2)
        words = suite_words(seq.law, max_targets=1, max_len=3)
        report = check_spreadable(seq, rep, words, tolerance=1e-9)
        assert report.passed, report.max_residual

    def test_block_rep(self):
        seq = FreeSequence(semicircular_law(), CACHE)
        rep = build_block_rep(2, 2, dim=2, seed=3)
        words = suite_words(seq.law, max_targets=2, max_len=3)
        report = check_spreadable(seq, rep, words, tolerance=1e-9)
        assert report.passed, report.max_residual

    def test_pullback_through_extension(self):
        # the square extension restricted to the first k columns IS the
        # rectangular family, so exchangeability of the extension pulled back
        # to words with small targets is the spreadability check
        seq = FreeSequence(semicircular_law(), CACHE)
        rep = two_projection_rep(0.55)
        extended = quantum_extension(rep)
        for j in (1, 2):
            for i in range(1, 5):
                assert np.array_equal(extended.gen(i, j), rep.gen(i, j))
        words = suite_words(seq.law, max_targets=2, max_len=3)
        direct = check_spreadable(seq, rep, words, tolerance=1e-9)
        pulled = check_exchangeable(seq, extended, words, tolerance=1e-9)
        assert direct.passed and pulled.passed

    def test_broken_law_fails(self):
        lists = {1: [1, 0, 1, 0], 2: [1, 1, 3, 7], 3: [1, 0, 1, 0], 4: [1, 0, 1, 0]}
        seq = IndependentSequence(lists)
        words = suite_words(semicircular_law(), max_targets=2, max_len=2)
        report = check_spreadable(seq, two_projection_rep(0.8), words, tolerance=1e-9)
        assert not report.passed
        assert report.witness is not None


class TestBValuedSpreadable:
    def test_scalar_reduction_matches_plain_check(self):
        seq = FreeSequence(semicircular_law(), CACHE)
        words = suite_words(seq.law, max_targets=2, max_len=3)
        rep = two_projection_rep(0.85)
        scalar = check_spreadable(seq, rep, words, tolerance=1e-9)
        bvalued = check_bvalued_spreadable(seq, rep, words, tolerance=1e-9)
        assert scalar.passed and bvalued.passed

    def test_matrix_law_with_random_inserts(self):
        seq = FreeSequence(random_matrix_law(2, 2, seed=11), CACHE)
        words = random_insert_words(seq.law, max_targets=2, max_len=3, seed=12)
        report = check_bvalued_spreadable(
            seq, two_projection_rep(0.35), words, tolerance=1e-8
        )
        assert report.passed, report.max_residual

    def test_constant_targets_trivial(self):
        seq = FreeSequence(random_matrix_law(2, 2, seed=13), CACHE)
        words = [Word.plain(seq.law, (1,) * m) for m in (1, 2, 3)]
        report = check_bvalued_spreadable(
            seq, two_projection_rep(0.95), words, tolerance=1e-12
        )
        assert report.passed, report.max_residual
