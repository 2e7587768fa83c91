from __future__ import annotations

import dataclasses
import itertools
import json

import numpy as np
import pytest

from qspread import qis, qperm
from qspread.qis import (
    IncreasingSequence,
    Representation,
    build_block_rep,
    check_increasing_relations,
    classical_coordinate,
    classical_point_rep,
    enumerate_increasing,
    extend_to_permutation,
    quantum_extension,
    two_projection_rep,
)
from qspread.cli import rep_from_json
from qspread.linalg import dagger, residual_norm
from qspread.qperm import check_magic_unitary, permutation_rep
from qspread.reports import EXACT_ZERO

from helpers import every_product_relations_report, rep_to_json


class TestIncreasingSequences:
    def test_full_length(self):
        seqs = enumerate_increasing(3, 3)
        assert len(seqs) == 1 and seqs[0].values == (1, 2, 3)

    def test_singletons(self):
        assert [s.values for s in enumerate_increasing(1, 4)] == [(1,), (2,), (3,), (4,)]

    def test_binomial_count_and_lex_order(self):
        seqs = enumerate_increasing(2, 4)
        assert len(seqs) == 6
        assert [s.values for s in seqs] == sorted(s.values for s in seqs)

    def test_validation(self):
        with pytest.raises(ValueError):
            IncreasingSequence(2, 4, (3, 3))
        with pytest.raises(ValueError):
            IncreasingSequence(2, 4, (0, 2))
        with pytest.raises(ValueError):
            enumerate_increasing(3, 2)

    def test_coordinates(self):
        l = IncreasingSequence(2, 4, (1, 3))
        assert classical_coordinate(l, 1, 1) == 1
        assert classical_coordinate(l, 2, 2) == 0
        assert classical_coordinate(l, 3, 2) == 1
        with pytest.raises(ValueError):
            classical_coordinate(l, 5, 1)

    def test_coordinate_column_sums(self):
        for l in enumerate_increasing(2, 4):
            for j in (1, 2):
                assert sum(classical_coordinate(l, i, j) for i in range(1, 5)) == 1


class TestIncreasingRelations:
    @pytest.mark.parametrize("theta", [0.35, 0.9, 1.4])
    def test_two_projection_family(self, theta):
        report = check_increasing_relations(two_projection_rep(theta), tolerance=1e-12)
        assert report.passed, report.max_residual

    def test_classical_points_exact(self):
        for n in range(1, 6):
            for k in range(1, n + 1):
                for l in enumerate_increasing(k, n):
                    report = check_increasing_relations(classical_point_rep(l), tolerance=0)
                    assert report.passed
                    assert report.max_residual == EXACT_ZERO

    def test_block_rep(self):
        rep = build_block_rep(2, 2, dim=2, seed=5)
        assert rep.n == 4 and rep.k == 2
        report = check_increasing_relations(rep, tolerance=1e-12)
        assert report.passed, report.max_residual
        # banded zero pattern: entries outside the stacked bands vanish
        assert np.array_equal(rep.gen(3, 1), np.zeros((2, 2)))
        assert np.array_equal(rep.gen(1, 2), np.zeros((2, 2)))

    def test_derived_residuals_follow_defining(self):
        # whenever the defining residuals vanish, the derived consequences
        # (stronger orthogonality, banded zero pattern) must vanish too
        reps = [
            two_projection_rep(0.77),
            build_block_rep(2, 3, dim=3, seed=8),
            build_block_rep(3, 2, dim=4, seed=9),
            classical_point_rep(IncreasingSequence(2, 5, (2, 4))),
        ]
        for rep in reps:
            report = check_increasing_relations(rep, tolerance=1e-12)
            assert report.params["defining_residual"] <= 1e-12
            assert report.params["derived_residual"] <= 1e-12

    def test_failure_has_witness(self):
        rep = two_projection_rep(0.5)
        gens = dict(rep.gens)
        gens[(1, 1)] = gens[(1, 1)] + 0.5 * np.eye(2)  # not a projection anymore
        broken = Representation(kind="increasing", k=2, n=4, gens=gens, dim=2)
        report = check_increasing_relations(broken, tolerance=1e-9)
        assert not report.passed
        assert report.witness is not None


class TestExtendToPermutation:
    def test_identity_prefix(self):
        l = IncreasingSequence(3, 5, (1, 2, 3))
        assert extend_to_permutation(l) == (1, 2, 3, 4, 5)

    def test_worked_examples(self):
        assert extend_to_permutation(IncreasingSequence(2, 4, (1, 3))) == (1, 3, 2, 4)
        assert extend_to_permutation(IncreasingSequence(2, 4, (3, 4))) == (3, 4, 1, 2)

    def test_is_bijection_with_slot_bounds(self):
        for n in range(1, 8):
            for k in range(1, n + 1):
                for l in enumerate_increasing(k, n):
                    perm = extend_to_permutation(l)
                    assert sorted(perm) == list(range(1, n + 1))
                    assert perm[: k] == l.values
                    for m in range(1, n - k + 1):
                        assert m <= perm[k + m - 1] <= m + k


class TestQuantumExtension:
    def test_classical_point_gives_permutation_matrix(self):
        l = IncreasingSequence(2, 4, (1, 3))
        extended = quantum_extension(classical_point_rep(l), tolerance=0)
        perm = extend_to_permutation(l)
        expected = permutation_rep(perm)
        for key, g in extended.gens.items():
            assert g[0, 0] == expected.gens[key][0, 0], key

    def test_all_classical_points_up_to_n6(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                for l in enumerate_increasing(k, n):
                    extended = quantum_extension(classical_point_rep(l), tolerance=0)
                    expected = permutation_rep(extend_to_permutation(l))
                    for key in expected.gens:
                        assert extended.gens[key][0, 0] == expected.gens[key][0, 0]

    def test_two_projection_family_extends_to_magic(self):
        rng = np.random.default_rng(123)
        for theta in rng.uniform(0.05, np.pi / 2 - 0.05, size=5):
            rep = two_projection_rep(float(theta))
            extended = quantum_extension(rep, tolerance=1e-10)
            report = check_magic_unitary(extended, tolerance=1e-10)
            assert report.passed, (theta, report.max_residual)

    def test_extension_keeps_first_columns(self):
        rep = two_projection_rep(0.6)
        extended = quantum_extension(rep)
        for j in (1, 2):
            for i in range(1, 5):
                assert np.array_equal(extended.gen(i, j), rep.gen(i, j))

    def test_square_input_is_copied(self):
        l = IncreasingSequence(3, 3, (1, 2, 3))
        rep = classical_point_rep(l)
        extended = quantum_extension(rep, tolerance=0)
        assert extended.kind == "permutation"
        assert extended.n == 3
        for key, g in rep.gens.items():
            assert extended.gens[key][0, 0] == g[0, 0]

    def test_refuses_bad_input(self):
        rep = two_projection_rep(0.5)
        gens = dict(rep.gens)
        gens[(3, 2)] = 0.3 * np.eye(2, dtype=complex)
        broken = Representation(kind="increasing", k=2, n=4, gens=gens, dim=2)
        with pytest.raises(ValueError, match="increasing-sequence relations"):
            quantum_extension(broken)

    def test_two_projection_extension_closed_form(self):
        # on the (p, 1-p / q, 1-q) family the two new columns collapse, after
        # the vanishing entries drop out, to (1-p, p, 0, 0) and (0, 0, 1-q, q)
        rep = two_projection_rep(1.07)
        p = rep.gen(1, 1)
        q = rep.gen(3, 2)
        one = np.eye(2, dtype=complex)
        zero = np.zeros((2, 2), dtype=complex)
        expected_columns = {
            1: [p, one - p, zero, zero],
            2: [zero, zero, q, one - q],
            3: [one - p, p, zero, zero],
            4: [zero, zero, one - q, q],
        }
        extended = quantum_extension(rep)
        for j, column in expected_columns.items():
            for i, entry in enumerate(column, start=1):
                assert np.allclose(extended.gen(i, j), entry, atol=1e-13), (i, j)

    def test_extension_domination_step(self):
        # the subprojection fact the extension rests on: each generator in
        # column p+1 with row l is dominated by the sum of the column-p
        # generators with rows below l (s >= v means s v = v for projections)
        reps = [
            two_projection_rep(0.45),
            build_block_rep(2, 2, dim=3, seed=11),
            build_block_rep(3, 2, dim=2, seed=12),
            classical_point_rep(IncreasingSequence(3, 6, (2, 4, 5))),
        ]
        for rep in reps:
            for p_col in range(1, rep.k):
                for l in range(1, rep.n + 1):
                    partial_sum = rep.zero()
                    for i in range(1, l):
                        partial_sum = partial_sum + rep.gen(i, p_col)
                    v = rep.gen(l, p_col + 1)
                    assert residual_norm(partial_sum @ v - v) < 1e-12, (p_col, l)


def report_stream(report) -> dict:
    return {key: value for key, value in report.to_json_dict().items() if key != "runtime_ms"}


class TestRelationsSkipZeroProducts:
    """The relation checks mask out the products with an exactly zero factor,
    on both backends; the reports and their case counts must equal those of
    ``every_product_relations_report``, which has no mask and forms every
    product, failing and raising families included."""

    @staticmethod
    def with_gen(rep, key, g):
        """``rep`` with the generator at ``key`` replaced by ``g``."""
        return dataclasses.replace(rep, gens={**rep.gens, key: g})

    def cases(self):
        one, two = np.array([[1]], dtype=object), np.array([[2]], dtype=object)
        yield check_magic_unitary, self.with_gen(permutation_rep((1, 2, 3)), (1, 2), one)
        yield (check_increasing_relations,
               self.with_gen(classical_point_rep(IncreasingSequence(2, 4, (1, 3))), (2, 2), one))
        # a failing generator beside zero generators: no zero hides its cases
        yield check_magic_unitary, self.with_gen(permutation_rep((1, 2)), (1, 1), two)
        for n in range(1, 6):
            for k in range(1, n + 1):
                for l in enumerate_increasing(k, n):
                    yield check_increasing_relations, classical_point_rep(l)
                    yield check_magic_unitary, quantum_extension(classical_point_rep(l))
        for n in (3, 4):
            for perm in itertools.permutations(range(1, n + 1)):
                yield check_magic_unitary, permutation_rep(perm)

    def float_cases(self):
        rep = two_projection_rep(0.7)
        nan = np.zeros((2, 2), dtype=complex)
        nan[0, 1] = np.nan
        yield check_increasing_relations, rep
        yield check_magic_unitary, quantum_extension(rep)
        yield check_increasing_relations, build_block_rep(2, 2, 3, seed=20260810)
        # a nonzero generator where a zero belongs: it fails, and the zero
        # generators of the other column still skip their products with it
        yield check_increasing_relations, self.with_gen(rep, (3, 1), rep.gen(1, 1))
        yield check_increasing_relations, self.with_gen(rep, (4, 1), nan)
        yield check_magic_unitary, self.with_gen(quantum_extension(rep), (2, 3), nan)

    @staticmethod
    def outcome(monkeypatch, check, rep, tolerance):
        """(report stream, cases) of one check, or the exception it raised."""
        try:
            report = check(rep, tolerance=tolerance)
        except np.linalg.LinAlgError as exc:
            return type(exc)
        return report_stream(report), count_cases(monkeypatch, check, rep, tolerance)

    def outcomes(self, monkeypatch):
        return ([self.outcome(monkeypatch, check, rep, 0) for check, rep in self.cases()]
                + [self.outcome(monkeypatch, check, rep, None)
                   for check, rep in self.float_cases()])

    def test_reports_equal_those_without_the_mask(self, monkeypatch):
        skipped = self.outcomes(monkeypatch)
        monkeypatch.setattr(qis, "_relations_report", every_product_relations_report)
        monkeypatch.setattr(qperm, "_relations_report", every_product_relations_report)
        formed = self.outcomes(monkeypatch)
        assert skipped == formed
        assert [s[0]["status"] for s in skipped[:3]] == ["fail", "fail", "fail"]
        assert skipped[2][0]["witness"] == ["projection", 1, 1]
        exact, floats = skipped[3:-6], skipped[-6:]
        assert all(s[0]["max_residual"] == EXACT_ZERO for s in exact)
        assert [s[0]["status"] for s in floats[:4]] == ["pass", "pass", "pass", "fail"]
        assert floats[4:] == [np.linalg.LinAlgError] * 2

    def test_float_reps_skip_zero_products(self, monkeypatch):
        # the float families store exact zero matrices, and the products
        # with one of them as a factor never reach residual_norm
        for check, rep in list(self.float_cases())[:4]:
            assert count_calls(monkeypatch, check, rep) < count_cases(monkeypatch, check, rep)

    def test_exact_rep_skips_zero_products(self, monkeypatch):
        rep = permutation_rep((2, 1, 3, 4))
        calls = count_calls(monkeypatch, check_magic_unitary, rep)
        assert calls < count_cases(monkeypatch, check_magic_unitary, rep)

    @pytest.mark.parametrize("rep", [classical_point_rep(IncreasingSequence(2, 4, (1, 3))),
                                     build_block_rep(2, 2, 3, 0)], ids=["classical", "block"])
    def test_zero_generators_reach_no_norm_and_no_adjoint(self, monkeypatch, rep):
        # the work done before each case: a nonzero generator's projection case
        # takes two norms and one adjoint, a zero generator's takes nothing
        events, add = [], qis.ResidualTracker.add
        with monkeypatch.context() as patch:
            patch.setattr(qis, "residual_norm", lambda a: events.append("norm") or residual_norm(a))
            patch.setattr(qis, "dagger", lambda a: events.append("dagger") or dagger(a))
            patch.setattr(qis.ResidualTracker, "add",
                          lambda self, w, r: events.append(w) or add(self, w, r))
            check_increasing_relations(rep)
        work, since = {}, []
        for event in events:
            if event in ("norm", "dagger"):
                since.append(event)
            else:
                work[event], since = since, []
        assert any(not g.any() for g in rep.gens.values())
        for (i, j), g in rep.gens.items():
            assert work["projection", i, j] == (["norm", "dagger", "norm"] if g.any() else [])
            assert work["self-adjoint", i, j] == []


def count_calls(monkeypatch, check, rep) -> int:
    """The residual_norm calls of one relation check."""
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(qis, "residual_norm", lambda a: calls.append(a) or residual_norm(a))
        check(rep)
    return len(calls)


def count_cases(monkeypatch, check, rep, tolerance=None) -> int:
    """The tracker cases of one relation check."""
    cases = []
    add = qis.ResidualTracker.add
    with monkeypatch.context() as patch:
        patch.setattr(qis.ResidualTracker, "add",
                      lambda self, w, r: cases.append(w) or add(self, w, r))
        check(rep, tolerance=tolerance)
    return len(cases)


class TestSerialization:
    def test_round_trip(self):
        rep = two_projection_rep(0.81)
        restored = rep_from_json(rep_to_json(rep))
        assert restored.kind == rep.kind
        assert (restored.k, restored.n, restored.dim) == (rep.k, rep.n, rep.dim)
        for key, g in rep.gens.items():
            assert np.allclose(restored.gens[key], g, atol=1e-15)

    def test_decoded_entries_are_the_pairs_bit_for_bit(self):
        rng = np.random.default_rng(4)
        gens = {(i, j): rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                for i in (1, 2) for j in (1, 2)}
        gens[(1, 1)][0, 0] = complex(-0.0, -0.0)
        document = json.loads(rep_to_json(
            Representation(kind="increasing", k=2, n=2, gens=gens, dim=3)))
        restored = rep_from_json(json.dumps(document))
        for key, rows in document["gens"].items():
            want = np.array([[complex(*pair) for pair in row] for row in rows])
            i, j = map(int, key.split(","))
            assert restored.gens[(i, j)].tobytes() == want.tobytes(), key

    def test_exact_rep_serializes_to_float(self):
        rep = classical_point_rep(IncreasingSequence(2, 4, (2, 4)))
        restored = rep_from_json(rep_to_json(rep))
        assert restored.gens[(2, 1)][0, 0] == 1.0 + 0j


class TestRepresentationValidation:
    def test_missing_generator(self):
        with pytest.raises(ValueError, match="missing"):
            Representation(kind="increasing", k=2, n=2, gens={}, dim=1)

    def test_wrong_shape(self):
        gens = {
            (i, j): np.eye(2 if (i, j) != (2, 1) else 3, dtype=complex)
            for i in (1, 2)
            for j in (1,)
        }
        with pytest.raises(ValueError, match="shape"):
            Representation(kind="increasing", k=1, n=2, gens=gens, dim=2)

    def test_permutation_must_be_square(self):
        with pytest.raises(ValueError):
            Representation(kind="permutation", k=2, n=3, gens={}, dim=1)
