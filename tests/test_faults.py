"""Named faults, one row each: a monkeypatch of one function of the package,
the suite sections it reaches, and the exact set of reports of ``suite all``
on the default config that fail (status "fail" or "error") under it.  Only
the sections a fault reaches run, so each row costs a fraction of a suite.

A row with an empty set is an expected miss: a fault that no report catches
yet, kept so that the report that closes it turns it into a detection."""
from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

from qspread import invariance, linalg, moments, qis, qperm, suites, weingarten
from qspread.moments import IndependentSequence, Word
from qspread.partitions import MobiusCache, kernel
from qspread.suites import merge_config, run_section

INVARIANCE = ("exchangeable", "spreadable", "bvalued")


def _crossing(indices) -> bool:
    return not kernel(indices).is_noncrossing()


def _powers_read_as_one(moment):
    return lambda law, word, cache: moment(
        law, Word(word.indices, word.inserts, (1,) * word.length), cache)


def _plus_seventh_at_crossing(moment):
    return lambda law, word, cache: moment(law, word, cache) + (
        law.unit() / 7 if _crossing(word.indices) else 0)


def _crossing_products_zero(products):
    def fault(rep, part, targets):
        for rows, product in products(rep, part, targets):
            yield rows, product if part.is_noncrossing() else 0 * product
    return fault


def _absolute(mobius_p):
    return lambda pi, sigma: abs(mobius_p(pi, sigma))


def _plus_ninth_at_crossing(weight):
    return lambda cols, band, n, cache: weight(cols, band, n, cache) + (
        Fraction(1, 9) if _crossing(cols) else 0)


def _plus_one_from_three_labels(cumulant):
    return lambda labels, n, cache: cumulant(labels, n, cache) + (len(labels) >= 3)


def _one_block_negated_at_four(cumulant):
    def fault(law, part, word, cache, memo):
        value = cumulant(law, part, word, cache, memo)
        return -value if part.m == 4 and part.size() == 1 else value
    return fault


def _flipped_at_one_one(coordinate):
    return lambda l, i, j: 1 - coordinate(l, i, j) if (i, j) == (1, 1) else coordinate(l, i, j)


def _tail_reversed(extend):
    def fault(l):
        values = extend(l)
        return values[:l.k] + values[l.k:][::-1]
    return fault


def _two_block_intervals_doubled(stack):
    def fault(rows, plan, cols, memo):
        value = stack(rows, plan, cols, memo)
        return 2 * value if len(plan) == 2 else value
    return fault


def _every_index_read_as_one(moment):
    return lambda seq, word: moment(seq, word.with_indices((1,) * word.length))


def _q_scaled(pair):
    def fault(theta):
        p, q = pair(theta)
        return p, 1.001 * q
    return fault


def _fails_dimension_two_of_four(check):
    def fault(rep, tolerance=None, seed=None):
        report = check(rep, tolerance, seed)
        if rep.n == 4 and rep.dim == 2:
            return dataclasses.replace(report, status="fail", max_residual=1.0,
                                       witness=["injected fault"])
        return report
    return fault


# (id, the modules or class binding the function, its name, the fault made
# from the original, the sections it reaches, the reports that fail)
FAULTS = [
    ("free-moment-powers-read-as-one", (moments,), "free_iid_moment", _powers_read_as_one,
     (*INVARIANCE, "reconstruction"), set()),
    ("free-moment-plus-seventh-at-crossing-kernels", (moments,), "free_iid_moment",
     _plus_seventh_at_crossing, (*INVARIANCE, "reconstruction"),
     {"spreadable_projection_family"}),
    ("crossing-class-products-zero", (invariance,), "_products", _crossing_products_zero,
     ("exchangeable", "spreadable"), set()),
    ("mobius-p-absolute", (invariance,), "_mobius_p", _absolute, INVARIANCE,
     {"bvalued_spreadable_matrix_law", "exchangeable_permutation_reps",
      "exchangeable_projection_rep", "spreadable_block_family",
      "spreadable_projection_family", "spreadable_via_extension_pullback"}),
    ("reconstruction-weight-plus-ninth-at-crossing-columns", (weingarten,),
     "reconstruction_weight", _plus_ninth_at_crossing, ("psi", "reconstruction"),
     {"combinatorial_unit_identity", "state_oracle_equivalence", "state_positivity_evidence"}),
    ("column-cumulant-plus-one-from-three-labels", (weingarten,), "_column_cumulant",
     _plus_one_from_three_labels, ("psi",), {"state_oracle_equivalence"}),
    ("one-block-cumulant-negated-at-four", (moments,), "partition_cumulant",
     _one_block_negated_at_four, ("roundtrip", "exchangeable", "spreadable"),
     {"moment_cumulant_roundtrip_scalar", "moment_cumulant_roundtrip_matrix"}),
    ("classical-coordinate-flipped-at-one-one", (qis,), "classical_coordinate",
     _flipped_at_one_one, ("relations", "extension"),
     {"increasing_relations_classical_points", "extension_suite"}),
    ("extension-tail-reversed", (qis, suites), "extend_to_permutation", _tail_reversed,
     ("extension",), {"extension_classical_points"}),
    ("stack-two-block-intervals-doubled", (invariance,), "_stack",
     _two_block_intervals_doubled, ("kernel_sums", *INVARIANCE),
     {"kernel_sums_permutation_reps", "kernel_sums_extended_rep",
      "exchangeable_permutation_reps", "exchangeable_projection_rep",
      "spreadable_projection_family", "spreadable_block_family",
      "spreadable_via_extension_pullback", "bvalued_spreadable_matrix_law"}),
    ("independent-every-index-read-as-one", (IndependentSequence,), "moment",
     _every_index_read_as_one, ("exchangeable", "spreadable"),
     {"exchangeable_negative_control", "spreadable_negative_control"}),
    ("projection-pair-q-scaled", (linalg, qis, suites), "projection_pair", _q_scaled,
     ("relations", "extension", "kernel_sums", *INVARIANCE),
     {"increasing_relations_projection_family", "extension_suite", "kernel_sums_suite",
      "exchangeable_suite", "spreadable_suite", "bvalued_suite"}),
    ("magic-unitary-fails-dimension-two-of-four", (qperm, suites), "check_magic_unitary",
     _fails_dimension_two_of_four, ("extension",), {"extension_magic_unitary"}),
]


@pytest.mark.parametrize("owners, name, fault, sections, failing",
                         [row[1:] for row in FAULTS], ids=[row[0] for row in FAULTS])
def test_fault_is_caught_by_exactly(owners, name, fault, sections, failing, monkeypatch):
    patched = fault(getattr(owners[0], name))
    for owner in owners:
        monkeypatch.setattr(owner, name, patched)
    config, cache = merge_config({}), MobiusCache()
    reports = [r for section in sections for r in run_section(section, config, cache)]
    assert {r.check_name for r in reports if r.status in ("fail", "error")} == failing
