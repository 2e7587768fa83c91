"""Inputs the library refuses, one row each: the call, the exception type and
a fragment of its message.  Each row is a refusal that no other test reaches."""
from __future__ import annotations

import numpy as np
import pytest

from qspread.invariance import (
    check_exchangeable,
    check_kernel_sums,
    check_spreadable,
    kernel_constrained_sum,
)
from qspread.linalg import BAlgebra
from qspread.moments import (
    FreeSequence,
    IndependentSequence,
    MatrixLaw,
    ScalarLaw,
    Word,
    partition_cumulant,
    partition_moment,
    semicircular_law,
)
from qspread.partitions import (
    GroundSetError, MobiusCache, Partition, enumerate_all, enumerate_nc, kernel, meet,
    zeta_inverse_table,
)
from qspread.qis import (
    IncreasingSequence,
    Representation,
    build_block_rep,
    check_increasing_relations,
    enumerate_increasing,
    two_projection_rep,
)
from qspread.qperm import permutation_rep
from qspread.suites import DEFAULT_CONFIG, run_section
from qspread.weingarten import finite_n_reconstruction


def _free() -> FreeSequence:
    return FreeSequence(semicircular_law(), MobiusCache())


def _not_magic() -> Representation:
    # every entry 1, so each row and column sums to 2
    gens = {(i, j): np.ones((1, 1), dtype=object) for i in (1, 2) for j in (1, 2)}
    return Representation(kind="permutation", k=2, n=2, gens=gens, dim=1)


def _empty_rep(kind: str, k: int, n: int) -> Representation:
    return Representation(kind=kind, k=k, n=n, gens={}, dim=1)


def _zero_pivot_cache() -> MobiusCache:
    # the order matrix of NC(3) with its first partition not below itself
    cache = MobiusCache()
    order = cache.order(3).copy()
    order[0, 0] = False
    cache.order = lambda m: order
    return cache


REFUSALS = [
    ("require-valid-not-magic",
     lambda: check_kernel_sums(_not_magic(), 2, tolerance=0, cache=MobiusCache()),
     ValueError, "representation fails its defining relations"),
    ("kernel-sum-no-targets",
     lambda: kernel_constrained_sum(permutation_rep((1,)), Partition(0, []), ()),
     ValueError, "need a non-empty target tuple"),
    ("exchangeable-on-increasing",
     lambda: check_exchangeable(_free(), two_projection_rep(0.3), [], tolerance=0),
     ValueError, "exchangeability needs a representation of kind 'permutation'"),
    ("spreadable-on-permutation",
     lambda: check_spreadable(_free(), permutation_rep((2, 1)), [], tolerance=0),
     ValueError, "spreadability needs a representation of kind 'increasing'"),
    ("balgebra-zero-dimension", lambda: BAlgebra(0, 2),
     ValueError, "dimensions must be positive"),
    ("scalar-law-order", lambda: ScalarLaw([1, 0, 1]).eval([1, 1, 1, 1]),
     ValueError, "law knows moments up to order 2, needs 3"),
    ("matrix-law-ambient-shape",
     lambda: MatrixLaw(BAlgebra(2, 2), np.eye(3, dtype=complex)),
     ValueError, "ambient matrix must be 4x4, got (3, 3)"),
    ("partition-moment-sizes",
     lambda: partition_moment(semicircular_law(), Partition(2, [[1, 2]]),
                              Word.plain(semicircular_law(), (1, 1, 1))),
     ValueError, "partition and word sizes differ"),
    ("partition-cumulant-crossing",
     lambda: partition_cumulant(semicircular_law(), kernel((1, 2, 1, 2)),
                                Word.plain(semicircular_law(), (1, 1, 1, 1)), MobiusCache(), {}),
     ValueError, "is crossing"),
    ("independent-list-start", lambda: IndependentSequence({1: [2, 0]}),
     ValueError, "moment list for index 1 must start with 1"),
    ("independent-missing-index",
     lambda: IndependentSequence({1: [1, 0]}).moment(Word.plain(semicircular_law(), (2,))),
     ValueError, "no moment list for index 2"),
    ("partition-negative-size", lambda: Partition(-1, []),
     ValueError, "ground-set size must be >= 0"),
    ("meet-across-ground-sets",
     lambda: meet(Partition(2, [[1, 2]]), Partition(3, [[1, 2, 3]])),
     GroundSetError, "ground sets differ: 2 vs 3"),
    ("enumerate-nc-negative", lambda: enumerate_nc(-1),
     ValueError, "m must be >= 0, got -1"),
    ("enumerate-all-negative", lambda: enumerate_all(-1),
     ValueError, "m must be >= 0, got -1"),
    ("cache-all-negative", lambda: MobiusCache().all(-1),
     ValueError, "m must be >= 0, got -1"),
    ("zeta-pivot-not-one", lambda: zeta_inverse_table(3, _zero_pivot_cache()),
     ArithmeticError, "has pivot 0 in column 0, not 1"),
    ("increasing-k-above-n", lambda: IncreasingSequence(3, 2, (1, 2, 3)),
     ValueError, "need 1 <= k <= n, got k=3 n=2"),
    ("increasing-value-count", lambda: IncreasingSequence(2, 3, (1,)),
     ValueError, "wrong number of values"),
    ("enumerate-increasing-limit", lambda: enumerate_increasing(1, 17),
     ValueError, "n=17 exceeds limit 16"),
    ("representation-kind", lambda: _empty_rep("square", 1, 1),
     ValueError, "unknown kind 'square'"),
    ("representation-k-above-n", lambda: _empty_rep("increasing", 3, 2),
     ValueError, "need 1 <= k <= n, got k=3 n=2"),
    ("block-rep-dim", lambda: build_block_rep(1, 3, 2, 0),
     ValueError, "need dim >= n, got dim=2 n=3"),
    ("relations-on-permutation",
     lambda: check_increasing_relations(permutation_rep((2, 1))),
     ValueError, "expected an increasing-sequence representation"),
    ("unknown-section", lambda: run_section("nope", DEFAULT_CONFIG, MobiusCache()),
     ValueError, "unknown suite section 'nope'"),
    ("reconstruction-n-zero",
     lambda: finite_n_reconstruction(_free(), Word.plain(semicircular_law(), (1, 1)), 0,
                                     MobiusCache()),
     ValueError, "n must be >= 1"),
]


@pytest.mark.parametrize("call, error, fragment", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_refused(call, error, fragment):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and fragment in str(caught.value)
