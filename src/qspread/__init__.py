"""Exact and numerical verification toolkit for non-crossing partition
calculus, operator-valued free cumulants, and quantum symmetry
representations (permutations and increasing sequences)."""

from .partitions import (
    MobiusCache,
    Partition,
    catalan,
    enumerate_all,
    enumerate_nc,
    kernel,
    leq,
    meet,
)
from .linalg import BAlgebra, projection_pair, random_pvm
from .moments import (
    FreeSequence,
    IndependentSequence,
    MatrixLaw,
    ScalarLaw,
    Word,
    free_iid_moment,
    moment_cumulant_roundtrip,
    partition_cumulant,
    partition_moment,
    semicircular_law,
)
from .qis import (
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
from .qperm import check_magic_unitary, permutation_rep, two_point_rep
from .invariance import (
    check_bvalued_spreadable,
    check_exchangeable,
    check_kernel_sums,
    check_spreadable,
    kernel_constrained_sum,
)
from .weingarten import (
    block_state_moment,
    combinatorial_unit_identity,
    finite_n_reconstruction,
    free_projection_oracle,
    reconstruction_weight,
)
from .reports import CheckReport

__version__ = "0.1.0"
