"""Quantum increasing sequence representations.

A representation is a rectangular family of matrices standing for the
generators u_{ij} (1 <= i <= n rows, 1 <= j <= k columns) of the universal
algebra of "quantum increasing sequences": entries are projections, each
column sums to the identity, and u_{ij} u_{i'j'} = 0 whenever j < j' and
i >= i'.  Nothing symbolic is ever manipulated; every statement is checked
on concrete families, with the commutative model (evaluation at an actual
increasing sequence) supplying exhaustive exact instances.

Zero generators are stored explicitly so residual checks are uniform.
"""
from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .linalg import (
    projection_pair,
    random_pvm,
    residual_norm,
    dagger,
)
from .reports import CheckReport, ResidualTracker

DEFAULT_REP_TOLERANCE = 1e-9
INCREASING_N_MAX = 16


@dataclass(frozen=True)
class IncreasingSequence:
    """A strictly increasing sequence 1 <= l_1 < ... < l_k <= n."""

    k: int
    n: int
    values: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k} n={self.n}")
        if len(self.values) != self.k:
            raise ValueError("wrong number of values")
        if any(v < 1 or v > self.n for v in self.values):
            raise ValueError("values out of range")
        if any(a >= b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("values must be strictly increasing")


def enumerate_increasing(k: int, n: int) -> list[IncreasingSequence]:
    """All C(n, k) increasing sequences, lexicographically."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k} n={n}")
    if n > INCREASING_N_MAX:
        raise ValueError(f"n={n} exceeds limit {INCREASING_N_MAX}")
    return [
        IncreasingSequence(k, n, combo)
        for combo in itertools.combinations(range(1, n + 1), k)
    ]


def classical_coordinate(l: IncreasingSequence, i: int, j: int) -> int:
    """The 0/1 coordinate function: 1 iff the j-th member of l equals i."""
    if not 1 <= i <= l.n or not 1 <= j <= l.k:
        raise ValueError(f"coordinate ({i},{j}) out of range for ({l.k},{l.n})")
    return 1 if l.values[j - 1] == i else 0


@dataclass(frozen=True)
class Representation:
    """A labeled family of square matrices for the generators u_{ij}.

    kind "increasing": n rows, k columns.  kind "permutation": square, k = n.
    """

    kind: str
    k: int
    n: int
    gens: dict
    dim: int
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("increasing", "permutation"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == "permutation" and self.k != self.n:
            raise ValueError("permutation representations are square")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k} n={self.n}")
        for i in range(1, self.n + 1):
            for j in range(1, self.k + 1):
                g = self.gens.get((i, j))
                if g is None:
                    raise ValueError(f"missing generator ({i},{j})")
                if g.shape != (self.dim, self.dim):
                    raise ValueError(f"generator ({i},{j}) has shape {g.shape}")

    def gen(self, i: int, j: int) -> np.ndarray:
        return self.gens[(i, j)]

    def unit(self) -> np.ndarray:
        return np.eye(self.dim, dtype=self.gens[(1, 1)].dtype)

    def zero(self) -> np.ndarray:
        return np.zeros_like(self.gens[(1, 1)])


def classical_point_rep(l: IncreasingSequence) -> Representation:
    """Exact 1x1 representation: each generator is the coordinate at l."""
    gens = {
        (i, j): np.array([[classical_coordinate(l, i, j)]], dtype=object)
        for i in range(1, l.n + 1)
        for j in range(1, l.k + 1)
    }
    return Representation(kind="increasing", k=l.k, n=l.n, gens=gens, dim=1)


def two_projection_rep(theta: float) -> Representation:
    """The (k=2, n=4) family built from two 2x2 projections at angle theta:

        column 1: p, 1-p, 0, 0      column 2: 0, 0, q, 1-q
    """
    p, q = projection_pair(theta)
    one = np.eye(2, dtype=complex)
    zero = np.zeros((2, 2), dtype=complex)
    gens = {
        (1, 1): p, (2, 1): one - p, (3, 1): zero, (4, 1): zero,
        (1, 2): zero, (2, 2): zero, (3, 2): q, (4, 2): one - q,
    }
    return Representation(kind="increasing", k=2, n=4, gens=gens, dim=2)


def build_block_rep(k: int, n: int, dim: int, seed: int) -> Representation:
    """Family for (k, k*n): column j carries a seeded random projection-valued
    partition of unity in the rows (j-1)n+1 .. jn, zero elsewhere.

    The banded zero pattern makes the increasing-sequence orthogonality hold
    identically; only the per-column PVM residuals are non-trivial.
    """
    if dim < n:
        raise ValueError(f"need dim >= n, got dim={dim} n={n}")
    zero = np.zeros((dim, dim), dtype=complex)
    gens = {}
    for j in range(1, k + 1):
        pvm = random_pvm(n, dim, seed=seed + j)
        for row in range(1, k * n + 1):
            in_band = (j - 1) * n < row <= j * n
            gens[(row, j)] = pvm[row - (j - 1) * n - 1] if in_band else zero
    return Representation(kind="increasing", k=k, n=k * n, gens=gens, dim=dim, seed=seed)


def _relations_report(rep: Representation, name: str, tolerance, seed, params: dict,
                      groups, products) -> CheckReport:
    """The report of a relation check on ``rep``.  For each (keys, sums) of
    ``groups`` in turn it tracks the projection and self-adjoint residuals of
    the generators at ``keys``, then the residual from the unit of the sum
    over each (label, keys) of ``sums``: all defining.  Then each (label,
    terms, defining) that ``products`` yields tracks the norm of the product
    of the generators at the keys ``terms``, as a defining or a derived
    residual.

    An exactly zero generator is a projection and self-adjoint, and a product
    with an exactly zero factor is the zero matrix, on either backend: each of
    those cases gets the int 0 with no product, adjoint or norm formed (a
    non-finite entry is nonzero, so it is never skipped and its own
    projection case fails or raises)."""
    tracker = ResidualTracker(name, DEFAULT_REP_TOLERANCE if tolerance is None else tolerance,
                              params=params, seed=rep.seed if seed is None else seed)
    worst = {True: 0, False: 0}  # defining, derived
    nonzero = {key: g.any() for key, g in rep.gens.items()}
    for keys, sums in groups:
        for i, j in keys:
            r_proj = r_adj = 0
            if nonzero[i, j]:
                g = rep.gens[i, j]
                r_proj, r_adj = residual_norm(g @ g - g), residual_norm(dagger(g) - g)
            tracker.add(("projection", i, j), r_proj)
            tracker.add(("self-adjoint", i, j), r_adj)
            worst[True] = max(worst[True], r_proj, r_adj)
        for label, terms in sums:
            r_sum = residual_norm(sum((rep.gen(*key) for key in terms), rep.zero()) - rep.unit())
            tracker.add(label, r_sum)
            worst[True] = max(worst[True], r_sum)
    add, is_nonzero = tracker.add, nonzero.__getitem__
    for label, terms, defining in products:
        if not all(map(is_nonzero, terms)):
            add(label, 0)
            continue
        r = residual_norm(functools.reduce(operator.matmul, map(rep.gens.__getitem__, terms)))
        add(label, r)
        worst[defining] = max(worst[defining], r)
    return tracker.report(extra_params={"defining_residual": float(worst[True]),
                                        "derived_residual": float(worst[False])})


def check_increasing_relations(
    rep: Representation, tolerance: float | None = None, seed: int | None = None
) -> CheckReport:
    """Residuals of the defining relations, plus the derived consequences.

    Defining: entries are self-adjoint idempotents, columns sum to 1, and
    u_{ij} u_{i'j'} = 0 for j < j' with i >= i'.  Derived: the stronger
    orthogonality u_{ij} u_{i'j'} = 0 whenever i' - i < j' - j, and the
    vanishing of every entry outside the band j <= i <= n-k+j.  The derived
    residuals are reported separately; they are consequences of the defining
    ones, and watching them vanish together is the point of the check.
    """
    if rep.kind != "increasing":
        raise ValueError("expected an increasing-sequence representation")
    cols, rows = range(1, rep.k + 1), range(1, rep.n + 1)
    groups = [([(i, j) for i in rows], [(("column-sum", j), [(i, j) for i in rows])])
              for j in cols]

    def products():
        for j, jp in itertools.combinations_with_replacement(cols, 2):
            for i, ip in itertools.product(rows, rows):
                if j < jp and i >= ip:
                    yield ("increasing", i, j, ip, jp), ((i, j), (ip, jp)), True
                elif ip - i < jp - j:
                    yield ("derived-orthogonality", i, j, ip, jp), ((i, j), (ip, jp)), False
        for j in cols:
            for i in rows:
                if not j <= i <= rep.n - rep.k + j:
                    yield ("derived-zero-band", i, j), ((i, j),), False

    return _relations_report(rep, "increasing_relations", tolerance, seed,
                             {"k": rep.k, "n": rep.n, "dim": rep.dim}, groups, products())


def extend_to_permutation(l: IncreasingSequence) -> tuple[int, ...]:
    """Extend l to the permutation sending j to l_j and filling the remaining
    slots with the unused values in increasing order."""
    used = set(l.values)
    return tuple(l.values) + tuple(v for v in range(1, l.n + 1) if v not in used)


def quantum_extension(
    rep: Representation, tolerance: float | None = None
) -> Representation:
    """Extend an increasing-sequence family to a candidate magic unitary.

    Column j <= k copies the input.  Column k+m vanishes outside rows
    m..m+k, and at row m+p is the telescoping sum of v_{ip} - v_{(i+1)(p+1)}
    over i < m+p, with the boundary conventions v_00 = 1 and
    v_{i0} = v_{0j} = v_{i(k+1)} = 0 encoded as a total lookup.

    Refuses families whose defining relations fail at the given tolerance.
    """
    report = check_increasing_relations(rep, tolerance)
    if not report.passed:
        raise ValueError(
            "input violates the increasing-sequence relations: "
            f"max residual {report.max_residual} (witness {report.witness})"
        )
    k, n = rep.k, rep.n
    one, zero = rep.unit(), rep.zero()

    def v(i: int, j: int) -> np.ndarray:
        if i == 0 and j == 0:
            return one
        if i == 0 or j == 0 or j == k + 1:
            return zero
        return rep.gen(i, j)

    gens = {}
    for j in range(1, k + 1):
        for i in range(1, n + 1):
            gens[(i, j)] = rep.gen(i, j)
    for m in range(1, n - k + 1):
        col = k + m
        for i in range(1, n + 1):
            if i < m or i > m + k:
                gens[(i, col)] = zero
            else:
                p = i - m
                total = zero
                for t in range(0, m + p):
                    total = total + v(t, p) - v(t + 1, p + 1)
                gens[(i, col)] = total
    return Representation(kind="permutation", k=n, n=n, gens=gens, dim=rep.dim, seed=rep.seed)
