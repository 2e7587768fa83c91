"""Operator-valued moment and cumulant calculus for one self-adjoint variable.

A law answers E[b0 x b1 x ... x bs] for inserts b0..bs in B.  From that single
interface the module builds:

  * partitioned moments, by a fold over the nesting tree of the partition
    (``partitions.nesting_plan``): each block is one law evaluation with its
    folded gaps as inserts;
  * partitioned cumulants, by Mobius inversion over the non-crossing lattice;
  * joint moments of a free i.i.d. sequence, via the sum of cumulants over
    non-crossing partitions refining the kernel of the index tuple.  This sum
    is the definition of the free joint distribution here -- no operators on
    an infinite algebra are ever constructed, only their moments.

Two law backends: a scalar moment list (B = C) and an ambient matrix with a
partial-trace expectation (B = M_d).  Both come in exact-rational and
complex-float flavors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .linalg import (
    BAlgebra,
    is_exact,
    random_hermitian,
    random_rational_matrix,
    random_rational_symmetric,
    residual_norm,
)
from .partitions import MobiusCache, Partition, catalan, kernel, nesting_plan
from .reports import budget, require_within

CATALAN_CAP = 64


@dataclass(frozen=True, eq=False)
class Word:
    """A joint-moment query: indices i_1..i_m, inserts b_0..b_m, powers p_1..p_m.

    Position r stands for the r-th sequence member raised to powers[r-1],
    with inserts[r-1] on its left and inserts[r] on its right.
    """

    indices: tuple[int, ...]
    inserts: tuple
    powers: tuple[int, ...]

    def __post_init__(self):
        m = len(self.indices)
        if len(self.inserts) != m + 1 or len(self.powers) != m:
            raise ValueError(
                f"inconsistent word: {m} indices, {len(self.inserts)} inserts, "
                f"{len(self.powers)} powers"
            )
        if any(i < 1 for i in self.indices):
            raise ValueError("indices must be positive")
        if any(p < 1 for p in self.powers):
            raise ValueError("powers must be positive")

    @property
    def length(self) -> int:
        return len(self.indices)

    @staticmethod
    def plain(law, indices: Sequence[int], powers: Sequence[int] | None = None) -> "Word":
        """Word with unit inserts everywhere."""
        indices = tuple(indices)
        return Word(
            indices,
            tuple(law.unit() for _ in range(len(indices) + 1)),
            tuple(powers) if powers is not None else (1,) * len(indices),
        )

    def with_indices(self, indices: Sequence[int]) -> "Word":
        return replace(self, indices=tuple(indices))


class ScalarLaw:
    """B = C: the law is a list of raw moments, moments[p] = E[x^p]."""

    def __init__(self, moments: Sequence):
        moments = list(moments)
        if not moments or moments[0] != 1:
            raise ValueError("moment list must start with E[x^0] = 1")
        self.moments = moments
        self.exact = all(isinstance(v, (int, Fraction)) for v in moments)

    def unit(self):
        return Fraction(1) if self.exact else 1.0 + 0j

    def zero(self):
        return Fraction(0) if self.exact else 0.0 + 0j

    def eval(self, inserts: Sequence):
        order = len(inserts) - 1
        if order >= len(self.moments):
            raise ValueError(
                f"law knows moments up to order {len(self.moments) - 1}, needs {order}"
            )
        return math.prod(inserts) * self.moments[order]

    def phi(self, b):
        return b

    def random_element(self, rng: np.random.Generator):
        if self.exact:
            return Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
        return complex(rng.standard_normal(), rng.standard_normal())

    def residual(self, a, b):
        return abs(a - b)


def semicircular_law() -> ScalarLaw:
    """Standard semicircular moments: Catalan numbers at even orders."""
    moments: list[Fraction] = []
    for p in range(CATALAN_CAP + 1):
        if p % 2:
            moments.append(Fraction(0))
        else:
            moments.append(Fraction(catalan(p // 2)))
    return ScalarLaw(moments)


class MatrixLaw:
    """B = M_d with E the normalized partial trace; the variable is a fixed
    ambient matrix and every moment is computed by honest multiplication."""

    def __init__(self, alg: BAlgebra, ambient: np.ndarray):
        n = alg.ambient_dim
        if ambient.shape != (n, n):
            raise ValueError(f"ambient matrix must be {n}x{n}, got {ambient.shape}")
        self.alg = alg
        self.ambient = ambient
        self.exact = is_exact(ambient)

    def unit(self):
        return np.eye(self.alg.d, dtype=self.ambient.dtype)

    def zero(self):
        return np.zeros_like(self.unit())

    def eval(self, inserts: Sequence[np.ndarray]):
        w = self.alg.embed(inserts[0])
        for b in inserts[1:]:
            w = w @ self.ambient @ self.alg.embed(b)
        return self.alg.expect(w)

    def phi(self, b: np.ndarray):
        return self.alg.trace_state(b)

    def random_element(self, rng: np.random.Generator):
        if self.exact:
            return random_rational_matrix(self.alg.d, self.alg.d, rng)
        d = self.alg.d
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

    def residual(self, a, b):
        return residual_norm(a - b)


def random_matrix_law(d: int, D: int, seed: int) -> MatrixLaw:
    """Float law: seeded random Hermitian ambient matrix."""
    rng = np.random.default_rng(seed)
    return MatrixLaw(BAlgebra(d, D), random_hermitian(d * D, rng))


def random_rational_matrix_law(d: int, D: int, seed: int) -> MatrixLaw:
    """Exact law: seeded random symmetric matrix of small Fractions."""
    rng = np.random.default_rng(seed)
    return MatrixLaw(BAlgebra(d, D), random_rational_symmetric(d * D, rng))


def _bmul(a, b):
    if isinstance(a, np.ndarray):
        return a @ b
    return a * b


def sandwiched_moment(law, inserts: Sequence, powers: Sequence[int]):
    """E[b0 x^{p1} b1 ... x^{pm} bm]: flatten powers into repeated x."""
    flat = [inserts[0]]
    for p, b in zip(powers, inserts[1:]):
        flat.extend(law.unit() for _ in range(p - 1))
        flat.append(b)
    return law.eval(flat)


def _nest(law, plan: tuple, inserts: Sequence, powers: Sequence[int], value):
    """``value`` times, for each outer block of ``plan`` left to right, its
    moment (the insert or the folded gap between consecutive positions, the
    unit at both ends) and the insert after it."""
    for block, word, _ in plan:
        gaps = [_nest(law, x, inserts, powers, inserts[a]) if isinstance(x, tuple)
                else inserts[a] for a, x in zip(word, word[1:]) if not isinstance(a, tuple)]
        moment = sandwiched_moment(law, [law.unit(), *gaps, law.unit()],
                                   [powers[p - 1] for p in block])
        value = _bmul(_bmul(value, moment), inserts[block[-1]])
    return value


def partition_moment(law, part: Partition, word: Word):
    """The nested moment functional for a non-crossing partition, folded over
    its nesting tree (``nesting_plan`` rejects a crossing one): each block is
    one law evaluation with its folded gaps as inserts, and outer blocks
    multiply left to right, each followed by the insert after it."""
    plan = nesting_plan(part)
    if len(set(word.indices)) > 1:
        raise ValueError("partitioned functionals act on words in one variable")
    if part.m != word.length:
        raise ValueError("partition and word sizes differ")
    return _nest(law, plan, word.inserts, word.powers, word.inserts[0])


def partition_cumulant(law, part: Partition, word: Word, cache: MobiusCache, moments: dict):
    """Mobius inversion of the partitioned moments over NC below ``part``.

    ``moments`` keeps each finer partition's moment of ``word`` across calls
    on the same word."""
    if not part.is_noncrossing():
        raise ValueError(f"{part!r} is crossing")
    total = law.zero()
    for finer in cache.below(part):
        if finer not in moments:
            moments[finer] = partition_moment(law, finer, word)
        total = total + cache.mobius(finer, part) * moments[finer]
    return total


def moment_cumulant_roundtrip(
    law,
    m: int,
    *,
    seed: int = 0,
    powers: Sequence[int] | None = None,
    tolerance: float,
    cache: MobiusCache,
) -> bool:
    """Check E[word] = sum of partitioned cumulants over NC(m), m within its
    work budget: exactly for an exact law, else within ``tolerance``."""
    kind = "scalar" if isinstance(law, ScalarLaw) else "matrix"
    require_within("moment_cumulant_roundtrip", {"m": m}, {"m": budget(f"roundtrip.{kind}_m_max")})
    rng = np.random.default_rng(seed)
    inserts = tuple(law.random_element(rng) for _ in range(m + 1))
    word = Word((1,) * m, inserts, tuple(powers) if powers else (1,) * m)
    direct = sandwiched_moment(law, word.inserts, word.powers)
    total, moments = law.zero(), {}
    for part in cache.nc(m):
        total = total + partition_cumulant(law, part, word, cache, moments)
    gap = law.residual(direct, total)
    return gap == 0 if law.exact else gap <= tolerance


def free_iid_moment(law, word: Word, cache: MobiusCache):
    """Joint moment of a free i.i.d. sequence, synthesized from one law.

    Sum of partitioned cumulants over non-crossing partitions below the
    kernel of the index tuple; this is what defines the joint distribution
    of the sequence throughout the package.  At a non-crossing kernel the
    sum covers [0, ker] in NC(m), so it is the nested moment of the kernel.
    """
    single = word.with_indices((1,) * word.length)
    ker = kernel(word.indices)
    if ker.is_noncrossing():
        return partition_moment(law, ker, single)
    moments: dict = {}
    total = law.zero()
    for part in cache.below(ker):
        total = total + partition_cumulant(law, part, single, cache, moments)
    return total


class FreeSequence:
    """Free i.i.d. sequence model: joint moments via free_iid_moment.

    Values are memoized per (kernel, powers, inserts-identity) since the
    synthesis only sees the kernel of the index tuple.
    """

    kernel_invariant = True

    def __init__(self, law, cache: MobiusCache):
        self.law = law
        self.cache = cache
        self.exact = law.exact
        self._memo: dict = {}

    def unit(self):
        return self.law.unit()

    def moment(self, word: Word):
        key = (kernel(word.indices), word.powers, id(word.inserts))
        hit = self._memo.get(key)
        if hit is not None and hit[0] is word.inserts:
            return hit[1]
        value = free_iid_moment(self.law, word, self.cache)
        self._memo[key] = (word.inserts, value)
        return value

    def phi_moment(self, word: Word):
        return self.law.phi(self.moment(word))


class IndependentSequence:
    """Classically independent scalar variables with per-index moment lists.

    Joint moments factor over distinct indices.  With different lists per
    index this is the deliberately broken, non-identically-distributed model
    used as a negative control in the invariance checkers; with equal lists
    it is classical i.i.d., and its moments depend only on the kernel.
    """

    def __init__(self, moment_lists: dict[int, Sequence]):
        self.laws = {i: list(ms) for i, ms in moment_lists.items()}
        for i, ms in self.laws.items():
            if not ms or ms[0] != 1:
                raise ValueError(f"moment list for index {i} must start with 1")
        self.kernel_invariant = len({tuple(ms) for ms in self.laws.values()}) == 1
        self.exact = all(isinstance(v, (int, Fraction)) for ms in self.laws.values() for v in ms)

    def unit(self):
        return Fraction(1)

    def moment(self, word: Word):
        degrees: dict[int, int] = {}
        for i, p in zip(word.indices, word.powers):
            degrees[i] = degrees.get(i, 0) + p
        value = math.prod(word.inserts)
        for i, deg in degrees.items():
            if i not in self.laws:
                raise ValueError(f"no moment list for index {i}")
            if deg >= len(self.laws[i]):
                raise ValueError(f"moment list for index {i} knows moments up to order "
                                 f"{len(self.laws[i]) - 1}, needs {deg}")
            value = value * self.laws[i][deg]
        return value

    def phi_moment(self, word: Word):
        return self.moment(word)
