"""Set partitions of {1..m}, the non-crossing lattice, and its Mobius function.

A partition is keyed by its restricted growth string (RGS; Knuth, TAOCP 4A,
7.2.1.5): entry x-1 labels the block of x, blocks labelled 0, 1, 2, ... by
increasing minimum.  Equality and hashing are those of the RGS, ``kernel``
reads an index tuple in one pass, and ``leq`` and ``meet`` are linear scans
over two RGS.  The blocks (sorted tuples, by increasing minimum) are built on
first use.  Ground sets are always {1..m}; callers working with other ordered
sets relabel by position first.  ``nesting_plan`` is the one nesting tree that
nested moments and kernel-constrained sums fold.

``MobiusCache`` tabulates NC(m) once per size, as an integer RGS array and
the first element of each block.  sigma <= p iff p's label at the first
element of each sigma block is p's label at every element of it: one
vectorized test gives a down-set, and over all pairs the order matrix.

All Mobius values are exact (Python integers, which embed in the rationals
used downstream).  ``MobiusCache.mobius`` evaluates the closed form through
the relative Kreweras complement, O(m) per pair; ``zeta_inverse_table`` and
``mobius_column_oracle`` compute the same values by linear algebra on the
zeta (order) matrix and serve as its independent oracles.
"""
from __future__ import annotations

import itertools
from math import comb
from typing import Iterable, Iterator, Sequence

import numpy as np

from .reports import budget

ORDER_M_MAX = 8  # |NC(8)|^2 = 1430^2 booleans, about 2 MB

_set = object.__setattr__


class GroundSetError(ValueError):
    """Two partitions live on different ground sets."""


class OrderError(ValueError):
    """A Mobius query with arguments not comparable in the lattice."""


def kernel_rgs(indices: Iterable) -> tuple[int, ...]:
    """``kernel(indices).rgs``, without building the partition."""
    first: dict = {}
    return tuple([first.setdefault(v, len(first)) for v in indices])


class Partition:
    """A partition of {1..m}, keyed by its RGS, with canonically ordered blocks.

    Immutable and hashable; the blocks and the non-crossing flag are
    computed on first use and cached.  The constructor validates its input;
    ``Partition._of`` wraps an RGS that is valid by construction.
    """

    __slots__ = ("m", "rgs", "_blocks", "_noncrossing")

    def __new__(cls, m: int, blocks: Iterable[Iterable[int]]) -> "Partition":
        if m < 0:
            raise ValueError(f"ground-set size must be >= 0, got {m}")
        labels = [None] * m
        for idx, block in enumerate(map(tuple, blocks)):
            if not block:
                raise ValueError("empty block")
            for x in block:
                if not 1 <= x <= m:
                    raise ValueError(f"element {x} outside ground set {{1..{m}}}")
                if labels[x - 1] is not None:
                    raise ValueError(f"element {x} appears in two blocks")
                labels[x - 1] = idx
        if None in labels:
            raise ValueError("blocks do not cover the ground set")
        return cls._of(kernel_rgs(labels))

    @classmethod
    def _of(cls, rgs: tuple[int, ...]) -> "Partition":
        """The partition with restricted growth string ``rgs``, unchecked."""
        p = object.__new__(cls)
        _set(p, "m", len(rgs))
        _set(p, "rgs", rgs)
        _set(p, "_blocks", None)
        _set(p, "_noncrossing", None)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @staticmethod
    def singletons(m: int) -> "Partition":
        """The minimum of P(m): every element alone."""
        return Partition._of(tuple(range(m)))

    @staticmethod
    def full(m: int) -> "Partition":
        """The maximum of P(m): one block (empty partition when m = 0)."""
        return Partition._of((0,) * m)

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Sorted blocks by increasing minimum; ``blocks[i]`` has label i."""
        if self._blocks is None:
            members: list[list[int]] = [[] for _ in range(max(self.rgs, default=-1) + 1)]
            for x, label in enumerate(self.rgs, start=1):
                members[label].append(x)
            _set(self, "_blocks", tuple(map(tuple, members)))
        return self._blocks

    def size(self) -> int:
        """Number of blocks."""
        return len(self.blocks)

    def block_index(self, x: int) -> int:
        return self.rgs[x - 1]

    def is_noncrossing(self) -> bool:
        flag = self._noncrossing
        if flag is None:
            flag = _noncrossing_scan(self.rgs)
            _set(self, "_noncrossing", flag)
        return flag

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.rgs == other.rgs

    def __hash__(self) -> int:
        return hash(self.rgs)

    def __repr__(self) -> str:
        inner = "/".join(",".join(map(str, b)) for b in self.blocks)
        return f"Partition({self.m}: {inner})"


def _noncrossing_scan(rgs: tuple[int, ...]) -> bool:
    # Reading left to right, each element must join the innermost block still
    # open; if its block is open further out, the blocks in between cross it.
    last = {label: x for x, label in enumerate(rgs)}
    stack: list[int] = []
    for x, label in enumerate(rgs):
        if not stack or stack[-1] != label:
            if label in stack:
                return False
            stack.append(label)
        if x == last[label]:
            stack.pop()
    return True


def kernel(indices: Sequence) -> Partition:
    """Partition of positions {1..m} grouping equal values of ``indices``."""
    if not indices:
        raise ValueError("kernel of an empty index tuple")
    return Partition._of(kernel_rgs(indices))


def leq(p: Partition, q: Partition) -> bool:
    """True iff every block of p is contained in a block of q."""
    if p.m != q.m:
        raise GroundSetError(f"ground sets differ: {p.m} vs {q.m}")
    # p <= q iff each label of p meets exactly one label of q
    return len(set(zip(p.rgs, q.rgs))) == max(p.rgs, default=-1) + 1


def meet(p: Partition, q: Partition) -> Partition:
    """Common refinement: x ~ y iff x ~ y in both p and q."""
    if p.m != q.m:
        raise GroundSetError(f"ground sets differ: {p.m} vs {q.m}")
    return Partition._of(kernel_rgs(zip(p.rgs, q.rgs)))


def nesting_plan(part: Partition) -> tuple:
    """The nesting tree of a non-crossing partition, as the plan of {1..m}.

    The plan of an interval that is a union of blocks lists its outer blocks
    left to right, each as ``(block, word, shape)``.  The word is the block's
    positions with the plan of every non-empty gap between two consecutive
    positions inserted between them; the shape is the RGS of the partition
    restricted to the span of the block.
    """
    if not part.is_noncrossing():
        raise ValueError(f"{part!r} is crossing; the nesting-tree fold needs "
                         "a non-crossing partition")

    def plan(lo: int, hi: int) -> tuple:
        out = []
        while lo <= hi:
            block = part.blocks[part.block_index(lo)]
            word = [block[0]]
            for a, b in zip(block, block[1:]):
                if b > a + 1:
                    word.append(plan(a + 1, b - 1))
                word.append(b)
            out.append((block, tuple(word), kernel_rgs(part.rgs[block[0] - 1:block[-1]])))
            lo = block[-1] + 1
        return tuple(out)

    return plan(1, part.m)


def enumerate_all(m: int) -> Iterator[Partition]:
    """All of P(m): every RGS of length m, in lexicographic order."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    strings: list[tuple[int, ...]] = [()]
    for _ in range(m):
        strings = [r + (label,) for r in strings for label in range(max(r, default=-1) + 2)]
    return map(Partition._of, strings)


def enumerate_nc(m: int) -> list[Partition]:
    """All non-crossing partitions of {1..m}, canonical, no duplicates.

    For m = 0 the list holds the single empty partition.  Built directly by
    choosing the block of the least element and filling the gaps it leaves,
    so nothing is enumerated and thrown away (see ``_extend_nc_strings``).
    """
    return list(map(Partition._of, _extend_nc_strings([[()]], m)[m]))


def _extend_nc_strings(strings: list[list[tuple[int, ...]]], m: int) -> list:
    """Extend ``strings``, the RGS lists of NC(0), NC(1), ..., up to NC(m):
    for each choice of the mates of 1 (by number, then lexicographically),
    the product of the gaps' lists, each gap's labels shifted past the blocks
    already placed, so blocks come out by increasing minimum.  Built as bytes
    (labels stay below ``nc.m_max``), a gap shifted by one ``translate``."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m > (limit := budget("nc.m_max")):
        raise ValueError(f"m={m} exceeds enumeration limit {limit}")
    if len(strings) > m:
        return strings
    levels = [list(map(bytes, level)) for level in strings]
    shifts = [bytes(range(top, 256)) + bytes(top) for top in range(m + 1)]  # label -> label + top
    while len(levels) <= m:
        size, out = len(levels), []
        for r in range(size):
            for mates in itertools.combinations(range(1, size), r):
                bounds = (0, *mates, size)
                prefixes = [b"\0"]
                for a, b in zip(bounds, bounds[1:]):  # each gap, then the mate closing it
                    prefixes = [prefix + sub.translate(shift) + b"\0" for prefix in prefixes
                                for shift in (shifts[max(prefix) + 1],) for sub in levels[b - a - 1]]
                out += [prefix[:-1] for prefix in prefixes]
        levels.append(out)
        strings.append(list(map(tuple, out)))
    return strings


def catalan(m: int) -> int:
    """The m-th Catalan number, |NC(m)|."""
    return comb(2 * m, m) // (m + 1)


class MobiusCache:
    """The one context object, for NC(m) with m up to the ``nc.m_max`` budget:
    NC(m) per m, built from the RGS strings of the smaller sizes, with its
    tables and, for m <= ORDER_M_MAX, its order matrix; P(m) per m; per RGS,
    the NC elements below a partition (crossing or not) in the order of
    NC(m); the Mobius memo; the state memos of ``weingarten``; and the
    kernel-sum tables of ``invariance``, one per (k, m) for every family.

    Fill is single-threaded on demand; afterwards reads are lookups into
    plain dicts and arrays, safe to share.
    """

    def __init__(self):
        self._strings: list[list[tuple[int, ...]]] = [[()]]  # RGS of NC(0), NC(1), ...
        self._nc: dict[int, tuple[Partition, ...]] = {}
        self._all: dict[int, tuple[Partition, ...]] = {}
        self._tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._order: dict[int, np.ndarray] = {}
        self._below: dict[tuple[int, ...], tuple[Partition, ...]] = {}
        self._mu: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}  # per RGS pair
        self._weight_memo: dict = {}
        self._column_memo: dict = {}
        self._kernel_sum_tables: dict = {}

    def nc(self, m: int) -> tuple[Partition, ...]:
        """The non-crossing partitions of {1..m} (cached)."""
        if m not in self._nc:
            _extend_nc_strings(self._strings, m)
            self._nc[m] = tuple(map(Partition._of, self._strings[m]))
        return self._nc[m]

    def count(self, m: int) -> int:
        """|NC(m)|, counted from its RGS strings: no ``Partition`` is built."""
        return len(_extend_nc_strings(self._strings, m)[m])

    def all(self, m: int) -> tuple[Partition, ...]:
        """All of P(m), in the order of ``enumerate_all`` (cached)."""
        if m not in self._all:
            self._all[m] = tuple(enumerate_all(m))
        return self._all[m]

    def _table(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """NC(m) as (RGS array, first element of each element's block), both
        (N, m) and 0-based."""
        table = self._tables.get(m)
        if table is None:
            self.nc(m)
            rgs = np.array(self._strings[m], dtype=np.int8)
            first = (rgs[:, :, None] == rgs[:, None, :]).argmax(axis=2) if m else rgs
            table = self._tables[m] = (rgs, first)
        return table

    def below(self, p: Partition) -> tuple[Partition, ...]:
        """Non-crossing partitions <= p, in the order of ``nc`` (cached per
        RGS; p may be crossing, and is included when it is not)."""
        down = self._below.get(p.rgs)
        if down is None:
            first = self._table(p.m)[1]
            labels = np.array(p.rgs, dtype=np.int8)
            inside = np.flatnonzero((labels[first] == labels).all(axis=1))
            down = self._below[p.rgs] = tuple(map(self.nc(p.m).__getitem__, inside.tolist()))
        return down

    def order(self, m: int) -> np.ndarray:
        """The order matrix of NC(m): entry [i, j] is nc(m)[i] <= nc(m)[j].
        Built by the test of ``below`` for m <= ORDER_M_MAX only."""
        if m > ORDER_M_MAX:
            raise ValueError(f"no order matrix above m={ORDER_M_MAX}, got m={m}")
        matrix = self._order.get(m)
        if matrix is None:
            rgs, first = self._table(m)
            above = np.ones((len(rgs), len(rgs)), dtype=bool)  # [j, i]: i <= j
            for x in range(m):
                above &= rgs[:, first[:, x]] == rgs[:, x, None]
            matrix = self._order[m] = np.ascontiguousarray(above.T)
        return matrix

    def mobius(self, s: Partition, p: Partition) -> int:
        """mu(s, p) on NC(m); requires s <= p, both non-crossing.

        Closed form, memoized per pair of RGS: with each block read as the
        cycle through its elements in increasing order, the interval [s, p]
        is the product of NC(|c|) over the cycles c of the relative Kreweras
        complement s^-1 p, so mu(s, p) is the product of their
        (-1)^(|c|-1) C_(|c|-1) (Kreweras 1972; Nica-Speicher, Lectures 9-10).
        """
        key = (s.rgs, p.rgs)
        value = self._mu.get(key)
        if value is None:
            if not (s.is_noncrossing() and p.is_noncrossing()):
                raise OrderError("Mobius arguments must be non-crossing")
            if not leq(s, p):
                raise OrderError(f"{s!r} is not <= {p!r}")
            back, forth = _block_cycles(s.blocks, -1), _block_cycles(p.blocks, 1)
            value, seen = 1, [False] * s.m
            for start in range(s.m):  # walk each cycle of s^-1 p once
                x, size = start, 0
                while not seen[x]:
                    seen[x] = True
                    x, size = back[forth[x]], size + 1
                if size:
                    value *= (-1) ** (size - 1) * catalan(size - 1)
            self._mu[key] = value
        return value


def _block_cycles(blocks, step: int) -> list[int]:
    """x -> the next element of its block, cyclically (0-based), in
    increasing order for ``step`` 1 and decreasing order for -1."""
    nxt = [0] * sum(map(len, blocks))
    for block in blocks:
        for a, b in zip(block, block[step:] + block[:step]):
            nxt[a - 1] = b - 1
    return nxt


def default_cache() -> MobiusCache:
    """A fresh cache, for a caller that passes none: no memo outlives a call."""
    return MobiusCache()


def mobius_column_oracle(m: int, cache: MobiusCache) -> dict[Partition, int]:
    """Solve the zeta system for the column mu(., full) by back-substitution.

    Independent of the closed form in ``MobiusCache.mobius``: here
    x(p) = -sum over rho > p of zeta(p, rho) x(rho), seeded with
    x(full) = 1, each sum over the up-set of p in the order matrix.  Used as
    a cross-check oracle.
    """
    elems, order = cache.nc(m), cache.order(m)
    column = [0] * len(elems)
    for i in sorted(range(len(elems)), key=lambda i: elems[i].size()):  # coarser first
        above = np.flatnonzero(order[i]).tolist()
        column[i] = 1 if above == [i] else -sum(column[j] for j in above if j != i)
    return dict(zip(elems, column))


def zeta_inverse_table(m: int, cache: MobiusCache) -> dict[tuple[Partition, Partition], int]:
    """Invert the zeta matrix of NC(m) by exact Gauss-Jordan elimination.

    Brute-force oracle for the full Mobius table; O(|NC(m)|^3) exact
    operations, intended for small m only.  The zeta matrix is the 0/1 order
    matrix of ``MobiusCache.order``, held as ints.  Each leading principal
    minor is the determinant of a subposet's zeta matrix, 1, so every pivot
    is 1 where it stands and every entry stays an int; a pivot that is not 1
    raises ArithmeticError naming its column.
    """
    elems, order = cache.nc(m), cache.order(m).tolist()
    size = len(elems)
    aug = [[int(v) for v in order[r]] + [int(r == c) for c in range(size)]
           for r in range(size)]
    for col in range(size):
        if aug[col][col] != 1:
            raise ArithmeticError(f"zeta matrix of NC({m}) has pivot {aug[col][col]} "
                                  f"in column {col}, not 1")
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    table = {}
    for r, p in enumerate(elems):
        for c in range(size):
            if order[r][c]:
                table[(p, elems[c])] = aug[r][size + c]
    return table
