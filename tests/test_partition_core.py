"""The RGS partition core and the closed-form Mobius function against their
differential oracles, and the lattice laws.

The core's oracle is the dict-of-blocks core that the RGS core replaced:
partitions validated block by block, ``kernel`` by grouping positions per
value, ``leq`` by block lookups, ``meet`` by pairs of block indices, and both
enumerations building every partition through the validating constructor.
The Mobius oracle is the memoized recursion over down-sets that the closed
form (the relative Kreweras complement) replaced.  The NC(m) tables are
checked against what they replaced: the recursive enumeration, the
tuple-string enumerator (``helpers._extend_nc_strings``), ``leq`` scans for
the down-sets and the order matrix, and the O(|NC(m)|^2) column scan.
"""
from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspread.partitions import (
    ORDER_M_MAX,
    MobiusCache,
    OrderError,
    Partition,
    _extend_nc_strings,
    catalan,
    enumerate_all,
    enumerate_nc,
    kernel,
    leq,
    meet,
    mobius_column_oracle,
)
from qspread.reports import budget

from helpers import _extend_nc_strings as tuple_nc_strings

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


class OldPartition:
    """A partition of {1..m} with canonically ordered blocks and a dict from
    element to block index."""

    def __init__(self, m: int, blocks):
        if m < 0:
            raise ValueError(f"ground-set size must be >= 0, got {m}")
        cleaned = [tuple(sorted(b)) for b in blocks]
        if any(not b for b in cleaned):
            raise ValueError("empty block")
        canon = tuple(sorted(cleaned, key=lambda b: b[0]))
        seen: set[int] = set()
        for block in canon:
            for x in block:
                if not 1 <= x <= m:
                    raise ValueError(f"element {x} outside ground set {{1..{m}}}")
                if x in seen:
                    raise ValueError(f"element {x} appears in two blocks")
                seen.add(x)
        if len(seen) != m:
            raise ValueError("blocks do not cover the ground set")
        self.m = m
        self.blocks = canon
        self.block_of = {}
        for idx, block in enumerate(canon):
            for x in block:
                self.block_of[x] = idx

    def block_index(self, x: int) -> int:
        return self.block_of[x]

    def same_block(self, x: int, y: int) -> bool:
        return self.block_of[x] == self.block_of[y]

    def is_noncrossing(self) -> bool:
        # s1 < t1 < s2 < t2 with s's and t's in two distinct blocks.
        for x in range(1, self.m + 1):
            for y in range(x + 1, self.m + 1):
                if self.same_block(x, y):
                    continue
                for x2 in range(y + 1, self.m + 1):
                    if not self.same_block(x, x2):
                        continue
                    for y2 in range(x2 + 1, self.m + 1):
                        if self.same_block(y, y2):
                            return False
        return True


def old_kernel(indices: Sequence) -> OldPartition:
    if not indices:
        raise ValueError("kernel of an empty index tuple")
    classes: dict = {}
    for pos, value in enumerate(indices, start=1):
        classes.setdefault(value, []).append(pos)
    return OldPartition(len(indices), classes.values())


def old_leq(p: OldPartition, q: OldPartition) -> bool:
    for block in p.blocks:
        root = q.block_index(block[0])
        if any(q.block_index(x) != root for x in block[1:]):
            return False
    return True


def old_meet(p: OldPartition, q: OldPartition) -> OldPartition:
    classes: dict = {}
    for x in range(1, p.m + 1):
        classes.setdefault((p.block_index(x), q.block_index(x)), []).append(x)
    return OldPartition(p.m, classes.values())


def old_enumerate_all(m: int) -> Iterator[OldPartition]:
    def rec(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if n == 0:
            yield ()
            return
        for smaller in rec(n - 1):
            yield smaller + ((n,),)
            for i, block in enumerate(smaller):
                yield smaller[:i] + (block + (n,),) + smaller[i + 1 :]

    for blocks in rec(m):
        yield OldPartition(m, blocks)


def old_nc_blocks(m: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """NC(m) as block tuples, by the recursion the table-built enumeration
    replaced: choose the block of the least element, recurse on each gap."""
    def rec(elems: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
        if not elems:
            yield ()
            return
        first, rest = elems[0], elems[1:]
        for r in range(len(rest) + 1):
            for mates in itertools.combinations(rest, r):
                block = (first,) + mates
                # rest splits into intervals between consecutive block members
                cuts = [rest.index(x) for x in mates]
                segments = []
                prev = 0
                for c in cuts:
                    segments.append(rest[prev:c])
                    prev = c + 1
                segments.append(rest[prev:])
                for combo in itertools.product(*(list(rec(s)) for s in segments)):
                    yield (block,) + tuple(itertools.chain.from_iterable(combo))

    return rec(tuple(range(1, m + 1)))


def old_enumerate_nc(m: int) -> list[OldPartition]:
    return [OldPartition(m, blocks) for blocks in old_nc_blocks(m)]


def both_cores(m: int) -> list[tuple[OldPartition, Partition]]:
    """All of P(m) in the oracle's order, each with its RGS-core twin."""
    return [(old, Partition(m, old.blocks)) for old in old_enumerate_all(m)]


class TestAgainstOldCore:
    def test_enumerate_all_is_the_same_set(self):
        for m in range(0, 7):
            old = sorted(p.blocks for p in old_enumerate_all(m))
            new = [p.blocks for p in enumerate_all(m)]
            assert sorted(new) == old and len(set(new)) == len(new)

    def test_blocks_and_noncrossing_agree(self):
        for m in range(0, 7):
            for old, new in both_cores(m):
                assert new.blocks == old.blocks and new.m == m
                assert new.is_noncrossing() == old.is_noncrossing()
                assert all(new.block_index(x) == old.block_of[x] for x in range(1, m + 1))

    def test_leq_and_meet_agree_on_all_pairs_m_le_6(self):
        for m in range(0, 7):
            pairs = both_cores(m)
            for old_p, new_p in pairs:
                for old_q, new_q in pairs:
                    assert leq(new_p, new_q) == old_leq(old_p, old_q)
                    assert meet(new_p, new_q).blocks == old_meet(old_p, old_q).blocks

    def test_kernel_agrees(self):
        for m in range(1, 7):
            for indices in itertools.product("abc", repeat=m):
                assert kernel(indices).blocks == old_kernel(indices).blocks
            for old, new in both_cores(m):
                assert kernel(new.rgs) == new
                assert kernel(new.rgs).blocks == old_kernel(new.rgs).blocks

    def test_enumerate_nc_agrees_in_order_m_le_7(self):
        for m in range(0, 8):
            assert [p.blocks for p in enumerate_nc(m)] == [
                p.blocks for p in old_enumerate_nc(m)
            ]

    def test_down_sets_in_nc_order(self):
        cache = MobiusCache()
        for m in range(0, 7):
            nc = [(old, Partition(m, old.blocks)) for old in old_enumerate_nc(m)]
            for old_p, new_p in both_cores(m):
                expected = [new_s for old_s, new_s in nc if old_leq(old_s, old_p)]
                assert list(cache.below(new_p)) == expected
                assert cache.below(new_p) == tuple(s for s in cache.nc(m) if leq(s, new_p))


def scanned_column(m: int, cache: MobiusCache) -> dict[Partition, int]:
    """The column mu(., full) by the O(|NC(m)|^2) scan the up-set
    back-substitution replaced: every rho already solved, tested by leq."""
    elems = sorted(cache.nc(m), key=lambda p: -p.size())  # finer first
    top = Partition.full(m)
    column: dict[Partition, int] = {}
    for p in sorted(elems, key=lambda p: p.size()):  # coarser first
        if p == top:
            column[p] = 1
        else:
            column[p] = -sum(
                column[rho] for rho in elems if rho != p and rho in column and leq(p, rho)
            )
    return column


class TestTablesAgainstScans:
    def test_enumeration_is_the_recursion_in_order_m_le_10(self):
        cache = MobiusCache()
        for m in range(0, 11):
            expected = list(old_nc_blocks(m))
            assert [p.blocks for p in enumerate_nc(m)] == expected
            assert [p.blocks for p in cache.nc(m)] == expected

    def test_order_matrix_is_leq_on_all_pairs_m_le_7(self):
        cache = MobiusCache()
        for m in range(0, 8):
            elems, order = cache.nc(m), cache.order(m)
            assert order.shape == (len(elems), len(elems)) and order.dtype == bool
            assert order.tolist() == [[leq(p, q) for q in elems] for p in elems]

    def test_column_oracle_is_the_scan_m_le_7(self):
        cache = MobiusCache()
        for m in range(0, 8):
            assert mobius_column_oracle(m, cache) == scanned_column(m, cache)

    def test_no_order_matrix_above_its_cap(self):
        cache = MobiusCache()
        with pytest.raises(ValueError):
            cache.order(ORDER_M_MAX + 1)
        assert ORDER_M_MAX + 1 not in cache._order
        assert max(budget(f"nc.{key}")
                   for key in ("mobius_m_max", "zeta_m_max", "column_m_max")) <= ORDER_M_MAX


def as_tuples(levels: list[list[bytes]]) -> list[list[tuple[int, ...]]]:
    return [list(map(tuple, level)) for level in levels]


class TestByteEnumeratorAgainstTuples:
    """The byte-string enumerator against the tuple-string one it replaced:
    the same strings in the same order, up to one size below the cap."""

    M_MAX = budget("nc.m_max") - 1

    def test_one_call_per_size(self):
        for m in range(0, self.M_MAX + 1):
            assert as_tuples(_extend_nc_strings([[b""]], m)) == tuple_nc_strings([[()]], m), m

    def test_size_by_size_as_the_cache_builds(self):
        built, oracle = [[b""]], [[()]]
        for m in range(0, self.M_MAX + 1):
            assert _extend_nc_strings(built, m) is built
            assert as_tuples(built) == tuple_nc_strings(oracle, m), m
            assert all(type(rgs) is bytes for rgs in built[m])
        # a size already built returns at once, with nothing appended
        assert _extend_nc_strings(built, 3) is built and len(built) == self.M_MAX + 1

    def test_tables_are_the_tables_of_the_tuple_strings(self):
        cache, strings = MobiusCache(), tuple_nc_strings([[()]], self.M_MAX)
        for m in range(0, self.M_MAX + 1):
            rgs = np.array(strings[m], dtype=np.int8)
            first = np.array([[r.index(label) for label in r] for r in strings[m]])
            got_rgs, got_first = cache._table(m)
            assert got_rgs.dtype == rgs.dtype and np.array_equal(got_rgs, rgs), m
            assert np.array_equal(got_first, first), m

    def test_the_cache_keeps_one_form_of_nc(self):
        cache, m_max = MobiusCache(), budget("nc.m_max")
        assert cache.count(m_max) == catalan(m_max)
        assert len(cache._strings) == m_max + 1
        assert all(type(rgs) is bytes for level in cache._strings for rgs in level)
        assert not cache._nc


def recursive_mobius(s: Partition, p: Partition, cache: MobiusCache, memo: dict) -> int:
    """mu(s, p) on NC(m) by recursion on the upper argument: mu(s, s) = 1 and
    mu(s, p) = -sum over s <= rho < p of mu(s, rho), memoized per pair."""
    key = (s, p)
    if key not in memo:
        memo[key] = 1 if s == p else -sum(
            recursive_mobius(s, rho, cache, memo)
            for rho in cache.below(p)
            if rho != p and leq(s, rho)
        )
    return memo[key]


class TestMobiusAgainstRecursion:
    def test_closed_form_on_every_interval_m_le_7(self):
        cache, memo = MobiusCache(), {}
        intervals = 0
        for m in range(0, 8):
            for p in cache.nc(m):
                for s in cache.below(p):
                    assert cache.mobius(s, p) == recursive_mobius(s, p, cache, memo), (s, p)
                    intervals += 1
        assert intervals == 9525

    def test_memo_does_not_admit_bad_arguments(self):
        cache = MobiusCache()
        for m in range(0, 5):
            for p in cache.nc(m):
                for s in cache.below(p):
                    cache.mobius(s, p)
        crossing = Partition(4, [(1, 3), (2, 4)])
        with pytest.raises(OrderError):
            cache.mobius(Partition.singletons(4), crossing)
        with pytest.raises(OrderError):
            cache.mobius(crossing, Partition.full(4))
        with pytest.raises(OrderError):  # comparable in neither direction
            cache.mobius(Partition(3, [(1, 2), (3,)]), Partition(3, [(1,), (2, 3)]))
        with pytest.raises(OrderError):
            cache.mobius(Partition.full(3), Partition.singletons(3))


@st.composite
def rgs_strings(draw, m=None):
    """A random restricted growth string, of length ``m`` when given."""
    if m is None:
        m = draw(st.integers(0, 9))
    labels: list[int] = []
    for _ in range(m):
        labels.append(draw(st.integers(0, max(labels, default=-1) + 1)))
    return tuple(labels)


def same_size(count: int):
    return st.integers(0, 8).flatmap(
        lambda m: st.tuples(*(rgs_strings(m) for _ in range(count))))


def blocks_of(rgs: tuple[int, ...]) -> list[list[int]]:
    blocks: dict[int, list[int]] = {}
    for x, label in enumerate(rgs, start=1):
        blocks.setdefault(label, []).append(x)
    return list(blocks.values())


def from_rgs(rgs: tuple[int, ...]) -> Partition:
    return Partition(len(rgs), reversed(blocks_of(rgs)))


class TestProperties:
    @PROPERTY_SETTINGS
    @given(rgs_strings())
    def test_rgs_blocks_round_trip(self, rgs):
        p = from_rgs(rgs)
        assert p.rgs == rgs
        assert p.blocks == tuple(map(tuple, blocks_of(rgs)))
        assert Partition(p.m, p.blocks) == p and hash(Partition(p.m, p.blocks)) == hash(p)
        assert p.size() == len(set(rgs))

    @PROPERTY_SETTINGS
    @given(rgs_strings())
    def test_kernel_of_rgs_is_the_partition(self, rgs):
        if rgs:
            assert kernel(rgs) == from_rgs(rgs)
            assert kernel([f"v{label * 7 % 11}" for label in rgs]) == from_rgs(rgs)

    @PROPERTY_SETTINGS
    @given(same_size(3))
    def test_leq_is_a_partial_order(self, strings):
        p, q, r = map(from_rgs, strings)
        assert leq(p, p)
        if leq(p, q) and leq(q, p):
            assert p == q
        if leq(p, q) and leq(q, r):
            assert leq(p, r)
        # a chain built by meets, so the premise of transitivity holds
        pq = meet(p, q)
        pqr = meet(pq, r)
        assert leq(pqr, pq) and leq(pq, p) and leq(pqr, p)
        assert leq(p, q) == all(
            len({q.block_index(x) for x in block}) == 1 for block in p.blocks)

    @PROPERTY_SETTINGS
    @given(same_size(3))
    def test_meet_is_the_greatest_lower_bound(self, strings):
        p, q, r = map(from_rgs, strings)
        low = meet(p, q)
        assert leq(low, p) and leq(low, q)
        assert (leq(r, p) and leq(r, q)) == leq(r, low)
        assert leq(meet(low, r), low)
        intersections = {frozenset(b) & frozenset(c) for b in p.blocks for c in q.blocks}
        assert {frozenset(b) for b in low.blocks} == intersections - {frozenset()}
