from __future__ import annotations

import inspect
import random

import pytest

from qspread import invariance, moments, suites, weingarten
from qspread.partitions import (
    ORDER_M_MAX,
    GroundSetError,
    MobiusCache,
    OrderError,
    Partition,
    catalan,
    default_cache,
    enumerate_all,
    enumerate_nc,
    kernel,
    leq,
    meet,
    mobius_column_oracle,
    zeta_inverse_table,
)


def catalan_by_recurrence(m: int) -> int:
    # C_m = sum C_i * C_{m-1-i}, independent of the comb() closed form
    table = [1]
    for size in range(1, m + 1):
        table.append(sum(table[i] * table[size - 1 - i] for i in range(size)))
    return table[m]


def noncrossing_by_peeling(p: Partition) -> bool:
    # recursive characterization: some block is an interval and the rest is
    # non-crossing on what remains
    blocks = list(p.blocks)
    elems = sorted(x for b in blocks for x in b)
    if len(blocks) <= 1:
        return True
    pos = {x: i for i, x in enumerate(elems)}
    for i, block in enumerate(blocks):
        if pos[block[-1]] - pos[block[0]] == len(block) - 1:
            rest = [b for j, b in enumerate(blocks) if j != i]
            relabel = {x: r + 1 for r, x in enumerate(sorted(y for b in rest for y in b))}
            reduced = Partition(len(relabel), [[relabel[x] for x in b] for b in rest])
            return noncrossing_by_peeling(reduced)
    return False


class TestPartitionType:
    def test_canonical_form(self):
        p = Partition(5, [[3, 5], [4], [2, 1]])
        assert p.blocks == ((1, 2), (3, 5), (4,))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            Partition(3, [[1, 2]])  # not covering
        with pytest.raises(ValueError):
            Partition(3, [[1, 2], [2, 3]])  # overlap
        with pytest.raises(ValueError):
            Partition(3, [[1, 2, 3, 4]])  # out of range
        with pytest.raises(ValueError):
            Partition(2, [[1, 2], []])  # empty block

    def test_hash_and_eq(self):
        a = Partition(4, [[1, 3], [2], [4]])
        b = Partition(4, [[4], [2], [3, 1]])
        assert a == b and hash(a) == hash(b)
        assert a != Partition(4, [[1, 2], [3], [4]])

    def test_extremes(self):
        assert Partition.full(4).size() == 1
        assert Partition.singletons(4).size() == 4
        assert Partition.full(0).blocks == ()

    def test_immutability(self):
        p = Partition.full(3)
        with pytest.raises(AttributeError):
            p.m = 5


class TestEnumeration:
    def test_m0_and_m1(self):
        assert len(enumerate_nc(0)) == 1
        assert enumerate_nc(0)[0] == Partition(0, [])
        assert enumerate_nc(1) == [Partition(1, [[1]])]

    @pytest.mark.parametrize("m,count", [(4, 14), (6, 132)])
    def test_counts_match_filtered_full_enumeration(self, m, count):
        full = [p for p in enumerate_all(m) if p.is_noncrossing()]
        nc = enumerate_nc(m)
        assert len(nc) == count == len(full)
        assert set(nc) == set(full)
        assert len(set(nc)) == len(nc)

    def test_counts_match_catalan_recurrence(self):
        for m in range(0, 11):
            assert len(enumerate_nc(m)) == catalan_by_recurrence(m) == catalan(m)

    def test_limit(self):
        with pytest.raises(ValueError):
            enumerate_nc(13)
        assert len(enumerate_nc(11)) == catalan(11)

    def test_count_is_the_size_of_nc(self):
        cache = MobiusCache()
        for m in range(0, 11):
            assert cache.count(m) == len(enumerate_nc(m)) == len(cache.nc(m))

    def test_the_count_section_builds_no_partition_above_the_order_size(self):
        cache, config = MobiusCache(), suites.merge_config({})
        [report] = suites.nc_count_checks(config, cache)
        assert report.passed and len(report.params["counts"]) == config["nc"]["m_max"] + 1
        assert config["nc"]["m_max"] > ORDER_M_MAX
        assert all(m <= ORDER_M_MAX for m in cache._nc)

    def test_cached_all_partitions(self):
        cache = MobiusCache()
        for m in range(0, 6):
            assert cache.all(m) == tuple(enumerate_all(m))
            assert cache.all(m) is cache.all(m)


class TestNoncrossing:
    def test_minimal_crossing(self):
        assert not Partition(4, [[1, 3], [2, 4]]).is_noncrossing()

    def test_nested_pairing(self):
        assert Partition(4, [[1, 4], [2, 3]]).is_noncrossing()

    def test_scan_agrees_with_recursive_peeling(self):
        for m in range(0, 7):
            for p in enumerate_all(m):
                assert p.is_noncrossing() == noncrossing_by_peeling(p)


class TestOrder:
    def test_extremes(self):
        for q in enumerate_nc(4):
            assert leq(Partition.singletons(4), q)
            assert leq(q, Partition.full(4))

    def test_incomparable(self):
        assert not leq(Partition(3, [[1, 2], [3]]), Partition(3, [[1, 3], [2]]))

    def test_ground_set_mismatch(self):
        with pytest.raises(GroundSetError):
            leq(Partition.full(3), Partition.full(4))

    def test_partial_order_axioms_m5(self):
        elems = enumerate_nc(5)
        below = {p: {q for q in elems if leq(q, p)} for p in elems}
        for p in elems:
            assert p in below[p]
        for p in elems:
            for q in below[p]:
                if p in below[q]:
                    assert p == q
        for p in elems:
            for q in below[p]:
                assert below[q] <= below[p]  # transitivity


class TestMeet:
    def test_with_top(self):
        for p in enumerate_nc(4):
            assert meet(p, Partition.full(4)) == p

    def test_simple(self):
        assert meet(Partition(3, [[1, 2, 3]]), Partition(3, [[1, 2], [3]])) == Partition(
            3, [[1, 2], [3]]
        )

    def test_is_greatest_lower_bound_nc5(self):
        elems = enumerate_nc(5)
        for p in elems:
            for q in elems:
                m = meet(p, q)
                assert leq(m, p) and leq(m, q)
                lower = [r for r in elems if leq(r, p) and leq(r, q)]
                assert all(leq(r, m) for r in lower)

    def test_nc_closed_m6(self):
        elems = enumerate_nc(6)
        for p in elems:
            for q in elems:
                assert meet(p, q).is_noncrossing()


class TestKernel:
    def test_examples(self):
        assert kernel((1, 2, 1)) == Partition(3, [[1, 3], [2]])
        assert kernel((7, 7, 7)) == Partition.full(3)
        assert kernel((1, 2, 3, 4)) == Partition.singletons(4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            kernel(())

    def test_relabeling_invariance(self):
        rng = random.Random(7)
        for _ in range(200):
            m = rng.randint(1, 8)
            idx = [rng.randint(1, 4) for _ in range(m)]
            values = sorted(set(idx))
            target = rng.sample(range(100), len(values))
            relabel = dict(zip(values, target))
            assert kernel(idx) == kernel([relabel[i] for i in idx])

    def test_leq_kernel_characterization(self):
        # pi <= ker(i) iff positions sharing a block of pi carry equal values
        idx = (2, 5, 2, 2, 5)
        k = kernel(idx)
        for p in enumerate_nc(5):
            expected = all(
                idx[x - 1] == idx[y - 1]
                for b in p.blocks
                for x in b
                for y in b
            )
            assert leq(p, k) == expected


class TestMobius:
    def test_base_values(self):
        cache = MobiusCache()
        assert cache.mobius(Partition.singletons(1), Partition.full(1)) == 1
        assert cache.mobius(Partition.singletons(2), Partition.full(2)) == -1
        assert cache.mobius(Partition.singletons(4), Partition.full(4)) == -5

    def test_order_error(self):
        with pytest.raises(OrderError):
            MobiusCache().mobius(Partition.full(3), Partition.singletons(3))

    def test_defining_identity_up_to_m6(self):
        cache = MobiusCache()
        for m in range(0, 7):
            elems = cache.nc(m)
            for p in elems:
                below_p = cache.below(p)
                for s in below_p:
                    total = sum(
                        cache.mobius(s, rho) for rho in below_p if leq(s, rho)
                    )
                    assert total == (1 if s == p else 0)

    def test_against_zeta_inversion_small(self):
        cache = MobiusCache()
        for m in range(1, 6):
            table = zeta_inverse_table(m, cache)
            for (s, p), value in table.items():
                assert value == cache.mobius(s, p)
                assert type(value) is int  # unit pivots: no Fraction arithmetic

    def test_zero_one_column_oracle_up_to_m7(self):
        cache = MobiusCache()
        for m in range(1, 8):
            column = mobius_column_oracle(m, cache)
            bottom = Partition.singletons(m)
            top = Partition.full(m)
            assert column[bottom] == cache.mobius(bottom, top)
            # classical sign pattern for the full interval
            assert column[bottom] == (-1) ** (m - 1) * catalan(m - 1)


class TestNoModuleState:
    def test_no_module_holds_a_cache_at_import(self):
        import importlib
        import pkgutil

        import qspread

        for info in pkgutil.iter_modules(qspread.__path__):
            module = importlib.import_module(f"qspread.{info.name}")
            assert not any(isinstance(v, MobiusCache) for v in vars(module).values()), info.name
        assert default_cache() is not default_cache()

    def test_calls_without_a_cache_leave_nothing_behind(self):
        # the oracle sweep is the one function that builds its own cache
        reports = [weingarten.oracle_equivalence_sweep(2, 2, 2).to_json_dict(),
                   weingarten.oracle_equivalence_sweep(2, 2, 2, MobiusCache()).to_json_dict()]
        for report in reports:
            report.pop("runtime_ms")
        assert reports[0] == reports[1]
        assert default_cache()._mu == {}


CONTEXT_PARAMETERS = (
    [(f, ("tolerance",)) for f in (invariance.check_exchangeable, invariance.check_spreadable,
                                   invariance.check_bvalued_spreadable)]
    + [(f, ("cache",)) for f in (moments.free_iid_moment, moments.FreeSequence,
                                 mobius_column_oracle, zeta_inverse_table,
                                 weingarten.block_state_moment, weingarten.free_projection_oracle,
                                 weingarten.reconstruction_weight,
                                 weingarten.finite_n_reconstruction,
                                 weingarten.combinatorial_unit_identity, suites.run_section)]
    + [(invariance.check_kernel_sums, ("tolerance", "cache")),
       (moments.moment_cumulant_roundtrip, ("tolerance", "cache")),
       (moments.partition_cumulant, ("cache", "moments")),
       (weingarten.state_positivity_evidence, ("max_len", "tolerance", "cache"))]
)


class TestCallersOwnTheContext:
    """Every function reads the MobiusCache and the tolerance its caller
    passes: none of them has a default to fall back on."""

    @pytest.mark.parametrize("function, names", CONTEXT_PARAMETERS,
                             ids=[function.__name__ for function, _ in CONTEXT_PARAMETERS])
    def test_context_parameters_have_no_default(self, function, names):
        parameters = inspect.signature(function).parameters
        for name in names:
            assert parameters[name].default is inspect.Parameter.empty, name

    def test_the_oracle_sweep_alone_builds_its_own_cache(self):
        # the benchmark harness calls it without a cache, and with one as its
        # fourth positional argument
        cache = list(inspect.signature(weingarten.oracle_equivalence_sweep).parameters.values())[3]
        assert (cache.name, cache.default) == ("cache", None)
