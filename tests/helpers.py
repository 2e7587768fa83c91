"""Helpers that only the tests need: the inverse of ``cli.rep_from_json``,
the convolution of two permutation-kind families (the executable
comultiplication), the composition of permutations that it stands for, and
four differential oracles.  ``_fold``, the kernel-constrained sum at one
target tuple, skips the rows where a generator is exactly zero on the exact
backend only: the oracle of ``invariance._stack``.
``every_product_relations_report`` forms every product of a relation check,
on both backends: the oracle of ``qis._relations_report``, which skips the
products with a zero factor.  ``_extend_nc_strings`` builds the RGS strings
of NC(m) as tuples, one label at a time: the oracle of the byte-string
enumerator in ``partitions``.  ``enumerated_oracle_sweep`` runs both state
routes on every in-band query at every k that reaches it: the oracle of
``weingarten.oracle_equivalence_sweep``, which runs them once per distinct
query."""
from __future__ import annotations

import functools
import itertools
import json
import operator

import numpy as np

from qspread import weingarten
from qspread.linalg import dagger, is_exact, residual_norm
from qspread.qis import DEFAULT_REP_TOLERANCE, Representation
from qspread.reports import CheckReport, ResidualTracker, budget


def rep_to_json_dict(rep: Representation) -> dict:
    """The representation document (src/qspread/representation.schema.json)
    of ``rep``, with ``seed`` null when ``rep`` has none."""
    def encode(matrix) -> list:
        return [[[float(complex(x).real), float(complex(x).imag)] for x in row]
                for row in matrix.tolist()]

    return {
        "kind": rep.kind,
        "k": rep.k,
        "n": rep.n,
        "dim": rep.dim,
        "seed": rep.seed,
        "gens": {f"{i},{j}": encode(g) for (i, j), g in sorted(rep.gens.items())},
    }


def rep_to_json(rep: Representation) -> str:
    return json.dumps(rep_to_json_dict(rep), sort_keys=True)


def compose(perm_a: tuple[int, ...], perm_b: tuple[int, ...]) -> tuple[int, ...]:
    """(a o b)(j) = a(b(j)), matching the convolution of their representations."""
    return tuple(perm_a[perm_b[j - 1] - 1] for j in range(1, len(perm_b) + 1))


def convolution(rep_u: Representation, rep_v: Representation) -> Representation:
    """Tensor convolution: w_{ij} = sum_t u_{it} (x) v_{tj}.

    Produces a family of the product dimension; it satisfies the magic
    unitary conditions whenever both inputs do, which is the executable form
    of the comultiplication being well defined.
    """
    if rep_u.kind != "permutation" or rep_v.kind != "permutation":
        raise ValueError("convolution needs permutation-kind representations")
    if rep_u.n != rep_v.n:
        raise ValueError(f"size mismatch: {rep_u.n} vs {rep_v.n}")
    n = rep_u.n
    gens = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            total = None
            for t in range(1, n + 1):
                term = np.kron(rep_u.gen(i, t), rep_v.gen(t, j))
                total = term if total is None else total + term
            gens[(i, j)] = total
    return Representation(
        kind="permutation", k=n, n=n, gens=gens, dim=rep_u.dim * rep_v.dim,
        seed=rep_u.seed,
    )


def _rows_for(rep: Representation) -> dict[int, tuple[int, ...]]:
    """column j -> the rows i whose generator u_{ij} is not the exact zero
    (every row on the float backend: ``invariance._stack`` skips none, and a
    float skip could turn a -0.0 sum into +0.0)."""
    exact = is_exact(rep.gen(1, 1))
    return {
        j: tuple(i for i in range(1, rep.n + 1) if not exact or rep.gen(i, j).any())
        for j in range(1, rep.k + 1)
    }


def _fold(gens: dict, plan: tuple, targets, rows_for: dict, memo: dict):
    """The kernel-constrained sum over the positions of a non-empty ``plan``,
    or None when it vanishes identically (some block has no row where all of
    its generators are nonzero).

    Positions in different blocks take independent values, so the sum
    factors along the nesting tree: each outer block contributes
    sum_v u_{v j_1} X_1 u_{v j_2} ... X_{r-1} u_{v j_r}, where X_t is the
    already folded sum over the gap between its t-th and (t+1)-th positions.
    That block sum depends only on the shape of the partition over the
    block's span and on the targets there, so ``memo`` keeps it under that
    key; one memo serves every partition and target tuple folded with the
    same ``gens`` and ``rows_for``.
    """
    total = None
    for block, word, shape in plan:
        key = (shape, targets[block[0] - 1:block[-1]])
        if key not in memo:
            memo[key] = _block_sum(gens, block, word, targets, rows_for, memo)
        block_sum = memo[key]
        if block_sum is None:
            return None
        total = block_sum if total is None else total @ block_sum
    return total


def _block_sum(gens: dict, block, word, targets, rows_for: dict, memo: dict):
    """One outer block's term of ``_fold``, or None when it vanishes."""
    cols = [targets[p - 1] for p in block]
    rows = [v for v in rows_for[cols[0]] if all(v in rows_for[c] for c in cols[1:])]
    if not rows:
        return None
    factors = []  # a column index, or a folded gap (a matrix)
    for item in word:
        factors.append(_fold(gens, item, targets, rows_for, memo) if isinstance(item, tuple)
                       else targets[item - 1])
        if factors[-1] is None:
            return None
    return functools.reduce(operator.add, (
        functools.reduce(operator.matmul, [f if isinstance(f, np.ndarray) else gens[(v, f)]
                                           for f in factors])
        for v in rows))


def every_product_relations_report(rep: Representation, name: str, tolerance, seed,
                                   params: dict, groups, products):
    """``qis._relations_report`` with no product skipped: every product, a
    zero factor or not, goes through ``residual_norm``, with the same cases
    in the same order."""
    tracker = ResidualTracker(name, DEFAULT_REP_TOLERANCE if tolerance is None else tolerance,
                              params=params, seed=rep.seed if seed is None else seed)
    worst = {True: 0, False: 0}  # defining, derived
    for keys, sums in groups:
        for i, j in keys:
            g = rep.gen(i, j)
            r_proj = residual_norm(g @ g - g)
            r_adj = residual_norm(dagger(g) - g)
            tracker.add(("projection", i, j), r_proj)
            tracker.add(("self-adjoint", i, j), r_adj)
            worst[True] = max(worst[True], r_proj, r_adj)
        for label, terms in sums:
            r_sum = residual_norm(sum((rep.gen(*key) for key in terms), rep.zero()) - rep.unit())
            tracker.add(label, r_sum)
            worst[True] = max(worst[True], r_sum)
    for label, terms, defining in products:
        r = residual_norm(functools.reduce(operator.matmul, (rep.gen(*key) for key in terms)))
        tracker.add(label, r)
        worst[defining] = max(worst[defining], r)
    return tracker.report(extra_params={"defining_residual": float(worst[True]),
                                        "derived_residual": float(worst[False])})


def _extend_nc_strings(strings: list[list[tuple[int, ...]]], m: int) -> list:
    """Extend ``strings``, the RGS lists of NC(0), NC(1), ..., up to NC(m):
    for each choice of the mates of 1 (by number, then lexicographically),
    the product of the gaps' lists, each gap's labels shifted past the blocks
    already placed, so blocks come out by increasing minimum."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m > (limit := budget("nc.m_max")):
        raise ValueError(f"m={m} exceeds enumeration limit {limit}")
    while len(strings) <= m:
        size, out = len(strings), []
        for r in range(size):
            for mates in itertools.combinations(range(1, size), r):
                bounds = (0, *mates, size)
                gaps = [strings[b - a - 1] for a, b in zip(bounds, bounds[1:])]
                for combo in itertools.product(*gaps):
                    rgs = [0]
                    for sub in combo:  # each gap, then the mate closing it
                        top = max(rgs) + 1
                        rgs += [label + top for label in sub]
                        rgs.append(0)
                    out.append(tuple(rgs[:-1]))
        strings.append(out)
    return strings


def enumerated_oracle_sweep(k_max: int, n_max: int, m_max: int, cache,
                            seed: int | None = None) -> CheckReport:
    """``weingarten.oracle_equivalence_sweep`` with no gap reused: the closed
    form and the freeness oracle run on each in-band query at every k that
    reaches it, with the same cases in the same order.  The routes are read
    from the module, so a monkeypatched fault reaches both sweeps."""
    tracker = ResidualTracker("state_oracle_equivalence", 0,
                              params={"k_max": k_max, "n_max": n_max, "m_max": m_max},
                              seed=seed)
    for k in range(1, k_max + 1):
        for n in range(1, n_max + 1):
            for m in range(1, m_max + 1):
                for cols in itertools.product(range(1, k + 1), repeat=m):
                    bands = [range((j - 1) * n + 1, j * n + 1) for j in cols]
                    for rows in itertools.product(*bands):
                        psi = weingarten.block_state_moment(rows, cols, n, cache)
                        oracle = weingarten.free_projection_oracle(rows, cols, n, cache)
                        tracker.add(("query", k, n, rows, cols),
                                    0 if psi == oracle else abs(psi - oracle))
    for k in range(1, min(k_max, 3) + 1):
        for n in range(1, min(n_max, 3) + 1):
            for m in range(1, min(m_max, 2) + 1):
                for cols in itertools.product(range(1, k + 1), repeat=m):
                    for rows in itertools.product(range(1, k * n + 1), repeat=m):
                        if weingarten._band_offsets(rows, cols, n) is None:
                            tracker.add(("off-band", k, n, rows, cols),
                                        abs(weingarten.block_state_moment(rows, cols, n, cache)))
    return tracker.report()
