"""Executable invariance conditions for sequences of noncommutative variables.

A sequence model supplies joint moments; a representation supplies a concrete
family of projections.  Exchangeability (square families), spreadability
(rectangular families) and their operator-valued form are one equation: for
every word with target labels j_1..j_m,

    sum over i in [n]^m of  f(i) (x) u_{i_1 j_1} ... u_{i_m j_m}  =  f(j) (x) 1,

with f the scalar moment and (x) the product by a scalar (B = C), or f the
B-valued moment and (x) the Kronecker product.  One engine, ``_lhs``, forms
the left-hand side.  When f depends only on the kernel of i it sums over the
kernels sigma instead of the tuples, g(sigma) (x) S(sigma): g is the Mobius
inversion of f over the partition lattice and S(sigma) the kernel-constrained
generator sum, which must collapse to 0 or 1 (the content of the
free-implies-invariant direction).  For a non-crossing sigma, S is one fold
over its nesting tree, ``_stack``: an interval's sum is the product of its
outer blocks' sums, and a block sums its generator product over every row,
with its gaps already folded.  Each position carries one target column or
all of them, so one fold gives the engine S at a word's targets (one matrix)
and ``check_kernel_sums`` S at every target tuple at once (a stack).  A
crossing sigma is enumerated over its row assignments.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter

import numpy as np

from .linalg import residual_norm, residual_norms
from .moments import Word
from .partitions import MobiusCache, Partition, enumerate_all, leq, nesting_plan
from .qis import (
    DEFAULT_REP_TOLERANCE, Representation, check_increasing_relations, enumerate_increasing,
)
from .qperm import check_magic_unitary
from .reports import CheckReport, ResidualTracker, budget, require_within


def _require_valid(rep: Representation, tolerance: float) -> None:
    check = check_magic_unitary if rep.kind == "permutation" else check_increasing_relations
    report = check(rep, tolerance=max(tolerance, DEFAULT_REP_TOLERANCE))
    if not report.passed:
        raise ValueError(
            f"representation fails its defining relations: residual {report.max_residual}"
        )


def _column_rows(rep: Representation) -> list[dict]:
    """rows[v - 1] maps each column j to u_{vj}: the rows that ``_stack``
    reads at single target columns."""
    return [{j: rep.gen(v, j) for j in range(1, rep.k + 1)} for v in range(1, rep.n + 1)]


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_s @ b_t at every pair (s, t), s major: for stacks over consecutive
    target spans, the stack over the joined span, in lexicographic order."""
    return (a[:, None] @ b[None, :]).reshape(-1, *a.shape[1:])


def _stack(rows: list, plan: tuple, cols: tuple, memo: dict) -> np.ndarray:
    """The kernel-constrained sum over the positions of a non-empty ``plan``
    at every target tuple ``cols`` admits, in lexicographic order, as one
    stack.  cols[p - 1] is one column j or the tuple of all k columns, and
    rows[v - 1] maps it to the matrix u_{vj} (so the stack is one matrix) or
    to the (k, d, d) stack of u_{vj} there.  Positions in different blocks
    take independent values, so an outer block's stack is the sum over the
    rows v, in order, of the products (``_outer`` for stacks) of rows[v - 1]
    at its positions and its gap stacks, in word order, and outer blocks
    multiply likewise.  ``memo`` keeps a block's stack under the partition's
    shape and ``cols`` over its span, for one ``rows``."""
    stacks, product = [], _outer if isinstance(cols[0], tuple) else operator.matmul
    for block, word, shape in plan:
        key = (shape, cols[block[0] - 1:block[-1]])
        if key not in memo:
            gaps = [_stack(rows, x, cols, memo) if isinstance(x, tuple) else None for x in word]
            memo[key] = functools.reduce(operator.add, (
                functools.reduce(product, [row[cols[x - 1]] if gap is None else gap
                                           for x, gap in zip(word, gaps)])
                for row in rows))
        stacks.append(memo[key])
    return functools.reduce(product, stacks)


def kernel_constrained_sum(
    rep: Representation, part: Partition, targets: tuple[int, ...]
) -> np.ndarray:
    """Sum of u_{i_1 j_1} ... u_{i_m j_m} over tuples i whose kernel refines
    through ``part`` (positions in one block take equal values).

    Contract: the result is the identity when part <= ker(targets) and zero
    otherwise.  ``part`` must be non-crossing, and a crossing one raises
    ValueError: the sum is folded along the nesting tree of ``part``, with
    O(n m) matrix products instead of n^|blocks| terms.
    """
    if not targets or len(targets) != part.m:
        raise ValueError("need a non-empty target tuple of the partition's size")
    if any(not 1 <= j <= rep.k for j in targets):
        raise ValueError(f"targets {targets} exceed the {rep.k} columns of the family")
    # copied: for n = 1 a one-position sum is the representation's own generator
    return _stack(_column_rows(rep), nesting_plan(part), tuple(targets), {}).copy()


def check_kernel_sums(
    rep: Representation,
    max_len: int,
    tolerance: float,
    cache: MobiusCache,
    seed: int | None = None,
) -> CheckReport:
    """Sweep the kernel-constrained sums over all non-crossing partitions and
    all target tuples of length up to ``max_len``, within their work budgets.
    Each partition is one ``_stack`` with all k columns at every position, a
    stack over [k]^m, against the identity where the targets are constant on
    its blocks and zero elsewhere, with the residuals of ``residual_norms``.
    The witnesses of [k]^m and, per partition, its blocks, that mask and its
    nesting plan are built once per (k, m) on ``cache``, and only read after."""
    require_within("check_kernel_sums", {"k": rep.k, "max_len": max_len}, {
        "k": budget("kernel_sums.n_max"), "max_len": budget("kernel_sums.quantum_m_max")})
    _require_valid(rep, tolerance)
    params = {"kind": rep.kind, "k": rep.k, "n": rep.n, "max_len": max_len}
    tracker = ResidualTracker("kernel_constrained_sums", tolerance, params=params,
                              seed=seed if seed is not None else rep.seed)
    one, zero = rep.unit(), rep.zero()
    every = tuple(range(1, rep.k + 1))
    rows = [{every: np.array([rep.gen(v, j) for j in every])} for v in range(1, rep.n + 1)]
    memo: dict = {}  # block stacks; valid for this representation only
    tables = cache._kernel_sum_tables
    for m in range(1, max_len + 1):
        if (rep.k, m) not in tables:
            tuples = np.array(list(itertools.product(every, repeat=m)))
            tables[rep.k, m] = (tuples.tolist(), [
                ([list(b) for b in part.blocks],
                 np.all([tuples[:, p - 1] == tuples[:, b[0] - 1]
                         for b in part.blocks for p in b], axis=0)[:, None, None],
                 nesting_plan(part))
                for part in cache.nc(m)])
        witnesses, entries = tables[rep.k, m]
        for blocks, within, plan in entries:
            residuals = residual_norms(_stack(rows, plan, (every,) * m, memo)
                                       - np.where(within, one, zero))
            for targets, residual in zip(witnesses, residuals):
                tracker.add(("kernel-sum", blocks, targets), residual)
    return tracker.report()


def _mobius_p(pi: Partition, sigma: Partition) -> int:
    """mu(pi, sigma) on the lattice P(m) of all partitions, for pi <= sigma:
    the product over the blocks of sigma of (-1)^(k-1) (k-1)!, with k the
    number of blocks of pi inside it (Rota 1964)."""
    pieces = Counter(s for s, _ in set(zip(sigma.rgs, pi.rgs)))
    return math.prod((-1) ** (k - 1) * math.factorial(k - 1) for k in pieces.values())


def _kernel_classes(m: int, n: int) -> list:
    """The kernels of the tuples in [n]^m, which are the partitions sigma of
    {1..m} with at most n blocks, each as (sigma, its RGS counted from 1,
    the pairs (position of pi, mu_P(pi, sigma)) for the pi <= sigma among
    them, the nesting plan of sigma or None when it crosses)."""
    parts = [p for p in enumerate_all(m) if p.size() <= n]
    return [(sigma, tuple(r + 1 for r in sigma.rgs),
             [(a, _mobius_p(pi, sigma)) for a, pi in enumerate(parts) if leq(pi, sigma)],
             nesting_plan(sigma) if sigma.is_noncrossing() else None)
            for sigma in parts]


def _products(rep: Representation, part: Partition, targets):
    """(rows, u_{rows_1 j_1} ... u_{rows_m j_m}) for every row tuple that is
    constant on each block of ``part``, in lexicographic order."""
    for assignment in itertools.product(range(1, rep.n + 1), repeat=part.size()):
        rows = tuple(assignment[label] for label in part.rgs)
        yield rows, functools.reduce(operator.matmul, map(rep.gen, rows, targets))


def _lhs(seq, rep: Representation, word: Word, value, combine, memo: dict):
    """The left-hand side of the invariance equation: the sum over i in [n]^m
    of combine(value(word at i), u_{i_1 j_1} ... u_{i_m j_m}), the int 0
    when every kernel class has g exactly zero.

    When ``seq`` is kernel-invariant, f(i) = value(word at i) depends only on
    ker(i), and the sum runs over the kernel classes sigma instead, as
    combine(g(sigma), S(sigma)): g(sigma) sums mu_P(pi, sigma) f(pi) over the
    classes pi <= sigma, and S(sigma) is the kernel-constrained sum, the
    matrix of ``_stack`` at the word's targets when sigma is non-crossing
    and enumerated over its n^|sigma| row assignments when it crosses.
    Classes with g exactly zero are skipped.  g does not depend on the
    targets, so ``memo`` keeps it per powers and inserts (the check holds its
    words, so the id of their inserts stays theirs), beside the kernel
    classes per length, and the ``_stack`` memo and its column rows.
    """
    targets, m = word.indices, word.length
    if not seq.kernel_invariant:
        return sum(combine(value(word.with_indices(rows)), product) for rows, product
                   in _products(rep, Partition.singletons(m), targets))
    key = (word.powers, id(word.inserts))
    if key not in memo["g"]:
        if m not in memo["classes"]:
            memo["classes"][m] = _kernel_classes(m, rep.n)
        f = [value(word.with_indices(tup)) for _, tup, _, _ in memo["classes"][m]]
        memo["g"][key] = [
            (sigma, plan, g) for sigma, _, terms, plan in memo["classes"][m]
            if np.any(g := sum(mu * f[a] for a, mu in terms))
        ]
    return sum(combine(g, _stack(memo["rows"], plan, targets, memo["stack"]) if plan
                       else sum(p for _, p in _products(rep, sigma, targets)))
               for sigma, plan, g in memo["g"][key])


def _check(name: str, kind: str, seq, rep: Representation, words, tolerance, seed,
           value, combine, residual) -> ResidualTracker:
    """The one invariance check: for each word, the residual of
    lhs - combine(value(word), 1), one tracker case per word."""
    if rep.kind != kind:
        what = "exchangeability" if kind == "permutation" else "spreadability"
        raise ValueError(f"{what} needs a representation of kind '{kind}'")
    _require_valid(rep, tolerance)
    words = list(words)
    params = {"n": rep.n, "dim": rep.dim, "words": len(words)}
    if kind == "increasing":
        params["k"] = rep.k
    tracker = ResidualTracker(name, tolerance, params=params,
                              seed=seed if seed is not None else rep.seed)
    one = rep.unit()
    memo: dict = {"g": {}, "classes": {}, "stack": {}, "rows": _column_rows(rep)}
    for word in words:
        if max(word.indices) > rep.k:
            raise ValueError(f"word targets {word.indices} exceed the {rep.k} "
                             "columns of the family")
        lhs = _lhs(seq, rep, word, value, combine, memo)
        rhs = combine(value(word), one)
        tracker.add(("word", list(word.indices), list(word.powers)),
                    residual(lhs - rhs))
    return tracker


def check_exchangeable(seq, rep: Representation, words, tolerance: float,
                       seed: int | None = None) -> CheckReport:
    """Invariance of the scalar joint distribution under a square family."""
    return _check("quantum_exchangeable", "permutation", seq, rep, words, tolerance, seed,
                  seq.phi_moment, operator.mul, residual_norm).report()


def check_spreadable(seq, rep: Representation, words, tolerance: float,
                     seed: int | None = None) -> CheckReport:
    """Invariance under a rectangular family, plus its classical shadow.

    The classical part substitutes every increasing relabeling of the targets
    and demands equal moments; for kernel-invariant models this holds
    identically, so any nonzero residual there is a real failure.
    """
    words = list(words)
    tracker = _check("quantum_spreadable", "increasing", seq, rep, words, tolerance, seed,
                     seq.phi_moment, operator.mul, residual_norm)
    for l in enumerate_increasing(rep.k, rep.n):
        for word in words:
            relabeled = word.with_indices(tuple(l.values[j - 1] for j in word.indices))
            gap = seq.phi_moment(relabeled) - seq.phi_moment(word)
            tracker.add(("classical-point", list(l.values), list(word.indices)), abs(gap))
    return tracker.report()


def check_bvalued_spreadable(seq, rep: Representation, words, tolerance: float,
                             seed: int | None = None) -> CheckReport:
    """Operator-valued spreadability: both sides live in B tensor M_dim and
    carry the word's inserts inside the expectations."""
    return _check("bvalued_spreadable", "increasing", seq, rep, words, tolerance, seed,
                  seq.moment, np.kron, lambda a: max(abs(x) for x in a.flat)).report()


def suite_words(law, max_targets: int, max_len: int):
    """All plain words with indices in [1..max_targets] up to length max_len,
    plus a leading-square power variant of each length.

    Words of equal length share one tuple of ``law.unit()`` (a law or a model),
    so models memoizing by (kernel, powers, inserts) reuse values across them.
    """
    words = []
    for m in range(1, max_len + 1):
        inserts = tuple(law.unit() for _ in range(m + 1))
        for idx in itertools.product(range(1, max_targets + 1), repeat=m):
            words.append(Word(idx, inserts, (1,) * m))
        for idx in itertools.product(range(1, max_targets + 1), repeat=m):
            words.append(Word(idx, inserts, (2,) + (1,) * (m - 1)))
    return words


def spot_words(law, max_targets: int, length: int, seed: int):
    """Seeded random plain words of one fixed length, for float spot checks
    beyond the exhaustive suite range."""
    rng = np.random.default_rng(seed)
    inserts = tuple(law.unit() for _ in range(length + 1))
    words = []
    for _ in range(6):
        idx = tuple(int(v) for v in rng.integers(1, max_targets + 1, size=length))
        words.append(Word(idx, inserts, (1,) * length))
    return words


def random_insert_words(law, max_targets: int, max_len: int, seed: int):
    """Seeded words with random B-element inserts, for the operator-valued
    checks."""
    rng = np.random.default_rng(seed)
    words = []
    for m in range(1, max_len + 1):
        tuples = list(itertools.product(range(1, max_targets + 1), repeat=m))
        for _ in range(min(4, len(tuples))):
            idx = tuples[int(rng.integers(len(tuples)))]
            inserts = tuple(law.random_element(rng) for _ in range(m + 1))
            words.append(Word(idx, inserts, (1,) * m))
    return words
