"""The canonical state on banded projection families, and the exact
finite-size reconstruction identity it induces.

For a rectangular family with k columns and k*n rows, stack one projection-
valued partition of unity per column into disjoint row bands and take the
columns to be freely independent, each projection carrying weight 1/n.  The
induced state has an exact closed form: a double sum over non-crossing
partitions weighted by Mobius values and powers of 1/n.  A query is a word
``(rows, cols, n)``: its r-th letter is the projection in row rows[r] of
column cols[r], where column j occupies rows (j-1)n+1..jn.

Two independent routes to the same numbers live here.  ``block_state_moment``
evaluates the closed form; ``free_projection_oracle`` never sees that formula
and instead combines (a) the collapse of same-column products with (b) the
moment-cumulant recursion restricted below the column kernel, which is how
freeness determines mixed moments.  Their exact agreement is an acceptance
gate.

Everything here is exact; no floating point enters except in the positivity
evidence, where eigenvalues of a Gram matrix are examined.  Each route sums
integers and divides by n^m once: a closed-form term 1/n^{|sigma|} has
|sigma| <= m, and an oracle term is a product of block cumulants whose block
sizes add up to m, each cumulant times n^{size} being an integer.  Memos live
in the ``MobiusCache`` passed in, keyed by RGS.  The reconstruction and its
unit identity sum over the kernels of the band tuples, not the tuples.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .moments import Word
from .partitions import (
    MobiusCache,
    OrderError,
    Partition,
    default_cache,
    kernel,
    kernel_rgs,
    leq,
    meet,
)
from .reports import CheckReport, ResidualTracker, budget, require_within

# Work budget of the positivity Gram matrix side: 341 at the defaults k = n = 2
# with the largest max_len, 19 s; the next max_len (1,365) exceeded 120 s.
GRAM_SIZE_CAP = 341


def _band_offsets(rows: tuple, cols: tuple, n: int) -> tuple | None:
    """The within-band indices l - (j - 1) n of a query, or None when a row l
    leaves the band (j - 1) n < l <= j n of its column j."""
    offsets = tuple(l - (j - 1) * n for l, j in zip(rows, cols, strict=True))
    return offsets if all(0 < i <= n for i in offsets) else None


def block_state_moment(rows: tuple, cols: tuple, n: int, cache: MobiusCache) -> Fraction:
    """Closed-form moment of the state: zero off the bands, otherwise the
    Mobius-weighted double sum over non-crossing partitions."""
    offsets = _band_offsets(rows, cols, n)
    if offsets is None:
        return Fraction(0)
    return reconstruction_weight(cols, offsets, n, cache)


def _column_cumulant(labels: tuple[int, ...], n: int, cache: MobiusCache) -> int:
    """n^s times the free cumulant of s projections of one column, labelled
    by the RGS ``labels``, from their moments alone: the moment of a product
    is 1/n when all labels agree and 0 otherwise.  The cumulant is the sum of
    mu(sigma, 1_s) / n^{|sigma|} over non-crossing sigma <= ker(labels)."""
    key = (labels, n)
    hit = cache._column_memo.get(key)
    if hit is None:
        s = len(labels)
        hit = cache._column_memo[key] = sum(
            cache.mobius(sigma, Partition.full(s)) * n ** (s - sigma.size())
            for sigma in cache.below(kernel(labels))
        )
    return hit


def free_projection_oracle(rows: tuple, cols: tuple, n: int, cache: MobiusCache) -> Fraction:
    """The same moment computed without the closed formula.

    Freeness of the columns says the moment is the sum, over non-crossing
    partitions lying below the column kernel, of the product of one free
    cumulant per block; each block cumulant is recovered from same-column
    moments by Mobius inversion.  Exact rational output; a query off the
    bands raises ValueError.
    """
    offsets = _band_offsets(rows, cols, n)
    if offsets is None:
        raise ValueError("query leaves the column bands")
    total = 0
    for pi in cache.below(kernel(cols)):
        term = 1
        for block in pi.blocks:
            term *= _column_cumulant(kernel_rgs(offsets[x - 1] for x in block), n, cache)
            if not term:
                break
        total += term
    return Fraction(total, n ** len(cols))


def reconstruction_weight(
    cols: tuple[int, ...], band: tuple[int, ...], n: int, cache: MobiusCache
) -> Fraction:
    """Coefficient attached to one replacement tuple when the state is applied
    to the invariance equation: the sum over non-crossing pi <= ker(cols) and
    non-crossing sigma <= pi meet ker(band) of mu(sigma, pi) / n^{|sigma|}.

    Summed as the integer numerator of mu(sigma, pi) n^{m - |sigma|} over
    n^m, and memoized in the cache per pair of kernel RGS."""
    if len(cols) != len(band):
        raise ValueError("tuples must have equal length")
    col_kernel, band_kernel = kernel(cols), kernel(band)
    key = (col_kernel.rgs, band_kernel.rgs, n)
    hit = cache._weight_memo.get(key)
    if hit is None:
        m = len(cols)
        numerator = sum(
            cache.mobius(sigma, pi) * n ** (m - sigma.size())
            for pi in cache.below(col_kernel)
            for sigma in cache.below(meet(pi, band_kernel))
        )
        hit = cache._weight_memo[key] = Fraction(numerator, n ** m)
    return hit


def _band_weights(cols: tuple[int, ...], tau: Partition, n: int, cache: MobiusCache):
    """(band, weight) per kernel rho, with at most n blocks, of the assignments
    of {1..n} to the blocks of tau: the band assigning rho's RGS from 1, and its
    reconstruction weight times the n (n-1) ... (n-|rho|+1) bands of kernel rho."""
    for rho in cache.all(tau.size()):
        count = math.perm(n, rho.size())
        if count:
            band = tuple(rho.rgs[label] + 1 for label in tau.rgs)
            yield band, count * reconstruction_weight(cols, band, n, cache)


def finite_n_reconstruction(seq, word: Word, n: int, cache: MobiusCache):
    """Average the joint moments of the sequence model ``seq`` over all band
    replacements, weighted by reconstruction_weight.

    For a quantum-spreadable model this gives back the original moment exactly
    at every finite n.  Exact kernel-invariant models only: the weight and the
    moment of the shifted word (kernel ker(cols) meet ker(band)) depend on a
    band only through its kernel, so the sum runs over ``_band_weights``.
    """
    if not seq.exact:
        raise ValueError("reconstruction check runs on the exact backend only")
    if not seq.kernel_invariant:
        raise ValueError("reconstruction needs a kernel-invariant sequence model")
    if n < 1:
        raise ValueError("n must be >= 1")
    cols, total = word.indices, 0
    for band, weight in _band_weights(cols, Partition.singletons(word.length), n, cache):
        if weight:
            shifted = tuple((j - 1) * n + i for j, i in zip(cols, band))
            total = total + seq.moment(word.with_indices(shifted)) * weight
    return total


def combinatorial_unit_identity(
    tau: Partition, cols: tuple[int, ...], n: int, cache: MobiusCache
) -> Fraction:
    """Sum of reconstruction weights over band tuples refined by ``tau``.

    This is the scalar identity that makes the reconstruction exact; the
    contract is that it always equals 1 on its domain (tau non-crossing and
    below the kernel of the columns).  A band tuple assigns one value in
    {1..n} to each block of tau; the sum runs over their kernels.
    """
    if not tau.is_noncrossing():
        raise OrderError(f"{tau!r} is crossing")
    if not leq(tau, kernel(cols)):
        raise OrderError(f"{tau!r} is not below the kernel of {cols}")
    return sum((weight for _, weight in _band_weights(cols, tau, n, cache)), Fraction(0))


def oracle_equivalence_sweep(
    k_max: int, n_max: int, m_max: int, cache: MobiusCache | None = None,
    seed: int | None = None,
) -> CheckReport:
    """Exact agreement of the closed form with the freeness oracle on every
    in-band query with k <= k_max, n <= n_max, m <= m_max, plus the off-band
    zero pattern on small sizes, each size within its ``psi`` budget."""
    require_within("oracle_equivalence_sweep", {"k_max": k_max, "n_max": n_max, "m_max": m_max},
                   {key: budget(f"psi.{key}") for key in ("k_max", "n_max", "m_max")})
    cache = cache or default_cache()
    tracker = ResidualTracker(
        "state_oracle_equivalence",
        0,
        params={"k_max": k_max, "n_max": n_max, "m_max": m_max},
        seed=seed,
    )
    for k in range(1, k_max + 1):
        for n in range(1, n_max + 1):
            for m in range(1, m_max + 1):
                for cols in itertools.product(range(1, k + 1), repeat=m):
                    bands = [range((j - 1) * n + 1, j * n + 1) for j in cols]
                    for rows in itertools.product(*bands):
                        psi = block_state_moment(rows, cols, n, cache)
                        oracle = free_projection_oracle(rows, cols, n, cache)
                        tracker.add(("query", k, n, rows, cols),
                                    0 if psi == oracle else abs(psi - oracle))
    for k in range(1, min(k_max, 3) + 1):
        for n in range(1, min(n_max, 3) + 1):
            for m in range(1, min(m_max, 2) + 1):
                for cols in itertools.product(range(1, k + 1), repeat=m):
                    for rows in itertools.product(range(1, k * n + 1), repeat=m):
                        if _band_offsets(rows, cols, n) is None:
                            tracker.add(("off-band", k, n, rows, cols),
                                        abs(block_state_moment(rows, cols, n, cache)))
    return tracker.report()


def gram_size(k: int, n: int, max_len: int) -> int:
    """Side of the positivity check's Gram matrix: the number of words of
    length 0..max_len over k*n letters."""
    return sum((k * n) ** length for length in range(max_len + 1))


def state_positivity_evidence(
    k: int, n: int, max_len: int, tolerance: float, cache: MobiusCache,
    seed: int | None = None,
) -> CheckReport:
    """Positive-semidefiniteness of the Gram matrix [psi(w* w')] over all
    in-band words up to max_len.

    Numerical evidence that the functional is a state, not a proof; reports
    carry an explicit evidence flag.  Sizes stay within their work budgets.
    """
    require_within("state_positivity_evidence",
                   {"max_len": max_len, "gram_size": gram_size(k, n, max_len)},
                   {"max_len": budget("positivity.max_len"), "gram_size": GRAM_SIZE_CAP})
    letters = [
        ((j - 1) * n + i, j) for j in range(1, k + 1) for i in range(1, n + 1)
    ]
    words: list[tuple] = [()]
    for length in range(1, max_len + 1):
        words.extend(itertools.product(letters, repeat=length))

    def psi(word: tuple) -> Fraction:
        if not word:
            return Fraction(1)
        rows = tuple(l for l, _ in word)
        cols = tuple(j for _, j in word)
        return block_state_moment(rows, cols, n, cache)

    size = len(words)
    gram = np.zeros((size, size), dtype=float)
    for a, wa in enumerate(words):
        for b, wb in enumerate(words[:a + 1]):
            # adjoint of a word of projections reverses the order; eigvalsh
            # reads only the lower triangle
            gram[a, b] = float(psi(tuple(reversed(wa)) + wb))
    smallest = float(np.linalg.eigvalsh(gram)[0])
    tracker = ResidualTracker(
        "state_positivity_evidence",
        tolerance,
        params={"k": k, "n": n, "max_len": max_len, "gram_size": size,
                "evidence_only": True, "min_eigenvalue": smallest},
        seed=seed,
    )
    tracker.add(("min-eigenvalue",), max(0.0, -smallest))
    return tracker.report()
