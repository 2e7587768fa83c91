"""Magic unitary verification and constructions on concrete representations.

A magic unitary is a square matrix of projections whose rows and columns each
sum to the identity; in-row and in-column orthogonality then follows.  The
counit of the underlying quantum symmetry corresponds to the identity
permutation representation; its comultiplication, the convolution
w_{ij} = sum_k u_{ik} (x) v_{kj} of two concrete families, is a test helper
(``tests/helpers.py``).
"""
from __future__ import annotations

import itertools

import numpy as np

from .qis import Representation, _relations_report
from .reports import CheckReport, require_within

# Work budget of check_magic_unitary (O(n^3) products, the zero ones not formed):
# the identity permutation at n = 128 checks in 2.2-2.4 s (2-vCPU host).
MAGIC_CAPS = {"n": 128}


def permutation_rep(perm: tuple[int, ...]) -> Representation:
    """Exact 1x1 representation of a classical permutation: entries are the
    indicators [i == perm[j]] (perm given as the tuple of images of 1..n)."""
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"{perm!r} is not a permutation of 1..{n}")
    gens = {
        (i, j): np.array([[int(perm[j - 1] == i)]], dtype=object)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    }
    return Representation(kind="permutation", k=n, n=n, gens=gens, dim=1)


def two_point_rep(p: np.ndarray) -> Representation:
    """The square n=2 family (p, 1-p / 1-p, p) built from one projection."""
    one = np.eye(p.shape[0], dtype=complex)
    gens = {(1, 1): p, (2, 2): p, (1, 2): one - p, (2, 1): one - p}
    return Representation(kind="permutation", k=2, n=2, gens=gens, dim=p.shape[0])


def check_magic_unitary(
    rep: Representation, tolerance: float | None = None, seed: int | None = None
) -> CheckReport:
    """Residuals of the magic unitary conditions.

    Defining: every entry a self-adjoint idempotent, row sums and column sums
    equal to 1.  The in-row/in-column orthogonality u_{ik} u_{il} = 0 (k != l)
    is a consequence of those; it is checked as well and reported separately
    under "derived_residual".  The size stays within MAGIC_CAPS.
    """
    if rep.kind != "permutation":
        raise ValueError("expected a permutation-kind representation")
    require_within("check_magic_unitary", {"n": rep.n}, MAGIC_CAPS)
    span = range(1, rep.n + 1)
    sums = []
    for i in span:
        sums += [(("row-sum", i), [(i, t) for t in span]),
                 (("column-sum", i), [(t, i) for t in span])]

    def products():
        for i, a, b in itertools.product(span, repeat=3):
            if a != b:
                yield ("row-orthogonality", i, a, b), ((i, a), (i, b)), False
                yield ("column-orthogonality", a, b, i), ((a, i), (b, i)), False

    return _relations_report(rep, "magic_unitary", tolerance, seed, {"n": rep.n, "dim": rep.dim},
                             [(itertools.product(span, span), sums)], products())
