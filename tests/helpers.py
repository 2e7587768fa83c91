"""Helpers that only the tests need: the inverse of ``cli.rep_from_json``,
the convolution of two permutation-kind families (the executable
comultiplication) and the composition of permutations that it stands for."""
from __future__ import annotations

import json

import numpy as np

from qspread.qis import Representation


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
