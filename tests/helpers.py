"""Helpers that only the tests need: the inverse of ``qis.rep_from_json`` and
the composition of permutations that a convolution of permutation families
stands for."""
from __future__ import annotations

import json

from qspread.qis import Representation


def rep_to_json_dict(rep: Representation) -> dict:
    """The representation document (docs/representation.schema.json) of ``rep``."""
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
