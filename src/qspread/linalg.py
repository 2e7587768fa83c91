"""Dense small-matrix helpers over complex floats or exact rationals.

Matrices are plain numpy arrays, and their dtype is the only statement of the
backend (``is_exact`` is its one test): ``complex128`` for floats, or
``dtype=object`` arrays of Python ints and ``fractions.Fraction`` (matmul,
kron, conjugation and partial traces work elementwise on them).  Units and
zeros take the dtype of the arrays beside them.  Ints embed in the rationals,
so 0/1 families, exact units and zero residuals stay ints; a Fraction appears
only where the data has a denominator.  Exact entries are scaled by
``Fraction(1, n)``, never divided with ``/`` (that gives a float).

The ambient algebra is the full (d*D) x (d*D) matrix algebra; the
distinguished subalgebra B is the d x d matrices embedded as b -> b (x) 1_D,
with the trace-preserving conditional expectation given by the normalized
partial trace over the second tensor factor.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def is_exact(a: np.ndarray) -> bool:
    """True for the rational (object-dtype) backend."""
    return a.dtype == object


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (Fraction.conjugate() is the identity, as needed)."""
    return np.conj(a).T


def residual_norm(a: np.ndarray):
    """Size of a defect matrix: spectral norm (float) or max-abs (exact).

    The spectral norm is unitarily invariant, so representation checks give
    the same residual after conjugating a family by a fixed unitary.  On the
    exact backend the value is an int or a Fraction, only ever compared
    against 0.  A zero defect, the common case, returns the int 0 or 0.0 at
    once, without an SVD (a NaN entry is truthy, so it reaches the norm).
    """
    if is_exact(a):
        return max(abs(x) for x in a.flat) if any(a.flat) else 0
    if not a.any():
        return 0.0
    return float(np.linalg.norm(np.asarray(a, dtype=complex), 2))


def residual_norms(stack: np.ndarray) -> list:
    """``residual_norm`` of each matrix of an (N, d, d) stack, by its rules,
    batched: only the nonzero defects reach the max-abs or the SVD."""
    exact, nonzero = is_exact(stack), (stack != 0).any(axis=(1, 2))
    out = np.full(len(stack), 0 if exact else 0.0, dtype=object)
    defects = stack[nonzero]
    out[nonzero] = (np.abs(defects).max(axis=(1, 2)) if exact else
                    np.linalg.svd(defects.astype(complex), compute_uv=False).max(axis=1))
    return out.tolist()


@dataclass(frozen=True)
class BAlgebra:
    """B = M_d inside the ambient M_{d*D}, with E = id (x) normalized trace;
    B works on the backend of the matrix it is given."""

    d: int
    D: int

    def __post_init__(self):
        if self.d < 1 or self.D < 1:
            raise ValueError("dimensions must be positive")

    @property
    def ambient_dim(self) -> int:
        return self.d * self.D

    def embed(self, b: np.ndarray) -> np.ndarray:
        """b -> b (x) 1_D into the ambient algebra."""
        if b.shape != (self.d, self.d):
            raise ValueError(f"expected a {self.d}x{self.d} matrix, got {b.shape}")
        return np.kron(b, np.eye(self.D, dtype=b.dtype))

    def expect(self, a: np.ndarray) -> np.ndarray:
        """The conditional expectation onto B: normalized partial trace."""
        n = self.ambient_dim
        if a.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} matrix, got {a.shape}")
        partial = a.reshape(self.d, self.D, self.d, self.D).trace(axis1=1, axis2=3)
        if is_exact(a):
            return partial * Fraction(1, self.D)
        return partial / self.D

    def trace_state(self, b: np.ndarray):
        """Normalized trace of a B-element; the scalar state phi on B."""
        n = b.shape[0]
        tr = b.trace()
        return tr * Fraction(1, n) if is_exact(b) else complex(tr) / n


def projection_pair(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """diag(1,0) and its rotation by ``theta``: two 2x2 projections."""
    p = np.array([[1, 0], [0, 0]], dtype=complex)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]], dtype=complex)
    q = rot @ p @ rot.T
    return p, q


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary via QR of a complex Gaussian with phase fixing."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pvm(size: int, dim: int, seed: int) -> list[np.ndarray]:
    """``size`` orthogonal projections summing to 1_dim, seeded.

    A 0/1 diagonal pattern (ranks as equal as possible, each >= 1) conjugated
    by a random unitary.
    """
    if dim < size:
        raise ValueError(f"need dim >= size, got dim={dim} size={size}")
    rng = np.random.default_rng(seed)
    u = random_unitary(dim, rng)
    base, extra = divmod(dim, size)
    ranks = [base + (1 if i < extra else 0) for i in range(size)]
    projections = []
    start = 0
    for r in ranks:
        diag = np.zeros(dim)
        diag[start : start + r] = 1.0
        projections.append(u @ np.diag(diag).astype(complex) @ dagger(u))
        start += r
    return projections


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + dagger(z)) / 2


def random_rational_symmetric(n: int, rng: np.random.Generator) -> np.ndarray:
    """Symmetric matrix of small random Fractions (exact self-adjoint)."""
    out = np.zeros((n, n), dtype=object)
    for i in range(n):
        for j in range(i, n):
            value = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
            out[i, j] = value
            out[j, i] = value
    return out


def random_rational_matrix(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    out = np.zeros((n, m), dtype=object)
    for i in range(n):
        for j in range(m):
            out[i, j] = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
    return out
