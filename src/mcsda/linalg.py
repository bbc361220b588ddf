"""Regularized ratio-trace eigensolver shared by all discriminant fits.

Every criterion in this package reduces to the same generalized problem:
given a numerator scatter A and a denominator scatter B, find the top-d
eigenpairs of A w = value * (B + ridge * I) w. The regularized
denominator is positive definite for ridge > 0, so the pencil is a
symmetric-definite generalized eigenproblem, solved for its top d
eigenpairs only by one LAPACK call through ``scipy.linalg.eigh``.

That call runs on the OpenBLAS build bundled with scipy, whose thread
pool is separate from numpy's. The fit engine therefore builds the
scatters and projections it solves with ``scipy.linalg.blas`` too
(``dsyrk`` in ``discriminant._gram``, one ``dgemm`` per mode product in
``tensor_ops``), so that a fit keeps one pool busy instead of two pools
competing for the same cores.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg import eigh

__all__ = ["ScatterPair", "EigenBasis", "regularize", "solve_ratio_trace"]


@dataclass(frozen=True)
class ScatterPair:
    """Numerator and denominator scatter matrices of one criterion.

    Both must be square and equally sized; by construction they are
    symmetric positive semidefinite.
    """

    numerator: np.ndarray
    denominator: np.ndarray

    def __post_init__(self):
        num = np.asarray(self.numerator, dtype=np.float64)
        den = np.asarray(self.denominator, dtype=np.float64)
        if num.ndim != 2 or num.shape[0] != num.shape[1]:
            raise ValueError(f"numerator must be square, got shape {num.shape}")
        if den.shape != num.shape:
            raise ValueError(
                f"denominator shape {den.shape} does not match numerator "
                f"shape {num.shape}"
            )
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    @property
    def size(self) -> int:
        return self.numerator.shape[0]


@dataclass(frozen=True)
class EigenBasis:
    """Top generalized eigenpairs.

    `vectors` is n x d with columns orthonormal in the regularized
    denominator inner product; `values` is sorted non-increasing. Each
    column is sign-fixed so its largest-magnitude entry is nonnegative.
    """

    vectors: np.ndarray
    values: np.ndarray


def regularize(s, ridge: float) -> np.ndarray:
    """Return s + ridge * I for a square matrix s."""
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    return s + float(ridge) * np.eye(s.shape[0])


def solve_ratio_trace(pair: ScatterPair, d: int, ridge: float = 0.0) -> EigenBasis:
    """Top-d eigenpairs of numerator w = value (denominator + ridge I) w.

    LAPACK reduces the pencil through the Cholesky factor of the
    regularized denominator and computes only the top d eigenpairs; the
    returned columns are B-orthonormal.

    Raises ValueError when d is outside 1..n and LinAlgError naming the
    failing pivot when the regularized denominator is not positive
    definite.
    """
    n = pair.size
    d = int(d)
    if not 1 <= d <= n:
        raise ValueError(f"subspace dimension {d} out of range 1..{n}")
    b = regularize(pair.denominator, ridge)
    try:
        values, vectors = eigh(pair.numerator, b, subset_by_index=[n - d, n - 1])
    except LinAlgError as exc:
        # scipy gives the failing Cholesky pivot as the order of the
        # leading minor of B that is not positive definite
        pivot = re.search(r"leading minor of order (\d+)", str(exc))
        if pivot is None:
            raise
        raise LinAlgError(
            "Cholesky factorization of the regularized denominator failed "
            f"at pivot {pivot[1]}; it is not positive definite"
        ) from exc
    # eigh sorts ascending; flip to non-increasing
    values = values[::-1].copy()
    vectors = vectors[:, ::-1].copy()
    flip = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(d)] < 0
    vectors[:, flip] *= -1.0
    return EigenBasis(vectors=vectors, values=values)
