"""Regularized ratio-trace eigensolver shared by all discriminant fits.

Every criterion in this package reduces to the same generalized problem:
given a numerator scatter A and a denominator scatter B, find the top-d
eigenpairs of A w = value * (B + ridge * I) w. The regularized
denominator is positive definite for ridge > 0, so the pencil is a
symmetric-definite generalized eigenproblem, solved for its top d
eigenpairs only by one call of ``dsygvx`` from ``scipy.linalg.lapack``:
the routine and arguments ``scipy.linalg.eigh(A, B, subset_by_index=...)``
uses, without its Python layers, which cost more than the LAPACK work
of a fit's small per-mode pencils.

That call runs on the OpenBLAS build bundled with scipy, whose thread
pool is separate from numpy's. The fit engine therefore runs the rest of
its sweeps on scipy's BLAS and LAPACK too (``dsyrk`` in
``discriminant._gram``, one ``dgemm`` per mode product in ``tensor_ops``,
``dgesdd`` in ``discriminant._subspace_projector``), so that a fit keeps
one pool busy instead of two pools competing for the same cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dsygvx, dsygvx_lwork

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


@lru_cache(maxsize=None)
def _dsygvx_lwork(n: int) -> int:
    """The dsygvx workspace ``eigh`` queries; it depends on n alone."""
    return int(dsygvx_lwork(n, uplo="L")[0])


def solve_ratio_trace(pair: ScatterPair, d: int, ridge: float = 0.0) -> EigenBasis:
    """Top-d eigenpairs of numerator w = value (denominator + ridge I) w.

    LAPACK reduces the pencil through the Cholesky factor of the
    regularized denominator and computes only the top d eigenpairs; the
    returned columns are B-orthonormal. The lower triangles of both
    matrices are read; neither input is modified.

    Raises ValueError when d is outside 1..n or either matrix holds NaN
    or inf, and LinAlgError naming the failing pivot when the
    regularized denominator is not positive definite.
    """
    n = pair.size
    d = int(d)
    if not 1 <= d <= n:
        raise ValueError(f"subspace dimension {d} out of range 1..{n}")
    a = pair.numerator
    # a private Fortran-ordered copy, regularized on its diagonal, that
    # LAPACK may overwrite
    b = np.array(pair.denominator, order="F")
    b.flat[:: n + 1] += float(ridge)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("scatter matrices must not contain NaN or inf")
    values, vectors, _, _, info = dsygvx(
        a, b, itype=1, jobz="V", range="I", uplo="L",
        il=n - d + 1, iu=n, lwork=_dsygvx_lwork(n), overwrite_b=1,
    )
    if info > n:
        # info - n is the order of the leading minor of B that is not
        # positive definite
        raise LinAlgError(
            "Cholesky factorization of the regularized denominator failed "
            f"at pivot {info - n}; it is not positive definite"
        )
    if info > 0:
        raise LinAlgError(f"{info} eigenvectors of the pencil failed to converge")
    if info < 0:
        raise LinAlgError(f"illegal value in argument {-info} of dsygvx")
    # LAPACK returns exactly the d requested pairs, sorted ascending;
    # flip to non-increasing, then make each column's largest-magnitude
    # entry nonnegative
    values = values[d - 1 :: -1].copy()
    vectors = vectors[:, ::-1].copy()
    vectors *= np.copysign(1.0, vectors[np.abs(vectors).argmax(axis=0), np.arange(d)])
    return EigenBasis(vectors=vectors, values=values)
