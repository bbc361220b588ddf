"""Regularized ratio-trace eigensolvers shared by all discriminant fits.

Every criterion in this package reduces to the same generalized problem:
given a numerator scatter A and a denominator scatter B, find the top-d
eigenpairs of A w = value * (B + ridge * I) w, a symmetric-definite
pencil for ridge > 0. One call of ``dsygvx`` from ``scipy.linalg.lapack``
solves it for the top d pairs only, as ``scipy.linalg.eigh(A, B,
subset_by_index=...)`` does without its Python layers, reading only the
lower triangles (``solve_ratio_trace``); a caller that built both
matrices for the solve alone hands them over (``overwrite``), so that no
n x n copy is made around it. A numerator given by a factor X
of at least d columns, A = X X^T (lda's between-class scatter; Fisher
1936, Rao 1948), is solved through the Cholesky factor L of the
denominator and the SVD of L^-1 X instead (``_solve_factor``).

These run on the OpenBLAS build bundled with scipy, whose thread pool is
separate from numpy's. The fit engine therefore runs the rest of its
sweeps on scipy's BLAS and LAPACK too (``dsyrk`` in
``discriminant._lower_gram``, one ``dgemm`` per first- or last-axis mode
product in ``tensor_ops``, ``dgesdd`` in
``discriminant._subspace_projector``), all but the batched mode products
(``tensor_ops._contract_batched``): numpy's ``matmul`` runs those, in
slices that wake numpy's pool only for large stacks (README "One BLAS
pool per fit").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dgesdd, dpotrf, dsygvx, dsygvx_lwork, dtrtrs

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


_PIVOT = (
    "Cholesky factorization of the regularized denominator failed at pivot {}; "
    "it is not positive definite"
)


def _regularized(a: np.ndarray, b: np.ndarray, d, ridge: float) -> tuple[int, int]:
    """n and d of the owned n x n denominator b, which gets the ridge on
    its diagonal, once d is within 1..n and a and b are finite."""
    n, d = b.shape[0], int(d)
    if not 1 <= d <= n:
        raise ValueError(f"subspace dimension {d} out of range 1..{n}")
    b.flat[:: n + 1] += float(ridge)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        # finite samples whose Grams overflowed: a runtime failure, not bad usage
        raise LinAlgError("scatter matrices must not contain NaN or inf")
    return n, d


def _basis(vectors: np.ndarray, values: np.ndarray) -> EigenBasis:
    """Each column's largest-magnitude entry made nonnegative."""
    vectors *= np.copysign(1.0, vectors[np.abs(vectors).argmax(axis=0), np.arange(len(values))])
    return EigenBasis(vectors=vectors, values=values)


def solve_ratio_trace(
    pair: ScatterPair, d: int, ridge: float = 0.0, overwrite: bool = False
) -> EigenBasis:
    """Top-d eigenpairs of numerator w = value (denominator + ridge I) w.

    LAPACK reduces the pencil through the Cholesky factor of the
    regularized denominator and computes only the top d eigenpairs; the
    returned columns are B-orthonormal. The lower triangles of both
    matrices are read; neither input is modified unless `overwrite` is
    set (scipy's ``overwrite_a``/``overwrite_b``): then both matrices are
    the solve's scratch, the ridge goes onto the denominator in place,
    and their contents are undefined after the call, on error too.

    Raises ValueError when d is outside 1..n, and LinAlgError (a
    ValueError too) when either matrix holds NaN or inf, or naming the
    failing pivot when the regularized denominator is not positive
    definite.
    """
    a, b = pair.numerator, pair.denominator
    if not overwrite or np.shares_memory(a, b):
        # a private Fortran-ordered copy, regularized on its diagonal,
        # that LAPACK may overwrite
        b = np.array(b, order="F")
    n, d = _regularized(a, b, d, ridge)
    values, vectors, _, _, info = dsygvx(
        a, b, itype=1, jobz="V", range="I", uplo="L", il=n - d + 1, iu=n,
        lwork=int(dsygvx_lwork(n, uplo="L")[0]), overwrite_a=int(overwrite), overwrite_b=1,
    )
    if info > n:
        # info - n is the order of the leading minor of B that is not
        # positive definite
        raise LinAlgError(_PIVOT.format(info - n))
    if info > 0:
        raise LinAlgError(f"{info} eigenvectors of the pencil failed to converge")
    if info < 0:
        raise LinAlgError(f"illegal value in argument {-info} of dsygvx")
    # exactly the d requested pairs, ascending: flip to non-increasing
    return _basis(vectors[:, ::-1].copy(), values[d - 1 :: -1].copy())


def _solve_factor(x: np.ndarray, b: np.ndarray, d: int, ridge: float) -> EigenBasis:
    """The top-d pairs of (x x^T, b + ridge I) for an (n, c) factor x,
    c >= d, and a Fortran-ordered n x n b that the solve owns and
    overwrites; LAPACK reads its lower triangle. With L L^T = b + ridge I
    and U S V^T the thin SVD of L^-1 x, they are (L^-T U, S^2): W^T (b +
    ridge I) W = I by construction, and a zero singular value gives an
    eigenvalue 0."""
    _, d = _regularized(x, b, d, ridge)
    low, info = dpotrf(b, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        raise LinAlgError(_PIVOT.format(info))
    u, s, _, info = dgesdd(dtrtrs(low, x, lower=1)[0], full_matrices=0, overwrite_a=1)
    if info != 0:
        raise LinAlgError(f"SVD of the whitened numerator factor failed (dgesdd info {info})")
    vectors, _ = dtrtrs(low, u[:, :d], lower=1, trans=1, overwrite_b=1)
    return _basis(vectors, s[:d] ** 2)
