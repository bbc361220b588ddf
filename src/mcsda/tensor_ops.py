"""Dense mode-k tensor algebra: unfoldings, foldings and mode products.

Tensors are plain numpy float64 arrays with K >= 1 modes. Unfoldings use
the Kolda & Bader fiber ordering: the mode-k unfolding places the mode-k
fibers as columns, ordered lexicographically over the remaining indices
with the lowest remaining mode varying fastest. With that convention the
mode-0 unfolding of a Fortran-contiguous array is a plain reshape, and

    unfold(mode_product(t, w, k), k) == w @ unfold(t, k)

holds for every matrix w whose column count matches dimension k.

``_project_stack`` applies the mode products of a whole stack of
tensors, for the fit engine and for scoring. It computes each one as a
single ``dgemm`` from ``scipy.linalg.blas``, the OpenBLAS build that the
eigensolver also runs on (see ``linalg``), with the operand order chosen
so that no large operand is copied into Fortran order.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.blas import dgemm

__all__ = ["unfold", "fold", "mode_product", "multi_project"]


def _check_mode(ndim: int, mode: int) -> None:
    if not 0 <= mode < ndim:
        raise ValueError(f"mode {mode} out of range for a {ndim}-mode tensor")


def unfold(tensor, mode: int) -> np.ndarray:
    """Return the mode-`mode` unfolding as an I_mode x prod(rest) matrix.

    Columns are mode-`mode` fibers; the column order runs over the
    remaining indices with the lowest remaining mode fastest.
    """
    t = np.asarray(tensor, dtype=np.float64)
    _check_mode(t.ndim, mode)
    return np.reshape(np.moveaxis(t, mode, 0), (t.shape[mode], -1), order="F")


def fold(matrix, mode: int, dims) -> np.ndarray:
    """Invert :func:`unfold`: rebuild a tensor of shape `dims` from its
    mode-`mode` unfolding."""
    dims = tuple(int(d) for d in dims)
    m = np.asarray(matrix, dtype=np.float64)
    _check_mode(len(dims), mode)
    rest = dims[:mode] + dims[mode + 1 :]
    expected = (dims[mode], math.prod(rest))
    if m.ndim != 2 or m.shape != expected:
        raise ValueError(
            f"matrix of shape {m.shape} does not fold into dims {dims} "
            f"at mode {mode}; expected shape {expected}"
        )
    t = np.reshape(m, (dims[mode],) + rest, order="F")
    return np.moveaxis(t, 0, mode)


def mode_product(tensor, matrix, mode: int) -> np.ndarray:
    """Contract `matrix` (J x I_mode) along the tensor's mode `mode`.

    Entry (i_1, .., j, .., i_K) of the result is
    sum_i matrix[j, i] * tensor[i_1, .., i, .., i_K], so dimension `mode`
    is replaced by J while every other dimension is untouched.
    """
    t = np.asarray(tensor, dtype=np.float64)
    w = np.asarray(matrix, dtype=np.float64)
    _check_mode(t.ndim, mode)
    if w.ndim != 2:
        raise ValueError(f"mode_product needs a 2-d matrix, got {w.ndim}-d")
    if w.shape[1] != t.shape[mode]:
        raise ValueError(
            f"matrix has {w.shape[1]} columns but mode {mode} has "
            f"dimension {t.shape[mode]}"
        )
    out = np.tensordot(w, t, axes=(1, mode))
    return np.moveaxis(out, 0, mode)


def _check_projections(projections, dims, skip: int | None = None) -> list[np.ndarray]:
    """float64 `projections`, one (I_k, d) matrix per mode of `dims`; the
    matrix of mode `skip`, which the caller ignores, is not checked."""
    if skip is not None:
        _check_mode(len(dims), skip)
    ws = [np.asarray(w, dtype=np.float64) for w in projections]
    if len(ws) != len(dims):
        raise ValueError(f"expected {len(dims)} projection matrices, got {len(ws)}")
    for k, w in enumerate(ws):
        if k != skip and (w.ndim != 2 or w.shape[0] != dims[k]):
            raise ValueError(f"projection {k} has shape {w.shape}, expected ({dims[k]}, d)")
    return ws


def _gemm_tn(w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """w^T b by one dgemm. The operand order follows b's layout, so that
    f2py copies no large operand into Fortran order."""
    if b.flags.f_contiguous:
        return dgemm(1.0, w, b, trans_a=1)
    return dgemm(1.0, b.T, w).T


def _project_stack(stack: np.ndarray, projections, skip: int | None = None) -> np.ndarray:
    """Contract axis q + 1 of `stack`, a stack of tensors, with
    projections[q]^T for every mode q except `skip`. Each mode copies the
    stack at most once, to move axis q + 1 to the front. Unchecked:
    callers pass validated float64 arrays."""
    out = stack
    for q, w in enumerate(projections):
        if q != skip:
            moved = np.moveaxis(out, q + 1, 0)
            rest = moved.shape[1:]
            b = moved.reshape(moved.shape[0], math.prod(rest))
            out = np.moveaxis(_gemm_tn(w, b).reshape((w.shape[1],) + rest), 0, q + 1)
    return out


def multi_project(tensor, projections) -> np.ndarray:
    """Project every mode: X times_0 W_0^T times_1 W_1^T ...

    `projections[k]` has shape (I_k, I'_k) and its columns are the
    projection directions for mode k, so the transposed matrices are
    applied. Mode products along distinct modes commute, hence the result
    does not depend on the order of application.
    """
    t = np.asarray(tensor, dtype=np.float64)
    return _project_stack(t[np.newaxis], _check_projections(projections, t.shape))[0]
