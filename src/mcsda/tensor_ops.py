"""Dense mode-k tensor algebra: unfoldings, foldings and mode products.

Tensors are plain numpy float64 arrays with K >= 1 modes. Unfoldings use
the Kolda & Bader fiber ordering: the mode-k unfolding places the mode-k
fibers as columns, ordered lexicographically over the remaining indices
with the lowest remaining mode varying fastest. With that convention the
mode-0 unfolding of a Fortran-contiguous array is a plain reshape, and

    unfold(mode_product(t, w, k), k) == w @ unfold(t, k)

holds for every matrix w whose column count matches dimension k.

The package projects stacks of tensors with two routines, one per job.
Fitting and the public criterion functions need a mode-k unfolding with
every other mode projected: :func:`_mode_layout` copies a stack once to
its mode-k layout, with the axes ordered (other modes, mode k, sample),
and :func:`_project_layout` contracts it from the first axis. The fit
engine lays each stack out twice per fit, not once per mode: mode 0's
layout, and the last mode's, whose running product with the matrices
solved so far in a sweep serves every mode after the first
(:func:`_project_later` contracts the modes after it by one batched
product each, :func:`_contract_batched`). Scoring and
``multi_project`` need every mode projected: :func:`_project_chains`
contracts a stack from the fastest-varying axis as it lies in memory
(:func:`_sample_layout`), so that neither a C-ordered stack nor one read
in file order is copied. Each mode product is a single ``dgemm`` from
``scipy.linalg.blas``, the OpenBLAS build that the eigensolver also runs
on (see ``linalg``), on a free reshape of a C-contiguous array: it
contracts the first or the last axis, and the new axis of the result
lies at the other end. A chain of such products therefore rotates the
axes instead of moving them, and copies nothing. The batched product,
which contracts an axis between others, is numpy's ``matmul`` (numpy's
OpenBLAS build): one small product per index of the leading axes.
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


def _contract_first(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Contract the first axis of the C-contiguous `x` with w (I, d); the
    new axis of size d comes last. The result is C-contiguous."""
    m = x.reshape(x.shape[0], -1)
    return dgemm(1.0, w, m.T, trans_a=1, trans_b=1).T.reshape(x.shape[1:] + (w.shape[1],))


def _contract_last(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Contract the last axis of the C-contiguous `x` with w (I, d); the
    new axis of size d comes first. The result is C-contiguous."""
    m = x.reshape(-1, x.shape[-1])
    return dgemm(1.0, m.T, w, trans_a=1).T.reshape((w.shape[1],) + x.shape[:-1])


def _contract_batched(x: np.ndarray, w: np.ndarray, axis: int) -> np.ndarray:
    """Contract axis `axis` of the C-contiguous `x` with w (I, d); the new
    axis of size d takes its place. One product w^T x[i] per index i of
    the leading axes, by numpy's batched matmul; the result is
    C-contiguous."""
    lead, rest = x.shape[:axis], x.shape[axis + 1 :]
    out = np.matmul(w.T, x.reshape(math.prod(lead), x.shape[axis], math.prod(rest)))
    return out.reshape(lead + (w.shape[1],) + rest)


def _mode_layout(stack: np.ndarray, mode: int) -> np.ndarray:
    """The (N, *dims) stack with its axes ordered (every mode but `mode`
    in order, `mode`, sample): one C-contiguous copy, which
    :func:`_project_layout` contracts without copying again. A one-mode
    stack has nothing to contract, so its transposed view serves."""
    axes = [q + 1 for q in range(stack.ndim - 1) if q != mode] + [mode + 1, 0]
    layout = stack.transpose(axes)
    return layout if stack.ndim == 2 else np.ascontiguousarray(layout)


def _project_layout(layout: np.ndarray, projections, mode: int) -> np.ndarray:
    """Contract every mode but `mode` of a :func:`_mode_layout`, in mode
    order, with projections[q]^T, and return the (I_mode, M) mode-`mode`
    unfolding of the result, the sample index slowest: the contractions
    leave the axes (`mode`, sample, projected modes in order), so that
    reshape is free."""
    out = layout
    for q, w in enumerate(projections):
        if q != mode:
            out = _contract_first(out, w)
    return out.reshape(out.shape[0], -1)


def _project_later(product, projections, mode: int) -> np.ndarray:
    """Contract every mode after `mode` of a running product and return
    its (I_mode, M) mode-`mode` unfolding. The running product is the
    last mode's :func:`_mode_layout` contracted by :func:`_contract_first`
    with projections[0], .., projections[mode - 1], axes (I_mode, ..,
    I_{K-1}, sample, d_0, .., d_{mode-1}); each later mode lies right
    behind the ones already contracted and goes by one
    :func:`_contract_batched`."""
    out = product
    for q in range(mode + 1, len(projections)):
        out = _contract_batched(out, projections[q], q - mode)
    return out.reshape(out.shape[0], -1)


def _sample_layout(stack: np.ndarray, order=None) -> tuple[tuple[int, ...], np.ndarray]:
    """The modes of the (N, *dims) `stack` in memory order, slowest first,
    and the stack with its axes ordered (sample, *those modes) and
    C-contiguous. That is a free view of a C-ordered stack and of one
    read in file order (each sample Fortran-ordered); any other stack is
    copied. Pass `order` to lay a stack out like another one."""
    if order is None:
        order = tuple(sorted(range(stack.ndim - 1), key=lambda q: -stack.strides[q + 1]))
    return order, np.ascontiguousarray(stack.transpose((0, *(q + 1 for q in order))))


def _project_chains(layout: np.ndarray, chains, slab: int):
    """Project a C-contiguous (N, ...) stack layout with every chain (the
    matrix over the fastest axis, then those of the other modes, fastest
    first), `slab` samples at a time. Per slab, one dgemm contracts the
    fastest axis against the column-stacked first matrices of every chain
    of that size, then each chain contracts its other modes on its own
    contiguous block of that product. Yields (first sample of the slab,
    chain index, projection), the projection as a (prod subspace dims,
    samples in the slab) matrix, its rows in the layout's mode order."""
    groups: dict[int, list[int]] = {}
    for i, (first, _) in enumerate(chains):
        groups.setdefault(first.shape[0], []).append(i)
    stacked = {}
    for size, members in groups.items():
        firsts = [chains[i][0] for i in members]
        # Fortran order, so that dgemm takes the stacked matrix uncopied
        stacked[size] = np.empty((size, sum(w.shape[1] for w in firsts)), order="F")
        np.concatenate(firsts, axis=1, out=stacked[size])
    for start in range(0, layout.shape[0], slab):
        part = layout[start : start + slab]
        n = part.shape[0]
        for size, members in groups.items():
            product = _contract_last(part.reshape(-1, size), stacked[size])
            lo = 0
            for i in members:
                first, rest = chains[i]
                block = product[lo : lo + first.shape[1]]
                lo += first.shape[1]
                block = block.reshape((first.shape[1], n) + part.shape[1 : 1 + len(rest)])
                for w in rest:
                    block = _contract_last(block, w)
                yield start, i, block.reshape(math.prod(block.shape[:-1]), n)
            del product  # before the next one is made


def multi_project(tensor, projections) -> np.ndarray:
    """Project every mode: X times_0 W_0^T times_1 W_1^T ...

    `projections[k]` has shape (I_k, I'_k) and its columns are the
    projection directions for mode k, so the transposed matrices are
    applied. Mode products along distinct modes commute, hence the result
    does not depend on the order of application.
    """
    t = np.asarray(tensor, dtype=np.float64)
    ws = _check_projections(projections, t.shape)
    # the one-chain case of scoring, on a C-ordered one-sample layout
    layout = np.ascontiguousarray(t)[np.newaxis]
    _, _, out = next(_project_chains(layout, [(ws[-1], ws[-2::-1])], 1))
    return out.reshape([w.shape[1] for w in ws])
