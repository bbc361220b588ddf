"""Reference fits for the benchmark's output checks, independent of the package.

Only numpy and scipy are used here, none of the package's code: the
scatters are built from the samples, every pencil is solved with
``scipy.linalg.eigh`` on (numerator, denominator + ridge I), and the
tensor criteria run their own alternating sweeps. A change to the
package that returns a wrong or less-fitted basis, or skips sweeps, then
reports an objective (or a sweep count) that differs from these.

The objective of a projection set W is the ratio of the projected
squared norms of the numerator and denominator stacks, sum ||W^T x||^2,
which for a vector method is tr(W^T A W) / tr(W^T B W).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh


def flatten(stack: np.ndarray) -> np.ndarray:
    """(N, *dims) -> (N, prod(dims)), each sample flattened in Fortran order."""
    return stack.transpose(0, *range(stack.ndim - 1, 0, -1)).reshape(stack.shape[0], -1)


def class_specific_stacks(samples, labels, positive: int):
    """Negatives and positives, both centered on the positive class mean."""
    pos = labels == positive
    centered = samples - samples[pos].mean(axis=0)
    return centered[~pos], centered[pos]


def multiclass_stacks(samples, labels):
    """Count-weighted class-mean offsets and within-class residuals."""
    classes = np.unique(labels)
    means = np.stack([samples[labels == c].mean(axis=0) for c in classes])
    counts = np.array([np.sum(labels == c) for c in classes], dtype=np.float64)
    total = samples.mean(axis=0)
    shape = (-1,) + (1,) * (samples.ndim - 1)
    between = (means - total) * np.sqrt(counts).reshape(shape)
    within = samples - means[np.searchsorted(classes, labels)]
    return between, within


def _top(a: np.ndarray, b: np.ndarray, d: int, ridge: float) -> np.ndarray:
    """Top-d generalized eigenvectors of a w = value (b + ridge I) w."""
    n = a.shape[0]
    _, vectors = eigh(a, b + ridge * np.eye(n), subset_by_index=[n - d, n - 1])
    return vectors


def _project(stack: np.ndarray, ws) -> np.ndarray:
    out = stack
    for q, w in enumerate(ws):
        out = np.moveaxis(np.tensordot(out, w, axes=([q + 1], [0])), -1, q + 1)
    return out


def objective(num: np.ndarray, den: np.ndarray, ws) -> float:
    """Projected numerator over denominator squared norm; one matrix in
    `ws` projects the flattened samples."""
    if len(ws) == 1 and num.ndim > 2:
        num, den = flatten(num), flatten(den)
    p, q = _project(num, ws), _project(den, ws)
    return float(np.sum(p * p) / np.sum(q * q))


def vector_fit(num: np.ndarray, den: np.ndarray, d: int, ridge: float) -> float:
    """Objective of the single-solve vector criterion (lda, csda)."""
    x, y = flatten(num), flatten(den)
    w = _top(x.T @ x, y.T @ y, d, ridge)
    return objective(num, den, [w])


def _mode_scatter(stack: np.ndarray, ws, mode: int) -> np.ndarray:
    """Sum of U U^T over the stack, U the mode-`mode` unfolding after every
    other mode is projected."""
    others = [w if q != mode else np.eye(w.shape[0]) for q, w in enumerate(ws)]
    u = np.moveaxis(_project(stack, others), mode + 1, 0)
    u = u.reshape(u.shape[0], -1)
    return u @ u.T


def _span(w: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the column space of w (rank-truncated)."""
    u, s, _ = np.linalg.svd(w, full_matrices=False)
    rank = int(np.count_nonzero(s > max(w.shape) * np.finfo(np.float64).eps * s[0]))
    return u[:, :rank] @ u[:, :rank].T


def tensor_fit(num, den, sub_dims, ridge: float, max_iter: int, eps: float):
    """Gauss-Seidel sweeps of per-mode solves from the all-ones start,
    stopped when the summed projector change is at most `eps`.
    Returns (objective, sweeps)."""
    dims = num.shape[1:]
    ws = [np.ones((i, d)) for i, d in zip(dims, sub_dims)]
    spans = [_span(w) for w in ws]
    for sweep in range(1, max_iter + 1):
        for k, d in enumerate(sub_dims):
            ws[k] = _top(_mode_scatter(num, ws, k), _mode_scatter(den, ws, k), d, ridge)
        new = [_span(w) for w in ws]
        delta = sum(np.linalg.norm(a - b) for a, b in zip(new, spans))
        spans = new
        if delta <= eps:
            break
    return objective(num, den, ws), sweep


def reference_fit(samples, labels, method: str, positive: int, config):
    """(objective, sweeps) of the one-vs-rest model for class `positive`:
    lda and mda are fitted on the labels {positive, rest}."""
    if method in ("csda", "mcsda"):
        num, den = class_specific_stacks(samples, labels, positive)
    else:
        num, den = multiclass_stacks(samples, np.where(labels == positive, 1, 2))
    sub = config.subspace_dims
    if method in ("lda", "csda"):
        d = sub if isinstance(sub, int) else int(np.prod(sub))
        return vector_fit(num, den, d, config.reg_lambda), 1
    if config.init != "ones":
        raise ValueError(f"the reference sweeps start from all ones, not {config.init!r}")
    return tensor_fit(num, den, tuple(sub), config.reg_lambda, config.max_iter, config.eps)
