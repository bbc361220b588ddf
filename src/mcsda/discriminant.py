"""Discriminant subspace learning on vector and tensor data.

All four trainers run on one fit engine. ``_criterion`` builds every
criterion, for the fits, the public scatters and the objectives alike:
a numerator and a denominator stack of centered tensors, flattened for
the vector methods. The engine lays each stack out once per mode
(``tensor_ops._mode_layout``) and runs Gauss-Seidel sweeps of per-mode
regularized ratio-trace eigensolves over the layouts, from an all-ones
initialization until the summed projector distance between consecutive
sweeps drops to `eps`. Every solve gets the lower-triangle scatters that
LAPACK reads, as its own scratch: a vector fit holds its two stacks and
two n x n Grams, with no copies of them. One sweep solves a one-mode
criterion jointly, so ``fit_lda`` and ``fit_csda`` (and
``fit_mda``/``fit_mcsda`` on one-mode data, which equal them bit for
bit) report one converged sweep; lda's solve works on the C rows of its
between-class numerator stack. Each sweep's objective comes from its
last solve's unfoldings, and the public objectives run the same
routines, so a fit's last objective is the public objective of its
projections, bit for bit.

The class-specific criteria (``csda``, ``mcsda``) separate one positive
class from everything else and center every scatter on the positive
class mean; the multi-class criteria (``lda``, ``mda``) use between- and
within-class scatters over all classes, or, given a positive class, of
the binary positive-vs-rest problem, keeping the positive class mean as
the scoring reference. Trained models score a sample by inverse distance
to the projected reference mean, 1 / (1 + d). ``_score_matrix`` is the
one scoring routine: it scores a whole (N, *dims) stack under a set of
models with one pass over the stack (``tensor_ops._project_chains``), so
that neither a C-ordered stack nor one loaded in file order is copied.
``score_batch`` is its one-model case and ``similarity_score`` its
one-sample form; ``project`` projects one sample.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dgesdd

from .datasets import LabeledDataset, _check_count, _check_dims, _check_integer, _check_real
from .linalg import ScatterPair, _solve_factor, solve_ratio_trace
from .tensor_ops import (
    _check_projections,
    _gemm_tn,
    _mode_layout,
    _project_chains,
    _project_layout,
    _sample_layout,
    multi_project,
)

__all__ = [
    "VECTOR_METHODS",
    "TENSOR_METHODS",
    "METHODS",
    "TrainConfig",
    "ClassStatistics",
    "FitReport",
    "DiscriminantModel",
    "class_statistics",
    "lda_scatters",
    "csda_scatters",
    "mode_k_class_specific_scatters",
    "mda_mode_scatters",
    "class_specific_objective",
    "multiclass_objective",
    "convergence_metric",
    "fit_lda",
    "fit_csda",
    "fit_mda",
    "fit_mcsda",
    "fit_class_specific",
    "fit_one_vs_rest",
    "project",
    "similarity_score",
    "score_batch",
    "parameter_count",
]

logger = logging.getLogger(__name__)

VECTOR_METHODS = frozenset({"lda", "csda"})
TENSOR_METHODS = frozenset({"mda", "mcsda"})
METHODS = VECTOR_METHODS | TENSOR_METHODS
# criteria defined by a positive class (lda/mda only get wrapped by one)
_CLASS_SPECIFIC = frozenset({"csda", "mcsda"})

INIT_CHOICES = ("ones", "identity_slice")


@dataclass(frozen=True)
class TrainConfig:
    """Shared training knobs.

    `subspace_dims` is an integer for vector methods and a per-mode tuple
    for tensor methods; it and `max_iter` hold integers >= 1. `reg_lambda`
    is the denominator ridge of every eigensolve; `max_iter` and `eps`
    bound the sweeps. `seed` is a class constant: no fit reads a seed.
    """

    subspace_dims: int | tuple[int, ...]
    reg_lambda: float = 0.01
    max_iter: int = 20
    eps: float = 1e-5
    init: str = "ones"
    seed: ClassVar[int] = 0

    def __post_init__(self):
        one = not isinstance(self.subspace_dims, (tuple, list))
        check = _check_count if one else _check_dims  # one dimension, or one per mode
        object.__setattr__(self, "subspace_dims", check("subspace_dims", self.subspace_dims))
        _check_real("reg_lambda", self.reg_lambda, 0)
        _check_count("max_iter", self.max_iter)
        _check_real("eps", self.eps, 0, strict=True)
        if self.init not in INIT_CHOICES:
            raise ValueError(f"init must be one of {INIT_CHOICES}, got {self.init!r}")


@dataclass(frozen=True)
class ClassStatistics:
    """Per-class means plus the count-weighted total mean."""

    class_means: np.ndarray  # (C, *dims)
    total_mean: np.ndarray  # (*dims)
    counts: np.ndarray  # (C,)
    positive_mean: np.ndarray | None = None


@dataclass
class FitReport:
    """Bookkeeping of one training run.

    `objective_trace` and `convergence_trace` list one real number per
    sweep, `iterations_run` of them, and may hold inf (:func:`_ratio`);
    `converged` is a bool. A one-mode criterion (every vector method)
    reports one converged sweep, at distance 0.
    """

    objective_trace: list[float]
    convergence_trace: list[float]
    iterations_run: int
    converged: bool
    wall_time_seconds: float
    parameter_count: int

    def __post_init__(self):
        n = _check_count("iterations_run", self.iterations_run)
        for name in ("objective_trace", "convergence_trace"):
            trace = getattr(self, name)
            if not isinstance(trace, list) or len(trace) != n or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in trace
            ):
                raise ValueError(f"{name} must hold iterations_run={n} real numbers, got {trace!r}")
        if not isinstance(self.converged, bool):
            raise ValueError(f"converged must be true or false, got {self.converged!r}")
        _check_real("wall_time_seconds", self.wall_time_seconds, 0)
        _check_count("parameter_count", self.parameter_count, minimum=0)


@dataclass
class DiscriminantModel:
    """A trained projection set plus whatever scoring needs.

    `projections` holds one matrix per mode for tensor methods and a
    single matrix over the vectorized sample for vector methods.
    `reference_mean` (the positive class mean, in input shape) is present
    exactly when the model can score; multi-class lda/mda keep all class
    means instead.
    """

    method: str
    projections: list[np.ndarray]
    input_dims: tuple[int, ...]
    subspace_dims: int | tuple[int, ...]
    reference_mean: np.ndarray | None
    positive_class: int | None
    config: TrainConfig
    fit_report: FitReport
    class_means: np.ndarray | None = None


# ---------------------------------------------------------------------------
# statistics and criterion stacks: every criterion is a numerator and a
# denominator stack of centered (N, *dims) tensors, the common input of
# the scatters, the objectives and the fit engine


def _flatten_samples(samples: np.ndarray) -> np.ndarray:
    """(N, *dims) -> (N, prod(dims)) with per-sample Fortran flattening,
    the same embedding the on-disk format and tensor unfoldings use."""
    n = samples.shape[0]
    flat_dim = math.prod(samples.shape[1:])
    return np.moveaxis(samples, 0, -1).reshape(flat_dim, n, order="F").T


def _nonempty_counts(data: LabeledDataset, positive: int | None) -> np.ndarray:
    """Per-class sample counts; errors on the first empty class and on a
    positive class (if one is given) that is no integer in 1..n_classes."""
    counts = data.class_counts()
    for label, count in enumerate(counts, start=1):
        if count == 0:
            raise ValueError(f"class {label} is empty")
    if positive is not None and not 1 <= _check_integer("positive class", positive) <= len(counts):
        raise ValueError(f"positive class {positive} outside 1..{data.n_classes}")
    return counts


def class_statistics(data: LabeledDataset, positive: int | None = None) -> ClassStatistics:
    """Class means, counts and total mean; errors on any empty class."""
    counts = _nonempty_counts(data, positive)
    class_means = np.stack(
        [data.samples[data.labels == c].mean(axis=0) for c in range(1, data.n_classes + 1)]
    )
    return ClassStatistics(
        class_means=class_means,
        total_mean=data.samples.mean(axis=0),
        counts=counts,
        positive_mean=None if positive is None else class_means[positive - 1].copy(),
    )


def _criterion(data: LabeledDataset, method: str, positive: int | None):
    """The one criterion builder: the scoring reference mean (or None),
    the class means (lda/mda, else None), and the numerator and
    denominator stacks, flattened for the vector methods. csda/mcsda
    center every sample on the positive class mean, out-of-class over
    in-class; lda/mda take the count-weighted class-mean offsets over the
    within-class residuals, of the positive-vs-rest problem if a positive
    class is given."""
    _nonempty_counts(data, positive)
    if positive is not None and (data.labels == positive).all():
        raise ValueError("every sample belongs to the positive class")
    if method in _CLASS_SPECIFIC:
        if positive is None:
            raise ValueError(f"{method} is class-specific: it needs a positive class")
        pos_mask = data.labels == positive
        den = data.samples[pos_mask]
        reference_mean = den.mean(axis=0)
        num = data.samples[~pos_mask]
        num -= reference_mean
        den -= reference_mean
        class_means = None
    else:
        if positive is not None:
            data = LabeledDataset(
                samples=data.samples,
                labels=np.where(data.labels == positive, 1, 2),
                n_classes=2,
            )
        stats = class_statistics(data, None if positive is None else 1)
        reference_mean, class_means = stats.positive_mean, stats.class_means
        shape = (-1,) + (1,) * len(data.dims)
        num = (class_means - stats.total_mean) * np.sqrt(stats.counts).reshape(shape)
        den = class_means[data.labels - 1]
        np.subtract(data.samples, den, out=den)
    if method in VECTOR_METHODS:
        num, den = _flatten_samples(num), _flatten_samples(den)
    return reference_mean, class_means, num, den


def _lower_gram(h: np.ndarray) -> np.ndarray:
    """h h^T of an (I, M) unfolding as dsyrk leaves it: Fortran-ordered,
    its strict upper triangle zero. f2py copies h only when it is
    neither C- nor Fortran-contiguous (h^T is passed when C-ordered)."""
    if h.flags.f_contiguous:
        return dsyrk(1.0, h, lower=1)
    return dsyrk(1.0, h.T, trans=1, lower=1)


def _gram(h: np.ndarray) -> np.ndarray:
    """h h^T, exactly symmetric: s + s^T of the :func:`_lower_gram` s is
    exact off the diagonal, and the diagonal is put back from s."""
    s = _lower_gram(h)
    full = s + s.T
    np.fill_diagonal(full, s.diagonal())
    return full


def _unfoldings(num, den, projections, mode: int) -> list[np.ndarray]:
    """The mode-`mode` unfoldings of both stacks, every other mode
    projected, as the fit engine builds them. Their columns are not in
    fiber order; the scatters and squared norms taken from them do not
    depend on column order."""
    return [_project_layout(_mode_layout(s, mode), projections, mode) for s in (num, den)]


def _scatter_pair(num, den, projections=(), mode: int = 0) -> ScatterPair:
    """Mode-`mode` scatters of both stacks: the sum over each stack of
    U U^T, where U is the mode-`mode` unfolding of an entry after
    projecting every other mode. With the defaults, the plain scatters of
    flattened (N, P) stacks."""
    return ScatterPair(*map(_gram, _unfoldings(num, den, projections, mode)))


def lda_scatters(data: LabeledDataset) -> ScatterPair:
    """Between-class (numerator) and within-class (denominator) scatters
    of the vectorized samples."""
    return _scatter_pair(*_criterion(data, "lda", None)[2:])


def csda_scatters(data: LabeledDataset, positive: int) -> ScatterPair:
    """Out-of-class (numerator) and in-class (denominator) scatters, both
    centered on the positive class mean, over vectorized samples."""
    return _scatter_pair(*_criterion(data, "csda", positive)[2:])


def mode_k_class_specific_scatters(
    data: LabeledDataset, positive: int, projections, mode: int
) -> ScatterPair:
    """Mode-`mode` out-of-class and in-class scatters.

    Each sample is centered on the positive class mean, projected on every
    mode except `mode` with the current matrices (entry `mode` of
    `projections` is ignored), unfolded along `mode`, and accumulated as
    U U^T: negatives into the numerator, positives into the denominator.
    """
    ws = _check_projections(projections, data.dims, skip=mode)
    return _scatter_pair(*_criterion(data, "mcsda", positive)[2:], ws, mode)


def mda_mode_scatters(data: LabeledDataset, projections, mode: int) -> ScatterPair:
    """Mode-`mode` between-class (count-weighted) and within-class
    scatters for the multi-class tensor criterion."""
    ws = _check_projections(projections, data.dims, skip=mode)
    return _scatter_pair(*_criterion(data, "mda", None)[2:], ws, mode)


# ---------------------------------------------------------------------------
# objectives and convergence


def _ratio(hs, w: np.ndarray) -> float:
    """||W^T H_num||^2 / ||W^T H_den||^2 of one mode's unfoldings `hs`:
    the criterion. The trace form tr(W^T A W) / tr(W^T B W) is the same
    number in exact arithmetic, but it cancels when B is nearly singular
    on the span of W."""
    num_norm, den_norm = (float(np.sum(_gemm_tn(w, h) ** 2)) for h in hs)
    return num_norm / den_norm if den_norm > 0 else math.inf


def _objective(data: LabeledDataset, methods, positive, projections) -> float:
    """The criterion of `methods` (vector, tensor) at `projections`,
    taken on the last mode's unfoldings as the fit's last solve takes it;
    a single matrix takes the vector method, so projects flat samples."""
    method = methods[0] if len(projections) == 1 else methods[1]
    num, den = _criterion(data, method, positive)[2:]
    ws = _check_projections(projections, num.shape[1:])
    last = len(ws) - 1
    return _ratio(_unfoldings(num, den, ws, last), ws[last])


def class_specific_objective(data: LabeledDataset, positive: int, projections) -> float:
    """Ratio of out-of-class to in-class scatter in the projected space,
    both centered on the positive class mean.

    `projections` may be one matrix per mode, or a single matrix applied
    to the vectorized samples (the vector-method route).
    """
    return _objective(data, ("csda", "mcsda"), positive, projections)


def multiclass_objective(data: LabeledDataset, projections) -> float:
    """Ratio of projected between-class to within-class scatter; a single
    matrix projects the vectorized samples."""
    return _objective(data, ("lda", "mda"), None, projections)


def _subspace_projector(w: np.ndarray, strict: bool = False) -> np.ndarray:
    """Orthogonal projector onto the column space of w.

    With `strict` set, a numerically rank-deficient w raises instead of
    being truncated to its actual column space.
    """
    w = np.asarray(w, dtype=np.float64)
    rank = 0
    if w.size:
        # the thin SVD that np.linalg.svd computes, on scipy's LAPACK;
        # the singular values come sorted, largest first
        u, s, _, info = dgesdd(w, compute_uv=1, full_matrices=0)
        if info != 0:
            raise LinAlgError(f"SVD of a projection matrix failed (dgesdd info {info})")
        tol = max(w.shape) * np.finfo(np.float64).eps * s[0]
        rank = int(np.count_nonzero(s > tol))
    if strict and rank < w.shape[1]:
        raise LinAlgError(
            f"projection matrix of shape {w.shape} is rank-deficient "
            f"(numerical rank {rank})"
        )
    return _gram(u[:, :rank]) if rank else np.zeros((w.shape[0],) * 2)


def _projector_distance(prev, curr) -> float:
    """Summed Frobenius distance between paired per-mode projectors, the
    sweep loop's stopping quantity and :func:`convergence_metric`."""
    return float(sum(np.linalg.norm(c - p) for p, c in zip(prev, curr)))


def convergence_metric(prev, curr) -> float:
    """Summed Frobenius distance between the per-mode column-space
    projectors of two projection sets.

    Zero iff every mode spans the same subspace; invariant to column
    signs and within-subspace basis changes. Raises LinAlgError when any
    matrix is rank-deficient, since its projector is then ambiguous in
    the W (W^T W)^-1 W^T form.
    """
    prev = [np.asarray(w, dtype=np.float64) for w in prev]
    curr = [np.asarray(w, dtype=np.float64) for w in curr]
    if len(prev) != len(curr):
        raise ValueError(
            f"projection sets have different lengths: {len(prev)} vs {len(curr)}"
        )
    for wp, wc in zip(prev, curr):
        if wp.shape != wc.shape:
            raise ValueError(
                f"projection shapes differ: {wp.shape} vs {wc.shape}"
            )
    return _projector_distance(
        [_subspace_projector(w, strict=True) for w in prev],
        [_subspace_projector(w, strict=True) for w in curr],
    )


# ---------------------------------------------------------------------------
# fitting


def _subspace_dims(method: str, subspace_dims, dims):
    """The model's `subspace_dims`, as a `TrainConfig` holds them, and the
    per-mode dims the sweeps solve for: one dimension of the vectorized
    sample for vector methods, one within 1..I_k per mode for tensor methods."""
    sub = subspace_dims if isinstance(subspace_dims, tuple) else (subspace_dims,)
    if method in VECTOR_METHODS:
        if len(sub) != 1:
            raise ValueError(
                f"vector methods take a single subspace dimension, got {subspace_dims}"
            )
        return sub[0], sub
    if len(sub) != len(dims):
        raise ValueError(
            f"need one subspace dimension per mode: got {sub} for dims {dims}"
        )
    for k, (d, full) in enumerate(zip(sub, dims)):
        if d > full:  # d >= 1 by the config's dims rule
            raise ValueError(
                f"subspace dimension {d} for mode {k} outside 1..{full}"
            )
    return sub, sub


def _sweep(layouts, ws, sub_dims, ridge: float) -> float:
    """One Gauss-Seidel sweep over the numerator's and the denominator's
    per-mode layouts: solve each mode's pencil in turn, every other mode
    projected with its latest matrix, updating `ws` in place. Each solve
    gets the lower-triangle scatters, the part that LAPACK reads, as its
    own scratch: no n x n copy is made around the solve.

    Returns the criterion at the new `ws`, taken from the unfoldings of
    the last solve (:func:`_ratio`): no mode changes after it.
    """
    for k, d in enumerate(sub_dims):
        hs = [_project_layout(per_mode[k], ws, k) for per_mode in layouts]
        pair = ScatterPair(*map(_lower_gram, hs))
        ws[k] = solve_ratio_trace(pair, d, ridge, overwrite=True).vectors
    return _ratio(hs, ws[-1])


def _alternate(layouts, ws, sub_dims, config):
    """Sweeps until the summed projector distance between consecutive
    sweeps drops to `eps`; returns the objective and distance traces and
    whether that happened within `max_iter` sweeps. One sweep solves a
    one-mode criterion jointly, so it is reported as one converged sweep,
    without the projector check."""
    if len(ws) == 1:
        return [_sweep(layouts, ws, sub_dims, config.reg_lambda)], [0.0], True
    # the all-ones init is rank one, so the first sweep's distance uses
    # the truncated column-space projector rather than the strict form
    prev = [_subspace_projector(w) for w in ws]
    objective_trace: list[float] = []
    convergence_trace: list[float] = []
    for sweep in range(1, config.max_iter + 1):
        objective_trace.append(_sweep(layouts, ws, sub_dims, config.reg_lambda))
        current = [_subspace_projector(w) for w in ws]
        delta = _projector_distance(prev, current)
        convergence_trace.append(delta)
        prev = current
        logger.debug(
            "sweep %d: objective=%.6g delta=%.3g", sweep, objective_trace[-1], delta
        )
        if delta <= config.eps:
            return objective_trace, convergence_trace, True
    return objective_trace, convergence_trace, False


def _fit(
    data: LabeledDataset, method: str, positive: int | None, config: TrainConfig
) -> DiscriminantModel:
    """The one fit engine, for every method with or without a positive
    class (csda/mcsda need one; lda/mda train the binary positive-vs-rest
    problem with one and the multi-class criterion without).

    Builds the criterion's two stacks once (:func:`_criterion`) and lays
    each out once per mode, then runs Gauss-Seidel sweeps of per-mode
    eigensolves over the layouts (:func:`_alternate`). A vector method is
    the one-mode case: its stacks are flattened, so one sweep solves the
    pencil jointly.
    """
    start = time.perf_counter()
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    subspace, sub_dims = _subspace_dims(method, config.subspace_dims, data.dims)
    reference_mean, class_means, num, den = _criterion(data, method, positive)
    if class_means is not None:
        n_classes = len(class_means)
        if n_classes < 2:
            raise ValueError(f"{method} needs at least two classes")
        # the between-class scatter has rank at most C - 1
        if method == "lda" and subspace > n_classes - 1:
            raise ValueError(
                f"lda subspace dimension {subspace} exceeds n_classes - 1 = "
                f"{n_classes - 1}"
            )
    ones = config.init == "ones"
    ws = [np.ones((i, j)) if ones else np.eye(i, j) for i, j in zip(num.shape[1:], sub_dims)]
    layouts = [[_mode_layout(s, k) for k in range(len(ws))] for s in (num, den)]
    del num, den  # free the stacks: the sweeps read only the layouts
    if class_means is not None and len(ws) == 1 and sub_dims[0] <= len(class_means):
        # lda, and mda on one-mode data (the same criterion): one solve
        # through the C columns of the between-class numerator layout
        hs = [layout for (layout,) in layouts]
        ws[0] = _solve_factor(hs[0], _lower_gram(hs[1]), sub_dims[0], config.reg_lambda).vectors
        objective_trace, convergence_trace, converged = [_ratio(hs, ws[0])], [0.0], True
    else:
        objective_trace, convergence_trace, converged = _alternate(layouts, ws, sub_dims, config)
    if not converged:
        logger.warning(
            "%s fit for positive class %s did not converge: %d sweeps "
            "(max_iter) ended at distance %.3g > eps %.3g",
            method, positive, len(convergence_trace), convergence_trace[-1], config.eps,
        )
    report = FitReport(
        objective_trace=objective_trace,
        convergence_trace=convergence_trace,
        iterations_run=len(objective_trace),
        converged=converged,
        wall_time_seconds=time.perf_counter() - start,
        parameter_count=parameter_count(method, data.dims, subspace),
    )
    return DiscriminantModel(
        method=method,
        projections=ws,
        input_dims=data.dims,
        subspace_dims=subspace,
        reference_mean=reference_mean,
        positive_class=positive,
        config=config,
        fit_report=report,
        class_means=class_means,
    )


def fit_csda(data: LabeledDataset, positive: int, config: TrainConfig) -> DiscriminantModel:
    """Single eigensolve of the vectorized class-specific criterion."""
    return _fit(data, "csda", positive, config)


def fit_lda(data: LabeledDataset, config: TrainConfig) -> DiscriminantModel:
    """Single eigensolve of the vectorized multi-class criterion; the
    subspace dimension is capped at C - 1."""
    return _fit(data, "lda", None, config)


def fit_mcsda(data: LabeledDataset, positive: int, config: TrainConfig) -> DiscriminantModel:
    """Alternating per-mode eigensolves of the class-specific tensor
    criterion, centered on the positive class mean."""
    return _fit(data, "mcsda", positive, config)


def fit_mda(data: LabeledDataset, config: TrainConfig) -> DiscriminantModel:
    """Alternating per-mode eigensolves of the multi-class tensor
    criterion (count-weighted between vs within scatter)."""
    return _fit(data, "mda", None, config)


def fit_class_specific(
    data: LabeledDataset, method: str, positive: int, config: TrainConfig
) -> DiscriminantModel:
    """Train one scoring model for `positive` with any of the four methods.

    csda/mcsda are class-specific natively; lda/mda train the binary
    positive-vs-rest problem and score against the positive class mean.
    """
    return _fit(data, method, positive, config)


def fit_one_vs_rest(
    data: LabeledDataset, method: str, config: TrainConfig
) -> list[DiscriminantModel]:
    """Train one scoring model per class, returned in class id order."""
    return [fit_class_specific(data, method, c, config) for c in range(1, data.n_classes + 1)]


# ---------------------------------------------------------------------------
# scoring


def _check_input_dims(model: DiscriminantModel, shape) -> None:
    if tuple(shape) != tuple(model.input_dims):
        raise ValueError(
            f"sample shape {tuple(shape)} does not match model input dims "
            f"{tuple(model.input_dims)}"
        )


def project(model: DiscriminantModel, sample) -> np.ndarray:
    """Project one sample into the model's subspace.

    Vector methods flatten the sample first (Fortran order, matching the
    storage layout); tensor methods apply the per-mode matrices.
    """
    s = np.asarray(sample, dtype=np.float64)
    _check_input_dims(model, s.shape)
    if model.method in VECTOR_METHODS:
        return _gemm_tn(model.projections[0], s.reshape(-1, 1, order="F"))[:, 0]
    return multi_project(s, model.projections)


def _scoring_chain(model: DiscriminantModel, order) -> tuple[np.ndarray, list[np.ndarray]]:
    """The matrices that project a stack laid out in `order` (see
    ``tensor_ops._sample_layout``), in the order they contract it from
    its fastest axis: first the one over the fastest mode, then those
    of the other modes. A vector model has a single matrix over the whole
    sample; its rows are permuted from the Fortran flattening of a
    sample to the flattening of the layout, which is a free view when
    the layout is the file order."""
    if model.method in VECTOR_METHODS:
        dims = tuple(model.input_dims)
        w = model.projections[0].reshape(dims + (-1,), order="F")
        w = w.transpose((*order, len(dims)))
        return w.reshape(-1, w.shape[-1]), []
    ws = model.projections
    return ws[order[-1]], [ws[q] for q in reversed(order[:-1])]


def _score_matrix(models, samples) -> np.ndarray:
    """Similarity scores of a (N, *input_dims) stack under every model,
    as a (len(models), N) matrix; the one scoring routine.

    Each score is 1 / (1 + d), where d is the Frobenius distance between
    the projected sample and the model's projected reference mean. The
    stack is contracted as it lies in memory, from its fastest axis, for
    all models at once (:func:`_project_chains`): a C-ordered stack and
    one read in file order are not copied, and the stack is read once.
    The reference means are projected the same way, as a stack of their
    own.
    """
    stack = np.asarray(samples, dtype=np.float64)
    for model in models:
        if model.reference_mean is None:
            raise RuntimeError(
                "model has no reference mean; train class-specifically or "
                "one-vs-rest to enable scoring"
            )
        _check_input_dims(model, np.shape(model.reference_mean))
        _check_input_dims(model, stack.shape[1:])
    order, layout = _sample_layout(stack)
    chains = [_scoring_chain(model, order) for model in models]
    _, reference_layout = _sample_layout(
        np.stack([m.reference_mean for m in models], dtype=np.float64), order
    )
    references = [None] * len(models)
    for _, i, projected in _project_chains(reference_layout, chains, len(models)):
        references[i] = projected[:, i : i + 1]
    # the first contraction's product can be several times the size of
    # the stack: take the stack in slabs whose product is at most half
    # its size, so that scoring holds less beside the stack than a copy
    size = math.prod(stack.shape[1:])
    product_per_sample = sum(first.shape[1] * size // first.shape[0] for first, _ in chains)
    slab = max(1, stack.size // (2 * product_per_sample))
    scores = np.empty((len(models), stack.shape[0]))
    for start, i, projected in _project_chains(layout, chains, slab):
        distance = np.linalg.norm(projected - references[i], axis=0)
        scores[i, start : start + projected.shape[1]] = 1.0 / (1.0 + distance)
    return scores


def score_batch(model: DiscriminantModel, samples) -> np.ndarray:
    """Similarity scores 1 / (1 + d) of a (N, *input_dims) stack, one per
    sample, as :func:`_score_matrix` takes them."""
    return _score_matrix([model], samples)[0]


def similarity_score(model: DiscriminantModel, sample) -> float:
    """Inverse-distance similarity 1 / (1 + d) of one sample, as in
    :func:`score_batch`. Monotone decreasing in d, equal to 1 only at
    d = 0."""
    return float(score_batch(model, np.asarray(sample)[np.newaxis])[0])


def parameter_count(method: str, input_dims, subspace_dims) -> int:
    """Stored projection parameters: sum of I_k * I'_k per mode for
    tensor methods, whose subspace dims follow the fit's rule, and
    prod(I_k) * prod(I'_k) for vector methods; `subspace_dims` are checked
    as :class:`TrainConfig` checks them, `input_dims` by the dims rule."""
    dims = _check_dims("input_dims", input_dims)
    sub = TrainConfig(subspace_dims).subspace_dims
    if method in TENSOR_METHODS:
        _, sub = _subspace_dims(method, sub, dims)
        return sum(i * j for i, j in zip(dims, sub))
    if method in VECTOR_METHODS:
        return math.prod(dims) * (math.prod(sub) if isinstance(sub, tuple) else sub)
    raise ValueError(f"unknown method {method!r}")
