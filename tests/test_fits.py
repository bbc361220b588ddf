"""Trainer behavior: frozen fixtures, cross-method equivalences, trace
bookkeeping, fixed-point self-consistency, and scoring."""

import logging
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import subspace_angles

import mcsda.discriminant
import mcsda.linalg

from mcsda import (
    DiscriminantModel,
    FitReport,
    LabeledDataset,
    TrainConfig,
    class_specific_objective,
    convergence_metric,
    csda_scatters,
    fit_class_specific,
    fit_csda,
    fit_lda,
    fit_mcsda,
    fit_mda,
    fit_one_vs_rest,
    lda_scatters,
    mda_mode_scatters,
    mode_k_class_specific_scatters,
    multiclass_objective,
    parameter_count,
    project,
    similarity_score,
    solve_ratio_trace,
    synth_generate,
    SynthSpec,
)

from mcsda.discriminant import _subspace_projector
from mcsda.linalg import _solve_factor

from conftest import random_dataset


def max_angle(a, b):
    return float(np.max(subspace_angles(np.asarray(a), np.asarray(b))))


def separable(rng, dims, n_classes=3, per_class=12, scale=8.0, noise=1.0):
    return random_dataset(
        rng, dims=dims, n_classes=n_classes, per_class=per_class,
        spread=scale, noise=noise,
    )


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_bad_values():
    with pytest.raises(ValueError, match="subspace_dims"):
        TrainConfig(subspace_dims=0)
    with pytest.raises(ValueError, match="subspace_dims"):
        TrainConfig(subspace_dims=(2, 0))
    with pytest.raises(ValueError, match="reg_lambda"):
        TrainConfig(subspace_dims=1, reg_lambda=-0.1)
    with pytest.raises(ValueError, match="max_iter"):
        TrainConfig(subspace_dims=1, max_iter=0)
    # a count is an integer: nothing is rounded, and a bool is no count
    with pytest.raises(ValueError, match="^subspace_dims must be an integer, got 2.7$"):
        TrainConfig(subspace_dims=(2.7, 2))
    with pytest.raises(ValueError, match="^subspace_dims must be an integer, got 2.7$"):
        TrainConfig(subspace_dims=2.7)
    with pytest.raises(ValueError, match=r"^invalid subspace_dims \(\)$"):
        TrainConfig(subspace_dims=())
    with pytest.raises(ValueError, match="^max_iter must be an integer, got 2.5$"):
        TrainConfig(subspace_dims=1, max_iter=2.5)
    with pytest.raises(ValueError, match="^max_iter must be an integer, got True$"):
        TrainConfig(subspace_dims=1, max_iter=True)
    with pytest.raises(ValueError, match="eps"):
        TrainConfig(subspace_dims=1, eps=0.0)
    with pytest.raises(ValueError, match="init"):
        TrainConfig(subspace_dims=1, init="random")
    # a real setting is a real number: a bool or a string is refused
    with pytest.raises(ValueError, match="^reg_lambda must be a real number, got True$"):
        TrainConfig(subspace_dims=1, reg_lambda=True)
    with pytest.raises(ValueError, match="^eps must be a real number, got True$"):
        TrainConfig(subspace_dims=1, eps=True)
    with pytest.raises(ValueError, match="^reg_lambda must be a real number, got '0.01'$"):
        TrainConfig(subspace_dims=1, reg_lambda="0.01")
    with pytest.raises(ValueError, match=r"^reg_lambda must be finite and >= 0, got -0\.1$"):
        TrainConfig(subspace_dims=1, reg_lambda=-0.1)


def test_config_takes_no_seed():
    # no fit reads a seed; the class constant is what model.json records
    with pytest.raises(TypeError):
        TrainConfig(subspace_dims=1, seed=0)
    assert TrainConfig.seed == TrainConfig(subspace_dims=1).seed == 0


def test_config_normalizes_list_dims():
    cfg = TrainConfig(subspace_dims=[3, 2])
    assert cfg.subspace_dims == (3, 2)


# ---------------------------------------------------------------------------
# csda


def test_csda_frozen_eigensolve():
    # scatters come out as diag(0, 8) over diag(2, 0); with lambda 0.01 the
    # top generalized eigenvalue is 8 / 0.01 and the basis vector is
    # (0, 10), normalized against the regularized denominator
    ds = LabeledDataset(
        samples=np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]]),
        labels=np.array([1, 1, 2, 2]),
        n_classes=2,
    )
    model = fit_csda(ds, 1, TrainConfig(subspace_dims=1, reg_lambda=0.01))
    w = model.projections[0]
    assert w.shape == (2, 1)
    assert w[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert w[1, 0] == pytest.approx(10.0, rel=1e-12)
    # the objective uses the unregularized scatters: 8 / 0 -> inf
    assert model.fit_report.objective_trace == [np.inf]
    assert model.positive_class == 1
    assert np.allclose(model.reference_mean, [0.0, 0.0])


def test_csda_isotropic_tie_objective():
    # every direction gives out/in ratio 8, so the objective is pinned
    # even though the chosen vector is arbitrary
    ds = LabeledDataset(
        samples=np.array(
            [
                [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                [2.0, 2.0], [-2.0, -2.0], [2.0, -2.0], [-2.0, 2.0],
            ]
        ),
        labels=np.array([1, 1, 1, 1, 2, 2, 2, 2]),
        n_classes=2,
    )
    model = fit_csda(ds, 1, TrainConfig(subspace_dims=1, reg_lambda=0.01))
    assert model.fit_report.objective_trace[0] == pytest.approx(8.0, rel=1e-12)


def test_csda_all_positive_rejected(rng):
    ds = LabeledDataset(
        samples=rng.normal(size=(4, 3)), labels=np.ones(4, dtype=int), n_classes=1
    )
    with pytest.raises(ValueError):
        fit_csda(ds, 1, TrainConfig(subspace_dims=1))


@pytest.mark.parametrize("positive", [2.0, True], ids=["float", "bool"])
def test_fit_rejects_a_positive_class_that_is_no_integer(rng, positive):
    # load_model refuses such a positive class, so no fit may save one;
    # tests/test_scatters.py runs the same case through every criterion
    ds = random_dataset(rng, dims=(3, 2), n_classes=2, per_class=4)
    with pytest.raises(ValueError, match=f"^positive class must be an integer, got {positive}$"):
        fit_class_specific(ds, "csda", positive, TrainConfig(subspace_dims=1))


# ---------------------------------------------------------------------------
# lda


def test_lda_two_class_matches_closed_form(rng):
    # rank-one between scatter: the single discriminant direction must be
    # parallel to (S_w + lambda I)^-1 (m1 - m2)
    ds = separable(rng, dims=(6,), n_classes=2, per_class=20)
    lam = 0.01
    model = fit_lda(ds, TrainConfig(subspace_dims=1, reg_lambda=lam))
    m1 = ds.samples[ds.labels == 1].mean(axis=0)
    m2 = ds.samples[ds.labels == 2].mean(axis=0)
    s_w = np.zeros((6, 6))
    for c, m in ((1, m1), (2, m2)):
        block = ds.samples[ds.labels == c] - m
        s_w += block.T @ block
    direction = np.linalg.solve(s_w + lam * np.eye(6), m1 - m2)
    assert max_angle(model.projections[0], direction[:, None]) < 1e-8


def test_lda_dimension_cap(rng):
    ds = separable(rng, dims=(5,), n_classes=3, per_class=8)
    model = fit_lda(ds, TrainConfig(subspace_dims=2))
    assert model.projections[0].shape == (5, 2)
    with pytest.raises(ValueError, match="exceeds n_classes - 1"):
        fit_lda(ds, TrainConfig(subspace_dims=3))


def test_lda_needs_two_classes(rng):
    ds = LabeledDataset(
        samples=rng.normal(size=(4, 3)), labels=np.ones(4, dtype=int), n_classes=1
    )
    with pytest.raises(ValueError, match="two classes"):
        fit_lda(ds, TrainConfig(subspace_dims=1))


def test_lda_keeps_class_means_not_reference(rng):
    ds = separable(rng, dims=(4,), n_classes=3, per_class=6)
    model = fit_lda(ds, TrainConfig(subspace_dims=2))
    assert model.reference_mean is None
    assert model.class_means.shape == (3, 4)
    with pytest.raises(RuntimeError, match="reference mean"):
        similarity_score(model, ds.samples[0])


def test_lda_without_ridge_on_fewer_samples_than_features_fails_at_a_pivot(rng):
    # N = 9 < P = 20: the within-class scatter is singular, and without a
    # ridge its Cholesky factorization names the failing pivot
    ds = random_dataset(rng, dims=(4, 5), n_classes=3, per_class=3)
    cfg = TrainConfig(subspace_dims=1, reg_lambda=0.0)
    for fit in (lambda: fit_lda(ds, cfg), lambda: fit_class_specific(ds, "lda", 1, cfg)):
        with pytest.raises(np.linalg.LinAlgError, match=r"pivot \d+; it is not positive definite"):
            fit()


def test_lda_dimension_beyond_the_feature_count(rng):
    # C - 1 = 4 allows d = 3, but the samples have only P = 2 features
    ds = random_dataset(rng, dims=(2,), n_classes=5, per_class=4)
    with pytest.raises(ValueError, match=r"^subspace dimension 3 out of range 1\.\.2$"):
        fit_lda(ds, TrainConfig(subspace_dims=3))


# ---------------------------------------------------------------------------
# single-mode equivalences: with one mode the alternating methods reduce
# to their vectorized counterparts in a single sweep


def test_mcsda_equals_csda_one_mode(rng):
    ds = separable(rng, dims=(7,), n_classes=2, per_class=15)
    cfg = TrainConfig(subspace_dims=2, reg_lambda=0.01, max_iter=10)
    vec = fit_csda(ds, 1, cfg)
    ten = fit_mcsda(ds, 1, cfg)
    assert max_angle(vec.projections[0], ten.projections[0]) < 1e-6


def test_mda_equals_lda_one_mode(rng):
    ds = separable(rng, dims=(7,), n_classes=3, per_class=10)
    cfg = TrainConfig(subspace_dims=2, reg_lambda=0.01, max_iter=10)
    vec = fit_lda(ds, cfg)
    ten = fit_mda(ds, cfg)
    assert max_angle(vec.projections[0], ten.projections[0]) < 1e-6


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize(
    "fit_vector, fit_tensor",
    [
        (lambda ds, cfg: fit_csda(ds, 2, cfg), lambda ds, cfg: fit_mcsda(ds, 2, cfg)),
        (fit_lda, fit_mda),
    ],
    ids=["positive", "multiclass"],
)
def test_one_mode_tensor_fit_equals_vector_fit(rng, fit_vector, fit_tensor, d):
    # one sweep solves a one-mode criterion jointly: the tensor method is
    # the vector method, bit for bit, fit report included
    ds = separable(rng, dims=(9,), n_classes=4, per_class=10)
    vec = fit_vector(ds, TrainConfig(subspace_dims=d, max_iter=10))
    ten = fit_tensor(ds, TrainConfig(subspace_dims=(d,), max_iter=10))
    assert len(ten.projections) == 1
    assert np.array_equal(ten.projections[0], vec.projections[0])
    for name in ("reference_mean", "class_means"):
        a, b = getattr(vec, name), getattr(ten, name)
        assert (a is None and b is None) or np.array_equal(a, b)
    for name in ("objective_trace", "convergence_trace", "iterations_run", "converged"):
        assert getattr(ten.fit_report, name) == getattr(vec.fit_report, name)
    assert ten.fit_report.iterations_run == 1
    assert ten.fit_report.convergence_trace == [0.0]


@pytest.mark.parametrize("method", ["lda", "csda"])
def test_vector_fit_report_contract(rng, method):
    # a vector fit is one joint eigensolve: one trivially converged sweep
    # whose objective is the public objective of the returned projection
    ds = separable(rng, dims=(4, 3), n_classes=3, per_class=10)
    cfg = TrainConfig(subspace_dims=2, max_iter=7)
    if method == "lda":
        model = fit_lda(ds, cfg)
        want = multiclass_objective(ds, model.projections)
    else:
        model = fit_csda(ds, 2, cfg)
        want = class_specific_objective(ds, 2, model.projections)
    report = model.fit_report
    assert report.iterations_run == 1
    assert report.converged
    assert report.convergence_trace == [0.0]
    assert len(report.objective_trace) == 1
    assert report.objective_trace[-1] == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# alternating fits


def test_mcsda_trace_bookkeeping(rng):
    ds = separable(rng, dims=(6, 5), n_classes=3, per_class=10)
    model = fit_mcsda(ds, 2, TrainConfig(subspace_dims=(2, 2), max_iter=15))
    rep = model.fit_report
    assert len(rep.objective_trace) == rep.iterations_run
    assert len(rep.convergence_trace) == rep.iterations_run
    assert 1 <= rep.iterations_run <= 15
    assert rep.converged == (rep.convergence_trace[-1] <= 1e-5)
    assert rep.wall_time_seconds > 0
    assert rep.parameter_count == 6 * 2 + 5 * 2
    assert all(np.isfinite(v) and v >= 0 for v in rep.objective_trace)


def test_mcsda_objective_beats_random_subspaces(rng):
    ds = separable(rng, dims=(6, 5), n_classes=3, per_class=12, scale=6.0)
    model = fit_mcsda(ds, 1, TrainConfig(subspace_dims=(2, 2), max_iter=20))
    j_fit = class_specific_objective(ds, 1, model.projections)
    for _ in range(5):
        qs = [
            np.linalg.qr(rng.normal(size=(i, 2)))[0]
            for i in ds.dims
        ]
        assert j_fit > class_specific_objective(ds, 1, qs)


def test_mcsda_fixed_point_self_consistent(rng):
    # once the sweep distance is ~0, re-solving any one mode with the
    # others held fixed must return the same subspace
    ds = separable(rng, dims=(5, 4), n_classes=2, per_class=12,
                   scale=20.0, noise=0.1)
    cfg = TrainConfig(subspace_dims=(2, 2), max_iter=300, eps=1e-10, reg_lambda=0.01)
    model = fit_mcsda(ds, 1, cfg)
    assert model.fit_report.converged
    for k in range(2):
        pair = mode_k_class_specific_scatters(ds, 1, model.projections, k)
        basis = solve_ratio_trace(pair, 2, cfg.reg_lambda)
        assert max_angle(model.projections[k], basis.vectors) < 1e-7


def test_mcsda_identity_slice_init(rng):
    ds = separable(rng, dims=(5, 4), n_classes=2, per_class=10)
    model = fit_mcsda(
        ds, 1, TrainConfig(subspace_dims=(2, 2), init="identity_slice")
    )
    assert model.fit_report.iterations_run >= 1
    assert all(w.shape == (i, 2) for w, i in zip(model.projections, ds.dims))


def test_mda_identical_classes_zero_objective(rng):
    block = rng.normal(size=(6, 4, 3))
    ds = LabeledDataset(
        samples=np.concatenate([block, block]),
        labels=np.array([1] * 6 + [2] * 6),
        n_classes=2,
    )
    model = fit_mda(ds, TrainConfig(subspace_dims=(2, 2), max_iter=5))
    assert model.fit_report.objective_trace[-1] == pytest.approx(0.0, abs=1e-20)


def test_tensor_subspace_dims_validated(rng):
    ds = separable(rng, dims=(4, 3), n_classes=2, per_class=6)
    with pytest.raises(ValueError, match="one subspace dimension per mode"):
        fit_mcsda(ds, 1, TrainConfig(subspace_dims=(2, 2, 2)))
    with pytest.raises(ValueError, match="outside 1..3"):
        fit_mcsda(ds, 1, TrainConfig(subspace_dims=(2, 4)))


def test_vector_subspace_dims_validated(rng):
    ds = separable(rng, dims=(4, 3), n_classes=2, per_class=6)
    with pytest.raises(ValueError, match="single subspace dimension"):
        fit_csda(ds, 1, TrainConfig(subspace_dims=(2, 2)))


# ---------------------------------------------------------------------------
# objectives


def test_objectives_zero_denominator_is_inf():
    ds = LabeledDataset(
        samples=np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]),
        labels=np.array([1, 2, 2]),
        n_classes=2,
    )
    # single positive sample: in-class scatter is exactly zero
    j = class_specific_objective(ds, 1, [np.eye(2)])
    assert j == np.inf


def test_multiclass_objective_matches_scatter_ratio(rng):
    ds = separable(rng, dims=(5,), n_classes=3, per_class=8)
    w = rng.normal(size=(5, 2))
    from mcsda import lda_scatters

    pair = lda_scatters(ds)
    want = np.trace(w.T @ pair.numerator @ w) / np.trace(
        w.T @ pair.denominator @ w
    )
    assert multiclass_objective(ds, [w]) == pytest.approx(want, rel=1e-10)


def test_class_specific_objective_matches_scatter_ratio(rng):
    ds = separable(rng, dims=(4, 3), n_classes=2, per_class=8)
    ws = [rng.normal(size=(4, 2)), rng.normal(size=(3, 2))]
    pair0 = mode_k_class_specific_scatters(ds, 1, ws, 0)
    want = np.trace(ws[0].T @ pair0.numerator @ ws[0]) / np.trace(
        ws[0].T @ pair0.denominator @ ws[0]
    )
    assert class_specific_objective(ds, 1, ws) == pytest.approx(want, rel=1e-10)


# ---------------------------------------------------------------------------
# convergence metric


def test_convergence_metric_trivials():
    w = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert convergence_metric([w], [w]) == 0.0
    # sign flips and in-subspace rotations leave the projector unchanged
    theta = 0.3
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    assert convergence_metric([w], [w @ rot]) == pytest.approx(0.0, abs=1e-12)
    assert convergence_metric([w], [-w]) == pytest.approx(0.0, abs=1e-12)


def test_convergence_metric_orthogonal_lines():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    assert convergence_metric([e1], [e2]) == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_convergence_metric_sums_over_modes():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    assert convergence_metric([e1, e1], [e2, e2]) == pytest.approx(
        2 * np.sqrt(2.0), rel=1e-12
    )


def test_convergence_metric_rank_deficient_raises():
    flat = np.ones((3, 2))
    with pytest.raises(np.linalg.LinAlgError, match="rank-deficient"):
        convergence_metric([flat], [flat])


def svd_projector(w):
    """The np.linalg.svd form of the truncated column-space projector."""
    u, s, _ = np.linalg.svd(w, full_matrices=False)
    rank = int(np.count_nonzero(s > max(w.shape) * np.finfo(float).eps * s.max()))
    return u[:, :rank] @ u[:, :rank].T


@pytest.mark.parametrize("shape", [(10, 4), (8, 4), (6, 3), (40, 7), (5, 5), (7, 1)])
def test_subspace_projector_matches_numpy_svd(rng, shape):
    m, n = shape
    cases = [
        np.ones(shape),  # the all-ones init: rank one
        rng.normal(size=shape),  # full rank
        rng.normal(size=(m, 1)) @ rng.normal(size=(1, n)),  # rank one
        rng.normal(size=(m, max(n - 1, 1))) @ rng.normal(size=(max(n - 1, 1), n)),
    ]
    for w in cases:
        got = _subspace_projector(w)
        assert np.abs(got - svd_projector(w)).max() <= 1e-14
        # a symmetric idempotent of the column space's rank
        assert np.array_equal(got, got.T)
        assert np.abs(got @ got - got).max() <= 1e-13


def test_subspace_projector_of_zero_and_empty_matrices():
    # rank zero: the projector onto {0}; an empty matrix never reaches LAPACK
    assert np.array_equal(_subspace_projector(np.zeros((4, 2))), np.zeros((4, 4)))
    assert np.array_equal(_subspace_projector(np.zeros((3, 0))), np.zeros((3, 3)))
    assert convergence_metric([np.zeros((3, 0))], [np.zeros((3, 0))]) == 0.0


def _forbidden(*args, **kwargs):
    raise AssertionError("the fit engine called numpy's SVD or scipy.linalg.eigh")


def test_fits_use_scipy_lapack_only(rng, monkeypatch):
    # every eigensolve and projector of a fit is one call into
    # scipy.linalg.lapack; neither eigh's Python layers nor numpy's own
    # LAPACK (and with it numpy's BLAS pool) may run in the sweep loop
    monkeypatch.setattr(scipy.linalg, "eigh", _forbidden)
    monkeypatch.setattr(np.linalg, "svd", _forbidden)
    for module in (mcsda.linalg, mcsda.discriminant):  # names bound at import
        for name in ("eigh", "svd"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _forbidden)
    ds = separable(rng, dims=(5, 4, 3), n_classes=3, per_class=8)
    cfg = TrainConfig(subspace_dims=(2, 2, 2), max_iter=3)
    mc = fit_mcsda(ds, 1, cfg)
    md = fit_mda(ds, cfg)
    for model in (mc, md):
        assert model.fit_report.iterations_run >= 1
        assert len(model.projections) == 3
    assert convergence_metric(mc.projections, md.projections) >= 0.0


def test_csda_fit_holds_its_stacks_and_two_grams():
    # the solve works in the fit's own two n x n Grams: no copy of either
    # is made around dsygvx. The two stacks hold the N samples between
    # them; 1 MiB covers LAPACK's workspace and the small arrays
    data = synth_generate(SynthSpec((10, 8, 6), 6, 40, 1.0, 2.0, seed=7))
    n = 10 * 8 * 6
    cfg = TrainConfig(subspace_dims=48)
    fit_csda(data, 1, cfg)
    tracemalloc.start()
    try:
        fit_csda(data, 1, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < data.samples.nbytes + 2 * n * n * 8 + 2**20


def test_convergence_metric_shape_checks():
    w = np.eye(3, 2)
    with pytest.raises(ValueError, match="lengths"):
        convergence_metric([w], [w, w])
    with pytest.raises(ValueError, match="shapes"):
        convergence_metric([w], [np.eye(2)])


# ---------------------------------------------------------------------------
# class-specific wrappers and one-vs-rest


def test_fit_class_specific_wraps_lda(rng):
    ds = separable(rng, dims=(5,), n_classes=3, per_class=10)
    model = fit_class_specific(ds, "lda", 2, TrainConfig(subspace_dims=1))
    assert model.method == "lda"
    assert model.positive_class == 2
    assert np.allclose(model.reference_mean, ds.samples[ds.labels == 2].mean(axis=0))
    assert 0.0 < similarity_score(model, ds.samples[0]) <= 1.0


def test_fit_class_specific_lda_binary_cap(rng):
    # the wrapper relabels to two classes, so the between scatter has rank
    # one and d = 2 is rejected even with three original classes
    ds = separable(rng, dims=(5,), n_classes=3, per_class=10)
    with pytest.raises(ValueError, match="exceeds n_classes - 1"):
        fit_class_specific(ds, "lda", 1, TrainConfig(subspace_dims=2))


def test_fit_class_specific_unknown_method(rng):
    ds = separable(rng, dims=(4,), n_classes=2, per_class=5)
    with pytest.raises(ValueError, match="unknown method"):
        fit_class_specific(ds, "pca", 1, TrainConfig(subspace_dims=1))


def test_one_vs_rest_order_and_references(rng):
    ds = separable(rng, dims=(4, 3), n_classes=3, per_class=8)
    models = fit_one_vs_rest(ds, "mcsda", TrainConfig(subspace_dims=(2, 2)))
    assert [m.positive_class for m in models] == [1, 2, 3]
    for c, model in enumerate(models, start=1):
        assert np.allclose(
            model.reference_mean, ds.samples[ds.labels == c].mean(axis=0)
        )


# ---------------------------------------------------------------------------
# scoring


def test_project_shape_checks(rng):
    ds = separable(rng, dims=(4, 3), n_classes=2, per_class=6)
    model = fit_mcsda(ds, 1, TrainConfig(subspace_dims=(2, 2)))
    out = project(model, ds.samples[0])
    assert out.shape == (2, 2)
    with pytest.raises(ValueError, match="does not match"):
        project(model, np.zeros((3, 4)))


def test_similarity_score_hand_model():
    cfg = TrainConfig(subspace_dims=2)
    report = FitReport([0.0], [0.0], 1, True, 0.0, 4)
    model = DiscriminantModel(
        method="csda",
        projections=[np.eye(2)],
        input_dims=(2,),
        subspace_dims=2,
        reference_mean=np.zeros(2),
        positive_class=1,
        config=cfg,
        fit_report=report,
    )
    # identity projection, zero reference: score is 1 / (1 + ||x||)
    assert similarity_score(model, np.zeros(2)) == 1.0
    assert similarity_score(model, np.array([3.0, 4.0])) == pytest.approx(
        1.0 / 6.0, rel=1e-15
    )


def test_similarity_separates_well_separated_classes(rng):
    ds = separable(rng, dims=(5, 4), n_classes=3, per_class=14, scale=10.0)
    for method in ("csda", "mcsda"):
        cfg = TrainConfig(
            subspace_dims=2 if method == "csda" else (2, 2)
        )
        model = fit_class_specific(ds, method, 1, cfg)
        pos = [similarity_score(model, s) for s in ds.samples[ds.labels == 1]]
        neg = [similarity_score(model, s) for s in ds.samples[ds.labels != 1]]
        pairs = [(p, n) for p in pos for n in neg]
        frac = np.mean([p > n for p, n in pairs])
        assert frac >= 0.95


# ---------------------------------------------------------------------------
# parameter counts


def test_parameter_count_values():
    assert parameter_count("mcsda", (30, 30), (1, 1)) == 60
    assert parameter_count("csda", (30, 30), (1, 1)) == 900
    assert parameter_count("csda", (30, 30), 1) == 900
    assert parameter_count("mda", (40, 30), (7, 7)) == 490
    assert parameter_count("lda", (40, 30), (7, 7)) == 58800


def test_parameter_count_through_fits(rng):
    ds = separable(rng, dims=(30, 30), n_classes=2, per_class=8)
    ten = fit_mcsda(ds, 1, TrainConfig(subspace_dims=(1, 1), max_iter=3))
    assert ten.fit_report.parameter_count == 60
    vec = fit_csda(ds, 1, TrainConfig(subspace_dims=1))
    assert vec.fit_report.parameter_count == 900


def test_parameter_count_validation():
    with pytest.raises(ValueError, match="unknown method"):
        parameter_count("pca", (4, 3), (2, 2))
    with pytest.raises(ValueError, match="per mode"):
        parameter_count("mcsda", (4, 3), (2,))
    with pytest.raises(ValueError, match=r"outside 1\.\.4"):
        parameter_count("mcsda", (4, 3), (5, 2))
    # dims and subspace dims follow the dims and count rules: nothing is rounded
    with pytest.raises(ValueError, match="^subspace_dims must be an integer, got 2.5$"):
        parameter_count("csda", (30, 30), 2.5)
    with pytest.raises(ValueError, match="^subspace_dims must be an integer, got 2.7$"):
        parameter_count("mcsda", (4, 3), (2.7, 2))
    with pytest.raises(ValueError, match="^input_dims must be an integer, got 4.9$"):
        parameter_count("mcsda", (4.9, 3), (2, 2))
    with pytest.raises(ValueError, match="^subspace_dims must be an integer, got True$"):
        parameter_count("csda", (4, 3), True)


# ---------------------------------------------------------------------------
# synthetic data helper keeps the trainers honest end to end


def test_synth_then_fit_recovers_structure():
    spec = SynthSpec(
        dims=(6, 5), n_classes=3, samples_per_class=15,
        class_mean_scale=8.0, noise_sigma=1.0, seed=7,
    )
    ds = synth_generate(spec)
    model = fit_mcsda(ds, 1, TrainConfig(subspace_dims=(2, 2), max_iter=20))
    assert model.fit_report.objective_trace[-1] > 1.0


# ---------------------------------------------------------------------------
# the fit loop and the public metric measure the same thing


@pytest.mark.parametrize("k", [1, 2, 5])
def test_convergence_trace_is_convergence_metric(rng, k):
    ds = separable(rng, dims=(5, 4, 3), n_classes=3, per_class=8)
    short = fit_mcsda(ds, 1, TrainConfig(subspace_dims=(2, 2, 2), max_iter=k, eps=1e-300))
    longer = fit_mcsda(ds, 1, TrainConfig(subspace_dims=(2, 2, 2), max_iter=k + 1, eps=1e-300))
    assert longer.fit_report.iterations_run == k + 1
    assert convergence_metric(short.projections, longer.projections) == (
        longer.fit_report.convergence_trace[k]
    )


# ---------------------------------------------------------------------------
# the positive-vs-rest wrap of the multi-class methods


@pytest.mark.parametrize("method, dims, sub", [("lda", (5, 4), 1), ("mda", (5, 4), (2, 2))])
def test_wrap_builds_binary_model(rng, method, dims, sub):
    ds = separable(rng, dims=dims, n_classes=3, per_class=10)
    c = 2
    model = fit_class_specific(ds, method, c, TrainConfig(subspace_dims=sub, max_iter=3))
    assert model.positive_class == c
    expected = np.stack(
        [ds.samples[ds.labels == c].mean(axis=0), ds.samples[ds.labels != c].mean(axis=0)]
    )
    assert model.class_means.shape == (2, *dims)
    assert np.allclose(model.class_means, expected, rtol=1e-13, atol=1e-13)
    assert np.array_equal(model.reference_mean, model.class_means[0])


def test_nonconvergence_logged_as_warning(rng, caplog):
    ds = separable(rng, dims=(6, 5), n_classes=3, per_class=10)
    with caplog.at_level(logging.WARNING, logger="mcsda.discriminant"):
        model = fit_mcsda(ds, 2, TrainConfig(subspace_dims=(2, 2), max_iter=1))
    assert not model.fit_report.converged
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    message = warnings[0].getMessage()
    assert "mcsda fit for positive class 2 did not converge" in message
    assert "1 sweeps" in message
    assert f"{model.fit_report.convergence_trace[-1]:.3g} > eps 1e-05" in message


def test_converged_fit_logs_no_warning(rng, caplog):
    ds = separable(rng, dims=(5,), n_classes=2, per_class=10)
    with caplog.at_level(logging.WARNING, logger="mcsda.discriminant"):
        model = fit_mcsda(ds, 1, TrainConfig(subspace_dims=2, max_iter=10))
    assert model.fit_report.converged
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


def _binary(ds, positive):
    return LabeledDataset(
        samples=ds.samples, labels=np.where(ds.labels == positive, 1, 2), n_classes=2
    )


def _fit_engine(ds, method, positive, sub, max_iter, reg_lambda):
    cfg = TrainConfig(subspace_dims=sub, max_iter=max_iter, reg_lambda=reg_lambda)
    if positive is None:
        return {"lda": fit_lda, "mda": fit_mda}[method](ds, cfg)
    return fit_class_specific(ds, method, positive, cfg)


def _criterion(ds, method, positive, projections):
    if method in ("csda", "mcsda"):
        return class_specific_objective(ds, positive, projections)
    return multiclass_objective(ds if positive is None else _binary(ds, positive), projections)


def _last_scatters(ds, method, positive, projections):
    """The public scatters of the last mode at `projections`: those the
    engine's last solve took."""
    if method == "csda":
        return csda_scatters(ds, positive)
    binary = ds if positive is None else _binary(ds, positive)
    if method == "lda":
        return lda_scatters(binary)
    if method == "mcsda":
        return mode_k_class_specific_scatters(ds, positive, projections, len(ds.dims) - 1)
    return mda_mode_scatters(binary, projections, len(ds.dims) - 1)


@pytest.mark.parametrize("max_iter", [1, 2, 5])
@pytest.mark.parametrize("dims", [(6, 5), (5, 4, 3), (4, 3, 3, 2), (7,)])
@pytest.mark.parametrize(
    "method,positive",
    [("mda", None), ("mda", 2), ("mcsda", 2), ("csda", 2), ("lda", None), ("lda", 2)],
)
def test_objective_trace_is_the_criterion_of_the_returned_projections(
    rng, monkeypatch, method, positive, dims, max_iter
):
    # the last sweep's entry is the criterion the solver optimized,
    # evaluated at the projections the fit returns: the public objective
    # and scatters run the engine's own arithmetic, so both agree bit for
    # bit with what the fit computed. The solvers read only lower
    # triangles, and both overwrite what the fit hands them, so copies
    # are recorded and compared on their lower triangles
    calls = []

    def recording(solve):
        def record(*args, **kwargs):
            if solve is solve_ratio_trace:
                calls.append((solve, args[0].numerator.copy(), args[0].denominator.copy()))
            else:
                calls.append((solve, args[0].copy(), args[1].copy()))
            return solve(*args, **kwargs)

        return record

    for solve in (solve_ratio_trace, _solve_factor):
        monkeypatch.setattr(mcsda.discriminant, solve.__name__, recording(solve))
    ds = separable(rng, dims=dims, n_classes=3, per_class=8)
    if method == "lda":
        sub = 1 if positive else 2  # at most C - 1
    else:
        sub = 3 if method == "csda" else (2,) * len(dims)
    model = _fit_engine(ds, method, positive, sub, max_iter, 0.01)
    assert model.fit_report.objective_trace[-1] == _criterion(
        ds, method, positive, model.projections
    )
    want = _last_scatters(ds, method, positive, model.projections)
    solve, a, b = calls[-1]
    assert np.array_equal(np.tril(b), np.tril(want.denominator))
    # lda, and mda on one-mode data (the same criterion), are solved
    # through the factor of their numerator, the criterion's stack, whose
    # Gram is the public numerator; every other pencil by dsygvx
    factored = method == "lda" or (method == "mda" and len(dims) == 1)
    assert solve is (_solve_factor if factored else solve_ratio_trace)
    if factored:
        factor = mcsda.discriminant._criterion(ds, method, positive)[2].T
        assert np.array_equal(a, factor)
        a = mcsda.discriminant._gram(factor)
    assert np.array_equal(np.tril(a), np.tril(want.numerator))


def test_objective_trace_with_a_nearly_singular_denominator(rng):
    # four positives and a tiny ridge: the in-class scatter of the last
    # mode is nearly singular on the span of its solution, where
    # tr(W^T B W) loses most of its digits to cancellation
    ds = random_dataset(rng, dims=(12, 10), n_classes=6, per_class=4)
    for c in (1, 2, 3):
        model = _fit_engine(ds, "mcsda", c, (8, 8), 5, 1e-6)
        assert model.fit_report.objective_trace[-1] == class_specific_objective(
            ds, c, model.projections
        )


ONE_VS_REST_FITS = """
import sys
import numpy as np
from mcsda import SynthSpec, TrainConfig, fit_one_vs_rest, synth_generate
spec = SynthSpec((10, 8, 6), 6, 40, class_mean_scale=1, noise_sigma=2, seed=7)
data, out = synth_generate(spec), {}
for method, sub in [("csda", 20), ("mcsda", (4, 4, 3))]:
    for c, model in enumerate(fit_one_vs_rest(data, method, TrainConfig(sub)), start=1):
        report = model.fit_report
        out[f"{method}{c}"] = [report.iterations_run, report.converged]
        out.update({f"{method}{c}W{k}": w for k, w in enumerate(model.projections)})
np.savez(sys.argv[1], **out)
"""


def test_fits_agree_across_blas_thread_counts(tmp_path):
    # a fit's bytes may change with the BLAS thread count (csda's do), but
    # not its subspaces beyond rounding, its sweep count or its stop
    src = Path(__file__).resolve().parents[1] / "src"
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        path = tmp_path / f"threads{threads}.npz"
        proc = subprocess.run(
            [sys.executable, "-c", ONE_VS_REST_FITS, str(path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(dict(np.load(path)))
    one, two = runs
    assert one.keys() == two.keys() and len(one) == 6 * (2 + 1 + 3)
    for key in one:
        if "W" in key:
            assert subspace_angles(one[key], two[key]).max() < 1e-8, key
        else:
            assert np.array_equal(one[key], two[key]), key
