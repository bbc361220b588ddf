"""Batched scoring: score_batch against an independent per-sample
reference, its error contract, and the one-sample wrappers on top."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsda import (
    DiscriminantModel,
    FitReport,
    TrainConfig,
    multi_project,
    project,
    score_batch,
    similarity_score,
)


def random_model(rng, method, dims, sub):
    """A model with random projections and reference mean; vector
    methods take one (prod(dims), d) matrix over the flattened sample."""
    if method in ("lda", "csda"):
        projections = [rng.normal(size=(int(np.prod(dims)), sub))]
    else:
        projections = [rng.normal(size=(i, d)) for i, d in zip(dims, sub)]
    return DiscriminantModel(
        method=method,
        projections=projections,
        input_dims=tuple(dims),
        subspace_dims=sub,
        reference_mean=rng.normal(size=dims),
        positive_class=1,
        config=TrainConfig(subspace_dims=sub),
        fit_report=FitReport([0.0], [0.0], 1, True, 0.0, 0),
    )


def score_by_sample(model, samples):
    """Per-sample reference: Fortran flattening times W for vector
    methods, multi_project for tensor methods."""
    if model.method in ("lda", "csda"):
        w = model.projections[0]

        def proj(x):
            return w.T @ x.ravel(order="F")
    else:

        def proj(x):
            return multi_project(x, model.projections)

    ref = proj(model.reference_mean)
    return np.array(
        [1.0 / (1.0 + np.linalg.norm(proj(s) - ref)) for s in samples]
    )


@st.composite
def scoring_cases(draw):
    method = draw(st.sampled_from(["lda", "csda", "mda", "mcsda"]))
    dims = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    if method in ("lda", "csda"):
        sub = draw(st.integers(1, int(np.prod(dims))))
    else:
        sub = tuple(draw(st.integers(1, i)) for i in dims)
    n = draw(st.integers(0, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    return method, dims, sub, n, seed


@settings(deadline=None, max_examples=80)
@given(case=scoring_cases())
def test_score_batch_matches_per_sample_reference(case):
    method, dims, sub, n, seed = case
    rng = np.random.default_rng(seed)
    model = random_model(rng, method, dims, sub)
    samples = rng.normal(size=(n, *dims))
    got = score_batch(model, samples)
    expected = score_by_sample(model, samples)
    assert got.shape == (n,)
    if n:
        assert np.max(np.abs(got - expected)) <= 1e-12
    assert np.array_equal(
        np.argsort(-got, kind="stable"), np.argsort(-expected, kind="stable")
    )
    if n:
        assert similarity_score(model, samples[0]) == pytest.approx(
            expected[0], abs=1e-12
        )


@pytest.mark.parametrize("method", ["csda", "mcsda"])
def test_score_batch_errors(rng, method):
    sub = 2 if method == "csda" else (2, 2)
    model = random_model(rng, method, (4, 3), sub)
    with pytest.raises(ValueError, match="does not match"):
        score_batch(model, np.zeros((5, 3, 4)))
    with pytest.raises(ValueError, match="does not match"):
        score_batch(model, np.zeros((4, 3)))
    empty = score_batch(model, np.zeros((0, 4, 3)))
    assert empty.shape == (0,)
    model.reference_mean = None
    for score in (
        lambda: score_batch(model, np.zeros((2, 4, 3))),
        lambda: similarity_score(model, np.zeros((4, 3))),
    ):
        with pytest.raises(
            RuntimeError,
            match="model has no reference mean; train class-specifically or "
            "one-vs-rest to enable scoring",
        ):
            score()


def test_project_wrapper_keeps_output_shape(rng):
    vector = random_model(rng, "csda", (4, 3), 5)
    tensor = random_model(rng, "mcsda", (4, 3), (2, 3))
    x = rng.normal(size=(4, 3))
    assert project(vector, x).shape == (5,)
    assert np.allclose(
        project(vector, x), vector.projections[0].T @ x.ravel(order="F"),
        rtol=0, atol=1e-12,
    )
    assert project(tensor, x).shape == (2, 3)
    assert np.array_equal(project(tensor, x), multi_project(x, tensor.projections))

