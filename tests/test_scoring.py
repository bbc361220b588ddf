"""Batched scoring: score_batch and the all-models score matrix against
an independent per-sample reference, the error contract, and the
one-sample wrappers on top."""

import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsda import (
    DiscriminantModel,
    FitReport,
    LabeledDataset,
    TrainConfig,
    load_dataset,
    multi_project,
    project,
    save_dataset,
    score_batch,
    similarity_score,
)
from mcsda.discriminant import _score_matrix


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


def stack_in_layout(rng, layout, n, dims):
    """A (n, *dims) stack in C order, in file order (as load_dataset
    returns it), or as a strided view into a larger array."""
    if layout == "sliced":
        return rng.normal(size=(2 * n, *dims))[::2]
    samples = rng.normal(size=(n, *dims))
    if layout == "C":
        return samples
    with tempfile.TemporaryDirectory() as root:
        save_dataset(LabeledDataset(samples, np.ones(n, dtype=np.int64), 1), root, force=True)
        loaded = load_dataset(root).samples
    assert np.array_equal(loaded, samples)
    return loaded


@st.composite
def model_set_cases(draw):
    dims = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    methods = draw(
        st.lists(st.sampled_from(["lda", "csda", "mda", "mcsda"]), min_size=1, max_size=5)
    )
    subs = [
        draw(st.integers(1, int(np.prod(dims))))
        if method in ("lda", "csda")
        else tuple(draw(st.integers(1, i)) for i in dims)
        for method in methods
    ]
    layout = draw(st.sampled_from(["C", "file", "sliced"]))
    n = draw(st.integers(0, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    return dims, list(zip(methods, subs)), layout, n, seed


@settings(deadline=None, max_examples=80)
@given(case=model_set_cases())
def test_score_matrix_matches_per_model_per_sample_reference(case):
    dims, specs, layout, n, seed = case
    rng = np.random.default_rng(seed)
    models = [random_model(rng, method, dims, sub) for method, sub in specs]
    samples = stack_in_layout(rng, layout, n, dims)
    got = _score_matrix(models, samples)
    assert got.shape == (len(models), n)
    for row, model in zip(got, models):
        expected = score_by_sample(model, samples)
        np.testing.assert_allclose(row, expected, rtol=1e-12, atol=0)
        assert np.array_equal(
            np.argsort(-row, kind="stable"), np.argsort(-expected, kind="stable")
        )


@pytest.mark.parametrize("layout", ["C", "file"])
def test_score_matrix_holds_less_than_a_stack_copy(rng, layout):
    # one pass over the stack, without copying it, and in slabs: the
    # product of the first contraction for ten mcsda models would
    # otherwise be 2.5 (file order) or 3.3 (C order) times the stack
    models = [random_model(rng, "mcsda", (20, 15), (5, 5)) for _ in range(10)]
    samples = stack_in_layout(rng, layout, 400, (20, 15))
    _score_matrix(models, samples)
    tracemalloc.start()
    try:
        _score_matrix(models, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < samples.nbytes


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

