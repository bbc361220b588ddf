"""Bit-exact round trips of every ``.bin`` file, for datasets and models
of one to four modes, over values that a lossy codec would change:
signed zeros, subnormals and magnitudes near the float64 limits."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mcsda import (
    DiscriminantModel,
    FitReport,
    LabeledDataset,
    TrainConfig,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
)

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-308, 1e300, -1e300, 1.0]
values = st.one_of(
    st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False)
)
dims_st = st.lists(st.integers(1, 3), min_size=1, max_size=4).map(tuple)


def float_arrays(shape):
    return arrays(np.float64, shape, elements=values)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def datasets(draw):
    dims = draw(dims_st)
    count = draw(st.integers(0, 4))
    n_classes = draw(st.integers(1, 3))
    labels = draw(st.lists(st.integers(1, n_classes), min_size=count, max_size=count))
    samples = draw(float_arrays((count, *dims)))
    return LabeledDataset(samples=samples, labels=np.array(labels), n_classes=n_classes)


@st.composite
def models(draw):
    dims = draw(dims_st)
    sub = tuple(draw(st.integers(1, i)) for i in dims)
    return DiscriminantModel(
        method="mda",
        projections=[draw(float_arrays((i, d))) for i, d in zip(dims, sub)],
        input_dims=dims,
        subspace_dims=sub,
        reference_mean=draw(float_arrays(dims)),
        positive_class=1,
        config=TrainConfig(subspace_dims=sub),
        fit_report=FitReport([0.0], [0.0], 1, True, 0.0, 0),
        class_means=draw(float_arrays((draw(st.integers(1, 3)), *dims))),
    )


@settings(deadline=None, max_examples=60)
@given(data=datasets())
def test_dataset_roundtrip_is_bit_exact(data):
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(data, Path(tmp) / "ds")
        back = load_dataset(Path(tmp) / "ds")
    assert same_bits(back.samples, data.samples)
    assert back.labels.tolist() == data.labels.tolist()


@settings(deadline=None, max_examples=60)
@given(model=models())
def test_model_roundtrip_is_bit_exact(model):
    with tempfile.TemporaryDirectory() as tmp:
        save_model(model, Path(tmp) / "m")
        assert sorted(p.name for p in (Path(tmp) / "m").iterdir()) == sorted(
            [f"W{k}.bin" for k in range(1, len(model.input_dims) + 1)]
            + ["class_means.bin", "mean.bin", "model.json"]
        )
        back = load_model(Path(tmp) / "m")
    assert len(back.projections) == len(model.projections)
    for got, want in zip(back.projections, model.projections):
        assert same_bits(got, want)
    assert same_bits(back.reference_mean, model.reference_mean)
    assert same_bits(back.class_means, model.class_means)
