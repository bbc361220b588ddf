"""Bit-exact round trips of every ``.bin`` file, for datasets and models
of one to four modes, over values that a lossy codec would change:
signed zeros, subnormals and magnitudes near the float64 limits."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mcsda import (
    DiscriminantModel,
    FitReport,
    LabeledDataset,
    SynthSpec,
    TrainConfig,
    fit_class_specific,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
    synth_generate,
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


# numpy scalars, as np.unique(labels) or array arithmetic yield them, are
# accepted by the rules; the records keep the plain int or float, which
# JSON can write
SMALL = synth_generate(SynthSpec((4, 3), 3, 5, seed=2))


def fit_small(positive=1, **config):
    return fit_class_specific(SMALL, "csda", positive, TrainConfig(2, **config))


@pytest.mark.parametrize(
    "make",
    [
        lambda: fit_small(positive=np.int64(2)),
        lambda: fit_small(max_iter=np.int64(3)),
        lambda: fit_small(reg_lambda=np.float32(0.01)),
        lambda: LabeledDataset(SMALL.samples, SMALL.labels, n_classes=np.int64(3)),
        lambda: synth_generate(SynthSpec((4, 3), np.int64(2), 5)),
    ],
    ids=["model_positive_class", "model_max_iter", "model_reg_lambda",
         "dataset_n_classes", "synth_n_classes"],
)
def test_numpy_scalar_settings_save_and_reload(tmp_path, make):
    record = make()
    if isinstance(record, LabeledDataset):
        save_dataset(record, tmp_path / "out")
        back = load_dataset(tmp_path / "out")
        assert back.n_classes == record.n_classes and type(record.n_classes) is int
        assert same_bits(back.samples, record.samples)
    else:
        save_model(record, tmp_path / "out")
        back = load_model(tmp_path / "out")
        assert back.config == record.config and back.positive_class == record.positive_class
        assert type(record.positive_class) is int and type(record.config.max_iter) is int
        assert type(record.config.reg_lambda) is float
        assert same_bits(back.projections[0], record.projections[0])
