"""Model directory round trips and format diagnostics."""

import json

import numpy as np
import pytest

from mcsda import (
    DatasetFormatError,
    LabeledDataset,
    TrainConfig,
    fit_class_specific,
    fit_csda,
    fit_lda,
    fit_mcsda,
    fit_mda,
    load_model,
    save_model,
    score_batch,
)

from conftest import random_dataset


def fitted(rng, method):
    if method in ("csda", "lda"):
        ds = random_dataset(rng, dims=(6,), n_classes=3, per_class=8)
        cfg = TrainConfig(subspace_dims=2)
        return fit_csda(ds, 1, cfg) if method == "csda" else fit_lda(ds, cfg)
    ds = random_dataset(rng, dims=(4, 3), n_classes=3, per_class=8)
    cfg = TrainConfig(subspace_dims=(2, 2), max_iter=5)
    return fit_mcsda(ds, 1, cfg) if method == "mcsda" else fit_mda(ds, cfg)


def assert_models_equal(a, b):
    assert a.method == b.method
    assert a.input_dims == b.input_dims
    assert a.subspace_dims == b.subspace_dims
    assert a.positive_class == b.positive_class
    assert len(a.projections) == len(b.projections)
    for wa, wb in zip(a.projections, b.projections):
        assert np.array_equal(wa, wb)
    if a.reference_mean is None:
        assert b.reference_mean is None
    else:
        assert np.array_equal(a.reference_mean, b.reference_mean)
    if a.class_means is None:
        assert b.class_means is None
    else:
        assert np.array_equal(a.class_means, b.class_means)
    assert a.config == b.config
    assert a.fit_report.objective_trace == b.fit_report.objective_trace
    assert a.fit_report.convergence_trace == b.fit_report.convergence_trace
    assert a.fit_report.iterations_run == b.fit_report.iterations_run
    assert a.fit_report.converged == b.fit_report.converged
    assert a.fit_report.parameter_count == b.fit_report.parameter_count


@pytest.mark.parametrize("method", ["csda", "lda", "mcsda", "mda"])
def test_roundtrip_bit_exact(rng, method, tmp_path):
    model = fitted(rng, method)
    save_model(model, tmp_path / "m")
    assert_models_equal(model, load_model(tmp_path / "m"))


def test_roundtrip_wrapped_method(rng, tmp_path):
    # the lda wrapper carries both a reference mean and class means
    ds = random_dataset(rng, dims=(5,), n_classes=3, per_class=8)
    model = fit_class_specific(ds, "lda", 2, TrainConfig(subspace_dims=1))
    save_model(model, tmp_path / "m")
    loaded = load_model(tmp_path / "m")
    assert loaded.positive_class == 2
    assert np.array_equal(loaded.reference_mean, model.reference_mean)
    assert np.array_equal(loaded.class_means, model.class_means)


def test_resave_is_byte_identical(rng, tmp_path):
    model = fitted(rng, "mcsda")
    save_model(model, tmp_path / "a")
    save_model(load_model(tmp_path / "a"), tmp_path / "b")
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_vector_subspace_dims_list_loads_as_the_fit_s_scalar(rng, tmp_path):
    model = fitted(rng, "csda")
    save_model(model, tmp_path / "a")
    manifest = tmp_path / "a" / "model.json"
    doc = json.loads(manifest.read_text())
    doc["subspace_dims"] = [2]
    manifest.write_text(json.dumps(doc))
    loaded = load_model(tmp_path / "a")
    assert loaded.subspace_dims == model.subspace_dims == 2
    save_model(loaded, tmp_path / "b")
    assert json.loads((tmp_path / "b" / "model.json").read_text())["subspace_dims"] == 2


def test_one_positive_sample_round_trips_an_infinite_objective(rng, tmp_path):
    # one positive sample leaves the in-class scatter zero, so every sweep's
    # objective is inf; model.json spells it Infinity, and it loads back
    ds = random_dataset(rng, dims=(4, 3), n_classes=3, per_class=8)
    keep = np.r_[0, 8:24]
    ds = LabeledDataset(samples=ds.samples[keep], labels=ds.labels[keep], n_classes=3)
    for name, model in [
        ("csda", fit_csda(ds, 1, TrainConfig(subspace_dims=2))),
        ("mcsda", fit_mcsda(ds, 1, TrainConfig(subspace_dims=(2, 2), max_iter=3))),
    ]:
        assert model.fit_report.objective_trace == [np.inf] * model.fit_report.iterations_run
        save_model(model, tmp_path / name)
        assert "Infinity" in (tmp_path / name / "model.json").read_text()
        loaded = load_model(tmp_path / name)
        assert_models_equal(model, loaded)
        assert np.array_equal(score_batch(loaded, ds.samples), score_batch(model, ds.samples))


def test_projection_files_are_fortran_float64(rng, tmp_path):
    model = fitted(rng, "mcsda")
    save_model(model, tmp_path / "m")
    doc = json.loads((tmp_path / "m" / "model.json").read_text())
    assert [e["file"] for e in doc["projections"]] == ["W1.bin", "W2.bin"]
    for entry, w in zip(doc["projections"], model.projections):
        assert (entry["rows"], entry["cols"]) == w.shape
        raw = (tmp_path / "m" / entry["file"]).read_bytes()
        assert raw == w.ravel(order="F").astype("<f8").tobytes()
    assert (tmp_path / "m" / "mean.bin").read_bytes() == model.reference_mean.ravel(
        order="F"
    ).astype("<f8").tobytes()


def test_overwrite_refused_without_force(rng, tmp_path):
    model = fitted(rng, "csda")
    save_model(model, tmp_path / "m")
    with pytest.raises(FileExistsError, match="refusing to overwrite"):
        save_model(model, tmp_path / "m")
    save_model(model, tmp_path / "m", force=True)
    assert_models_equal(model, load_model(tmp_path / "m"))


def test_missing_manifest(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(FileNotFoundError, match="model.json"):
        load_model(tmp_path / "empty")


def test_rejects_unknown_version(rng, tmp_path):
    model = fitted(rng, "csda")
    save_model(model, tmp_path / "m")
    manifest = tmp_path / "m" / "model.json"
    doc = json.loads(manifest.read_text())
    doc["version"] = 99
    manifest.write_text(json.dumps(doc))
    with pytest.raises(DatasetFormatError, match="unsupported version 99"):
        load_model(tmp_path / "m")


def test_rejects_unknown_method(rng, tmp_path):
    model = fitted(rng, "csda")
    save_model(model, tmp_path / "m")
    manifest = tmp_path / "m" / "model.json"
    doc = json.loads(manifest.read_text())
    doc["method"] = "pca"
    manifest.write_text(json.dumps(doc))
    with pytest.raises(DatasetFormatError, match="unknown method 'pca'"):
        load_model(tmp_path / "m")


def test_rejects_invalid_json(rng, tmp_path):
    model = fitted(rng, "csda")
    save_model(model, tmp_path / "m")
    (tmp_path / "m" / "model.json").write_text("{not json")
    with pytest.raises(DatasetFormatError, match="invalid JSON"):
        load_model(tmp_path / "m")


def test_truncated_projection_file(rng, tmp_path):
    model = fitted(rng, "mcsda")
    save_model(model, tmp_path / "m")
    w_path = tmp_path / "m" / "W1.bin"
    raw = w_path.read_bytes()
    w_path.write_bytes(raw[:-8])
    with pytest.raises(DatasetFormatError, match="expected 64 bytes, found 56"):
        load_model(tmp_path / "m")


def test_missing_projection_file(rng, tmp_path):
    model = fitted(rng, "mcsda")
    save_model(model, tmp_path / "m")
    (tmp_path / "m" / "W2.bin").unlink()
    with pytest.raises(FileNotFoundError, match="W2.bin"):
        load_model(tmp_path / "m")


def test_manifest_written_last(rng, tmp_path, monkeypatch):
    # model.json is the staging directory's last file; a crash at its
    # write leaves no model directory, and nothing beside it
    import mcsda.model_io as mio

    model = fitted(rng, "csda")
    written = []
    real_write, real_write_text = mio._write_array, mio.Path.write_text

    def record(path, array):
        written.append(path.name)
        real_write(path, array)

    def boom(self, *args, **kwargs):
        written.append(self.name)
        if self.name == "model.json":
            raise RuntimeError("disk full")
        return real_write_text(self, *args, **kwargs)

    monkeypatch.setattr(mio, "_write_array", record)
    monkeypatch.setattr(mio.Path, "write_text", boom)
    with pytest.raises(RuntimeError, match="disk full"):
        save_model(model, tmp_path / "m")
    monkeypatch.undo()
    assert written == ["W1.bin", "mean.bin", "model.json"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "first, second", [("mcsda", "csda"), ("csda", "mda"), ("mda", "mcsda")]
)
def test_force_overwrite_leaves_only_listed_files(rng, tmp_path, first, second):
    root = tmp_path / "m"
    save_model(fitted(rng, first), root)
    model = fitted(rng, second)
    save_model(model, root, force=True)
    assert_models_equal(load_model(root), model)
    doc = json.loads((root / "model.json").read_text())
    listed = {entry["file"] for entry in doc["projections"]}
    listed |= {doc[key]["file"] for key in ("reference_mean", "class_means") if doc[key]}
    assert sorted(p.name for p in root.iterdir()) == sorted(listed | {"model.json"})
    # nothing is left beside the model directory either
    assert [p.name for p in tmp_path.iterdir()] == ["m"]


def test_save_refuses_a_nonempty_directory_without_its_manifest(rng, tmp_path):
    # a forced save replaces the whole directory, so it must never take
    # over one that holds something other than its own kind
    from mcsda import save_dataset

    ds = random_dataset(rng, dims=(4, 3), n_classes=3, per_class=2)
    save_dataset(ds, tmp_path / "ds")
    save_model(fitted(rng, "mcsda"), tmp_path / "m")
    (tmp_path / "loose").mkdir()
    (tmp_path / "loose" / "notes.txt").write_text("keep me")
    for target in ("ds", "loose"):
        with pytest.raises(FileExistsError, match="holds no model.json"):
            save_model(fitted(rng, "mcsda"), tmp_path / target, force=True)
    with pytest.raises(FileExistsError, match="holds no manifest.json"):
        save_dataset(ds, tmp_path / "m", force=True)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds", "loose", "m"]
    assert sorted(p.name for p in (tmp_path / "ds").iterdir()) == [
        "data.bin", "labels.csv", "manifest.json"
    ]
    assert (tmp_path / "loose" / "notes.txt").read_text() == "keep me"
    load_model(tmp_path / "m")


def test_interrupted_force_overwrite_keeps_old_model(rng, tmp_path, monkeypatch):
    # the save dies after writing W1.bin of a model with the same W
    # shapes: the old model must still load, byte for byte, and nothing
    # may be left beside it
    import mcsda.model_io as mio

    root = tmp_path / "m"
    old = fitted(rng, "mcsda")
    save_model(old, root)
    before = {p.name: p.read_bytes() for p in root.iterdir()}
    real_write = mio._write_array
    calls = []

    def fail_second(path, array):
        calls.append(path.name)
        if len(calls) == 2:
            raise RuntimeError("disk full")
        real_write(path, array)

    monkeypatch.setattr(mio, "_write_array", fail_second)
    with pytest.raises(RuntimeError, match="disk full"):
        save_model(fitted(rng, "mcsda"), root, force=True)
    monkeypatch.undo()
    assert calls == ["W1.bin", "W2.bin"]
    assert [p.name for p in tmp_path.iterdir()] == ["m"]
    assert {p.name: p.read_bytes() for p in root.iterdir()} == before
    assert_models_equal(load_model(root), old)


@pytest.mark.parametrize(
    "damage",
    [
        lambda doc: doc.pop("input_dims"),
        lambda doc: doc["fit_report"].pop("converged"),
        lambda doc: doc["projections"][0].pop("rows"),
    ],
    ids=["input_dims", "fit_report_field", "projection_rows"],
)
def test_malformed_manifest_names_the_file(rng, tmp_path, damage):
    model = fitted(rng, "mcsda")
    save_model(model, tmp_path / "m")
    manifest = tmp_path / "m" / "model.json"
    doc = json.loads(manifest.read_text())
    damage(doc)
    manifest.write_text(json.dumps(doc))
    with pytest.raises(DatasetFormatError, match="model.json: missing or malformed"):
        load_model(tmp_path / "m")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["W1.bin", "mean.bin", "class_means.bin"])
def test_nonfinite_matrix_file_names_the_file(rng, tmp_path, name, value):
    # the wrapped lda model writes all three kinds of matrix file
    ds = random_dataset(rng, dims=(5,), n_classes=3, per_class=8)
    save_model(fit_class_specific(ds, "lda", 2, TrainConfig(subspace_dims=1)), tmp_path / "m")
    path = tmp_path / "m" / name
    values = np.fromfile(path, dtype="<f8")
    values[-1] = value
    values.tofile(path)
    with pytest.raises(DatasetFormatError, match=rf"{name}: holds a NaN or infinite value"):
        load_model(tmp_path / "m")
