"""Dataset container, file format, splits and synthetic generation."""

import json
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mcsda import (
    DatasetFormatError,
    DatasetManifest,
    LabeledDataset,
    SynthSpec,
    load_dataset,
    save_dataset,
    stratified_split,
    synth_generate,
)
from mcsda.datasets import _check_real

from conftest import random_dataset


# ---------------------------------------------------------------------------
# container


def test_labels_validated():
    samples = np.zeros((3, 2))
    with pytest.raises(ValueError, match="1..2"):
        LabeledDataset(samples=samples, labels=np.array([1, 2, 3]), n_classes=2)
    with pytest.raises(ValueError, match="labels"):
        LabeledDataset(samples=samples, labels=np.array([1, 2]), n_classes=2)


def test_class_counts():
    ds = LabeledDataset(
        samples=np.zeros((4, 2)), labels=np.array([1, 1, 3, 3]), n_classes=3
    )
    assert ds.class_counts().tolist() == [2, 0, 2]
    assert ds.class_indices(3).tolist() == [2, 3]


# ---------------------------------------------------------------------------
# file format


def test_roundtrip_bit_exact(tmp_path, rng):
    ds = random_dataset(rng, dims=(3, 4, 2), n_classes=3, per_class=5)
    save_dataset(ds, tmp_path / "ds")
    back = load_dataset(tmp_path / "ds")
    assert back.samples.tobytes() == ds.samples.tobytes()
    assert back.labels.tolist() == ds.labels.tolist()
    assert back.n_classes == ds.n_classes


def test_data_bin_layout(tmp_path):
    # 2 samples of dims (2, 3): data.bin is 2 * 6 * 8 = 96 bytes, each
    # sample flattened first-index-fastest
    samples = np.arange(12.0).reshape(2, 2, 3)
    ds = LabeledDataset(samples=samples, labels=np.array([1, 2]), n_classes=2)
    save_dataset(ds, tmp_path / "ds")
    raw = (tmp_path / "ds" / "data.bin").read_bytes()
    assert len(raw) == 96
    first = np.frombuffer(raw, dtype="<f8")[:6]
    assert np.array_equal(first, samples[0].ravel(order="F"))
    manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
    assert manifest == {
        "version": 1,
        "dims": [2, 3],
        "count": 2,
        "n_classes": 2,
        "dtype": "float64-le",
        "data_file": "data.bin",
        "label_file": "labels.csv",
    }


def test_overwrite_refused(tmp_path, rng):
    ds = random_dataset(rng, dims=(2,), n_classes=2, per_class=2)
    save_dataset(ds, tmp_path / "ds")
    with pytest.raises(FileExistsError, match="force"):
        save_dataset(ds, tmp_path / "ds")
    save_dataset(ds, tmp_path / "ds", force=True)


def test_saved_directory_has_plain_mkdir_mode(tmp_path, rng):
    ds = random_dataset(rng, dims=(2,), n_classes=2, per_class=2)
    (tmp_path / "plain").mkdir()
    mode = (tmp_path / "plain").stat().st_mode
    save_dataset(ds, tmp_path / "ds")
    assert (tmp_path / "ds").stat().st_mode == mode
    save_dataset(ds, tmp_path / "ds", force=True)
    assert (tmp_path / "ds").stat().st_mode == mode


def test_truncated_data_bin(tmp_path, rng):
    ds = random_dataset(rng, dims=(2, 3), n_classes=2, per_class=2)
    save_dataset(ds, tmp_path / "ds")
    data_path = tmp_path / "ds" / "data.bin"
    data_path.write_bytes(data_path.read_bytes()[:-8])
    with pytest.raises(DatasetFormatError, match="expected 192 bytes, found 184"):
        load_dataset(tmp_path / "ds")


def test_load_holds_at_most_two_sample_copies(tmp_path, rng):
    # the file is read straight into one array, then reordered into the
    # sample-major stack: no bytes object and float copy beside them
    ds = random_dataset(rng, dims=(20, 15), n_classes=4, per_class=100)
    save_dataset(ds, tmp_path / "ds")
    tracemalloc.start()
    try:
        loaded = load_dataset(tmp_path / "ds")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.samples, ds.samples)
    assert peak < 2.5 * ds.samples.nbytes

def test_load_copies_no_sample_stack(tmp_path, rng):
    # the samples are a view of the array data.bin is read into, in the
    # file's own order: each sample contiguous and Fortran-ordered
    ds = random_dataset(rng, dims=(20, 15), n_classes=4, per_class=100)
    save_dataset(ds, tmp_path / "ds")
    tracemalloc.start()
    try:
        loaded = load_dataset(tmp_path / "ds")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.samples, ds.samples)
    assert loaded.samples[0].flags.f_contiguous
    assert peak < 1.5 * ds.samples.nbytes


def test_missing_files(tmp_path, rng):
    with pytest.raises(FileNotFoundError, match="manifest.json"):
        load_dataset(tmp_path / "nowhere")
    ds = random_dataset(rng, dims=(2,), n_classes=2, per_class=2)
    save_dataset(ds, tmp_path / "ds")
    (tmp_path / "ds" / "data.bin").unlink()
    with pytest.raises(FileNotFoundError, match="data.bin"):
        load_dataset(tmp_path / "ds")


def test_bad_labels(tmp_path, rng):
    ds = random_dataset(rng, dims=(2,), n_classes=2, per_class=2)
    save_dataset(ds, tmp_path / "ds")
    labels_path = tmp_path / "ds" / "labels.csv"

    labels_path.write_text("1\nx\n1\n2\n")
    with pytest.raises(DatasetFormatError, match="line 2: not an integer: 'x'"):
        load_dataset(tmp_path / "ds")

    labels_path.write_text("1\n7\n1\n2\n")
    with pytest.raises(DatasetFormatError, match="line 2: label 7 outside 1..2"):
        load_dataset(tmp_path / "ds")

    labels_path.write_text("1\n2\n")
    with pytest.raises(DatasetFormatError, match="has 2 labels"):
        load_dataset(tmp_path / "ds")


def test_bad_label_names_its_line_in_the_file(tmp_path, rng):
    # blank lines are skipped but still counted: 'x' sits on line 5
    ds = random_dataset(rng, dims=(2,), n_classes=2, per_class=1)
    save_dataset(ds, tmp_path / "ds")
    labels_path = tmp_path / "ds" / "labels.csv"
    labels_path.write_text("1\n\n2\n\nx\n")
    with pytest.raises(DatasetFormatError, match="has 3 labels"):
        load_dataset(tmp_path / "ds")
    labels_path.write_text("1\n\n\n  \nx\n")
    with pytest.raises(DatasetFormatError, match="line 5: not an integer: 'x'"):
        load_dataset(tmp_path / "ds")
    labels_path.write_text("\n2\n\n3\n")
    with pytest.raises(DatasetFormatError, match="line 4: label 3 outside 1..2"):
        load_dataset(tmp_path / "ds")
    labels_path.write_text("\n 2 \n\n+1\n")
    assert load_dataset(tmp_path / "ds").labels.tolist() == [2, 1]


@pytest.mark.parametrize("row", [" 2 ", "+2", "02", "1_0", "2.0", "1e0", "0x2", "-1", "9" * 30])
def test_label_rows_parse_as_int_does(tmp_path, rng, row):
    ds = random_dataset(rng, dims=(2,), n_classes=10, per_class=1)
    save_dataset(ds, tmp_path / "ds")
    (tmp_path / "ds" / "labels.csv").write_text("".join(
        f"{r}\n" for r in ["1"] * 9 + [row]
    ))
    try:
        value = int(row)
    except ValueError:
        value = None
    if value is None or not 1 <= value <= 10:
        with pytest.raises(DatasetFormatError, match="line 10: "):
            load_dataset(tmp_path / "ds")
    else:
        assert load_dataset(tmp_path / "ds").labels[-1] == value


def test_bad_manifest(tmp_path, rng):
    ds = random_dataset(rng, dims=(2,), n_classes=2, per_class=2)
    save_dataset(ds, tmp_path / "ds")
    manifest_path = tmp_path / "ds" / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["version"] = 2
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(DatasetFormatError, match="version"):
        load_dataset(tmp_path / "ds")


# ---------------------------------------------------------------------------
# splitting


def test_split_counts(rng):
    ds = random_dataset(rng, dims=(2,), n_classes=3, per_class=10)
    train, test = stratified_split(ds, 0.5, seed=1)
    assert train.class_counts().tolist() == [5, 5, 5]
    assert test.class_counts().tolist() == [5, 5, 5]

    train, test = stratified_split(ds, 0.1, seed=1)
    assert train.class_counts().tolist() == [1, 1, 1]
    assert test.class_counts().tolist() == [9, 9, 9]


def test_split_ceil_rule(rng):
    ds = random_dataset(rng, dims=(2,), n_classes=1, per_class=10)
    train, _ = stratified_split(ds, 0.25, seed=0)
    assert train.count == 3  # ceil(2.5)


def test_split_is_permutation(rng):
    ds = random_dataset(rng, dims=(3, 2), n_classes=2, per_class=7)
    train, test = stratified_split(ds, 0.4, seed=9)
    assert train.count + test.count == ds.count
    original = np.sort(ds.samples.reshape(ds.count, -1), axis=0)
    recombined = np.sort(
        np.concatenate([train.samples, test.samples]).reshape(ds.count, -1), axis=0
    )
    assert np.array_equal(original, recombined)


def test_split_deterministic(rng):
    ds = random_dataset(rng, dims=(2,), n_classes=2, per_class=8)
    a_train, a_test = stratified_split(ds, 0.5, seed=42)
    b_train, b_test = stratified_split(ds, 0.5, seed=42)
    assert np.array_equal(a_train.samples, b_train.samples)
    assert np.array_equal(a_test.samples, b_test.samples)


def test_split_golden_fixture():
    # frozen output of the PCG64-backed split for one seed
    samples = np.arange(20, dtype=float).reshape(10, 2)
    labels = np.array([1, 1, 1, 1, 2, 2, 2, 2, 3, 3])
    ds = LabeledDataset(samples=samples, labels=labels, n_classes=3)
    train, test = stratified_split(ds, 0.5, seed=20240601)
    train_rows = (train.samples[:, 0] // 2).astype(int).tolist()
    test_rows = (test.samples[:, 0] // 2).astype(int).tolist()
    assert train_rows == [0, 1, 5, 7, 9]
    assert test_rows == [2, 3, 4, 6, 8]
    assert train.labels.tolist() == [1, 1, 2, 2, 3]


@pytest.mark.parametrize(
    "fraction,seed,error",
    [
        ("0.5", 1, "fraction must be a real number, got '0.5'"),
        (True, 1, "fraction must be a real number, got True"),
        (0.5, 2.5, "seed must be an integer, got 2.5"),
        (0.5, -1, "seed must be >= 0, got -1"),
    ],
    ids=["string_fraction", "bool_fraction", "float_seed", "negative_seed"],
)
def test_split_rejects_mistyped_arguments(rng, fraction, seed, error):
    ds = random_dataset(rng, dims=(2,), n_classes=2, per_class=4)
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        stratified_split(ds, fraction, seed=seed)


def test_split_degenerate_fraction(rng):
    ds = random_dataset(rng, dims=(2,), n_classes=2, per_class=4)
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="fraction"):
            stratified_split(ds, bad, seed=0)


# ---------------------------------------------------------------------------
# synthetic generation


def test_synth_shapes_and_labels():
    spec = SynthSpec(dims=(4, 3), n_classes=3, samples_per_class=5, seed=1)
    ds = synth_generate(spec)
    assert ds.samples.shape == (15, 4, 3)
    assert ds.class_counts().tolist() == [5, 5, 5]


def test_synth_deterministic():
    spec = SynthSpec(dims=(3, 2), n_classes=2, samples_per_class=4, seed=99)
    a = synth_generate(spec)
    b = synth_generate(spec)
    assert a.samples.tobytes() == b.samples.tobytes()
    c = synth_generate(SynthSpec(dims=(3, 2), n_classes=2, samples_per_class=4, seed=100))
    assert a.samples.tobytes() != c.samples.tobytes()


def test_synth_zero_noise_collapses_to_means():
    spec = SynthSpec(
        dims=(3, 3), n_classes=2, samples_per_class=4, noise_sigma=0.0, seed=5
    )
    ds = synth_generate(spec)
    for c in (1, 2):
        block = ds.samples[ds.labels == c]
        assert np.array_equal(block, np.broadcast_to(block[0], block.shape))


def test_synth_within_class_variance():
    # sigma 1 noise on top of scale-10 means: pooled within-class variance
    # of entries should land near 1
    spec = SynthSpec(
        dims=(8, 6),
        n_classes=2,
        samples_per_class=100,
        class_mean_scale=10.0,
        noise_sigma=1.0,
        seed=21,
    )
    ds = synth_generate(spec)
    deviations = []
    for c in (1, 2):
        block = ds.samples[ds.labels == c]
        deviations.append(block - block.mean(axis=0))
    var = np.concatenate(deviations).var()
    assert 0.8 <= var <= 1.2


def test_synth_spec_validation():
    with pytest.raises(ValueError, match="dims"):
        SynthSpec(dims=(0, 2), n_classes=2, samples_per_class=3)
    with pytest.raises(ValueError, match="n_classes"):
        SynthSpec(dims=(2,), n_classes=0, samples_per_class=3)
    with pytest.raises(ValueError, match="^dims must be an integer, got 4.5$"):
        SynthSpec(dims=(4.5, 3), n_classes=2, samples_per_class=3)
    with pytest.raises(ValueError, match=r"^invalid dims \(\)$"):
        SynthSpec(dims=(), n_classes=2, samples_per_class=3)
    with pytest.raises(ValueError, match="^n_classes must be an integer, got 2.5$"):
        SynthSpec(dims=(2,), n_classes=2.5, samples_per_class=3)
    with pytest.raises(ValueError, match="noise_sigma"):
        SynthSpec(dims=(2,), n_classes=2, samples_per_class=3, noise_sigma=-1.0)
    # reals refuse a bool; a seed is a count >= 0, refused before any draw
    with pytest.raises(ValueError, match="^class_mean_scale must be a real number, got True$"):
        SynthSpec(dims=(2,), n_classes=2, samples_per_class=3, class_mean_scale=True)
    with pytest.raises(ValueError, match="^noise_sigma must be a real number, got True$"):
        SynthSpec(dims=(2,), n_classes=2, samples_per_class=3, noise_sigma=True)
    with pytest.raises(ValueError, match="^seed must be an integer, got True$"):
        SynthSpec(dims=(2,), n_classes=2, samples_per_class=3, seed=True)
    with pytest.raises(ValueError, match="^seed must be an integer, got 2.5$"):
        SynthSpec(dims=(2,), n_classes=2, samples_per_class=3, seed=2.5)
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        SynthSpec(dims=(2,), n_classes=2, samples_per_class=3, seed=-1)


@pytest.mark.parametrize(
    "value,strict,error",
    [
        (True, False, "must be a real number, got True"),
        (np.True_, False, f"must be a real number, got {np.True_!r}"),
        ("1.0", False, "must be a real number, got '1.0'"),
        (None, False, "must be a real number, got None"),
        (np.nan, False, "must be finite and >= 0, got nan"),
        (np.inf, False, "must be finite and >= 0, got inf"),
        (-np.inf, False, "must be finite and >= 0, got -inf"),
        (-1e-300, False, "must be finite and >= 0, got -1e-300"),
        (0.0, True, "must be finite and > 0, got 0.0"),
        (np.float32(0), True, "must be finite and > 0, got 0.0"),
    ],
    ids=["bool", "numpy_bool", "string", "none", "nan", "inf", "-inf", "negative",
         "zero_strict", "float32_zero_strict"],
)
def test_real_rule_refuses(value, strict, error):
    with pytest.raises(ValueError, match=f"^x {re.escape(error)}$"):
        _check_real("x", value, 0, strict=strict)


@pytest.mark.parametrize(
    "value", [0, 0.0, 2, 0.5, np.float64(1e-300), np.float32(3.5), np.int64(7), Fraction(1, 3)]
)
def test_real_rule_accepts_and_casts_nothing(value):
    assert _check_real("x", value, 0) is value


# ---------------------------------------------------------------------------
# non-finite samples


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_sample_rejected(bad):
    samples = np.zeros((4, 2, 3))
    samples[2, 1, 0] = bad
    with pytest.raises(ValueError, match="sample 2 holds a NaN or infinite value"):
        LabeledDataset(samples=samples, labels=np.array([1, 1, 2, 2]), n_classes=2)


def test_load_rejects_nonfinite_sample(tmp_path, rng):
    ds = random_dataset(rng, dims=(3, 2), n_classes=2, per_class=3)
    save_dataset(ds, tmp_path / "d")
    data_bin = tmp_path / "d" / "data.bin"
    raw = bytearray(data_bin.read_bytes())
    offset = 4 * 6 * 8  # first value of sample 4
    raw[offset : offset + 8] = np.array([np.nan], dtype="<f8").tobytes()
    data_bin.write_bytes(bytes(raw))
    with pytest.raises(DatasetFormatError, match=r"data\.bin: sample 4 holds a NaN"):
        load_dataset(tmp_path / "d")


def snapshot(root):
    return {p.name: p.read_bytes() for p in root.iterdir()}


def test_interrupted_force_overwrite_keeps_old_dataset(tmp_path, rng, monkeypatch):
    # the save dies after writing data.bin, or at the rename that swaps the
    # new directory in: the old dataset must still load, byte for byte,
    # and nothing may be left beside it
    import mcsda.datasets as dsmod

    old = random_dataset(rng, dims=(2, 3), n_classes=2, per_class=2)
    save_dataset(old, tmp_path / "ds")
    before = snapshot(tmp_path / "ds")
    real_write, real_rename = dsmod._write_array, dsmod.os.rename

    def write_then_fail(path, array):
        real_write(path, array)
        raise RuntimeError("disk full")

    def fail_swap_in(src, dst):
        if Path(dst).name == "ds" and not Path(src).name.endswith("-old"):
            raise OSError("disk full")
        real_rename(src, dst)

    new = random_dataset(rng, dims=(2, 3), n_classes=2, per_class=2)
    for target, name, fake in (
        (dsmod, "_write_array", write_then_fail),
        (dsmod.os, "rename", fail_swap_in),
    ):
        monkeypatch.setattr(target, name, fake)
        with pytest.raises((RuntimeError, OSError), match="disk full"):
            save_dataset(new, tmp_path / "ds", force=True)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["ds"]
        assert snapshot(tmp_path / "ds") == before
        assert np.array_equal(load_dataset(tmp_path / "ds").samples, old.samples)
    # a failed fresh save leaves no directory at all
    monkeypatch.setattr(dsmod, "_write_array", write_then_fail)
    with pytest.raises(RuntimeError, match="disk full"):
        save_dataset(new, tmp_path / "fresh")
    assert [p.name for p in tmp_path.iterdir()] == ["ds"]


def finished_pid():
    """The pid of a child process that has exited and been reaped."""
    import subprocess
    import sys

    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


def test_next_save_removes_what_a_killed_save_left(tmp_path, rng):
    # a save killed mid-write leaves its stage (and, killed between the
    # two renames, the previous output set aside) beside the target: the
    # next save of that target removes the stage of a finished process,
    # and its aside once the target exists again
    ds = random_dataset(rng, dims=(2, 3), n_classes=2, per_class=2)
    pid = finished_pid()
    stale = tmp_path / f".ds.{pid}-0123abcd"
    aside = tmp_path / f".ds.{pid}-89abcdef-old"
    for debris in (stale, aside):
        debris.mkdir()
        (debris / "data.bin").write_bytes(b"partial")
    save_dataset(ds, tmp_path / "ds")
    # no target before this save: the aside may be the only copy
    assert sorted(p.name for p in tmp_path.iterdir()) == [aside.name, "ds"]
    save_dataset(ds, tmp_path / "ds", force=True)
    assert [p.name for p in tmp_path.iterdir()] == ["ds"]


def test_save_leaves_a_running_process_stage_alone(tmp_path, rng):
    import os

    ds = random_dataset(rng, dims=(2, 3), n_classes=2, per_class=2)
    live = tmp_path / f".ds.{os.getpid()}-0123abcd"
    live.mkdir()
    save_dataset(ds, tmp_path / "ds")
    save_dataset(ds, tmp_path / "ds", force=True)
    assert sorted(p.name for p in tmp_path.iterdir()) == [live.name, "ds"]


# ---------------------------------------------------------------------------
# input checks, each with its exception, message and CLI exit code


def test_samples_need_a_sample_axis():
    with pytest.raises(ValueError, match=r"^samples must be an array of shape \(count, \*dims\)$"):
        LabeledDataset(samples=np.zeros(3), labels=np.array([1, 1, 1]), n_classes=1)


def test_synth_spec_needs_a_sample_per_class(tmp_path, capsys):
    from mcsda.cli import main

    with pytest.raises(ValueError, match="^samples_per_class must be >= 1, got 0$"):
        SynthSpec(dims=(2,), n_classes=2, samples_per_class=0)
    code = main([
        "synth", "--dims", "2", "--classes", "2", "--per-class", "0",
        "--out", str(tmp_path / "ds"),
    ])
    assert code == 2
    assert capsys.readouterr().err == "usage error: samples_per_class must be >= 1, got 0\n"
    assert not (tmp_path / "ds").exists()


def damaged_dataset(tmp_path, rng, damage):
    """A saved dataset, with `damage` applied to its directory."""
    ds = random_dataset(rng, dims=(2, 3), n_classes=2, per_class=2)
    root = tmp_path / "ds"
    save_dataset(ds, root)
    damage(root)
    return root


def train_exit_code(root, tmp_path, capsys):
    """Exit code and stderr of `mcsda train` on the dataset at `root`."""
    from mcsda.cli import main

    capsys.readouterr()
    code = main([
        "train", "--data", str(root), "--method", "csda", "--dims", "1",
        "--positive-class", "1", "--out", str(tmp_path / "model"),
    ])
    return code, capsys.readouterr().err


def edit_manifest(**entries):
    def damage(root):
        path = root / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), **entries}))

    return damage


def test_manifest_with_another_dtype_tag(tmp_path, rng, capsys):
    root = damaged_dataset(tmp_path, rng, edit_manifest(dtype="float32-le"))
    message = (
        f"{root / 'manifest.json'}: unsupported dtype tag 'float32-le', expected 'float64-le'"
    )
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(root)
    assert str(err.value) == message
    assert train_exit_code(root, tmp_path, capsys) == (1, f"error: {message}\n")


@pytest.mark.parametrize("dims", [[], [2, 0]])
def test_manifest_with_invalid_dims(tmp_path, rng, capsys, dims):
    root = damaged_dataset(tmp_path, rng, edit_manifest(dims=dims))
    message = f"{root / 'manifest.json'}: invalid dims {dims}"
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(root)
    assert str(err.value) == message
    assert train_exit_code(root, tmp_path, capsys) == (1, f"error: {message}\n")


@pytest.mark.parametrize(
    "entries, message",
    [
        ({"data_file": "."}, "data_file must be a plain file name, got '.'"),
        ({"label_file": ".."}, "label_file must be a plain file name, got '..'"),
        ({"label_file": ""}, "label_file must be a plain file name, got ''"),
        ({"data_file": "sub/data.bin"}, "data_file must be a plain file name, got 'sub/data.bin'"),
        ({"data_file": 7}, "data_file must be a plain file name, got 7"),
        ({"count": -1}, "count must be >= 0, got -1"),
        ({"dims": [2, True]}, "dims must be an integer, got True"),
        ({"version": 1.0}, "unsupported version 1.0, expected 1"),
    ],
    ids=["dot", "dot_dot", "empty", "subdirectory", "number", "negative_count", "bool_dims",
         "float_version"],
)
def test_manifest_entries_follow_the_rules(tmp_path, rng, capsys, entries, message):
    root = damaged_dataset(tmp_path, rng, edit_manifest(**entries))
    message = f"{root / 'manifest.json'}: {message}"
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(root)
    assert str(err.value) == message
    assert train_exit_code(root, tmp_path, capsys) == (1, f"error: {message}\n")


def test_manifest_record_checks_itself(tmp_path):
    empty = LabeledDataset(samples=np.zeros((0, 2, 3)), labels=np.zeros(0), n_classes=1)
    manifest = save_dataset(empty, tmp_path / "ds")
    assert (manifest.count, manifest.dims) == (0, (2, 3))
    assert load_dataset(tmp_path / "ds").samples.shape == (0, 2, 3)
    entries = {**manifest.to_json_dict(), "dims": [2, 3]}
    assert DatasetManifest(**entries) == manifest
    with pytest.raises(ValueError, match="^data_file must be a plain file name, got '/data.bin'$"):
        DatasetManifest(**{**entries, "data_file": "/data.bin"})
    with pytest.raises(ValueError, match="^n_classes must be an integer, got 1.0$"):
        DatasetManifest(**{**entries, "n_classes": 1.0})


def test_missing_label_file(tmp_path, rng, capsys):
    root = damaged_dataset(tmp_path, rng, lambda root: (root / "labels.csv").unlink())
    message = f"missing label file {root / 'labels.csv'}"
    with pytest.raises(FileNotFoundError) as err:
        load_dataset(root)
    assert str(err.value) == message
    assert train_exit_code(root, tmp_path, capsys) == (1, f"error: {message}\n")


def test_no_classes(tmp_path, rng, capsys):
    with pytest.raises(ValueError, match="^n_classes must be >= 1, got 0$"):
        LabeledDataset(samples=np.zeros((0, 2)), labels=np.zeros(0), n_classes=0)

    def empty(root):
        edit_manifest(count=0, n_classes=0)(root)
        (root / "data.bin").write_bytes(b"")
        (root / "labels.csv").write_text("")

    root = damaged_dataset(tmp_path, rng, empty)
    message = f"{root / 'manifest.json'}: n_classes must be >= 1, got 0"
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(root)
    assert str(err.value) == message
    assert train_exit_code(root, tmp_path, capsys) == (1, f"error: {message}\n")


def test_split_needs_every_class():
    ds = LabeledDataset(samples=np.zeros((4, 2)), labels=np.array([1, 1, 3, 3]), n_classes=3)
    with pytest.raises(ValueError, match="^class 2 has no samples to split$"):
        stratified_split(ds, 0.5, seed=0)
