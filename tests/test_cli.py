"""End-to-end command line coverage: the four subcommands, their exit
codes, and the files they leave behind."""

import json
import logging
import math
import re
import sys

import numpy as np
import pytest
from scipy.linalg import subspace_angles

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
from mcsda.cli import main


def run(*argv):
    return main(list(argv))


def make_synth(tmp_path, name="data", dims="6x5", classes=3, per_class=10,
               sigma=0.1, scale=6.0, seed=11):
    out = tmp_path / name
    code = run(
        "synth", "--dims", dims, "--classes", str(classes),
        "--per-class", str(per_class), "--sigma", str(sigma),
        "--mean-scale", str(scale), "--seed", str(seed), "--out", str(out),
    )
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_dataset_and_prints_manifest(tmp_path, capsys):
    out = make_synth(tmp_path)
    blob = json.loads(capsys.readouterr().out)
    assert blob["version"] == 1
    assert blob["dims"] == [6, 5]
    assert blob["count"] == 30
    assert blob["n_classes"] == 3
    assert blob["dtype"] == "float64-le"
    assert (out / "manifest.json").exists()
    assert (out / "data.bin").exists()
    assert (out / "labels.csv").exists()


def test_synth_same_seed_byte_identical(tmp_path):
    a = make_synth(tmp_path, "a", seed=5)
    b = make_synth(tmp_path, "b", seed=5)
    c = make_synth(tmp_path, "c", seed=6)
    assert (a / "data.bin").read_bytes() == (b / "data.bin").read_bytes()
    assert (a / "labels.csv").read_text() == (b / "labels.csv").read_text()
    assert (a / "data.bin").read_bytes() != (c / "data.bin").read_bytes()


def test_synth_refuses_overwrite(tmp_path, capsys):
    make_synth(tmp_path, "d")
    code = run(
        "synth", "--dims", "6x5", "--classes", "3", "--per-class", "10",
        "--out", str(tmp_path / "d"),
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err
    code = run(
        "synth", "--dims", "6x5", "--classes", "3", "--per-class", "10",
        "--out", str(tmp_path / "d"), "--force",
    )
    assert code == 0


def test_synth_bad_dims_usage_error(tmp_path):
    for bad in ("8xx2", "0x3", "abc", "4x-2", "4x0", "4x", "2.5"):
        with pytest.raises(SystemExit) as err:
            run("synth", "--dims", bad, "--classes", "2",
                "--per-class", "5", "--out", str(tmp_path / "x"))
        assert err.value.code == 2


def test_synth_negative_seed_usage_error(tmp_path, capsys):
    code = run(
        "synth", "--dims", "4x3", "--classes", "2", "--per-class", "5", "--seed", "-1",
        "--out", str(tmp_path / "x"),
    )
    assert code == 2
    assert capsys.readouterr().err == "usage error: seed must be >= 0, got -1\n"
    assert not (tmp_path / "x").exists()


def test_synth_bad_spec_usage_error(tmp_path, capsys):
    code = run(
        "synth", "--dims", "4x3", "--classes", "0", "--per-class", "5",
        "--out", str(tmp_path / "x"),
    )
    assert code == 2
    assert "usage error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train


def test_train_lda_smoke(tmp_path, capsys):
    data = make_synth(tmp_path)
    out = tmp_path / "model"
    code = run(
        "train", "--data", str(data), "--method", "lda", "--dims", "2",
        "--out", str(out),
    )
    assert code == 0
    assert "trained lda" in capsys.readouterr().out
    model = load_model(out)
    assert model.method == "lda"
    assert model.projections[0].shape == (30, 2)
    report = json.loads((out / "fit_report.json").read_text())
    assert report["version"] == 1
    assert report["method"] == "lda"
    assert len(report["models"]) == 1
    assert report["models"][0]["iterations_run"] == 1


def test_train_vector_method_rejects_tuple_dims(tmp_path, capsys):
    data = make_synth(tmp_path)
    code = run(
        "train", "--data", str(data), "--method", "csda", "--dims", "7x7",
        "--positive-class", "1", "--out", str(tmp_path / "m"),
    )
    assert code == 2
    assert "scalar subspace dimension" in capsys.readouterr().err


def test_train_class_specific_needs_positive(tmp_path, capsys):
    data = make_synth(tmp_path)
    for method in ("csda", "mcsda"):
        code = run(
            "train", "--data", str(data), "--method", method, "--dims",
            "2" if method == "csda" else "2x2", "--out", str(tmp_path / "m"),
        )
        assert code == 2
        assert "positive-class" in capsys.readouterr().err


@pytest.mark.parametrize("method, dims", [("csda", "2"), ("mcsda", "2x2")])
def test_train_refuses_class_specific_without_a_class_before_reading(tmp_path, capsys, method,
                                                                      dims):
    code = run(
        "train", "--data", str(tmp_path / "nope"), "--method", method, "--dims", dims,
        "--out", str(tmp_path / "m"),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"{method} is class-specific: pass --positive-class or --one-vs-rest" in err
    assert list(tmp_path.iterdir()) == []


def test_train_positive_and_ovr_mutually_exclusive(tmp_path):
    data = make_synth(tmp_path)
    with pytest.raises(SystemExit) as err:
        run(
            "train", "--data", str(data), "--method", "mcsda", "--dims", "2x2",
            "--positive-class", "1", "--one-vs-rest", "--out", str(tmp_path / "m"),
        )
    assert err.value.code == 2


def test_train_missing_dataset_is_runtime_error(tmp_path, capsys):
    code = run(
        "train", "--data", str(tmp_path / "nope"), "--method", "lda",
        "--dims", "1", "--out", str(tmp_path / "m"),
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_train_one_vs_rest_layout(tmp_path):
    data = make_synth(tmp_path)
    out = tmp_path / "ovr"
    code = run(
        "train", "--data", str(data), "--method", "mcsda", "--dims", "2x2",
        "--one-vs-rest", "--out", str(out),
    )
    assert code == 0
    for c in (1, 2, 3):
        model = load_model(out / f"class_{c}")
        assert model.positive_class == c
        assert model.method == "mcsda"
    report = json.loads((out / "fit_report.json").read_text())
    assert [entry["class"] for entry in report["models"]] == [1, 2, 3]


def test_train_single_mode_csda_mcsda_agree(tmp_path):
    data = make_synth(tmp_path, dims="6", classes=2, per_class=12)
    for method in ("csda", "mcsda"):
        code = run(
            "train", "--data", str(data), "--method", method, "--dims", "2",
            "--positive-class", "1", "--out", str(tmp_path / method),
        )
        assert code == 0
    w_vec = load_model(tmp_path / "csda").projections[0]
    w_ten = load_model(tmp_path / "mcsda").projections[0]
    assert float(np.max(subspace_angles(w_vec, w_ten))) < 1e-6


def test_train_nonfinite_dataset_is_runtime_error(tmp_path, capsys):
    data = make_synth(tmp_path)
    data_bin = data / "data.bin"
    raw = bytearray(data_bin.read_bytes())
    offset = 7 * 30 * 8 + 8  # second value of sample 7 (6x5 samples)
    raw[offset : offset + 8] = np.array([np.nan], dtype="<f8").tobytes()
    data_bin.write_bytes(bytes(raw))
    code = run(
        "train", "--data", str(data), "--method", "csda", "--dims", "2",
        "--positive-class", "1", "--out", str(tmp_path / "m"),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "data.bin: sample 7 holds a NaN" in err
    assert "usage error" not in err


def test_train_force_replaces_previous_model_files(tmp_path):
    data = make_synth(tmp_path)
    out = tmp_path / "model"
    common = ("--data", str(data), "--positive-class", "1", "--out", str(out))
    assert run("train", "--method", "mcsda", "--dims", "2x2", *common) == 0
    assert (out / "W2.bin").exists()
    assert run("train", "--method", "csda", "--dims", "3", "--force", *common) == 0
    doc = json.loads((out / "model.json").read_text())
    listed = {entry["file"] for entry in doc["projections"]}
    listed.add(doc["reference_mean"]["file"])
    files = {p.name for p in out.iterdir()}
    assert files == listed | {"model.json", "fit_report.json"}
    assert load_model(out).method == "csda"


def test_train_refuses_an_existing_model_before_fitting(tmp_path, monkeypatch, capsys):
    import mcsda.cli

    data = make_synth(tmp_path)
    out = tmp_path / "ovr"
    assert run(
        "train", "--data", str(data), "--method", "csda", "--dims", "2",
        "--one-vs-rest", "--out", str(out),
    ) == 0
    for p in (out / "class_1").iterdir():
        p.unlink()
    (out / "class_1").rmdir()

    def fit(*args, **kwargs):
        raise AssertionError("fitted before checking --out")

    monkeypatch.setattr(mcsda.cli, "fit_one_vs_rest", fit)
    code = run(
        "train", "--data", str(data), "--method", "csda", "--dims", "2",
        "--one-vs-rest", "--out", str(out),
    )
    assert code == 1
    assert f"refusing to overwrite existing model at {out} (use force)" in capsys.readouterr().err
    assert not (out / "class_1").exists()


def test_train_force_drops_models_of_classes_no_longer_in_the_data(tmp_path):
    out = tmp_path / "ovr"
    common = ("--method", "csda", "--dims", "2", "--one-vs-rest", "--out", str(out))
    assert run("train", "--data", str(make_synth(tmp_path, "four", classes=4)), *common) == 0
    three = make_synth(tmp_path, "three", classes=3)
    assert run("train", "--data", str(three), "--force", *common) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "class_1", "class_2", "class_3", "fit_report.json"
    ]
    assert run(
        "eval", "--models", str(out), "--data", str(three), "--task", "classify",
        "--report", str(tmp_path / "r.json"),
    ) == 0


@pytest.mark.parametrize("force", [(), ("--force",)])
def test_train_refuses_a_directory_holding_no_model(tmp_path, capsys, force):
    data = make_synth(tmp_path)
    before = {p.name: p.read_bytes() for p in data.iterdir()}
    code = run(
        "train", "--data", str(data), "--method", "csda", "--dims", "2",
        "--positive-class", "1", "--out", str(data), *force,
    )
    assert code == 1
    assert f"refusing to write a model into {data}" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in data.iterdir()} == before
    assert [p.name for p in tmp_path.iterdir()] == ["data"]


def snapshot(root):
    """Every file under `root`, by relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_failed_forced_retrain_leaves_the_old_set_byte_identical(tmp_path, monkeypatch, capsys):
    # the disk fills at the 5th matrix write, class 3's W1.bin: no class
    # of the new set may replace one of the old set, and the old
    # fit_report.json stays too
    import errno

    import mcsda.model_io as mio

    data = make_synth(tmp_path)
    out = train_ovr(tmp_path, data, method="csda", dims="2")
    before = snapshot(out)
    real_write, written = mio._write_array, []

    def fill_disk_at_fifth(path, array):
        written.append(path.name)
        if len(written) == 5:
            raise OSError(errno.ENOSPC, "No space left on device", str(path))
        real_write(path, array)

    monkeypatch.setattr(mio, "_write_array", fill_disk_at_fifth)
    capsys.readouterr()
    code = run(
        "train", "--data", str(data), "--method", "csda", "--dims", "3",
        "--one-vs-rest", "--force", "--out", str(out),
    )
    assert code == 1
    assert "No space left on device" in capsys.readouterr().err
    assert written == ["W1.bin", "mean.bin"] * 2 + ["W1.bin"]
    assert snapshot(out) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "ovr"]


def test_failed_fit_leaves_no_stage(tmp_path, monkeypatch, capsys):
    # the fit runs inside the stage, which a raising fit must not outlive
    import mcsda.cli

    def fit(*args, **kwargs):
        raise RuntimeError("the fit failed")

    data = make_synth(tmp_path)
    monkeypatch.setattr(mcsda.cli, "fit_one_vs_rest", fit)
    capsys.readouterr()
    code = run(
        "train", "--data", str(data), "--method", "csda", "--dims", "2",
        "--one-vs-rest", "--out", str(tmp_path / "ovr"),
    )
    assert code == 1
    assert capsys.readouterr().err == "error: the fit failed\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]


@pytest.mark.parametrize("force", [(), ("--force",)])
def test_train_one_vs_rest_refuses_a_dataset_directory(tmp_path, capsys, force):
    data = make_synth(tmp_path)
    before = snapshot(data)
    code = run(
        "train", "--data", str(data), "--method", "csda", "--dims", "2",
        "--one-vs-rest", "--out", str(data), *force,
    )
    assert code == 1
    assert f"refusing to write a model into {data}" in capsys.readouterr().err
    assert snapshot(data) == before
    assert [p.name for p in tmp_path.iterdir()] == ["data"]


def test_forced_train_replaces_a_single_model_by_a_set_and_back(tmp_path):
    data = make_synth(tmp_path)
    out = tmp_path / "out"
    report = tmp_path / "r.json"
    common = ("--data", str(data), "--method", "csda", "--dims", "2", "--out", str(out))
    assert run("train", *common, "--positive-class", "2") == 0
    assert run("train", *common, "--one-vs-rest", "--force") == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "class_1", "class_2", "class_3", "fit_report.json"
    ]
    assert run(
        "eval", "--models", str(out), "--data", str(data), "--task", "classify",
        "--report", str(report),
    ) == 0
    assert run("train", *common, "--positive-class", "2", "--force") == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "W1.bin", "fit_report.json", "mean.bin", "model.json"
    ]
    assert run(
        "eval", "--models", str(out), "--data", str(data), "--task", "verify",
        "--report", str(report),
    ) == 0
    assert [e["class"] for e in json.loads(report.read_text())["per_class"]] == [2]


# ---------------------------------------------------------------------------
# eval


def train_ovr(tmp_path, data, method="mcsda", dims="2x2", name="ovr"):
    out = tmp_path / name
    code = run(
        "train", "--data", str(data), "--method", method, "--dims", dims,
        "--one-vs-rest", "--out", str(out),
    )
    assert code == 0
    return out


def test_eval_verify_separable(tmp_path, capsys):
    data = make_synth(tmp_path, sigma=0.05, scale=8.0)
    models = train_ovr(tmp_path, data)
    report_path = tmp_path / "verify.json"
    capsys.readouterr()  # drop the synth/train output
    code = run(
        "eval", "--models", str(models), "--data", str(data),
        "--task", "verify", "--report", str(report_path),
    )
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    stored = json.loads(report_path.read_text())
    assert printed == stored
    assert stored["task"] == "verify"
    assert stored["map"] >= 0.99
    assert [e["class"] for e in stored["per_class"]] == [1, 2, 3]
    assert all(e["positives"] == 10 for e in stored["per_class"])


def test_eval_verify_handmade_ranking_fixture(tmp_path):
    # scores 1/(1+d) over distances 1, 2, 3, 4 along the first axis give
    # the ranking positive, negative, positive, negative: AP = 5/6
    ds = LabeledDataset(
        samples=np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]]),
        labels=np.array([1, 2, 1, 2]),
        n_classes=2,
    )
    data_dir = tmp_path / "fixture_data"
    save_dataset(ds, data_dir)
    model = DiscriminantModel(
        method="csda",
        projections=[np.array([[1.0], [0.0]])],
        input_dims=(2,),
        subspace_dims=1,
        reference_mean=np.zeros(2),
        positive_class=1,
        config=TrainConfig(subspace_dims=1),
        fit_report=FitReport([0.0], [0.0], 1, True, 0.0, 2),
    )
    model_dir = tmp_path / "fixture_model"
    save_model(model, model_dir)
    report_path = tmp_path / "report.json"
    code = run(
        "eval", "--models", str(model_dir), "--data", str(data_dir),
        "--task", "verify", "--report", str(report_path),
    )
    assert code == 0
    stored = json.loads(report_path.read_text())
    assert abs(stored["map"] - 5.0 / 6.0) <= 2.0**-50
    assert stored["per_class"] == [
        {"class": 1, "ap": stored["map"], "positives": 2}
    ]


def test_eval_classify_separable(tmp_path):
    data = make_synth(tmp_path, sigma=0.05, scale=8.0)
    models = train_ovr(tmp_path, data)
    report_path = tmp_path / "classify.json"
    code = run(
        "eval", "--models", str(models), "--data", str(data),
        "--task", "classify", "--report", str(report_path),
    )
    assert code == 0
    stored = json.loads(report_path.read_text())
    assert stored["task"] == "classify"
    assert stored["accuracy"] >= 0.99
    assert len(stored["confusion"]) == 3


def test_eval_comma_list_of_model_dirs(tmp_path):
    data = make_synth(tmp_path, sigma=0.05, scale=8.0)
    models = train_ovr(tmp_path, data)
    spec = ",".join(str(models / f"class_{c}") for c in (2, 1, 3))
    report_path = tmp_path / "r.json"
    code = run(
        "eval", "--models", spec, "--data", str(data),
        "--task", "classify", "--report", str(report_path),
    )
    assert code == 0
    assert json.loads(report_path.read_text())["accuracy"] >= 0.99


@pytest.mark.parametrize("form", ["{},", ",{}", "{},,{}"])
def test_eval_empty_model_entry_is_a_usage_error(tmp_path, monkeypatch, capsys, form):
    # an empty entry would be Path(""), the working directory: here a
    # second set of models
    data = make_synth(tmp_path)
    models = train_ovr(tmp_path, data)
    monkeypatch.chdir(train_ovr(tmp_path, data, name="other"))
    capsys.readouterr()
    spec = form.format(models, models)
    code = run(
        "eval", "--models", spec, "--data", str(data),
        "--task", "verify", "--report", str(tmp_path / "r.json"),
    )
    assert code == 2
    assert capsys.readouterr().err == f"usage error: --models {spec!r} holds an empty entry\n"
    assert not (tmp_path / "r.json").exists()


def test_eval_classify_incomplete_cover_fails(tmp_path, capsys):
    data = make_synth(tmp_path)
    models = train_ovr(tmp_path, data)
    code = run(
        "eval", "--models", str(models / "class_1"), "--data", str(data),
        "--task", "classify", "--report", str(tmp_path / "r.json"),
    )
    assert code == 1
    assert "one model per class" in capsys.readouterr().err


def test_eval_dims_mismatch_fails(tmp_path, capsys):
    data = make_synth(tmp_path, "data65", dims="6x5")
    other = make_synth(tmp_path, "data56", dims="5x6")
    models = train_ovr(tmp_path, data)
    code = run(
        "eval", "--models", str(models), "--data", str(other),
        "--task", "verify", "--report", str(tmp_path / "r.json"),
    )
    assert code == 1
    assert "do not match dataset" in capsys.readouterr().err


def test_eval_verify_needs_class_specific_models(tmp_path, capsys):
    data = make_synth(tmp_path)
    out = tmp_path / "plain_lda"
    assert run(
        "train", "--data", str(data), "--method", "lda", "--dims", "2",
        "--out", str(out),
    ) == 0
    code = run(
        "eval", "--models", str(out), "--data", str(data),
        "--task", "verify", "--report", str(tmp_path / "r.json"),
    )
    assert code == 1
    assert "class-specific" in capsys.readouterr().err


def test_eval_classify_needs_class_specific_models(tmp_path, capsys):
    # a multi-class model among class-specific ones has no positive class
    data = make_synth(tmp_path)
    plain = tmp_path / "plain_lda"
    assert run(
        "train", "--data", str(data), "--method", "lda", "--dims", "2",
        "--out", str(plain),
    ) == 0
    models = train_ovr(tmp_path, data, method="csda", dims="2")
    code = run(
        "eval", "--models", f"{plain},{models}", "--data", str(data),
        "--task", "classify", "--report", str(tmp_path / "r.json"),
    )
    assert code == 1
    assert "class-specific" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_eval_malformed_model_json_is_runtime_error(tmp_path, capsys):
    data = make_synth(tmp_path)
    models = train_ovr(tmp_path, data)
    manifest = models / "class_2" / "model.json"
    doc = json.loads(manifest.read_text())
    del doc["input_dims"]
    manifest.write_text(json.dumps(doc))
    code = run(
        "eval", "--models", str(models), "--data", str(data),
        "--task", "verify", "--report", str(tmp_path / "r.json"),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "model.json" in err and "input_dims" in err


def test_eval_skips_dot_named_model_directories(tmp_path):
    # a save killed after writing model.json leaves its dot-named stage
    # beside the model; eval of the parent directory must not read it
    import shutil

    data = make_synth(tmp_path)
    parent = tmp_path / "p"
    assert run(
        "train", "--data", str(data), "--method", "csda", "--dims", "2",
        "--positive-class", "1", "--out", str(parent / "m"),
    ) == 0
    shutil.copytree(parent / "m", parent / ".m.999999-abcd")
    report = tmp_path / "r.json"
    assert run(
        "eval", "--models", str(parent), "--data", str(data), "--task", "verify",
        "--report", str(report),
    ) == 0
    assert [e["class"] for e in json.loads(report.read_text())["per_class"]] == [1]


def test_eval_missing_models_dir(tmp_path, capsys):
    data = make_synth(tmp_path)
    code = run(
        "eval", "--models", str(tmp_path / "nope"), "--data", str(data),
        "--task", "verify", "--report", str(tmp_path / "r.json"),
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench


def test_bench_smoke(tmp_path, capsys):
    report_path = tmp_path / "bench.json"
    code = run(
        "bench", "--dims", "8x6", "--subspace", "2x2", "--n", "24",
        "--repeats", "1", "--max-iter", "3", "--report", str(report_path),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "measured ratio csda/mcsda" in out
    assert "parameters: csda 192, mcsda 28" in out
    stored = json.loads(report_path.read_text())
    assert stored["dims"] == [8, 6]
    assert stored["parameter_count_csda"] == 48 * 4
    assert stored["parameter_count_mcsda"] == 8 * 2 + 6 * 2
    assert stored["csda_seconds"] > 0
    assert stored["mcsda_seconds"] > 0
    assert stored["ratio_csda_over_mcsda"] == pytest.approx(
        stored["csda_seconds"] / stored["mcsda_seconds"]
    )
    assert stored["predicted_ratio"] > 0


def test_bench_report_creates_parent_directories(tmp_path):
    report_path = tmp_path / "nodir" / "sub" / "bench.json"
    code = run(
        "bench", "--dims", "4x3", "--subspace", "2x2", "--n", "12",
        "--repeats", "1", "--max-iter", "2", "--report", str(report_path),
    )
    assert code == 0
    assert json.loads(report_path.read_text())["dims"] == [4, 3]
    assert [p.name for p in report_path.parent.iterdir()] == ["bench.json"]


def test_bench_subspace_must_match_dims(capsys):
    code = run("bench", "--dims", "8x6", "--subspace", "2", "--n", "12",
               "--repeats", "1")
    assert code == 2
    assert "one entry per mode" in capsys.readouterr().err


def test_bench_subspace_cannot_exceed_dims(capsys):
    code = run("bench", "--dims", "4x3", "--subspace", "5x2", "--n", "12",
               "--repeats", "1")
    assert code == 2


# ---------------------------------------------------------------------------
# parser plumbing


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as err:
        run("frobnicate")
    assert err.value.code == 2


def test_log_level_env(monkeypatch):
    from mcsda.cli import _log_level
    import logging

    monkeypatch.setenv("MCSDA_LOG_LEVEL", "debug")
    assert _log_level() == logging.DEBUG
    monkeypatch.setenv("MCSDA_LOG_LEVEL", "bogus")
    assert _log_level() == logging.WARNING
    monkeypatch.delenv("MCSDA_LOG_LEVEL")
    assert _log_level() == logging.WARNING


# ---------------------------------------------------------------------------
# batched eval: duplicate classes, ties, throughput


def save_hand_model(path, reference, positive_class):
    model = DiscriminantModel(
        method="csda",
        projections=[np.eye(2)],
        input_dims=(2,),
        subspace_dims=2,
        reference_mean=np.asarray(reference, dtype=float),
        positive_class=positive_class,
        config=TrainConfig(subspace_dims=2),
        fit_report=FitReport([0.0], [0.0], 1, True, 0.0, 4),
    )
    save_model(model, path)
    return path


def test_eval_verify_rejects_duplicate_positive_class(tmp_path, capsys):
    data = make_synth(tmp_path)
    models = train_ovr(tmp_path, data)
    spec = ",".join(str(models / f"class_{c}") for c in (1, 2, 2))
    code = run(
        "eval", "--models", spec, "--data", str(data),
        "--task", "verify", "--report", str(tmp_path / "r.json"),
    )
    assert code == 1
    assert "2 models for positive class 2" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_eval_classify_ties_go_to_lowest_class(tmp_path):
    # classes 2 and 3 share one reference, so their scores tie on every
    # sample; the dirs are listed in reverse class order
    ds = LabeledDataset(
        samples=np.array([[10.0, 0.0], [0.1, 0.0], [0.0, 0.1]]),
        labels=np.array([1, 2, 3]),
        n_classes=3,
    )
    data_dir = tmp_path / "tie_data"
    save_dataset(ds, data_dir)
    refs = {1: [10.0, 0.0], 2: [0.0, 0.0], 3: [0.0, 0.0]}
    dirs = [save_hand_model(tmp_path / f"m{c}", refs[c], c) for c in (3, 2, 1)]
    report_path = tmp_path / "r.json"
    code = run(
        "eval", "--models", ",".join(map(str, dirs)), "--data", str(data_dir),
        "--task", "classify", "--report", str(report_path),
    )
    assert code == 0
    stored = json.loads(report_path.read_text())
    assert stored["confusion"] == [[1, 0, 0], [0, 1, 0], [0, 1, 0]]


def test_eval_logs_throughput_outside_report(tmp_path, caplog):
    data = make_synth(tmp_path)
    models = train_ovr(tmp_path, data)
    caplog.set_level(logging.INFO, logger="mcsda.cli")
    for task in ("verify", "classify"):
        report_path = tmp_path / f"{task}.json"
        code = run(
            "eval", "--models", str(models), "--data", str(data),
            "--task", task, "--report", str(report_path),
        )
        assert code == 0
        assert re.search(
            rf"eval {task}: 90 scores in \S+ s \(\S+ scores/s\)", caplog.text
        )
        assert "scores/s" not in report_path.read_text()


def test_bench_reports_scoring_throughput(tmp_path, capsys):
    report_path = tmp_path / "bench.json"
    code = run(
        "bench", "--dims", "8x6", "--subspace", "2x2", "--n", "24",
        "--repeats", "1", "--max-iter", "3", "--report", str(report_path),
    )
    assert code == 0
    assert "scores/s" in capsys.readouterr().out
    stored = json.loads(report_path.read_text())
    assert stored["csda_scores_per_s"] > 0
    assert stored["mcsda_scores_per_s"] > 0
    assert "predicted_ratio" in stored


def test_bench_report_carries_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    report_path = tmp_path / "bench.json"
    assert run(
        "bench", "--dims", "4x3", "--subspace", "2x2", "--n", "12",
        "--repeats", "1", "--max-iter", "2", "--report", str(report_path),
    ) == 0
    stored = json.loads(report_path.read_text())
    assert {
        "dims", "subspace", "samples", "repeats", "csda_seconds", "mcsda_seconds",
        "ratio_csda_over_mcsda", "predicted_ratio", "mcsda_iterations_run",
        "parameter_count_csda", "parameter_count_mcsda", "csda_scores_per_s",
        "mcsda_scores_per_s", "env",
    } == set(stored)
    env = stored["env"]
    assert set(env) == {
        "numpy", "scipy", "numpy_build", "scipy_build", "thread_env",
        "cpu_count", "affinity_cpus",
    }
    assert env["numpy"] == np.__version__
    for build in (env["numpy_build"], env["scipy_build"]):
        assert set(build) == {"blas", "lapack"}
        assert set(build["blas"]) == {"name", "version", "openblas configuration"}
    assert env["thread_env"] == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None,
    }
    assert env["cpu_count"] >= 1 and env["affinity_cpus"] >= 1


def test_train_positive_class_wrap_writes_both_mean_files(tmp_path):
    data = make_synth(tmp_path)
    out = tmp_path / "m"
    assert run(
        "train", "--data", str(data), "--method", "lda", "--dims", "1",
        "--positive-class", "2", "--out", str(out),
    ) == 0
    doc = json.loads((out / "model.json").read_text())
    assert doc["positive_class"] == 2
    assert doc["reference_mean"]["file"] == "mean.bin"
    assert doc["class_means"]["file"] == "class_means.bin"
    assert doc["class_means"]["count"] == 2
    assert (out / "mean.bin").is_file() and (out / "class_means.bin").is_file()
    model = load_model(out)
    assert np.array_equal(model.reference_mean, model.class_means[0])


def damage_json(path, damage):
    doc = json.loads(path.read_text())
    damage(doc)
    path.write_text(json.dumps(doc))


def assert_one_error_line_naming(capsys, name):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert name in err


@pytest.mark.parametrize(
    "damage",
    [
        lambda doc, data: doc.update(dims=5),
        lambda doc, data: doc.update(n_classes=3.7),
        lambda doc, data: doc.update(n_classes="3"),
        lambda doc, data: doc.update(n_classes=True),
        lambda doc, data: doc.update(count=18.0),
        lambda doc, data: doc.update(count="18"),
        lambda doc, data: doc.update(dims=[4.0, 3]),
        lambda doc, data: doc.update(dims=["4", "3"]),
        lambda doc, data: doc.update(dims=[True, 12]),
        lambda doc, data: doc.update(data_file="../other/data.bin"),
        lambda doc, data: doc.update(data_file=str(data / "data.bin")),
        lambda doc, data: doc.update(version=True),
    ],
    ids=["scalar_dims", "fractional_n_classes", "string_n_classes", "bool_n_classes",
         "float_count", "string_count", "float_dims", "string_dims", "bool_dims",
         "data_file_in_another_dataset", "absolute_data_file", "bool_version"],
)
def test_train_mistyped_dataset_manifest_is_format_error(tmp_path, capsys, damage):
    # each damage but the first loads as some dataset if its entries are cast
    data = make_synth(tmp_path, dims="4x3", per_class=6)
    make_synth(tmp_path, "other", dims="4x3", per_class=6, seed=12)
    damage_json(data / "manifest.json", lambda doc: damage(doc, data))
    capsys.readouterr()
    code = run(
        "train", "--data", str(data), "--method", "csda", "--dims", "2",
        "--positive-class", "1", "--out", str(tmp_path / "m"),
    )
    assert code == 1
    assert_one_error_line_naming(capsys, "manifest.json")


@pytest.mark.parametrize(
    "damage",
    [
        lambda doc: doc["class_means"].update(count="many"),
        lambda doc: doc["projections"][0].update(rows="x"),
        lambda doc: doc.update({"lambda": math.nan}),
        lambda doc: doc.update(max_iter=2.5),
        lambda doc: doc.update(subspace_dims=1.5),
        lambda doc: doc.update(positive_class=2.9),
        lambda doc: doc.update(positive_class=True),
        lambda doc: doc.update(positive_class=-3),
        lambda doc: doc.update(positive_class="2"),
        lambda doc: doc.update(input_dims=[4.7, 3]),
        lambda doc: doc.update(input_dims=["4", "3"]),
        lambda doc: doc["reference_mean"].update(file="../m/mean.bin"),
        lambda doc: doc.update(version=True),
        lambda doc: doc["fit_report"].update(iterations_run="many"),
        lambda doc: doc["fit_report"].update(iterations_run=7),
        lambda doc: doc["fit_report"].update(converged="no"),
        lambda doc: doc["fit_report"].update(objective_trace="abc"),
        lambda doc: doc["fit_report"].update(objective_trace=[True]),
        lambda doc: doc["fit_report"].update(convergence_trace=[0.0, 0.0]),
        lambda doc: doc["fit_report"].update(parameter_count=2.5),
        lambda doc: doc.update(parameter_count=7),
        lambda doc: doc.update(parameter_count=30.0),
        lambda doc: doc["projections"][0].update(rows=30.0),
        lambda doc: doc["projections"][0].update(cols=1.0),
        lambda doc: doc["reference_mean"].update(dims=[6.0, 5]),
        lambda doc: doc["class_means"].update(dims=[6, 5.0]),
        lambda doc: doc.update({"lambda": True}),
        lambda doc: doc.update(eps=True),
        lambda doc: doc["fit_report"].update(wall_time_seconds="slow"),
        lambda doc: doc["fit_report"].update(wall_time_seconds=-3.0),
        lambda doc: doc["fit_report"].update(wall_time_seconds=math.nan),
    ],
    ids=["class_means_count", "projection_rows", "nan_lambda", "fractional_max_iter",
         "fractional_subspace_dims", "fractional_positive_class", "bool_positive_class",
         "negative_positive_class", "string_positive_class", "fractional_input_dims",
         "string_input_dims", "mean_file_outside_model", "bool_version",
         "string_iterations_run", "iterations_run_not_trace_length", "string_converged",
         "string_objective_trace", "bool_objective", "convergence_trace_too_long",
         "fractional_report_parameter_count", "parameter_count_not_the_report_s",
         "float_parameter_count", "float_rows", "float_cols", "float_mean_dims",
         "float_class_means_dims", "bool_lambda", "bool_eps", "string_wall_time",
         "negative_wall_time", "nan_wall_time"],
)
def test_eval_mistyped_model_json_is_format_error(tmp_path, capsys, damage):
    data = make_synth(tmp_path)
    out = tmp_path / "m"
    assert run(
        "train", "--data", str(data), "--method", "lda", "--dims", "1",
        "--positive-class", "1", "--out", str(out),
    ) == 0
    damage_json(out / "model.json", damage)
    capsys.readouterr()
    code = run(
        "eval", "--models", str(out), "--data", str(data),
        "--task", "verify", "--report", str(tmp_path / "r.json"),
    )
    assert code == 1
    assert_one_error_line_naming(capsys, "model.json")


def test_bench_rejects_zero_repeats(monkeypatch, capsys):
    def no_synth(spec):
        raise AssertionError("bench synthesized data before checking --repeats")

    monkeypatch.setattr("mcsda.cli.synth_generate", no_synth)
    code = run("bench", "--dims", "4x3", "--subspace", "2x2", "--repeats", "0")
    assert code == 2
    assert "--repeats" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-4", "1"])
def test_bench_rejects_fewer_than_two_samples(monkeypatch, capsys, n):
    def no_synth(spec):
        raise AssertionError("bench synthesized data before checking --n")

    monkeypatch.setattr("mcsda.cli.synth_generate", no_synth)
    code = run("bench", "--dims", "4x3", "--subspace", "2x2", "--n", n)
    assert code == 2
    assert f"--n must be >= 2, one sample per class, got {n}" in capsys.readouterr().err


def test_bench_times_fits_and_scoring_by_the_median(tmp_path, monkeypatch):
    # a fake clock that each call moves on by its planned duration: the
    # report must carry the median of the repeats, not the best
    import types

    import mcsda.cli as cli

    clock = [0.0]

    def taking(fn, durations):
        def timed(*args, **kwargs):
            result = fn(*args, **kwargs)
            clock[0] += durations.pop(0)
            return result

        return timed

    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
    monkeypatch.setattr(cli, "fit_csda", taking(cli.fit_csda, [3.0, 1.0, 2.0]))
    monkeypatch.setattr(cli, "fit_mcsda", taking(cli.fit_mcsda, [5.0, 4.0, 6.0]))
    monkeypatch.setattr(cli, "score_batch", taking(cli.score_batch, [0.5, 0.125, 0.25, 1, 2, 4]))
    report = tmp_path / "bench.json"
    assert run(
        "bench", "--dims", "4x3", "--subspace", "2x2", "--n", "12",
        "--repeats", "3", "--max-iter", "2", "--report", str(report),
    ) == 0
    stored = json.loads(report.read_text())
    assert (stored["csda_seconds"], stored["mcsda_seconds"]) == (2.0, 5.0)
    assert stored["ratio_csda_over_mcsda"] == 0.4
    assert (stored["csda_scores_per_s"], stored["mcsda_scores_per_s"]) == (48.0, 6.0)


def test_eval_verify_dataset_without_a_positive_class(tmp_path, capsys):
    data = make_synth(tmp_path, "three", classes=3)
    two = make_synth(tmp_path, "two", classes=2)
    models = train_ovr(tmp_path, data)
    capsys.readouterr()
    code = run(
        "eval", "--models", str(models), "--data", str(two),
        "--task", "verify", "--report", str(tmp_path / "r.json"),
    )
    assert code == 1
    assert_one_error_line_naming(capsys, f"dataset {two} has no samples of class 3")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("name", ["W1.bin", "mean.bin"])
def test_eval_nonfinite_model_file_is_format_error(tmp_path, capsys, name):
    data = make_synth(tmp_path)
    models = train_ovr(tmp_path, data)
    path = models / "class_2" / name
    values = np.fromfile(path, dtype="<f8")
    values[0] = np.nan
    values.tofile(path)
    capsys.readouterr()
    code = run(
        "eval", "--models", str(models), "--data", str(data),
        "--task", "verify", "--report", str(tmp_path / "r.json"),
    )
    assert code == 1
    assert_one_error_line_naming(capsys, str(path))


def test_bench_scores_each_model_repeats_times(tmp_path, monkeypatch):
    import mcsda.cli as cli

    calls = {}
    score = cli.score_batch

    def counting(model, samples):
        calls[model.method] = calls.get(model.method, 0) + 1
        return score(model, samples)

    monkeypatch.setattr(cli, "score_batch", counting)
    report_path = tmp_path / "bench.json"
    assert run(
        "bench", "--dims", "4x3", "--subspace", "2x2", "--n", "12",
        "--repeats", "3", "--max-iter", "2", "--report", str(report_path),
    ) == 0
    assert calls == {"csda": 3, "mcsda": 3}
    stored = json.loads(report_path.read_text())
    assert stored["csda_scores_per_s"] > 0
    assert stored["mcsda_scores_per_s"] > 0


# ---------------------------------------------------------------------------
# a loaded dataset is a file-order view: fits and reports must not depend
# on the memory layout of the samples


def c_ordered_loads(monkeypatch):
    """Make the command line load every dataset as a C-ordered copy."""
    import mcsda.cli as cli

    load = cli.load_dataset

    def load_c_ordered(path):
        data = load(path)
        samples = np.ascontiguousarray(data.samples)
        return LabeledDataset(samples=samples, labels=data.labels, n_classes=data.n_classes)

    monkeypatch.setattr(cli, "load_dataset", load_c_ordered)


TRAIN_RUNS = [
    (method, dims, extra)
    for method, dims in (("lda", "1"), ("csda", "4"), ("mda", "2x2x2"), ("mcsda", "2x2x2"))
    for extra in (("--one-vs-rest",), ("--positive-class", "2"))
] + [("lda", "2", ()), ("mda", "3x2x2", ())]


def test_fits_from_loaded_and_c_ordered_samples_write_identical_bins(tmp_path, monkeypatch):
    data = make_synth(tmp_path, dims="5x4x3", per_class=12, sigma=1.0, scale=1.0)
    assert not load_dataset(data).samples.flags.c_contiguous
    outs = {}
    for layout in ("file", "C"):
        if layout == "C":
            c_ordered_loads(monkeypatch)
        for i, (method, dims, extra) in enumerate(TRAIN_RUNS):
            out = tmp_path / f"{layout}_{i}"
            assert run(
                "train", "--data", str(data), "--method", method, "--dims", dims,
                *extra, "--out", str(out),
            ) == 0
            outs[layout, i] = {
                p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*.bin"))
            }
    for i, run_args in enumerate(TRAIN_RUNS):
        assert outs["file", i], run_args
        assert outs["file", i] == outs["C", i], run_args


@pytest.mark.parametrize("method,dims", [("csda", "6"), ("mcsda", "3x2x2")])
def test_eval_reports_equal_on_loaded_and_c_ordered_samples(tmp_path, monkeypatch, method, dims):
    data = make_synth(tmp_path, dims="5x4x3", per_class=12, sigma=2.0, scale=1.0)
    models = train_ovr(tmp_path, data, method=method, dims=dims)
    reports = {}
    for layout in ("file", "C"):
        if layout == "C":
            c_ordered_loads(monkeypatch)
        for task in ("verify", "classify"):
            path = tmp_path / f"{layout}_{task}.json"
            assert run(
                "eval", "--models", str(models), "--data", str(data),
                "--task", task, "--report", str(path),
            ) == 0
            reports[layout, task] = path.read_bytes()
    for task in ("verify", "classify"):
        assert reports["file", task] == reports["C", task]


# ---------------------------------------------------------------------------
# non-finite numeric settings are usage errors (and format errors in a
# model.json, above)


@pytest.mark.parametrize(
    "flags,field",
    [
        (("--lambda", "nan"), "reg_lambda"),
        (("--lambda", "inf"), "reg_lambda"),
        (("--eps", "inf"), "eps"),
    ],
)
def test_train_rejects_nonfinite_settings(tmp_path, capsys, flags, field):
    data = make_synth(tmp_path)
    capsys.readouterr()
    code = run(
        "train", "--data", str(data), "--method", "mcsda", "--dims", "2x2",
        "--positive-class", "1", *flags, "--out", str(tmp_path / "m"),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and f"{field} must be finite" in err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize(
    "flags,field",
    [(("--sigma", "nan"), "noise_sigma"), (("--mean-scale", "inf"), "class_mean_scale")],
)
def test_synth_rejects_nonfinite_settings(tmp_path, capsys, flags, field):
    code = run(
        "synth", "--dims", "4x3", "--classes", "2", "--per-class", "5", *flags,
        "--out", str(tmp_path / "x"),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and f"{field} must be finite" in err


# ---------------------------------------------------------------------------
# load_model checks every matrix shape against the method and the dims


def set_projection(model_dir, index, rows, cols):
    """Make projection `index` a rows x cols matrix, in model.json and in
    its file, so that only the shape is wrong."""
    doc = json.loads((model_dir / "model.json").read_text())
    entry = doc["projections"][index]
    entry.update(rows=rows, cols=cols)
    (model_dir / "model.json").write_text(json.dumps(doc))
    np.ones(rows * cols).tofile(model_dir / entry["file"])


def drop_second_projection(model_dir):
    damage_json(model_dir / "model.json", lambda doc: doc["projections"].pop())


def transpose_mean_dims(model_dir):
    damage_json(model_dir / "model.json", lambda doc: doc["reference_mean"]["dims"].reverse())


@pytest.mark.parametrize(
    "method,dims,damage",
    [
        ("mcsda", "2x1", lambda d: set_projection(d, 0, 3, 2)),
        ("mcsda", "2x1", drop_second_projection),
        ("mcsda", "2x1", transpose_mean_dims),
        ("csda", "2", lambda d: set_projection(d, 0, 6, 2)),
        ("csda", "2", lambda d: set_projection(d, 0, 12, 3)),
    ],
    ids=["tensor_mode_rows", "tensor_mode_count", "mean_dims", "vector_rows", "vector_cols"],
)
def test_eval_misshapen_model_is_format_error(tmp_path, capsys, method, dims, damage):
    data = make_synth(tmp_path, dims="4x3")
    models = train_ovr(tmp_path, data, method=method, dims=dims)
    damage(models / "class_2")
    capsys.readouterr()
    code = run(
        "eval", "--models", str(models), "--data", str(data),
        "--task", "verify", "--report", str(tmp_path / "r.json"),
    )
    assert code == 1
    assert_one_error_line_naming(capsys, "model.json")


# ---------------------------------------------------------------------------
# one parser per process; no per-class thread pool


def test_main_builds_one_parser(tmp_path):
    from mcsda.cli import _build_parser

    _build_parser.cache_clear()
    data = make_synth(tmp_path)
    train_ovr(tmp_path, data)
    assert _build_parser.cache_info().misses == 1
    assert _build_parser.cache_info().hits >= 1


def test_one_parser_parses_each_command_afresh():
    from mcsda.cli import _build_parser, cmd_eval, cmd_train

    parser = _build_parser()
    train = parser.parse_args([
        "train", "--data", "d", "--method", "csda", "--dims", "3",
        "--positive-class", "2", "--lambda", "0.5", "--out", "o",
    ])
    ev = parser.parse_args(["eval", "--models", "m", "--data", "e", "--task", "verify", "--report", "r"])
    ovr = parser.parse_args([
        "train", "--data", "d2", "--method", "mcsda", "--dims", "2x2", "--one-vs-rest", "--out", "o2",
    ])
    assert parser is _build_parser()
    assert train.func is ovr.func is cmd_train and ev.func is cmd_eval
    assert (train.method, train.dims, train.positive_class, train.one_vs_rest) == ("csda", (3,), 2, False)
    assert train.reg_lambda == 0.5
    assert (ovr.method, ovr.dims, ovr.positive_class, ovr.one_vs_rest) == ("mcsda", (2, 2), None, True)
    assert ovr.reg_lambda == TrainConfig.reg_lambda and ovr.data == "d2"
    assert (ev.models, ev.data, ev.task, ev.report) == ("m", "e", "verify", "r")
    assert not hasattr(ev, "method")


def test_train_has_no_jobs_flag(tmp_path):
    data = make_synth(tmp_path)
    with pytest.raises(SystemExit) as err:
        run(
            "train", "--data", str(data), "--method", "mcsda", "--dims", "2x2",
            "--one-vs-rest", "--jobs", "2", "--out", str(tmp_path / "m"),
        )
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# fitting and eval bypass the public one-sample helpers: a fit projects
# with the engine's layouts, eval scores with one stacked contraction, and
# eval solves nothing


def forbid(monkeypatch, *names):
    """Make every package namespace's binding of the public functions
    `names` raise."""
    import mcsda

    for name in names:
        original = getattr(mcsda, name)

        def forbidden(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} was called")

        for key, module in list(sys.modules.items()):
            if key.split(".")[0] == "mcsda" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, forbidden)


def test_train_and_eval_bypass_public_helpers(tmp_path, monkeypatch):
    data = make_synth(tmp_path, sigma=1.0, scale=1.0)
    forbid(monkeypatch, "multi_project", "project", "similarity_score")
    models = [
        train_ovr(tmp_path, data, method=method, dims=dims, name=method)
        for method, dims in (("mcsda", "2x2"), ("csda", "3"))
    ]
    forbid(monkeypatch, "solve_ratio_trace")
    for out in models:
        for task in ("verify", "classify"):
            assert run(
                "eval", "--models", str(out), "--data", str(data),
                "--task", task, "--report", str(tmp_path / f"{out.name}_{task}.json"),
            ) == 0


# ---------------------------------------------------------------------------
# output paths checked before the work, and "." as --out


def test_synth_and_train_write_into_the_working_directory(tmp_path):
    # "." has no name of its own, so the save stages beside the working
    # directory and then replaces it; run in a subprocess, whose working
    # directory that replacement may leave stale
    import os
    import subprocess
    from pathlib import Path

    import mcsda

    src = Path(mcsda.__file__).resolve().parents[1]

    def mcsda_in(cwd, *argv):
        cwd.mkdir()
        return subprocess.run(
            [sys.executable, "-m", "mcsda.cli", *argv],
            cwd=cwd, env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120,
        )

    proc = mcsda_in(
        tmp_path / "data", "synth", "--dims", "4x3", "--classes", "2",
        "--per-class", "6", "--out", ".",
    )
    assert proc.returncode == 0, proc.stderr
    assert load_dataset(tmp_path / "data").count == 12
    proc = mcsda_in(
        tmp_path / "model", "train", "--data", str(tmp_path / "data"), "--method",
        "mcsda", "--dims", "2x2", "--positive-class", "1", "--out", ".",
    )
    assert proc.returncode == 0, proc.stderr
    assert load_model(tmp_path / "model").positive_class == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "model"]


def test_eval_refuses_a_report_directory_before_reading(tmp_path, monkeypatch, capsys):
    import mcsda.cli as cli

    data = make_synth(tmp_path)
    models = train_ovr(tmp_path, data)
    (tmp_path / "rd").mkdir()

    def no_load(path):
        raise AssertionError("eval read the dataset before checking --report")

    monkeypatch.setattr(cli, "load_dataset", no_load)
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        run(
            "eval", "--models", str(models), "--data", str(data),
            "--task", "verify", "--report", str(tmp_path / "rd"),
        )
    assert err.value.code == 2
    assert f"argument --report: '{tmp_path / 'rd'}' is a directory" in capsys.readouterr().err
    assert list((tmp_path / "rd").iterdir()) == []


def test_bench_refuses_a_report_directory_before_fitting(tmp_path, monkeypatch, capsys):
    def no_synth(spec):
        raise AssertionError("bench synthesized data before checking --report")

    monkeypatch.setattr("mcsda.cli.synth_generate", no_synth)
    (tmp_path / "rd").mkdir()
    with pytest.raises(SystemExit) as err:
        run(
            "bench", "--dims", "4x3", "--subspace", "2x2", "--n", "12",
            "--repeats", "1", "--report", str(tmp_path / "rd"),
        )
    assert err.value.code == 2
    assert f"argument --report: '{tmp_path / 'rd'}' is a directory" in capsys.readouterr().err
    assert list((tmp_path / "rd").iterdir()) == []


# ---------------------------------------------------------------------------
# --seed: bench seeds its data; no fit reads a seed, so train takes none


def test_train_has_no_seed_flag(tmp_path):
    data = make_synth(tmp_path)
    out = train_ovr(tmp_path, data, method="csda", dims="2")
    assert load_model(out / "class_1").config.seed == TrainConfig.seed == 0
    assert json.loads((out / "class_1" / "model.json").read_text())["seed"] == 0
    with pytest.raises(SystemExit) as err:
        run(
            "train", "--data", str(data), "--method", "csda", "--dims", "2",
            "--one-vs-rest", "--seed", "1", "--out", str(tmp_path / "m"),
        )
    assert err.value.code == 2
    assert not (tmp_path / "m").exists()


def test_bench_seed_changes_the_data(monkeypatch):
    import mcsda.cli as cli

    real, drawn = cli.synth_generate, []
    monkeypatch.setattr(cli, "synth_generate", lambda spec: drawn.append(real(spec)) or drawn[-1])
    for seed in ("0", "0", "5"):
        assert run(
            "bench", "--dims", "4x3", "--subspace", "2x2", "--n", "12",
            "--repeats", "1", "--max-iter", "2", "--seed", seed,
        ) == 0
    same, other = drawn[1].samples, drawn[2].samples
    assert np.array_equal(drawn[0].samples, same)
    assert not np.array_equal(same, other)
