"""Model directory format: model.json plus raw float64 matrices.

A saved model is a directory holding ``model.json`` and one
``W<k>.bin`` per projection matrix (k is 1-based), each stored
column-major as little-endian float64 with its shape recorded in the
manifest. Class-specific models additionally store the reference mean as
``mean.bin``; multi-class lda/mda store all class means as
``class_means.bin``, one stack with the class as its last axis. Every
file goes through the codec of :mod:`mcsda.datasets`, so a missing or
truncated matrix file and a malformed ``model.json`` fail the same way
a bad dataset does. Round trips are bit exact.

``_write_model`` puts one model's files into a directory. ``save_model``
stages one model, and ``mcsda train`` one model or a one-vs-rest set of
``class_<c>`` models with its ``fit_report.json``, through
:func:`mcsda.datasets._staged_directory`: each is written and replaced as
one unit, over an earlier model or set (``MODEL_OUTPUTS``) only if forced.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .datasets import (
    DatasetFormatError,
    _check_count,
    _check_dims,
    _check_file_name,
    _manifest_entries,
    _read_array,
    _read_json,
    _staged_directory,
    _write_array,
)
from .discriminant import (
    METHODS,
    VECTOR_METHODS,
    DiscriminantModel,
    FitReport,
    TrainConfig,
    _subspace_dims,
)

__all__ = ["save_model", "load_model"]

MODEL_VERSION = 1
MODEL_NAME = "model.json"
MODEL_OUTPUTS = (MODEL_NAME, f"class_*/{MODEL_NAME}")


def save_model(model: DiscriminantModel, path, force: bool = False) -> None:
    """Write `model` to directory `path`, staged as one unit: an existing
    model or model set there is replaced only if `force` is set, and any
    other non-empty directory is refused."""
    with _staged_directory(Path(path), MODEL_OUTPUTS, "model", force) as root:
        _write_model(model, root)


def _write_model(model: DiscriminantModel, root: Path) -> None:
    """Write the files of `model` into directory `root`, made if absent."""
    root.mkdir(exist_ok=True)
    files = {f"W{k}.bin": w for k, w in enumerate(model.projections, start=1)}
    sub = model.subspace_dims
    doc = {
        "version": MODEL_VERSION,
        "method": model.method,
        "input_dims": list(model.input_dims),
        "subspace_dims": list(sub) if isinstance(sub, tuple) else int(sub),
        "positive_class": model.positive_class,
        "lambda": model.config.reg_lambda,
        "max_iter": model.config.max_iter,
        "eps": model.config.eps,
        "init": model.config.init,
        "seed": model.config.seed,
        "parameter_count": model.fit_report.parameter_count,
        "projections": [
            {"file": name, "rows": w.shape[0], "cols": w.shape[1]} for name, w in files.items()
        ],
        "reference_mean": None,
        "class_means": None,
        "fit_report": asdict(model.fit_report),
    }
    if model.reference_mean is not None:
        files["mean.bin"] = model.reference_mean
        doc["reference_mean"] = {"file": "mean.bin", "dims": list(model.input_dims)}
    if model.class_means is not None:
        files["class_means.bin"] = np.moveaxis(model.class_means, 0, -1)
        doc["class_means"] = {
            "file": "class_means.bin",
            "count": len(model.class_means),
            "dims": list(model.input_dims),
        }
    for name, array in files.items():
        _write_array(root / name, array)
    (root / MODEL_NAME).write_text(json.dumps(doc, indent=2) + "\n")


def _read_finite(root: Path, entry: dict, shape) -> np.ndarray:
    """The matrix in the file `entry` names in `root`: finite values only."""
    path = root / _check_file_name("file", entry["file"])
    array = _read_array(path, shape)
    if not np.isfinite(array).all():
        raise DatasetFormatError(f"{path}: holds a NaN or infinite value")
    return array


def load_model(path) -> DiscriminantModel:
    """Load a model directory written by :func:`save_model`. A matrix
    file holding NaN or inf is a format error, and so is a matrix whose
    shape does not fit the method, `input_dims` and `subspace_dims`: one
    (prod(input_dims), d) matrix for a vector method, one (I_k, d_k) per
    mode for a tensor method, and means of shape `input_dims`."""
    root = Path(path)
    manifest_path = root / MODEL_NAME
    doc = _read_json(manifest_path, MODEL_VERSION)
    method = doc.get("method")
    if method not in METHODS:
        raise DatasetFormatError(f"{manifest_path}: unknown method {method!r}")
    with _manifest_entries(manifest_path):
        config = TrainConfig(
            subspace_dims=doc["subspace_dims"],
            reg_lambda=doc["lambda"],
            max_iter=doc["max_iter"],
            eps=doc["eps"],
            init=doc["init"],
        )
        input_dims = _check_dims("input_dims", doc["input_dims"])
        shapes = [(_check_count("rows", e["rows"]), _check_count("cols", e["cols"]))
                  for e in doc["projections"]]
        subspace, sub = _subspace_dims(method, config.subspace_dims, input_dims)
        vector = method in VECTOR_METHODS
        expected = [(math.prod(input_dims), sub[0])] if vector else list(zip(input_dims, sub))
        means = [doc[key] for key in ("reference_mean", "class_means") if doc.get(key)]
        if shapes != expected or any(_check_dims("dims", m["dims"]) != input_dims for m in means):
            raise DatasetFormatError(
                f"{manifest_path}: matrix shapes do not fit a {method} model of input "
                f"dims {input_dims} and subspace dims {config.subspace_dims}: projections "
                f"{shapes} (expected {expected}), means {[m['dims'] for m in means]}"
            )
        projections = [
            _read_finite(root, e, shape) for e, shape in zip(doc["projections"], expected)
        ]
        reference_mean = None
        if doc.get("reference_mean") is not None:
            reference_mean = _read_finite(root, doc["reference_mean"], input_dims)
        class_means = None
        if doc.get("class_means") is not None:
            entry = doc["class_means"]
            count = _check_count("count", entry["count"])
            stacked = _read_finite(root, entry, input_dims + (count,))
            class_means = np.ascontiguousarray(np.moveaxis(stacked, -1, 0))
        report = FitReport(**doc["fit_report"])
        stored = _check_count("parameter_count", doc["parameter_count"], minimum=0)
        if stored != report.parameter_count:
            raise ValueError(f"parameter_count {stored} differs from the fit report's")
        positive = doc.get("positive_class")
        positive = None if positive is None else _check_count("positive_class", positive)
    return DiscriminantModel(
        method=method,
        projections=projections,
        input_dims=input_dims,
        subspace_dims=subspace,
        reference_mean=reference_mean,
        positive_class=positive,
        config=config,
        fit_report=report,
        class_means=class_means,
    )
