"""Model directory format: model.json plus raw float64 matrices.

A saved model is a directory holding ``model.json`` and one
``W<k>.bin`` per projection matrix (k is 1-based), each stored
column-major as little-endian float64. Class-specific models additionally
store the reference mean as ``mean.bin``; multi-class lda/mda store all
class means as ``class_means.bin``, one stack with the class as its last
axis. The codec of :mod:`mcsda.datasets` writes and reads every file,
``model.json`` by ``_write_json``: a missing or truncated matrix file and
a malformed ``model.json`` fail as a bad dataset does. Bit exact round trips.

Format v2 stores only what the fit's shape rule cannot derive: no matrix
shapes, means' dims, parameter count or seed. ``load_model`` takes each
shape and the fit report's ``parameter_count`` from the rule, and reads
v1 files on the same path, ignoring the derived entries they hold.

``_write_model`` puts one model's files into a directory. ``save_model``
stages one model, and ``mcsda train`` one model or a one-vs-rest set of
``class_<c>`` models with its ``fit_report.json``, through
:func:`mcsda.datasets._staged_directory`: each is written and replaced as
one unit, over an earlier model or set (``MODEL_OUTPUTS``) only if forced.
"""

from __future__ import annotations

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
    _write_json,
)
from .discriminant import DiscriminantModel, FitReport, TrainConfig, _projection_shapes

__all__ = ["save_model", "load_model"]

MODEL_VERSION = 2
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
    report = asdict(model.fit_report)
    del report["parameter_count"]  # the shape rule's: load_model derives it
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
        "projections": [{"file": name} for name in files],
        "reference_mean": None,
        "class_means": None,
        "fit_report": report,
    }
    if model.reference_mean is not None:
        files["mean.bin"] = model.reference_mean
        doc["reference_mean"] = {"file": "mean.bin"}
    if model.class_means is not None:
        files["class_means.bin"] = np.moveaxis(model.class_means, 0, -1)
        doc["class_means"] = {"file": "class_means.bin", "count": len(model.class_means)}
    for name, array in files.items():
        _write_array(root / name, array)
    _write_json(root / MODEL_NAME, doc)


def _read_finite(root: Path, entry: dict, shape) -> np.ndarray:
    """The matrix in the file `entry` names in `root`: finite values only."""
    path = root / _check_file_name("file", entry["file"])
    array = _read_array(path, shape)
    if not np.isfinite(array).all():
        raise DatasetFormatError(f"{path}: holds a NaN or infinite value")
    return array


def load_model(path) -> DiscriminantModel:
    """Load a model directory written by :func:`save_model`, format v1 or
    v2. Each matrix must have the shape the fit's shape rule gives for the
    method, `input_dims` and `subspace_dims`, and each mean that of
    `input_dims`: a file of another size, or holding NaN or inf, is a format
    error naming it. The fit report's `parameter_count` is the rule's too."""
    root = Path(path)
    manifest_path = root / MODEL_NAME
    doc = _read_json(manifest_path, 1, MODEL_VERSION)
    with _manifest_entries(manifest_path):
        method = doc["method"]
        config = TrainConfig(
            subspace_dims=doc["subspace_dims"],
            reg_lambda=doc["lambda"],
            max_iter=doc["max_iter"],
            eps=doc["eps"],
            init=doc["init"],
        )
        input_dims = _check_dims("input_dims", doc["input_dims"])
        subspace, shapes = _projection_shapes(method, config.subspace_dims, input_dims)
        if len(doc["projections"]) != len(shapes):
            raise ValueError(f"a {method} model of input dims {input_dims} has {len(shapes)} "
                             f"projections, not {len(doc['projections'])}")
        projections = [
            _read_finite(root, e, shape) for e, shape in zip(doc["projections"], shapes)
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
        size = sum(rows * cols for rows, cols in shapes)  # not a count a v1 file stores
        report = FitReport(**{**doc["fit_report"], "parameter_count": size})
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
