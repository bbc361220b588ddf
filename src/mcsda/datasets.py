"""Labeled tensor datasets: container, on-disk format, splits, synthesis.

On disk a dataset is a directory holding three files:

* ``manifest.json``: version, dims, count, n_classes, dtype tag,
  data_file, label_file.
* ``data.bin``: `count` concatenated float64 little-endian tensors, each
  flattened with the first index varying fastest (Fortran order).
* ``labels.csv``: one integer class id per line, 1-based.

Every ``.bin`` array and JSON file, of datasets, models and reports
alike, goes through the one codec here: ``_write_array``, ``_read_array``
(size-checked before reading), ``_write_json`` (written whole, by one
rename), ``_read_json`` (the version must be a listed integer; undecodable
text is invalid JSON) and ``_manifest_entries``, the one mapper of
manifest entries, ``labels.csv`` text and ``data.bin`` contents: an entry
that is missing, text that does not decode or a value that a rule or the
container refuses is a format error naming its file. The rules cast
nothing: ``_check_count``, ``_check_real``, ``_check_dims`` and
``_check_file_name`` (a plain name in the directory). A stack such as
``data.bin`` is one array with the count as its last axis, and
``load_dataset`` returns the (count, *dims) view of the array it reads:
the samples lie in file order, each contiguous and Fortran-ordered, and
are not C-contiguous. Every save, of a dataset, a model or a whole model
set, writes through ``_staged_directory``: into a fresh hidden sibling
directory, renamed into place once complete, so a failed save leaves the
target as it was. ``_check_target`` is its one overwrite rule.

All randomness (splits, synthetic data) goes through numpy's default PCG64
``Generator`` seeded explicitly: results are reproducible from the seed alone.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import re
import shutil
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

__all__ = [
    "DatasetFormatError",
    "LabeledDataset",
    "DatasetManifest",
    "SynthSpec",
    "load_dataset",
    "save_dataset",
    "stratified_split",
    "synth_generate",
]

MANIFEST_VERSION = 1
DTYPE_TAG = "float64-le"
MANIFEST_NAME = "manifest.json"


class DatasetFormatError(ValueError):
    """A dataset directory violates the documented file format."""


def _check_integer(name: str, value) -> int:
    """`value` as an int, if it is an integer and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_count(name: str, value, minimum: int = 1) -> int:
    """`value` as an int, if it is an integer >= `minimum`: the one count rule."""
    count = _check_integer(name, value)
    if count < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {count}")
    return count


def _check_real(name: str, value, minimum: float, strict: bool = False):
    """`value`, if it is a finite real number, not a bool, >= `minimum` (> with `strict`)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not (math.isfinite(value) and (value > minimum if strict else value >= minimum)):
        bound = f"{'>' if strict else '>='} {minimum}"
        raise ValueError(f"{name} must be finite and {bound}, got {value}")
    return value


def _check_dims(name: str, value) -> tuple[int, ...]:
    """`value` as a tuple of ints, if it is a non-empty list or tuple of
    integers >= 1: the one dims rule."""
    dims = tuple(_check_integer(name, d) for d in value) if isinstance(value, (list, tuple)) else ()
    if not dims or min(dims) < 1:
        raise ValueError(f"invalid {name} {value}")
    return dims


def _check_file_name(name: str, value) -> str:
    """`value`, if it is a plain file name: one inside the manifest's directory."""
    if not isinstance(value, str) or value in ("", "..") or Path(value).name != value:
        raise ValueError(f"{name} must be a plain file name, got {value!r}")
    return value


@dataclass(frozen=True)
class LabeledDataset:
    """N same-shaped finite float64 tensors with 1-based integer class
    labels."""

    samples: np.ndarray  # (count, *dims)
    labels: np.ndarray  # (count,) ints in 1..n_classes
    n_classes: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if samples.ndim < 2:
            raise ValueError("samples must be an array of shape (count, *dims)")
        if labels.ndim != 1 or labels.shape[0] != samples.shape[0]:
            raise ValueError(
                f"got {labels.size} labels for {samples.shape[0]} samples"
            )
        object.__setattr__(self, "n_classes", _check_count("n_classes", self.n_classes))
        if labels.size and (labels.min() < 1 or labels.max() > self.n_classes):
            raise ValueError(
                f"labels must lie in 1..{self.n_classes}, found range "
                f"{labels.min()}..{labels.max()}"
            )
        finite = np.isfinite(samples).all(axis=tuple(range(1, samples.ndim)))
        if not finite.all():
            raise ValueError(
                f"sample {int(np.argmin(finite))} holds a NaN or infinite value"
            )
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "labels", labels)

    @property
    def count(self) -> int:
        return self.samples.shape[0]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(self.samples.shape[1:])

    def class_indices(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.labels == label)

    def class_counts(self) -> np.ndarray:
        """Per-class sample counts for classes 1..n_classes."""
        return np.bincount(self.labels, minlength=self.n_classes + 1)[1:]


@dataclass(frozen=True)
class DatasetManifest:
    version: int
    dims: tuple[int, ...]
    count: int
    n_classes: int
    dtype: str
    data_file: str
    label_file: str

    def __post_init__(self):
        if self.dtype != DTYPE_TAG:
            raise ValueError(f"unsupported dtype tag {self.dtype!r}, expected {DTYPE_TAG!r}")
        object.__setattr__(self, "dims", _check_dims("dims", self.dims))
        _check_count("count", self.count, minimum=0)  # an empty dataset still round-trips
        _check_count("n_classes", self.n_classes)
        _check_file_name("data_file", self.data_file)
        _check_file_name("label_file", self.label_file)

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic dataset of Gaussian class clusters.

    Each class draws a mean tensor with independent Normal(0,
    class_mean_scale^2) entries; samples add independent Normal(0,
    noise_sigma^2) entry noise to their class mean. noise_sigma = 0 makes
    every sample equal to its class mean. Every dim and both counts are
    integers >= 1, and the seed an integer >= 0.
    """

    dims: tuple[int, ...]
    n_classes: int
    samples_per_class: int
    class_mean_scale: float = 1.0
    noise_sigma: float = 0.1
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "dims", _check_dims("dims", self.dims))
        _check_count("n_classes", self.n_classes)
        _check_count("samples_per_class", self.samples_per_class)
        _check_real("class_mean_scale", self.class_mean_scale, 0, strict=True)
        _check_real("noise_sigma", self.noise_sigma, 0)
        _check_count("seed", self.seed, minimum=0)


def _write_array(path: Path, array: np.ndarray) -> None:
    """Write `array` as little-endian float64, first index fastest."""
    np.asarray(array, dtype="<f8").ravel(order="F").tofile(path)


def _read_array(path: Path, shape: tuple[int, ...]) -> np.ndarray:
    """Read an array of `shape` written by :func:`_write_array`, checking
    the file size first; ``fromfile`` then reads straight into it."""
    if not path.exists():
        raise FileNotFoundError(f"missing file {path}")
    expected = 8 * math.prod(shape)
    with open(path, "rb") as fh:
        found = os.fstat(fh.fileno()).st_size
        if found != expected:
            raise DatasetFormatError(
                f"{path}: size mismatch: expected {expected} bytes, found {found}"
            )
        flat = np.fromfile(fh, dtype="<f8", count=expected // 8)
    return flat.reshape(shape, order="F")


def _read_json(path: Path, *versions: int) -> dict:
    """Load the JSON manifest at `path`, whose version must be one of `versions`."""
    if not path.exists():
        raise FileNotFoundError(f"{path.parent}: missing {path.name}")
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:  # undecodable text, too
        raise DatasetFormatError(f"{path}: invalid JSON: {exc}") from exc
    found = doc.get("version") if isinstance(doc, dict) else None
    if type(found) is not int or found not in versions:  # 1.0 and true are not 1
        raise DatasetFormatError(
            f"{path}: unsupported version {found!r}, expected {' or '.join(map(str, versions))}"
        )
    return doc


def _write_json(path, doc: dict) -> str:
    """Write `doc` as indented JSON to `path`, making its parent
    directories, through a sibling temporary file and one rename; returns
    the JSON text. Every JSON file goes through here."""
    text = json.dumps(doc, indent=2)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text + "\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # gone already on success
    return text


@contextmanager
def _manifest_entries(path: Path):
    """Report a missing entry, undecodable text or a value a rule refuses,
    met in the block, as a DatasetFormatError naming `path`; the codec's
    own errors pass through."""
    try:
        yield
    except DatasetFormatError:
        raise
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from exc
    except (KeyError, TypeError) as exc:
        raise DatasetFormatError(f"{path}: missing or malformed entry: {exc}") from exc


def _check_target(root: Path, outputs: tuple[str, ...], kind: str, force: bool) -> None:
    """The overwrite rule of every save: `root` may be absent or empty,
    or, if `force` is set, hold an earlier output (a file matching one of
    the glob patterns `outputs`); nothing else."""
    if any(next(root.glob(pattern), None) for pattern in outputs):
        if not force:
            raise FileExistsError(f"refusing to overwrite existing {kind} at {root} (use force)")
    elif root.exists() and (not root.is_dir() or any(root.iterdir())):
        raise FileExistsError(
            f"refusing to write a {kind} into {root}: it is not empty and holds "
            f"no {' or '.join(outputs)}"
        )


def _remove_dead_stages(root: Path) -> None:
    """Remove the stages beside `root` named with the pid of no running
    process, left by killed saves, and their `-old` asides when `root`
    exists: without it, an aside holds the only copy of the last output.
    POSIX only (on Windows, ``os.kill(pid, 0)`` ends the process), and it
    assumes every save of `root` runs on this host, in this PID namespace."""
    if os.name != "posix":
        return
    pattern = re.compile(rf"\.{re.escape(root.name)}\.(\d{{1,9}})-[0-9a-f]{{8}}(-old)?")
    for sibling in root.parent.iterdir():
        match = pattern.fullmatch(sibling.name)
        if not match or (match[2] and not root.exists()):
            continue
        try:
            os.kill(int(match[1]), 0)  # signal 0 only checks that the process exists
        except ProcessLookupError:
            shutil.rmtree(sibling, ignore_errors=True)
        except PermissionError:  # it exists, owned by another user
            pass


@contextmanager
def _staged_directory(root: Path, outputs: tuple[str, ...], kind: str, force: bool):
    """Yield a fresh sibling of `root`, named with a leading dot, for the
    block to write whole, then rename it to `root`; an existing `root` is
    renamed aside first and removed last. On failure `root` stays as it
    was, and nothing is left beside it either way (nor, after the next
    save, by a killed one: :func:`_remove_dead_stages`, which assumes
    that every save of `root` runs on this host)."""
    _check_target(root, outputs, kind, force)
    root = Path(os.path.abspath(root))  # "." has no name and is its own parent
    root.parent.mkdir(parents=True, exist_ok=True)
    _remove_dead_stages(root)
    stage = root.parent / f".{root.name}.{os.getpid()}-{os.urandom(4).hex()}"
    aside = stage.with_name(stage.name + "-old")
    stage.mkdir()  # the mode a plain mkdir gives, which `root` keeps
    try:
        yield stage
        if root.exists():  # an earlier output, or an empty directory
            os.rename(root, aside)
        try:
            os.rename(stage, root)
        except BaseException:
            if aside.exists():
                os.rename(aside, root)
            raise
        if aside.exists():
            shutil.rmtree(aside)
    finally:
        shutil.rmtree(stage, ignore_errors=True)  # gone already on success


def save_dataset(data: LabeledDataset, path, force: bool = False) -> DatasetManifest:
    """Write `data` to directory `path` in the documented format, through
    :func:`_staged_directory`; an existing dataset is overwritten only
    with `force`."""
    manifest = DatasetManifest(
        version=MANIFEST_VERSION,
        dims=data.dims,
        count=data.count,
        n_classes=data.n_classes,
        dtype=DTYPE_TAG,
        data_file="data.bin",
        label_file="labels.csv",
    )
    with _staged_directory(Path(path), (MANIFEST_NAME,), "dataset", force) as root:
        _write_array(root / manifest.data_file, np.moveaxis(data.samples, 0, -1))
        (root / manifest.label_file).write_text("".join(f"{int(c)}\n" for c in data.labels))
        _write_json(root / MANIFEST_NAME, manifest.to_json_dict())
    return manifest


def _read_manifest(root: Path) -> DatasetManifest:
    manifest_path = root / MANIFEST_NAME
    doc = _read_json(manifest_path, MANIFEST_VERSION)
    with _manifest_entries(manifest_path):
        return DatasetManifest(**{f.name: doc[f.name] for f in fields(DatasetManifest)})


def _read_labels(path: Path, count: int, n_classes: int) -> np.ndarray:
    if not path.exists():
        raise FileNotFoundError(f"missing label file {path}")
    with _manifest_entries(path):  # undecodable text
        lines = [line.strip() for line in path.read_text().splitlines()]
    rows = [line for line in lines if line]
    if len(rows) != count:
        raise DatasetFormatError(
            f"{path}: has {len(rows)} labels, manifest expects {count}"
        )
    try:
        labels = np.array(rows, dtype=np.int64)  # parses each row as int() does
        if ((labels >= 1) & (labels <= n_classes)).all():
            return labels
    except (ValueError, OverflowError):
        pass  # some row is not an int64
    # name the first bad row by its line in the file, blank lines counted
    for number, line in enumerate(lines, start=1):
        if not line:
            continue
        try:
            value = int(line)
        except ValueError:
            raise DatasetFormatError(f"{path}: line {number}: not an integer: {line!r}") from None
        if not 1 <= value <= n_classes:
            raise DatasetFormatError(f"{path}: line {number}: label {value} outside 1..{n_classes}")


def load_dataset(path) -> LabeledDataset:
    """Load a dataset directory, validating manifest, bytes and labels.

    The samples are the (count, *dims) view of the array ``data.bin`` is
    read into, in file order: no copy is made."""
    root = Path(path)
    manifest = _read_manifest(root)
    data_path = root / manifest.data_file
    stacked = _read_array(data_path, manifest.dims + (manifest.count,))
    samples = np.moveaxis(stacked, -1, 0)
    labels = _read_labels(root / manifest.label_file, manifest.count, manifest.n_classes)
    with _manifest_entries(data_path):  # contents the container rejects, such as a NaN sample
        return LabeledDataset(samples=samples, labels=labels, n_classes=manifest.n_classes)


def stratified_split(
    data: LabeledDataset, fraction: float, seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """Split per class: ceil(fraction * n_i) samples to train, rest to test.

    Sampling is without replacement from each class using a PCG64
    generator seeded with `seed`; both halves keep the original sample
    order. The same seed always produces the same split.
    """
    if _check_real("fraction", fraction, 0, strict=True) >= 1:
        raise ValueError(f"fraction must lie strictly in (0, 1), got {fraction}")
    _check_count("seed", seed, minimum=0)
    rng = np.random.default_rng(seed)
    train_mask = np.zeros(data.count, dtype=bool)
    for label in range(1, data.n_classes + 1):
        idx = data.class_indices(label)
        if idx.size == 0:
            raise ValueError(f"class {label} has no samples to split")
        n_train = math.ceil(fraction * idx.size)
        chosen = rng.permutation(idx)[:n_train]
        train_mask[chosen] = True
    return tuple(
        LabeledDataset(data.samples[mask], data.labels[mask], data.n_classes)
        for mask in (train_mask, ~train_mask)
    )


def synth_generate(spec: SynthSpec) -> LabeledDataset:
    """Generate Gaussian class clusters per `spec`, deterministic in seed.

    Draw order is fixed: for each class in id order, first the class
    mean, then the sample noise block.
    """
    rng = np.random.default_rng(spec.seed)
    per_class = spec.samples_per_class
    count = spec.n_classes * per_class
    samples = np.empty((count, *spec.dims), dtype=np.float64)
    labels = np.empty(count, dtype=np.int64)
    for c in range(spec.n_classes):
        mean = rng.normal(0.0, spec.class_mean_scale, size=spec.dims)
        block = slice(c * per_class, (c + 1) * per_class)
        noise = rng.normal(0.0, spec.noise_sigma, size=(per_class, *spec.dims))
        samples[block] = mean + noise
        labels[block] = c + 1
    return LabeledDataset(samples=samples, labels=labels, n_classes=spec.n_classes)
