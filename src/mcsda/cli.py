"""Command line interface: synth, train, eval, bench.

Exit codes: 0 on success, 1 on runtime or numerical failure, 2 on usage
errors. Set MCSDA_LOG_LEVEL (DEBUG, INFO, ...) for progress logging.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import statistics
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import scipy

from .datasets import (
    DatasetFormatError,
    SynthSpec,
    _check_count,
    _check_dims,
    _staged_directory,
    load_dataset,
    save_dataset,
    synth_generate,
)
from .discriminant import (
    INIT_CHOICES,
    METHODS,
    VECTOR_METHODS,
    TrainConfig,
    _CLASS_SPECIFIC,
    _fit,
    _score_matrix,
    fit_mcsda,
    fit_csda,
    fit_one_vs_rest,
    parameter_count,
    score_batch,
)
from .metrics import average_precision, classification_report, verification_report
from .model_io import MODEL_NAME, MODEL_OUTPUTS, _write_model, load_model

logger = logging.getLogger(__name__)


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return _check_dims("dims", [int(p) for p in text.split("x")])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid dims {text!r}: expected integers >= 1 joined by 'x'"
        ) from None


def _train_config(args, method: str) -> TrainConfig:
    """The --dims flag is per mode, or one scalar for vector methods."""
    vector = method in VECTOR_METHODS
    if vector and len(args.dims) != 1:
        raise ValueError(
            f"{method} takes a scalar subspace dimension, got {'x'.join(map(str, args.dims))}"
        )
    return TrainConfig(
        subspace_dims=args.dims[0] if vector else args.dims,
        reg_lambda=args.reg_lambda,
        max_iter=args.max_iter,
        eps=args.eps,
        init=args.init,
    )


def _report_path(text: str) -> str:
    """--report names a file: an existing directory is refused before any work."""
    if Path(text).is_dir():
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    return text


def _write_report(path, doc: dict) -> str:
    """Write `doc` as indented JSON to `path`, making its parent
    directories, through a sibling temporary file and one rename; returns
    the JSON text. Every report goes through here."""
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


def cmd_synth(args) -> int:
    spec = SynthSpec(
        dims=args.dims,
        n_classes=args.classes,
        samples_per_class=args.per_class,
        class_mean_scale=args.mean_scale,
        noise_sigma=args.sigma,
        seed=args.seed,
    )
    data = synth_generate(spec)
    manifest = save_dataset(data, args.out, force=args.force)
    print(json.dumps(manifest.to_json_dict()))
    return 0


def cmd_train(args) -> int:
    """Fit and write the models and fit_report.json in one stage; entering it checks --out."""
    method = args.method
    if method in _CLASS_SPECIFIC and args.positive_class is None and not args.one_vs_rest:
        raise ValueError(f"{method} is class-specific: pass --positive-class or --one-vs-rest")
    data = load_dataset(args.data)
    config = _train_config(args, method)
    with _staged_directory(Path(args.out), MODEL_OUTPUTS, "model", args.force) as stage:
        models = (
            fit_one_vs_rest(data, method, config) if args.one_vs_rest
            else [_fit(data, method, args.positive_class, config)]
        )
        entries = [
            {"class": m.positive_class, "method": method, **asdict(m.fit_report)} for m in models
        ]
        report = {"version": 1, "method": method, "models": entries}
        for m in models:
            _write_model(m, stage / f"class_{m.positive_class}" if args.one_vs_rest else stage)
        (stage / "fit_report.json").write_text(json.dumps(report, indent=2) + "\n")
    for entry in entries:
        tag = "" if entry["class"] is None else f" class {entry['class']}"
        print(
            f"trained {method}{tag}: {entry['iterations_run']} sweeps, "
            f"converged={entry['converged']}, "
            f"parameters={entry['parameter_count']}, "
            f"{entry['wall_time_seconds']:.3f}s"
        )
    return 0


def _expand_model_dirs(spec: str) -> list[Path]:
    paths: list[Path] = []
    for chunk in spec.split(","):
        if not chunk:  # Path("") is the working directory
            raise ValueError(f"--models {spec!r} holds an empty entry")
        root = Path(chunk)
        if (root / MODEL_NAME).exists():
            found = [root]
        else:  # a directory of models; a dot-named one is a save's stage
            found = sorted(p.parent for p in root.glob(f"[!.]*/{MODEL_NAME}"))
        if not found:
            raise FileNotFoundError(f"no {MODEL_NAME} in or under {root}")
        paths.extend(found)
    return paths


def cmd_eval(args) -> int:
    models = [load_model(p) for p in _expand_model_dirs(args.models)]
    models.sort(key=lambda m: (m.positive_class is None, m.positive_class))
    data = load_dataset(args.data)
    for model in models:
        if tuple(model.input_dims) != data.dims:
            raise RuntimeError(
                f"model dims {tuple(model.input_dims)} do not match dataset "
                f"dims {data.dims}"
            )
    classes = [model.positive_class for model in models]
    if None in classes:
        raise RuntimeError(
            f"{args.task} needs class-specific models (no positive class set)"
        )
    if args.task == "verify":
        flags = {c: data.labels == c for c in classes}
        for c in classes:
            if classes.count(c) > 1:
                raise RuntimeError(
                    f"verification needs one model per class, got "
                    f"{classes.count(c)} models for positive class {c}"
                )
            if not flags[c].any():
                raise RuntimeError(
                    f"dataset {args.data} has no samples of class {c}, the "
                    f"positive class of a model"
                )
    elif classes != list(range(1, data.n_classes + 1)):
        raise RuntimeError(
            f"classification needs one model per class 1..{data.n_classes}, "
            f"got positive classes {classes}"
        )
    start = time.perf_counter()
    scores = _score_matrix(models, data.samples)  # one row per class, in class order
    if args.task == "verify":
        report = verification_report(
            {c: average_precision(row, flags[c]) for c, row in zip(classes, scores)},
            {c: int(flags[c].sum()) for c in classes},
        )
    else:
        # the first maximum, so ties go to the lowest class id
        report = classification_report(data.labels, np.argmax(scores, axis=0) + 1, data.n_classes)
    seconds = time.perf_counter() - start
    n_scores = len(models) * data.count
    logger.info(
        "eval %s: %d scores in %.4f s (%.0f scores/s)",
        args.task,
        n_scores,
        seconds,
        n_scores / seconds if seconds > 0 else math.inf,
    )
    print(_write_report(args.report, report.to_json_dict()))
    return 0


def _environment() -> dict:
    """What a timing depends on besides the code: library versions, the
    BLAS builds numpy and scipy link, the thread variables and the CPUs
    this process may run on."""

    def blas(config: dict) -> dict:
        deps = config.get("Build Dependencies", {})
        keys = ("name", "version", "openblas configuration")
        return {
            lib: {key: deps.get(lib, {}).get(key) for key in keys} for lib in ("blas", "lapack")
        }

    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_build": blas(np.show_config(mode="dicts")),
        "scipy_build": blas(scipy.show_config(mode="dicts")),
        "thread_env": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "cpu_count": os.cpu_count(),
        "affinity_cpus": (
            len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
        ),
    }


def cmd_bench(args) -> int:
    """Time the vectorized against the multilinear class-specific fit on
    one synthetic dataset and report wall times, the model-size gap and
    the scoring throughput of each fitted model."""
    _check_count("--repeats", args.repeats)
    if args.n < 2:
        raise ValueError(f"--n must be >= 2, one sample per class, got {args.n}")
    dims = args.dims
    sub = args.subspace
    if len(sub) != len(dims):
        raise ValueError(
            f"--subspace needs one entry per mode of --dims: got "
            f"{'x'.join(map(str, sub))} for {'x'.join(map(str, dims))}"
        )
    mcsda_parameters = parameter_count("mcsda", dims, sub)
    per_class = args.n // 2
    data = synth_generate(
        SynthSpec(
            dims=dims,
            n_classes=2,
            samples_per_class=per_class,
            class_mean_scale=5.0,
            noise_sigma=1.0,
            seed=args.seed,
        )
    )
    d_vector = math.prod(sub)
    ten_cfg = TrainConfig(
        subspace_dims=sub,
        reg_lambda=args.reg_lambda,
        max_iter=args.max_iter,
        eps=args.eps,
    )
    vec_cfg = replace(ten_cfg, subspace_dims=d_vector)

    def median_time(fn):
        """The median wall time of `fn` over the repeats, and its last result."""
        times = []
        for _ in range(args.repeats):
            start = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - start)
        return statistics.median(times), result

    csda_seconds, csda_model = median_time(lambda: fit_csda(data, 1, vec_cfg))
    mcsda_seconds, mcsda_model = median_time(lambda: fit_mcsda(data, 1, ten_cfg))
    ratio = csda_seconds / mcsda_seconds
    csda_scores_per_s = data.count / median_time(lambda: score_batch(csda_model, data.samples))[0]
    mcsda_scores_per_s = data.count / median_time(lambda: score_batch(mcsda_model, data.samples))[0]

    # dominant-term cost model: one eigensolve at prod(dims) for the
    # vectorized fit vs max_iter sweeps of per-mode solves
    big = math.prod(dims)
    n_total = data.count
    predicted_csda = n_total * big**2 + 6.5 * big**3
    predicted_mcsda = args.max_iter * (
        n_total * big * sum(sub) + 6.5 * sum(d**3 for d in dims)
    )
    predicted_ratio = predicted_csda / predicted_mcsda

    result = {
        "dims": list(dims),
        "subspace": list(sub),
        "samples": n_total,
        "repeats": args.repeats,
        "csda_seconds": csda_seconds,
        "mcsda_seconds": mcsda_seconds,
        "ratio_csda_over_mcsda": ratio,
        "predicted_ratio": predicted_ratio,
        "mcsda_iterations_run": mcsda_model.fit_report.iterations_run,
        "parameter_count_csda": parameter_count("csda", dims, d_vector),
        "parameter_count_mcsda": mcsda_parameters,
        "csda_scores_per_s": csda_scores_per_s,
        "mcsda_scores_per_s": mcsda_scores_per_s,
        "env": _environment(),
    }
    if args.report:
        _write_report(args.report, result)
    print(f"csda   {csda_seconds:10.4f}s  (normalized {ratio:8.2f})")
    print(f"mcsda  {mcsda_seconds:10.4f}s  (normalized {1.0:8.2f})")
    print(
        f"measured ratio csda/mcsda = {ratio:.2f}, "
        f"dominant-term prediction = {predicted_ratio:.2f}"
    )
    print(
        f"parameters: csda {result['parameter_count_csda']}, "
        f"mcsda {result['parameter_count_mcsda']}"
    )
    print(
        f"scoring: csda {csda_scores_per_s:.0f} scores/s, "
        f"mcsda {mcsda_scores_per_s:.0f} scores/s"
    )
    return 0


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """The training flags that train and bench share, with TrainConfig's defaults."""
    parser.add_argument(
        "--lambda", dest="reg_lambda", type=float, default=TrainConfig.reg_lambda
    )
    parser.add_argument("--max-iter", type=int, default=TrainConfig.max_iter)
    parser.add_argument("--eps", type=float, default=TrainConfig.eps)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process: parsing leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="mcsda",
        description="Train and evaluate discriminant subspace models on tensor data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic dataset directory")
    synth.add_argument("--dims", type=_parse_dims, required=True, help="e.g. 8x6")
    synth.add_argument("--classes", type=int, required=True)
    synth.add_argument("--per-class", type=int, required=True)
    synth.add_argument("--mean-scale", type=float, default=1.0)
    synth.add_argument("--sigma", type=float, default=0.1)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True)
    synth.add_argument("--force", action="store_true", help="overwrite existing output")
    synth.set_defaults(func=cmd_synth)

    train = sub.add_parser("train", help="train discriminant models")
    train.add_argument("--data", required=True, help="dataset directory")
    train.add_argument("--method", choices=sorted(METHODS), required=True)
    train.add_argument(
        "--dims",
        type=_parse_dims,
        required=True,
        help="subspace dims: AxB per mode for mda/mcsda, scalar for lda/csda",
    )
    _add_config_flags(train)
    train.add_argument("--init", choices=INIT_CHOICES, default=TrainConfig.init)
    group = train.add_mutually_exclusive_group()
    group.add_argument("--positive-class", type=int)
    group.add_argument("--one-vs-rest", action="store_true")
    train.add_argument("--out", required=True)
    train.add_argument("--force", action="store_true", help="overwrite existing output")
    train.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate saved models on a dataset")
    ev.add_argument(
        "--models",
        required=True,
        help="model directory, comma list, or directory of class_<i> models",
    )
    ev.add_argument("--data", required=True)
    ev.add_argument("--task", choices=("verify", "classify"), required=True)
    ev.add_argument("--report", type=_report_path, required=True, help="path for the JSON report")
    ev.set_defaults(func=cmd_eval)

    bench = sub.add_parser(
        "bench", help="time vectorized vs multilinear class-specific training"
    )
    bench.add_argument("--dims", type=_parse_dims, default=(40, 30))
    bench.add_argument("--subspace", type=_parse_dims, default=(7, 7))
    bench.add_argument("--n", type=int, default=200, help="total sample count")
    bench.add_argument("--repeats", type=int, default=5)
    _add_config_flags(bench)
    bench.add_argument("--seed", type=int, default=0, help="seed of the synthetic data")
    bench.add_argument("--report", type=_report_path, help="optional path for a JSON result")
    bench.set_defaults(func=cmd_bench)

    return parser


def _log_level() -> int:
    name = os.environ.get("MCSDA_LOG_LEVEL", "WARNING").upper()
    value = getattr(logging, name, None)
    return value if isinstance(value, int) else logging.WARNING


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=_log_level(), format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (DatasetFormatError, OSError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
