"""Split-fraction sweep on synthetic Gaussian clusters.

For each train fraction, each repeat draws a fresh stratified split,
trains one-vs-rest models per method, and scores the held-out half by
mean average precision. The table reports mAP mean +/- std across
repeats and the mean one-vs-rest training time normalized to the
fastest method. Dims, solver flags, scoring and the report follow
`mcsda train` and `mcsda eval --task verify`. An unknown method, a
repeat count below one, and a fraction whose split leaves a class no
held-out sample are refused before any fit.

Example:
    python3 scripts/synthetic_protocol.py --repeats 3 --fractions 0.25,0.5
"""

import argparse
import math
import sys
import time

import numpy as np

from mcsda import (
    METHODS,
    SynthSpec,
    TrainConfig,
    average_precision,
    fit_one_vs_rest,
    stratified_split,
    summarize_folds,
    synth_generate,
    verification_report,
)
from mcsda.cli import _add_config_flags, _parse_dims, _write_report
from mcsda.datasets import _check_count
from mcsda.discriminant import _score_matrix


def parse_fractions(text):
    return tuple(float(p) for p in text.split(","))


def evaluate(models, test):
    """Held-out mAP of a one-vs-rest set, its models in class order."""
    scores = _score_matrix(models, test.samples)  # one row per model
    return verification_report({
        m.positive_class: average_precision(row, test.labels == m.positive_class)
        for m, row in zip(models, scores)
    }).mean_ap


def config_for(method, args):
    # the lda wrapper trains binary problems, so its subspace is capped
    # at one dimension; csda gets the product of the per-mode dims
    if method == "lda":
        sub = 1
    elif method == "csda":
        sub = math.prod(args.subspace)
    else:
        sub = args.subspace
    return TrainConfig(
        subspace_dims=sub,
        reg_lambda=args.reg_lambda,
        max_iter=args.max_iter,
        eps=args.eps,
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", type=_parse_dims, default=(20, 15))
    parser.add_argument("--classes", type=int, default=5)
    parser.add_argument("--per-class", type=int, default=40)
    parser.add_argument("--mean-scale", type=float, default=10.0)
    parser.add_argument("--sigma", type=float, default=1.0)
    parser.add_argument("--subspace", type=_parse_dims, default=(7, 7))
    parser.add_argument(
        "--methods", default="csda,mcsda,lda,mda",
        help="comma list from csda,mcsda,lda,mda",
    )
    parser.add_argument(
        "--fractions", type=parse_fractions, default=(0.1, 0.2, 0.25, 0.35, 0.5)
    )
    parser.add_argument("--repeats", type=int, default=5)
    _add_config_flags(parser)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--report", help="optional JSON output path")
    args = parser.parse_args()

    # the methods and the repeat count are checked before any data is drawn
    methods = args.methods.split(",")
    try:
        for method in methods:
            if method not in METHODS:
                raise ValueError(
                    f"--methods: unknown method {method!r}, expected some of "
                    f"{','.join(sorted(METHODS))}"
                )
        _check_count("--repeats", args.repeats)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    data = synth_generate(
        SynthSpec(
            dims=args.dims,
            n_classes=args.classes,
            samples_per_class=args.per_class,
            class_mean_scale=args.mean_scale,
            noise_sigma=args.sigma,
            seed=args.seed,
        )
    )

    # every split is drawn, and checked, before any fit
    sweep = []
    for fraction in args.fractions:
        splits = [
            stratified_split(data, fraction, seed=args.seed + 100 * r)
            for r in range(args.repeats)
        ]
        for _, test in splits:
            held_out = np.bincount(test.labels, minlength=data.n_classes + 1)[1:]
            if not held_out.all():
                print(
                    f"usage error: --fractions {fraction} leaves class "
                    f"{np.argmin(held_out) + 1} no held-out sample",
                    file=sys.stderr,
                )
                return 2
        sweep.append((fraction, splits))

    rows = []
    for method in methods:
        cfg = config_for(method, args)
        for fraction, splits in sweep:
            maps = []
            seconds = []
            for train, test in splits:
                start = time.perf_counter()
                models = fit_one_vs_rest(train, method, cfg)
                seconds.append(time.perf_counter() - start)
                maps.append(evaluate(models, test))
            rows.append(
                {
                    "method": method,
                    "fraction": fraction,
                    "map": summarize_folds(maps),
                    "train_seconds": summarize_folds(seconds),
                }
            )

    fastest = min(row["train_seconds"]["mean"] for row in rows)
    print(f"{'method':<7} {'k':>5} {'mAP':>16} {'train s':>9} {'normalized':>11}")
    for row in rows:
        m = row["map"]
        t = row["train_seconds"]["mean"]
        print(
            f"{row['method']:<7} {row['fraction']:>5.2f} "
            f"{m['mean']:.4f} +/- {m['std']:.4f} {t:>9.3f} {t / fastest:>11.2f}"
        )
    if args.report:
        _write_report(args.report, {"version": 1, "rows": rows})
    return 0


if __name__ == "__main__":
    sys.exit(main())
