"""Split-fraction sweep on synthetic Gaussian clusters.

For each train fraction, each repeat draws a fresh stratified split,
trains one-vs-rest models per method, and scores the held-out half by
mean average precision. The table reports mAP mean +/- std across
repeats and the mean one-vs-rest training time normalized to the
fastest method.

Example:
    python3 scripts/synthetic_protocol.py --repeats 3 --fractions 0.25,0.5
"""

import argparse
import json
import math
import time

from mcsda import (
    SynthSpec,
    TrainConfig,
    average_precision,
    fit_one_vs_rest,
    mean_average_precision,
    score_batch,
    stratified_split,
    summarize_folds,
    synth_generate,
)


def parse_dims(text):
    return tuple(int(p) for p in text.split("x"))


def parse_fractions(text):
    return tuple(float(p) for p in text.split(","))


def evaluate(models, test):
    aps = []
    for model in models:
        scores = score_batch(model, test.samples)
        aps.append(average_precision(scores, test.labels == model.positive_class))
    return mean_average_precision(aps)


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
    parser.add_argument("--dims", type=parse_dims, default=(20, 15))
    parser.add_argument("--classes", type=int, default=5)
    parser.add_argument("--per-class", type=int, default=40)
    parser.add_argument("--mean-scale", type=float, default=10.0)
    parser.add_argument("--sigma", type=float, default=1.0)
    parser.add_argument("--subspace", type=parse_dims, default=(7, 7))
    parser.add_argument(
        "--methods", default="csda,mcsda,lda,mda",
        help="comma list from csda,mcsda,lda,mda",
    )
    parser.add_argument(
        "--fractions", type=parse_fractions, default=(0.1, 0.2, 0.25, 0.35, 0.5)
    )
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--lambda", dest="reg_lambda", type=float, default=TrainConfig.reg_lambda
    )
    parser.add_argument("--max-iter", type=int, default=TrainConfig.max_iter)
    parser.add_argument("--eps", type=float, default=TrainConfig.eps)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--report", help="optional JSON output path")
    args = parser.parse_args()

    methods = args.methods.split(",")
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

    rows = []
    for method in methods:
        cfg = config_for(method, args)
        for fraction in args.fractions:
            maps = []
            seconds = []
            for r in range(args.repeats):
                train, test = stratified_split(
                    data, fraction, seed=args.seed + 100 * r
                )
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
        with open(args.report, "w") as fh:
            json.dump({"version": 1, "rows": rows}, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
