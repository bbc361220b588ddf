"""Split-fraction sweep on synthetic Gaussian clusters.

For each train fraction, each repeat draws a fresh stratified split,
trains one-vs-rest models per method, and scores the held-out half by
mean average precision. The table reports mAP mean +/- std across
repeats and the mean one-vs-rest training time normalized to the
fastest method. Dims, solver flags and the synthetic data follow
`mcsda train` and `mcsda synth` through the CLI's `_config` and
`_synth_spec`; each set is evaluated by `mcsda eval`'s own routine,
`_evaluate`, as `--task verify`; the report is written whole, through
the codec's one JSON writer. Refused with exit code 2 before any fit:
a --report that is a directory (by argparse), and with one `usage
error:` line an unknown method, a solver flag or subspace the fit's
rules refuse (--subspace is checked against --dims for every method),
fewer than two classes (--classes 1, by the same rule), a repeat count
below one, a synthetic spec the generator refuses (--seed,
--per-class, ...), a fraction outside (0, 1) and one whose split
leaves a class no held-out sample.

Example:
    python3 scripts/synthetic_protocol.py --repeats 3 --fractions 0.25,0.5
"""

import argparse
import math
import sys
import time

from mcsda import METHODS, fit_one_vs_rest, stratified_split, summarize_folds, synth_generate
from mcsda.cli import (
    _add_config_flags,
    _config,
    _evaluate,
    _parse_dims,
    _report_path,
    _synth_spec,
)
from mcsda.datasets import _check_count, _write_json
from mcsda.discriminant import _projection_shapes


def parse_fractions(text):
    return tuple(float(p) for p in text.split(","))


def config_for(method, args):
    # the lda wrapper trains binary problems, so its subspace is capped
    # at one dimension; csda gets the product of the per-mode dims
    if method == "lda":
        sub = 1
    elif method == "csda":
        sub = math.prod(args.subspace)
    else:
        sub = args.subspace
    return _config(args, sub)


def checked_sweep(args):
    """The (fraction, splits) sweep and the (method, config) pairs, each
    checked, the methods before any data is drawn; a ValueError otherwise."""
    configs = []
    for method in args.methods.split(","):
        if method not in METHODS:
            raise ValueError(
                f"--methods: unknown method {method!r}, expected some of "
                f"{','.join(sorted(METHODS))}"
            )
        cfg = config_for(method, args)
        _projection_shapes(method, cfg.subspace_dims, args.dims, args.classes, 1)
        configs.append((method, cfg))
    _check_count("--repeats", args.repeats)
    data = synth_generate(_synth_spec(args))
    sweep = []
    for fraction in args.fractions:
        splits = [
            stratified_split(data, fraction, seed=args.seed + 100 * r)
            for r in range(args.repeats)
        ]
        for _, test in splits:
            held_out = test.class_counts()
            if not held_out.all():
                raise ValueError(
                    f"--fractions {fraction} leaves class "
                    f"{held_out.argmin() + 1} no held-out sample"
                )
        sweep.append((fraction, splits))
    return sweep, configs


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
    parser.add_argument("--report", type=_report_path, help="optional JSON output path")
    args = parser.parse_args()

    try:  # every check runs before the first fit
        sweep, configs = checked_sweep(args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

    rows = []
    for method, cfg in configs:
        for fraction, splits in sweep:
            maps = []
            seconds = []
            for train, test in splits:
                start = time.perf_counter()
                models = fit_one_vs_rest(train, method, cfg)
                seconds.append(time.perf_counter() - start)
                maps.append(_evaluate(models, test, "verify", "held-out split").mean_ap)
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
        _write_json(args.report, {"version": 1, "rows": rows})
    return 0


if __name__ == "__main__":
    sys.exit(main())
