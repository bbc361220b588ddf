"""Training-cost sweep: vectorized vs per-mode class-specific fits.

Each size entry is dims:subspace (for example 40x30:7x7). For every
size the script runs ``mcsda bench`` once, which times one vectorized
fit at the product dimension and one alternating multilinear fit, the
median of --repeats each, and prints the measured wall-time ratio next to the
dominant-term prediction (one eigensolve at the product dimension
against max_iter sweeps of per-mode solves).

Example:
    python3 scripts/timing_comparison.py --sizes 20x15:5x5,40x30:7x7
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from mcsda import TrainConfig
from mcsda.cli import main as cli_main


def parse_sizes(text):
    sizes = []
    for chunk in text.split(","):
        dims_text, sub_text = chunk.split(":")
        sizes.append((dims_text, sub_text))
    return sizes


def bench(dims, sub, args, report):
    """One ``mcsda bench`` run; returns its JSON result."""
    argv = [
        "bench", "--dims", dims, "--subspace", sub,
        "--n", str(args.n), "--repeats", str(args.repeats),
        "--lambda", str(args.reg_lambda), "--max-iter", str(args.max_iter),
        "--seed", str(args.seed), "--report", str(report),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(argv)
    if code != 0:
        sys.exit(f"mcsda bench failed for {dims}:{sub} (exit code {code})")
    return json.loads(report.read_text())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=parse_sizes, default=parse_sizes("20x15:5x5,30x20:7x7,40x30:7x7")
    )
    parser.add_argument("--n", type=int, default=200, help="total sample count")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--lambda", dest="reg_lambda", type=float, default=TrainConfig.reg_lambda
    )
    parser.add_argument("--max-iter", type=int, default=TrainConfig.max_iter)
    parser.add_argument("--seed", type=int, default=TrainConfig.seed)
    parser.add_argument("--report", help="optional JSON output path")
    args = parser.parse_args()

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for dims, sub in args.sizes:
            result = bench(dims, sub, args, Path(tmp) / "bench.json")
            rows.append(
                {
                    "dims": result["dims"],
                    "subspace": result["subspace"],
                    "csda_seconds": result["csda_seconds"],
                    "mcsda_seconds": result["mcsda_seconds"],
                    "ratio": result["ratio_csda_over_mcsda"],
                    "predicted_ratio": result["predicted_ratio"],
                }
            )

    print(f"{'dims':>8} {'subspace':>9} {'csda s':>9} {'mcsda s':>9} "
          f"{'ratio':>7} {'predicted':>10}")
    for row in rows:
        dims = "x".join(map(str, row["dims"]))
        sub = "x".join(map(str, row["subspace"]))
        print(
            f"{dims:>8} {sub:>9} {row['csda_seconds']:>9.4f} "
            f"{row['mcsda_seconds']:>9.4f} {row['ratio']:>7.2f} "
            f"{row['predicted_ratio']:>10.2f}"
        )
    if args.report:
        with open(args.report, "w") as fh:
            json.dump({"version": 1, "rows": rows}, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
