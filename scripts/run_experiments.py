"""Reproduce the package's headline experiment tables with the gaussprep CLI.

Writes, under --outdir (default results/):

  sweep.csv              metrics/cost grid, n = 2..12 x four pruning thresholds
  cost_comparison.csv    gaussian circuit vs exact-encoding baseline, n = 4..10
  calibration_n{N}.csv   decay-parameter search diagnostics for N in {8, 10, 12}
  distribution_n8.csv    per-basis-state target vs prepared probabilities at n = 8
  histogram_n5.csv       seeded 50000-shot sampling dump at n = 5

Each file is the --out of one `gaussprep` command, listed in main(). Every
run is deterministic except the wall_time_ms column.
"""

from __future__ import annotations

import argparse
import csv
import os

import gaussprep.cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--outdir", default="results", help="output directory (default results/)")
    parser.add_argument("--lambda", dest="decay_rate", default="1.0",
                        help="target decay rate (default 1.0)")
    args = parser.parse_args()
    os.makedirs(args.outdir, exist_ok=True)

    def out(name: str) -> list[str]:
        return ["--lambda", args.decay_rate, "--out", os.path.join(args.outdir, name)]

    commands = [
        ["sweep", "-n", *map(str, range(2, 13)), "--deltas", "0", "0.001", "0.0123", "0.1",
         *out("sweep.csv")],
        ["sweep", "-n", *map(str, range(4, 11)), "--deltas", "0.0123", "--include-baseline",
         *out("cost_comparison.csv")],
        *(["calibrate", "-n", str(n), *out(f"calibration_n{n}.csv")] for n in (8, 10, 12)),
        ["prepare", "-n", "8", "--delta", "0", "--beta", "calibrated",
         *out("distribution_n8.csv")],
        ["sample", "-n", "5", "--shots", "50000", "--seed", "1234", *out("histogram_n5.csv")],
    ]
    for argv in commands:
        print("$ gaussprep " + " ".join(argv), flush=True)
        code = gaussprep.cli.main(argv)
        if code:
            return code

    print("cost comparison vs exact encoding:")
    with open(os.path.join(args.outdir, "cost_comparison.csv"), newline="", encoding="utf-8") as f:
        totals = {(row["n"], row["method"]): row["gate_total"] for row in csv.DictReader(f)}
    for n in sorted({n for n, _ in totals}, key=int):
        gaussian, baseline = totals[n, "gaussian"], totals[n, "baseline"]
        if gaussian and baseline:
            print(f"  n={n}: {gaussian} gates vs {baseline} baseline "
                  f"({int(baseline) / int(gaussian):.1f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
