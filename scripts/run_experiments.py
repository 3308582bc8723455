"""Reproduce the package's headline experiment tables.

Writes, under --outdir (default results/):

  sweep.csv              metrics/cost grid, n = 2..12 x four pruning thresholds
  cost_comparison.csv    gaussian circuit vs exact-encoding baseline, n = 4..10
  calibration_n{N}.csv   decay-parameter search diagnostics for N in {8, 10, 12}
  distribution_n8.csv    per-basis-state target vs prepared probabilities at n = 8
  histogram_n5.csv       seeded 50000-shot sampling dump at n = 5

Every run is deterministic except the wall_time_ms column.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path

from gaussprep import SweepConfig, calibrate_beta, run_prepare, run_sweep, sample_counts
from gaussprep.harness import (
    SWEEP_COLUMNS,
    calibration_summary,
    calibration_table,
    distribution_table,
    histogram_table,
    table_text,
)

SWEEP_QUBITS = tuple(range(2, 13))
SWEEP_DELTAS = (0.0, 0.001, 0.0123, 0.1)
BASELINE_QUBITS = tuple(range(4, 11))
CALIBRATION_QUBITS = (8, 10, 12)
SAMPLE_QUBITS = 5
SAMPLE_SHOTS = 50_000
SAMPLE_SEED = 1234


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--outdir", default="results", help="output directory (default results/)")
    parser.add_argument(
        "--lambda",
        dest="decay_rate",
        type=float,
        default=1.0,
        help="target decay rate (default 1.0)",
    )
    args = parser.parse_args()
    os.makedirs(args.outdir, exist_ok=True)

    def path(name: str) -> str:
        return os.path.join(args.outdir, name)

    def write(name: str, table) -> None:
        Path(path(name)).write_text(table_text(*table, "csv"), encoding="utf-8", newline="")

    print(f"sweep: n in {SWEEP_QUBITS}, delta in {SWEEP_DELTAS}")
    rows = run_sweep(
        SweepConfig(
            n_values=SWEEP_QUBITS,
            delta_values=SWEEP_DELTAS,
            decay_rate=args.decay_rate,
        )
    )
    write("sweep.csv", (SWEEP_COLUMNS, rows))
    failed = [row for row in rows if row.error is not None]
    print(f"  wrote {len(rows)} rows to {path('sweep.csv')}"
          + (f" ({len(failed)} failed)" if failed else ""))

    print(f"cost comparison vs exact encoding: n in {BASELINE_QUBITS}")
    rows = run_sweep(
        SweepConfig(
            n_values=BASELINE_QUBITS,
            delta_values=(0.0123,),
            decay_rate=args.decay_rate,
            include_baseline=True,
        )
    )
    write("cost_comparison.csv", (SWEEP_COLUMNS, rows))
    for n in BASELINE_QUBITS:
        gaussian = next(r for r in rows if r.n == n and r.method == "gaussian")
        baseline = next(r for r in rows if r.n == n and r.method == "baseline")
        print(f"  n={n}: {gaussian.gate_total} gates vs {baseline.gate_total} baseline "
              f"({baseline.gate_total / gaussian.gate_total:.1f}x)")

    for n in CALIBRATION_QUBITS:
        result = calibrate_beta(args.decay_rate, n)
        write(f"calibration_n{n}.csv", calibration_table(result))
        print(f"calibration n={n}: {json.dumps(calibration_summary(result))}")

    result = run_prepare(8, decay_rate=args.decay_rate, delta=0.0,
                         beta_mode=calibrate_beta(args.decay_rate, 8).best_beta)
    write("distribution_n8.csv", distribution_table(result))
    print(f"distribution dump: fidelity {result.report.fidelity:.6f}, "
          f"mse {result.report.mse_amplitude:.3e} -> {path('distribution_n8.csv')}")

    result = run_prepare(SAMPLE_QUBITS, decay_rate=args.decay_rate)
    histogram = sample_counts(result.prepared_probabilities, SAMPLE_SHOTS, SAMPLE_SEED)
    write("histogram_n5.csv", histogram_table(result, histogram))
    print(f"sampling dump: {SAMPLE_SHOTS} shots, seed {SAMPLE_SEED} "
          f"-> {path('histogram_n5.csv')}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
