"""Self-test of the benchmark's traced run: work counts must repeat.

    python3 perfbench/selftest.py

For each workload, two traced runs with one seed must report identical work
counts, and a run with another seed must report the same counts except
those listed in LAMBDA_DEPENDENT. Exits nonzero on any difference.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from tracing import LAYERS, WASTE_RATIOS, WORK_COUNTS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
OTHER_SEED = 8
SECONDS = 4.0  # counts come from op 1, so a short run suffices
COUNTS = (*WORK_COUNTS, *WASTE_RATIOS, *(f"{layer}.calls" for layer in LAYERS))
# Counts that follow lambda, and why:
LAMBDA_DEPENDENT = {
    # the width of each ry angle's text depends on lambda
    "synth-n256": {"qasm.bytes_out"},
    # golden-section search stops on a bracket width; its step count depends
    # on where the argmin lies, which depends on lambda
    "calibrate-n14": {"reference.closed_form_calls", "reference.calls", "metrics.calls",
                      "reference.distinct_beta_ratio"},
}


def traced_counts(workload: str, seed: int) -> dict[str, float]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=180,
    )
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run failed\n{completed.stdout}{completed.stderr}")
    metrics = json.loads(completed.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in COUNTS}


def differences(a: dict, b: dict, allowed: set[str] = frozenset()) -> list[str]:
    return [f"{name}: {a[name]} != {b[name]}" for name in COUNTS
            if name not in allowed and a[name] != b[name]]


def main() -> int:
    failures = 0
    for workload in WORKLOADS:
        first = traced_counts(workload, SEED)
        again = traced_counts(workload, SEED)
        other = traced_counts(workload, OTHER_SEED)
        problems = [f"same seed, {d}" for d in differences(first, again)]
        problems += [f"other seed, {d}" for d in
                     differences(first, other, LAMBDA_DEPENDENT.get(workload, set()))]
        print(f"{workload}: {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
