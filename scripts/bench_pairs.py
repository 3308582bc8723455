"""Paired benchmark runs of two checkouts, written as one BENCH_<name>.json.

    python scripts/bench_pairs.py --parent ../parent --change . --name tiny_gates \
        --runs tiny-gates=10 dense-n18=3 --claim tiny-gates:op_p50_norm_s \
        --what "what the change does"

Each pair is one fresh `perfbench/run.py --trace 0` run in each checkout,
one after the other; the side that runs first alternates from pair to
pair, the parent first in pair 1, so that a drift in machine speed over
the session does not favour one side. For every end-to-end metric of
BENCHMARK.json the summary gives each side's median and quartiles
(statistics.quantiles, exclusive method), the ratio of the medians and
in how many pairs the change was better. The file is written to the
root of the checkout this script belongs to.

`--layers [N ...]` also times single layers at each N (default 18 20 22):
the Gaussian circuit's `apply_circuit` (lambda 1, delta 0.0123) and, for
N <= 12, the exact baseline's `encode_exact` build and the `apply_circuit`
of its circuit (lambda 1). They run in LAYER_PAIRS pairs of fresh
processes, one per side, alternating sides in the same way; a process
records the best of three runs of each layer at each N. Those pairs and
their summary go under "layers".

Standard library only: it runs with any Python 3.9+, whatever the
checkouts import.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
LAYER_PAIRS = 5
_EXACT_LAYER_MAX_QUBITS = 12
CLAIM_RULE = ("change better in at least 9 of 10 pairs and median gain larger than "
              "the parent's interquartile range")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One perfbench run: its result record and the environment line."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{checkout}: {workload} gave no result (exit {done.returncode}):\n"
                           f"{done.stderr}")
    result = json.loads(lines[-1])
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    record = {key: result[key] for key in ("attempted", "failed", "correct")}
    record.update((name, metric["value"]) for name, metric in result["metrics"].items())
    return record, env


# Run in a fresh process with the checkout's src first on the path; prints
# {"gaussian_apply_circuit_n<N>_s": best of three, ...} and, for N up to
# the bound given first, "exact_build_n<N>_s" and "exact_apply_circuit_n<N>_s".
# Only names that every checkout exports.
_LAYER_PROBE = """
import json, sys, time
from gaussprep import (GaussianSpec, PruningPolicy, apply_circuit, build_gaussian_prep,
                       encode_exact, new_zero_state, target_distribution)
def best(run):
    times = []
    for _ in range(3):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)
out = {}
exact_max, *qubits = map(int, sys.argv[1:])
for n in qubits:
    circuit = build_gaussian_prep(n, GaussianSpec(decay_rate=1.0), PruningPolicy(0.0123))
    out[f"gaussian_apply_circuit_n{n}_s"] = best(lambda: apply_circuit(new_zero_state(n), circuit))
    if n <= exact_max:
        amplitudes = target_distribution(GaussianSpec(decay_rate=1.0), n).amplitudes
        out[f"exact_build_n{n}_s"] = best(lambda: encode_exact(amplitudes, n))
        exact = encode_exact(amplitudes, n)
        out[f"exact_apply_circuit_n{n}_s"] = best(lambda: apply_circuit(new_zero_state(n), exact))
print(json.dumps(out))
"""


def time_layer(checkout: Path, qubits: list[int]) -> dict[str, float]:
    """One fresh process's best-of-three time of each layer at each n."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", _LAYER_PROBE, str(_EXACT_LAYER_MAX_QUBITS), *map(str, qubits)]
    done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: layer timing failed (exit {done.returncode}):\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def layer_pairs(checkouts: dict[str, Path], qubits: list[int], count: int) -> dict:
    """`count` pairs of layer timings, alternating sides, and their summary."""
    pairs = []
    for index in range(count):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        pair = {"pair": index + 1, "first": order[0]}
        for side in order:
            pair[side] = time_layer(checkouts[side], qubits)
        pairs.append(pair)
    return {"pairs": pairs, "summary": summary(pairs, {name: "lower" for name in pairs[0]["parent"]})}


def summary(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, the ratio of the
    medians and the pairs in which the change was better."""
    out = {}
    for name, direction in better.items():
        values = {side: [pair[side][name] for pair in pairs] for side in SIDES}
        entry = {}
        for side in SIDES:
            entry[f"{side}_median"] = statistics.median(values[side])
            if len(pairs) > 1:
                low, _, high = statistics.quantiles(values[side], n=4)
            else:
                low = high = values[side][0]
            entry[f"{side}_quartiles"] = [low, high]
        entry["change_over_parent"] = entry["change_median"] / entry["parent_median"]
        wins = sum((c < p) if direction == "lower" else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        entry["change_wins"] = f"{wins}/{len(pairs)}"
        out[name] = entry
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--name", required=True, help="the file is BENCH_<name>.json")
    parser.add_argument("--runs", nargs="*", default=[], metavar="WORKLOAD=PAIRS")
    parser.add_argument("--layers", nargs="*", type=int, metavar="N",
                        help="also time the Gaussian apply_circuit, and the exact baseline "
                             f"up to {_EXACT_LAYER_MAX_QUBITS} qubits, at these qubit counts "
                             "(default 18 20 22)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC", help="the gain the change claims")
    parser.add_argument("--what", required=True, help="one sentence on what is compared")
    args = parser.parse_args(argv)
    plan = [(workload, int(count)) for workload, count in (run.split("=") for run in args.runs)]
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    better = {metric["name"]: metric["better"] for metric in end_to_end}
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    environment: dict = {}
    workloads = {}
    for workload, count in plan:
        pairs = []
        for index in range(count):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            pair = {"pair": index + 1, "first": order[0]}
            for side in order:
                pair[side], env = run_once(checkouts[side], workload, args.seed, args.seconds)
                environment = environment or env
                print(f"{workload} pair {index + 1} {side}: op_p50_norm_s "
                      f"{pair[side]['op_p50_norm_s']:.4f}", file=sys.stderr)
            pairs.append(pair)
        workloads[workload] = {"pairs": pairs, "summary": summary(pairs, better)}

    record: dict = {
        "what": args.what,
        "command": f"python perfbench/run.py --workload W --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace 0",
        "environment": {key: environment.get(key) for key in
                        ("cpu_model", "nproc", "llc_size", "python", "numpy")},
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        record["claim"] = {"workload": workload, "metric": metric, "rule": CLAIM_RULE}
    record["workloads"] = workloads
    if args.layers is not None:
        qubits = args.layers or [18, 20, 22]
        record["layers"] = layer_pairs(checkouts, qubits, LAYER_PAIRS)
    path = ROOT / f"BENCH_{args.name}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
