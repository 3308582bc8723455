"""gaussprep benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload dense-n18 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; gaussprep is imported from `src/`.
Every op is one in-process call of `gaussprep.cli.main(argv)` in a fresh
worker process (worker.py), its argv drawn from the seed (workloads.py) and
its output checked (checks.py) outside the timed region.

--trace 0 prints the end-to-end metrics. The closed loop runs in one worker,
and set-up is timed in that worker and in SETUP_SAMPLES - 1 more fresh
workers, one after another, each with the same warm-up op; the median is
reported. Op times are reported at a fixed machine speed (the *_norm_s
metrics): each is scaled by REF_SECONDS over the median time of the
speedref task, which the worker runs between ops. The shared machines the
benchmark runs on drift in speed by tens of percent over minutes, and the
scaling cancels the part of that drift ops and task share. The raw times
are printed too.
--trace 1 prints the per-layer metrics of a traced worker (tracing.py) and
writes its spans under .bench_out/.

Human-readable lines come first; the last stdout line is the JSON result.
The exit code is 0 only when every op ran and passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
# The speedref task's median wall and CPU time on the 2-vCPU machine the
# benchmark was written on; *_norm_s metrics are seconds at that speed.
REF_SECONDS = 0.016
RUN_BUDGET_S = 170.0  # a run must end within 180 s
BLAS_THREADS = 1
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NOTES = (
    "The 4 MiB n=18 state is twice the 2 MiB L2 and fits in the last-level cache this "
    "machine reports, so statevector.bytes_moved_computed is computed (32 B per amplitude "
    "update), not measured, and no roofline ratio is claimed. n=20 is left out because its "
    "16 MiB state made op time follow other tenants' use of the shared last-level cache."
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_norm_s": "s",
    "ops_per_norm_s": "1/s",
    "cpu_per_op_norm_s": "s",
    "peak_rss_mb": "MiB",
}


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return ""


def environment() -> dict:
    """What the numbers depend on: numpy, BLAS threads, CPU and its LLC."""
    import numpy

    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.machine())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "llc_size": _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip() or "unknown",
        "notes": NOTES,
    }


def worker_env() -> dict[str, str]:
    """The workers' environment, with one BLAS thread: a BLAS call split
    across every CPU of a small shared machine waits for its slowest thread,
    so its time would follow what other processes run."""
    env = dict(os.environ)
    for name in BLAS_THREAD_VARIABLES:
        env[name] = str(BLAS_THREADS)
    return env


def run_worker(mode: str, args: argparse.Namespace, env: dict, deadline: float) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), mode, args.workload, str(args.seed),
               str(args.seconds)]
    completed = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                               timeout=max(deadline - time.monotonic(), 1.0))
    if completed.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with {completed.returncode}:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def raw_times(main: dict) -> dict[str, float]:
    """Op times as measured, and the speedref task's medians."""
    walls, cpus = main["walls"], main["cpus"]
    return {
        "op_p50_s": statistics.median(walls),
        "ops_per_s": len(walls) / sum(walls),
        "cpu_per_op_s": statistics.median(cpus),
        "ref_wall_p50_s": statistics.median(main["ref_walls"]),
        "ref_cpu_p50_s": statistics.median(main["ref_cpus"]),
    }


def end_to_end(main: dict, setups: list[float]) -> dict[str, float]:
    raw = raw_times(main)
    wall_scale = REF_SECONDS / raw["ref_wall_p50_s"]
    cpu_scale = REF_SECONDS / raw["ref_cpu_p50_s"]
    return {
        "setup_s": statistics.median(setups),
        "op_p50_norm_s": raw["op_p50_s"] * wall_scale,
        "ops_per_norm_s": raw["ops_per_s"] / wall_scale,
        "cpu_per_op_norm_s": raw["cpu_per_op_s"] * cpu_scale,
        "peak_rss_mb": main["peak_rss_mib"],
    }


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed seconds per loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gaussprep" / "cli.py").is_file():
        print(f"perfbench: no gaussprep sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    env = worker_env()
    try:
        if args.trace:
            worker = run_worker("trace", args, env, deadline)
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in worker["layer_metrics"].items()}
            attempted, failed, problems = worker["attempted"], worker["failed"], worker["problems"]
        else:
            worker = run_worker("main", args, env, deadline)
            probes = [run_worker("probe", args, env, deadline) for _ in range(1, SETUP_SAMPLES)]
            setups = [worker["setup_s"], *(p["setup_s"] for p in probes)]
            values = end_to_end(worker, setups)
            metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                       for name, value in values.items()}
            attempted = worker["attempted"] + sum(p["attempted"] for p in probes)
            failed = worker["failed"] + sum(p["failed"] for p in probes)
            problems = worker["problems"] + [q for p in probes for q in p["problems"]]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print("env " + json.dumps(environment()))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    if not args.trace:
        print(f"  timed ops {len(worker['walls'])}; setup_s is the median of {SETUP_SAMPLES} fresh "
              f"processes: {', '.join(f'{s:.4f}' for s in setups)} s")
        print(f"  speedref runs {len(worker['ref_walls'])}; raw times, not scaled to REF_SECONDS "
              f"{REF_SECONDS} s:")
        for name, value in raw_times(worker).items():
            print(f"    {name:32s} {value:.6g} {'1/s' if name == 'ops_per_s' else 's'}")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_ratio':34s} {failed / attempted:.6g} ratio ({failed}/{attempted} ops)")
    for problem in problems:
        print(f"  FAILED {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
