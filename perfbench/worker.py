"""One fresh benchmark process: set-up, a closed loop of ops, output checks.

    python3 perfbench/worker.py {main|probe|trace} WORKLOAD SEED SECONDS

run.py starts this script; it prints one JSON object as its last stdout
line. The set-up clock starts before gaussprep (and so numpy) is imported:
set-up is import, parser construction and one untimed warm-up op (op 0,
the same in every process of a run), which every CLI user pays.

- probe: set-up only.
- main: set-up, then ops 1, 2, ... one after another (a closed loop with
  one client) until their summed wall time reaches SECONDS, then the
  workload's once-per-run check ops. Before each op, untimed as far as the
  op goes, the speedref task runs REF_RUNS_PER_OP times, so that run.py can
  express op times at a fixed machine speed.
- trace: an untraced loop, then a traced loop over the same ops, each for
  SECONDS / 2, then one memory pass over op 1 whose time is not reported.
"""

import time

SETUP_START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gaussprep import cli  # noqa: E402

from workloads import Op, final_ops, make_op  # noqa: E402

MAX_PROBLEMS_KEPT = 20
REF_RUNS_PER_OP = 2  # speedref task runs before each timed op, about 16 ms each
TRACE_DIR = ROOT / ".bench_out"


def run_op(op: Op) -> tuple[float, float, int, str, str]:
    """Call the CLI in-process with stdout and stderr captured in memory;
    returns (wall s, cpu s, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(op.argv))
        except Exception:  # a crashing op is a failed op, not a crashed benchmark
            traceback.print_exc()
            code = -1
    wall = time.perf_counter() - wall_start
    return wall, time.process_time() - cpu_start, code, out.getvalue(), err.getvalue()


class Tally:
    """Ops attempted and failed; an op fails on a nonzero exit code or on
    any problem its output check finds."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, op: Op, code: int, stdout: str, stderr: str, expected: str | None = None) -> None:
        import checks  # numpy-backed; imported only after the set-up clock stops

        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}: {stderr.strip()}"]
        else:
            problems = checks.check(op, stdout)
            if expected is not None and stdout != expected:
                problems.append("repeating op 1 gave a different output")
        if problems:
            self.failed += 1
            self.problems += [f"{' '.join(op.argv)}: {p}" for p in problems]
            del self.problems[MAX_PROBLEMS_KEPT:]

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "problems": self.problems}


def closed_loop(workload: str, seed: int, seconds: float, tally: Tally, before_op=None, after_op=None):
    """Ops 1, 2, ... until their summed wall time reaches `seconds`; checks
    run between ops, outside the timed region. Returns {op id: (wall, cpu)}
    and op 1's stdout."""
    times: dict[int, tuple[float, float]] = {}
    first_stdout = ""
    index = 1
    while sum(wall for wall, _ in times.values()) < seconds:
        op = make_op(workload, seed, index)
        if before_op:
            before_op(index)
        wall, cpu, code, stdout, stderr = run_op(op)
        if after_op:
            after_op(index)
        times[index] = (wall, cpu)
        tally.record(op, code, stdout, stderr)
        if index == 1:
            first_stdout = stdout
        index += 1
    return times, first_stdout


def main_mode(workload: str, seed: int, seconds: float) -> dict:
    warm_up = make_op(workload, seed, 0)
    _, _, code, stdout, stderr = run_op(warm_up)
    setup_s = time.perf_counter() - SETUP_START
    tally = Tally()
    tally.record(warm_up, code, stdout, stderr)

    from speedref import SpeedReference

    reference = SpeedReference()
    reference.run()  # warm-up
    ref_times: list[tuple[float, float]] = []

    def time_reference(_index: int) -> None:
        for _ in range(REF_RUNS_PER_OP):
            cpu_start = time.process_time()
            wall_start = time.perf_counter()
            reference.run()
            ref_times.append((time.perf_counter() - wall_start, time.process_time() - cpu_start))

    times, first_stdout = closed_loop(workload, seed, seconds, tally, before_op=time_reference)
    # ru_maxrss before the check ops, so their allocations stay out of it
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first = make_op(workload, seed, 1)
    for op in final_ops(workload, seed):
        _, _, code, stdout, stderr = run_op(op)
        tally.record(op, code, stdout, stderr, expected=first_stdout if op == first else None)
    return {
        "setup_s": setup_s,
        "walls": [wall for wall, _ in times.values()],
        "cpus": [cpu for _, cpu in times.values()],
        "ref_walls": [wall for wall, _ in ref_times],
        "ref_cpus": [cpu for _, cpu in ref_times],
        "peak_rss_mib": peak_rss_mib,
        **tally.as_dict(),
    }


def probe_mode(workload: str, seed: int) -> dict:
    warm_up = make_op(workload, seed, 0)
    _, _, code, stdout, stderr = run_op(warm_up)
    setup_s = time.perf_counter() - SETUP_START
    tally = Tally()
    tally.record(warm_up, code, stdout, stderr)
    return {"setup_s": setup_s, **tally.as_dict()}


def trace_mode(workload: str, seed: int, seconds: float) -> dict:
    import statistics

    import tracing

    tally = Tally()
    warm_up = make_op(workload, seed, 0)
    tally.record(warm_up, *run_op(warm_up)[2:])
    untraced, _ = closed_loop(workload, seed, seconds / 2.0, tally)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, _ = closed_loop(
            workload, seed, seconds / 2.0, tally,
            before_op=lambda index: setattr(tracer, "op_id", index),
            after_op=lambda index: tracer.work[index].close(),
        )
    finally:
        tracer.uninstall()

    first = make_op(workload, seed, 1)
    peaks = tracing.peak_multiples(lambda: tally.record(first, *run_op(first)[2:]))
    metrics = tracing.layer_metrics(
        tracer,
        {index: wall for index, (wall, _) in traced.items()},
        statistics.median(wall for wall, _ in untraced.values()),
        peaks,
    )
    tracer.write(TRACE_DIR / f"spans-{workload}-seed{seed}.jsonl")
    return {"layer_metrics": metrics, **tally.as_dict()}


def main(argv: list[str]) -> int:
    mode, workload, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    if mode == "main":
        result = main_mode(workload, seed, seconds)
    elif mode == "probe":
        result = probe_mode(workload, seed)
    elif mode == "trace":
        result = trace_mode(workload, seed, seconds)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
