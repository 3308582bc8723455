"""Per-layer tracing from outside the package: spans and work counts at the
boundaries between gaussprep's modules.

The tracer wraps `gaussprep.cli.main` and every function that
`gaussprep.cli` and `gaussprep.harness` import from another gaussprep
module, in the namespace where those callers look the name up. A span is
named `<module>.<function>` after the module that defines the function,
and records its start, end, parent span and op id. Per-gate functions are
never wrapped, so tracing adds a cost per layer call, not per gate. Spans
stay in memory until the run writes them out.

The program is single-process and synchronous: no layer queues work, so
there is no wait metric.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

from gaussprep import cli, harness

LAYERS = ("cli", "harness", "circuits", "encoder", "statevector", "reference", "metrics", "sampler", "qasm")
AMPLITUDE_BYTES = 16  # complex128
BYTES_PER_AMP_UPDATE = 32  # one read and one write of a complex128 amplitude

# Work counts per op, with their units; each must repeat exactly for a given op.
WORK_COUNTS = {
    "statevector.gates_applied": "count",
    "statevector.amp_updates": "count",
    "statevector.bytes_moved_computed": "B",
    "circuits.gates_built": "count",
    "encoder.gates_emitted": "count",
    "reference.closed_form_calls": "count",
    "sampler.shots": "count",
    "qasm.bytes_out": "B",
    "harness.error_rows": "count",
}
WASTE_RATIOS = ("statevector.distinct_sim_ratio", "reference.distinct_beta_ratio")


@dataclass(slots=True)
class Span:
    span_id: int
    name: str
    op_id: int
    parent: int | None
    start: float
    end: float = 0.0


@dataclass
class OpWork:
    """Work counted at layer boundaries during one op."""

    counts: Counter = field(default_factory=Counter)
    simulated: list = field(default_factory=list)  # circuits, held until close()
    betas: list = field(default_factory=list)  # closed-form arguments

    def close(self) -> None:
        """Turn the held circuits into counts and drop them, after the op."""
        self.counts["distinct_sims"] = len(set(self.simulated))
        self.counts["sims"] = len(self.simulated)
        self.simulated.clear()


def _on_apply_circuit(work: OpWork, args: dict, result: object) -> None:
    gates = len(args["circuit"].gates)
    work.counts["statevector.gates_applied"] += gates
    work.counts["statevector.amp_updates"] += gates << args["state"].num_qubits
    work.simulated.append(args["circuit"])


def _on_closed_form(work: OpWork, args: dict, result: object) -> None:
    work.counts["reference.closed_form_calls"] += 1
    work.betas.append((args["n"], args["beta"], args["msb_flipped"]))


def _add(name: str, amount):
    def hook(work: OpWork, args: dict, result: object) -> None:
        work.counts[name] += amount(args, result)
    return hook


_HOOKS = {
    "statevector.apply_circuit": _on_apply_circuit,
    "reference.closed_form_probabilities": _on_closed_form,
    "circuits.build_gaussian_prep": _add("circuits.gates_built", lambda a, r: len(r)),
    "encoder.encode_exact": _add("encoder.gates_emitted", lambda a, r: len(r)),
    "sampler.sample_counts": _add("sampler.shots", lambda a, r: a["shots"]),
    "qasm.export_qasm": _add("qasm.bytes_out", lambda a, r: len(r.encode())),
    "harness.run_sweep": _add("harness.error_rows", lambda a, r: sum(row.error is not None for row in r)),
}


class Tracer:
    """Records spans and work counts while installed; `op_id` names the op
    in progress and is set by the caller before each op."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.work: defaultdict[int, OpWork] = defaultdict(OpWork)
        self.op_id = 0
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module in (cli, harness):
            for name, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and obj.__module__.startswith("gaussprep.")
                        and obj.__module__ != module.__name__):
                    self._patch(module, name, obj)
        self._patch(cli, "main", cli.main)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _patch(self, module: object, name: str, fn) -> None:
        self._saved.append((module, name, fn))
        setattr(module, name, self._wrap(fn))

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), name, self.op_id, stack[-1].span_id if stack else None,
                        time.perf_counter())
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.work[self.op_id], bound.arguments, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def peak_multiples(run) -> dict[str, float]:
    """Peak memory of `apply_circuit` and of `run_prepare`, in units of one
    complex128 state, for the largest register `run()` simulates.

    tracemalloc runs only while a watched call is in progress. For
    `apply_circuit` the multiple is the state it is given plus what it
    allocates on top; `run_prepare` allocates its state itself, and its
    multiple also holds the probability, target and target-state arrays that
    set `peak_rss_mb` on `dense-n18`. A metric reads 0 when its function is
    not called.
    """
    watched_calls = {  # metric: (namespace, name, qubits, bytes held on entry)
        "statevector.peak_state_multiple": (
            harness, "apply_circuit", lambda a: a["state"].num_qubits,
            lambda a: AMPLITUDE_BYTES << a["state"].num_qubits),
        "harness.prepare_peak_multiple": (cli, "run_prepare", lambda a: a["n"], lambda a: 0),
    }
    multiples: dict[str, dict[int, float]] = {metric: {} for metric in watched_calls}
    # per watched call in progress: the peak it saw before a nested watched
    # call reset tracemalloc's peak
    outer_peaks: list[int] = []
    saved = []

    def watch(metric, fn, qubits, held):
        signature = inspect.signature(fn)

        def watched(*args, **kwargs):
            nested = tracemalloc.is_tracing()
            if nested:
                start, peak = tracemalloc.get_traced_memory()
                outer_peaks[-1] = max(outer_peaks[-1], peak)
                tracemalloc.reset_peak()
            else:
                start = 0
                tracemalloc.start()
            outer_peaks.append(0)
            try:
                return fn(*args, **kwargs)
            finally:
                peak = max(tracemalloc.get_traced_memory()[1], outer_peaks.pop())
                if not nested:
                    tracemalloc.stop()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                n = qubits(bound.arguments)
                multiple = (held(bound.arguments) + peak - start) / (AMPLITUDE_BYTES << n)
                multiples[metric][n] = max(multiples[metric].get(n, 0.0), multiple)

        return watched

    for metric, (namespace, name, qubits, held) in watched_calls.items():
        original = getattr(namespace, name)
        saved.append((namespace, name, original))
        setattr(namespace, name, watch(metric, original, qubits, held))
    try:
        run()
    finally:
        for namespace, name, original in reversed(saved):
            setattr(namespace, name, original)
    return {metric: by_n[max(by_n)] if by_n else 0.0 for metric, by_n in multiples.items()}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, op_walls: dict[int, float], untraced_p50: float,
                  peaks: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run.

    Times are medians over the traced ops; counts are those of the first
    traced op, which depends only on the seed. Self time is a span's
    duration minus the time its child spans cover. Coverage is the share of
    op wall time covered by the layer spans one level below `cli.main`, so
    it falls when work moves outside the wrapped boundaries into `cli`.
    """
    spans = tracer.spans
    durations = [span.end - span.start for span in spans]
    child_time = [0.0] * len(spans)
    for span, duration in zip(spans, durations):
        if span.parent is not None:
            child_time[span.parent] += duration
    self_time = {op: Counter() for op in op_walls}
    call_time = {op: Counter() for op in op_walls}
    covered = 0.0
    first = min(op_walls)
    first_calls = Counter()
    for span, duration, children in zip(spans, durations, child_time):
        layer = span.name.split(".", 1)[0]
        self_time[span.op_id][layer] += duration - children
        call_time[span.op_id][span.name] += duration
        if span.op_id == first:
            first_calls[layer] += 1
        if span.parent is not None and spans[span.parent].parent is None:
            covered += duration

    def per_op_median(value) -> float:
        return statistics.median(value(op) for op in op_walls)

    def rate(span_name: str, count: str, scale: float):
        return per_op_median(lambda op: scale * _ratio(call_time[op][span_name],
                                                       tracer.work[op].counts[count]))

    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (per_op_median(lambda op: self_time[op][layer]), "s")
        metrics[f"{layer}.calls"] = (first_calls[layer], "count")
    counts = tracer.work[first].counts
    counts["statevector.bytes_moved_computed"] = BYTES_PER_AMP_UPDATE * counts["statevector.amp_updates"]
    for name, unit in WORK_COUNTS.items():
        metrics[name] = (counts[name], unit)
    metrics["statevector.ns_per_amp_update"] = (
        rate("statevector.apply_circuit", "statevector.amp_updates", 1e9), "ns")
    metrics["statevector.us_per_gate"] = (
        rate("statevector.apply_circuit", "statevector.gates_applied", 1e6), "us")
    metrics["circuits.us_per_gate_built"] = (
        rate("circuits.build_gaussian_prep", "circuits.gates_built", 1e6), "us")
    betas = tracer.work[first].betas
    metrics["statevector.distinct_sim_ratio"] = (_ratio(counts["distinct_sims"], counts["sims"]), "ratio")
    metrics["reference.distinct_beta_ratio"] = (_ratio(len(set(betas)), len(betas)), "ratio")
    for name, multiple in peaks.items():
        metrics[name] = (multiple, "x")
    metrics["trace.coverage"] = (covered / sum(op_walls.values()), "ratio")
    traced_p50 = statistics.median(op_walls.values())
    metrics["trace.overhead_ratio"] = (traced_p50 / untraced_p50 - 1.0, "ratio")
    return metrics
