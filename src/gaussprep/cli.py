"""Command-line interface.

Subcommands: prepare (single run + distribution dump), sweep (grid over
qubit counts and pruning thresholds), calibrate (decay-parameter search),
sample (seeded shot sampling), export-qasm (OpenQASM 2.0 serialization).

Exit codes: 0 success, 1 usage error (bad flags/values rejected by the
parser), 2 runtime or numerical error (cap violations, failed searches,
unwritable output, a run whose estimated peak exceeds the memory
available, a refused memory allocation, ...).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from pathlib import Path
from typing import Sequence

from .encoder import MAX_ENCODE_QUBITS
from .harness import (
    DEFAULT_DELTA,
    SWEEP_COLUMNS,
    SweepConfig,
    calibrate_beta,
    calibration_summary,
    calibration_table,
    distribution_table,
    gaussian_circuit,
    gaussian_gate_count,
    histogram_table,
    json_safe,
    prepared_state,
    report_as_dict,
    resolve_beta,
    run_prepare,
    run_sweep,
    table_records,
    table_text,
)
from .metrics import kl_divergence, laplace_smooth
from .qasm import export_qasm
from .reference import DEFAULT_DECAY_RATE, GaussianSpec, target_distribution
from .sampler import check_shots, sample_counts, tv_distance
from .statevector import check_simulable, probabilities

DEFAULT_SHOTS = 50_000
DEFAULT_SEED = 1234


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1 (not 2)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _beta_mode(text: str):
    if text in ("heuristic", "calibrated"):
        return text
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'heuristic', 'calibrated', or a positive number, got {text!r}"
        ) from None
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"explicit beta must be finite and > 0, got {text!r}")
    return value


def _add_beta_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--beta",
        type=_beta_mode,
        default="heuristic",
        help="rotation decay: 'heuristic' (5/(2 lambda)), 'calibrated', or a number",
    )


def _add_model_flags(sub: argparse.ArgumentParser, delta_default: float = DEFAULT_DELTA,
                     beta: bool = True) -> None:
    sub.add_argument("--qubits", "-n", type=int, required=True, help="register size n")
    sub.add_argument(
        "--lambda",
        dest="decay_rate",
        type=float,
        default=DEFAULT_DECAY_RATE,
        help="target decay rate lambda in exp(-lambda x^2) (default 1)",
    )
    if beta:
        _add_beta_flag(sub)
    sub.add_argument(
        "--delta",
        type=float,
        default=delta_default,
        help=f"QFT pruning threshold in radians, 0 = full QFT (default {delta_default})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gaussprep", description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)

    prepare = commands.add_parser(
        "prepare", help="build, simulate, and score one preparation circuit"
    )
    _add_model_flags(prepare)
    prepare.add_argument("--out", help="write the per-index distribution dump here")
    prepare.add_argument("--format", choices=("csv", "json"), default="csv")
    prepare.set_defaults(func=_cmd_prepare)

    sweep = commands.add_parser("sweep", help="metric/cost grid over n and delta")
    sweep.add_argument("--qubits", "-n", type=int, nargs="+", required=True, metavar="N")
    sweep.add_argument(
        "--deltas",
        type=float,
        nargs="+",
        default=[0.0, DEFAULT_DELTA],
        metavar="DELTA",
        help=f"pruning thresholds (default: 0 and {DEFAULT_DELTA})",
    )
    sweep.add_argument("--lambda", dest="decay_rate", type=float, default=DEFAULT_DECAY_RATE)
    _add_beta_flag(sweep)
    sweep.add_argument(
        "--include-baseline",
        action="store_true",
        help="add one exact-amplitude-encoding row per n",
    )
    sweep.add_argument("--out", help="write the results table here (default: stdout)")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.set_defaults(func=_cmd_sweep)

    calibrate = commands.add_parser(
        "calibrate", help="search beta minimizing smoothed KL divergence"
    )
    _add_model_flags(calibrate, delta_default=0.0, beta=False)  # the search finds beta
    calibrate.add_argument("--out", help="write the diagnostic table CSV here")
    calibrate.set_defaults(func=_cmd_calibrate)

    sample = commands.add_parser("sample", help="seeded shot sampling of the prepared state")
    _add_model_flags(sample)
    sample.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
    sample.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sample.add_argument(
        "--smoothing",
        type=float,
        default=None,
        metavar="EPS",
        help="also report target-to-empirical KL with Laplace smoothing eps "
        "(the raw value is infinite whenever a target-supported bin drew no shots)",
    )
    sample.add_argument("--out", help="write the histogram CSV here")
    sample.set_defaults(func=_cmd_sample)

    qasm = commands.add_parser("export-qasm", help="OpenQASM 2.0 serialization of the circuit")
    _add_model_flags(qasm)
    qasm.add_argument("--out", help="write the program here (default: stdout)")
    qasm.set_defaults(func=_cmd_export_qasm)

    return parser


# Peak memory of a command in states of 16 * 2**n bytes, as the tracemalloc
# guards in the tests pin it; sample adds its draws and their indices.
SAMPLE_PEAK_STATES = 2.1
SAMPLE_BYTES_PER_SHOT = 16
# sample --smoothing holds the probabilities, the counts, the smoothed
# frequencies, the target and the KL's one array at its peak: 2.5 states
SMOOTHING_EXTRA_STATES = 0.5
PREPARE_PEAK_STATES = 3.6
# --out builds the dump as text before it writes: at n = 14 prepare peaks at
# 24.4 states as CSV and 82.1 as JSON, sample at 24.0 with 1000 shots
_PREPARE_OUT_PEAK_STATES = {"csv": 26.0, "json": 84.0}
_SAMPLE_OUT_PEAK_STATES = 26.0
# sweep, at its largest n: 4.70 states at n = 14; with a baseline row, whose
# gate list has 7 gates per amplitude, 20.3 at n = 10 and 18.8 at n = 12
_SWEEP_PEAK_STATES = 5.0
_SWEEP_BASELINE_PEAK_STATES = 21.0
# export-qasm holds every gate, its QASM line and the program text (269 B at n = 512)
QASM_BYTES_PER_GATE = 320
# Every estimate adds what a run allocates whatever its size: under
# tracemalloc, after a run at n = 2, plain prepare peaks 25,639 B above 3.6
# states at n = 14, 49,692 B at n = 10 and 53,247 B at n = 2, and sample
# 8,570 B above its estimate at n = 14 with 1000 shots.
FIXED_PEAK_BYTES = 64 << 10


def _available_bytes(path: str = "/proc/meminfo") -> int | None:
    """MemAvailable from the meminfo file in bytes, or None where it cannot be read."""
    try:
        with open(path, encoding="ascii") as meminfo:
            for line in meminfo:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _check_memory(run: str, n: int, states: float, extra_bytes: int = 0) -> None:
    """Refuse a run whose estimated peak exceeds the memory available, before
    its state is built. The qubit cap is checked first, so a count outside it
    is refused by name."""
    check_simulable(n)
    _check_available(run, math.ceil(states * (16 << n)) + extra_bytes)


def _check_available(run: str, needed: int) -> None:
    """Refuse a run that needs more bytes than MemAvailable, where it can be
    read; `needed` is its estimate before FIXED_PEAK_BYTES is added."""
    needed += FIXED_PEAK_BYTES
    available = _available_bytes()
    if available is not None and needed > available:
        raise MemoryError(f"{run} needs about {needed} bytes at its peak, "
                          f"but only {available} bytes are available")


class _StdoutClosed(Exception):
    """The reader of stdout went away before the output was written."""


def _emit(path: str | None, text: str) -> None:
    """Write text to the file at path, or to stdout when no path is given.

    stdout is flushed at once. When its reader has gone (`gaussprep
    prepare -n 4 | head -1`), its descriptor is pointed at the null device,
    so that the flush at interpreter exit finds no closed pipe either, and
    _StdoutClosed ends the command.
    """
    if path:
        Path(path).write_text(text, encoding="utf-8", newline="")
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        with contextlib.suppress(OSError, ValueError):  # a stdout with no descriptor
            descriptor = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, descriptor)
            os.close(devnull)
        raise _StdoutClosed from None


def _cmd_prepare(args: argparse.Namespace) -> int:
    states = _PREPARE_OUT_PEAK_STATES[args.format] if args.out else PREPARE_PEAK_STATES
    _check_memory(f"prepare -n {args.qubits}", args.qubits, states)
    result = run_prepare(args.qubits, args.decay_rate, args.delta, args.beta)
    if args.out:
        if args.format == "csv":
            _emit(args.out, table_text(*distribution_table(result), "csv"))
        else:
            payload = {"report": report_as_dict(result),
                       "distribution": table_records(*distribution_table(result))}
            _emit(args.out, json.dumps(payload, indent=2) + "\n")
    _emit(None, json.dumps(report_as_dict(result), indent=2) + "\n")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = SweepConfig(
        n_values=tuple(args.qubits), delta_values=tuple(args.deltas), decay_rate=args.decay_rate,
        beta_mode=args.beta, include_baseline=args.include_baseline,
    )
    states = {n: _SWEEP_BASELINE_PEAK_STATES if args.include_baseline and n <= MAX_ENCODE_QUBITS
              else _SWEEP_PEAK_STATES for n in config.n_values}
    needed, n = max((math.ceil(peak * (16 << n)), n) for n, peak in states.items())
    _check_available(f"sweep -n {n}", needed)
    rows = run_sweep(config)
    _emit(args.out, table_text(SWEEP_COLUMNS, rows, args.format))
    if args.out:
        failed = sum(1 for row in rows if row.error is not None)
        _emit(None, f"wrote {len(rows)} rows to {args.out}"
              + (f" ({failed} failed)" if failed else "") + "\n")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    result = calibrate_beta(args.decay_rate, args.qubits, args.delta)
    if args.out:
        _emit(args.out, table_text(*calibration_table(result), "csv"))
    _emit(None, json.dumps(calibration_summary(result), indent=2) + "\n")
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    check_shots(args.shots)  # before the state is allocated
    states = _SAMPLE_OUT_PEAK_STATES if args.out else SAMPLE_PEAK_STATES
    states += SMOOTHING_EXTRA_STATES if args.smoothing is not None else 0.0
    _check_memory(f"sample -n {args.qubits} with {args.shots} shots", args.qubits,
                  states, SAMPLE_BYTES_PER_SHOT * args.shots)
    # no name holds the state, so it is freed before the shots are drawn
    probs = probabilities(
        prepared_state(args.qubits, args.decay_rate, args.delta, args.beta).state)
    histogram = sample_counts(probs, args.shots, args.seed)
    if args.out:
        _emit(args.out, table_text(*histogram_table(probs, histogram), "csv"))
    summary: dict[str, object] = {
        "n": args.qubits,
        "shots": histogram.shots,
        "seed": args.seed,
        "tv_distance": tv_distance(histogram.frequencies, probs),
    }
    if args.smoothing is not None:
        smoothed = laplace_smooth(histogram.frequencies, args.smoothing)
        target = target_distribution(GaussianSpec(decay_rate=args.decay_rate), args.qubits)
        summary["kl_target_to_empirical_smoothed"] = json_safe(
            kl_divergence(target.probabilities, smoothed)
        )
    _emit(None, json.dumps(summary, indent=2) + "\n")
    return 0


def _cmd_export_qasm(args: argparse.Namespace) -> int:
    beta = resolve_beta(args.qubits, args.decay_rate, args.beta)
    gates = gaussian_gate_count(args.qubits, args.delta)
    _check_available(f"export-qasm -n {args.qubits} ({gates} gates)", QASM_BYTES_PER_GATE * gates)
    _emit(args.out, export_qasm(gaussian_circuit(args.qubits, beta, args.delta)))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1
    try:
        return args.func(args)
    except _StdoutClosed:
        return 0
    except (ValueError, OSError, MemoryError) as exc:
        print(f"gaussprep: error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry_point()
