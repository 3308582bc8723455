"""Experiment harness: single preparation runs, parameter sweeps over qubit
count and pruning threshold, decay-parameter calibration, and CSV/JSON
emission.

Conventions shared by all result tables:
- The prepared distribution places exactly zero mass on one basis state for
  every beta (the lowest-qubit rotation sits at exactly pi/2), so the KL
  divergence from target to prepared is +inf under exact arithmetic. Reported
  KL therefore runs from the prepared distribution to the target, which is
  finite because the target is everywhere positive; this is also the only
  direction computable from an empirical shot histogram. The calibration
  objective keeps the target-to-prepared direction by Laplace-smoothing the
  model (eps = 1e-12), a beta-independent offset that leaves the argmin
  unchanged.
- The sweep `fidelity` column compares the pruned-QFT circuit against the
  full-QFT circuit at the same beta (the quantity the pruning bound governs);
  `fidelity_target` compares magnitudes against the ideal Gaussian amplitudes.
- A sweep row's `wall_time_ms` is the time to build and simulate the circuit
  whose state it reports; a threshold that prunes nothing reports the
  full-QFT state, simulated once per n, and its time.
- A table is (columns, rows), rendered by `table_text`. Files are UTF-8 with
  LF line endings; floats carry 17 significant digits; cells that do not
  apply to a row are empty.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import time
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .circuits import (
    Circuit,
    GateInventory,
    PruningPolicy,
    build_gaussian_prep,
    count_gates,
    heuristic_beta,
    prep_gate_count,
    pruned_cphase_count,
)
from .encoder import encode_exact
from .metrics import (
    StateScore,
    distribution_fidelity,
    fidelity,
    kl_divergence_from,
    laplace_smooth,
    pruning_fidelity_bound,
    score_state,
)
from .reference import (
    DEFAULT_DECAY_RATE,
    GaussianSpec,
    TargetDistribution,
    closed_form_probabilities,
    cosine_table,
    grid_points,
    target_distribution,
)
from .sampler import ShotHistogram
from .statevector import StateVector, apply_circuit, check_simulable, new_zero_state
from .statevector import probabilities as state_probabilities

DEFAULT_DELTA = 0.0123
SMOOTHING_EPS = 1e-12
BETA_SEARCH_LO = 0.01
BETA_SEARCH_HI = 10.0
BETA_SEARCH_GRID = 61
BETA_SEARCH_TOL = 1e-6
MAX_CALIBRATION_QUBITS = 16
CANDIDATE_BETAS = (2.5, 0.25)

BetaMode = Union[str, float]
Table = tuple[Sequence[str], Sequence[Sequence]]

DISTRIBUTION_COLUMNS = ("index", "x_k", "target_prob", "prepared_prob")
HISTOGRAM_COLUMNS = ("index", "x_k", "prepared_prob", "count", "frequency")
CALIBRATION_COLUMNS = ("kind", "beta", "kl", "fidelity")


@dataclass(frozen=True)
class PrepareResult:
    """One preparation run: its configuration, score_state's scores of the
    prepared state, the pruned CPHASE count, the fidelity bound, the gate
    tally and the target. The scores are range-checked here only, since a
    sweep row can carry a rounding-negative KL."""

    n: int
    decay_rate: float
    beta: float
    delta: float
    report: StateScore
    num_pruned_cphase: int
    fidelity_bound: float
    inventory: GateInventory
    target_probabilities: np.ndarray

    def __post_init__(self) -> None:
        score = self.report
        if not (0.0 <= score.fidelity <= 1.0 + 1e-12):
            raise ValueError(f"fidelity out of [0, 1]: {score.fidelity}")
        if not (score.mse_amplitude >= 0.0 and score.kl_divergence >= 0.0):  # nan fails too
            raise ValueError("mse and kl must be non-negative")

    @property
    def prepared_probabilities(self) -> np.ndarray:
        return self.report.probabilities


class BetaDiagnostic(NamedTuple):
    """One calibration evaluation: smoothed KL and distribution fidelity."""

    beta: float
    kl: float
    fidelity: float


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of the decay-parameter search.

    `candidates` holds the two conventional reference values (2.5 and 0.25)
    evaluated with the same objective, `table` the coarse search grid.
    """

    n: int
    decay_rate: float
    delta: float
    best_beta: float
    best_kl: float
    best_fidelity: float
    candidates: tuple[BetaDiagnostic, ...]
    table: tuple[BetaDiagnostic, ...]


class SweepRow(NamedTuple):
    """One sweep cell, its fields in column order; metric cells are None
    when the cell failed or does not apply (see the `error` and `method`
    columns)."""

    n: int
    delta: float | None
    beta: float | None
    gate_total: int | None
    cphase_count: int | None
    pruned_count: int | None
    mse: float | None
    kl: float | None
    fidelity: float | None
    fidelity_bound: float | None
    wall_time_ms: float | None
    fidelity_target: float | None
    method: str
    error: str | None = None


SWEEP_COLUMNS = SweepRow._fields


@dataclass(frozen=True)
class SweepConfig:
    """Grid for run_sweep; no qubit count and no threshold may repeat.

    beta_mode is "heuristic" (beta = 5 / (2 * decay_rate)), "calibrated"
    (per-n KL minimization at delta = 0), or an explicit positive float.
    """

    n_values: tuple[int, ...]
    delta_values: tuple[float, ...]
    decay_rate: float = DEFAULT_DECAY_RATE
    beta_mode: BetaMode = "heuristic"
    include_baseline: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        object.__setattr__(self, "delta_values", tuple(float(d) for d in self.delta_values))
        if not self.n_values:
            raise ValueError("n_values must be non-empty")
        if not self.delta_values:
            raise ValueError("delta_values must be non-empty")
        for n in self.n_values:
            check_simulable(n)
        for delta in self.delta_values:
            PruningPolicy(delta)  # refuses a negative or non-finite threshold
        for name, values in (("qubit count", self.n_values),
                             ("pruning threshold", self.delta_values)):
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(f"{name} {repeated[0]} is given more than once")
        _validate_beta_mode(self.beta_mode)


def _validate_beta_mode(beta_mode: BetaMode) -> None:
    if isinstance(beta_mode, str):
        if beta_mode not in ("heuristic", "calibrated"):
            raise ValueError(
                f"beta_mode must be 'heuristic', 'calibrated', or a positive number, got {beta_mode!r}"
            )
    elif isinstance(beta_mode, (int, float)) and not isinstance(beta_mode, bool):
        if not (float(beta_mode) > 0.0 and math.isfinite(float(beta_mode))):
            raise ValueError(f"explicit beta must be finite and > 0, got {beta_mode}")
    else:  # bool is an int subclass, but no beta
        raise ValueError(f"beta_mode must be a string or number, got {beta_mode!r}")


def resolve_beta(n: int, decay_rate: float, beta_mode: BetaMode) -> float:
    """Turn a beta_mode into a concrete rotation-decay parameter.

    "calibrated" leaves the decay rate to calibrate_beta. Otherwise a
    negative or non-finite rate is rejected, and "heuristic" is
    circuits.heuristic_beta, the rule build_gaussian_prep applies when it
    is given no beta.
    """
    _validate_beta_mode(beta_mode)
    if beta_mode == "calibrated":
        return calibrate_beta(decay_rate, n).best_beta
    GaussianSpec(decay_rate=decay_rate)  # rejects a negative or non-finite rate
    if beta_mode != "heuristic":
        return float(beta_mode)
    return heuristic_beta(decay_rate)


def gaussian_circuit(n: int, beta: float, delta: float) -> Circuit:
    """The preparation circuit at an explicit beta and pruning threshold;
    every run, sweep, calibration and export builds it here (the spec only
    supplies a beta when none is given)."""
    return build_gaussian_prep(n, GaussianSpec(), PruningPolicy(delta), beta_override=beta)


def gaussian_gate_count(n: int, delta: float) -> int:
    """len(gaussian_circuit(n, beta, delta)) without building it; an input
    that build refuses is refused here, the threshold first."""
    return prep_gate_count(n, PruningPolicy(delta))


class Run(NamedTuple):
    """A circuit built at a resolved beta (None for the exact encoding),
    its simulated state, and the time building and simulating took."""

    beta: float | None
    circuit: Circuit
    state: StateVector
    wall_ms: float


def _run(beta: float | None, build: Callable[..., Circuit], *args) -> Run:
    """Build a circuit with build(*args), simulate it from |0...0>, and time both."""
    start = time.perf_counter()
    circuit = build(*args)
    state = apply_circuit(new_zero_state(circuit.num_qubits), circuit)
    return Run(beta, circuit, state, (time.perf_counter() - start) * 1000.0)


def prepared_state(
    n: int,
    decay_rate: float = DEFAULT_DECAY_RATE,
    delta: float = DEFAULT_DELTA,
    beta_mode: BetaMode = "heuristic",
) -> Run:
    """Check the inputs, resolve beta, build the preparation circuit and
    simulate it: the part of a run that run_prepare and the sample command
    share."""
    check_simulable(n)
    PruningPolicy(delta)  # refuses a negative or non-finite threshold
    GaussianSpec(decay_rate=decay_rate)  # refuses a negative or non-finite rate
    beta = resolve_beta(n, decay_rate, beta_mode)
    return _run(beta, gaussian_circuit, n, beta, delta)


def run_prepare(
    n: int,
    decay_rate: float = DEFAULT_DECAY_RATE,
    delta: float = DEFAULT_DELTA,
    beta_mode: BetaMode = "heuristic",
) -> PrepareResult:
    """Build, simulate, and score one Gaussian preparation circuit."""
    beta, circuit, state, _ = prepared_state(n, decay_rate, delta, beta_mode)
    target = target_distribution(GaussianSpec(decay_rate=decay_rate), n)
    return PrepareResult(
        n=n, decay_rate=decay_rate, beta=beta, delta=delta, report=score_state(target, state),
        num_pruned_cphase=pruned_cphase_count(n, PruningPolicy(delta)),
        fidelity_bound=pruning_fidelity_bound(n, delta), inventory=count_gates(circuit),
        target_probabilities=target.probabilities,
    )


def _measured(run: Run, target: TargetDistribution) -> dict[str, object]:
    """The sweep columns measured on a simulated state."""
    inventory = count_gates(run.circuit)
    score = score_state(target, run.state)
    return dict(gate_total=inventory.total, cphase_count=inventory.cphase, mse=score.mse_amplitude,
                kl=score.kl_divergence, wall_time_ms=run.wall_ms, fidelity_target=score.fidelity)


def _gaussian_row(n: int, delta: float, target: TargetDistribution, full: Run) -> SweepRow:
    """One (n, delta) cell. A threshold that prunes nothing leaves the
    full-QFT gate list, so the cell reports the full state with fidelity
    exactly 1; otherwise only the pruned circuit is simulated, and it is
    compared with the full state."""
    num_pruned = pruned_cphase_count(n, PruningPolicy(delta))
    if num_pruned == 0:
        run, pruning_fidelity = full, 1.0
    else:
        run = _run(full.beta, gaussian_circuit, n, full.beta, delta)
        pruning_fidelity = fidelity(full.state, run.state)
    return SweepRow(n=n, delta=delta, beta=full.beta, pruned_count=num_pruned,
                    fidelity=pruning_fidelity, fidelity_bound=pruning_fidelity_bound(n, delta),
                    method="gaussian", **_measured(run, target))


def _gaussian_rows(n: int, config: SweepConfig,
                   target_of_n: Callable[[], TargetDistribution]) -> list[SweepRow]:
    """One row per threshold; the full-QFT circuit is simulated once. A
    failed beta is reported before a failed target."""
    try:
        beta = resolve_beta(n, config.decay_rate, config.beta_mode)
        target = target_of_n()
        full = _run(beta, gaussian_circuit, n, beta, 0.0)
    except Exception as exc:
        return [_error_row(n, delta, "gaussian", exc) for delta in config.delta_values]
    rows = []
    for delta in config.delta_values:
        try:
            rows.append(_gaussian_row(n, delta, target, full))
        except Exception as exc:
            rows.append(_error_row(n, delta, "gaussian", exc))
    return rows


def _baseline_row(n: int, target: TargetDistribution) -> SweepRow:
    measured = _measured(_run(None, encode_exact, target.amplitudes, n), target)
    return SweepRow(n=n, delta=None, beta=None, pruned_count=0,
                    fidelity=measured["fidelity_target"], fidelity_bound=None,
                    method="baseline", **measured)


def _error_row(n: int, delta: float | None, method: str, exc: Exception) -> SweepRow:
    blank = dict.fromkeys(SWEEP_COLUMNS[2:-2])  # beta through fidelity_target
    return SweepRow(n=n, delta=delta, method=method, error=" ".join(str(exc).split()), **blank)


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Evaluate every (n, delta) cell plus optional per-n baseline rows.

    Each n's target is built once, on first use, for its Gaussian rows and
    its baseline row. A failing cell contributes a row with the error column
    set instead of aborting the sweep. Rows are sorted by (n, method, delta)
    so output order never depends on evaluation order.
    """
    rows: list[SweepRow] = []
    for n in config.n_values:
        target_of_n = functools.cache(
            lambda: target_distribution(GaussianSpec(decay_rate=config.decay_rate), n))
        rows += _gaussian_rows(n, config, target_of_n)
        if config.include_baseline:
            try:
                rows.append(_baseline_row(n, target_of_n()))
            except Exception as exc:
                rows.append(_error_row(n, None, "baseline", exc))
    rows.sort(key=lambda r: (r.n, 0 if r.method == "gaussian" else 1,
                             r.delta if r.delta is not None else -1.0))
    return rows


def calibrate_beta(decay_rate: float, n: int, delta: float = 0.0) -> CalibrationResult:
    """Minimize the smoothed KL divergence from the target to the prepared
    distribution over beta in [0.01, 10].

    Coarse geometric grid first, then golden-section refinement of the
    bracketing interval. The grid is evaluated once: its diagnostics give
    the search values and are returned as `table`. With delta = 0 each
    evaluation uses the closed-form output probabilities, all from one
    cosine table; pruned variants fall back to gate-level simulation. The
    target is checked and indexed once for every KL evaluation.
    """
    if not math.isfinite(decay_rate):
        raise ValueError(f"calibration requires a finite decay rate, got {decay_rate}")
    if not decay_rate > 0.0:
        raise ValueError(
            "calibration requires a positive decay rate: a flat target has no width to match"
        )
    if n == 1:
        raise ValueError(
            "calibration needs at least 2 qubits: at n = 1 the only angle is "
            "rotation_angle(0, beta) = pi/2 for every beta, so the KL does not depend on beta"
        )
    if not 2 <= n <= MAX_CALIBRATION_QUBITS:
        raise ValueError(f"calibration supports 2..{MAX_CALIBRATION_QUBITS} qubits, got {n}")
    PruningPolicy(delta)  # refuses a negative or non-finite threshold
    target = target_distribution(GaussianSpec(decay_rate=decay_rate), n)
    kl_from_target = kl_divergence_from(target.probabilities)
    cosines = cosine_table(n) if delta == 0.0 else None

    def prepared_probs(beta: float) -> np.ndarray:
        if cosines is not None:
            return closed_form_probabilities(n, beta, msb_flipped=True, table=cosines)
        return state_probabilities(_run(beta, gaussian_circuit, n, beta, delta).state)

    def smoothed_kl(probs: np.ndarray) -> float:
        return kl_from_target(laplace_smooth(probs, SMOOTHING_EPS))

    def objective(beta: float) -> float:
        return smoothed_kl(prepared_probs(beta))

    def diagnostic(beta: float) -> BetaDiagnostic:
        probs = prepared_probs(beta)
        return BetaDiagnostic(
            beta=beta,
            kl=smoothed_kl(probs),
            fidelity=distribution_fidelity(target.probabilities, probs),
        )

    grid = np.geomspace(BETA_SEARCH_LO, BETA_SEARCH_HI, BETA_SEARCH_GRID)
    table = tuple(diagnostic(float(b)) for b in grid)
    values = [diag.kl for diag in table]
    best_index = int(np.argmin(values))
    if best_index == 0 or best_index == len(grid) - 1:
        raise ValueError(
            f"search bracket exhausted: KL minimum sits at the edge of "
            f"[{BETA_SEARCH_LO}, {BETA_SEARCH_HI}] (beta = {grid[best_index]:.6g})"
        )

    lo, hi = float(grid[best_index - 1]), float(grid[best_index + 1])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = objective(c), objective(d)
    while hi - lo > BETA_SEARCH_TOL:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = objective(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = objective(d)
    best_beta = (lo + hi) / 2.0
    best = diagnostic(best_beta)
    return CalibrationResult(
        n=n,
        decay_rate=decay_rate,
        delta=delta,
        best_beta=best_beta,
        best_kl=best.kl,
        best_fidelity=best.fidelity,
        candidates=tuple(diagnostic(b) for b in CANDIDATE_BETAS),
        table=table,
    )


def distribution_table(result: PrepareResult) -> Table:
    """Per-basis-state dump: grid point, target and prepared probability."""
    n = result.n
    values = (grid_points(n), result.target_probabilities, result.prepared_probabilities)
    return DISTRIBUTION_COLUMNS, list(zip(range(1 << n), *values))


def histogram_table(probabilities: np.ndarray, histogram: ShotHistogram) -> Table:
    """Per-basis-state sampling dump alongside the exact prepared probabilities."""
    n = histogram.num_qubits
    values = (grid_points(n), probabilities, histogram.counts, histogram.frequencies)
    return HISTOGRAM_COLUMNS, list(zip(range(1 << n), *values))


def calibration_table(result: CalibrationResult) -> Table:
    """Diagnostic table: coarse-grid rows, the two reference betas, the argmin."""
    rows = [("grid", *diag) for diag in result.table]
    rows += [("candidate", *diag) for diag in result.candidates]
    rows.append(("best", result.best_beta, result.best_kl, result.best_fidelity))
    return CALIBRATION_COLUMNS, rows


def json_safe(value: object) -> object:
    """JSON-safe scalar: numpy scalars become Python ones, non-finite floats strings."""
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else format(value, ".17g")
    if isinstance(value, np.integer):
        return int(value)
    return value


def _cell(value: object) -> str:
    """Render one CSV cell; None means 'not applicable' and stays empty."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def table_records(columns: Sequence[str], rows: Sequence[Sequence]) -> list[dict[str, object]]:
    """A table as JSON-safe records, one dict per row."""
    return [{column: json_safe(value) for column, value in zip(columns, row)} for row in rows]


def table_text(columns: Sequence[str], rows: Sequence[Sequence], fmt: str) -> str:
    """Render a table as CSV, header first, or as an indented JSON list of records."""
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_cell(value) for value in row] for row in rows)
        return buffer.getvalue()
    if fmt == "json":
        return json.dumps(table_records(columns, rows), indent=2) + "\n"
    raise ValueError(f"format must be csv or json, got {fmt!r}")


def _numbers(obj: object) -> dict[str, object]:
    """The numeric fields of a dataclass, JSON-safe and in field order."""
    values = ((field.name, getattr(obj, field.name)) for field in fields(obj))
    return {name: json_safe(value) for name, value in values if isinstance(value, (int, float))}


def report_as_dict(result: PrepareResult) -> dict[str, object]:
    """Flat JSON-safe rendering of a prepare run: its configuration, the five
    scores, the fidelity bound, and the gate tally with the pruned count."""
    values = [(name, getattr(result, name)) for name in ("n", "decay_rate", "beta", "delta")]
    values += zip(StateScore._fields[1:], result.report[1:])  # every score but the probabilities
    values.append(("fidelity_bound", result.fidelity_bound))
    gate_counts = {**result.inventory.as_dict(), "num_pruned_cphase": result.num_pruned_cphase}
    return {**{name: json_safe(value) for name, value in values}, "gate_counts": gate_counts}


def calibration_summary(result: CalibrationResult) -> dict[str, object]:
    """JSON-safe search outcome and reference candidates, without the grid."""
    return {**_numbers(result),
            "candidates": table_records(BetaDiagnostic._fields, result.candidates)}
