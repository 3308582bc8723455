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
- Files are UTF-8 with LF line endings; floats carry 17 significant digits;
  cells that do not apply to a row are empty.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass
from typing import Union

import numpy as np

from .circuits import (
    Circuit,
    PruningPolicy,
    build_gaussian_prep,
    count_gates,
    pruned_cphase_count,
)
from .encoder import encode_exact
from .metrics import (
    MetricsReport,
    distribution_fidelity,
    fidelity,
    kl_divergence,
    laplace_smooth,
    magnitude_fidelity,
    mse,
    mse_phase_optimized,
    pruning_fidelity_bound,
)
from .reference import (
    GaussianSpec,
    closed_form_probabilities,
    grid_points,
    target_distribution,
)
from .statevector import (
    MAX_SIM_QUBITS,
    StateVector,
    apply_circuit,
    new_zero_state,
)
from .statevector import probabilities as state_probabilities

SMOOTHING_EPS = 1e-12
HEURISTIC_FALLBACK_BETA = 2.5
BETA_SEARCH_LO = 0.01
BETA_SEARCH_HI = 10.0
BETA_SEARCH_GRID = 61
BETA_SEARCH_TOL = 1e-6
MAX_CALIBRATION_QUBITS = 16
CANDIDATE_BETAS = (2.5, 0.25)

BetaMode = Union[str, float]

SWEEP_COLUMNS = (
    "n",
    "delta",
    "beta",
    "gate_total",
    "cphase_count",
    "pruned_count",
    "mse",
    "kl",
    "fidelity",
    "fidelity_bound",
    "wall_time_ms",
    "fidelity_target",
    "method",
    "error",
)

DISTRIBUTION_COLUMNS = ("index", "x_k", "target_prob", "prepared_prob")

HISTOGRAM_COLUMNS = ("index", "x_k", "prepared_prob", "count", "frequency")

CALIBRATION_COLUMNS = ("kind", "beta", "kl", "fidelity")


@dataclass(frozen=True)
class PrepareResult:
    """Everything a single preparation run produces."""

    report: MetricsReport
    grid: np.ndarray
    target_probabilities: np.ndarray
    prepared_probabilities: np.ndarray
    circuit: Circuit


@dataclass(frozen=True)
class BetaDiagnostic:
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


@dataclass(frozen=True)
class SweepRow:
    """One sweep cell; metric cells are None when the cell failed or does not
    apply (see the `error` and `method` columns)."""

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


@dataclass(frozen=True)
class SweepConfig:
    """Grid for run_sweep.

    beta_mode is "heuristic" (beta = 5 / (2 * decay_rate)), "calibrated"
    (per-n KL minimization at delta = 0), or an explicit positive float.
    """

    n_values: tuple[int, ...]
    delta_values: tuple[float, ...]
    decay_rate: float = 1.0
    beta_mode: BetaMode = "heuristic"
    include_baseline: bool = False
    out_path: str | None = None
    fmt: str = "csv"

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        object.__setattr__(self, "delta_values", tuple(float(d) for d in self.delta_values))
        if not self.n_values:
            raise ValueError("n_values must be non-empty")
        if not self.delta_values:
            raise ValueError("delta_values must be non-empty")
        for n in self.n_values:
            if not 1 <= n <= MAX_SIM_QUBITS:
                raise ValueError(f"qubit count {n} outside simulable range 1..{MAX_SIM_QUBITS}")
        for delta in self.delta_values:
            if not (delta >= 0.0 and math.isfinite(delta)):
                raise ValueError(f"pruning threshold must be finite and >= 0, got {delta}")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.fmt!r}")
        _validate_beta_mode(self.beta_mode)


def _validate_beta_mode(beta_mode: BetaMode) -> None:
    if isinstance(beta_mode, str):
        if beta_mode not in ("heuristic", "calibrated"):
            raise ValueError(
                f"beta_mode must be 'heuristic', 'calibrated', or a positive number, got {beta_mode!r}"
            )
    elif isinstance(beta_mode, bool):
        # bool is an int subclass; catch it before the numeric branch
        raise ValueError(f"beta_mode must be a string or number, got {beta_mode!r}")
    elif isinstance(beta_mode, (int, float)):
        if not (float(beta_mode) > 0.0 and math.isfinite(float(beta_mode))):
            raise ValueError(f"explicit beta must be finite and > 0, got {beta_mode}")
    else:
        raise ValueError(f"beta_mode must be a string or number, got {type(beta_mode).__name__}")


def resolve_beta(n: int, decay_rate: float, beta_mode: BetaMode) -> float:
    """Turn a beta_mode into a concrete rotation-decay parameter.

    The heuristic is beta = 5 / (2 * decay_rate); a zero decay rate (flat
    target) has no width to match, so the heuristic falls back to the
    documented default 2.5 while calibration rejects it.
    """
    _validate_beta_mode(beta_mode)
    if isinstance(beta_mode, (int, float)) and not isinstance(beta_mode, bool):
        return float(beta_mode)
    if beta_mode == "heuristic":
        if decay_rate == 0.0:
            return HEURISTIC_FALLBACK_BETA
        return 5.0 / (2.0 * decay_rate)
    return calibrate_beta(decay_rate, n).best_beta


def _simulate(circuit: Circuit) -> StateVector:
    state = new_zero_state(circuit.num_qubits)
    apply_circuit(state, circuit)
    return state


def _prepare_state(
    n: int, spec: GaussianSpec, delta: float, beta: float
) -> tuple[StateVector, Circuit, PruningPolicy]:
    policy = PruningPolicy(delta)
    circuit = build_gaussian_prep(n, spec, policy, beta_override=beta)
    return _simulate(circuit), circuit, policy


def run_prepare(
    n: int,
    decay_rate: float = 1.0,
    delta: float = 0.0123,
    beta_mode: BetaMode = "heuristic",
) -> PrepareResult:
    """Build, simulate, and score one Gaussian preparation circuit."""
    if not 1 <= n <= MAX_SIM_QUBITS:
        raise ValueError(f"qubit count {n} outside simulable range 1..{MAX_SIM_QUBITS}")
    if not (delta >= 0.0 and math.isfinite(delta)):
        raise ValueError(f"pruning threshold must be finite and >= 0, got {delta}")
    spec = GaussianSpec(decay_rate=decay_rate)
    beta = resolve_beta(n, decay_rate, beta_mode)
    state, circuit, policy = _prepare_state(n, spec, delta, beta)
    prepared_probs = state_probabilities(state)
    target = target_distribution(spec, n)
    inventory = count_gates(circuit, num_pruned_cphase=pruned_cphase_count(n, policy))
    target_state = StateVector(n, target.amplitudes.astype(np.complex128))
    report = MetricsReport(
        n=n,
        decay_rate=decay_rate,
        beta=beta,
        delta=delta,
        mse_amplitude=mse(target.amplitudes, state),
        mse_phase_optimized=mse_phase_optimized(target.amplitudes, state),
        kl_divergence=kl_divergence(prepared_probs, target.probabilities),
        fidelity=magnitude_fidelity(target.amplitudes, state),
        fidelity_phase_sensitive=fidelity(target_state, state),
        fidelity_bound=pruning_fidelity_bound(n, delta),
        inventory=inventory,
    )
    return PrepareResult(
        report=report,
        grid=grid_points(n, spec).points,
        target_probabilities=target.probabilities,
        prepared_probabilities=prepared_probs,
        circuit=circuit,
    )


def _pruning_fidelity(n: int, spec: GaussianSpec, delta: float, beta: float,
                      pruned_state: StateVector, num_pruned: int) -> float:
    """Fidelity of the pruned circuit against the full-QFT circuit.

    Exactly 1 when nothing was pruned: the circuits are identical gate lists,
    so no simulation (and no float round-off) is involved.
    """
    if num_pruned == 0:
        return 1.0
    full_state, _, _ = _prepare_state(n, spec, 0.0, beta)
    return fidelity(full_state, pruned_state)


def _gaussian_cell(n: int, delta: float, config: SweepConfig, beta: float) -> SweepRow:
    start = time.perf_counter()
    spec = GaussianSpec(decay_rate=config.decay_rate)
    state, circuit, policy = _prepare_state(n, spec, delta, beta)
    prepared_probs = state_probabilities(state)
    target = target_distribution(spec, n)
    num_pruned = pruned_cphase_count(n, policy)
    inventory = count_gates(circuit, num_pruned_cphase=num_pruned)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return SweepRow(
        n=n,
        delta=delta,
        beta=beta,
        gate_total=inventory.total,
        cphase_count=inventory.cphase,
        pruned_count=num_pruned,
        mse=mse(target.amplitudes, state),
        kl=kl_divergence(prepared_probs, target.probabilities),
        fidelity=_pruning_fidelity(n, spec, delta, beta, state, num_pruned),
        fidelity_bound=pruning_fidelity_bound(n, delta),
        wall_time_ms=wall_ms,
        fidelity_target=magnitude_fidelity(target.amplitudes, state),
        method="gaussian",
    )


def _baseline_cell(n: int, config: SweepConfig) -> SweepRow:
    start = time.perf_counter()
    spec = GaussianSpec(decay_rate=config.decay_rate)
    target = target_distribution(spec, n)
    circuit = encode_exact(target.amplitudes, n)
    state = _simulate(circuit)
    inventory = count_gates(circuit)
    fid = magnitude_fidelity(target.amplitudes, state)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return SweepRow(
        n=n,
        delta=None,
        beta=None,
        gate_total=inventory.total,
        cphase_count=inventory.cphase,
        pruned_count=0,
        mse=mse(target.amplitudes, state),
        kl=kl_divergence(state_probabilities(state), target.probabilities),
        fidelity=fid,
        fidelity_bound=None,
        wall_time_ms=wall_ms,
        fidelity_target=fid,
        method="baseline",
    )


def _error_row(n: int, delta: float | None, method: str, exc: Exception) -> SweepRow:
    message = " ".join(str(exc).split())
    return SweepRow(
        n=n, delta=delta, beta=None, gate_total=None, cphase_count=None,
        pruned_count=None, mse=None, kl=None, fidelity=None, fidelity_bound=None,
        wall_time_ms=None, fidelity_target=None, method=method, error=message,
    )


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Evaluate every (n, delta) cell plus optional per-n baseline rows.

    A failing cell contributes a row with the error column set instead of
    aborting the sweep. Rows are sorted by (n, method, delta) so output order
    never depends on evaluation order; the table is written to
    config.out_path when one is given.
    """
    rows: list[SweepRow] = []
    beta_cache: dict[int, float] = {}
    for n in config.n_values:
        for delta in config.delta_values:
            try:
                if n not in beta_cache:
                    beta_cache[n] = resolve_beta(n, config.decay_rate, config.beta_mode)
                rows.append(_gaussian_cell(n, delta, config, beta_cache[n]))
            except Exception as exc:
                rows.append(_error_row(n, delta, "gaussian", exc))
        if config.include_baseline:
            try:
                rows.append(_baseline_cell(n, config))
            except Exception as exc:
                rows.append(_error_row(n, None, "baseline", exc))
    rows.sort(key=lambda r: (r.n, 0 if r.method == "gaussian" else 1,
                             r.delta if r.delta is not None else -1.0))
    if config.out_path is not None:
        if config.fmt == "csv":
            write_sweep_csv(rows, config.out_path)
        else:
            write_sweep_json(rows, config.out_path)
    return rows


def calibrate_beta(decay_rate: float, n: int, delta: float = 0.0) -> CalibrationResult:
    """Minimize the smoothed KL divergence from the target to the prepared
    distribution over beta in [0.01, 10].

    Coarse geometric grid first, then golden-section refinement of the
    bracketing interval. The grid is evaluated once: its diagnostics give
    the search values and are returned as `table`. With delta = 0 each
    evaluation uses the closed-form output probabilities; pruned variants
    fall back to gate-level simulation.
    """
    if not (decay_rate > 0.0 and math.isfinite(decay_rate)):
        raise ValueError(
            "calibration requires a positive decay rate: a flat target has no width to match"
        )
    if not 1 <= n <= MAX_CALIBRATION_QUBITS:
        raise ValueError(f"calibration supports 1..{MAX_CALIBRATION_QUBITS} qubits, got {n}")
    if not (delta >= 0.0 and math.isfinite(delta)):
        raise ValueError(f"pruning threshold must be finite and >= 0, got {delta}")
    spec = GaussianSpec(decay_rate=decay_rate)
    target = target_distribution(spec, n)

    def prepared_probs(beta: float) -> np.ndarray:
        if delta == 0.0:
            return closed_form_probabilities(n, beta, msb_flipped=True)
        state, _, _ = _prepare_state(n, spec, delta, beta)
        return state_probabilities(state)

    def smoothed_kl(probs: np.ndarray) -> float:
        return kl_divergence(target.probabilities, laplace_smooth(probs, SMOOTHING_EPS))

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


def _cell(value: object) -> str:
    """Render one CSV cell; None means 'not applicable' and stays empty."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _json_value(value: object) -> object:
    """JSON-safe scalar: non-finite floats become strings."""
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):
            return format(value, ".17g")
        return value
    if isinstance(value, np.integer):
        return int(value)
    return value


def sweep_rows_as_dicts(rows: list[SweepRow]) -> list[dict[str, object]]:
    return [
        {column: _json_value(getattr(row, column)) for column in SWEEP_COLUMNS}
        for row in rows
    ]


def sweep_csv_text(rows: list[SweepRow]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for row in rows:
        writer.writerow([_cell(getattr(row, column)) for column in SWEEP_COLUMNS])
    return buffer.getvalue()


def write_sweep_csv(rows: list[SweepRow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(sweep_csv_text(rows))


def write_sweep_json(rows: list[SweepRow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        json.dump(sweep_rows_as_dicts(rows), handle, indent=2)
        handle.write("\n")


def write_distribution_csv(result: PrepareResult, path: str) -> None:
    """Per-basis-state dump: grid point, target and prepared probability."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(DISTRIBUTION_COLUMNS)
        for k in range(result.grid.size):
            writer.writerow([
                str(k),
                _cell(result.grid[k]),
                _cell(result.target_probabilities[k]),
                _cell(result.prepared_probabilities[k]),
            ])


def write_histogram_csv(result: PrepareResult, counts: np.ndarray, shots: int, path: str) -> None:
    """Per-basis-state sampling dump alongside the exact prepared probabilities."""
    counts = np.asarray(counts, dtype=np.int64)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(HISTOGRAM_COLUMNS)
        for k in range(result.grid.size):
            writer.writerow([
                str(k),
                _cell(result.grid[k]),
                _cell(result.prepared_probabilities[k]),
                str(int(counts[k])),
                _cell(counts[k] / float(shots)),
            ])


def write_calibration_csv(result: CalibrationResult, path: str) -> None:
    """Diagnostic table: coarse-grid rows, the two reference betas, the argmin."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CALIBRATION_COLUMNS)
        for diag in result.table:
            writer.writerow(["grid", _cell(diag.beta), _cell(diag.kl), _cell(diag.fidelity)])
        for diag in result.candidates:
            writer.writerow(["candidate", _cell(diag.beta), _cell(diag.kl), _cell(diag.fidelity)])
        writer.writerow(["best", _cell(result.best_beta), _cell(result.best_kl), _cell(result.best_fidelity)])


def distribution_as_dicts(result: PrepareResult) -> list[dict[str, object]]:
    return [
        {
            "index": k,
            "x_k": _json_value(float(result.grid[k])),
            "target_prob": _json_value(float(result.target_probabilities[k])),
            "prepared_prob": _json_value(float(result.prepared_probabilities[k])),
        }
        for k in range(result.grid.size)
    ]


def report_as_dict(report: MetricsReport) -> dict[str, object]:
    """Flat JSON-safe rendering of a metrics report."""
    payload: dict[str, object] = {
        "n": report.n,
        "decay_rate": report.decay_rate,
        "beta": report.beta,
        "delta": report.delta,
        "mse_amplitude": report.mse_amplitude,
        "mse_phase_optimized": report.mse_phase_optimized,
        "kl_divergence": report.kl_divergence,
        "fidelity": report.fidelity,
        "fidelity_phase_sensitive": report.fidelity_phase_sensitive,
        "fidelity_bound": report.fidelity_bound,
        "gate_counts": report.inventory.as_dict(),
    }
    return {key: _json_value(value) for key, value in payload.items()}


def calibration_as_dict(result: CalibrationResult) -> dict[str, object]:
    def row(diag: BetaDiagnostic) -> dict[str, object]:
        return {
            "beta": _json_value(diag.beta),
            "kl": _json_value(diag.kl),
            "fidelity": _json_value(diag.fidelity),
        }

    return {
        "n": result.n,
        "decay_rate": _json_value(result.decay_rate),
        "delta": _json_value(result.delta),
        "best_beta": _json_value(result.best_beta),
        "best_kl": _json_value(result.best_kl),
        "best_fidelity": _json_value(result.best_fidelity),
        "candidates": [row(diag) for diag in result.candidates],
        "table": [row(diag) for diag in result.table],
    }
