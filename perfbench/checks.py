"""Output checks for benchmark ops, run outside the timed region.

Each check compares an op's stdout with the gate-count formulas in
workloads.py and with values computed here from the package's reference
oracle `closed_form_probabilities`, which avoids the gate kernels, so
agreement is evidence rather than tautology. A check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from gaussprep.reference import closed_form_probabilities

from workloads import (
    CALIBRATE_QUBITS,
    DENSE_QUBITS,
    DENSE_SHOTS,
    SWEEP_DELTAS,
    SYNTH_QUBITS,
    TINY_QUBITS,
    Op,
    baseline_gate_total,
    gaussian_gate_total,
    kept_cphase,
)

SMOOTHING_EPS = 1e-12  # the calibration objective's Laplace smoothing constant
REL_TOL = 1e-9  # closed form against gate-level simulation: round-off only
BASELINE_FIDELITY_MIN = 1.0 - 1e-9


def target_probabilities(n: int, decay_rate: float) -> np.ndarray:
    """exp(-lambda x^2) on 2^n points of [-2, 2), normalised."""
    x = -2.0 + (4.0 / 2.0**n) * np.arange(2**n)
    weights = np.exp(-decay_rate * x**2)
    return weights / weights.sum()


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    support = p > 0.0
    return float(np.sum(p[support] * np.log(p[support] / q[support])))


def _close(name: str, got: float, want: float) -> list[str]:
    if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-15):
        return []
    return [f"{name} = {got!r}, closed form gives {want!r}"]


def _check_sample(op: Op, stdout: str) -> list[str]:
    report = json.loads(stdout)
    problems = []
    if (report["n"], report["shots"], report["seed"]) != (DENSE_QUBITS, DENSE_SHOTS, op.shot_seed):
        problems.append(f"sample echoed n/shots/seed {report['n']}/{report['shots']}/{report['seed']}")
    if not 0.0 < report["tv_distance"] < 1.0:
        problems.append(f"tv_distance {report['tv_distance']} outside (0, 1)")
    return problems


def _check_prepare(op: Op, stdout: str) -> list[str]:
    report = json.loads(stdout)
    n, delta = report["n"], report["delta"]
    kept = kept_cphase(n, delta)
    want = {"ry": n, "h": n, "x": 1, "cphase": kept, "swap": n // 2,
            "total": gaussian_gate_total(n, delta),
            "num_pruned_cphase": n * (n - 1) // 2 - kept}
    problems = [f"gate_counts {report['gate_counts']} != {want}"] if report["gate_counts"] != want else []
    if delta == 0.0:
        prepared = closed_form_probabilities(n, report["beta"], msb_flipped=True)
        target = target_probabilities(n, op.decay_rate)
        problems += _close("kl_divergence", report["kl_divergence"], _kl(prepared, target))
        problems += _close("fidelity", report["fidelity"], float(np.sum(np.sqrt(target * prepared)) ** 2))
    return problems


def _check_sweep(op: Op, stdout: str) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(stdout)))
    problems = []
    seen = sorted((int(r["n"]), r["method"], float(r["delta"] or -1.0)) for r in rows)
    want = sorted([(n, "gaussian", d) for n in TINY_QUBITS for d in SWEEP_DELTAS]
                  + [(n, "baseline", -1.0) for n in TINY_QUBITS])
    if seen != want:
        problems.append(f"sweep rows {seen} != {want}")
    for row in rows:
        n = int(row["n"])
        where = f"n={n} {row['method']} delta={row['delta']!r}"
        if row["error"]:
            problems.append(f"{where}: error {row['error']!r}")
            continue
        if row["method"] == "baseline":
            if int(row["gate_total"]) != baseline_gate_total(n):
                problems.append(f"{where}: gate_total {row['gate_total']} != {baseline_gate_total(n)}")
            if float(row["fidelity"]) < BASELINE_FIDELITY_MIN:
                problems.append(f"{where}: fidelity {row['fidelity']} < {BASELINE_FIDELITY_MIN}")
            continue
        delta = float(row["delta"])
        if int(row["gate_total"]) != gaussian_gate_total(n, delta):
            problems.append(f"{where}: gate_total {row['gate_total']} != {gaussian_gate_total(n, delta)}")
        if delta == 0.0:
            prepared = closed_form_probabilities(n, float(row["beta"]), msb_flipped=True)
            target = target_probabilities(n, op.decay_rate)
            problems += [f"{where}: {p}" for p in _close("kl", float(row["kl"]), _kl(prepared, target))]
            fid = float(np.sum(np.sqrt(target * prepared)) ** 2)
            problems += [f"{where}: {p}" for p in _close("fidelity_target", float(row["fidelity_target"]), fid)]
        elif float(row["fidelity"]) < float(row["fidelity_bound"]):
            problems.append(f"{where}: fidelity {row['fidelity']} < bound {row['fidelity_bound']}")
    return problems


def _check_calibrate(op: Op, stdout: str) -> list[str]:
    report = json.loads(stdout)
    problems = []
    best_beta, best_kl = report["best_beta"], report["best_kl"]
    for candidate in report["candidates"]:
        if best_kl > candidate["kl"]:
            problems.append(f"best_kl {best_kl} > kl {candidate['kl']} at beta {candidate['beta']}")
    prepared = closed_form_probabilities(CALIBRATE_QUBITS, best_beta, msb_flipped=True)
    smoothed = (prepared + SMOOTHING_EPS) / (1.0 + prepared.size * SMOOTHING_EPS)
    target = target_probabilities(CALIBRATE_QUBITS, op.decay_rate)
    return problems + _close("best_kl", best_kl, _kl(target, smoothed))


def _check_qasm(op: Op, stdout: str) -> list[str]:
    n = SYNTH_QUBITS
    lines = stdout.splitlines()
    gates = lines[3:]
    problems = []
    if lines[:3] != ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];"]:
        problems.append(f"unexpected header {lines[:3]}")
    if len(lines) != gaussian_gate_total(n, 0.0) + 3:
        problems.append(f"{len(lines)} lines, want gates + 3 = {gaussian_gate_total(n, 0.0) + 3}")
    tally = {"ry": 0, "h": 0, "x": 0, "cu1": 0, "swap": 0}
    bad_angles = 0
    for line in gates:
        kind = line.split("(", 1)[0].split(" ", 1)[0]
        tally[kind] = tally.get(kind, 0) + 1
        if kind == "cu1":
            angle, qubits = line[4:].split(") ", 1)
            a, b = (int(q.strip("q[];")) for q in qubits.split(","))
            if float(angle) != math.pi / 2.0 ** (a - b):
                bad_angles += 1
    want = {"ry": n, "h": n, "x": 1, "cu1": n * (n - 1) // 2, "swap": n // 2}
    if tally != want:
        problems.append(f"gate tally {tally} != {want}")
    if bad_angles:
        problems.append(f"{bad_angles} cu1 angles differ from pi/2^d")
    return problems


_CHECKS = {
    "sample": _check_sample,
    "prepare": _check_prepare,
    "sweep": _check_sweep,
    "calibrate": _check_calibrate,
    "export-qasm": _check_qasm,
}


def check(op: Op, stdout: str) -> list[str]:
    """Problems found in one op's output; malformed output is a problem too."""
    try:
        return _CHECKS[op.argv[0]](op, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output ({type(exc).__name__}: {exc})"]
