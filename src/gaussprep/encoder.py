"""Exact amplitude encoding of a real non-negative vector, used as the
cost baseline: a binary tree of multiplexed Ry rotations.

Cost model (all gates are the five primitives, so counting the circuit IS the
cost model): the level-l multiplexor (l controls) decomposes into 2^l RY gates
and 2^(l+1) - 2 CNOTs, each CNOT materialized as H * CPHASE(pi) * H. Summed
over levels l = 0..n-1 the circuit has exactly 7*2^n - 6n - 7 primitive gates,
the exponential growth expected of exact encoding.
"""

from __future__ import annotations

import math

import numpy as np

from .circuits import Circuit, GateOp, cphase, h, ry

NORM_TOL = 1e-10

# The circuit has 7*2^n - 6n - 7 gates: 458,649 at n = 16, and about 470
# million at n = 26, where the gate list alone (about 27 B per gate) would
# take 12.5 GB. Its simulation time grows about 3.4x per qubit.
MAX_ENCODE_QUBITS = 16


def _cnot_gates(control: int, target: int) -> tuple[GateOp, GateOp, GateOp]:
    """CNOT(control, target) as H * CPHASE(pi) * H, built once per pair: the
    gates are immutable, so every CNOT of the pair shares them."""
    hadamard = h(target)
    return (hadamard, cphase(control, target, math.pi), hadamard)


def _emit_multiplexed_ry(
    gates: list[GateOp],
    angles: np.ndarray,
    controls: tuple[int, ...],
    target: int,
    cnots: dict[int, tuple[GateOp, GateOp, GateOp]],
) -> None:
    """Ry(angles[p]) on target, selected by the controls' bit pattern p
    (controls[0] is the pattern's most significant bit).

    Recursion: splitting on the top control, with s = (a0+a1)/2 and
    d = (a0-a1)/2, the multiplexor equals  M(s) CNOT M(d) CNOT  because the
    CNOT conjugation negates the second block's rotation exactly when the top
    control is 1 (X Ry(t) X = Ry(-t)), leaving s+d = a0 or s-d = a1.
    cnots[c] is CNOT(c, target) as H * CPHASE(pi) * H.
    """
    if not controls:
        gates.append(ry(target, float(angles[0])))
        return
    half = len(angles) // 2
    a0, a1 = angles[:half], angles[half:]
    s = (a0 + a1) / 2.0
    d = (a0 - a1) / 2.0
    cnot = cnots[controls[0]]
    _emit_multiplexed_ry(gates, s, controls[1:], target, cnots)
    gates.extend(cnot)
    _emit_multiplexed_ry(gates, d, controls[1:], target, cnots)
    gates.extend(cnot)


def encode_exact(target_amplitudes: np.ndarray, n: int) -> Circuit:
    """Circuit preparing the given real non-negative amplitude vector exactly.

    Walks the binary tree of index blocks top-down: the level-l node covering
    a block splits its probability mass between halves, and the rotation
    angle 2*arccos(sqrt(left_mass/total_mass)) on qubit n-1-l (multiplexed
    over the l higher qubits) routes amplitude accordingly. Empty subtrees get
    angle 0.
    """
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    if n > MAX_ENCODE_QUBITS:
        raise ValueError(f"exact encoding is capped at {MAX_ENCODE_QUBITS} qubits, got {n}")
    target = np.asarray(target_amplitudes, dtype=np.float64)
    if target.shape != (2**n,):
        raise ValueError(f"expected 2**{n} amplitudes, got shape {target.shape}")
    if np.any(target < 0.0):
        raise ValueError("amplitudes must be non-negative")
    total = float(np.sum(target**2))
    if total == 0.0:
        raise ValueError("zero vector cannot be encoded")
    if abs(total - 1.0) > NORM_TOL:
        raise ValueError(f"amplitudes must be normalized, got sum of squares {total}")

    masses = target**2
    # node_masses[l][p] = mass of the level-l block [p*2^(n-l), (p+1)*2^(n-l))
    node_masses: list[np.ndarray] = [masses]
    for _ in range(n):
        masses = masses.reshape(-1, 2).sum(axis=1)
        node_masses.append(masses)
    node_masses.reverse()

    gates: list[GateOp] = []
    for level in range(n):
        parents = node_masses[level]
        left_children = node_masses[level + 1][0::2]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(parents > 0.0, left_children / np.maximum(parents, 1e-300), 1.0)
        angles = 2.0 * np.arccos(np.sqrt(np.clip(ratio, 0.0, 1.0)))
        controls = tuple(range(n - 1, n - 1 - level, -1))
        cnots = {c: _cnot_gates(c, n - 1 - level) for c in controls}
        _emit_multiplexed_ry(gates, angles, controls, n - 1 - level, cnots)
    return Circuit(n, tuple(gates))
