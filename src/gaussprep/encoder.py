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


def _emit_multiplexed_ry(gates: list[GateOp], angles: np.ndarray, target: int) -> None:
    """Ry(angles[p]) on target, selected by the bit pattern p of the k qubits
    above it (qubit target + k is the pattern's most significant bit), for
    2**k angles.

    Splitting on the top control, with s = (a0+a1)/2 and d = (a0-a1)/2, the
    multiplexor equals  M(s) CNOT M(d) CNOT  because the CNOT conjugation
    negates the second block's rotation exactly when the top control is 1
    (X Ry(t) X = Ry(-t)), leaving s+d = a0 or s-d = a1. Stage i applies
    that split to all 2**i blocks at once, so after k stages the leaves are
    in emission order, each from the operations the recursion gives it.
    After leaf j (1-based) come CNOT(target + 1 + i, target) for i from 0 to
    the index of the lowest set bit of j, or to k - 1 after the last leaf.
    """
    k = len(angles).bit_length() - 1
    cnots = [_cnot_gates(target + 1 + i, target) for i in range(k)]
    leaves = angles
    for stage in range(k):
        blocks = leaves.reshape(1 << stage, 2, -1)
        a0, a1 = blocks[:, 0], blocks[:, 1]
        leaves = np.stack(((a0 + a1) / 2.0, (a0 - a1) / 2.0), axis=1)
    for j, angle in enumerate(leaves.ravel().tolist(), 1):
        gates.append(ry(target, angle))
        for cnot in cnots[:(j & -j).bit_length()]:
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
    if not abs(total - 1.0) <= NORM_TOL:  # a nan sum is refused too
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
        _emit_multiplexed_ry(gates, angles, n - 1 - level)
    return Circuit(n, tuple(gates))
