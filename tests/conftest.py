"""Shared test configuration and helpers."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import HealthCheck, settings

from gaussprep import (
    Circuit,
    GateKind,
    GateOp,
    StateVector,
    apply_circuit,
    new_zero_state,
    rotation_angle,
)

settings.register_profile(
    "package",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("package")


def simulate(circuit: Circuit) -> StateVector:
    """Run a circuit from |0...0> and return the final state."""
    state = new_zero_state(circuit.num_qubits)
    return apply_circuit(state, circuit)


def circuit_matrix(circuit: Circuit) -> np.ndarray:
    """Dense unitary of a circuit, built column by column from basis states."""
    dim = 2**circuit.num_qubits
    matrix = np.empty((dim, dim), dtype=np.complex128)
    for j in range(dim):
        state = new_zero_state(circuit.num_qubits)
        state.amplitudes[:] = 0.0
        state.amplitudes[j] = 1.0
        apply_circuit(state, circuit)
        matrix[:, j] = state.amplitudes
    return matrix


def literal_closed_form_probabilities(
    n: int, beta: float, msb_flipped: bool = False
) -> np.ndarray:
    """The closed form evaluated index by index, one full-length cosine pass
    per factor: the reference that the periodic evaluation in
    gaussprep.reference must match bit for bit."""
    dim = 1 << n
    m = np.arange(dim, dtype=np.int64)
    probs = np.full(dim, 1.0 / dim)
    for j in range(n):
        theta = rotation_angle(j, beta)
        phase_index = (m << j) % dim  # exact: m * 2**j mod 2**n in int64
        probs *= 1.0 + math.sin(theta) * np.cos(2.0 * np.pi * phase_index / dim)
    if msb_flipped:
        probs = probs[m ^ (dim >> 1)]
    return probs


_SQRT1_2 = 1.0 / math.sqrt(2.0)


def _views(state: StateVector, qubit: int, *more: int):
    """Slice views of the amplitude array with the given qubits fixed.

    Returns one view per bit assignment of the fixed qubits, ordered by the
    assignment read as a binary number (first qubit = most significant bit of
    the assignment). Views alias the underlying array, so in-place updates
    write through.
    """
    n = state.num_qubits
    qubits = (qubit, *more)
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit index {q} out of range for {n} qubits")
    tensor = state.amplitudes.reshape((2,) * n)
    axes = [n - 1 - q for q in qubits]
    out = []
    for bits in range(2 ** len(qubits)):
        index: list = [slice(None)] * n
        for pos, ax in enumerate(axes):
            bit = (bits >> (len(qubits) - 1 - pos)) & 1
            # a length-1 slice (not an int) so the result is always a view,
            # even when every axis is fixed
            index[ax] = slice(bit, bit + 1)
        out.append(tensor[tuple(index)])
    return out


def literal_apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """One gate through slice views of the (2,)*n tensor, with a copy per
    update: the per-gate reference that gaussprep.statevector's kernels and
    its |0...0> product prefix must match bit for bit."""
    if gate.kind is GateKind.RY:
        a, b = _views(state, gate.qubits[0])
        c, s = math.cos(gate.angle / 2.0), math.sin(gate.angle / 2.0)
        tmp = a.copy()
        a[...] = c * tmp - s * b
        b[...] = s * tmp + c * b
    elif gate.kind is GateKind.H:
        a, b = _views(state, gate.qubits[0])
        tmp = a.copy()
        a[...] = (tmp + b) * _SQRT1_2
        b[...] = (tmp - b) * _SQRT1_2
    elif gate.kind is GateKind.X:
        a, b = _views(state, gate.qubits[0])
        tmp = a.copy()
        a[...] = b
        b[...] = tmp
    elif gate.kind is GateKind.CPHASE:
        _, _, _, v11 = _views(state, gate.qubits[0], gate.qubits[1])
        v11 *= complex(math.cos(gate.angle), math.sin(gate.angle))
    elif gate.kind is GateKind.SWAP:
        _, v01, v10, _ = _views(state, gate.qubits[0], gate.qubits[1])
        tmp = v01.copy()
        v01[...] = v10
        v10[...] = tmp
    else:  # pragma: no cover - GateKind is closed
        raise ValueError(f"unknown gate kind {gate.kind}")
    return state


def random_normalized_amplitudes(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random complex unit vector."""
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)
