"""Shared test configuration and helpers."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import HealthCheck, settings

from gaussprep import Circuit, StateVector, apply_circuit, new_zero_state, rotation_angle

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


def random_normalized_amplitudes(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random complex unit vector."""
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)
