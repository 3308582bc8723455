"""Dense complex statevector simulation of the five primitive gates.

Amplitudes are a numpy complex128 array of length 2**n indexed by the
computational basis integer; bit j of the index has significance 2**j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, GateKind, GateOp

# 2**26 complex doubles is ~1 GiB; anything larger is not a desk-scale run.
MAX_SIM_QUBITS = 26

_SQRT1_2 = 1.0 / math.sqrt(2.0)


@dataclass(eq=False)
class StateVector:
    """An n-qubit pure state as 2**n complex amplitudes."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes for "
                f"{self.num_qubits} qubits, got shape {self.amplitudes.shape}"
            )


def new_zero_state(n: int) -> StateVector:
    """|0...0> on n qubits."""
    if n < 1 or n > MAX_SIM_QUBITS:
        raise ValueError(
            f"qubit count must be in [1, {MAX_SIM_QUBITS}] for simulation, got {n}"
        )
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n, amps)


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


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Apply one primitive gate in place and return the state."""
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


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Apply every gate of the circuit in list order, in place."""
    if circuit.num_qubits != state.num_qubits:
        raise ValueError(
            f"circuit has {circuit.num_qubits} qubits, state has {state.num_qubits}"
        )
    for gate in circuit.gates:
        apply_gate(state, gate)
    return state


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b> = sum_k conj(a_k) * b_k."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("states have different qubit counts")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def probabilities(state: StateVector) -> np.ndarray:
    """|amplitude_k|^2 for every basis index k."""
    return np.abs(state.amplitudes) ** 2
