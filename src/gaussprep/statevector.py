"""Dense complex statevector simulation of the five primitive gates.

Amplitudes are a numpy complex128 array of length 2**n indexed by the
computational basis integer; bit j of the index has significance 2**j.
"""

from __future__ import annotations

import itertools
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


def check_simulable(n: int) -> None:
    """Refuse a qubit count whose 2**n amplitudes are not simulated."""
    if not 1 <= n <= MAX_SIM_QUBITS:
        raise ValueError(f"qubit count {n} outside simulable range 1..{MAX_SIM_QUBITS}")


def new_zero_state(n: int) -> StateVector:
    """|0...0> on n qubits."""
    check_simulable(n)
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n, amps)


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Apply one primitive gate in place and return the state.

    A gate on qubit q works on the view amps.reshape(-1, 2, 2**q), whose
    [:, 0] and [:, 1] halves have qubit q clear and set; a two-qubit gate on
    the view (high, bit hi, middle, bit lo, low). The 2x2 update runs in
    place, in the order of floating-point operations of the textbook
    product, with at most two temporaries of half a state (RY).
    """
    n = state.num_qubits
    for q in gate.qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit index {q} out of range for {n} qubits")
    amps = state.amplitudes
    kind = gate.kind
    if kind is GateKind.CPHASE or kind is GateKind.SWAP:
        lo, hi = sorted(gate.qubits)
        view = amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
        if kind is GateKind.CPHASE:
            view[:, 1, :, 1, :] *= complex(math.cos(gate.angle), math.sin(gate.angle))
        else:
            t = view[:, 0, :, 1, :].copy()
            view[:, 0, :, 1, :] = view[:, 1, :, 0, :]
            view[:, 1, :, 0, :] = t
        return state
    view = amps.reshape(-1, 2, 1 << gate.qubits[0])
    a, b = view[:, 0], view[:, 1]
    if kind is GateKind.RY:
        c, s = math.cos(gate.angle / 2.0), math.sin(gate.angle / 2.0)
        sa = a * s
        sb = b * s
        a *= c
        a -= sb
        b *= c
        b += sa
    elif kind is GateKind.H:
        t = a - b
        a += b
        a *= _SQRT1_2
        np.multiply(t, _SQRT1_2, out=b)
    elif kind is GateKind.X:
        t = a.copy()
        a[...] = b
        b[...] = t
    else:  # pragma: no cover - GateKind is closed
        raise ValueError(f"unknown gate kind {gate.kind}")
    return state


def _write_ry_prefix(amps: np.ndarray, n: int, gates: tuple[GateOp, ...]) -> int:
    """Overwrite |0...0> with the state made by the leading run of RY gates
    on distinct qubits, and return the length of that run (at least 1: the
    first gate must be an RY).

    That state is a product: an amplitude whose set bits all lie on rotated
    qubits is the product of one factor per gate, cos(angle/2) where the
    gate's qubit is 0 and sin(angle/2) where it is 1, and every other
    amplitude stays 0. The factors are multiplied in gate order, as the
    gates would multiply them one at a time, so each amplitude equals what
    the gates give (a zero may differ in sign). The product keeps one axis
    per rotated qubit in descending qubit order, the order of the bits of a
    basis index, and its last factor is multiplied straight into the
    amplitudes.
    """
    product = np.ones(())
    rotated: list[int] = []  # descending
    factor = None
    for gate in gates:
        q = gate.qubits[0]
        if gate.kind is not GateKind.RY or q in rotated:
            break
        if factor is not None:
            product = product * factor
        axis = sum(r > q for r in rotated)
        half = gate.angle / 2.0
        factor = np.array([math.cos(half), math.sin(half)])
        factor = factor.reshape((2,) + (1,) * (len(rotated) - axis))
        rotated.insert(axis, q)
        product = np.expand_dims(product, axis)
    index = tuple(slice(None) if q in rotated else 0 for q in range(n - 1, -1, -1))
    np.multiply(product, factor, out=amps.reshape((2,) * n)[index])
    return len(rotated)


# numpy runs a ufunc over a multi-dimensional view through one buffer of this
# many elements per operand. Its default, 8192, makes the buffers of one H as
# large as a whole 14-qubit state; 512 keeps them at 8 KiB and measured
# faster too (the Gaussian circuit at n = 18: 74 -> 64 ms, numpy 2.4).
_UFUNC_BUFFER_ELEMENTS = 512


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Apply every gate of the circuit in list order, in place.

    On |0...0> the leading run of RY gates on distinct qubits (the
    exponential layer of the Gaussian circuit) is written as one product
    state instead of gate by gate, with the same amplitudes.
    """
    if circuit.num_qubits != state.num_qubits:
        raise ValueError(
            f"circuit has {circuit.num_qubits} qubits, state has {state.num_qubits}"
        )
    gates = circuit.gates
    amps = state.amplitudes
    start = 0
    with np.errstate():
        np.setbufsize(_UFUNC_BUFFER_ELEMENTS)
        if gates and gates[0].kind is GateKind.RY and amps[0] == 1 and not amps[1:].any():
            start = _write_ry_prefix(amps, state.num_qubits, gates)
        for gate in itertools.islice(gates, start, None):
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
