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
    cphase,
    h,
    new_zero_state,
    rotation_angle,
    ry,
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


def exponential_layer(n: int, beta: float) -> Circuit:
    """The Gaussian circuit's Ry layer on its own, one checked RY per qubit."""
    return Circuit(n, tuple(ry(j, rotation_angle(j, beta)) for j in range(n)))


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


def literal_write_ry_prefix(amps: np.ndarray, n: int, prefix: tuple[GateOp, ...]) -> None:
    """Overwrite |0...0> with the state made by a run of RY gates on
    distinct qubits.

    That state is a product: an amplitude whose set bits all lie on rotated
    qubits is the product of one factor per gate, cos(angle/2) where the
    gate's qubit is 0 and sin(angle/2) where it is 1, and every other
    amplitude stays 0. The factors are multiplied in gate order, as the
    gates would multiply them one at a time, so each amplitude equals what
    the gates give (a zero may differ in sign). The product keeps one axis
    per rotated qubit in descending qubit order, the order of the bits of a
    basis index, and its last factor is multiplied straight into the
    amplitudes.

    The product formed in separate arrays: the reference whose bits
    gaussprep.statevector's in-place RY layer must keep.
    """
    product = np.ones(())
    rotated: list[int] = []  # descending
    factor = None
    for gate in prefix:
        q = gate.qubits[0]
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


_QASM_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


def literal_export_qasm(circuit: Circuit) -> str:
    """One f-string per gate and per angle: the serialiser whose bytes
    gaussprep.qasm.export_qasm, with its per-angle text cache, must match."""
    lines = [_QASM_HEADER + f"qreg q[{circuit.num_qubits}];"]
    for gate in circuit.gates:
        if gate.kind is GateKind.RY:
            lines.append(f"ry({gate.angle:.17g}) q[{gate.qubits[0]}];")
        elif gate.kind is GateKind.H:
            lines.append(f"h q[{gate.qubits[0]}];")
        elif gate.kind is GateKind.X:
            lines.append(f"x q[{gate.qubits[0]}];")
        elif gate.kind is GateKind.CPHASE:
            a, b = gate.qubits
            lines.append(f"cu1({gate.angle:.17g}) q[{a}],q[{b}];")
        elif gate.kind is GateKind.SWAP:
            a, b = gate.qubits
            lines.append(f"swap q[{a}],q[{b}];")
        else:  # pragma: no cover - GateOp validation makes this unreachable
            raise ValueError(f"unsupported gate kind: {gate.kind}")
    return "\n".join(lines) + "\n"


def _literal_emit_cnot(gates: list[GateOp], control: int, target: int) -> None:
    gates.append(h(target))
    gates.append(cphase(control, target, math.pi))
    gates.append(h(target))


def _literal_emit_multiplexed_ry(
    gates: list[GateOp], angles: np.ndarray, controls: tuple[int, ...], target: int
) -> None:
    if not controls:
        gates.append(ry(target, float(angles[0])))
        return
    half = len(angles) // 2
    a0, a1 = angles[:half], angles[half:]
    s = (a0 + a1) / 2.0
    d = (a0 - a1) / 2.0
    _literal_emit_multiplexed_ry(gates, s, controls[1:], target)
    _literal_emit_cnot(gates, controls[0], target)
    _literal_emit_multiplexed_ry(gates, d, controls[1:], target)
    _literal_emit_cnot(gates, controls[0], target)


def literal_encode_exact(target_amplitudes: np.ndarray, n: int) -> Circuit:
    """The exact encoder with three new gates per CNOT: the per-gate
    construction that gaussprep.encoder.encode_exact, which shares one
    H and one CPHASE per (control, target) pair, must equal gate for gate.
    Input validation is left to the package."""
    masses = np.asarray(target_amplitudes, dtype=np.float64) ** 2
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
        _literal_emit_multiplexed_ry(gates, angles, controls, n - 1 - level)
    return Circuit(n, tuple(gates))


def assert_checked_gates(circuit: Circuit) -> None:
    """Each gate of a builder equals its rebuild through the checking
    constructor and has the types that constructor gives: a tuple of Python
    ints, and a Python float or no angle."""
    for gate in circuit.gates:
        assert gate == GateOp(gate.kind, gate.qubits, gate.angle), gate
        assert type(gate.qubits) is tuple, gate
        assert all(type(qubit) is int for qubit in gate.qubits), gate
        assert type(gate.angle) is float or gate.angle is None, gate


def random_normalized_amplitudes(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random complex unit vector."""
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)
