"""OpenQASM 2.0 export: exact text format, lossless angle round-trip, and a
semantic round-trip through an independent interpreter written here in the
test (index arithmetic only, no package gate kernels)."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import literal_export_qasm, simulate
from gaussprep import (
    Circuit,
    GaussianSpec,
    PruningPolicy,
    build_gaussian_prep,
    cphase,
    encode_exact,
    export_qasm,
    h,
    probabilities,
    ry,
    swap,
    target_distribution,
    x,
)

GATE_LINE = re.compile(
    r"^(ry|h|x|cu1|swap)(?:\(([^)]+)\))? q\[(\d+)\](?:,q\[(\d+)\])?;$"
)


def interpret_qasm(text: str) -> np.ndarray:
    """Minimal OpenQASM 2.0 executor for the exported gate set.

    Applies each gate by direct index arithmetic on a dense amplitude array
    (bit j of the index is qubit j), deliberately sharing no code with the
    package simulator.
    """
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    assert lines[0] == "OPENQASM 2.0;"
    assert lines[1] == 'include "qelib1.inc";'
    match = re.fullmatch(r"qreg q\[(\d+)\];", lines[2])
    assert match, f"missing qreg declaration, got {lines[2]!r}"
    n = int(match.group(1))
    vec = np.zeros(2**n, dtype=np.complex128)
    vec[0] = 1.0

    def apply_single(qubit: int, matrix: np.ndarray) -> None:
        nonlocal vec
        out = np.zeros_like(vec)
        for i in range(vec.size):
            bit = (i >> qubit) & 1
            for new_bit in (0, 1):
                j = (i & ~(1 << qubit)) | (new_bit << qubit)
                out[j] += matrix[new_bit, bit] * vec[i]
        vec = out

    for line in lines[3:]:
        parsed = GATE_LINE.fullmatch(line)
        assert parsed, f"unparseable gate line: {line!r}"
        name, angle_text, q0, q1 = parsed.groups()
        q0 = int(q0)
        if name == "ry":
            theta = float(angle_text)
            c, s = math.cos(theta / 2), math.sin(theta / 2)
            apply_single(q0, np.array([[c, -s], [s, c]]))
        elif name == "h":
            r = 1 / math.sqrt(2)
            apply_single(q0, np.array([[r, r], [r, -r]]))
        elif name == "x":
            apply_single(q0, np.array([[0.0, 1.0], [1.0, 0.0]]))
        elif name == "cu1":
            q1 = int(q1)
            phase = np.exp(1j * float(angle_text))
            for i in range(vec.size):
                if (i >> q0) & 1 and (i >> q1) & 1:
                    vec[i] *= phase
        elif name == "swap":
            q1 = int(q1)
            out = np.zeros_like(vec)
            for i in range(vec.size):
                b0, b1 = (i >> q0) & 1, (i >> q1) & 1
                j = i & ~(1 << q0) & ~(1 << q1) | (b1 << q0) | (b0 << q1)
                out[j] = vec[i]
            vec = out
    return vec


class TestTextFormat:
    def test_empty_circuit_is_header_and_register_only(self):
        text = export_qasm(Circuit(1, ()))
        assert text == 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n'

    def test_single_hadamard(self):
        text = export_qasm(Circuit(1, (h(0),)))
        lines = text.splitlines()
        assert lines[3:] == ["h q[0];"]

    def test_every_gate_kind_serializes(self):
        circuit = Circuit(3, (ry(0, 0.5), h(1), x(2), cphase(2, 0, 0.25), swap(0, 1)))
        lines = export_qasm(circuit).splitlines()[3:]
        assert lines == [
            "ry(0.5) q[0];",
            "h q[1];",
            "x q[2];",
            "cu1(0.25) q[2],q[0];",
            "swap q[0],q[1];",
        ]

    def test_angles_round_trip_exactly(self):
        angle = math.pi / 2**9
        text = export_qasm(Circuit(2, (cphase(1, 0, angle),)))
        parsed = GATE_LINE.fullmatch(text.splitlines()[3])
        assert float(parsed.group(2)) == angle


class TestSemanticRoundTrip:
    def test_gaussian_prep_five_qubits(self):
        circuit = build_gaussian_prep(5, GaussianSpec(decay_rate=1.0), PruningPolicy(0.01))
        reimported = interpret_qasm(export_qasm(circuit))
        expected = probabilities(simulate(circuit))
        np.testing.assert_allclose(np.abs(reimported) ** 2, expected, atol=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_circuits(self, seed):
        rng = np.random.default_rng(seed)
        n = 3
        gates = []
        for _ in range(20):
            kind = rng.integers(5)
            q0 = int(rng.integers(n))
            q1 = int((q0 + 1 + rng.integers(n - 1)) % n)
            angle = float(rng.uniform(0.1, 2 * math.pi))
            gates.append(
                [ry(q0, angle), h(q0), x(q0), cphase(q0, q1, angle), swap(q0, q1)][kind]
            )
        circuit = Circuit(n, tuple(gates))
        reimported = interpret_qasm(export_qasm(circuit))
        expected = simulate(circuit).amplitudes
        np.testing.assert_allclose(reimported, expected, atol=1e-10)


# Both zeros, a tiny angle, +-pi, QFT angles down to the smallest and an
# ordinary value: the cache must keep apart every pair that prints apart.
QASM_ANGLES = st.sampled_from(
    (0.0, -0.0, 1e-300, math.pi, -math.pi, 2.5)
    + tuple(math.ldexp(math.pi, -d) for d in (1, 2, 7, 30, 1074))
)


@st.composite
def random_circuits(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    qubit = st.integers(min_value=0, max_value=n - 1)
    pair = st.tuples(qubit, qubit).filter(lambda p: p[0] != p[1])
    gate = st.one_of(
        st.builds(ry, qubit, QASM_ANGLES),
        st.builds(h, qubit),
        st.builds(x, qubit),
        st.builds(lambda p, a: cphase(*p, a), pair, QASM_ANGLES),
        st.builds(lambda p: swap(*p), pair),
    )
    return Circuit(n, tuple(draw(st.lists(gate, max_size=30))))


class TestMatchesLiteralSerializer:
    @pytest.mark.parametrize("delta", [0.0, 0.0123, 0.1])
    def test_gaussian_circuits(self, delta):
        for n in range(1, 65):
            circuit = build_gaussian_prep(n, GaussianSpec(decay_rate=1.0), PruningPolicy(delta))
            assert export_qasm(circuit) == literal_export_qasm(circuit)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_exact_encoding_circuits(self, n):
        target = target_distribution(GaussianSpec(decay_rate=1.0), n).amplitudes
        circuit = encode_exact(target, n)
        assert export_qasm(circuit) == literal_export_qasm(circuit)

    @given(random_circuits())
    def test_random_circuits(self, circuit):
        assert export_qasm(circuit) == literal_export_qasm(circuit)

    def test_signed_zero_angles_keep_their_sign(self):
        circuit = Circuit(2, (
            cphase(1, 0, 0.0), cphase(1, 0, -0.0), ry(0, 0.0), ry(0, -0.0), cphase(0, 1, 0.0),
        ))
        assert export_qasm(circuit).splitlines()[3:] == [
            "cu1(0) q[1],q[0];",
            "cu1(-0) q[1],q[0];",
            "ry(0) q[0];",
            "ry(-0) q[0];",
            "cu1(0) q[0],q[1];",
        ]
