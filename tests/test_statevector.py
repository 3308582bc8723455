"""Statevector construction and gate-application kernels."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    circuit_matrix,
    literal_apply_gate,
    literal_write_ry_prefix,
    random_normalized_amplitudes,
    simulate,
)
from gaussprep import (
    Circuit,
    GateOp,
    GaussianSpec,
    StateVector,
    apply_circuit,
    build_exponential_layer,
    build_qft,
    cphase,
    dft_oracle,
    encode_exact,
    h,
    inner_product,
    new_zero_state,
    probabilities,
    resolve_beta,
    ry,
    swap,
    target_distribution,
    x,
)
from gaussprep.harness import gaussian_circuit
from gaussprep.statevector import MAX_SIM_QUBITS, _storage_bits

SQRT1_2 = 1.0 / math.sqrt(2.0)


class TestNewZeroState:
    def test_single_qubit(self):
        state = new_zero_state(1)
        np.testing.assert_array_equal(state.amplitudes, [1.0, 0.0])

    def test_three_qubits(self):
        state = new_zero_state(3)
        assert state.amplitudes.shape == (8,)
        assert state.amplitudes[0] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1

    @pytest.mark.parametrize("n", [0, -1, MAX_SIM_QUBITS + 1])
    def test_out_of_range(self, n):
        with pytest.raises(ValueError, match=rf"^qubit count {n} outside simulable range 1\.\.26$"):
            new_zero_state(n)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            StateVector(2, np.zeros(3))


def run_gate(state: StateVector, gate: GateOp) -> StateVector:
    """One gate through the simulator's only entry, as a one-gate circuit."""
    return apply_circuit(state, Circuit(state.num_qubits, (gate,)))


class TestApplyGate:
    def test_ry_half_pi(self):
        state = new_zero_state(1)
        run_gate(state, ry(0, math.pi / 2))
        np.testing.assert_allclose(state.amplitudes, [SQRT1_2, SQRT1_2], atol=1e-15)

    def test_x_on_highest_qubit(self):
        n = 4
        state = new_zero_state(n)
        run_gate(state, x(n - 1))
        assert state.amplitudes[2 ** (n - 1)] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1

    def test_cphase_pi_on_11(self):
        state = new_zero_state(2)
        run_gate(state, x(0))
        run_gate(state, x(1))
        run_gate(state, cphase(0, 1, math.pi))
        np.testing.assert_allclose(state.amplitudes[3], -1.0, atol=1e-15)

    def test_swap_exchanges_bits(self):
        state = new_zero_state(2)
        run_gate(state, x(0))  # |01> = index 1
        run_gate(state, swap(0, 1))
        assert state.amplitudes[2] == 1.0  # index 2 = bit 1 set

    def test_two_qubit_gate_touching_all_qubits(self):
        # regression: gates fixing every axis must still write through
        state = new_zero_state(2)
        run_gate(state, h(0))
        run_gate(state, h(1))
        run_gate(state, cphase(0, 1, math.pi))
        assert state.amplitudes[3] == pytest.approx(-0.5)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
    def test_norm_preserved_by_random_gate_sequences(self, n, seed):
        rng = np.random.default_rng(seed)
        state = StateVector(n, random_normalized_amplitudes(rng, 2**n))
        for _ in range(20):
            kind = rng.integers(0, 5)
            q = int(rng.integers(0, n))
            if kind == 0:
                gate = ry(q, float(rng.uniform(-2 * math.pi, 2 * math.pi)))
            elif kind == 1:
                gate = h(q)
            elif kind == 2:
                gate = x(q)
            elif n >= 2:
                q2 = int((q + 1 + rng.integers(0, n - 1)) % n)
                if q2 == q:
                    q2 = (q + 1) % n
                angle = float(rng.uniform(1e-6, 2 * math.pi - 1e-6))
                gate = cphase(q, q2, angle) if kind == 3 else swap(q, q2)
            else:
                gate = h(q)
            run_gate(state, gate)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-12


class TestUnitarity:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_every_gate_kind_is_unitary(self, n):
        gates = [ry(0, 0.7), h(n - 1), x(0)]
        if n >= 2:
            gates += [cphase(0, n - 1, 1.1), swap(0, n - 1)]
        for gate in gates:
            matrix = circuit_matrix(Circuit(n, (gate,)))
            np.testing.assert_allclose(
                matrix.conj().T @ matrix, np.eye(2**n), atol=1e-10
            )


class TestApplyCircuit:
    def test_empty_circuit_is_identity(self):
        state = new_zero_state(3)
        before = state.amplitudes.copy()
        apply_circuit(state, Circuit(3, ()))
        np.testing.assert_array_equal(state.amplitudes, before)

    def test_hadamard_involution(self):
        state = new_zero_state(1)
        apply_circuit(state, Circuit(1, (h(0), h(0))))
        np.testing.assert_allclose(state.amplitudes, [1.0, 0.0], atol=1e-12)

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError):
            apply_circuit(new_zero_state(2), Circuit(3, ()))

    def test_full_qft_matches_brute_force_dft_columns(self):
        n = 4
        dim = 2**n
        qft = build_qft(n)
        for j in range(dim):
            state = new_zero_state(n)
            state.amplitudes[:] = 0.0
            state.amplitudes[j] = 1.0
            apply_circuit(state, qft)
            basis = np.zeros(dim)
            basis[j] = 1.0
            np.testing.assert_allclose(
                state.amplitudes, dft_oracle(basis), atol=1e-10
            )

    def test_composition_is_exact(self):
        rng = np.random.default_rng(11)
        c1 = Circuit(3, (h(0), ry(1, 0.3), cphase(0, 2, 0.9)))
        c2 = Circuit(3, (swap(0, 2), x(1), h(2)))
        amps = random_normalized_amplitudes(rng, 8)
        joined = apply_circuit(StateVector(3, amps.copy()), Circuit(3, c1.gates + c2.gates))
        stepped = apply_circuit(
            apply_circuit(StateVector(3, amps.copy()), c1), c2
        )
        np.testing.assert_array_equal(joined.amplitudes, stepped.amplitudes)


def _literal_run(amplitudes: np.ndarray, circuit: Circuit) -> np.ndarray:
    state = StateVector(circuit.num_qubits, amplitudes.copy())
    for gate in circuit.gates:
        literal_apply_gate(state, gate)
    return state.amplitudes


def _assert_matches_literal_gates(amplitudes: np.ndarray, circuit: Circuit) -> None:
    expected = _literal_run(amplitudes, circuit)
    state = apply_circuit(StateVector(circuit.num_qubits, amplitudes.copy()), circuit)
    assert np.array_equal(state.amplitudes, expected)


def _assert_bits_match_literal_gates(amplitudes: np.ndarray, circuit: Circuit) -> None:
    """Every amplitude of apply_circuit has the bits of the per-gate
    reference, the sign of a zero included."""
    expected = _literal_run(amplitudes, circuit)
    state = apply_circuit(StateVector(circuit.num_qubits, amplitudes.copy()), circuit)
    assert np.array_equal(state.amplitudes.view(np.int64), expected.view(np.int64))


_ANGLES = st.sampled_from([0.0, -0.0, 1e-300, -0.4, math.pi, -math.pi, 2.5, -7.0, 13.0])


@st.composite
def _circuits(draw):
    """A leading RY run (qubits may repeat or come out of order, angles may
    be 0 or negative) followed by a tail of any of the five gates."""
    n = draw(st.integers(min_value=1, max_value=8))
    qubit = st.integers(min_value=0, max_value=n - 1)
    gates = [ry(q, a) for q, a in draw(st.lists(st.tuples(qubit, _ANGLES), max_size=2 * n))]
    one_qubit = st.builds(ry, qubit, _ANGLES) | st.builds(h, qubit) | st.builds(x, qubit)
    if n > 1:
        pair = st.lists(qubit, min_size=2, max_size=2, unique=True)
        two_qubit = (st.builds(lambda p, a: cphase(*p, a), pair, _ANGLES)
                     | st.builds(lambda p: swap(*p), pair))
        one_qubit = one_qubit | two_qubit
    gates += draw(st.lists(one_qubit, max_size=12))
    return Circuit(n, tuple(gates))


@st.composite
def _busy_circuits(draw):
    """Any of the five gates on 2..7 qubits, with a qubit below the top one
    given more one-qubit gates than any other, so that the layout is not the
    identity."""
    n = draw(st.integers(min_value=2, max_value=7))
    qubit = st.integers(min_value=0, max_value=n - 1)
    pair = st.lists(qubit, min_size=2, max_size=2, unique=True)
    gate = (st.builds(ry, qubit, _ANGLES) | st.builds(h, qubit) | st.builds(x, qubit)
            | st.builds(lambda p, a: cphase(*p, a), pair, _ANGLES)
            | st.builds(lambda p: swap(*p), pair))
    gates = draw(st.lists(gate, max_size=16))
    busy = draw(st.integers(min_value=0, max_value=n - 2))
    one_qubit = st.sampled_from((h, x)) | st.just(lambda q: ry(q, 0.7))
    most = max([sum(g.qubits == (q,) for g in gates) for q in range(n)])
    for _ in range(most + 1 - sum(g.qubits == (busy,) for g in gates)):
        position = draw(st.integers(min_value=0, max_value=len(gates)))
        gates.insert(position, draw(one_qubit)(busy))
    return Circuit(n, tuple(gates))


@st.composite
def _ry_runs(draw):
    """RY gates on distinct qubits of 1..10 in any order, then perhaps a
    repeated qubit, which ends the run, and further RY gates."""
    n = draw(st.integers(min_value=1, max_value=10))
    order = draw(st.permutations(range(n)))
    qubits = order[:draw(st.integers(min_value=0, max_value=n))]
    gates = [ry(q, draw(_ANGLES)) for q in qubits]
    if qubits and draw(st.booleans()):
        gates.append(ry(draw(st.sampled_from(qubits)), draw(_ANGLES)))
        qubit = st.integers(min_value=0, max_value=n - 1)
        gates += [ry(q, a) for q, a in draw(st.lists(st.tuples(qubit, _ANGLES), max_size=3))]
    return Circuit(n, tuple(gates))


class TestRyLayerMatchesLiteralProduct:
    """The RY run written in place on |0...0> against the product formed in
    separate arrays (conftest), then gate by gate, sign of zero included."""

    @given(_ry_runs())
    @example(Circuit(1, (ry(0, -0.0),)))
    @example(Circuit(3, (ry(1, math.pi), ry(2, -0.0), ry(0, 13.0), ry(2, -7.0))))
    def test_bits(self, circuit):
        n = circuit.num_qubits
        run: list[int] = []
        for gate in circuit.gates:
            if gate.qubits[0] in run:
                break
            run.append(gate.qubits[0])
        expected = new_zero_state(n)
        if run:
            literal_write_ry_prefix(expected.amplitudes, n, circuit.gates[:len(run)])
        for gate in circuit.gates[len(run):]:
            literal_apply_gate(expected, gate)
        state = apply_circuit(new_zero_state(n), circuit)
        assert np.array_equal(state.amplitudes.view(np.int64), expected.amplitudes.view(np.int64))


class TestKernelsMatchLiteralGates:
    """apply_circuit, its kernels and its |0...0> product prefix against the
    per-gate reference in conftest, amplitude for amplitude."""

    @given(_circuits(), st.booleans(), st.integers(min_value=0, max_value=2**32 - 1))
    @example(Circuit(3, (ry(2, 0.4), ry(0, -1.1), ry(1, 0.0))), True, 0)
    @example(Circuit(2, (ry(0, 0.4), ry(1, 0.7), ry(0, -0.2), h(1))), True, 0)
    @example(Circuit(3, (ry(1, 0.4), ry(1, 0.4))), True, 0)
    def test_random_circuits(self, circuit, from_zero, seed):
        dim = 1 << circuit.num_qubits
        if from_zero:
            amplitudes = new_zero_state(circuit.num_qubits).amplitudes
        else:
            amplitudes = random_normalized_amplitudes(np.random.default_rng(seed), dim)
        _assert_matches_literal_gates(amplitudes, circuit)

    @pytest.mark.parametrize("delta", [0.0, 0.0123])
    @pytest.mark.parametrize("n", range(1, 15))
    def test_gaussian_circuits(self, n, delta):
        beta = resolve_beta(n, 1.0, "heuristic")
        circuit = gaussian_circuit(n, beta, delta)
        _assert_matches_literal_gates(new_zero_state(n).amplitudes, circuit)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_exact_encoding_circuits(self, n):
        # the encoder's tree runs in the bit-reversed layout from n = 2 on
        target = target_distribution(GaussianSpec(decay_rate=1.0), n)
        circuit = encode_exact(target.amplitudes, n)
        assert _storage_bits(circuit.gates, 0, n) == list(range(n - 1, -1, -1))
        _assert_bits_match_literal_gates(new_zero_state(n).amplitudes, circuit)

    @given(_busy_circuits(), st.integers(min_value=0, max_value=2**32 - 1))
    @example(Circuit(3, (h(0), x(0), swap(0, 2), cphase(1, 0, -0.0), ry(0, -0.0))), 0)
    def test_layouts_other_than_the_identity(self, circuit, seed):
        n = circuit.num_qubits
        assert _storage_bits(circuit.gates, 0, n) != list(range(n))
        amplitudes = random_normalized_amplitudes(np.random.default_rng(seed), 1 << n)
        amplitudes[::3] *= -0.0  # signed zeros among the amplitudes
        _assert_bits_match_literal_gates(amplitudes, circuit)

    def test_state_other_than_zero_is_not_overwritten(self):
        # |0...0> up to a global phase is not |0...0>: the RY prefix must not
        # replace it with a product state
        amplitudes = new_zero_state(3).amplitudes * -1.0
        _assert_matches_literal_gates(amplitudes, Circuit(3, (ry(0, 0.3), ry(2, 1.2))))


class TestPeakMemory:
    def test_exponential_layer_allocates_under_a_hundredth_of_a_state(self):
        # the layer is written in place, through views of the state
        n = 18
        layer = build_exponential_layer(n, resolve_beta(n, 1.0, "heuristic"))
        state = new_zero_state(n)
        tracemalloc.start()
        try:
            apply_circuit(state, layer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * state.amplitudes.nbytes

    def test_gaussian_circuit_allocates_at_most_one_state(self):
        n = 14
        circuit = gaussian_circuit(n, resolve_beta(n, 1.0, "heuristic"), 0.0123)
        state = new_zero_state(n)
        tracemalloc.start()
        try:
            apply_circuit(state, circuit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= state.amplitudes.nbytes

    def test_exact_encoding_allocates_at_most_one_state(self):
        # the bit-reversed layout is entered and left in place, and every
        # temporary is a view of one scratch buffer of half a state
        n = 12
        target = target_distribution(GaussianSpec(decay_rate=1.0), n)
        circuit = encode_exact(target.amplitudes, n)
        state = new_zero_state(n)
        tracemalloc.start()
        try:
            apply_circuit(state, circuit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= state.amplitudes.nbytes


class TestInnerProductAndProbabilities:
    def test_self_inner_product_is_one(self):
        rng = np.random.default_rng(5)
        state = StateVector(3, random_normalized_amplitudes(rng, 8))
        assert inner_product(state, state) == pytest.approx(1.0)

    def test_orthogonal_basis_states(self):
        a = new_zero_state(1)
        b = new_zero_state(1)
        run_gate(b, x(0))
        assert inner_product(a, b) == 0.0

    def test_zero_with_plus_state(self):
        a = new_zero_state(1)
        b = new_zero_state(1)
        run_gate(b, h(0))
        assert inner_product(a, b) == pytest.approx(SQRT1_2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(new_zero_state(1), new_zero_state(2))

    def test_probabilities_of_zero_state(self):
        probs = probabilities(new_zero_state(2))
        np.testing.assert_array_equal(probs, [1.0, 0.0, 0.0, 0.0])

    def test_probabilities_of_uniform_superposition(self):
        state = new_zero_state(2)
        apply_circuit(state, Circuit(2, (h(0), h(1))))
        np.testing.assert_allclose(probabilities(state), [0.25] * 4, atol=1e-12)

    def test_probabilities_sum_to_one_after_circuit(self):
        state = simulate(build_qft(5))
        assert probabilities(state).sum() == pytest.approx(1.0, abs=1e-12)
