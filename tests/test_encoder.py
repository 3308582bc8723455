"""Exact amplitude-encoding baseline: correctness on arbitrary real
non-negative targets and the 7*2^n - 6n - 7 primitive-gate cost model."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import literal_encode_exact, simulate
from gaussprep import (
    GateKind,
    GaussianSpec,
    count_gates,
    encode_exact,
    magnitude_fidelity,
    target_distribution,
)


def encoder_total(n: int) -> int:
    return 7 * 2**n - 6 * n - 7


class TestValidation:
    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            encode_exact(np.array([1.0, 1.0]), 1)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            encode_exact(np.zeros(4), 2)

    def test_negative_amplitudes_rejected(self):
        with pytest.raises(ValueError):
            encode_exact(np.array([-0.6, 0.8]), 1)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            encode_exact(np.array([1.0, 0.0]), 2)

    def test_nonpositive_qubit_count_rejected(self):
        with pytest.raises(ValueError):
            encode_exact(np.array([1.0]), 0)

    @pytest.mark.parametrize("n", [17, 26, 40])
    def test_qubit_cap_comes_before_the_target(self, n):
        # the count is checked first: a 2**n target is never read or built on
        with pytest.raises(ValueError, match=rf"^exact encoding is capped at 16 qubits, got {n}$"):
            encode_exact(np.zeros(1), n)


class TestExactness:
    def test_point_mass_needs_no_rotation(self):
        target = np.zeros(8)
        target[0] = 1.0
        circuit = encode_exact(target, 3)
        ry_angles = [op.angle for op in circuit.gates if op.kind is GateKind.RY]
        assert ry_angles and all(angle == 0.0 for angle in ry_angles)
        state = simulate(circuit)
        assert abs(state.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_three_qubits(self):
        target = np.full(8, 1 / math.sqrt(8))
        state = simulate(encode_exact(target, 3))
        assert magnitude_fidelity(target, state) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_target_eight_qubits(self):
        target = target_distribution(GaussianSpec(decay_rate=1.0), 8).amplitudes
        state = simulate(encode_exact(target, 8))
        assert magnitude_fidelity(target, state) >= 1.0 - 1e-10

    def test_targets_with_empty_blocks(self):
        # interior zeros exercise the empty-subtree angle convention
        target = np.array([0.0, 0.6, 0.0, 0.8])
        state = simulate(encode_exact(target, 2))
        assert magnitude_fidelity(target, state) >= 1.0 - 1e-12

    @pytest.mark.parametrize("seed", range(50))
    def test_random_targets(self, seed):
        rng = np.random.default_rng(seed)
        n = 1 + seed % 8
        target = rng.random(2**n)
        target /= np.linalg.norm(target)
        state = simulate(encode_exact(target, n))
        assert magnitude_fidelity(target, state) >= 1.0 - 1e-10


class TestCostModel:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_total_matches_closed_form(self, n):
        target = np.full(2**n, 1 / math.sqrt(2**n))
        inventory = count_gates(encode_exact(target, n))
        assert inventory.total == encoder_total(n)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_gates_equal_the_per_gate_construction(self, n):
        rng = np.random.default_rng(n)
        target = rng.random(2**n)
        target[rng.random(2**n) < 0.25] = 0.0  # empty subtrees too
        target[0] = 1.0
        target /= np.linalg.norm(target)
        circuit = encode_exact(target, n)
        assert circuit.gates == literal_encode_exact(target, n).gates
        assert len(circuit) == encoder_total(n)
        # one shared CPHASE object per (control, target) pair
        cphases = {id(op) for op in circuit.gates if op.kind is GateKind.CPHASE}
        assert len(cphases) == n * (n - 1) // 2

    def test_cost_at_least_doubles_per_qubit(self):
        for n in range(4, 10):
            assert encoder_total(n + 1) >= 2 * encoder_total(n)

    def test_only_ry_h_cphase_primitives(self):
        target = np.full(16, 0.25)
        circuit = encode_exact(target, 4)
        kinds = {op.kind for op in circuit.gates}
        assert kinds <= {GateKind.RY, GateKind.H, GateKind.CPHASE}
        cphase_angles = {op.angle for op in circuit.gates if op.kind is GateKind.CPHASE}
        assert cphase_angles == {math.pi}

    def test_inventory_counts_by_kind(self):
        target = np.full(8, 1 / math.sqrt(8))
        inventory = count_gates(encode_exact(target, 3))
        # levels 0..2 contribute 1, 2, 4 RYs and 0, 2, 6 CNOTs (3 gates each)
        assert inventory.ry == 7
        assert inventory.cphase == 8
        assert inventory.h == 16
        assert inventory.x == 0
        assert inventory.swap == 0
