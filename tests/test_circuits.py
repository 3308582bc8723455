"""Circuit builders, pruning policy, and gate accounting."""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import assert_checked_gates, exponential_layer
from gaussprep import (
    Circuit,
    GateKind,
    GateOp,
    GaussianSpec,
    PruningPolicy,
    build_gaussian_prep,
    build_qft,
    count_gates,
    cphase,
    full_cphase_count,
    h,
    heuristic_beta,
    kept_cphase_count,
    pruned_cphase_count,
    resolve_beta,
    rotation_angle,
    run_prepare,
    ry,
    swap,
    x,
)
from gaussprep.circuits import HEURISTIC_FALLBACK_BETA, MAX_SYNTH_QUBITS, prep_gate_count
from gaussprep.harness import gaussian_circuit

ROTATION_J1_BETA25 = 0.16380275785874288  # 2*atan(exp(-2.5)), frozen scalar oracle


class TestGateOp:
    def test_single_qubit_kinds_take_one_qubit(self):
        with pytest.raises(ValueError):
            GateOp(GateKind.RY, (0, 1), 0.1)

    def test_two_qubit_kinds_require_distinct_qubits(self):
        with pytest.raises(ValueError):
            cphase(2, 2, 0.5)
        with pytest.raises(ValueError):
            swap(1, 1)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            h(-1)

    def test_angle_required_only_for_rotations(self):
        with pytest.raises(ValueError):
            GateOp(GateKind.RY, (0,), None)
        with pytest.raises(ValueError):
            GateOp(GateKind.H, (0,), 0.5)

    def test_non_finite_angle_rejected(self):
        with pytest.raises(ValueError):
            ry(0, math.nan)
        with pytest.raises(ValueError):
            cphase(0, 1, math.inf)

    @pytest.mark.parametrize("kind, qubits, angle, message", [
        (GateKind.RY, (0, 1), 0.1, r"^ry takes exactly 1 qubit\(s\), got \(0, 1\)$"),
        (GateKind.SWAP, (np.int64(3),), None, r"^swap takes exactly 2 qubit\(s\), got \(3,\)$"),
        (GateKind.CPHASE, (-1, -1), 0.5, r"^negative qubit index in \(-1, -1\)$"),
        (GateKind.SWAP, (1, 1), None, r"^swap qubits must be distinct: \(1, 1\)$"),
        (GateKind.CPHASE, (0, 1), None, r"^cphase requires an angle$"),
        (GateKind.RY, (0,), -math.inf, r"^non-finite angle -inf$"),
        (GateKind.H, (0,), 0.5, r"^h does not take an angle$"),
    ])
    def test_messages(self, kind, qubits, angle, message):
        with pytest.raises(ValueError, match=message):
            GateOp(kind, qubits, angle)

    @pytest.mark.parametrize("kind, angle", [("h", None), ("ry", 0.1), (None, None)])
    def test_kind_must_be_a_gate_kind(self, kind, angle):
        # "h" == GateKind.H, so only the type check tells the two apart
        with pytest.raises(ValueError, match=r"^gate kind must be a GateKind, got "):
            GateOp(kind, (0,), angle)

    def test_immutable(self):
        gate = cphase(1, 0, 0.5)
        for name in ("kind", "qubits", "angle", "other"):
            with pytest.raises(AttributeError):
                setattr(gate, name, None)
            with pytest.raises(AttributeError):
                delattr(gate, name)
        assert gate == cphase(1, 0, 0.5)

    def test_equal_gates_compare_and_hash_equal(self):
        assert cphase(1, 0, 0.5) == GateOp(GateKind.CPHASE, [1, 0], 0.5)
        assert hash(cphase(1, 0, 0.5)) == hash(GateOp(GateKind.CPHASE, [1, 0], 0.5))
        assert hash(h(3)) == hash((GateKind.H, (3,), None))
        assert cphase(1, 0, 0.5) != cphase(0, 1, 0.5)
        assert cphase(1, 0, 0.5) != cphase(1, 0, 0.25)
        assert h(0) != x(0)
        assert h(0) != (GateKind.H, (0,), None)
        assert len({h(0), h(0), x(0)}) == 2

    def test_qubits_normalised_to_int(self):
        gate = h(np.int64(3))
        assert gate.qubits == (3,)
        assert type(gate.qubits) is tuple and type(gate.qubits[0]) is int

    def test_angle_normalised_to_float(self):
        gate = ry(0, np.float32(0.5))
        assert type(gate.angle) is float and gate.angle == 0.5
        assert type(cphase(0, 1, 1).angle) is float

    def test_copies_are_rebuilt_through_the_constructor(self):
        gate = cphase(2, 0, 0.25)
        assert pickle.loads(pickle.dumps(gate)) == gate
        assert copy.copy(gate) == gate and copy.deepcopy(gate) == gate

    def test_repr(self):
        assert repr(h(2)) == "GateOp(kind=<GateKind.H: 'h'>, qubits=(2,), angle=None)"

    def test_replace_goes_through_the_constructor(self):
        gate = cphase(1, 0, 0.5)
        with pytest.raises(ValueError, match=r"^cphase qubits must be distinct: \(1, 1\)$"):
            dataclasses.replace(gate, qubits=(1, 1))
        assert dataclasses.replace(gate, angle=np.float32(0.25)) == cphase(1, 0, 0.25)

    def test_slotted(self):
        assert not hasattr(h(0), "__dict__")


class TestCircuit:
    def test_empty_register_refused(self):
        with pytest.raises(ValueError, match=r"^num_qubits must be >= 1, got 0$"):
            Circuit(0, ())

    def test_gate_indices_must_fit_register(self):
        with pytest.raises(ValueError, match=r"addresses qubit >= num_qubits=2$"):
            Circuit(2, (h(2),))

    def test_first_gate_out_of_range_is_named(self):
        with pytest.raises(ValueError, match=r"^gate GateOp\(kind=<GateKind.SWAP: 'swap'>"):
            Circuit(3, (h(0), cphase(2, 1, 0.5), swap(3, 0), h(4)))
        assert len(Circuit(3, (h(0), cphase(2, 1, 0.5), swap(2, 0)))) == 3


class TestRotationAngle:
    def test_j_zero_is_half_pi_for_any_beta(self):
        for beta in (0.1, 1.0, 2.5, 100.0):
            assert rotation_angle(0, beta) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_frozen_value_j1_beta25(self):
        assert rotation_angle(1, 2.5) == pytest.approx(ROTATION_J1_BETA25, abs=1e-15)

    def test_deep_qubits_are_negligible(self):
        assert rotation_angle(3, 2.5) < 1e-9

    def test_result_in_half_open_interval(self):
        for j in range(8):
            angle = rotation_angle(j, 1.0)
            assert 0.0 < angle <= math.pi / 2

    def test_strictly_decreasing_in_j(self):
        angles = [rotation_angle(j, 2.5) for j in range(13)]
        assert all(a > b for a, b in zip(angles, angles[1:]))

    @given(st.integers(min_value=1, max_value=10))
    def test_strictly_decreasing_in_beta_for_positive_j(self, j):
        # j = 0 is excluded: the angle there is pi/2 independent of beta
        betas = [0.25, 1.0, 2.5, 4.0]
        angles = [rotation_angle(j, b) for b in betas]
        assert all(a > b for a, b in zip(angles, angles[1:]))

    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_nonpositive_beta_rejected(self, beta):
        with pytest.raises(ValueError):
            rotation_angle(1, beta)

    def test_negative_j_rejected(self):
        with pytest.raises(ValueError):
            rotation_angle(-1, 1.0)

    @pytest.mark.parametrize("beta", [math.inf, math.nan, -math.inf])
    def test_non_finite_beta_is_named(self, beta):
        # inf once gave 2*atan(exp(-inf * 0.0)) = nan at j = 0
        with pytest.raises(ValueError, match=rf"^beta must be finite and > 0, got {beta}$"):
            rotation_angle(0, beta)


class TestBetaFromLambda:
    # the width rule beta = 5 / (2 * lambda) for a positive rate, now inside heuristic_beta
    def test_unit_decay_rate(self):
        assert heuristic_beta(1.0) == 2.5

    def test_reciprocal_scaling(self):
        assert heuristic_beta(2.5) == pytest.approx(1.0)


class TestHeuristicBeta:
    def test_follows_beta_from_lambda(self):
        for decay_rate in (0.3, 1.0, 7.0, 1e-3):
            assert heuristic_beta(decay_rate) == 5.0 / (2.0 * decay_rate)

    def test_negative_or_nan_rate_rejected(self):
        for decay_rate in (-1.0, -1e-300, math.nan):
            with pytest.raises(ValueError, match=rf"^decay_rate must be >= 0, got {decay_rate}$"):
                heuristic_beta(decay_rate)

    def test_flat_target_falls_back(self):
        assert heuristic_beta(0.0) == HEURISTIC_FALLBACK_BETA == 2.5

    def test_overflow_and_underflow_refused_by_rate(self):
        with pytest.raises(ValueError, match=r"^lambda = 1e-320 is too small: .*overflows to inf$"):
            heuristic_beta(1e-320)
        with pytest.raises(ValueError, match=r"^lambda = 1e\+308 is too large: .*underflows to 0\.0$"):
            heuristic_beta(1e308)


class TestExponentialLayer:
    """The first n gates of the Gaussian circuit."""

    def test_single_qubit_layer(self):
        circuit = build_gaussian_prep(1, GaussianSpec(), beta_override=2.5)
        assert circuit.gates[:1] == (ry(0, math.pi / 2),)

    def test_one_rotation_per_qubit_with_decreasing_angles(self):
        layer = build_gaussian_prep(5, GaussianSpec(), beta_override=2.5).gates[:5]
        assert all(g.kind is GateKind.RY for g in layer)
        assert [g.qubits[0] for g in layer] == list(range(5))
        angles = [g.angle for g in layer]
        assert all(a > b for a, b in zip(angles, angles[1:]))

    def test_infinite_beta_is_named(self):
        with pytest.raises(ValueError, match=r"^beta must be finite and > 0, got inf$"):
            rotation_angle(0, math.inf)


class TestPruningPolicy:
    def test_zero_delta_keeps_everything(self):
        policy = PruningPolicy(0.0)
        assert kept_cphase_count(40, policy) == full_cphase_count(40)
        assert policy.keeps(1e-300)

    def test_boundary_angle_is_kept(self):
        # strict comparison: phi = delta survives, phi just below is pruned
        policy = PruningPolicy(math.pi / 2)
        assert policy.keeps(math.pi / 2)
        assert not policy.keeps(math.pi / 2 * 0.999999)
        # only the n - 1 distance-1 gates survive
        assert kept_cphase_count(5, policy) == 4
        assert kept_cphase_count(5, PruningPolicy(math.pi / 2 * 1.000001)) == 0

    def test_default_threshold_reaches_distance_seven(self):
        policy = PruningPolicy(0.0123)
        # n = 8 keeps distances 1..7, i.e. everything; n = 9 loses the one
        # distance-8 gate
        assert kept_cphase_count(8, policy) == full_cphase_count(8)
        assert kept_cphase_count(9, policy) == full_cphase_count(9) - 1

    def test_subnormal_threshold_reaches_past_distance_1024(self):
        # pi * 2**-1074 rounds to the subnormal 1.5e-323; pi * 2**-1075 to 1e-323
        policy = PruningPolicy(1.5e-323)
        assert kept_cphase_count(1075, policy) == full_cphase_count(1075)
        assert kept_cphase_count(1076, policy) == full_cphase_count(1076) - 1

    def test_negative_delta_rejected(self):
        for delta in (-0.1, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError,
                               match=rf"^pruning threshold must be finite and >= 0, got {delta}$"):
                PruningPolicy(delta)


class TestBuildQft:
    def test_single_qubit_qft_is_hadamard(self):
        assert build_qft(1).gates == (h(0),)

    def test_three_qubit_inventory(self):
        inventory = count_gates(build_qft(3))
        assert (inventory.h, inventory.cphase, inventory.swap) == (3, 3, 1)

    def test_full_cphase_count_n16(self):
        assert count_gates(build_qft(16)).cphase == 120

    def test_pruned_counts_n16(self):
        policy = PruningPolicy(0.0123)
        inventory = count_gates(build_qft(16, policy))
        assert inventory.cphase == 84
        assert pruned_cphase_count(16, policy) == 36
        assert sum(16 - d for d in range(1, 8)) == 84

    def test_cphase_angles_in_open_interval(self):
        for gate in build_qft(10).gates:
            if gate.kind is GateKind.CPHASE:
                assert 0.0 < gate.angle < 2 * math.pi

    def test_severe_threshold_prunes_all_cphase(self):
        circuit = build_qft(4, PruningPolicy(math.pi))
        kinds = [g.kind for g in circuit.gates]
        assert GateKind.CPHASE not in kinds
        assert kinds.count(GateKind.H) == 4

    def test_synthesis_cap(self):
        with pytest.raises(ValueError):
            build_qft(MAX_SYNTH_QUBITS + 1)

    def test_one_angle_object_per_distance(self):
        n = 40
        angles = [g.angle for g in build_qft(n).gates if g.kind is GateKind.CPHASE]
        assert len(angles) == full_cphase_count(n)
        assert len({id(angle) for angle in angles}) == n - 1

    def test_retained_bytes_per_gate(self):
        # The slotted record and the shared per-distance angles keep a
        # 131,584-gate circuit at about 128 B per gate; a dataclass GateOp
        # with a float per gate took 192.
        tracemalloc.start()
        try:
            circuit = build_qft(512)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained / len(circuit) <= 150

    def test_kept_count_at_the_synthesis_cap(self):
        # distances past 1023 neither overflow nor get pruned at delta = 0
        n = MAX_SYNTH_QUBITS
        assert kept_cphase_count(n, PruningPolicy(0.0)) == full_cphase_count(n)

    @given(
        st.integers(min_value=1, max_value=16),
        st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
    )
    def test_pruned_circuit_is_full_circuit_minus_small_cphases(self, n, delta):
        full = build_qft(n)
        pruned = build_qft(n, PruningPolicy(delta))
        expected = tuple(
            g
            for g in full.gates
            if g.kind is not GateKind.CPHASE or g.angle >= delta
        )
        assert pruned.gates == expected

    @given(
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
    )
    def test_kept_count_is_the_built_count(self, n, delta):
        policy = PruningPolicy(delta)
        assert kept_cphase_count(n, policy) == count_gates(build_qft(n, policy)).cphase

    @given(
        st.integers(min_value=2, max_value=20),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_inventory_monotone_in_delta(self, n, d_small, d_large):
        lo, hi = sorted((d_small, d_large))
        assert kept_cphase_count(n, PruningPolicy(hi)) <= kept_cphase_count(
            n, PruningPolicy(lo)
        )

    def test_near_linear_scaling_for_fixed_threshold(self):
        policy = PruningPolicy(0.0123)
        for n in range(9, 64):
            kept = kept_cphase_count(n, policy)
            assert kept == sum(n - d for d in range(1, 8))
            assert kept <= n * 7
        # constant increment once n exceeds the retained distance range
        increments = [
            kept_cphase_count(n + 1, policy) - kept_cphase_count(n, policy)
            for n in range(9, 30)
        ]
        assert set(increments) == {7}


class TestBuildGaussianPrep:
    def test_single_qubit_structure(self):
        circuit = build_gaussian_prep(1, GaussianSpec(decay_rate=1.0))
        assert circuit.gates == (ry(0, math.pi / 2), h(0), x(0))

    def test_five_qubit_structure(self):
        circuit = build_gaussian_prep(5, GaussianSpec(decay_rate=1.0), PruningPolicy(0.01))
        assert all(g.kind is GateKind.RY for g in circuit.gates[:5])
        assert circuit.gates[-1] == x(4)
        inventory = count_gates(circuit)
        assert inventory.ry == 5
        assert inventory.h == 5
        assert inventory.swap == 2
        assert inventory.x == 1

    def test_is_concatenation_of_the_three_blocks(self):
        spec = GaussianSpec(decay_rate=1.0)
        for delta in (0.0, 0.0123, 0.1):
            policy = PruningPolicy(delta)
            for n in range(1, 65):
                circuit = build_gaussian_prep(n, spec, policy)
                expected = (exponential_layer(n, 2.5).gates + build_qft(n, policy).gates
                            + (x(n - 1),))
                assert circuit.gates == expected, (n, delta)

    @pytest.mark.parametrize("decay_rate", [0.0, 0.3, 1.0, 2.0])
    def test_default_beta_is_the_heuristic_of_resolve_beta(self, decay_rate):
        # a flat target included: both paths fall back to the same beta
        beta = resolve_beta(5, decay_rate, "heuristic")
        circuit = build_gaussian_prep(5, GaussianSpec(decay_rate=decay_rate), PruningPolicy(0.1))
        assert circuit.gates == gaussian_circuit(5, beta, 0.1).gates

    @pytest.mark.parametrize("decay_rate, message", [(1e-320, "too small"), (1e308, "too large")])
    def test_unusable_heuristic_beta_names_the_rate(self, decay_rate, message):
        with pytest.raises(ValueError, match=re.escape(f"lambda = {decay_rate!r} is {message}: ")):
            build_gaussian_prep(4, GaussianSpec(decay_rate=decay_rate))

    def test_beta_override_wins(self):
        circuit = build_gaussian_prep(2, GaussianSpec(decay_rate=1.0), beta_override=0.7)
        assert circuit.gates[1].angle == pytest.approx(rotation_angle(1, 0.7))

    def test_infinite_beta_override_is_named(self):
        with pytest.raises(ValueError, match=r"^beta must be finite and > 0, got inf$"):
            build_gaussian_prep(3, GaussianSpec(), PruningPolicy(0.0), beta_override=math.inf)


# Betas from one whose angles all stay near pi/2 to one whose angles
# underflow to 0 from j = 1 on.
TRUSTED_BETAS = (1e-300, 1e-3, 0.3, 2.5, 1e3, 1e300)


class TestBuildersMakeCheckedGates:
    """The builders construct gates without the constructor's checks; every
    gate they make must be one the checking constructor makes from the same
    arguments."""

    def test_exponential_layer(self):
        # the layer is the first n gates of the preparation circuit
        for n in range(1, 41):
            for beta in TRUSTED_BETAS:
                circuit = build_gaussian_prep(n, GaussianSpec(), beta_override=beta)
                layer = Circuit(n, circuit.gates[:n])
                assert_checked_gates(layer)
                assert layer.gates == exponential_layer(n, beta).gates

    def test_qft_pruned_at_every_distance(self):
        for n in range(1, 41):
            # 0 keeps every distance; 1.5 * pi / 2**d prunes distance d first
            for delta in [0.0] + [1.5 * math.ldexp(math.pi, -d) for d in range(1, n)]:
                assert_checked_gates(build_qft(n, PruningPolicy(delta)))

    def test_gaussian_prep(self):
        for n in range(1, 41):
            for beta in (None,) + TRUSTED_BETAS:
                for delta in (0.0, 0.0123, math.ldexp(math.pi, -(n // 2))):
                    policy = PruningPolicy(delta)
                    circuit = build_gaussian_prep(n, GaussianSpec(), policy, beta_override=beta)
                    assert_checked_gates(circuit)
                    assert len(circuit) == prep_gate_count(n, policy)

    def test_numpy_qubit_count(self):
        # qubit indices derived from a numpy count are still Python ints
        n = np.int64(6)
        assert_checked_gates(build_qft(n))
        circuit = build_gaussian_prep(n, GaussianSpec())
        assert_checked_gates(circuit)
        assert type(circuit.num_qubits) is int

    def test_no_gate_goes_through_the_checking_constructor(self, monkeypatch):
        calls = []
        checked_init = GateOp.__init__

        def counting_init(self, *args, **kwargs):
            calls.append(args)
            checked_init(self, *args, **kwargs)

        monkeypatch.setattr(GateOp, "__init__", counting_init)
        h(0)
        assert len(calls) == 1  # a public construction is counted
        calls.clear()
        circuit = build_gaussian_prep(64, GaussianSpec(), PruningPolicy(0.0))
        assert len(circuit) == prep_gate_count(64, PruningPolicy(0.0)) == 2 * 64 + 2016 + 32 + 1
        assert calls == []


class TestCountGates:
    def test_empty_circuit(self):
        inventory = count_gates(Circuit(3, ()))
        assert inventory.total == 0
        assert inventory.as_dict()["cphase"] == 0

    def test_qft8_cphase_count(self):
        assert count_gates(build_qft(8)).cphase == 28

    def test_gaussian_prep_n12_pruned_inventory(self):
        policy = PruningPolicy(0.0123)
        circuit = build_gaussian_prep(12, GaussianSpec(decay_rate=1.0), policy)
        inventory = count_gates(circuit)
        assert inventory.ry == 12
        assert inventory.x == 1
        assert inventory.swap == 6
        # retained distances 1..7: sum(12 - d) = 56
        assert inventory.cphase == 56
        assert inventory.cphase == sum(12 - d for d in range(1, 8))
        assert run_prepare(12, delta=0.0123).num_pruned_cphase == full_cphase_count(12) - 56
        assert inventory.total == 12 + 1 + 6 + 56 + 12  # + one H per qubit

    def test_total_is_sum_of_kinds(self):
        inventory = count_gates(build_qft(6))
        assert inventory.total == (
            inventory.ry + inventory.h + inventory.x + inventory.cphase + inventory.swap
        )
