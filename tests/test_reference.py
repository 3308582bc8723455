"""Ground-truth oracles: grid, target Gaussian, product amplitudes, brute
DFT, and the closed-form output distribution."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import exponential_layer, literal_closed_form_probabilities, simulate
from gaussprep import (
    Circuit,
    GaussianSpec,
    PruningPolicy,
    build_gaussian_prep,
    closed_form_probabilities,
    cosine_table,
    dft_oracle,
    grid_points,
    probabilities,
    product_amplitudes_oracle,
    target_distribution,
)

# lambda=1, n=1 target: direct two-term evaluation e^{-4}/(e^{-4}+1), 1/(e^{-4}+1)
TARGET_L1_N1 = (0.017986209962091555, 0.9820137900379085)


class TestGaussianSpec:
    def test_negative_decay_rate_rejected(self):
        with pytest.raises(ValueError):
            GaussianSpec(decay_rate=-1.0)


@pytest.mark.parametrize("call, n", [
    (grid_points, 0),
    (cosine_table, 0),
    (lambda n: closed_form_probabilities(n, 1.0), 27),
    (lambda n: product_amplitudes_oracle(n, 1.0), 27),
    (lambda n: target_distribution(GaussianSpec(), n), -1),
], ids=["grid_points", "cosine_table", "closed_form", "product_oracle", "target"])
def test_qubit_count_outside_the_simulable_range_rejected(call, n):
    with pytest.raises(ValueError, match=rf"^qubit count {n} outside simulable range 1\.\.26$"):
        call(n)


class TestGridPoints:
    def test_two_qubits_default_domain(self):
        np.testing.assert_array_equal(grid_points(2), [-2.0, -1.0, 0.0, 1.0])

    def test_one_qubit_default_domain(self):
        np.testing.assert_array_equal(grid_points(1), [-2.0, 0.0])

    def test_eight_qubit_spacing(self):
        points = grid_points(8)
        assert points.size == 256
        np.testing.assert_allclose(np.diff(points), 0.015625, rtol=1e-12)
        assert points[0] == -2.0
        assert points[-1] == pytest.approx(2.0 - 0.015625)

    def test_bits_of_the_out_of_place_expression(self):
        for n in range(1, 21):
            literal = -2.0 + 4.0 / 2.0**n * np.arange(2**n)
            assert np.array_equal(grid_points(n).view(np.int64), literal.view(np.int64))

    def test_peak_memory_is_one_array(self):
        # the float64 arange, scaled and shifted in place: half a state of
        # 16 * 2**n bytes (1.016 states for the integer arange, its product
        # and its sum)
        tracemalloc.start()
        try:
            grid_points(18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.55 * (16 << 18)


def literal_target_probabilities(decay_rate: float, n: int) -> np.ndarray:
    """The target evaluated out of place, one new array per step."""
    points = grid_points(n)
    with np.errstate(over="ignore"):
        exponents = -decay_rate * points**2
    weights = np.exp(exponents - exponents.max())
    return weights / weights.sum()


class TestTargetDistribution:
    @pytest.mark.parametrize("decay_rate", [0.0, 0.6, 1.0, 2.0, 1e300])
    @pytest.mark.parametrize("n", range(1, 17))
    def test_in_place_build_has_the_literal_bits(self, n, decay_rate):
        probs = target_distribution(GaussianSpec(decay_rate=decay_rate), n).probabilities
        expected = literal_target_probabilities(decay_rate, n)
        np.testing.assert_array_equal(probs.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("n", [1, 6, 12])
    def test_amplitudes_are_the_square_roots_bit_for_bit(self, n):
        target = target_distribution(GaussianSpec(decay_rate=0.7), n)
        np.testing.assert_array_equal(target.amplitudes.view(np.int64),
                                      np.sqrt(target.probabilities).view(np.int64))

    def test_flat_limit_is_uniform(self):
        target = target_distribution(GaussianSpec(decay_rate=0.0), 2)
        np.testing.assert_allclose(target.probabilities, [0.25] * 4, atol=1e-15)

    def test_frozen_two_point_values(self):
        target = target_distribution(GaussianSpec(decay_rate=1.0), 1)
        np.testing.assert_allclose(target.probabilities, TARGET_L1_N1, atol=1e-15)

    def test_peak_at_zero_and_symmetry(self):
        target = target_distribution(GaussianSpec(decay_rate=1.0), 8)
        center = 128  # x = 0 on the default half-open grid
        assert int(np.argmax(target.probabilities)) == center
        for offset in (1, 5, 40, 100):
            assert target.probabilities[center - offset] == pytest.approx(
                target.probabilities[center + offset], rel=1e-12
            )

    def test_amplitudes_square_to_probabilities(self):
        target = target_distribution(GaussianSpec(decay_rate=3.0), 6)
        np.testing.assert_allclose(
            target.amplitudes**2, target.probabilities, atol=1e-15
        )
        assert np.all(target.amplitudes >= 0.0)

    def test_extreme_decay_rate_stays_normalized(self):
        # stable normalization: naive exponentials all underflow here
        target = target_distribution(GaussianSpec(decay_rate=500.0), 6)
        assert np.isfinite(target.probabilities).all()
        assert target.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        assert int(np.argmax(target.probabilities)) == 32

    @given(st.floats(min_value=0.01, max_value=20.0, allow_nan=False))
    def test_normalization_for_any_decay_rate(self, decay_rate):
        target = target_distribution(GaussianSpec(decay_rate=decay_rate), 5)
        assert target.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


class TestProductAmplitudesOracle:
    def test_single_qubit(self):
        alpha = product_amplitudes_oracle(1, 2.5)
        np.testing.assert_allclose(
            alpha, [math.cos(math.pi / 4), math.sin(math.pi / 4)], atol=1e-15
        )

    def test_two_qubit_amplitude_ratio(self):
        alpha = product_amplitudes_oracle(2, 2.5)
        assert alpha[3] / alpha[1] == pytest.approx(math.exp(-2.5), rel=1e-12)

    def test_normalized_and_positive(self):
        alpha = product_amplitudes_oracle(6, 1.0)
        assert np.all(alpha > 0.0)
        assert np.sum(alpha**2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 6, 10])
    def test_matches_simulated_exponential_layer(self, n):
        state = simulate(exponential_layer(n, 2.5))
        np.testing.assert_allclose(
            state.amplitudes, product_amplitudes_oracle(n, 2.5), atol=1e-12
        )


class TestDftOracle:
    def test_point_mass_maps_to_uniform(self):
        alpha = np.zeros(8)
        alpha[0] = 1.0
        np.testing.assert_allclose(dft_oracle(alpha), np.full(8, 1 / math.sqrt(8)), atol=1e-12)

    def test_uniform_maps_to_point_mass(self):
        alpha = np.full(8, 1 / math.sqrt(8))
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_allclose(dft_oracle(alpha), expected, atol=1e-12)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            dft_oracle(np.ones(6) / math.sqrt(6))

    def test_length_cap(self):
        with pytest.raises(ValueError):
            dft_oracle(np.zeros(2**17))

    def test_matches_simulated_qft_before_alignment(self):
        n = 8
        alpha = product_amplitudes_oracle(n, 2.5)
        from gaussprep import build_qft

        layer_plus_qft = Circuit(n, exponential_layer(n, 2.5).gates + build_qft(n).gates)
        state = simulate(layer_plus_qft)
        np.testing.assert_allclose(state.amplitudes, dft_oracle(alpha), atol=1e-10)


class TestClosedFormProbabilities:
    def test_single_qubit_edge_case(self):
        np.testing.assert_allclose(closed_form_probabilities(1, 2.5), [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(
            closed_form_probabilities(1, 2.5, msb_flipped=True), [0.0, 1.0], atol=1e-15
        )

    def test_matches_gate_level_simulation(self):
        n = 8
        state = simulate(build_gaussian_prep(n, GaussianSpec(decay_rate=1.0), PruningPolicy(0.0)))
        np.testing.assert_allclose(
            probabilities(state),
            closed_form_probabilities(n, 2.5, msb_flipped=True),
            atol=1e-10,
        )

    def test_edge_suppression_after_flip(self):
        for beta in (0.25, 1.0, 2.5):
            probs = closed_form_probabilities(10, beta, msb_flipped=True)
            assert abs(probs[0]) <= 1e-14

    @given(st.floats(min_value=0.05, max_value=5.0, allow_nan=False))
    def test_reflection_symmetry(self, beta):
        n = 6
        probs = closed_form_probabilities(n, beta, msb_flipped=True)
        m = np.arange(1, 2**n)
        np.testing.assert_allclose(probs[m], probs[(2**n - m) % 2**n], atol=1e-12)

    @pytest.fixture(scope="class")
    def shared_tables(self):
        """One read-only cosine table per n, shared by every case below: a
        call that wrote to its table would raise."""
        tables = {n: cosine_table(n) for n in range(1, 17)}
        for table in tables.values():
            table.flags.writeable = False
        return tables

    @pytest.mark.parametrize("msb_flipped", [False, True])
    @pytest.mark.parametrize("beta", [0.01, 0.3, 1.7, 9.9])
    def test_bit_identical_to_literal_evaluation(self, beta, msb_flipped, shared_tables):
        # n = 1..16 runs every short-period factor (periods 2 and 4) and
        # every row-broadcast one through both the built and the shared table
        for n in range(1, 17):
            literal = literal_closed_form_probabilities(n, beta, msb_flipped).view(np.int64)
            built = closed_form_probabilities(n, beta, msb_flipped)
            shared = closed_form_probabilities(n, beta, msb_flipped, table=shared_tables[n])
            np.testing.assert_array_equal(built.view(np.int64), literal, err_msg=f"n={n}")
            np.testing.assert_array_equal(shared.view(np.int64), literal, err_msg=f"n={n}")

    def test_table_of_the_wrong_size_rejected(self):
        with pytest.raises(ValueError, match=r"must have shape \(16,\), got \(8,\)"):
            closed_form_probabilities(4, 1.0, table=cosine_table(3))
        with pytest.raises(ValueError, match="qubit count"):
            closed_form_probabilities(0, 1.0, table=np.ones(1))

    @pytest.mark.parametrize("n", [1, 4, 8, 12])
    def test_normalization(self, n):
        probs = closed_form_probabilities(n, 1.7)
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)
