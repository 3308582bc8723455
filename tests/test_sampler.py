"""Measurement sampling: seeded reproducibility, histogram validation, and
convergence of empirical frequencies toward the exact distribution."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from gaussprep import ShotHistogram, run_prepare, sample_counts, tv_distance


@pytest.fixture(scope="module")
def prepared_five_qubits():
    return run_prepare(5, decay_rate=1.0, delta=0.0123, beta_mode="heuristic")


class TestShotHistogram:
    def test_counts_must_sum_to_shots(self):
        with pytest.raises(ValueError):
            ShotHistogram(num_qubits=1, shots=10, seed=0, counts=np.array([4, 5]))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ShotHistogram(num_qubits=1, shots=2, seed=0, counts=np.array([-1, 3]))

    def test_shots_must_be_positive(self):
        with pytest.raises(ValueError):
            ShotHistogram(num_qubits=1, shots=0, seed=0, counts=np.array([0, 0]))

    def test_counts_shape_must_match_qubits(self):
        with pytest.raises(ValueError):
            ShotHistogram(num_qubits=2, shots=3, seed=0, counts=np.array([1, 2]))

    def test_frequencies_sum_to_one(self):
        histogram = ShotHistogram(num_qubits=2, shots=10, seed=0,
                                  counts=np.array([1, 2, 3, 4]))
        assert histogram.frequencies.sum() == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(histogram.frequencies, [0.1, 0.2, 0.3, 0.4])


class TestSampleCounts:
    def test_same_seed_reproduces_exactly(self):
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        a = sample_counts(probs, shots=10_000, seed=7)
        b = sample_counts(probs, shots=10_000, seed=7)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_different_seeds_differ(self):
        probs = np.array([0.25, 0.25, 0.25, 0.25])
        a = sample_counts(probs, shots=10_000, seed=1)
        b = sample_counts(probs, shots=10_000, seed=2)
        assert not np.array_equal(a.counts, b.counts)

    def test_uniform_four_million_shots(self):
        probs = np.full(4, 0.25)
        histogram = sample_counts(probs, shots=4_000_000, seed=7)
        np.testing.assert_allclose(histogram.counts, 1_000_000, rtol=5e-3)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            sample_counts(np.array([0.5, 0.4]), shots=10, seed=0)

    def test_negative_probabilities_rejected(self):
        with pytest.raises(ValueError):
            sample_counts(np.array([-0.5, 1.5]), shots=10, seed=0)

    def test_negative_seed_rejected_by_name(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            sample_counts(np.array([0.5, 0.5]), shots=10, seed=-1)
        assert sample_counts(np.array([0.5, 0.5]), shots=10, seed=0).seed == 0

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            sample_counts(np.full(3, 1 / 3), shots=10, seed=0)

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            sample_counts(np.array([0.5, 0.5]), shots=0, seed=0)


    def test_allocates_two_shot_arrays(self):
        # the draws and their indices; the clamp and the int64 counts are
        # done in place (three shot arrays with a clamped copy)
        probs = np.full(16, 1.0 / 16)
        shots = 1 << 20
        tracemalloc.start()
        try:
            sample_counts(probs, shots, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * 8 * shots


class TestTvDistance:
    def test_zero_on_equal(self):
        p = np.array([0.3, 0.7])
        assert tv_distance(p, p) == 0.0

    def test_one_on_disjoint_support(self):
        assert tv_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_half_between_point_mass_and_uniform(self):
        assert tv_distance(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(0.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tv_distance(np.array([1.0]), np.array([0.5, 0.5]))

    def test_same_bits_as_the_two_temporary_expression(self):
        rng = np.random.default_rng(2)
        p, q = rng.random(1 << 12), rng.random(1 << 12)
        assert tv_distance(p, q).hex() == (0.5 * float(np.sum(np.abs(p - q)))).hex()

    def test_allocates_one_temporary(self):
        rng = np.random.default_rng(2)
        p, q = rng.random(1 << 16), rng.random(1 << 16)
        tracemalloc.start()
        try:
            tv_distance(p, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * p.nbytes


class TestConvergence:
    def test_prepared_distribution_at_fifty_thousand_shots(self, prepared_five_qubits):
        probs = prepared_five_qubits.prepared_probabilities
        histogram = sample_counts(probs, shots=50_000, seed=1234)
        assert tv_distance(histogram.frequencies, probs) <= 0.02

    def test_tv_shrinks_as_shots_grow(self, prepared_five_qubits):
        probs = prepared_five_qubits.prepared_probabilities
        means = []
        for shots in (1_000, 10_000, 100_000, 1_000_000):
            distances = [
                tv_distance(sample_counts(probs, shots=shots, seed=seed).frequencies, probs)
                for seed in range(10)
            ]
            means.append(float(np.mean(distances)))
        assert means[0] > means[1] > means[2] > means[3]
