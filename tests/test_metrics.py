"""Accuracy metrics: the state scorer (amplitude MSE, phase-optimized MSE,
KL divergence, magnitude and phase-sensitive fidelity), KL divergence,
smoothing, the fidelity family, and the analytic pruning fidelity bound."""

from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gaussprep import (
    GaussianSpec,
    StateVector,
    TargetDistribution,
    distribution_fidelity,
    apply_circuit,
    fidelity,
    kl_divergence,
    kl_divergence_from,
    laplace_smooth,
    magnitude_fidelity,
    new_zero_state,
    probabilities,
    pruning_fidelity_bound,
    score_state,
    target_distribution,
)
from gaussprep.harness import gaussian_circuit

# pruning_fidelity_bound at (n=16, delta=0.0123), written out by hand:
# loose 1 - (16*0.0123)^2/4, tight 1 - (15*0.0123)^2/4.
BOUND_16_LOOSE = 0.990317
BOUND_16_TIGHT = 0.991490


def plus_state() -> StateVector:
    state = new_zero_state(1)
    state.amplitudes[:] = [1 / math.sqrt(2), 1 / math.sqrt(2)]
    return state


def target_of(probabilities) -> TargetDistribution:
    """A target with the given probabilities."""
    return TargetDistribution(probabilities=np.asarray(probabilities, dtype=np.float64))


def state_of(amplitudes) -> StateVector:
    amplitudes = np.asarray(amplitudes, dtype=np.complex128)
    return StateVector(amplitudes.size.bit_length() - 1, amplitudes)


def literal_mse(target_amplitudes, state):
    """The amplitude MSE as its own function, taking |a| afresh."""
    return float(np.mean((target_amplitudes - np.abs(state.amplitudes)) ** 2))


def literal_mse_phase_optimized(target_amplitudes, state):
    """The phase-optimized MSE as its own function, on a complex copy of the
    target."""
    amps = state.amplitudes
    overlap = abs(np.vdot(target_amplitudes.astype(np.complex128), amps))
    total = float(np.sum(target_amplitudes**2) + np.sum(np.abs(amps) ** 2) - 2.0 * overlap)
    return max(total, 0.0) / target_amplitudes.shape[0]


class TestMse:
    def test_exact_match_is_zero(self):
        assert score_state(target_of([0.36, 0.64]), state_of([0.6, 0.8])).mse_amplitude == 0.0

    def test_orthogonal_point_masses(self):
        # target (1,0) against |1>: both entries differ by 1, mean is 1
        assert score_state(target_of([1.0, 0.0]), state_of([0.0, 1.0])).mse_amplitude == pytest.approx(1.0)

    def test_compares_magnitudes_not_phases(self):
        score = score_state(target_of([0.36, 0.64]), state_of([0.6, -0.8]))
        assert score.mse_amplitude == pytest.approx(0.0, abs=1e-15)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            score_state(target_of([1.0, 0.0, 0.0]), new_zero_state(1))


class TestMsePhaseOptimized:
    def test_global_phase_removed(self):
        target = np.array([0.6, 0.8])
        score = score_state(target_of(target**2), state_of(np.exp(0.7j) * target))
        assert score.mse_phase_optimized == pytest.approx(0.0, abs=1e-15)

    def test_relative_phase_still_counts(self):
        score = score_state(target_of([0.36, 0.64]), state_of([0.6, -0.8]))
        assert score.mse_phase_optimized > 0.1

    def test_never_exceeds_plain_complex_mse(self):
        rng = np.random.default_rng(11)
        target = rng.random(8)
        target /= np.linalg.norm(target)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = state_of(amps / np.linalg.norm(amps))
        plain = float(np.mean(np.abs(target - state.amplitudes) ** 2))
        assert score_state(target_of(target**2), state).mse_phase_optimized <= plain + 1e-15


def same_bits(a: float, b: float) -> bool:
    # float.hex tells 0.0 from -0.0: equal hex strings are equal bits
    return float(a).hex() == float(b).hex()


def gaussian_state(n: int, beta: float, delta: float) -> StateVector:
    state = new_zero_state(n)
    apply_circuit(state, gaussian_circuit(n, beta, delta))
    return state


class TestScoreState:
    """Every field of the one-pass scorer has the bits of the function that
    computes it on its own."""

    CASES = [(n, beta, delta) for n in (1, 2, 5, 9, 12)
             for beta, delta in ((2.5, 0.0), (0.7, 0.0123), (1.47, 0.1))]

    @pytest.mark.parametrize("n, beta, delta", CASES)
    def test_gaussian_states_bit_identical(self, n, beta, delta):
        target = target_distribution(GaussianSpec(decay_rate=1.0), n)
        state = gaussian_state(n, beta, delta)
        amplitudes = state.amplitudes.copy()
        score = score_state(target, state)
        expected_probs = probabilities(state)
        assert score.probabilities.dtype == expected_probs.dtype
        np.testing.assert_array_equal(score.probabilities.view(np.int64),
                                      expected_probs.view(np.int64))
        assert same_bits(score.fidelity, magnitude_fidelity(target.amplitudes, state))
        target_state = StateVector(n, target.amplitudes.astype(np.complex128))
        assert same_bits(score.fidelity_phase_sensitive, fidelity(target_state, state))
        assert same_bits(score.kl_divergence,
                         kl_divergence(expected_probs, target.probabilities))
        assert same_bits(score.mse_amplitude, literal_mse(target.amplitudes, state))
        assert same_bits(score.mse_phase_optimized,
                         literal_mse_phase_optimized(target.amplitudes, state))
        # the scorer reads the state and leaves it as it was
        np.testing.assert_array_equal(state.amplitudes, amplitudes)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_complex_states_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        target_amplitudes = rng.random(16)
        target_amplitudes /= np.linalg.norm(target_amplitudes)
        target = target_of(target_amplitudes**2)
        target_amplitudes = target.amplitudes
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        state = state_of(amps / np.linalg.norm(amps))
        score = score_state(target, state)
        np.testing.assert_array_equal(score.probabilities, probabilities(state))
        assert same_bits(score.fidelity, magnitude_fidelity(target_amplitudes, state))
        assert same_bits(score.fidelity_phase_sensitive,
                         fidelity(state_of(target_amplitudes), state))
        assert same_bits(score.mse_amplitude, literal_mse(target_amplitudes, state))
        assert same_bits(score.mse_phase_optimized,
                         literal_mse_phase_optimized(target_amplitudes, state))

    def test_kl_runs_from_prepared_to_target(self):
        # the prepared state has no mass on index 1; the target has: finite
        score = score_state(target_of([0.36, 0.64]), state_of([1.0, 0.0]))
        assert score.kl_divergence == pytest.approx(-math.log(0.36), rel=1e-12)
        assert score_state(target_of([1.0, 0.0]), state_of([0.6, 0.8])).kl_divergence == math.inf


class TestKlDivergence:
    def test_zero_on_equal(self):
        p = np.array([0.3, 0.7])
        assert kl_divergence(p, p) == 0.0

    def test_point_mass_against_uniform(self):
        value = kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        assert value == pytest.approx(math.log(2.0), rel=1e-12)

    def test_infinite_when_support_escapes(self):
        assert kl_divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == math.inf

    def test_zero_times_log_zero_is_zero(self):
        # p has a zero where q does too; that term must drop out, not NaN
        p = np.array([0.5, 0.5, 0.0])
        q = np.array([0.25, 0.75, 0.0])
        assert math.isfinite(kl_divergence(p, q))

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            kl_divergence(np.array([-0.1, 1.1]), np.array([0.5, 0.5]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kl_divergence(np.array([1.0]), np.array([0.5, 0.5]))

    def test_subnormal_q_gives_a_finite_value_without_a_warning(self):
        # 0.5 / 1e-320 overflows a double; 0.5 * ln(0.5 / 1e-320) does not
        p = np.array([0.25, 0.25, 0.5])
        q = np.array([0.5, 0.5, 1e-320])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = kl_divergence(p, q)
        log_ratio = np.log(np.array([0.25, 0.25, 0.5]) / np.array([0.5, 0.5, 1.0]))
        log_ratio[2] = (np.log(np.array([0.5])) - np.log(np.array([1e-320])))[0]
        expected = float(np.sum(p * log_ratio))
        assert math.isfinite(value) and same_bits(value, expected)
        # 1e-320 is a subnormal with about five significant digits
        assert value == pytest.approx(math.log(0.5) + 0.5 * 320 * math.log(10.0), rel=1e-6)

    @given(st.integers(min_value=1, max_value=500))
    def test_nonnegative_on_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.random(8) + 1e-3
        q = rng.random(8) + 1e-3
        p /= p.sum()
        q /= q.sum()
        assert kl_divergence(p, q) >= -1e-15


def literal_kl(p, q):
    """The divergence as one masked expression, evaluated anew for each q."""
    support = p > 0.0
    if np.any(q[support] == 0.0):
        return math.inf
    return float(np.sum(p[support] * np.log(p[support] / q[support])))


class TestKlDivergenceFrom:
    # one target with exact zeros, one everywhere positive
    TARGETS = (
        np.array([0.0, 0.2, 0.3, 0.0, 0.1, 0.4, 0.0, 0.0]),
        target_distribution(GaussianSpec(decay_rate=1.3), 3).probabilities,
    )

    @pytest.mark.parametrize("p", TARGETS, ids=["zeros", "positive"])
    def test_bit_identical_to_kl_of_smoothed_q(self, p):
        rng = np.random.default_rng(5)
        kl_from_p = kl_divergence_from(p)
        for q in (rng.random(8), np.array([0.0, 0.5, 0.0, 0.25, 0.0, 0.25, 0.0, 0.0]),
                  np.zeros(8), p):
            smoothed = laplace_smooth(q, 1e-12)
            value = kl_from_p(smoothed)
            # float.hex tells 0.0 from -0.0: equal hex strings are equal bits
            assert value.hex() == kl_divergence(p, smoothed).hex() == literal_kl(p, smoothed).hex()
            assert math.isfinite(value)

    @pytest.mark.parametrize("p", TARGETS, ids=["zeros", "positive"])
    def test_zero_on_the_support_is_infinite(self, p):
        q = np.where(np.arange(8) == 5, 0.0, 1.0 / 7.0)
        assert kl_divergence_from(p)(q) == math.inf == literal_kl(p, q)

    @pytest.mark.parametrize("p", TARGETS, ids=["zeros", "positive"])
    def test_q_is_not_written(self, p):
        q = laplace_smooth(np.random.default_rng(8).random(8), 1e-12)
        before = q.copy()
        kl_divergence_from(p)(q)
        assert np.array_equal(q.view(np.int64), before.view(np.int64))

    def test_later_changes_to_p_do_not_reach_it(self):
        for target in self.TARGETS:
            p = target.copy()
            q = laplace_smooth(np.full(8, 0.125), 1e-12)
            kl_from_p = kl_divergence_from(p)
            expected = kl_from_p(q)
            p[:] = 0.125
            assert kl_from_p(q) == expected

    @pytest.mark.parametrize("zeros, arrays", [(0, 1), (1, 2)], ids=["positive", "one-zero"])
    def test_peak_memory_is_two_arrays(self, zeros, arrays):
        # run_prepare's peak falls in its KL call, whose p has a zero: the
        # copied support of p and one array for the ratio, its log and the
        # terms (the copied support of q), plus the one-byte masks; three
        # arrays before the ratio was taken in place. A p positive everywhere
        # (sample --smoothing) is read in place, leaving the one array
        rng = np.random.default_rng(3)
        p = rng.random(1 << 16)
        p[:zeros] = 0.0
        q = rng.random(1 << 16)
        tracemalloc.start()
        try:
            kl_divergence(p, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (arrays + 0.35) * p.nbytes

    def test_inputs_checked(self):
        with pytest.raises(ValueError, match="non-negative"):
            kl_divergence_from(np.array([-0.1, 1.1]))
        kl_from_p = kl_divergence_from(np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="non-negative"):
            kl_from_p(np.array([-0.5, 1.5]))
        with pytest.raises(ValueError, match="length mismatch"):
            kl_from_p(np.array([1.0]))


class TestLaplaceSmooth:
    def test_result_is_normalized_and_positive(self):
        p = np.array([1.0, 0.0, 0.0, 0.0])
        smoothed = laplace_smooth(p, 1e-6)
        assert smoothed.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.all(smoothed > 0.0)

    def test_makes_kl_finite(self):
        p = np.array([0.5, 0.5])
        q = laplace_smooth(np.array([1.0, 0.0]), 1e-9)
        assert math.isfinite(kl_divergence(p, q))

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(ValueError):
            laplace_smooth(np.array([0.5, 0.5]), 0.0)
        with pytest.raises(ValueError):
            laplace_smooth(np.array([0.5, 0.5]), -1e-9)
        with pytest.raises(ValueError):
            laplace_smooth(np.array([0.5, 0.5]), math.nan)
        with pytest.raises(ValueError):
            laplace_smooth(np.array([0.5, 0.5]), math.inf)


class TestFidelity:
    def test_self_fidelity(self):
        state = plus_state()
        assert fidelity(state, state) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_states(self):
        zero = new_zero_state(1)
        one = new_zero_state(1)
        one.amplitudes[:] = [0.0, 1.0]
        assert fidelity(zero, one) == pytest.approx(0.0, abs=1e-15)

    def test_global_phase_invariant(self):
        a = plus_state()
        b = plus_state()
        b.amplitudes *= np.exp(1.23j)
        assert fidelity(a, b) == pytest.approx(1.0, abs=1e-14)

    def test_symmetric(self):
        a = plus_state()
        b = new_zero_state(1)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-15)


class TestMagnitudeFidelity:
    def test_matches_distribution_fidelity_on_squared_magnitudes(self):
        target = np.array([0.6, 0.8])
        state = new_zero_state(1)
        state.amplitudes[:] = [0.8, 0.6]
        expected = distribution_fidelity(target**2, np.array([0.64, 0.36]))
        assert magnitude_fidelity(target, state) == pytest.approx(expected, rel=1e-12)

    def test_ignores_phases(self):
        target = np.array([0.6, 0.8])
        state = new_zero_state(1)
        state.amplitudes[:] = [0.6, -0.8]
        assert magnitude_fidelity(target, state) == pytest.approx(1.0, abs=1e-14)

    def test_agrees_with_fidelity_for_real_nonnegative_states(self):
        rng = np.random.default_rng(3)
        target = rng.random(8) + 0.01
        target /= np.linalg.norm(target)
        state = new_zero_state(3)
        other = rng.random(8) + 0.01
        state.amplitudes[:] = other / np.linalg.norm(other)
        target_state = new_zero_state(3)
        target_state.amplitudes[:] = target
        assert magnitude_fidelity(target, state) == pytest.approx(
            fidelity(target_state, state), rel=1e-12
        )

    def test_distribution_fidelity_validation(self):
        with pytest.raises(ValueError):
            distribution_fidelity(np.array([0.5, 0.5]), np.array([1.0]))
        with pytest.raises(ValueError):
            distribution_fidelity(np.array([-0.5, 1.5]), np.array([0.5, 0.5]))


class TestPruningFidelityBound:
    def test_frozen_loose_value(self):
        assert pruning_fidelity_bound(16, 0.0123, loose=True) == pytest.approx(
            BOUND_16_LOOSE, abs=1e-5
        )

    def test_frozen_tight_value(self):
        assert pruning_fidelity_bound(16, 0.0123, loose=False) == pytest.approx(
            BOUND_16_TIGHT, abs=1e-5
        )

    def test_no_pruning_means_unit_bound(self):
        assert pruning_fidelity_bound(12, 0.0, loose=True) == 1.0
        assert pruning_fidelity_bound(12, 0.0, loose=False) == 1.0

    def test_overflowing_square_gives_minus_infinity(self):
        # (n-1) * delta beyond ~1.34e154 squares past the largest double
        assert pruning_fidelity_bound(2, 1e200) == -math.inf
        assert pruning_fidelity_bound(3, 1e154, loose=True) == -math.inf
        assert pruning_fidelity_bound(2, 1e150) == 1.0 - (1e150) ** 2 / 4.0

    @pytest.mark.parametrize("n, delta", [(2, 1e-3), (16, 0.0123), (9, 0.1), (26, 3.7)])
    def test_finite_bound_keeps_its_bits(self, n, delta):
        assert pruning_fidelity_bound(n, delta) == 1.0 - (float(n - 1) * delta) ** 2 / 4.0
        assert pruning_fidelity_bound(n, delta, loose=True) == 1.0 - (float(n) * delta) ** 2 / 4.0

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            pruning_fidelity_bound(0, 0.0123)
        for delta in (-0.01, math.nan):
            with pytest.raises(ValueError, match="^pruning threshold must be finite and >= 0"):
                pruning_fidelity_bound(8, delta)

    @given(
        st.integers(min_value=2, max_value=24),
        st.floats(min_value=1e-4, max_value=0.5, allow_nan=False),
    )
    def test_loose_never_exceeds_tight(self, n, delta):
        loose = pruning_fidelity_bound(n, delta, loose=True)
        tight = pruning_fidelity_bound(n, delta, loose=False)
        assert loose <= tight <= 1.0


class TestMetricCoherence:
    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_small_amplitude_mse_implies_high_fidelity(self, n):
        # If the per-entry amplitude error is tiny, the magnitude overlap
        # must be near 1: (sum t*|a|) >= 1 - 2^(n-1)*mse for unit vectors.
        rng = np.random.default_rng(n)
        target = rng.random(2**n) + 0.05
        target /= np.linalg.norm(target)
        noisy = np.abs(target + rng.normal(scale=1e-4, size=2**n))
        noisy /= np.linalg.norm(noisy)
        state = new_zero_state(n)
        state.amplitudes[:] = noisy
        amplitude_mse = score_state(target_of(target**2), state).mse_amplitude
        assert amplitude_mse <= 1e-6
        assert magnitude_fidelity(target, state) >= 1.0 - 2 ** (n - 1) * amplitude_mse * 2
        assert magnitude_fidelity(target, state) >= 0.999
