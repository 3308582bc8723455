"""Error metrics between the prepared state and the ideal target, plus the
analytic fidelity lower bound for pruned transforms.

KL divergence uses natural log (nats) throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .circuits import GateInventory
from .statevector import StateVector, inner_product


@dataclass(frozen=True)
class MetricsReport:
    """All metrics for one prepared configuration, with the config echoed.

    fidelity compares amplitude magnitudes against the real target amplitudes
    (the prepared state carries transform phases that are irrelevant to the
    measured distribution); fidelity_phase_sensitive is the raw overlap
    |<target|state>|^2 kept for diagnostics.

    kl_divergence runs from the prepared distribution to the target. The
    circuit family places exactly zero probability on one basis state for
    every decay parameter, so the opposite direction is +inf under exact
    arithmetic; prepared-to-target is the direction that stays finite (the
    target is everywhere positive) and the one any empirical-histogram
    comparison computes.
    """

    n: int
    decay_rate: float
    beta: float
    delta: float
    mse_amplitude: float
    mse_phase_optimized: float
    kl_divergence: float
    fidelity: float
    fidelity_phase_sensitive: float
    fidelity_bound: float
    inventory: GateInventory

    def __post_init__(self) -> None:
        if not (0.0 <= self.fidelity <= 1.0 + 1e-12):
            raise ValueError(f"fidelity out of [0, 1]: {self.fidelity}")
        if self.mse_amplitude < 0.0 or (self.kl_divergence < 0.0 and not math.isinf(self.kl_divergence)):
            raise ValueError("mse and kl must be non-negative")


def _check_same_length(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")


def mse(target_amplitudes: np.ndarray, state: StateVector) -> float:
    """(1/2^n) * sum_k (t_k - |a_k|)^2: mean squared error between the real
    target amplitudes and the prepared amplitude magnitudes."""
    target = np.asarray(target_amplitudes, dtype=np.float64)
    mags = np.abs(state.amplitudes)
    _check_same_length(target, mags)
    return float(np.mean((target - mags) ** 2))


def mse_phase_optimized(target_amplitudes: np.ndarray, state: StateVector) -> float:
    """Complex-amplitude MSE minimized over a global phase of the state:

        min_gamma (1/2^n) * sum_k |t_k - e^(i*gamma) a_k|^2
          = (sum t^2 + sum |a|^2 - 2|<t|a>|) / 2^n
    """
    target = np.asarray(target_amplitudes, dtype=np.float64)
    amps = state.amplitudes
    _check_same_length(target, np.abs(amps))
    overlap = abs(np.vdot(target.astype(np.complex128), amps))
    total = float(np.sum(target**2) + np.sum(np.abs(amps) ** 2) - 2.0 * overlap)
    return max(total, 0.0) / target.shape[0]


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """sum_x p_x * ln(p_x / q_x) in nats.

    Convention: terms with p_x = 0 contribute 0; any x with p_x > 0 and
    q_x = 0 makes the divergence +inf (returned as the sentinel math.inf).
    """
    return kl_divergence_from(p)(q)


def kl_divergence_from(p: np.ndarray) -> Callable[[np.ndarray], float]:
    """The function q -> kl_divergence(p, q), with p checked and indexed once.

    For a fixed p scored against many q (a calibration objective): p is
    validated, its support found and its supported entries copied here, so
    each call only checks q and evaluates the sum. Later changes to the
    array p do not reach the returned function.
    """
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < 0.0):
        raise ValueError("probabilities must be non-negative")
    support = p > 0.0
    p_support = p[support]
    if p_support.shape == p.shape:
        support = slice(None)  # every entry counts: read q without a copy

    def kl_to(q: np.ndarray) -> float:
        q = np.asarray(q, dtype=np.float64)
        _check_same_length(p, q)
        if np.any(q < 0.0):
            raise ValueError("probabilities must be non-negative")
        if np.any(q[support] == 0.0):
            return math.inf
        return float(np.sum(p_support * np.log(p_support / q[support])))

    return kl_to


def laplace_smooth(q: np.ndarray, eps: float) -> np.ndarray:
    """(q + eps) / (1 + len(q)*eps): an everywhere-positive version of q.

    Used where a divergence against a distribution with structural zeros must
    stay finite (plotting, calibration objectives); eps is a documented
    constant at the call site, never a silent default.
    """
    q = np.asarray(q, dtype=np.float64)
    if not (eps > 0.0 and math.isfinite(eps)):
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    return (q + eps) / (1.0 + q.shape[0] * eps)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2: phase-sensitive overlap of two pure states (invariant under
    a global phase of either argument)."""
    return abs(inner_product(a, b)) ** 2


def magnitude_fidelity(target_amplitudes: np.ndarray, state: StateVector) -> float:
    """(sum_k t_k * |a_k|)^2: overlap after discarding the prepared state's
    per-index phases.

    Equals the classical (Bhattacharyya) fidelity between the two probability
    distributions, and equals fidelity() whenever the state is real and
    non-negative. This is the number reported when comparing against a real
    target whose distribution, not phase profile, is the object of interest.
    """
    target = np.asarray(target_amplitudes, dtype=np.float64)
    mags = np.abs(state.amplitudes)
    _check_same_length(target, mags)
    return float(np.dot(target, mags) ** 2)


def distribution_fidelity(p: np.ndarray, q: np.ndarray) -> float:
    """(sum_k sqrt(p_k * q_k))^2 between two probability vectors.

    The probability-space counterpart of magnitude_fidelity: feeding it the
    squared magnitudes of two states with non-negative real amplitudes gives
    the same number as fidelity() on those states.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    _check_same_length(p, q)
    if np.any(p < 0.0) or np.any(q < 0.0):
        raise ValueError("probabilities must be non-negative")
    return float(np.sum(np.sqrt(p * q)) ** 2)


def pruning_fidelity_bound(n: int, delta: float, loose: bool = False) -> float:
    """Analytic lower bound on fidelity between the full and delta-pruned
    transforms: 1 - (n-1)^2 * delta^2 / 4, or the looser 1 - n^2 * delta^2 / 4;
    -inf once the square overflows a double."""
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    if delta < 0.0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    factor = float(n) if loose else float(n - 1)
    try:
        return 1.0 - (factor * delta) ** 2 / 4.0
    except OverflowError:
        return -math.inf
