"""Error metrics between the prepared state and the ideal target, plus the
analytic fidelity lower bound for pruned transforms.

KL divergence uses natural log (nats) throughout.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .circuits import PruningPolicy
from .reference import TargetDistribution
from .statevector import StateVector, inner_product


def _check_same_length(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")


class StateScore(NamedTuple):
    """Scores of a prepared state a against the real target amplitudes t:

    probabilities             |a_k|^2, as statevector.probabilities
    mse_amplitude             (1/2^n) * sum_k (t_k - |a_k|)^2
    mse_phase_optimized       min over a global phase gamma of
                              (1/2^n) * sum_k |t_k - e^(i*gamma) a_k|^2
                              = (sum t^2 + sum |a|^2 - 2|<t|a>|) / 2^n
    kl_divergence             kl_divergence(|a|^2, target probabilities)
    fidelity                  magnitude_fidelity: (sum_k t_k * |a_k|)^2
    fidelity_phase_sensitive  |<t|a>|^2, as fidelity() with t as a state
    """

    probabilities: np.ndarray
    mse_amplitude: float
    mse_phase_optimized: float
    kl_divergence: float
    fidelity: float
    fidelity_phase_sensitive: float


def score_state(target: TargetDistribution, state: StateVector) -> StateScore:
    """Score a state in one pass: |a| is taken once and squared in place into
    the probabilities, and the one overlap <t|a> is taken on the real target.
    The target amplitudes are read once and dropped before the KL step.
    Each field is the expression of the function named in StateScore,
    evaluated in the same order, so it has the same bits."""
    target_amplitudes = target.amplitudes
    amps = state.amplitudes
    _check_same_length(target_amplitudes, amps)
    magnitudes = np.abs(amps)
    amplitude_mse = float(np.mean((target_amplitudes - magnitudes) ** 2))
    magnitude = float(np.dot(target_amplitudes, magnitudes) ** 2)
    probs = np.square(magnitudes, out=magnitudes)
    overlap = complex(np.vdot(target_amplitudes, amps))
    total = float(np.sum(target_amplitudes**2) + np.sum(probs) - 2.0 * abs(overlap))
    del target_amplitudes
    return StateScore(
        probabilities=probs, mse_amplitude=amplitude_mse,
        mse_phase_optimized=max(total, 0.0) / probs.shape[0],
        kl_divergence=kl_divergence(probs, target.probabilities), fidelity=magnitude,
        fidelity_phase_sensitive=abs(overlap) ** 2,
    )


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """sum_x p_x * ln(p_x / q_x) in nats.

    Convention: terms with p_x = 0 contribute 0; any x with p_x > 0 and
    q_x = 0 makes the divergence +inf (returned as the sentinel math.inf).
    A p that is positive everywhere is read in place, so the sum takes one
    array; otherwise its supported entries are copied.
    """
    return _kl_to(p, copy=False)(q)


def kl_divergence_from(p: np.ndarray) -> Callable[[np.ndarray], float]:
    """The function q -> kl_divergence(p, q), with p checked and indexed once.

    For a fixed p scored against many q (a calibration objective): p is
    validated, its support found and its supported entries copied here, so
    each call only checks q and evaluates the sum. Later changes to the
    array p do not reach the returned function.
    """
    return _kl_to(p, copy=True)


def _kl_to(p: np.ndarray, copy: bool) -> Callable[[np.ndarray], float]:
    """q -> kl_divergence(p, q). Where p has full support its entries are
    p itself, or a copy of it if `copy`; otherwise they are always a copy."""
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < 0.0):
        raise ValueError("probabilities must be non-negative")
    support = p > 0.0
    if support.all():
        support, p_support = slice(None), (p.copy() if copy else p)  # read q without a copy
    else:
        p_support = p[support]

    def kl_to(q: np.ndarray) -> float:
        q = np.asarray(q, dtype=np.float64)
        _check_same_length(p, q)
        if np.any(q < 0.0):
            raise ValueError("probabilities must be non-negative")
        q_support = q[support]  # a copy when the support is partial, else a view of q
        if np.any(q_support == 0.0):
            return math.inf
        # one array holds the ratio, its log and the terms; q is never written
        with np.errstate(over="ignore"):  # p_x / q_x overflows where q_x is subnormal
            if isinstance(support, slice):
                terms = p_support / q_support
            else:
                terms = np.divide(p_support, q_support, out=q_support)
            np.log(terms, out=terms)
        divergence = float(np.sum(np.multiply(p_support, terms, out=terms)))
        if math.isinf(divergence):  # only overflowed terms become ln p_x - ln q_x
            with np.errstate(over="ignore"):
                log_ratio = np.log(p_support / q[support])
            overflowed = np.isinf(log_ratio)
            log_ratio[overflowed] = np.log(p_support[overflowed]) - np.log(q[support][overflowed])
            divergence = float(np.sum(p_support * log_ratio))
        return divergence

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
    PruningPolicy(delta)  # rejects a negative or non-finite threshold
    factor = float(n) if loose else float(n - 1)
    try:
        return 1.0 - (factor * delta) ** 2 / 4.0
    except OverflowError:
        return -math.inf
