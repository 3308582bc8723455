"""Ground-truth reference objects, independent of the circuit path: the
discrete Gaussian target, the product-state amplitude formula, a literal
brute-force DFT, and the closed-form output distribution.

These are the oracles the simulator is checked against; they deliberately
avoid the gate kernels (and any FFT) so agreement is evidence, not tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import rotation_angle
from .statevector import check_simulable

MAX_DFT_LENGTH = 2**16
DEFAULT_DECAY_RATE = 1.0


@dataclass(frozen=True)
class GaussianSpec:
    """Target profile e^(-decay_rate * x^2), mean 0, on the fixed grid
    domain [-2, 2).

    decay_rate = 0 is allowed and yields the uniform distribution. The
    domain is not a parameter: on [-L, L) the rate lambda is the same target
    as the rate lambda * (L/2)^2 on [-2, 2), and the heuristic beta and the
    calibration both assume [-2, 2).
    """

    decay_rate: float = DEFAULT_DECAY_RATE

    def __post_init__(self) -> None:
        if not math.isfinite(self.decay_rate) or self.decay_rate < 0.0:
            raise ValueError(f"decay_rate must be finite and >= 0, got {self.decay_rate}")


@dataclass(frozen=True)
class TargetDistribution:
    """Ideal discrete Gaussian over the 2**n basis states: the probabilities
    G(x_k), one per point of grid_points(n)."""

    probabilities: np.ndarray

    @property
    def amplitudes(self) -> np.ndarray:
        """sqrt(G(x_k)), made afresh from the probabilities on each read."""
        return np.sqrt(self.probabilities)


def grid_points(n: int) -> np.ndarray:
    """x_k = -2 + k * 4 / 2**n for k = 0..2**n - 1: 2**n equally spaced
    points covering [-2, 2), 2 excluded."""
    check_simulable(n)
    points = np.arange(2**n, dtype=np.float64)  # one array, scaled and shifted in place
    points *= 4.0 / 2.0**n
    points += -2.0
    return points


def target_distribution(spec: GaussianSpec, n: int) -> TargetDistribution:
    """G(x_k) = e^(-decay_rate*x_k^2) normalized over grid_points(n), built
    in place in the grid's buffer.

    Normalization subtracts the maximum exponent first so very large decay
    rates cannot underflow every weight at once.
    """
    probs = grid_points(n)
    np.square(probs, out=probs)
    # A huge rate overflows the exponent to -inf, whose weight e^-inf = 0 is
    # the correct limit, so the overflow is not worth a warning.
    with np.errstate(over="ignore"):
        np.multiply(-spec.decay_rate, probs, out=probs)
    probs -= probs.max()
    np.exp(probs, out=probs)
    probs /= probs.sum()
    return TargetDistribution(probabilities=probs)


def product_amplitudes_oracle(n: int, beta: float) -> np.ndarray:
    """Amplitudes of the rotation layer's product state, straight from the
    formula: alpha_x = prod_j cos(theta_j/2)^(1-x_j) * sin(theta_j/2)^(x_j)."""
    check_simulable(n)
    amps = np.ones(1)
    for j in range(n - 1, -1, -1):
        half = rotation_angle(j, beta) / 2.0
        # kron keeps bit j at significance 2**j: the outer factor is qubit j.
        amps = np.kron(amps, np.array([math.cos(half), math.sin(half)]))
    return amps


def dft_oracle(alpha: np.ndarray) -> np.ndarray:
    """beta_k = (1/sqrt(2^n)) * sum_x alpha_x * e^(2*pi*i*x*k/2^n), evaluated
    as the literal double sum (O(4^n) on purpose; no FFT, no gate kernels)."""
    alpha = np.asarray(alpha)
    dim = alpha.shape[0]
    if dim < 1 or dim & (dim - 1) != 0:
        raise ValueError(f"length must be a power of two, got {dim}")
    if dim > MAX_DFT_LENGTH:
        raise ValueError(f"length {dim} exceeds the {MAX_DFT_LENGTH} oracle cap")
    xs = np.arange(dim, dtype=np.int64)
    out = np.empty(dim, dtype=np.complex128)
    norm = 1.0 / math.sqrt(dim)
    for k in range(dim):
        # x*k mod dim is exact in int64 and leaves e^(2*pi*i*...) unchanged.
        phases = np.exp(2j * np.pi * ((xs * k) % dim) / dim)
        out[k] = norm * np.dot(alpha, phases)
    return out


# A factor whose period in m is at most this many entries is multiplied in
# as one full-length tiled array: broadcasting rows this short over probs
# runs numpy's inner loop once per 2 or 4 elements and costs more than
# building the tiled copy. At n = 14 (2-core Xeon, numpy 2.4.6), period 2
# takes ~55 us by rows and ~17 us tiled, period 4 ~33 and ~15 us; from
# period 8 on the two are within noise, and rows need no extra array.
SHORT_PERIOD = 4


def cosine_table(n: int) -> np.ndarray:
    """cos(2*pi*k/2^n) for k in [0, 2^n): every cosine the closed form reads.

    It depends only on n, so a caller evaluating many betas at one n builds
    it once and passes it to closed_form_probabilities as `table`.
    """
    check_simulable(n)
    dim = 1 << n
    return np.cos(2.0 * np.pi * np.arange(dim) / dim)


def closed_form_probabilities(n: int, beta: float, msb_flipped: bool = False, *,
                              table: np.ndarray | None = None) -> np.ndarray:
    """Output distribution of the preparation circuit in closed form:

        |beta_m|^2 = (1/2^n) * prod_j (1 + sin(theta_j) * cos(2*pi*m*2^j/2^n))

    With msb_flipped the index m is XORed with 2^(n-1), accounting for the
    alignment X on the highest qubit.

    Every cosine is an entry of one table cos(2*pi*k/2^n), k in [0, 2^n),
    built by cosine_table(n) unless the caller passes it as `table` (it must
    have shape (2^n,)). Factor j reads the table at k = m*2^j mod 2^n, i.e.
    at stride 2^j, and so repeats with period 2^(n-j) in m. Viewing probs as
    2^j rows of that period applies each factor as one broadcast multiply;
    a factor with a period of at most SHORT_PERIOD entries is tiled to full
    length instead. The factors are multiplied in the order j = 0..n-1, so
    the result is bit-identical to evaluating the product index by index.
    No gate kernel and no FFT is involved.
    """
    check_simulable(n)
    dim = 1 << n
    if table is None:
        table = cosine_table(n)
    elif table.shape != (dim,):
        raise ValueError(f"cosine table for n = {n} must have shape ({dim},), got {table.shape}")
    probs = np.full(dim, 1.0 / dim)
    for j in range(n):
        theta = rotation_angle(j, beta)
        factor = 1.0 + math.sin(theta) * table[:: 1 << j]
        if factor.shape[0] <= SHORT_PERIOD:
            probs *= np.tile(factor, 1 << j)
        else:
            probs.reshape(1 << j, -1)[...] *= factor
    if msb_flipped:
        # XOR with 2^(n-1) swaps the two halves of the index range.
        probs = probs.reshape(2, -1)[::-1].reshape(-1)
    return probs
