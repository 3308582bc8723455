"""Shot-based measurement simulation: draw basis-state samples from a
probability vector with a seeded PCG64 generator, and compare empirical
frequencies against exact probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def check_shots(shots: int) -> None:
    """Refuse a shot count below 1."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")


@dataclass(frozen=True)
class ShotHistogram:
    """Measurement outcome counts for every basis state.

    counts[k] is how many of the shots landed in basis state k; the counts
    always sum to exactly the number of shots. The seed is recorded so the
    histogram is reproducible from its own metadata.
    """

    num_qubits: int
    shots: int
    seed: int
    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        check_shots(self.shots)
        if counts.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected 2**{self.num_qubits} count bins, got shape {counts.shape}"
            )
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        total = int(counts.sum())
        if total != self.shots:
            raise ValueError(f"counts sum to {total}, expected {self.shots} shots")

    @property
    def frequencies(self) -> np.ndarray:
        """Empirical probabilities counts/shots."""
        return self.counts / float(self.shots)


def sample_counts(probs: np.ndarray, shots: int, seed: int) -> ShotHistogram:
    """Draw independent basis-state samples from a probability vector by
    inverse-CDF lookup. The generator is PCG64 seeded with the given integer,
    so identical (probs, shots, seed) triples give identical histograms on
    any platform."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1 or probs.size < 2 or (probs.size & (probs.size - 1)) != 0:
        raise ValueError(
            f"probabilities must have power-of-two length >= 2, got shape {probs.shape}"
        )
    check_shots(shots)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if np.any(probs < 0.0):
        raise ValueError("probabilities must be non-negative")
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities must sum to 1, got {total}")
    num_qubits = probs.size.bit_length() - 1

    rng = np.random.Generator(np.random.PCG64(seed))
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    draws = rng.random(shots)
    # Sorted queries walk the CDF in order, which keeps the lookup in cache;
    # bincount below ignores their order, so the counts do not change.
    draws.sort()
    indices = np.searchsorted(cdf, draws, side="right")
    del draws, cdf  # freed before bincount allocates the counts
    np.minimum(indices, probs.size - 1, out=indices)
    counts = np.bincount(indices, minlength=probs.size).astype(np.int64, copy=False)
    return ShotHistogram(num_qubits=num_qubits, shots=shots, seed=seed, counts=counts)


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance 0.5 * sum |p_k - q_k|, from one temporary:
    the difference, made absolute in place."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    diff = np.subtract(p, q)
    return 0.5 * float(np.sum(np.abs(diff, out=diff)))
