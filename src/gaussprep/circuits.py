"""Circuit types and builders: the exponential Ry layer, the optionally
pruned QFT, the composed Gaussian-preparation circuit, and gate accounting.

Qubit convention used everywhere in this package: bit j of a basis index has
significance 2**j, so "qubit j" ranges from the least significant (j=0) to the
most significant (j = n-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from .reference import GaussianSpec

# Synthesis-only operations (no statevector allocated) accept much larger
# circuits than the simulator; gate counting stays cheap up to this cap.
MAX_SYNTH_QUBITS = 4096


class GateKind(str, Enum):
    """The five primitive gate kinds used by every circuit in this package."""

    RY = "ry"
    H = "h"
    X = "x"
    CPHASE = "cphase"
    SWAP = "swap"


_TWO_QUBIT = (GateKind.CPHASE, GateKind.SWAP)
_ANGLED = (GateKind.RY, GateKind.CPHASE)


@dataclass(frozen=True)
class GateOp:
    """One primitive gate: kind, qubit indices, and an angle where applicable.

    RY/H/X act on exactly one qubit; CPHASE and SWAP on exactly two distinct
    qubits. Only RY and CPHASE carry an angle (radians).
    """

    kind: GateKind
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        n_expected = 2 if self.kind in _TWO_QUBIT else 1
        if len(self.qubits) != n_expected:
            raise ValueError(
                f"{self.kind.value} takes exactly {n_expected} qubit(s), "
                f"got {self.qubits}"
            )
        if any(q < 0 for q in self.qubits):
            raise ValueError(f"negative qubit index in {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.kind.value} qubits must be distinct: {self.qubits}")
        if self.kind in _ANGLED:
            if self.angle is None:
                raise ValueError(f"{self.kind.value} requires an angle")
            object.__setattr__(self, "angle", float(self.angle))
            if not math.isfinite(self.angle):
                raise ValueError(f"non-finite angle {self.angle}")
        elif self.angle is not None:
            raise ValueError(f"{self.kind.value} does not take an angle")


def ry(qubit: int, angle: float) -> GateOp:
    return GateOp(GateKind.RY, (qubit,), angle)


def h(qubit: int) -> GateOp:
    return GateOp(GateKind.H, (qubit,))


def x(qubit: int) -> GateOp:
    return GateOp(GateKind.X, (qubit,))


def cphase(qubit_a: int, qubit_b: int, angle: float) -> GateOp:
    return GateOp(GateKind.CPHASE, (qubit_a, qubit_b), angle)


def swap(qubit_a: int, qubit_b: int) -> GateOp:
    return GateOp(GateKind.SWAP, (qubit_a, qubit_b))


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list on a fixed qubit count. Immutable once built."""

    num_qubits: int
    gates: tuple[GateOp, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {self.num_qubits}")
        object.__setattr__(self, "gates", tuple(self.gates))
        for gate in self.gates:
            if max(gate.qubits) >= self.num_qubits:
                raise ValueError(
                    f"gate {gate} addresses qubit >= num_qubits={self.num_qubits}"
                )

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[GateOp]:
        return iter(self.gates)

    def __add__(self, other: "Circuit") -> "Circuit":
        if self.num_qubits != other.num_qubits:
            raise ValueError("cannot concatenate circuits of different sizes")
        return Circuit(self.num_qubits, self.gates + other.gates)


@dataclass(frozen=True)
class PruningPolicy:
    """Threshold policy for dropping small controlled-phase angles.

    A controlled-phase of angle phi is emitted iff phi >= delta; angles
    strictly below delta are pruned. delta = 0 keeps every gate.
    """

    delta: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", float(self.delta))
        if not math.isfinite(self.delta) or self.delta < 0.0:
            raise ValueError(f"delta must be finite and >= 0, got {self.delta}")

    def keeps(self, phi: float) -> bool:
        return phi >= self.delta


@dataclass(frozen=True)
class GateInventory:
    """Per-kind gate tallies for one circuit, plus how many controlled-phase
    gates pruning removed relative to the unpruned construction."""

    ry: int = 0
    h: int = 0
    x: int = 0
    cphase: int = 0
    swap: int = 0
    num_pruned_cphase: int = 0

    @property
    def total(self) -> int:
        return self.ry + self.h + self.x + self.cphase + self.swap

    def as_dict(self) -> dict[str, int]:
        return {
            "ry": self.ry,
            "h": self.h,
            "x": self.x,
            "cphase": self.cphase,
            "swap": self.swap,
            "total": self.total,
            "num_pruned_cphase": self.num_pruned_cphase,
        }


def rotation_angle(j: int, beta: float) -> float:
    """Rotation angle for qubit j: 2*arctan(e^(-beta*j^2)).

    Strictly decreasing in j; always pi/2 at j = 0. Underflows to exactly 0
    for very large beta*j^2, which downstream code treats as a plain RY(0).
    """
    if j < 0:
        raise ValueError(f"qubit index must be >= 0, got {j}")
    if not beta > 0.0:
        raise ValueError(f"beta must be > 0, got {beta}")
    return 2.0 * math.atan(math.exp(-beta * float(j) * float(j)))


def beta_from_lambda(decay_rate: float) -> float:
    """Default width heuristic: beta = 5 / (2 * decay_rate)."""
    if not decay_rate > 0.0:
        raise ValueError(f"decay_rate must be > 0, got {decay_rate}")
    return 5.0 / (2.0 * decay_rate)


def _check_synth_size(n: int) -> None:
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    if n > MAX_SYNTH_QUBITS:
        raise ValueError(f"qubit count {n} exceeds synthesis cap {MAX_SYNTH_QUBITS}")


def build_exponential_layer(n: int, beta: float) -> Circuit:
    """One RY(rotation_angle(j, beta)) on each qubit j."""
    _check_synth_size(n)
    return Circuit(n, tuple(ry(j, rotation_angle(j, beta)) for j in range(n)))


def build_qft(n: int, policy: PruningPolicy = PruningPolicy(0.0)) -> Circuit:
    """QFT circuit mapping |j> to (1/sqrt(2^n)) sum_k e^(2*pi*i*j*k/2^n) |k>.

    Standard structure in this package's bit convention: targets are processed
    from qubit n-1 down to 0; each target gets one H followed by
    controlled-phase gates of angle pi/2**d toward the qubit at bit-distance d
    below it (emitted only if the policy keeps the angle), and a trailing layer
    of floor(n/2) SWAPs reverses the register.
    """
    _check_synth_size(n)
    gates: list[GateOp] = []
    for target in range(n - 1, -1, -1):
        gates.append(h(target))
        for d in range(1, target + 1):
            # Unlike pi / 2.0**d, ldexp does not overflow for d >= 1024; the
            # two agree exactly for smaller d.
            phi = math.ldexp(math.pi, -d)
            if policy.keeps(phi):
                gates.append(cphase(target, target - d, phi))
    for i in range(n // 2):
        gates.append(swap(i, n - 1 - i))
    return Circuit(n, tuple(gates))


def build_gaussian_prep(
    n: int,
    spec: "GaussianSpec",
    policy: PruningPolicy = PruningPolicy(0.0),
    beta_override: float | None = None,
) -> Circuit:
    """Full preparation circuit: exponential Ry layer, pruned QFT, then an X
    on the highest qubit to align the peak with the center of the domain."""
    _check_synth_size(n)
    beta = beta_override if beta_override is not None else beta_from_lambda(spec.decay_rate)
    layer = build_exponential_layer(n, beta)
    qft = build_qft(n, policy)
    alignment = Circuit(n, (x(n - 1),))
    return layer + qft + alignment


def full_cphase_count(n: int) -> int:
    """Controlled-phase count of the unpruned QFT: n*(n-1)/2."""
    return n * (n - 1) // 2


def kept_cphase_count(n: int, policy: PruningPolicy) -> int:
    """Controlled-phase count surviving the policy: sum over kept distances d
    of (n - d)."""
    count = 0
    for d in range(1, n):
        if policy.keeps(math.ldexp(math.pi, -d)):
            count += n - d
    return count


def pruned_cphase_count(n: int, policy: PruningPolicy) -> int:
    """How many controlled-phase gates the policy removes from the full QFT."""
    return full_cphase_count(n) - kept_cphase_count(n, policy)


def count_gates(circuit: Circuit, num_pruned_cphase: int = 0) -> GateInventory:
    """Tally a circuit per gate kind.

    num_pruned_cphase is carried through for callers that built the circuit
    with a pruning policy (see pruned_cphase_count); it is not derivable from
    the circuit alone.
    """
    tally = {kind: 0 for kind in GateKind}
    for gate in circuit.gates:
        tally[gate.kind] += 1
    return GateInventory(
        ry=tally[GateKind.RY],
        h=tally[GateKind.H],
        x=tally[GateKind.X],
        cphase=tally[GateKind.CPHASE],
        swap=tally[GateKind.SWAP],
        num_pruned_cphase=num_pruned_cphase,
    )
