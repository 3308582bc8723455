"""Circuit types and builders: the exponential Ry layer, the optionally
pruned QFT, the composed Gaussian-preparation circuit, and gate accounting.

Qubit convention used everywhere in this package: bit j of a basis index has
significance 2**j, so "qubit j" ranges from the least significant (j=0) to the
most significant (j = n-1).
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass, field
from enum import Enum
from operator import attrgetter
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .reference import GaussianSpec

# Synthesis-only operations (no statevector allocated) accept much larger
# circuits than the simulator; gate counting stays cheap up to this cap.
MAX_SYNTH_QUBITS = 4096

HEURISTIC_FALLBACK_BETA = 2.5  # heuristic beta of a flat target, which has no width


class GateKind(str, Enum):
    """The five primitive gate kinds used by every circuit in this package."""

    RY = "ry"
    H = "h"
    X = "x"
    CPHASE = "cphase"
    SWAP = "swap"


_TWO_QUBIT = (GateKind.CPHASE, GateKind.SWAP)
_ANGLED = (GateKind.RY, GateKind.CPHASE)


class GateOp:
    """One primitive gate: kind, qubit indices, and an angle where applicable.

    RY/H/X act on exactly one qubit; CPHASE and SWAP on exactly two distinct
    qubits. Only RY and CPHASE carry an angle (radians).

    An immutable slotted record: every construction validates its arguments
    (the kind must be a GateKind member, not its string value) and
    normalises them (qubits to a tuple of int, the angle to float), and
    equality and hashing are over (kind, qubits, angle).
    """

    __slots__ = ("kind", "qubits", "angle")

    kind: GateKind
    qubits: tuple[int, ...]
    angle: float | None

    def __init__(self, kind: GateKind, qubits: tuple[int, ...], angle: float | None = None) -> None:
        if kind.__class__ is not GateKind:
            raise ValueError(f"gate kind must be a GateKind, got {kind!r}")
        qubits = tuple(map(int, qubits))
        n_expected = 2 if kind in _TWO_QUBIT else 1
        if len(qubits) != n_expected:
            raise ValueError(f"{kind.value} takes exactly {n_expected} qubit(s), got {qubits}")
        if min(qubits) < 0:
            raise ValueError(f"negative qubit index in {qubits}")
        if n_expected == 2 and qubits[0] == qubits[1]:
            raise ValueError(f"{kind.value} qubits must be distinct: {qubits}")
        if kind in _ANGLED:
            if angle is None:
                raise ValueError(f"{kind.value} requires an angle")
            angle = float(angle)
            if not math.isfinite(angle):
                raise ValueError(f"non-finite angle {angle}")
        elif angle is not None:
            raise ValueError(f"{kind.value} does not take an angle")
        _set_kind(self, kind)
        _set_qubits(self, qubits)
        _set_angle(self, angle)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not GateOp:
            return NotImplemented
        return (self.kind, self.qubits, self.angle) == (other.kind, other.qubits, other.angle)

    def __hash__(self) -> int:
        return hash((self.kind, self.qubits, self.angle))

    def __repr__(self) -> str:
        return f"GateOp(kind={self.kind!r}, qubits={self.qubits!r}, angle={self.angle!r})"

    def __reduce__(self):
        # copy and pickle rebuild through the validating constructor
        return GateOp, (self.kind, self.qubits, self.angle)


# The slot descriptors' own setters: the constructor's writes bypass the
# __setattr__ that makes the record immutable.
_set_kind = GateOp.kind.__set__
_set_qubits = GateOp.qubits.__set__
_set_angle = GateOp.angle.__set__


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
    """An ordered gate list on a fixed qubit count. Immutable once built.

    The constructor is the one way to make a circuit and the one range
    check of its gates' qubits against the register.
    """

    num_qubits: int
    gates: tuple[GateOp, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {self.num_qubits}")
        object.__setattr__(self, "gates", tuple(self.gates))
        if max(map(max, map(_qubits_of, self.gates)), default=-1) >= self.num_qubits:
            gate = next(g for g in self.gates if max(g.qubits) >= self.num_qubits)
            raise ValueError(f"gate {gate} addresses qubit >= num_qubits={self.num_qubits}")

    def __len__(self) -> int:
        return len(self.gates)


_qubits_of = attrgetter("qubits")


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
            raise ValueError(f"pruning threshold must be finite and >= 0, got {self.delta}")

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


def heuristic_beta(decay_rate: float) -> float:
    """The beta used when none is given: the width heuristic
    5 / (2 * decay_rate), or 2.5 for a flat target (rate 0). A negative or
    NaN rate is rejected, and so is a rate whose beta overflows or
    underflows to 0, naming the rate."""
    if decay_rate == 0.0:
        return HEURISTIC_FALLBACK_BETA
    if not decay_rate > 0.0:
        raise ValueError(f"decay_rate must be >= 0, got {decay_rate}")
    beta = 5.0 / (2.0 * decay_rate)
    if not math.isfinite(beta):
        raise ValueError(f"lambda = {decay_rate!r} is too small: the heuristic beta = "
                         f"5 / (2 * lambda) overflows to {beta}")
    if beta == 0.0:
        raise ValueError(f"lambda = {decay_rate!r} is too large: the heuristic beta = "
                         f"5 / (2 * lambda) underflows to {beta}")
    return beta


def _check_synth_size(n: int) -> None:
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    if n > MAX_SYNTH_QUBITS:
        raise ValueError(f"qubit count {n} exceeds synthesis cap {MAX_SYNTH_QUBITS}")


def _layer_gates(n: int, beta: float) -> tuple[GateOp, ...]:
    return tuple(ry(j, rotation_angle(j, beta)) for j in range(n))


def build_exponential_layer(n: int, beta: float) -> Circuit:
    """One RY(rotation_angle(j, beta)) on each qubit j."""
    _check_synth_size(n)
    return Circuit(n, _layer_gates(n, beta))


def _kept_angles(n: int, policy: PruningPolicy) -> list[float]:
    """The controlled-phase angle pi/2**d of each distance d = 1, 2, ... that
    the policy keeps, in order of d.

    The angle does not increase with d, so the first pruned distance ends the
    list. Unlike pi / 2.0**d, ldexp does not overflow for d >= 1024; the two
    agree exactly for smaller d.
    """
    angles: list[float] = []
    for d in range(1, n):
        phi = math.ldexp(math.pi, -d)
        if not policy.keeps(phi):
            break
        angles.append(phi)
    return angles


def _qft_gates(n: int, policy: PruningPolicy) -> tuple[GateOp, ...]:
    """The gates of build_qft, in order."""
    angles = _kept_angles(n, policy)
    gates: list[GateOp] = []
    for target in range(n - 1, -1, -1):
        gates.append(h(target))
        # control target - d gets angles[d - 1]; zip stops at control 0 or
        # at the last kept distance
        for control, phi in zip(range(target - 1, -1, -1), angles):
            gates.append(cphase(target, control, phi))
    for i in range(n // 2):
        gates.append(swap(i, n - 1 - i))
    return tuple(gates)


def build_qft(n: int, policy: PruningPolicy = PruningPolicy(0.0)) -> Circuit:
    """QFT circuit mapping |j> to (1/sqrt(2^n)) sum_k e^(2*pi*i*j*k/2^n) |k>.

    Standard structure in this package's bit convention: targets are processed
    from qubit n-1 down to 0; each target gets one H followed by
    controlled-phase gates of angle pi/2**d toward the qubit at bit-distance d
    below it (emitted only if the policy keeps the angle), and a trailing layer
    of floor(n/2) SWAPs reverses the register.
    """
    _check_synth_size(n)
    return Circuit(n, _qft_gates(n, policy))


def build_gaussian_prep(
    n: int,
    spec: "GaussianSpec",
    policy: PruningPolicy = PruningPolicy(0.0),
    beta_override: float | None = None,
) -> Circuit:
    """Full preparation circuit: exponential Ry layer, pruned QFT, then an X
    on the highest qubit to align the peak with the center of the domain.
    Without beta_override, beta is heuristic_beta(spec.decay_rate)."""
    _check_synth_size(n)
    beta = beta_override if beta_override is not None else heuristic_beta(spec.decay_rate)
    return Circuit(n, _layer_gates(n, beta) + _qft_gates(n, policy) + (x(n - 1),))


def full_cphase_count(n: int) -> int:
    """Controlled-phase count of the unpruned QFT: n*(n-1)/2."""
    return n * (n - 1) // 2


def kept_cphase_count(n: int, policy: PruningPolicy) -> int:
    """Controlled-phase count surviving the policy: sum over kept distances d
    of (n - d), i.e. k*n - k*(k+1)/2 for the k kept distances 1..k."""
    k = len(_kept_angles(n, policy))
    return k * n - k * (k + 1) // 2


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
