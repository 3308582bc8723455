"""Circuit types and builders: the optionally pruned QFT, the Gaussian-
preparation circuit (exponential Ry layer, QFT, X), and gate accounting.

Qubit convention used everywhere in this package: bit j of a basis index has
significance 2**j, so "qubit j" ranges from the least significant (j=0) to the
most significant (j = n-1).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import FrozenInstanceError, asdict, dataclass, field
from enum import Enum
from operator import attrgetter, index
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


@dataclass(slots=True, init=False, unsafe_hash=True)
class GateOp:
    """One primitive gate: kind, qubit indices, and an angle where applicable.

    RY/H/X act on exactly one qubit; CPHASE and SWAP on exactly two distinct
    qubits. Only RY and CPHASE carry an angle (radians).

    An immutable slotted record: every public construction validates its arguments
    (the kind must be a GateKind member, not its string value) and
    normalises them (qubits to a tuple of int, the angle to float), and
    equality and hashing are over (kind, qubits, angle). It is not declared
    frozen: on Python 3.11 a frozen slotted dataclass raises TypeError, not
    AttributeError, on assignment to a name that is not a field.
    """

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

    def __reduce__(self):
        # copy and pickle rebuild through the validating constructor
        return GateOp, (self.kind, self.qubits, self.angle)


# The slot descriptors' own setters: the constructor's writes bypass the
# __setattr__ that makes the record immutable.
_set_kind = GateOp.kind.__set__
_set_qubits = GateOp.qubits.__set__
_set_angle = GateOp.angle.__set__


def _gate(kind: GateKind, qubits: tuple[int, ...], angle: float | None = None) -> GateOp:
    """A GateOp built without the constructor's checks, for builders whose
    arguments are valid by construction: kind a GateKind member, qubits a
    tuple of Python ints (distinct where there are two), angle a finite
    Python float where the kind takes one and None otherwise."""
    gate = object.__new__(GateOp)
    _set_kind(gate, kind)
    _set_qubits(gate, qubits)
    _set_angle(gate, angle)
    return gate


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
        qubits = itertools.chain.from_iterable(map(_qubits_of, self.gates))
        if max(qubits, default=-1) >= self.num_qubits:
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
    """Per-kind gate tallies for one circuit."""

    ry: int = 0
    h: int = 0
    x: int = 0
    cphase: int = 0
    swap: int = 0

    @property
    def total(self) -> int:
        return self.ry + self.h + self.x + self.cphase + self.swap

    def as_dict(self) -> dict[str, int]:
        return {**asdict(self), "total": self.total}


def rotation_angle(j: int, beta: float) -> float:
    """Rotation angle for qubit j: 2*arctan(e^(-beta*j^2)).

    Strictly decreasing in j; always pi/2 at j = 0. Underflows to exactly 0
    for very large beta*j^2, which downstream code treats as a plain RY(0).
    """
    if j < 0:
        raise ValueError(f"qubit index must be >= 0, got {j}")
    if not 0.0 < beta < math.inf:
        raise ValueError(f"beta must be finite and > 0, got {beta}")
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


def _check_synth_size(n: int) -> int:
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    if n > MAX_SYNTH_QUBITS:
        raise ValueError(f"qubit count {n} exceeds synthesis cap {MAX_SYNTH_QUBITS}")
    return index(n)  # a Python int, so every qubit index derived from n is one


def _layer_gates(n: int, beta: float) -> tuple[GateOp, ...]:
    return tuple(_gate(GateKind.RY, (j,), rotation_angle(j, beta)) for j in range(n))


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
    append, H, CPHASE, SWAP = gates.append, GateKind.H, GateKind.CPHASE, GateKind.SWAP
    for target in range(n - 1, -1, -1):
        append(_gate(H, (target,)))
        # control target - d gets angles[d - 1]; zip stops at control 0 or
        # at the last kept distance
        for control, phi in zip(range(target - 1, -1, -1), angles):
            append(_gate(CPHASE, (target, control), phi))
    for i in range(n // 2):
        append(_gate(SWAP, (i, n - 1 - i)))
    return tuple(gates)


def build_qft(n: int, policy: PruningPolicy = PruningPolicy(0.0)) -> Circuit:
    """QFT circuit mapping |j> to (1/sqrt(2^n)) sum_k e^(2*pi*i*j*k/2^n) |k>.

    Standard structure in this package's bit convention: targets are processed
    from qubit n-1 down to 0; each target gets one H followed by
    controlled-phase gates of angle pi/2**d toward the qubit at bit-distance d
    below it (emitted only if the policy keeps the angle), and a trailing layer
    of floor(n/2) SWAPs reverses the register.
    """
    n = _check_synth_size(n)
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
    n = _check_synth_size(n)
    beta = beta_override if beta_override is not None else heuristic_beta(spec.decay_rate)
    align = _gate(GateKind.X, (n - 1,))
    return Circuit(n, _layer_gates(n, beta) + _qft_gates(n, policy) + (align,))


def full_cphase_count(n: int) -> int:
    """Controlled-phase count of the unpruned QFT: n*(n-1)/2."""
    return n * (n - 1) // 2


def kept_cphase_count(n: int, policy: PruningPolicy) -> int:
    """Controlled-phase count surviving the policy: sum over kept distances d
    of (n - d), i.e. k*n - k*(k+1)/2 for the k kept distances 1..k."""
    k = len(_kept_angles(n, policy))
    return k * n - k * (k + 1) // 2


def prep_gate_count(n: int, policy: PruningPolicy) -> int:
    """len(build_gaussian_prep(n, spec, policy)), refused where that build is: n RY,
    n H, the kept controlled phases, floor(n/2) SWAPs and one X."""
    n = _check_synth_size(n)
    return 2 * n + kept_cphase_count(n, policy) + n // 2 + 1


def pruned_cphase_count(n: int, policy: PruningPolicy) -> int:
    """How many controlled-phase gates the policy removes from the full QFT."""
    return full_cphase_count(n) - kept_cphase_count(n, policy)


def count_gates(circuit: Circuit) -> GateInventory:
    """Tally a circuit per gate kind; how many controlled phases pruning
    removed is pruned_cphase_count's, as the circuit alone does not show it."""
    tally = Counter(map(attrgetter("kind"), circuit.gates))
    return GateInventory(**{kind.value: count for kind, count in tally.items()})
