"""Dense complex statevector simulation of the five primitive gates.

Amplitudes are a numpy complex128 array of length 2**n indexed by the
computational basis integer; bit j of the index has significance 2**j.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .circuits import Circuit, GateKind, GateOp

# 2**26 complex doubles is ~1 GiB; anything larger is not a desk-scale run.
MAX_SIM_QUBITS = 26

_SQRT1_2 = 1.0 / math.sqrt(2.0)


@dataclass(eq=False)
class StateVector:
    """An n-qubit pure state as 2**n complex amplitudes."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes for "
                f"{self.num_qubits} qubits, got shape {self.amplitudes.shape}"
            )


def check_simulable(n: int) -> None:
    """Refuse a qubit count whose 2**n amplitudes are not simulated."""
    if not 1 <= n <= MAX_SIM_QUBITS:
        raise ValueError(f"qubit count {n} outside simulable range 1..{MAX_SIM_QUBITS}")


def new_zero_state(n: int) -> StateVector:
    """|0...0> on n qubits."""
    check_simulable(n)
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n, amps)


# numpy runs a ufunc over a view whose rows are shorter than this through one
# buffer of this many elements per operand. Its default, 8192, makes the
# buffers of one H as large as a whole 14-qubit state (and was slower: the
# Gaussian circuit at n = 18 took 74 ms against 64 ms with 512). 128 keeps
# them at 2 KiB, about 0.1 of a 12-qubit state against 0.4 with 512, at the
# same speed (about 60 ms at n = 18, numpy 2.4).
_UFUNC_BUFFER_ELEMENTS = 128


class _Kernels:
    """The five gate kernels on one amplitude array, with the qubits stored
    in a given layout: qubit q lives at storage bit bits[q].

    A one-qubit gate on storage bit p updates the halves a, b of the view
    amps.reshape(-1, 2, 2**p), which have the bit clear and set; a
    two-qubit gate updates the blocks of the view (high, bit hi, middle,
    bit lo, low). Every update runs in place, in the order of
    floating-point operations of the textbook product, so each amplitude
    gets the same bits in any layout.

    What a gate needs is built at its first use and kept: the halves of
    each storage bit, the controlled-phase block of each pair, the phase of
    each controlled-phase angle. SWAP blocks are built per gate, since a
    circuit swaps a pair again only to leave its layout. Temporaries are
    views of one scratch buffer of half a state, allocated at the first
    gate that needs one. RY and X need two temporaries of the size of a
    half, so they run over the halves in two pieces; X and SWAP copy both
    ways through the scratch buffer, because numpy copies a source that
    shares the destination's buffer into a hidden temporary of its own
    first.
    """

    def __init__(self, amps: np.ndarray, bits: Sequence[int]) -> None:
        self.amps = amps
        self.bits = bits
        n = len(bits)
        self._scratch: np.ndarray | None = None
        self._halves: list[tuple[np.ndarray, np.ndarray, np.ndarray] | None] = [None] * n
        self._phase_blocks: list[list[np.ndarray | None]] = [[None] * n for _ in range(n)]
        self._phases: dict[float, complex] = {}

    def run(self, gates: Iterable[GateOp]) -> None:
        """Apply the gates in order."""
        bits = self.bits
        hadamard, cphase, ry, swap, x = self.hadamard, self.cphase, self.ry, self.swap, self.x
        for gate in gates:
            kind = gate.kind
            if kind is GateKind.H:
                hadamard(bits[gate.qubits[0]])
            elif kind is GateKind.CPHASE:
                q0, q1 = gate.qubits
                cphase(bits[q0], bits[q1], gate.angle)
            elif kind is GateKind.RY:
                ry(bits[gate.qubits[0]], gate.angle)
            elif kind is GateKind.SWAP:
                q0, q1 = gate.qubits
                swap(bits[q0], bits[q1])
            elif kind is GateKind.X:
                x(bits[gate.qubits[0]])
            else:  # pragma: no cover - GateKind is closed
                raise ValueError(f"unknown gate kind {gate.kind}")

    def _temporary(self, like: np.ndarray, offset: int = 0) -> np.ndarray:
        """A view of the scratch buffer, from `offset` on, shaped like `like`."""
        if self._scratch is None:
            # two elements at n = 1, where a half is one amplitude
            self._scratch = np.empty(max(self.amps.size // 2, 2), dtype=np.complex128)
        return self._scratch[offset:offset + like.size].reshape(like.shape)

    def _halves_of(self, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The halves of storage bit p and a temporary of their shape."""
        halves = self._halves[p]
        if halves is None:
            view = self.amps.reshape(-1, 2, 1 << p)
            a = view[:, 0]
            halves = self._halves[p] = (a, view[:, 1], self._temporary(a))
        return halves

    def _pieces_of(self, p: int) -> Iterator[tuple[np.ndarray, ...]]:
        """The halves of storage bit p as (a, b, t, u) pieces, where t and u
        are two temporaries of the piece's shape: one piece where the
        scratch buffer holds two halves (n = 1), else two. The halves are
        cut along their outer axis where it has two rows or more, so that no
        piece straddles the rows of a contiguous half. The pieces are sliced
        at each call: their six views per bit, kept for every bit, would add
        about a sixth of a 12-qubit state to the executor's memory."""
        a, b, t = self._halves_of(p)
        if self._scratch.size >= 2 * a.size:
            yield a, b, t, self._temporary(a, a.size)
            return
        rows, cols = a.shape
        if rows > 1:
            cuts = (slice(None, rows // 2),), (slice(rows // 2, None),)
        else:
            cuts = (slice(None), slice(None, cols // 2)), (slice(None), slice(cols // 2, None))
        t, u = t[cuts[0]], t[cuts[1]]
        for cut in cuts:
            yield a[cut], b[cut], t, u

    def hadamard(self, p: int) -> None:
        a, b, t = self._halves_of(p)
        np.subtract(a, b, out=t)
        a += b
        a *= _SQRT1_2
        np.multiply(t, _SQRT1_2, out=b)

    def ry(self, p: int, angle: float) -> None:
        c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
        for a, b, sa, sb in self._pieces_of(p):
            np.multiply(a, s, out=sa)
            np.multiply(b, s, out=sb)
            a *= c
            a -= sb
            b *= c
            b += sa

    def x(self, p: int) -> None:
        for a, b, t, u in self._pieces_of(p):
            np.copyto(t, a)
            np.copyto(u, b)
            np.copyto(a, u)
            np.copyto(b, t)

    def _pair_view(self, p0: int, p1: int) -> np.ndarray:
        lo, hi = (p0, p1) if p0 < p1 else (p1, p0)
        return self.amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)

    def cphase(self, p0: int, p1: int, angle: float) -> None:
        row = self._phase_blocks[p0]
        block = row[p1]
        if block is None:
            block = row[p1] = self._pair_view(p0, p1)[:, 1, :, 1, :]
        phase = self._phases.get(angle)
        if phase is None:
            phase = complex(math.cos(angle), math.sin(angle))
            if angle:  # 0.0 and -0.0 are one key but give phases of different bits
                self._phases[angle] = phase
        block *= phase

    def swap(self, p0: int, p1: int) -> None:
        view = self._pair_view(p0, p1)
        v01, v10 = view[:, 0, :, 1, :], view[:, 1, :, 0, :]
        t, u = self._temporary(v01), self._temporary(v01, v01.size)
        np.copyto(t, v01)
        np.copyto(u, v10)
        np.copyto(v01, u)
        np.copyto(v10, t)


def _write_ry_prefix(amps: np.ndarray, n: int, gates: tuple[GateOp, ...]) -> int:
    """Apply the leading run of RY gates on distinct qubits to |0...0> in
    place, and return the run's length.

    The gates act on the real parts, viewed as a (2,)*n cube whose axes
    are the qubits in descending order. Before the gate on qubit q every
    nonzero amplitude has q = 0 and lies in the subspace of the qubits
    rotated so far, so the gate writes that subspace's q = 0 half a, times
    sin(angle/2), into its q = 1 half and scales a by cos(angle/2). Each
    amplitude is the product of one factor per gate, formed in gate order
    as the gates would form it, so it keeps its bits; the imaginary parts
    stay zero.
    """
    cube = amps.real.reshape((2,) * n)
    zero, one, rotated = slice(0, 1), slice(1, 2), slice(None)  # slices keep views
    index = [zero] * n
    for length, gate in enumerate(gates):
        if gate.kind is not GateKind.RY:
            return length
        axis = n - 1 - gate.qubits[0]
        if index[axis] is rotated:
            return length
        index[axis] = one
        b = cube[tuple(index)]
        index[axis] = zero
        a = cube[tuple(index)]
        np.multiply(a, math.sin(gate.angle / 2.0), out=b)
        a *= math.cos(gate.angle / 2.0)
        index[axis] = rotated
    return len(gates)


def _storage_bits(gates: tuple[GateOp, ...], start: int, n: int) -> list[int]:
    """The layout of a circuit: the storage bit of each qubit.

    Qubits are ranked by how many one-qubit gates from `start` on act on
    them, ties by qubit index, and take the storage bits from the bottom up,
    so the busiest qubit gets the top bit, whose halves are the two
    contiguous halves of the array. The exact encoder's tree gives the bit
    reversal; a circuit whose qubits are all equally busy keeps the
    identity.
    """
    counts = [0] * n
    for gate in itertools.islice(gates, start, None):
        if len(gate.qubits) == 1:
            counts[gate.qubits[0]] += 1
    bits = [0] * n
    for p, q in enumerate(sorted(range(n), key=lambda q: (counts[q], q))):
        bits[q] = p
    return bits


def _layout_swaps(bits: list[int]) -> list[tuple[int, int]]:
    """Storage-bit swaps that move each qubit q from bit q to bits[q], at
    most n - 1 of them (n // 2 for the bit reversal); run in reverse order
    they move every qubit back."""
    holder = list(range(len(bits)))  # the qubit each storage bit holds
    swaps = []
    for q, target in enumerate(bits):
        p = holder.index(q)
        if p != target:
            swaps.append((p, target))
            holder[p], holder[target] = holder[target], q
    return swaps


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Apply every gate of the circuit in list order, in place.

    On |0...0> the leading run of RY gates on distinct qubits (the
    exponential layer of the Gaussian circuit) is written in place on the
    subspace it rotates, with the amplitudes the gates give. The other
    gates run in the layout `_storage_bits` picks for them, entered and
    left by exact storage-bit swaps done in place; the kernels set each
    qubit and angle up once and share one scratch buffer. The circuit's
    qubits were range-checked when it was built.
    """
    if circuit.num_qubits != state.num_qubits:
        raise ValueError(
            f"circuit has {circuit.num_qubits} qubits, state has {state.num_qubits}"
        )
    n = state.num_qubits
    gates = circuit.gates
    amps = state.amplitudes
    start = 0
    with np.errstate():  # restores numpy's buffer size on exit
        np.setbufsize(_UFUNC_BUFFER_ELEMENTS)
        if gates and gates[0].kind is GateKind.RY and amps[0] == 1 and not amps[1:].any():
            start = _write_ry_prefix(amps, n, gates)
        bits = _storage_bits(gates, start, n)
        swaps = _layout_swaps(bits)
        kernels = _Kernels(amps, bits)
        for p0, p1 in swaps:
            kernels.swap(p0, p1)
        kernels.run(itertools.islice(gates, start, None))
        for p0, p1 in reversed(swaps):
            kernels.swap(p0, p1)
    return state


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b> = sum_k conj(a_k) * b_k."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("states have different qubit counts")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def probabilities(state: StateVector) -> np.ndarray:
    """|amplitude_k|^2 for every basis index k."""
    return np.abs(state.amplitudes) ** 2
