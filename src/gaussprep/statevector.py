"""Dense complex statevector simulation of the five primitive gates.

Amplitudes are a numpy complex128 array of length 2**n indexed by the
computational basis integer; bit j of the index has significance 2**j.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

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

# A gate on a state whose halves are larger than 2**_CHUNK_BITS amplitudes
# runs over them in chunks of that many, and an H runs the controlled phases
# that follow it on its qubit chunk by chunk with it, so that the passes of
# one H and its phases stay in the L2 cache. 14 (a 256 KiB chunk) was the
# fastest for the Gaussian circuit at n = 18..22 (2 MiB of L2 per core;
# 13 was as fast, 12 and 15..16 slower). At least 2: numpy multiplies a
# lone complex amplitude by a loop whose result can differ in the last bit
# from its loop over two or more, and a chunk of 2**_CHUNK_BITS >= 4
# amplitudes leaves every controlled-phase block two or more.
_CHUNK_BITS = 14


def _cuts(shape: tuple[int, ...], size: int) -> tuple[list[tuple[slice, ...]], tuple[int, ...]]:
    """Index tuples that cut an array of this shape, whose axes are powers of
    two, into pieces of one shape with at most `size` elements each, and
    that shape: the trailing axes that fit whole, a run along the next
    axis, and one index (as a length-1 slice, which keeps the axis) of
    every axis before it."""
    axis, inner = len(shape), 1
    while axis and inner * shape[axis - 1] <= size:
        axis -= 1
        inner *= shape[axis]
    if not axis:
        return [()], shape
    step = size // inner
    cuts = [tuple([slice(i, i + 1) for i in outer]) + (slice(j, j + step),)
            for outer in itertools.product(*map(range, shape[:axis - 1]))
            for j in range(0, shape[axis - 1], step)]
    return cuts, (1,) * (axis - 1) + (step,) + shape[axis:]


def _control_block(b: np.ndarray, p: int, pc: int, base: int) -> np.ndarray | None:
    """Where storage bit pc is set in the chunk b of storage bit p's set
    half: a view of b, b itself, or None. The chunk is a run of whole rows of
    the half (the row bits from p + 1 up vary in it) or a run within one
    row; base is the index of its first amplitude, which gives every bit
    that does not vary."""
    rows, cols = b.shape
    if pc < cols.bit_length() - 1:
        return b.reshape(rows, -1, 2, 1 << pc)[:, :, 1]
    if p < pc < p + rows.bit_length():
        return b.reshape(-1, 2, 1 << (pc - p - 1), cols)[:, 1]
    return b if base >> pc & 1 else None


class _Kernels:
    """The five gate kernels on one amplitude array whose qubits are stored
    in a layout that changes as the circuit runs: qubit q lives at storage
    bit bits[q], the identity at first.

    A SWAP gate exchanges two entries of bits and moves no amplitude.
    `relayout` moves the amplitudes to a new layout by storage-bit swaps.
    A one-qubit gate on storage bit p updates the view v =
    amps.reshape(-1, 2, 2**p), whose halves a = v[:, 0], b = v[:, 1] have
    the bit clear and set; a controlled phase multiplies the block of the
    view (high, bit hi, middle, bit lo, low) where both bits are set. Every
    update runs in place, in the order of floating-point operations of the
    textbook product, so each amplitude gets the same bits in any layout
    and in any piece.

    A one-qubit gate runs piece by piece. A piece is the largest block of v,
    of shape (rows, 2, cols), of at most the whole state, or a pair of
    chunks of 2**_CHUNK_BITS amplitudes on a larger state. The scratch
    buffer holds a piece, but half the state from 2**11 amplitudes up to a
    chunk pair, where a whole one would fill the exact encoder's memory
    guard at 12 qubits; t, t0, t1 are its views of a piece and its halves. A
    piece of whole rows is a run of the array, and its v and t are then
    flat. RY (multiply(s, v -> t), multiply(c, v -> v), a -= t1, b += t0)
    and X (b, a -> t0, t1; t -> v) run on blocks the buffer holds whole: the
    pieces, or the state's two halves. H runs over both halves at once
    (add(a, b -> t0), subtract(a, b -> t1), multiply(t, sqrt(1/2) -> v))
    where the buffer holds the whole state, and elsewhere in place
    (subtract(a, b -> t1), a += b, a *= sqrt(1/2), multiply(t1, sqrt(1/2) ->
    b)), which costs less there: four calls on the whole halves against
    three on each half, and on a chunk pair two passes in place against two
    into the buffer. On a chunked state each H runs with the controlled
    phases that follow it on its qubit. Storage-bit swaps copy both ways
    through two temporaries: numpy copies a source that shares the
    destination's buffer into a hidden temporary of its own first.

    What a gate needs is built at its first use and kept: the scratch
    buffer, each storage bit's pieces, the controlled-phase block of each
    pair, the phase of each controlled-phase angle.
    """

    def __init__(self, amps: np.ndarray, n: int) -> None:
        self.amps = amps
        self.bits = list(range(n))
        size = amps.size
        self._chunked = size // 2 > 1 << _CHUNK_BITS
        self._piece_size = min(size, 2 << _CHUNK_BITS)
        self._scratch_size = min(self._piece_size, max(size // 2, 1 << 10))
        self._stacked_h = self._scratch_size == size
        self._scratch: np.ndarray | None = None
        self._pieces: list[tuple | None] = [None] * n
        self._phase_blocks: list[np.ndarray | None] = [None] * (n * n)  # at n * p0 + p1
        self._phases: dict[float, complex] = {}

    def run(self, gates: tuple[GateOp, ...], begin: int, end: int) -> None:
        """Apply gates[begin:end] in order; on a chunked state each H runs
        piece by piece with the controlled phases on its qubit that follow
        it."""
        bits, chunked = self.bits, self._chunked
        hadamard, cphase, ry, x = self.hadamard, self.cphase, self.ry, self.x
        H, CPHASE, RY, SWAP = GateKind.H, GateKind.CPHASE, GateKind.RY, GateKind.SWAP
        i = begin
        while i < end:
            gate = gates[i]
            i += 1
            kind = gate.kind
            if kind is H:
                q = gate.qubits[0]
                controls = []
                while chunked and i < end and gates[i].kind is CPHASE and q in gates[i].qubits:
                    q0, q1 = gates[i].qubits
                    controls.append((bits[q1 if q0 == q else q0], self._phase(gates[i].angle)))
                    i += 1
                hadamard(bits[q], controls)
            elif kind is CPHASE:
                q0, q1 = gate.qubits
                cphase(bits[q0], bits[q1], gate.angle)
            elif kind is RY:
                ry(bits[gate.qubits[0]], gate.angle)
            elif kind is SWAP:
                q0, q1 = gate.qubits
                bits[q0], bits[q1] = bits[q1], bits[q0]
            elif kind is GateKind.X:
                x(bits[gate.qubits[0]])
            else:  # pragma: no cover - GateKind is closed
                raise ValueError(f"unknown gate kind {gate.kind}")

    def relayout(self, target: Sequence[int]) -> None:
        """Move each qubit q to storage bit target[q] by storage-bit swaps:
        at most n - 1, and n // 2 between a layout and its bit reversal."""
        bits = self.bits
        holder = [0] * len(bits)  # the qubit each storage bit holds
        for q, p in enumerate(bits):
            holder[p] = q
        for q, p in enumerate(target):
            here = bits[q]
            if here != p:
                self.swap(here, p)
                other = holder[p]
                bits[q], bits[other] = p, here
                holder[here], holder[p] = other, q

    def _temporaries(self, shape: tuple[int, ...], size: int, count: int) -> list[np.ndarray]:
        """`count` views of the scratch buffer of this shape and size, one
        after the other."""
        if self._scratch is None:
            self._scratch = np.empty(self._scratch_size, dtype=np.complex128)
        scratch = self._scratch
        return [scratch[i * size:(i + 1) * size].reshape(shape) for i in range(count)]

    def _bit_pieces(self, p: int) -> tuple:
        """Storage bit p's pieces as (v, a, b, base, t, t0, t1), base the
        index of the first amplitude of b. Where the scratch buffer holds
        half the state, t and t0 are None and t1 is the buffer as a half."""
        pieces = self._pieces[p]
        if pieces is None:
            scratch, = self._temporaries((self._scratch_size,), self._scratch_size, 1)
            view = self.amps.reshape(-1, 2, 1 << p)
            cuts, (rows, cols) = _cuts((view.shape[0], 1 << p), self._piece_size // 2)
            whole_rows = cols == 1 << p
            runs = self.amps.reshape(-1, self._piece_size) if len(cuts) > 1 else (self.amps,)
            if scratch.size < self._piece_size:
                temporaries = (None, None, scratch.reshape(rows, cols))
            else:
                t = scratch.reshape(rows, 2, cols)
                temporaries = (scratch if whole_rows else t, t[:, 0], t[:, 1])
            pieces = []
            for k, cut in enumerate(cuts):
                piece = view[cut[:1] + (slice(None),) + cut[1:]] if cut else view
                starts = [s.start for s in cut] + [0, 0]
                base = starts[0] * (2 << p) + (1 << p) + starts[1] if self._chunked else 0
                pieces.append((runs[k] if whole_rows else piece, piece[:, 0], piece[:, 1], base)
                              + temporaries)
            pieces = self._pieces[p] = tuple(pieces)
        return pieces

    def _scratch_pieces(self, p: int) -> tuple:
        """Storage bit p's pieces; where the scratch buffer holds half the
        state, its halves, cut at each call (kept for every bit, their views
        take the 12-qubit exact encoder to its one-state memory guard)."""
        pieces = self._bit_pieces(p)  # which also allocates the buffer
        if self._scratch_size == self._piece_size:
            return pieces
        rows, cols = pieces[0][1].shape  # by rows, or by columns on the top bit
        halves = (self.amps.reshape(2, rows // 2, 2, cols) if rows > 1
                  else self.amps.reshape(1, 2, 2, cols // 2).transpose(2, 0, 1, 3))
        t = self._scratch.reshape(halves.shape[1:])
        return [(v, v[:, 0], v[:, 1], 0, t, t[:, 0], t[:, 1]) for v in halves]

    def _pieces_of(self, a: np.ndarray, b: np.ndarray) -> tuple:
        """a and b, two views of one shape, cut into pieces (a, b) for which
        the scratch buffer holds two temporaries, and those temporaries."""
        cuts, shape = _cuts(a.shape, self._scratch_size // 2)
        t, u = self._temporaries(shape, math.prod(shape), 2)
        return [(a[cut], b[cut]) for cut in cuts], t, u

    def _phase(self, angle: float) -> complex:
        phase = self._phases.get(angle)
        if phase is None:
            phase = complex(math.cos(angle), math.sin(angle))
            if angle:  # 0.0 and -0.0 are one key but give phases of different bits
                self._phases[angle] = phase
        return phase

    def hadamard(self, p: int, controls: Sequence[tuple[int, complex]] = ()) -> None:
        """H on storage bit p, then each (storage bit, phase) of `controls`
        as a controlled phase between that bit and p, piece by piece. Where
        the scratch buffer holds the whole state, H runs over both halves
        at once; elsewhere two of its four passes run in place."""
        stacked = self._stacked_h
        for v, a, b, base, t, t0, t1 in self._bit_pieces(p):
            if stacked:
                np.add(a, b, out=t0)
                np.subtract(a, b, out=t1)
                np.multiply(t, _SQRT1_2, out=v)
            else:
                np.subtract(a, b, out=t1)
                a += b
                a *= _SQRT1_2
                np.multiply(t1, _SQRT1_2, out=b)
            for pc, phase in controls:
                block = _control_block(b, p, pc, base)
                if block is not None:
                    block *= phase

    def ry(self, p: int, angle: float) -> None:
        c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
        for v, a, b, _, t, t0, t1 in self._scratch_pieces(p):
            np.multiply(s, v, out=t)  # scalar first, as c * a in the product
            np.multiply(c, v, out=v)
            a -= t1
            b += t0

    def x(self, p: int) -> None:
        for v, a, b, _, t, t0, t1 in self._scratch_pieces(p):
            np.copyto(t0, b)
            np.copyto(t1, a)
            np.copyto(v, t)

    def swap(self, p0: int, p1: int) -> None:
        """Exchange the amplitudes of storage bits p0 and p1."""
        view = self._pair_view(p0, p1)
        pieces, t, u = self._pieces_of(view[:, 0, :, 1, :], view[:, 1, :, 0, :])
        for a, b in pieces:
            np.copyto(t, a)
            np.copyto(u, b)
            np.copyto(a, u)
            np.copyto(b, t)

    def _pair_view(self, p0: int, p1: int) -> np.ndarray:
        lo, hi = (p0, p1) if p0 < p1 else (p1, p0)
        return self.amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)

    def cphase(self, p0: int, p1: int, angle: float) -> None:
        key = len(self.bits) * p0 + p1
        block = self._phase_blocks[key]
        if block is None:
            block = self._phase_blocks[key] = self._pair_view(p0, p1)[:, 1, :, 1, :]
        phase = self._phases.get(angle)
        block *= self._phase(angle) if phase is None else phase


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


def _segments(gates: tuple[GateOp, ...], start: int) -> list[tuple[int, int]]:
    """The runs of gates from `start` on that get a layout each: two, split
    at the median one-qubit gate, where there are two one-qubit gates;
    otherwise one."""
    end = len(gates)
    count = sum(len(gate.qubits) == 1 for gate in itertools.islice(gates, start, None))
    if count >= 2:
        one_qubit = (i for i in range(start, end) if len(gates[i].qubits) == 1)
        middle = next(itertools.islice(one_qubit, count // 2, None))
        return [(start, middle), (middle, end)]
    return [(start, end)]


def _storage_bits(gates: tuple[GateOp, ...], begin: int, end: int, n: int,
                  entry: Sequence[int] | None = None) -> list[int]:
    """The layout for gates[begin:end]: the storage bit of each qubit as the
    run starts.

    The run's SWAPs are relabels, so each gate is counted on the qubit that
    held its qubit's amplitudes at `begin`. Qubits are ranked by how many
    one-qubit gates act on them and take the storage bits from the bottom
    up, so the busiest qubit gets the top bit, whose halves are the two
    contiguous halves of the array. Ties keep the storage bits of `entry`
    when it is given, and otherwise those of the layout that the run's
    SWAPs turn into the identity, so that a run whose counts tie ends in
    the identity. The exact encoder's whole tree gets the bit reversal
    (half its gates are on qubit 0); a whole QFT, and the second half of
    one, gets the bit reversal, which its SWAPs turn into the identity.
    """
    holder = list(range(n))  # the qubit at `begin` that each qubit now stands for
    counts = [0] * n
    for gate in itertools.islice(gates, begin, end):
        qubits = gate.qubits
        if len(qubits) == 1:
            counts[holder[qubits[0]]] += 1
        elif gate.kind is GateKind.SWAP:
            q0, q1 = qubits
            holder[q0], holder[q1] = holder[q1], holder[q0]
    if entry is None:
        entry = [0] * n
        for q, origin in enumerate(holder):
            entry[origin] = q
    bits = [0] * n
    for p, q in enumerate(sorted(range(n), key=lambda q: (counts[q], entry[q]))):
        bits[q] = p
    return bits


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Apply every gate of the circuit in list order, in place.

    On |0...0> the leading run of RY gates on distinct qubits (the
    exponential layer of the Gaussian circuit) is written in place on the
    subspace it rotates, with the amplitudes the gates give. The other
    gates run in the layouts `_storage_bits` picks for the runs of
    `_segments`: the first of two keeps the entry layout where its counts
    tie, the last the layout its SWAPs turn into the identity. For the QFT
    that is the identity for the targets n - 1 .. n // 2 and the bit
    reversal for the rest, so that every H acts on an upper storage bit
    and the n // 2 storage-bit swaps of the switch replace the SWAP tail.
    Layouts are entered and left by exact storage-bit swaps done in place,
    and the state ends in the identity layout. The kernels set each qubit
    and angle up once and share one scratch buffer. The circuit's qubits
    were range-checked when it was built.
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
        kernels = _Kernels(amps, n)
        segments = _segments(gates, start)
        for i, (begin, end) in enumerate(segments):
            entry = kernels.bits if i + 1 < len(segments) else None
            kernels.relayout(_storage_bits(gates, begin, end, n, entry))
            kernels.run(gates, begin, end)
        kernels.relayout(range(n))
    return state


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b> = sum_k conj(a_k) * b_k."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("states have different qubit counts")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def probabilities(state: StateVector) -> np.ndarray:
    """|amplitude_k|^2 for every basis index k, squared in place into the
    one array np.abs allocates (numpy computes `** 2` as `square`)."""
    probs = np.abs(state.amplitudes)
    return np.square(probs, out=probs)
