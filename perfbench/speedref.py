"""A fixed reference task that measures how fast the machine runs right now.

The machines this benchmark runs on are shared, and their speed drifts by
tens of percent over minutes, for every kind of code alike: CPU time per op
moves with wall time, and stolen time is a few percent. The worker times
`run()` between ops, and run.py divides op times by the median reference
time of the same process, so that drift shared by ops and reference cancels.

The task imports nothing from gaussprep, so no change to the program moves
it. It mixes the kinds of work the workloads do, about a third of the time
each: Python objects and string formatting, numpy calls on small arrays,
and numpy passes over two 2 MiB complex arrays, which together overflow a
2 MiB L2 cache.
"""

from __future__ import annotations

import numpy as np

RECORDS = 3_000
SMALL_AMPLITUDES = 1 << 11
SMALL_PASSES = 300
LARGE_AMPLITUDES = 1 << 17
LARGE_PASSES = 12


class _Record:
    __slots__ = ("name", "qubit", "angle")

    def __init__(self, name: str, qubit: int, angle: float) -> None:
        self.name, self.qubit, self.angle = name, qubit, angle


def _python_objects() -> int:
    records = [_Record("ry" if i % 3 else "cu1", i % 61, i * 0.001) for i in range(RECORDS)]
    table: dict[str, int] = {}
    for record in records:
        table[record.name] = table.get(record.name, 0) + 1
    text = "\n".join(f"{r.name}({r.angle!r}) q[{r.qubit}];" for r in records)
    return len(text) + len(table)


def _small_arrays(state: np.ndarray) -> float:
    phase = np.exp(0.1j)
    for _ in range(SMALL_PASSES):
        low, high = state[0::2], state[1::2]
        state[0::2], state[1::2] = (low + high) * 0.7071067811865476, (low - high) * phase
    return float(np.abs(state[0]))


def _large_array(state: np.ndarray, scratch: np.ndarray) -> float:
    for _ in range(LARGE_PASSES):
        np.multiply(state, 0.9999999, out=scratch)
        np.add(scratch, state, out=state)
        state *= 0.5
    return float(np.abs(state[-1]))


class SpeedReference:
    """Owns the reference task's arrays, so that `run()` allocates the same
    way on every call."""

    def __init__(self) -> None:
        self._small = np.ones(SMALL_AMPLITUDES, dtype=np.complex128)
        self._large = np.ones(LARGE_AMPLITUDES, dtype=np.complex128)
        self._scratch = np.empty_like(self._large)

    def run(self) -> float:
        """Run the task once; the result keeps the work from being skipped."""
        self._small.fill(1.0)
        self._large.fill(1.0)
        return _python_objects() + _small_arrays(self._small) + _large_array(self._large, self._scratch)
