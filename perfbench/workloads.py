"""The benchmark's four workloads and the CLI argv of each of their ops.

Op i of a run depends only on (workload, seed, i), so every process of a
run, traced or not, makes the same ops in the same order. Ops 1, 2, ...
are timed; op 0 is the untimed warm-up op of each of the run's fresh
processes.

Every op's lambda is uniform on [0.6, 2.0]: op i takes
0.6 + 1.4 * frac(u + i / phi), with the offset u drawn from the seed and
phi the golden ratio. Any few consecutive ops then spread evenly over the
range, so a run's median does not hang on a lucky draw of lambda, on which
op cost depends. The range is not arbitrary: at n = 8, 12 and 14
`calibrate` exits with code 2 for lambda <= 0.5, its documented "search
bracket exhausted" refusal (the argmin leaves [0.01, 10]). The range keeps
every op defined.

This module imports only the standard library, so importing it before the
set-up clock stops does not hide numpy's import cost.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

LAMBDA_LO = 0.6
LAMBDA_HI = 2.0
INVERSE_GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0

DENSE_QUBITS = 18
DENSE_SHOTS = 262_144
TINY_QUBITS = tuple(range(4, 11))
CALIBRATE_QUBITS = 14
SYNTH_QUBITS = 256
SWEEP_DELTAS = (0.0, 0.0123)  # the sweep subcommand's default deltas

WORKLOADS = ("dense-n18", "tiny-gates", "calibrate-n14", "synth-n256")


@dataclass(frozen=True)
class Op:
    """One in-process call of `gaussprep.cli.main(argv)`."""

    decay_rate: float
    argv: tuple[str, ...]
    shot_seed: int | None = None


def make_op(workload: str, seed: int, index: int) -> Op:
    offset = random.Random(f"{workload}/{seed}").random()
    lam = LAMBDA_LO + (LAMBDA_HI - LAMBDA_LO) * ((offset + index * INVERSE_GOLDEN_RATIO) % 1.0)
    lam_text = repr(lam)  # shortest text that parses back to the same double
    if workload == "dense-n18":
        shot_seed = random.Random(f"{workload}/{seed}/{index}").randrange(2**31)
        argv = ("sample", "-n", str(DENSE_QUBITS), "--shots", str(DENSE_SHOTS),
                "--seed", str(shot_seed), "--lambda", lam_text)
        return Op(lam, argv, shot_seed)
    if workload == "tiny-gates":
        argv = ("sweep", "-n", *map(str, TINY_QUBITS), "--include-baseline", "--lambda", lam_text)
        return Op(lam, argv)
    if workload == "calibrate-n14":
        return Op(lam, ("calibrate", "-n", str(CALIBRATE_QUBITS), "--lambda", lam_text))
    if workload == "synth-n256":
        argv = ("export-qasm", "-n", str(SYNTH_QUBITS), "--delta", "0", "--lambda", lam_text)
        return Op(lam, argv)
    raise ValueError(f"unknown workload {workload!r}")


def final_ops(workload: str, seed: int) -> tuple[Op, ...]:
    """Ops made once per run, after the timed loop, for checks a timed op
    cannot carry. An op equal to op 1 must reproduce op 1's output."""
    if workload != "dense-n18":
        return ()
    first = make_op(workload, seed, 1)
    lam_text = repr(first.decay_rate)
    exact = ("prepare", "-n", str(DENSE_QUBITS), "--delta", "0", "--lambda", lam_text)
    pruned = ("prepare", "-n", str(DENSE_QUBITS), "--lambda", lam_text)
    return (
        Op(first.decay_rate, exact),
        Op(first.decay_rate, pruned),
        first,
    )


def kept_cphase(n: int, delta: float) -> int:
    """Controlled phases a delta-pruned QFT keeps: sum over distances d with
    pi/2**d >= delta of (n - d). Written here from the definition, apart from
    the package's own count."""
    return sum(n - d for d in range(1, n) if math.pi / 2.0**d >= delta)


def gaussian_gate_total(n: int, delta: float) -> int:
    """n RY + n H + kept controlled phases + floor(n/2) SWAPs + one X."""
    return 2 * n + kept_cphase(n, delta) + n // 2 + 1


def baseline_gate_total(n: int) -> int:
    """Exact amplitude encoding: 7*2^n - 6n - 7 primitive gates."""
    return 7 * 2**n - 6 * n - 7
