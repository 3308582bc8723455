"""OpenQASM 2.0 serialization of circuits.

Gate mapping: RY -> ry, H -> h, X -> x, CPHASE -> cu1, SWAP -> swap, all from
qelib1.inc. Angles are written with 17 significant digits so a parser
recovers the exact double.
"""

from __future__ import annotations

from .circuits import Circuit, GateKind

_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


def export_qasm(circuit: Circuit) -> str:
    """Render the circuit as an OpenQASM 2.0 program over register q."""
    cphase, h, swap, ry, x = (
        GateKind.CPHASE, GateKind.H, GateKind.SWAP, GateKind.RY, GateKind.X
    )
    reg = [f"q[{i}]" for i in range(circuit.num_qubits)]
    # Each distinct angle is formatted once; a QFT has one per distance.
    angle_texts: dict[float, str] = {}
    lines = [_HEADER + f"qreg q[{circuit.num_qubits}];"]
    append = lines.append
    for gate in circuit.gates:
        kind = gate.kind
        if kind is cphase or kind is ry:
            angle = gate.angle
            text = angle_texts.get(angle)
            # 0.0 and -0.0 share a key but print as "0" and "-0"
            if text is None or not angle:
                text = angle_texts[angle] = f"{angle:.17g}"
            if kind is cphase:
                a, b = gate.qubits
                append(f"cu1({text}) {reg[a]},{reg[b]};")
            else:
                append(f"ry({text}) {reg[gate.qubits[0]]};")
        elif kind is h:
            append(f"h {reg[gate.qubits[0]]};")
        elif kind is swap:
            a, b = gate.qubits
            append(f"swap {reg[a]},{reg[b]};")
        elif kind is x:
            append(f"x {reg[gate.qubits[0]]};")
        else:  # pragma: no cover - GateOp validation makes this unreachable
            raise ValueError(f"unsupported gate kind: {gate.kind}")
    append("")
    return "\n".join(lines)
