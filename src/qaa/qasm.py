"""OpenQASM 3 export of amplification circuits, plus a replay parser.

The emitted program follows the standard gate template per iteration: the
oracle phase is an X-conjugated multi-controlled phase P(-gamma) selecting
the target bit string, and the diffusion is the same construction
conjugated by Hadamards, with phase P(-beta).  Qubit q[0] is the leftmost
(most significant) bit of the target string.

Only single-target circuits are exported.  The replay parser understands
exactly the subset this module emits (h, x, p, ctrl @ p), which is enough
to round-trip any exported program through the simulator.
"""

from __future__ import annotations

import math
import re
from typing import Iterable

import numpy as np

from .statevector import MAX_QUBITS, OracleSpec, StateVector, evolve


def export_circuit(seq, oracle: OracleSpec) -> str:
    """OpenQASM 3 source preparing |s0> and applying each iteration in order.

    `seq` may be a ParameterSequence or any iterable of IterationParams.
    Raises ValueError for multi-target oracles: the gate template encodes a
    single marked bit string.
    """
    if oracle.m != 1:
        raise ValueError("circuit export supports exactly one target string")
    (target,) = oracle.targets
    n = oracle.n
    lines: list[str] = [
        "OPENQASM 3.0;",
        'include "stdgates.inc";',
        f"qubit[{n}] q;",
    ]
    lines.extend(f"h q[{i}];" for i in range(n))
    for k, p in enumerate(seq, start=1):
        lines.append(f"// iteration {k}: beta={p.beta!r}, gamma={p.gamma!r}")
        lines.extend(_oracle_gate(target, p.gamma))
        lines.extend(_diffusion_gate(n, p.beta))
    return "\n".join(lines) + "\n"


def _mcp(n: int, angle: float) -> str:
    qubits = ", ".join(f"q[{i}]" for i in range(n))
    if n == 1:
        return f"p({angle!r}) q[0];"
    return f"ctrl({n - 1}) @ p({angle!r}) {qubits};"


def _oracle_gate(target: str, gamma: float) -> Iterable[str]:
    flips = [f"x q[{i}];" for i, bit in enumerate(target) if bit == "0"]
    yield from flips
    yield _mcp(len(target), -gamma)
    yield from flips


def _diffusion_gate(n: int, beta: float) -> Iterable[str]:
    yield from (f"h q[{i}];" for i in range(n))
    yield from (f"x q[{i}];" for i in range(n))
    yield _mcp(n, -beta)
    yield from (f"x q[{i}];" for i in range(n))
    yield from (f"h q[{i}];" for i in range(n))


_QUBIT_RE = re.compile(r"^qubit\[(\d+)\] q;$")
_ONE_Q_RE = re.compile(r"^(h|x) q\[(\d+)\];$")
_P_RE = re.compile(r"^p\(([^)]+)\) (q\[\d+\]);$")
_MCP_RE = re.compile(r"^ctrl\(\d+\) @ p\(([^)]+)\) (.+);$")

_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def _apply_one_qubit(amps: np.ndarray, n: int, gate: np.ndarray, qubit: int) -> np.ndarray:
    # Big-endian: qubit 0 is the leading tensor axis.
    shaped = amps.reshape((2,) * n)
    shaped = np.moveaxis(shaped, qubit, 0)
    shaped = np.tensordot(gate, shaped, axes=([1], [0]))
    return np.moveaxis(shaped, 0, qubit).reshape(-1)


def replay_circuit(source: str) -> StateVector:
    """Simulate a program emitted by export_circuit, starting from |0...0>."""
    n = None
    amps = None
    for raw in source.splitlines():
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        if line in ("OPENQASM 3.0;", 'include "stdgates.inc";'):
            continue
        if (m := _QUBIT_RE.match(line)) is not None:
            n = int(m.group(1))
            if n > MAX_QUBITS:
                raise ValueError(f"qubit count must be at most {MAX_QUBITS}, got {n}")
            amps = np.zeros(2**n, dtype=complex)
            amps[0] = 1.0
            index = np.arange(2**n)
            continue
        if amps is None or n is None:
            raise ValueError(f"gate before qubit declaration: {line!r}")
        if (m := _ONE_Q_RE.match(line)) is not None:
            gate = _H if m.group(1) == "h" else _X
            amps = _apply_one_qubit(amps, n, gate.astype(complex), int(m.group(2)))
        elif (m := _P_RE.match(line) or _MCP_RE.match(line)) is not None:
            # The phase acts on the basis states whose listed qubits are all 1.
            selected = np.ones(2**n, dtype=bool)
            for q in re.findall(r"q\[(\d+)\]", m.group(2)):
                selected &= ((index >> (n - 1 - int(q))) & 1) == 1
            amps = np.where(selected, amps * np.exp(1j * float(m.group(1))), amps)
        else:
            raise ValueError(f"unsupported statement: {line!r}")
    if amps is None or n is None:
        raise ValueError("no qubit declaration found")
    return StateVector(n, amps)


def roundtrip_deviation(seq, oracle: OracleSpec) -> float:
    """Max amplitude deviation, up to global phase, between export-replay and direct simulation."""
    direct = evolve(seq, oracle).amplitudes
    other = replay_circuit(export_circuit(seq, oracle)).amplitudes
    k = int(np.argmax(np.abs(direct)))
    phase = other[k] / direct[k] if abs(direct[k]) > 0 else 1.0
    phase /= abs(phase)
    return float(np.max(np.abs(other - phase * direct)))
