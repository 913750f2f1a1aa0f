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
_PHASE_RE = re.compile(r"^(?:ctrl\((\d+)\) @ )?p\(([^)]+)\) (q\[\d+\](?:, q\[\d+\])*);$")

_R = 1.0 / math.sqrt(2.0)


def _qubit(text: str, n: int, line: str) -> int:
    q = int(text)
    if q >= n:
        raise ValueError(f"qubit q[{q}] outside the register qubit[{n}]: {line!r}")
    return q


def replay_circuit(source: str) -> StateVector:
    """Simulate a program emitted by export_circuit, starting from |0...0>.

    Every gate updates one amplitude buffer in place through reshaped views.
    An `x` moves no amplitudes: it toggles the qubit's pending flip bit, so
    that the true amplitude at basis index i is the stored one at i XOR the
    flips.  An `h` on a flipped qubit uses H X = Z H and clears the bit; a
    phase selects the stored slice where each listed qubit equals 1 XOR its
    flip.  Flips still pending at the end are applied once.
    """
    n = None
    amps = None
    for raw in source.splitlines():
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        if line in ("OPENQASM 3.0;", 'include "stdgates.inc";'):
            continue
        if (m := _QUBIT_RE.match(line)) is not None:
            if amps is not None:
                raise ValueError(f"second qubit declaration: {line!r}")
            n = int(m.group(1))
            if n > MAX_QUBITS:
                raise ValueError(f"qubit count must be at most {MAX_QUBITS}, got {n}")
            amps = np.zeros(2**n, dtype=complex)
            amps[0] = 1.0
            scratch = np.empty(2**n // 2, dtype=complex)
            flips = [0] * n
            continue
        if amps is None or n is None:
            raise ValueError(f"gate before qubit declaration: {line!r}")
        if (m := _ONE_Q_RE.match(line)) is not None:
            q = _qubit(m.group(2), n, line)
            if m.group(1) == "x":
                flips[q] ^= 1
                continue
            # Big-endian: qubit q splits the index into (2^q, 2, rest).
            pairs = amps.reshape(2**q, 2, -1)
            lo, hi = pairs[:, 0], pairs[:, 1]
            diff = scratch.reshape(lo.shape)
            if flips[q]:  # H X = Z H: the |1> half takes the opposite sign
                np.subtract(hi, lo, out=diff)
            else:
                np.subtract(lo, hi, out=diff)
            lo += hi
            hi[...] = diff
            pairs *= _R
            flips[q] = 0
        elif (m := _PHASE_RE.match(line)) is not None:
            angle = float(m.group(2))
            if not math.isfinite(angle):
                raise ValueError(f"phase angle must be finite: {line!r}")
            qubits = [_qubit(q, n, line) for q in re.findall(r"q\[(\d+)\]", m.group(3))]
            if len(qubits) != int(m.group(1) or 0) + 1:
                raise ValueError(f"control count does not match the qubit list: {line!r}")
            if len(set(qubits)) != len(qubits):
                raise ValueError(f"repeated qubit in a phase gate: {line!r}")
            # The phase acts on the basis states whose listed qubits are all 1.
            where = [slice(None)] * n
            for q in qubits:
                where[q] = 1 ^ flips[q]
            amps.reshape((2,) * n)[tuple(where)] *= np.exp(1j * angle)
        else:
            raise ValueError(f"unsupported statement: {line!r}")
    if amps is None or n is None:
        raise ValueError("no qubit declaration found")
    if any(flips):
        # Reversing a length-2 axis flips that qubit's bit of every index.
        unflip = tuple(slice(None, None, -1 if f else 1) for f in flips)
        amps = amps.reshape((2,) * n)[unflip].reshape(-1)
    return StateVector(n, amps)


def roundtrip_deviation(seq, oracle: OracleSpec) -> float:
    """Max amplitude deviation, up to global phase, between export-replay and direct simulation."""
    direct = evolve(seq, oracle).amplitudes
    other = replay_circuit(export_circuit(seq, oracle)).amplitudes
    k = int(np.argmax(np.abs(direct)))
    phase = other[k] / direct[k] if abs(direct[k]) > 0 else 1.0
    phase /= abs(phase)
    return float(np.max(np.abs(other - phase * direct)))
