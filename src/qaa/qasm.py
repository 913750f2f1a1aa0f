"""OpenQASM 3 export of amplification circuits, plus a replay parser.

The emitted program follows the standard gate template per iteration: the
oracle phase is one X-conjugated multi-controlled phase P(-gamma) per target
bit string, in sorted order, and the diffusion is the same construction
conjugated by Hadamards, with phase P(-beta).  Qubit q[0] is the leftmost
(most significant) bit of a target string.

A program holds at most MAX_ITERATIONS oracle phases.  The replay parser
understands exactly the subset this module emits (h, x, p, ctrl @ p), enough
to round-trip any exported program through the simulator.

Replay keeps the h and x gates as a frame U = (x)_q U_q, each U_q one of
the 16 elements of the dihedral group H and X generate, and stores
a' = U^T a for the state a.  A phase f on every qubit, the only kind export
writes, is the rank-1 update a' += (f - 1) <u|a'> u with u = U^T|1...1>.
Up to TERMS such terms c_u u stay pending, so a phase line in a frame already
met is scalar work; they are written into the vector before any other phase,
when a new frame would exceed TERMS, and at the end.  Other phases on framed
qubits apply the frame first; the end applies it once.
"""

from __future__ import annotations

import cmath
import functools
import math
import re

import numpy as np

from .schedules import MAX_ITERATIONS
from .statevector import MAX_QUBITS, OracleSpec
from .subspace import advance, initial_angles

_HEADER = ("OPENQASM 3.0;", 'include "stdgates.inc";')


def export_circuit(seq, oracle: OracleSpec) -> str:
    """OpenQASM 3 source preparing |s0> and applying each iteration in order.

    `seq` may be a ParameterSequence or any iterable of IterationParams.
    Raises ValueError when the program would hold more than MAX_ITERATIONS
    oracle phases, m per iteration, or when `seq` was built for another register.
    """
    oracle.check_schedule(seq)
    seq = tuple(seq)
    if len(seq) * oracle.m > MAX_ITERATIONS:
        raise ValueError(f"need at most {MAX_ITERATIONS} oracle phases, got {len(seq) * oracle.m}")
    n = oracle.n
    h = [f"h q[{i}];" for i in range(n)]
    x = [f"x q[{i}];" for i in range(n)]
    phase = ("" if n == 1 else f"ctrl({n - 1}) @ ") + "p({%d!r}) "
    phase += ", ".join(f"q[{i}]" for i in range(n)) + ";"
    marks = [[x[i] for i, bit in enumerate(t) if bit == "0"] for t in sorted(oracle.targets)]
    # One iteration as a format string over (k, beta, gamma, -gamma, -beta).
    step = "\n".join(
        ["// iteration {0}: beta={1!r}, gamma={2!r}"]
        + [line for flips in marks for line in (*flips, phase % 3, *flips)]
        + [*h, *x, phase % 4, *x, *h]
    )
    lines = [*_HEADER, f"qubit[{n}] q;", *h]
    lines.extend(step.format(k, p.beta, p.gamma, -p.gamma, -p.beta) for k, p in enumerate(seq, 1))
    return "\n".join(lines) + "\n"


# Counts and indices have at most 9 digits, far below CPython's 4,300-digit
# limit on int(), so a longer one reaches the errors that quote the line.
_QUBIT_RE = re.compile(r"^qubit\[(\d{1,9})\] q;$")
_ONE_Q_RE = re.compile(r"^(h|x) q\[(\d{1,9})\];$")
_PHASE_RE = re.compile(
    r"^(?:ctrl\((\d{1,9})\) @ )?p\(([^)]+)\) (q\[\d{1,9}\](?:, q\[\d{1,9}\])*);$"
)

#: Qubits per fused product: applying the frame takes one 2^CHUNK-square
#: matrix product over the vector per CHUNK consecutive qubits.
CHUNK = 4

#: Most full-register phase terms kept pending; a phase in one more frame
#: writes them out first, so memory and the work per line stay bounded.
TERMS = 16

# Frame element g = 8e + k is the real matrix R_k Z^e, with R_k the rotation
# by k*pi/4: H = R_1 Z is 9 and X = R_2 Z is 10.  Its entries are exactly 0,
# +-1 and +-1/sqrt2.  Left-multiplying by R_a Z maps (k, e) to (a - k, 1 - e).
_R = 1.0 / math.sqrt(2.0)
_COS = (1.0, _R, 0.0, -_R, -1.0, -_R, 0.0, _R)
_MATRICES = [
    np.array([[c, (2 * e - 1) * s], [s, (1 - 2 * e) * c]], complex)
    for e in (0, 1) for c, s in ((_COS[k], _COS[k - 2]) for k in range(8))
]
_NEXT = {c: tuple(8 - g // 8 * 8 + (a - g) % 8 for g in range(16)) for c, a in zip("hx", (1, 2))}


def _qubit(text: str, n: int, line: str) -> int:
    q = int(text)
    if q >= n:
        raise ValueError(f"qubit q[{q}] outside the register qubit[{n}]: {line!r}")
    return q


@functools.lru_cache(maxsize=8)
def _factor(text: str, line: str) -> complex:
    """The phase factor e^{i*angle} of a phase line's angle text.

    Cached: Grover-like schedules repeat a few angles, and np.exp of a
    scalar costs about a microsecond.  `line` only quotes the line in an error.
    """
    try:
        angle = float(text)
    except ValueError:
        raise ValueError(f"phase angle is not a number: {line!r}") from None
    if not math.isfinite(angle):
        raise ValueError(f"phase angle must be finite: {line!r}")
    return np.exp(1j * angle)


def _phase_qubits(m: re.Match, n: int, line: str) -> tuple[list[int], tuple]:
    """A phase line's qubits, and the index of the basis states they select."""
    qubits = [_qubit(q, n, line) for q in re.findall(r"q\[(\d+)\]", m.group(3))]
    if len(qubits) != int(m.group(1) or 0) + 1:
        raise ValueError(f"control count does not match the qubit list: {line!r}")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"repeated qubit in a phase gate: {line!r}")
    # The phase acts on the basis states whose listed qubits are all 1.
    return qubits, tuple(1 if q in qubits else slice(None) for q in range(n))


@functools.lru_cache(maxsize=256)
def _chunk_matrix(frame: tuple[int, ...]) -> np.ndarray:
    """Transposed Kronecker product of the frame elements' matrices.

    Cached across replays: a program uses a few keys, and 256 of them hold
    at most about 1 MB.
    """
    return functools.reduce(np.kron, [_MATRICES[g] for g in frame]).T


@functools.lru_cache(maxsize=16)
def _halves(frame: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Half-register factors of u = U^T|1...1>; an exported program meets two frames."""
    # u is the Kronecker product of the U_q's second rows; outer products raveled once
    # cost about 20x less than np.kron.  16 entries hold at most 2 MB.
    rows, half, one = [_MATRICES[g][1] for g in frame], len(frame) // 2, np.ones((), complex)
    outer = functools.partial(functools.reduce, np.multiply.outer)
    return outer(rows[:half], one).ravel(), outer(rows[half:], one).ravel()


def _flush(amps: np.ndarray, scratch: np.ndarray, frame: list[int]):
    """Apply the frame to the amplitudes and reset it; returns the (amplitudes, scratch) buffers.

    Each product writes its result transposed, which moves its chunk's qubits
    behind the others, so after the last chunk the order is q[0]..q[n-1].
    """
    for lo in range(0, len(frame), CHUNK):
        k = _chunk_matrix(tuple(frame[lo : lo + CHUNK]))
        np.matmul(amps.reshape(len(k), -1).T, k, out=scratch.reshape(-1, len(k)))
        amps, scratch = scratch, amps
    frame[:] = [0] * len(frame)
    return amps, scratch


def _pend(terms: dict, amps: np.ndarray, scratch: np.ndarray, frame: list[int], factor: complex):
    """A phase on every qubit, in the frame, kept pending: c_u += (factor - 1) <u|a'>.

    a' = amps + sum_v c_v v.  A new term costs one product over `amps` and
    half-register dots for its Gram row <u|v> = (hi_u.hi_v)(lo_u.lo_v); u is
    real, so the unconjugated @ gives <u|.>.
    """
    if (term := terms.get(key := tuple(frame))) is None:
        if len(terms) == TERMS:
            _write_out(amps, scratch, terms)
        hi, lo = _halves(key)
        row = [(hi @ v[0]) * (lo @ v[1]) for v in terms.values()] + [(hi @ hi) * (lo @ lo)]
        for v, g in zip(terms.values(), row):
            v[3].append(g)
        # Two short reductions: one flat dot over 2^n terms loses ~5x more precision.
        overlap = hi @ (amps.reshape(len(hi), len(lo)) @ lo)
        term = terms[key] = [hi, lo, overlap, row, 0j]  # u's halves, <u|base>, <u|v>, c_u
    term[4] += (factor - 1.0) * (term[2] + sum(g * v[4] for g, v in zip(term[3], terms.values())))


def _write_out(amps: np.ndarray, scratch: np.ndarray, terms: dict) -> None:
    """Add the pending terms c_u u to the amplitudes and drop them."""
    for hi, lo, _, _, c in terms.values():
        if c:
            # A one-term product: a broadcast multiply allocates 128 KiB ufunc buffers.
            np.matmul((c * hi)[:, None], lo[None, :], out=scratch.reshape(len(hi), len(lo)))
            amps += scratch
    terms.clear()


def replay_circuit(source: str) -> np.ndarray:
    """The 2^n amplitudes of a program emitted by export_circuit, run from |0...0>.

    Replay holds the amplitudes and one scratch vector.  Each distinct
    one-qubit line and each distinct qubit list of a phase line is parsed
    and checked once; a phase line's angle is read through a bounded cache,
    so memory does not grow with the program.
    """
    n = amps = None
    gates: dict[str, tuple[tuple[int, ...], int]] = {}
    phases: dict[tuple, tuple[list[int], tuple]] = {}
    for raw in source.splitlines():
        line = raw.strip()
        if (gate := gates.get(line)) is None:
            if not line or line.startswith("//") or line in _HEADER:
                continue
            if (m := _QUBIT_RE.match(line)) is not None:
                if amps is not None:
                    raise ValueError(f"second qubit declaration: {line!r}")
                n = int(m.group(1))
                if not 1 <= n <= MAX_QUBITS:
                    raise ValueError(f"need at least 1 and at most {MAX_QUBITS} qubits: {line!r}")
                amps = np.zeros(2**n, dtype=complex)
                amps[0] = 1.0
                scratch = np.empty_like(amps)
                frame = [0] * n
                terms: dict[tuple[int, ...], list] = {}
                continue
            if amps is None or n is None:
                raise ValueError(f"gate before qubit declaration: {line!r}")
            if (m := _PHASE_RE.match(line)) is not None:
                factor = _factor(m.group(2), line)
                if (op := phases.get(key := m.group(1, 3))) is None:
                    op = phases[key] = _phase_qubits(m, n, line)
                qubits, where = op
                if len(qubits) == n:
                    _pend(terms, amps, scratch, frame, factor)
                    continue
                _write_out(amps, scratch, terms)
                if any(frame[q] for q in qubits):  # gates on other qubits commute with it
                    amps, scratch = _flush(amps, scratch, frame)
                amps.reshape((2,) * n)[where] *= factor
                continue
            if (m := _ONE_Q_RE.match(line)) is None:
                raise ValueError(f"unsupported statement: {line!r}")
            gate = gates[line] = _NEXT[m.group(1)], _qubit(m.group(2), n, line)
        table, q = gate
        frame[q] = table[frame[q]]
    if amps is None or n is None:
        raise ValueError("no qubit declaration found")
    _write_out(amps, scratch, terms)
    if any(frame):
        amps, _ = _flush(amps, scratch, frame)
    return amps


def roundtrip_deviation(seq, oracle: OracleSpec) -> float:
    """Max amplitude deviation, up to global phase, between export-replay and the 2D model.

    The model's state, walked from the uniform state with `advance`, is e^{i*phi}
    sin(theta/2) / sqrt(m) on each target and cos(theta/2) / sqrt(N - m) elsewhere.
    """
    oracle.check_schedule(seq)
    seq = tuple(seq)
    source = export_circuit(seq, oracle)
    n, m = oracle.n, oracle.m
    theta0 = theta = initial_angles(n, m).theta
    phi = 0.0
    for p in seq:
        theta, phi, _ = advance(p.beta, p.gamma, theta, phi, theta0)
    plane = np.full(2**n, math.cos(0.5 * theta) / math.sqrt(2**n - m), complex)
    plane[oracle.target_indices()] = cmath.exp(1j * phi) * math.sin(0.5 * theta) / math.sqrt(m)
    other = replay_circuit(source)
    k = int(np.argmax(np.abs(plane)))
    phase = other[k] / plane[k] if abs(plane[k]) > 0 else 1.0
    phase /= abs(phase)
    return float(np.max(np.abs(other - phase * plane)))
