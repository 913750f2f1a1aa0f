"""Full 2^n state-vector simulation of amplification circuits.

Ground truth for the analytic two-level model: the oracle phase and the
diffusion about the uniform state are applied exactly on all 2^n complex
amplitudes.  Basis ordering is big-endian: the leftmost character of a bit
string is qubit 0 and the most significant bit of the basis index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .subspace import IterationParams, StateAngles, initial_angles

#: Largest supported register; 2^24 amplitudes is the desk-scale cap.
MAX_QUBITS = 24


@dataclass(frozen=True)
class OracleSpec:
    """Marked basis states of an n-qubit search problem."""

    n: int
    targets: frozenset[str] = field(default_factory=frozenset)
    _indices: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        targets = frozenset(self.targets)
        object.__setattr__(self, "targets", targets)
        # The model's caps on n and m come first, before any index is built.
        initial_angles(self.n, len(targets))
        for t in targets:
            if len(t) != self.n or set(t) - {"0", "1"}:
                raise ValueError(f"target {t!r} is not an {self.n}-bit string")
        indices = np.array(sorted(int(t, 2) for t in targets), dtype=np.intp)
        indices.flags.writeable = False
        object.__setattr__(self, "_indices", indices)

    @classmethod
    def single(cls, target: str) -> "OracleSpec":
        return cls(n=len(target), targets=frozenset({target}))

    @classmethod
    def standard(cls, n: int, m: int = 1, target: str | None = None) -> "OracleSpec":
        """`single(target)` when a target is given, else the basis strings 0..m-1.

        A target string marks exactly one state of n qubits, so giving one
        with m > 1 or with other than n bits is an error rather than a
        silent oracle of another shape.  n and m are checked before any
        target string is formatted.
        """
        initial_angles(n, m)
        if target is None:
            return cls(n, frozenset(format(i, f"0{n}b") for i in range(m)))
        if m != 1:
            raise ValueError(f"a target string marks one state, but m={m}")
        if len(target) != n:
            raise ValueError(f"target {target!r} has {len(target)} bits, but n={n}")
        return cls.single(target)

    @property
    def m(self) -> int:
        return len(self.targets)

    def target_indices(self) -> np.ndarray:
        return self._indices


@dataclass(frozen=True)
class StateVector:
    """2^n complex amplitudes; index = big-endian bit string."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.n,):
            raise ValueError(
                f"expected {2 ** self.n} amplitudes for n={self.n}, got {amps.shape}"
            )
        object.__setattr__(self, "amplitudes", amps)


def _check_dims(state: StateVector, oracle: OracleSpec) -> None:
    if state.n != oracle.n:
        raise ValueError(f"qubit counts disagree: state n={state.n}, oracle n={oracle.n}")


def check_qubits(n: int) -> None:
    """Reject a register whose 2^n vector this module does not build."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must lie in [1, {MAX_QUBITS}], got {n}")


def uniform_state(n: int) -> StateVector:
    """H^{x n} |0...0>: every amplitude 2^{-n/2}."""
    check_qubits(n)
    big_n = 2**n
    return StateVector(n, np.full(big_n, big_n**-0.5, dtype=complex))


def iterate_in_place(state: StateVector, params: IterationParams, oracle: OracleSpec) -> None:
    """Apply G(beta, gamma) to the amplitudes of `state`, overwriting them.

    R(gamma) multiplies every target amplitude by e^{-i*gamma}; D(beta), the phase
    rotation about the uniform state, is the exact rank-1 update a -= (1 - e^{-i*beta}) * mean.
    """
    _check_dims(state, oracle)
    amps = state.amplitudes
    amps[oracle.target_indices()] *= np.exp(-1j * params.gamma)
    amps -= (1.0 - np.exp(-1j * params.beta)) * amps.mean()


def evolve(seq: Iterable[IterationParams], oracle: OracleSpec) -> StateVector:
    """The uniform state after every iteration of `seq`, in order."""
    state = uniform_state(oracle.n)
    for params in seq:
        iterate_in_place(state, params, oracle)
    return state


def target_probability(state: StateVector, oracle: OracleSpec) -> float:
    _check_dims(state, oracle)
    return float(np.sum(np.abs(state.amplitudes[oracle.target_indices()]) ** 2))


def project_to_angles(state: StateVector, oracle: OracleSpec) -> tuple[StateAngles, float]:
    """Decompose onto the plane spanned by |t> and |t_perp>.

    |t> is the uniform superposition of the m target strings and |t_perp>
    the normalized non-target part of the uniform state.  Returns the plane
    angles and the squared norm left outside the plane (the leakage, zero
    for any product of diffusion/oracle gates applied to the uniform state).
    """
    _check_dims(state, oracle)
    idx = oracle.target_indices()
    m = idx.size
    big_n = 2**state.n
    target_sum = state.amplitudes[idx].sum()
    a_target = target_sum / math.sqrt(m)
    a_perp = (state.amplitudes.sum() - target_sum) / math.sqrt(big_n - m)
    leakage = float(np.sum(np.abs(state.amplitudes) ** 2)) - abs(a_target) ** 2 - abs(a_perp) ** 2
    return StateAngles.from_amplitudes(a_target, a_perp), max(leakage, 0.0)


def sample_measurements(state: StateVector, shots: int, seed: int) -> dict[str, int]:
    """Multinomial readout histogram, deterministic per seed.

    Returns bit string -> count for observed outcomes only; counts sum to shots.
    """
    if shots < 1:
        raise ValueError(f"need at least one shot, got {shots}")
    probs = np.abs(state.amplitudes) ** 2
    probs = probs / probs.sum()
    counts = np.random.default_rng(seed).multinomial(shots, probs)
    width = state.n
    return {
        format(i, f"0{width}b"): int(c) for i, c in enumerate(counts) if c
    }
