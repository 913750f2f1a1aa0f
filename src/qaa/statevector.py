"""Full 2^n state-vector simulation of amplification circuits.

Ground truth for the analytic two-level model: `checked_step`, the one
dense kernel, applies the oracle phase and the diffusion about the uniform
state exactly on all 2^n complex amplitudes.  Basis ordering is big-endian:
the leftmost character of a bit string is qubit 0 and the most significant
bit of the basis index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .subspace import IterationParams, initial_angles

#: Largest supported register; 2^24 amplitudes is the desk-scale cap.
MAX_QUBITS = 24

#: Amplitudes per block of the checked pass: 2^15 complex values (512 KiB).
#: A block and its scratch copy must fit in L2 together, so that the update
#: and the passes that measure it run from cache.  Of 2^13..2^18, this
#: was fastest at n = 20 on a host with 2 MiB of L2 per core.
BLOCK = 2**15


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


class BlockPlan(NamedTuple):
    """An oracle's targets laid out on the blocks of one 2^n vector.

    `reference` is the first non-target index.  Each block is (start, stop,
    the offsets of its targets or None), and `scratch` holds one block.
    """

    targets: np.ndarray
    reference: int
    blocks: tuple[tuple[int, int, np.ndarray | None], ...]
    scratch: np.ndarray


class Plane(NamedTuple):
    """A state measured against the plane spanned by |t> and |t_perp>.

    `leakage` is the squared distance of the state from the plane, and
    `norm_defect` is <a|a> - 1.  `total`, the sum of all amplitudes, is what
    the next `checked_step` takes its diffusion mean from.
    """

    probability: float
    a_target: complex
    a_perp: complex
    leakage: float
    norm_defect: float
    total: complex


def block_plan(state: StateVector, oracle: OracleSpec) -> BlockPlan:
    """The block layout that `measure` and `checked_step` sweep `state` with."""
    _check_dims(state, oracle)
    idx = oracle.target_indices()
    big_n = state.amplitudes.size
    # Targets are sorted, so the first non-target is the first gap in 0, 1, ...
    gaps = np.flatnonzero(idx != np.arange(idx.size))
    reference = int(gaps[0]) if gaps.size else idx.size
    starts = range(0, big_n, BLOCK)
    cuts = np.searchsorted(idx, [*starts, big_n]).tolist()
    blocks = tuple(
        (lo, min(lo + BLOCK, big_n), idx[a:b] - lo if b > a else None)
        for lo, a, b in zip(starts, cuts, cuts[1:])
    )
    return BlockPlan(idx, reference, blocks, np.empty(min(BLOCK, big_n), dtype=complex))


def _sweep(amps: np.ndarray, plan: BlockPlan, shift: complex) -> Plane:
    """Subtract `shift` from every amplitude, measuring the result in the same pass.

    Each non-target amplitude is read as its difference d from the reference
    amplitude r, which goes through the same float operation.  Non-target
    amplitudes that went through the same operations give d = 0 exactly, so
    the sum s and squared norm q of the d's resolve any departure from the
    plane, with nothing to cancel against.

    A block adds to s only when its part qb of q is nonzero.  qb == 0 puts
    every component of every d in the block below 2^-537, so the skipped sum
    is exactly zero when those d are (as in every run that stays in the
    plane) and below 2^-522 otherwise.  A NaN or inf qb is summed.
    """
    r = complex(amps[plan.reference] - shift)
    s, q = 0j, 0.0
    for lo, hi, offsets in plan.blocks:
        block = amps[lo:hi]
        if shift:
            np.subtract(block, shift, out=block)
        diff = plan.scratch[: hi - lo]
        np.subtract(block, r, out=diff)
        if offsets is not None:
            diff[offsets] = 0.0
        flat = diff.view(np.float64)
        qb = float(flat @ flat)
        if qb:
            s += complex(diff.sum())
            q += qb
    at = amps[plan.targets]
    m = at.size
    rest = amps.size - m
    t_sum = complex(at.sum())
    total = s + rest * r + t_sum
    probability = float(np.vdot(at, at).real)
    spread = at - t_sum / m
    # Non-target part: sum |d - s/rest|^2 = q - |s|^2/rest; target part likewise.
    leakage = q - abs(s) ** 2 / rest + float(np.vdot(spread, spread).real)
    norm = probability + rest * abs(r) ** 2 + 2.0 * (r.conjugate() * s).real + q
    return Plane(
        probability,
        t_sum / math.sqrt(m),
        (total - t_sum) / math.sqrt(rest),
        leakage,
        norm - 1.0,
        total,
    )


def measure(state: StateVector, plan: BlockPlan) -> Plane:
    """The state against the target plane, in one read of the vector."""
    return _sweep(state.amplitudes, plan, 0j)


def checked_step(
    state: StateVector, params: IterationParams, plan: BlockPlan, total: complex
) -> Plane:
    """Apply G(beta, gamma) to `state` and measure the result, in one blocked pass.

    `total` is the sum of the amplitudes before the step, as the last
    `measure` or `checked_step` returned it.  The oracle phase touches only
    the m targets and corrects `total` into the diffusion mean, so the pass
    is one read and one write of the vector in cache-sized blocks.
    """
    amps = state.amplitudes
    before = amps[plan.targets]
    after = before * np.exp(-1j * params.gamma)
    amps[plan.targets] = after
    mean = (total + complex((after - before).sum())) / amps.size
    return _sweep(amps, plan, (1.0 - np.exp(-1j * params.beta)) * mean)


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
