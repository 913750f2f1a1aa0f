"""Full 2^n state-vector simulation of amplification circuits.

Ground truth for the analytic two-level model: `checked_steps`, the one
dense kernel, applies the oracle phase and the diffusion about the uniform
state exactly on all 2^n complex amplitudes, a window of up to `WINDOW`
steps per pass over the vector.  Basis ordering is big-endian: the leftmost
character of a bit string is qubit 0 and the most significant bit of the
basis index.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from .subspace import IterationParams, initial_angles

#: Largest supported register; 2^24 amplitudes is the desk-scale cap.
MAX_QUBITS = 24

#: Amplitudes per block of the checked pass: 2^15 complex values (512 KiB).
#: A block and its scratch copy must fit in L2 together, so that the update
#: and the passes that measure it run from cache.  Of 2^13..2^18, this
#: was fastest at n = 20 on a host with 2 MiB of L2 per core.
BLOCK = 2**15

#: Steps per checked pass: each block takes up to this many steps while it
#: sits in L2, so the vector makes one trip to memory per window, not per
#: step.  Of 1..32, at n = 20 on a host with 2 MiB of L2 per core, one step
#: per pass took 1.2-1.4x as long as 8..32, which were within noise; 32 was
#: lowest.
WINDOW = 32

#: Most shots one readout draws: a uniform and an index each, about 35 MB.
MAX_SHOTS = 2**20


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

    def check_schedule(self, seq) -> None:
        """Reject a schedule built for another n or m; one with no n fits any register."""
        if getattr(seq, "n", None) is not None and (seq.n, seq.m) != (self.n, self.m):
            raise ValueError(f"schedule n={seq.n}, m={seq.m} != oracle n={self.n}, m={self.m}")


def check_qubits(n: int) -> None:
    """Reject a register whose 2^n vector this module does not build."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must lie in [1, {MAX_QUBITS}], got {n}")


def uniform_state(n: int) -> np.ndarray:
    """H^{x n} |0...0>: 2^n complex128 amplitudes, each 2^{-n/2}."""
    check_qubits(n)
    big_n = 2**n
    return np.full(big_n, big_n**-0.5, dtype=complex)


class BlockPlan(NamedTuple):
    """An oracle's targets laid out on the blocks of one 2^n vector.

    `reference` is the first non-target index.  Each block is (start, stop,
    the offsets of its targets or None, the slice of `targets` they are),
    and `scratch` holds one block.
    """

    targets: np.ndarray
    reference: int
    blocks: tuple[tuple[int, int, np.ndarray | None, slice], ...]
    scratch: np.ndarray


class Plane(NamedTuple):
    """A state measured against the plane spanned by |t> and |t_perp>.

    `leakage` is the squared distance of the state from the plane, and
    `norm_defect` is <a|a> - 1.  `total`, the sum of all amplitudes, is what
    the next `checked_steps` takes its diffusion mean from.
    """

    probability: float
    a_target: complex
    a_perp: complex
    leakage: float
    norm_defect: float
    total: complex


def block_plan(amps: np.ndarray, oracle: OracleSpec) -> BlockPlan:
    """The block layout that `measure` and `checked_steps` sweep `amps` with.

    `amps` must be the 2^n complex128 amplitudes of the oracle's register,
    the kind of array `uniform_state` returns, since the sweeps write it in place.
    """
    big_n = 2**oracle.n
    if amps.shape != (big_n,) or amps.dtype != np.complex128:
        raise ValueError(
            f"qubit counts disagree: oracle n={oracle.n} needs {big_n} complex128 "
            f"amplitudes, got shape {amps.shape} of {amps.dtype}"
        )
    idx = oracle.target_indices()
    # Targets are sorted, so the first non-target is the first gap in 0, 1, ...
    gaps = np.flatnonzero(idx != np.arange(idx.size))
    reference = int(gaps[0]) if gaps.size else idx.size
    starts = range(0, big_n, BLOCK)
    cuts = np.searchsorted(idx, [*starts, big_n]).tolist()
    blocks = tuple(
        (lo, min(lo + BLOCK, big_n), idx[a:b] - lo if b > a else None, slice(a, b))
        for lo, a, b in zip(starts, cuts, cuts[1:])
    )
    return BlockPlan(idx, reference, blocks, np.empty(min(BLOCK, big_n), dtype=complex))


def _sweep(amps: np.ndarray, plan: BlockPlan, steps: list[tuple]) -> list[Plane]:
    """Apply `steps` to each block in turn, measuring each step's result.

    A step is (its phased targets or None, the diffusion shift, then the
    reference amplitude, the targets and their sum after the step).  Each
    block takes every step while it is in cache: the targets are written,
    the shift is subtracted, and the result is measured.

    Each non-target amplitude is read as its difference d from the reference
    amplitude r, which goes through the same float operations.  Non-target
    amplitudes that went through the same operations give d = 0 exactly, so
    the sum s and squared norm q of the d's resolve any departure from the
    plane, with nothing to cancel against.

    One `any()` judges a block.  Some nonzero d (NaN too) adds the block's
    sum to s and its squared norm to q, as a pass summing every block would;
    with every d zero both would add 0, so a pass in the plane takes no dot.

    A block is clean once a measured step leaves every d exactly 0 and both
    components of r nonzero, so that each non-target x is r bit for bit (d = 0
    alone lets -0.0 pass against 0.0).  IEEE subtraction is deterministic, so
    x - shift would round to r - shift, the next r; a zero shift is not
    subtracted and leaves r too, which cannot reach -0.0 from nonzero.  So a
    clean block skips its steps and takes the last one's r and targets in one
    fill, at the end of the pass or before a step whose r is not finite,
    which it then takes measured.
    """
    sums = [[0j, 0.0] for _ in steps]
    # Whether each step's r is finite, then False at the end of the pass.
    finite = [cmath.isfinite(step[2]) for step in steps] + [False]
    for lo, hi, offsets, part in plan.blocks:
        block = amps[lo:hi]
        diff = plan.scratch[: hi - lo]
        clean = False
        for (phased, shift, r, at, _), acc, ok, ok_next in zip(steps, sums, finite, finite[1:]):
            if clean and ok:
                if not ok_next:
                    # A zero shift is not subtracted: the targets stay as phased.
                    block.fill(r)
                    if offsets is not None:
                        block[offsets] = (at if shift else phased)[part]
                continue
            if offsets is not None and phased is not None:
                block[offsets] = phased[part]
            if shift:
                np.subtract(block, shift, out=block)
            np.subtract(block, r, out=diff)
            if offsets is not None:
                diff[offsets] = 0.0
            if off := diff.any():
                flat = diff.view(np.float64)
                acc[0] += complex(diff.sum())
                acc[1] += float(flat @ flat)
            clean = not off and r.real and r.imag
    return _planes(steps, sums, amps.size - plan.targets.size)


def _planes(steps: list[tuple], sums: list[list], rest: int) -> list[Plane]:
    """The `Plane` after each step, from its reference amplitude, its targets and its d's.

    The target norms of all the steps are taken at once, as numpy sums of
    squares: a BLAS dot would sum in an order the host picks.
    """
    if not steps:
        return []
    at = np.array([step[3] for step in steps])
    m = at.shape[1]
    # The targets and their spread about the mean, t_sum / m as a per-step pass takes it.
    rows = np.stack((at, at - np.array([step[4] / m for step in steps])[:, None]))
    re, im = rows.real, rows.imag
    norms = zip(*(np.add.reduce(re * re, axis=2) + np.add.reduce(im * im, axis=2)).tolist())
    planes = []
    for (_, _, r, _, t_sum), (s, q), (probability, spread) in zip(steps, sums, norms):
        total = s + rest * r + t_sum
        # Non-target part: sum |d - s/rest|^2 = q - |s|^2/rest; target part likewise.
        leakage = q - _square_abs(s) / rest + spread
        norm = probability + rest * _square_abs(r) + 2.0 * (r.conjugate() * s).real + q
        a_target, a_perp = t_sum / math.sqrt(m), (total - t_sum) / math.sqrt(rest)
        planes.append(Plane(probability, a_target, a_perp, leakage, norm - 1.0, total))
    return planes


def _square_abs(z: complex) -> float:
    """abs(z) ** 2, but inf where Python would raise `OverflowError` for it."""
    try:
        return abs(z) ** 2
    except OverflowError:
        return math.inf


def measure(amps: np.ndarray, plan: BlockPlan) -> Plane:
    """The state against the target plane, in one read of the vector."""
    at = amps[plan.targets]
    return _sweep(amps, plan, [(None, 0j, complex(amps[plan.reference]), at, complex(at.sum()))])[0]


def checked_steps(
    amps: np.ndarray, window: Sequence[IterationParams], plan: BlockPlan, total: complex
) -> list[Plane]:
    """Apply each G(beta, gamma) of `window` to `amps` in place, in one blocked pass.

    `total` is the sum of the amplitudes before the window, as the last
    `measure` or `checked_steps` returned it.  The oracle phase touches only
    the m targets and corrects the running sum into the diffusion mean, so
    every step's scalars come first, from the targets and the reference
    amplitude alone; then each cache-sized block takes every step in turn,
    and the pass is one read and one write of the vector.  Returns the
    measured state after each step; a block found exactly in the plane is
    measured once per pass and then settled with one fill (see `_sweep`).

    A later step's sum is its own targets and reference plus the off-plane
    sum s carried from the window's start.  s is exactly 0 in the plane, so
    that sum is the one a per-step pass would take; off the plane, s is
    invariant under G and the two differ only by rounding.
    """
    rest = amps.size - plan.targets.size
    at = amps[plan.targets]
    r = complex(amps[plan.reference])
    carried = total - (rest * r + complex(at.sum()))
    steps = []
    # e^{-i*beta} and e^{-i*gamma} of every step, in one call.
    phases = np.exp(-1j * np.fromiter(chain.from_iterable(window), float, 2 * len(window)))
    for e_beta, c in phases.reshape(-1, 2).tolist():
        # at * c as at * Re(c) + at * i Im(c): each of those products is exact
        # to one rounding per part even where numpy's SIMD multiply fuses, so
        # the bits do not depend on the kernels the host picks.
        phased = at * c.real + at * complex(0.0, c.imag)
        mean = (total + complex((phased - at).sum())) / amps.size
        shift = (1.0 - e_beta) * mean
        r = r - shift
        at = phased - shift
        t_sum = complex(at.sum())
        total = carried + rest * r + t_sum
        steps.append((phased, shift, r, at, t_sum))
    return _sweep(amps, plan, steps)


def sample_measurements(
    probability: float, oracle: OracleSpec, shots: int, seed: int
) -> dict[str, int]:
    """Readout histogram of a target-plane state, one seeded uniform u per shot.

    u < P picks target floor(u/P * m) of the sorted targets, any other u the
    non-target of rank floor((u - P)/(1 - P) * (N - m)), both clamped for rounding.
    """
    if not (1 <= shots <= MAX_SHOTS and 0.0 <= probability <= 1.0 + 1e-12):
        raise ValueError(f"need 1..{MAX_SHOTS} shots and P in [0, 1], got {shots}, {probability}")
    targets = oracle.target_indices()
    m, rest = targets.size, 2**oracle.n - targets.size
    u = np.random.default_rng(seed).random(shots)
    hit = u < probability
    index = np.empty(shots, dtype=np.intp)
    index[hit] = targets[np.minimum(u[hit] / probability * m, m - 1).astype(np.intp)]
    rank = np.minimum((u[~hit] - probability) / (1 - probability) * rest, rest - 1).astype(np.intp)
    index[~hit] = rank + np.searchsorted(targets - np.arange(m), rank, side="right")
    keys, counts = np.unique(index, return_counts=True)
    return {format(k, f"0{oracle.n}b"): c for k, c in zip(keys.tolist(), counts.tolist())}
