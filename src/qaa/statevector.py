"""Full 2^n state-vector simulation of amplification circuits.

Ground truth for the analytic two-level model: `checked_steps`, the one
dense kernel, applies the oracle phase and the diffusion about the uniform
state exactly on all 2^n complex amplitudes, in windows of up to `WINDOW`
steps, each one blocked pass over the blocks that neither the start nor an
earlier step found exactly in the plane.  `uniform_start` gives the uniform
state with every block flagged clean, unfilled and unread.  A single target
is one Python complex, so a step in the plane makes no numpy call.  Basis
ordering is big-endian: the leftmost character of a bit string is qubit 0
and the most significant bit of the basis index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .subspace import IterationParams, initial_angles

#: Largest supported register; 2^24 amplitudes is the desk-scale cap.
MAX_QUBITS = 24

#: Amplitudes per block of the checked pass: 2^15 complex values (512 KiB).
#: A block and its scratch copy must fit in L2 together, so that the update
#: and the passes that measure it run from cache.  Of 2^13..2^18, this
#: was fastest at n = 20 on a host with 2 MiB of L2 per core.
BLOCK = 2**15

#: Steps per checked pass: each block off the plane takes up to this many
#: steps while it sits in L2, so it makes one trip to memory per window, not
#: per step.  Of 1..32, at n = 20 on a host with 2 MiB of L2 per core, one
#: step per pass took 1.2-1.4x as long as 8..32, which were within noise; 32
#: was lowest.  A window keeps its steps' targets, so with m targets it is
#: cut to BLOCK // m steps, or one.
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
    `scratch` holds one block, and `clean` flags the blocks that the last
    `measure` or `checked_steps` found exactly in the plane, or that
    `uniform_start` knows to be (see `_sweep`).
    """

    targets: np.ndarray
    reference: int
    blocks: tuple[tuple[int, int, np.ndarray | None, slice], ...]
    scratch: np.ndarray
    clean: list[bool]


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
    scratch = np.empty(min(BLOCK, big_n), dtype=complex)
    return BlockPlan(idx, reference, blocks, scratch, [False] * len(blocks))


def _sweep(amps: np.ndarray, plan: BlockPlan, steps: list[tuple]) -> list[Plane]:
    """Apply `steps` to each block in turn, measuring each step's result.

    A step is (its phased targets or None, the diffusion shift, then the
    reference amplitude r, the targets and their sum after the step); one
    target is one Python complex.  Each block that is not clean takes every
    step while it is in cache: the targets are written, the shift is
    subtracted, and the result is measured.

    Each non-target amplitude is read as its difference d from the reference
    amplitude r, which goes through the same float operations.  Non-target
    amplitudes that went through the same operations give d = +0.0 exactly,
    so the sum s and squared norm q of the d's resolve any departure from the
    plane, with nothing to cancel against.

    One integer max over the d's bits judges a block.  Some d other than +0.0
    (NaN too) adds the block's sum to s and its squared norm to q, as a pass
    summing every block would; with every d +0.0 both would add 0, so a pass
    in the plane takes no dot.

    `plan.clean` flags a block once every d is +0.0 and no part of r is -0.0.
    Each non-target x is then r bit for bit: against a nonzero part of r,
    x - r is 0 only for the equal double, and against +0.0 it is +0.0 only
    for x's +0.0 (against -0.0 either zero gives +0.0).  IEEE subtraction is
    deterministic, so x - shift rounds to r - shift, the next r, finite or
    not; a zero shift leaves both as they are.  So a clean block skips every
    later step, unwritten, until `checked_steps` settles it with `_settle`.
    """
    sums = [[0j, 0.0] for _ in steps]
    for b, (lo, hi, offsets, part) in enumerate(plan.blocks):
        if plan.clean[b]:
            continue
        block = amps[lo:hi]
        diff = plan.scratch[: hi - lo]
        for (phased, shift, r, _, _), acc in zip(steps, sums):
            if offsets is not None and phased is not None:
                block[offsets] = _part(phased, part)
            if shift:
                np.subtract(block, shift, out=block)
            np.subtract(block, r, out=diff)
            if offsets is not None:
                diff[offsets] = 0.0
            if diff.view(np.uint64).max():
                flat = diff.view(np.float64)
                acc[0] += complex(diff.sum())
                acc[1] += float(flat @ flat)
            elif not any(x == 0.0 and math.copysign(1.0, x) < 0.0 for x in (r.real, r.imag)):
                plan.clean[b] = True
                break
    return _planes(steps, sums, amps.size - plan.targets.size)


def _part(values, part: slice):
    """The targets `part` of a step's values, where one target is one Python complex."""
    return values if isinstance(values, complex) else values[part]


def _settle(block: np.ndarray, offsets: np.ndarray | None, part: slice, step: tuple) -> None:
    """Write a clean block as `step` left it: r everywhere, then its targets."""
    block.fill(step[2])
    if offsets is not None:
        block[offsets] = _part(step[3], part)


def _planes(steps: list[tuple], sums: list[list], rest: int) -> list[Plane]:
    """The `Plane` after each step, from its reference amplitude, its targets and its d's.

    The target norms of all the steps are taken at once, as numpy sums of
    squares: a BLAS dot would sum in an order the host picks.  One target,
    held as a Python complex, takes them as re * re + im * im, the sum
    numpy's reduction gives for one element.
    """
    at = [step[3] for step in steps]
    # The targets and their spread about the mean, t_sum / m as a per-step pass takes it.
    if isinstance(at[0], complex):
        m = 1
        spread = [x - step[4] / m for x, step in zip(at, steps)]
        norms = ([x.real * x.real + x.imag * x.imag for x in xs] for xs in (at, spread))
    else:
        at = np.array(at)
        m = at.shape[1]
        spread = at - np.array([step[4] / m for step in steps])[:, None]
        norms = (
            (np.add.reduce(x.real * x.real, 1) + np.add.reduce(x.imag * x.imag, 1)).tolist()
            for x in (at, spread)
        )
    root_m, root_rest = math.sqrt(m), math.sqrt(rest)
    planes = []
    for (_, _, r, _, t_sum), (s, q), probability, spread in zip(steps, sums, *norms):
        total = s + rest * r + t_sum
        # Non-target part: sum |d - s/rest|^2 = q - |s|^2/rest; target part likewise.
        leakage = q - _square_abs(s) / rest + spread
        norm = probability + rest * _square_abs(r) + 2.0 * (r.conjugate() * s).real + q
        a_target, a_perp = t_sum / root_m, (total - t_sum) / root_rest
        planes.append(Plane(probability, a_target, a_perp, leakage, norm - 1.0, total))
    return planes


def _square_abs(z: complex) -> float:
    """abs(z) ** 2, but inf where Python would raise `OverflowError` for it."""
    try:
        return abs(z) ** 2
    except OverflowError:
        return math.inf


def measure(amps: np.ndarray, plan: BlockPlan) -> Plane:
    """The state against the target plane, in one read of the vector.

    It flags in `plan.clean` the blocks it finds exactly in the plane, which
    a `checked_steps` run from this state then leaves unread until it ends.
    """
    plan.clean[:] = [False] * len(plan.blocks)
    return _sweep(amps, plan, [_opening(amps, plan)])[0]


def _opening(amps: np.ndarray, plan: BlockPlan) -> tuple:
    """The step a `measure` of `amps` takes: no shift, and the vector's r and targets."""
    at = amps[plan.targets]
    return (None, 0j, complex(amps[plan.reference]), at, complex(at.sum()))


def uniform_start(oracle: OracleSpec) -> tuple[np.ndarray, BlockPlan, Plane]:
    """The uniform state as a `checked_steps` run starts from it: amplitudes, plan and `Plane`.

    Every block of the uniform state is clean, since its r = 2^{-n/2} + 0j
    has no -0.0 part, so a run from it reads only r and the targets until
    its closing fill writes every block.  Only those are written here; the
    rest of the vector is allocated unfilled.  The `Plane` is the one
    `measure` takes of the uniform state, whose off-plane sums are exactly
    zero.  The register is checked before anything is allocated.
    """
    check_qubits(oracle.n)
    amps = np.empty(2**oracle.n, dtype=complex)
    plan = block_plan(amps, oracle)
    r = amps.size**-0.5
    amps[plan.targets] = amps[plan.reference] = r
    plan.clean[:] = [True] * len(plan.blocks)
    plane = _planes([_opening(amps, plan)], [[0j, 0.0]], amps.size - plan.targets.size)[0]
    return amps, plan, plane


def checked_steps(
    amps: np.ndarray, schedule: Sequence[IterationParams], plan: BlockPlan, total: complex
) -> Iterator[Plane]:
    """Apply each G(beta, gamma) of `schedule` to `amps` in place, yielding each step's `Plane`.

    `total` is the sum of the amplitudes before the schedule, as `measure`
    or `uniform_start` returned it, and the run starts from the blocks they
    flagged clean in `plan`.  The oracle phase touches only the m targets and
    corrects the running sum into the diffusion mean, so each step's scalars
    come first, from the targets and the reference amplitude alone; a single
    target is one Python complex, more are an array.  The steps go in windows
    of up to `WINDOW`, and each cache-sized block that is not clean takes a
    window's steps in turn.  A window holds two arrays of m targets per step,
    so it is cut to at most a block's worth of target values, however large
    m is.  A clean block is not read again and is written once, when the
    schedule ends, from the start's r and targets if it is empty (see
    `_sweep`): a run from a state in the plane writes the vector only then,
    and reads no block.  Each window's planes are yielded when it is done,
    so a caller that stops at a failing check stops the run there; `amps`
    holds the state after the last step only once the generator is exhausted.

    A later window takes its scalars from the step before it, not from the
    vector, whose clean blocks are not yet written.  A later step's sum is
    its own targets and reference plus the off-plane sum s carried from its
    window's start.  s is exactly 0 in the plane, so that sum is the one a
    per-step pass would take; off the plane, s is invariant under G and the
    two differ only by rounding.
    """
    rest = amps.size - plan.targets.size
    if plan.targets.size == 1:
        # numpy sums one element as 0 + x, which turns a -0.0 part into +0.0.
        at, add = complex(amps[plan.targets[0]]), 0j.__add__
    else:
        at, add = amps[plan.targets], lambda x: complex(x.sum())
    r = complex(amps[plan.reference])
    length = min(WINDOW, max(1, BLOCK // plan.targets.size))
    # With no step, the clean blocks are settled from the start.
    step = (None, 0j, r, at, None)
    for start in range(0, len(schedule), length):
        window = schedule[start : start + length]
        carried = total - (rest * r + add(at))
        steps = []
        # e^{-i*beta} and e^{-i*gamma} of every step, in one call.
        phases = np.exp(-1j * np.fromiter(chain.from_iterable(window), float, 2 * len(window)))
        for e_beta, c in phases.reshape(-1, 2).tolist():
            # at * c as at * Re(c) + at * i Im(c), complex factors both, as numpy
            # takes them: each product is exact to one rounding per part even where
            # numpy's SIMD multiply fuses, so the bits do not depend on the kernels.
            phased = at * complex(c.real, 0.0) + at * complex(0.0, c.imag)
            mean = (total + add(phased - at)) / amps.size
            shift = (1.0 - e_beta) * mean
            # A zero shift is not subtracted: the vector keeps r and the phased targets.
            at = phased
            if shift:
                r, at = r - shift, phased - shift
            t_sum = add(at)
            total = carried + rest * r + t_sum
            steps.append((phased, shift, r, at, t_sum))
        planes = _sweep(amps, plan, steps)
        yield from planes
        step, total = steps[-1], planes[-1].total
    for flag, (lo, hi, offsets, part) in zip(plan.clean, plan.blocks):
        if flag:
            _settle(amps[lo:hi], offsets, part, step)


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
