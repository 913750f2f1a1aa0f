"""Parameter-schedule generators.

Produces the (beta, gamma) sequences this package can run: repeated Grover
steps, rejection-sampled random amplification schedules, the optimal
exact-search schedule, its delta-perturbed variants and Chebyshev
fixed-point schedules.  `build(kind, n, m, **settings)` reaches each of
them by kind name; the kind names are defined here and nowhere else.

The pi/3 fixed-point recursion is not a (beta, gamma) schedule.  It is
evaluated in closed form on the target plane: one scalar level loop builds
its 2x2 unitaries, `pi3_matrix` returns one of them, `pi3_queries` counts
its oracle calls and `pi3_series` tabulates both per depth.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from itertools import chain, count, islice
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .subspace import (
    IterationParams,
    advance,
    amplification_basis,
    amplification_terms,
    diffuse,
    initial_angles,
    optimal_angles,
    qaao_bound,
    wrap_pi,
)

GROVER = "grover"
RANDOM_QAAO = "random-qaao"
OPTIMAL = "optimal"
NOISY_OPTIMAL = "noisy-optimal"
FIXED_POINT = "fixed-point"
#: The pi/3 recursion's name in comparisons and on the command line.
PI3 = "pi3"

#: Error budget of a fixed-point schedule built without one (the reference table's).
FIXED_POINT_DELTA = 0.316

#: Longest schedule `grover_sequence` and `fixed_point_sequence` build from a
#: user-given length.  It is above the optimal schedule at n=32 (51,472 steps)
#: and the fixed-point length that meets FIXED_POINT_DELTA at n=32 (about
#: ln(2/delta) sqrt(N) / 2 = 60,463).
MAX_ITERATIONS = 2**16

#: Uniform values in the random-qaao sampler's first and largest blocks (even,
#: so that no (beta, gamma) pair straddles two blocks).  Each block doubles the
#: last, up to the size past which the cost per pair rose again.
_DRAW_BLOCK, _DRAW_BLOCK_MAX = 512, 2**13

#: Draws the random-qaao sampler makes for one step before it gives up.
MAX_DRAWS = 10_000


class StepRecord(NamedTuple):
    """One executed iteration; its fields are the CSV columns, in order.

    (theta_before, phi_before) is the state the iteration G(beta, gamma)
    acted on.  `qaao_flag` is True when the step amplified (positive
    increment); use `engine.classify` to re-annotate a trajectory with the
    strict coefficient predicate instead.
    """

    index: int
    theta_before: float
    phi_before: float
    beta: float
    gamma: float
    probability_after: float
    increment: float
    qaao_flag: bool
    cumulative_queries: int


@dataclass(frozen=True)
class ParameterSequence:
    """An ordered (beta, gamma) schedule of one kind for n qubits and m targets.

    `n` may be None for schedules that do not depend on the register size
    (the Chebyshev fixed-point family).  Only the generators set `steps`,
    the 2D trajectory they walked; copies and `dataclasses.replace` hold None.
    """

    params: tuple[IterationParams, ...]
    kind: str
    n: Optional[int] = None
    m: int = 1
    steps: Optional[tuple[StepRecord, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.kind not in BUILDERS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        object.__setattr__(self, "params", tuple(self.params))

    @property
    def queries_per_iteration(self) -> int:
        """Oracle queries charged per iteration when reporting query counts.

        A Chebyshev fixed-point iteration is charged 2, as in its source
        (Yoder, Low & Chuang 2014); every other kind 1.
        """
        return 2 if self.kind == FIXED_POINT else 1

    def __len__(self) -> int:
        return len(self.params)

    def __iter__(self) -> Iterator[IterationParams]:
        return iter(self.params)


class _Walk:
    """A schedule built step by step: its 2D state (theta, phi) and one StepRecord per step."""

    def __init__(self, n: int, m: int, queries: int = 1) -> None:
        self.theta0 = self.theta = initial_angles(n, m).theta
        self.phi, self.n, self.m, self.queries = 0.0, n, m, queries
        self.steps: list[StepRecord] = []

    def step(self, beta: float, gamma: float) -> None:
        """Apply G(beta, gamma) with `advance` and record the step."""
        theta, phi, index = self.theta, self.phi, len(self.steps) + 1
        self.theta, self.phi, delta = advance(beta, gamma, theta, phi, self.theta0)
        probability = math.sin(0.5 * self.theta) ** 2
        self.steps.append(StepRecord(
            index, theta, phi, beta, gamma, probability, delta, delta > 0.0, index * self.queries
        ))

    def sequence(self, kind: str) -> ParameterSequence:
        """The walked schedule, with its records attached."""
        params = tuple(IterationParams(s.beta, s.gamma) for s in self.steps)
        seq = ParameterSequence(params, kind, self.n, self.m)
        object.__setattr__(seq, "steps", tuple(self.steps))
        return seq


def trajectory(seq: ParameterSequence, n: int, m: int = 1) -> tuple[StepRecord, ...]:
    """One StepRecord per step of `seq`, run in the 2D model from the uniform state.

    Returns the records a generator walked for these n and m, else walks `seq`.
    """
    if seq.steps is not None and (seq.n, seq.m) == (n, m):
        return seq.steps
    walk = _Walk(n, m, seq.queries_per_iteration)
    for params in seq.params:
        walk.step(params.beta, params.gamma)
    return tuple(walk.steps)


def k_star(n: int, m: int = 1) -> int:
    """Optimal number of standard amplification steps before the closing step."""
    return math.floor(math.pi * math.sqrt(2**n / m) / 4.0 - 0.5)


def generate_qaao_sequence(n: int, m: int = 1, c: float = 1.5, seed: int = 0) -> ParameterSequence:
    """Rejection-sample a sequence of amplifying iterations, then close exactly.

    Draws (beta, gamma) uniformly on [-pi, pi]^2 and keeps a draw only when
    the amplification coefficient at the currently evolved state exceeds
    c/sqrt(N), until the state enters the closing region; the exact optimal
    step is then appended, which drives the target probability to 1.  A bound
    that no (beta, gamma, phi) beats raises RuntimeError before any draw, and
    so does a step that finds no amplifying draw in MAX_DRAWS.
    Deterministic for a fixed seed.

    The draws come in doubling blocks from one generator and are consumed in
    (beta, gamma) pairs in stream order, so the schedule is the one that
    per-pair `rng.uniform(-pi, pi, 2)` calls give.  A pair whose b from
    `amplification_basis` reads more than 1e-12 below the bound is rejected
    on that one multiply-add; `amplification_terms` decides the rest.
    """
    walk = _Walk(n, m)
    big_n = 2**n
    bound = qaao_bound(c, big_n)
    rng = np.random.default_rng(seed)
    sizes = (min(_DRAW_BLOCK << k, _DRAW_BLOCK_MAX) for k in count())
    pairs = chain.from_iterable(zip(*_draw_block(rng, walk.theta0, size)) for size in sizes)
    cos_theta0, sin_theta0 = math.cos(walk.theta0), math.sin(walk.theta0)
    # The largest b over (beta, gamma, phi): sin(2 theta0)/2 up to theta0 = pi/4, else 1/2.
    most = 0.5 * math.sin(2.0 * min(walk.theta0, 0.25 * math.pi))
    if walk.theta < math.pi - 2.0 * walk.theta0 and bound >= most:
        raise RuntimeError(
            f"no amplifying parameters exist: c={c} asks for b > {bound!r} "
            f"at N={big_n}, but b is at most {most!r}"
        )
    # The two forms of b differ by about 1e-15; the bound is above 1.5e-5.
    loose = bound - 1e-12
    while walk.theta < math.pi - 2.0 * walk.theta0:
        sin_phi, cos_phi = math.sin(walk.phi), math.cos(walk.phi)
        for beta, gamma, p, q in islice(pairs, MAX_DRAWS):
            if sin_phi * p + cos_phi * q > loose and amplification_terms(
                beta, gamma, walk.phi, cos_theta0, sin_theta0
            )[1] > bound:
                break
        else:
            raise RuntimeError(
                f"no amplifying parameters found in {MAX_DRAWS} draws; "
                f"c={c} is likely too demanding for N={big_n}"
            )
        walk.step(beta, gamma)
    walk.step(*optimal_angles(walk.theta, walk.phi, walk.theta0))
    return walk.sequence(RANDOM_QAAO)


def _draw_block(rng, theta0: float, size: int = _DRAW_BLOCK) -> tuple[list[float], ...]:
    """The next size // 2 pairs: lists beta, gamma, P = b(pi/2), Q = b(0)."""
    beta, gamma = rng.uniform(-math.pi, math.pi, size).reshape(-1, 2).T
    p, q = amplification_basis(beta, gamma, theta0)
    return beta.tolist(), gamma.tolist(), p.tolist(), q.tolist()


def optimal_sequence(n: int, m: int = 1) -> ParameterSequence:
    """The exact optimal schedule: K* standard steps plus one closing step.

    Valid in the regime 4*m <= N.  The closing parameters are computed at
    the evolved state and drive the target probability to exactly 1.
    """
    walk = _Walk(n, m)
    if 4 * m > 2**n:
        raise ValueError(f"need 4*m <= 2^n, got m={m}, n={n}")
    for _ in range(k_star(n, m)):
        walk.step(math.pi, wrap_pi(walk.phi - math.pi))
    walk.step(*optimal_angles(walk.theta, walk.phi, walk.theta0))
    return walk.sequence(OPTIMAL)


def noisy_optimal_sequence(
    n: int, delta: float, seed: int = 0, m: int = 1
) -> ParameterSequence:
    """The optimal schedule with each step's parameters offset by up to delta.

    Models imprecise preparation of the optimal parameters: every iteration
    computes the optimal (beta, gamma) at the state actually reached so far
    and applies one shared pulse error drawn uniformly from [-delta, delta]
    to both angles.  Offsetting beta and gamma together preserves their
    phase relation, which is what keeps the schedule robust; perturbing the
    two independently decoheres the relative phase and loses the target
    state for delta beyond roughly 0.1*pi.  On the ideal trajectory the
    leading parameters are (pi, pi) (mod 2*pi), so for small delta the
    draws stay inside [pi - delta, pi + delta] as in the noiseless case.
    """
    walk = _Walk(n, m)
    if not 0.0 <= delta < 0.5 * math.pi:
        raise ValueError(f"delta must lie in [0, pi/2), got {delta}")
    if 4 * m > 2**n:
        raise ValueError(f"need 4*m <= 2^n, got m={m}, n={n}")
    # One draw per step, in one call: the values of per-step scalar draws.
    errors = np.random.default_rng(seed).uniform(-delta, delta, k_star(n, m) + 1).tolist()
    for error in errors:
        beta, gamma = optimal_angles(walk.theta, walk.phi, walk.theta0)
        walk.step(wrap_pi(beta + error), wrap_pi(gamma + error))
    return walk.sequence(NOISY_OPTIMAL)


def fixed_point_sequence(length: int, delta: float) -> ParameterSequence:
    """Chebyshev fixed-point schedule of a given length and error budget.

    With l = 2*length + 1 and eta^{-1} = T_{1/l}(1/delta) (the fractional
    Chebyshev value, computed as cosh(arccosh(1/delta)/l)):

        beta_i  = 2 * arccot( tan(2*pi*i / l) * sqrt(1 - eta^2) )
        gamma_i = beta_{length - i + 1}

    on the arccot branch with values in (-pi, pi).  Running the schedule
    keeps the final target probability above 1 - delta^2 once the length is
    large enough.  The schedule itself is independent of the register size.
    """
    if length < 1:
        raise ValueError(f"need at least one iteration, got {length}")
    if length > MAX_ITERATIONS:
        raise ValueError(f"need at most {MAX_ITERATIONS} iterations, got {length}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    odd = 2 * length + 1
    spread = math.tanh(math.acosh(1.0 / delta) / odd)  # sqrt(1 - eta^2), without cancellation
    betas = [
        2.0 * math.atan(1.0 / (math.tan(2.0 * math.pi * i / odd) * spread))
        for i in range(1, length + 1)
    ]
    params = tuple(map(IterationParams, betas, reversed(betas)))
    return ParameterSequence(params=params, kind=FIXED_POINT)


def grover_sequence(n: int, m: int = 1, steps: int = 1) -> ParameterSequence:
    """`steps` standard Grover iterations G(pi, pi), at least one."""
    initial_angles(n, m)  # the n and m checks every other generator makes
    if steps < 1:
        raise ValueError(f"need at least one step, got {steps}")
    if steps > MAX_ITERATIONS:
        raise ValueError(f"need at most {MAX_ITERATIONS} steps, got {steps}")
    params = (IterationParams(math.pi, math.pi),) * steps
    return ParameterSequence(params=params, kind=GROVER, n=n, m=m)


#: Every schedule kind, in the order the command line lists them, with its
#: builder(n, m, **settings).  Builders ignore settings they do not use, so
#: one settings set drives every kind; a fixed-point delta of 0 (no budget
#: given) means FIXED_POINT_DELTA.
BUILDERS = {
    GROVER: lambda n, m, steps=1, **_: grover_sequence(n, m, steps),
    RANDOM_QAAO: lambda n, m, c=1.5, seed=0, **_: generate_qaao_sequence(
        n, m, c=c, seed=seed
    ),
    OPTIMAL: lambda n, m, **_: optimal_sequence(n, m),
    NOISY_OPTIMAL: lambda n, m, delta=0.0, seed=0, **_: noisy_optimal_sequence(
        n, delta, seed=seed, m=m
    ),
    FIXED_POINT: lambda n, m, length=21, delta=0.0, **_: fixed_point_sequence(
        length, delta or FIXED_POINT_DELTA
    ),
}


def build(kind: str, n: int, m: int = 1, **settings) -> ParameterSequence:
    """The schedule of a registered kind for n qubits and m targets.

    Settings: `seed`, `c` (random-qaao), `delta` (noisy-optimal,
    fixed-point), `length` (fixed-point) and `steps` (grover).
    """
    if kind not in BUILDERS:
        raise ValueError(f"unknown schedule kind {kind!r}")
    return BUILDERS[kind](n, m, **settings)


# --- pi/3 fixed-point recursion -------------------------------------------
#
# Level d+1 wraps level d as U_{d+1} = U_d S_s U_d^dag S_t U_d, with U_0 = 1.
# S_t = e^{i pi/3 |t><t|} costs one oracle query and S_s = e^{i pi/3 |s0><s0|}
# is the diffusion D(-pi/3).  Each level calls the previous one three times,
# so depth d makes (3^d - 1) / 2 queries and fails with probability
# epsilon^(3^d), epsilon the initial failure probability.

_PI3 = -math.pi / 3.0  # e^{+i pi/3} phases give the cubic error reduction

MAX_PI3_DEPTH = 8


def _check_pi3_depth(depth: int) -> None:
    if not 0 <= depth <= MAX_PI3_DEPTH:
        raise ValueError(f"depth must lie in [0, {MAX_PI3_DEPTH}], got {depth}")


def pi3_queries(depth: int) -> int:
    """Oracle queries of the depth-d pi/3 program: (3^d - 1) / 2."""
    _check_pi3_depth(depth)
    return (3**depth - 1) // 2


#: A 2x2 matrix ((u00, u01), (u10, u11)) on the (|t>, |t_perp>) basis.
_Matrix2 = tuple[tuple[complex, complex], tuple[complex, complex]]


def _mul(x: _Matrix2, y: _Matrix2) -> _Matrix2:
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _pi3_levels(max_depth: int, theta0: float) -> Iterator[_Matrix2]:
    """U_0, U_1, ..., U_max_depth, each built once from the one before."""
    _check_pi3_depth(max_depth)
    s_t = ((cmath.exp(-1j * _PI3), 0j), (0j, 1 + 0j))
    # D is symmetric, so its columns D|t> and D|t_perp> are also its rows.
    s_s = (diffuse(_PI3, theta0, 1.0, 0.0), diffuse(_PI3, theta0, 0.0, 1.0))
    u = ((1 + 0j, 0j), (0j, 1 + 0j))
    yield u
    for _ in range(max_depth):
        (a, b), (c, d) = u
        u_dagger = ((a.conjugate(), c.conjugate()), (b.conjugate(), d.conjugate()))
        u = _mul(_mul(_mul(_mul(u, s_s), u_dagger), s_t), u)
        yield u


def pi3_matrix(depth: int, theta0: float) -> _Matrix2:
    """2x2 unitary U_depth of the pi/3 program on the (|t>, |t_perp>) basis.

    Built from U_0 = 1 by the recursion, four 2x2 products per level.
    """
    *_, u = _pi3_levels(depth, theta0)
    return u


def _pi3_probabilities(u: _Matrix2, theta0: float) -> tuple[float, float]:
    """(|a_t|^2, |a_perp|^2) of U|s0>.

    Both are divided by their sum, so that they add up to 1 to rounding; the
    2x2 products lose up to about 1e-13 of the norm by depth 8.
    """
    s_t, s_perp = math.sin(0.5 * theta0), math.cos(0.5 * theta0)
    (a, b), (c, d) = u
    p_target, p_perp = abs(a * s_t + b * s_perp) ** 2, abs(c * s_t + d * s_perp) ** 2
    norm = p_target + p_perp
    return p_target / norm, p_perp / norm


def pi3_failure_probability(depth: int, theta0: float) -> float:
    """1 - (target probability) after running the depth-d program from |s0>.

    Equals epsilon^(3^d) with epsilon the initial failure probability.  It is
    read off the |t_perp> amplitude, not as 1 - |a_t|^2, so it does not
    cancel against 1; below about 1e-10 the rounding of the 2x2 products
    sets the floor (relative error 3e-8 at n=8, depth 8, value 7e-12).
    """
    return _pi3_probabilities(pi3_matrix(depth, theta0), theta0)[1]


def pi3_series(theta0: float, max_depth: int = MAX_PI3_DEPTH) -> list[dict]:
    """Oracle queries and success probability of every depth 0..max_depth.

    The probability is read off the |t> amplitude, so a small one keeps its
    relative precision; it and pi3_failure_probability add up to 1.
    """
    return [
        {
            "depth": depth,
            "queries": pi3_queries(depth),
            "probability": _pi3_probabilities(u, theta0)[0],
        }
        for depth, u in enumerate(_pi3_levels(max_depth, theta0))
    ]
