"""Analytic model of amplitude amplification restricted to the target plane.

Every iteration G(beta, gamma) = D(beta) R(gamma) built from the uniform
initial state preserves the two-dimensional subspace spanned by the target
state |t> and the normalized non-target component |t_perp> of the initial
state.  Inside that plane a state is a pair of angles (theta, phi) with
target probability sin^2(theta/2), and one iteration is a 2x2 unitary.
This module implements the exact dynamics: increments, the QAAO predicate,
optimal parameters, and the geometry of the positive-increment region.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

#: Tolerance for algebraic identities evaluated in double precision.
ALGEBRAIC_TOL = 1e-12
#: Largest |beta| and |gamma| that IterationParams accepts.
_ANGLE_LIMIT = math.pi + ALGEBRAIC_TOL

#: Gauge cutoff: below this squared amplitude the relative phase is undefined.
_POLE_EPS = 1e-300

#: Largest register the model accepts: K* is about 51k steps at n = 32, and
#: 2^n must stay a float for the predicate bound c / sqrt(N).
MAX_QUBITS = 32


class ModelConsistencyError(RuntimeError):
    """Closed-form and matrix-product increments disagree beyond tolerance.

    This signals an implementation defect, not a bad input.
    """


def wrap_pi(angle: float) -> float:
    """Reduce an angle to [-pi, pi] (pi maps to -pi)."""
    return (angle + math.pi) % TWO_PI - math.pi


@dataclass(frozen=True)
class StateAngles:
    """Position (theta, phi) of a state in the target/complement plane.

    The state is e^{i*phi} sin(theta/2) |t> + cos(theta/2) |t_perp>, so the
    target probability is sin^2(theta/2).  phi is stored in [0, 2*pi); at
    the poles theta = 0, pi the phase is gauge and fixed to 0.
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        if not -ALGEBRAIC_TOL <= self.theta <= math.pi + ALGEBRAIC_TOL:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not math.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi}")
        object.__setattr__(self, "theta", min(max(self.theta, 0.0), math.pi))
        object.__setattr__(self, "phi", self.phi % TWO_PI)

    @property
    def target_probability(self) -> float:
        return math.sin(0.5 * self.theta) ** 2


def _plane_angles(a_target: complex, a_perp: complex) -> tuple[float, float]:
    """(theta, phi) of an amplitude pair as StateAngles stores them."""
    r_t = abs(a_target)
    r_p = abs(a_perp)
    theta = 2.0 * math.atan2(r_t, r_p)
    if r_t * r_t < _POLE_EPS or r_p * r_p < _POLE_EPS:
        return theta, 0.0
    # Wrapped twice, as StateAngles(theta, phi % TWO_PI) stores it:
    # a phase a hair below 0 wraps to 2*pi itself, and the second wrap maps that to 0.
    return theta, (cmath.phase(a_target) - cmath.phase(a_perp)) % TWO_PI % TWO_PI


class IterationParams(NamedTuple("IterationParams", [("beta", float), ("gamma", float)])):
    """One iteration G(beta, gamma) as an immutable, validated named tuple of floats."""

    __slots__ = ()

    def __new__(cls, beta: float, gamma: float) -> "IterationParams":
        beta_ok = -_ANGLE_LIMIT <= beta <= _ANGLE_LIMIT
        if not (beta_ok and -_ANGLE_LIMIT <= gamma <= _ANGLE_LIMIT):
            name, value = ("gamma", gamma) if beta_ok else ("beta", beta)
            raise ValueError(f"{name} must lie in [-pi, pi], got {value}")
        return tuple.__new__(cls, (float(beta), float(gamma)))

    # `_replace` builds through `_make`, so both validate as construction does.
    _make = classmethod(lambda cls, iterable: cls(*iterable))


def initial_angles(n: int, m: int = 1) -> StateAngles:
    """Angles of the uniform superposition over n qubits with m targets.

    theta_0 = 2*arcsin(sqrt(m/N)), phi_0 = 0, for integers 1 <= n <= MAX_QUBITS, 1 <= m < N = 2^n.
    """
    n, m = operator.index(n), operator.index(m)
    if n < 1:
        raise ValueError(f"need at least one qubit, got n={n}")
    if n > MAX_QUBITS:
        raise ValueError(f"qubit count must be at most {MAX_QUBITS}, got n={n}")
    big_n = 2**n
    if not 1 <= m < big_n:
        raise ValueError(f"target count must satisfy 1 <= m < 2^n, got m={m}")
    return StateAngles(2.0 * math.asin(math.sqrt(m / big_n)), 0.0)


def amplification_terms(
    beta: float, gamma: float, phi: float, cos_theta0: float, sin_theta0: float
) -> tuple[float, float, float]:
    """Closed-form coefficients (a, b, c) of the increment Delta = a*cos(theta) + b*sin(theta).

    With varphi = phi - gamma, reduced to [0, 2*pi):
        c = cos(beta/2) sin(varphi) + sin(beta/2) cos(varphi) cos(theta0)
        b = -c sin(beta/2) sin(theta0)
        a = sin^2(beta/2) sin^2(theta0)

    The one scalar form (`amplification_basis` is the vectorized b): `advance`
    checks its increment against it, and the random-schedule sampler,
    `engine.classify` and the CLI read b here for the test b > qaao_bound(c, N).
    """
    varphi = (phi - gamma) % TWO_PI
    half = 0.5 * beta
    sin_half = math.sin(half)
    c = math.cos(half) * math.sin(varphi) + sin_half * math.cos(varphi) * cos_theta0
    return sin_half**2 * sin_theta0**2, -c * sin_half * sin_theta0, c


def amplification_basis(
    beta: np.ndarray, gamma: np.ndarray, theta0: float
) -> tuple[np.ndarray, np.ndarray]:
    """The one vectorized b(beta, gamma): the arrays P = b(phi = pi/2) and Q = b(phi = 0).

    b is linear in (sin(phi), cos(phi)), so b(phi) = sin(phi) * P + cos(phi) * Q.
    Temporaries are summed in place and dropped once read, so at most seven
    arrays of the broadcast size are alive at once.
    """
    half = 0.5 * np.asarray(beta)
    sin_half, cos_half = np.sin(half), np.cos(half)
    sin_gamma, cos_gamma = np.sin(gamma), np.cos(gamma)
    scale, tilt = -sin_half * math.sin(theta0), sin_half * math.cos(theta0)
    del half, sin_half
    p = cos_half * cos_gamma
    p += tilt * sin_gamma
    q = tilt * cos_gamma
    del tilt, cos_gamma
    q -= cos_half * sin_gamma
    p *= scale
    q *= scale
    return p, q


def amplification_coefficient(
    beta: np.ndarray, gamma: np.ndarray, phi: float, theta0: float
) -> np.ndarray:
    """Vectorized b(beta, gamma): the O(N^{-1/2}) increment coefficient.

    Broadcasts over arrays of beta and gamma for grid and Monte Carlo use.
    """
    p, q = amplification_basis(beta, gamma, theta0)
    return math.sin(phi) * p + math.cos(phi) * q


def diffuse(beta: float, theta0: float, a_t: complex, a_perp: complex) -> tuple[complex, complex]:
    """D(beta) on the amplitude pair (a_t, a_perp): the phase rotation about |s0>.

    D(beta) = 1 - (1 - e^{-i*beta}) |s0><s0| with |s0> = (sin(theta0/2), cos(theta0/2)).
    """
    s_t, s_perp = math.sin(0.5 * theta0), math.cos(0.5 * theta0)
    overlap = (1.0 - cmath.exp(-1j * beta)) * (s_t * a_t + s_perp * a_perp)
    return a_t - overlap * s_t, a_perp - overlap * s_perp


def advance(
    beta: float, gamma: float, theta: float, phi: float, theta0: float
) -> tuple[float, float, float]:
    """One iteration G(beta, gamma) on plain floats: (theta, phi) after it and the increment.

    R(gamma) multiplies the target amplitude of the pair (a_t, a_perp) by
    e^{-i*gamma}, then `diffuse` applies D(beta); the global phase is
    discarded.  The increment, the change in target probability, must agree
    with the closed form a*cos(theta) + b*sin(theta) of `amplification_terms`
    to ALGEBRAIC_TOL or a ModelConsistencyError is raised, as it is when
    either is NaN.  The angles are not validated; callers check outside
    input with `StateAngles` and `IterationParams`.
    """
    half = 0.5 * theta
    sin_half = math.sin(half)
    a_t = cmath.exp(-1j * gamma) * (cmath.exp(1j * phi) * sin_half)
    a_t, a_perp = diffuse(beta, theta0, a_t, math.cos(half))
    matrix = abs(a_t) ** 2 - sin_half**2
    a, b, _ = amplification_terms(beta, gamma, phi, math.cos(theta0), math.sin(theta0))
    closed = a * math.cos(theta) + b * math.sin(theta)
    if not (abs(matrix - closed) <= ALGEBRAIC_TOL):
        raise ModelConsistencyError(
            f"closed-form increment {closed!r} deviates from matrix value {matrix!r} at "
            f"beta={beta!r}, gamma={gamma!r}, theta={theta!r}, phi={phi!r}, theta0={theta0!r}"
        )
    return (*_plane_angles(a_t, a_perp), matrix)


def qaao_bound(c: float, n_states: int) -> float:
    """The threshold c / sqrt(N) that b must exceed for an iteration to count as QAAO.

    The predicate b(beta, gamma) > c / sqrt(N) is defined for finite c > 1 only.
    """
    if not 1.0 < c < math.inf:
        raise ValueError(f"the predicate constant must be finite and exceed 1, got c={c}")
    return c / math.sqrt(n_states)


def optimal_angles(theta: float, phi: float, theta0: float) -> tuple[float, float]:
    """(beta, gamma) maximizing the increment at (theta, phi), on plain floats.

    For theta < pi - 2*theta0 the optimum is the standard amplification step
    (beta = pi, gamma = phi - pi).  Closer to the target the optimum is

        beta* = 2*arcsin(cos(theta/2) / sin(theta0)),
        gamma* = phi + pi - arctan(cot(beta*/2) sec(theta0)),

    and applying it drives the target probability to exactly 1.
    """
    if theta < math.pi - 2.0 * theta0:
        return math.pi, wrap_pi(phi - math.pi)
    ratio = math.cos(0.5 * theta) / math.sin(theta0)
    beta = 2.0 * math.asin(min(max(ratio, -1.0), 1.0))
    half = 0.5 * beta
    # arctan(cot(beta/2) sec(theta0)) on the principal branch; the atan2 form
    # is exact at beta = 0 where the cotangent diverges.
    correction = math.atan2(math.cos(half), math.sin(half) * math.cos(theta0))
    return beta, wrap_pi(phi + math.pi - correction)


def region_boundary(beta: float, theta0: float) -> float:
    """The root varphi in (0, pi] of c(beta, varphi) = 0.

    The sign of b flips across this curve; the second root sits exactly pi
    away, so for every fixed beta != 0 the positive-b set of gamma has
    measure pi out of 2*pi.
    """
    half = 0.5 * beta
    if abs(math.sin(half)) < ALGEBRAIC_TOL:
        raise ValueError("the boundary is undefined at beta = 0 (b vanishes)")
    varphi = math.atan2(-math.sin(half) * math.cos(theta0), math.cos(half))
    varphi %= math.pi
    return math.pi if varphi == 0.0 else varphi


def qaao_region_fraction(
    state: StateAngles,
    theta0: float,
    samples: int,
    seed: int,
    threshold: float = 0.0,
) -> float:
    """Monte Carlo measure fraction of (beta, gamma) in [-pi, pi]^2 with b > threshold.

    Deterministic for a fixed seed.  The default threshold 0 estimates the
    half-measure amplification region; pass c/sqrt(N) for the strict predicate.
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    rng = np.random.default_rng(seed)
    beta = rng.uniform(-math.pi, math.pi, samples)
    gamma = rng.uniform(-math.pi, math.pi, samples)
    b = amplification_coefficient(beta, gamma, state.phi, theta0)
    return float(np.mean(b > threshold))
