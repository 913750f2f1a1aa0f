"""numpy references that the scalar and in-place library code is checked against.

The library computes the target-plane model on scalar complex pairs
(`subspace.advance`, the pi/3 level loop) and the dense model on one buffer
(`statevector.iterate_in_place`).  These are the textbook forms: explicit
2x2 matrices, the vectorized closed-form increment, the 2D step on
`StateAngles` and `IterationParams` objects with the textbook a, b and c,
and dense iterations on a copy.
"""

import cmath
import math

import numpy as np

from qaa.statevector import StateVector, iterate_in_place
from qaa.subspace import (
    IterationParams,
    StateAngles,
    amplification_coefficient,
    diffuse,
    wrap_2pi,
)


def amplitudes(state: StateAngles) -> np.ndarray:
    """Complex pair (<t|s>, <t_perp|s>)."""
    return np.array(
        [np.exp(1j * state.phi) * math.sin(0.5 * state.theta), math.cos(0.5 * state.theta)]
    )


def diffusion_matrix(beta: float, theta0: float) -> np.ndarray:
    """2x2 phase rotation D(beta) about |s0> on the ordered basis (|t>, |t_perp>).

    D(beta) = 1 - (1 - e^{-i*beta}) |s0><s0| with |s0> = (sin(theta0/2), cos(theta0/2)).
    """
    s0 = np.array([math.sin(0.5 * theta0), math.cos(0.5 * theta0)])
    return np.eye(2, dtype=complex) - (1.0 - np.exp(-1j * beta)) * np.outer(s0, s0)


def iteration_matrix(params: IterationParams, theta0: float) -> np.ndarray:
    """2x2 unitary of G(beta, gamma) = D(beta) R(gamma) on (|t>, |t_perp>)."""
    oracle = np.diag([np.exp(-1j * params.gamma), 1.0])
    return diffusion_matrix(params.beta, theta0) @ oracle


def object_step(
    params: IterationParams, state: StateAngles, theta0: float
) -> tuple[StateAngles, float, float]:
    """One 2D step through objects: (angles after it, matrix increment, closed form).

    R(gamma), then `diffuse`, the closed form a*cos(theta) + b*sin(theta)
    from the textbook coefficients with varphi = phi - gamma, and the angles
    read back as `StateAngles.from_amplitudes` reads them.
    """
    half = 0.5 * state.theta
    a_t = cmath.exp(-1j * params.gamma) * (cmath.exp(1j * state.phi) * math.sin(half))
    a_t, a_perp = diffuse(params.beta, theta0, a_t, math.cos(half))
    matrix = abs(a_t) ** 2 - state.target_probability
    varphi = state.phi - params.gamma
    sin_half_beta = math.sin(0.5 * params.beta)
    c = (
        math.cos(0.5 * params.beta) * math.sin(varphi)
        + sin_half_beta * math.cos(varphi) * math.cos(theta0)
    )
    a = sin_half_beta**2 * math.sin(theta0) ** 2
    b = -c * sin_half_beta * math.sin(theta0)
    closed = a * math.cos(state.theta) + b * math.sin(state.theta)
    r_t, r_p = abs(a_t), abs(a_perp)
    theta = 2.0 * math.atan2(r_t, r_p)
    if r_t * r_t < 1e-300 or r_p * r_p < 1e-300:
        return StateAngles(theta, 0.0), matrix, closed
    phi = wrap_2pi(cmath.phase(a_t) - cmath.phase(a_perp))
    return StateAngles(theta, phi), matrix, closed


def closed_form_increment(beta, gamma, theta: float, phi: float, theta0: float) -> np.ndarray:
    """Vectorized increment Delta = a*cos(theta) + b*sin(theta)."""
    a = np.sin(0.5 * np.asarray(beta)) ** 2 * math.sin(theta0) ** 2
    b = amplification_coefficient(beta, gamma, phi, theta0)
    return a * math.cos(theta) + b * math.sin(theta)


def apply_iteration(state: StateVector, params: IterationParams, oracle) -> StateVector:
    """One dense iteration G(beta, gamma) on a copy of `state`."""
    out = StateVector(state.n, state.amplitudes.copy())
    iterate_in_place(out, params, oracle)
    return out


def norm_defect(state: StateVector) -> float:
    """|<s|s> - 1| of a dense state."""
    return abs(float(np.sum(np.abs(state.amplitudes) ** 2)) - 1.0)
