"""numpy references that the scalar and in-place library code is checked against.

The library computes the target-plane model on scalar complex pairs
(`subspace.advance`, the pi/3 level loop) and the dense model in one checked
blocked pass per window of steps (`statevector.checked_steps`).  These are
the textbook forms: explicit 2x2 matrices, the vectorized closed-form
increment and its direct P and Q, the 2D step on `StateAngles` and
`IterationParams` objects with the textbook a, b and c, the naive dense
iteration (in place, on a copy and over a whole schedule), the naive target
probability, and the checked step that makes one pass per step and sums
every block.
It also holds the helpers only tests read (the CSV header line, the [0, 2*pi)
wrap, the angles of an amplitude pair and a trajectory's probabilities), the
trajectory serializers that write one cell or one dict at a time, the closed
forms each written once (K*, the probability after k standard steps and the
final probability of the fixed-point schedule), and the published reference
trajectory of the 8-qubit fixed-point schedule.
"""

import cmath
import json
import math

import numpy as np

from qaa import subspace
from qaa.engine import Trajectory
from qaa.schedules import StepRecord
from qaa.statevector import BlockPlan, OracleSpec, Plane, uniform_state
from qaa.subspace import IterationParams, StateAngles, amplification_coefficient, diffuse

#: The CSV header line: the `StepRecord` fields in order.
CSV_HEADER = ",".join(StepRecord._fields)


def wrap_2pi(angle: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    return angle % (2.0 * math.pi)


def from_amplitudes(a_target: complex, a_perp: complex) -> StateAngles:
    """Angles of a_target |t> + a_perp |t_perp>, global phase discarded."""
    return StateAngles(*subspace._plane_angles(a_target, a_perp))


def probabilities(traj: Trajectory) -> list[float]:
    """The target probability after each step of a trajectory."""
    return [s.probability_after for s in traj.steps]


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
    read back as `from_amplitudes` reads them.
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


def direct_amplification_basis(beta, gamma, theta0: float) -> tuple[np.ndarray, np.ndarray]:
    """`subspace.amplification_basis` as one expression per coefficient, every temporary kept."""
    half = 0.5 * np.asarray(beta)
    sin_half, cos_half = np.sin(half), np.cos(half)
    sin_gamma, cos_gamma = np.sin(gamma), np.cos(gamma)
    scale, tilt = -sin_half * math.sin(theta0), sin_half * math.cos(theta0)
    p = (cos_half * cos_gamma + tilt * sin_gamma) * scale
    q = (tilt * cos_gamma - cos_half * sin_gamma) * scale
    return p, q


def iterate_in_place(amps: np.ndarray, params: IterationParams, oracle: OracleSpec) -> None:
    """Apply G(beta, gamma) to the amplitudes `amps`, overwriting them.

    R(gamma) multiplies every target amplitude by e^{-i*gamma}; D(beta), the phase
    rotation about the uniform state, is the exact rank-1 update a -= (1 - e^{-i*beta}) * mean.
    """
    amps[oracle.target_indices()] *= np.exp(-1j * params.gamma)
    amps -= (1.0 - np.exp(-1j * params.beta)) * (amps.sum() / amps.size)


def evolve(seq, oracle: OracleSpec) -> np.ndarray:
    """The uniform state after every iteration of `seq`, in order."""
    state = uniform_state(oracle.n)
    for params in seq:
        iterate_in_place(state, params, oracle)
    return state


def apply_iteration(state: np.ndarray, params: IterationParams, oracle) -> np.ndarray:
    """One dense iteration G(beta, gamma) on a copy of `state`."""
    out = state.copy()
    iterate_in_place(out, params, oracle)
    return out


def target_probability(state: np.ndarray, oracle: OracleSpec) -> float:
    """Sum of |a_t|^2 over the target amplitudes of a dense state."""
    return float(np.sum(np.abs(state[oracle.target_indices()]) ** 2))


def checked_step(
    amps: np.ndarray, params: IterationParams, plan: BlockPlan, total: complex
) -> Plane:
    """`statevector.checked_steps` one step per pass, over `reference_sweep`.

    `total` is the sum of the amplitudes before the step, as the last
    `measure` or `checked_step` returned it.  The oracle phase writes the m
    targets first and corrects `total` into the diffusion mean.
    """
    before = amps[plan.targets]
    c = complex(np.exp(-1j * params.gamma))
    # The library kernel's product: one rounding per real product and per sum.
    after = before * c.real + before * complex(0.0, c.imag)
    amps[plan.targets] = after
    mean = (total + complex((after - before).sum())) / amps.size
    return reference_sweep(amps, plan, (1.0 - np.exp(-1j * params.beta)) * mean)


def reference_sweep(amps: np.ndarray, plan: BlockPlan, shift: complex) -> Plane:
    """Subtract `shift` from every amplitude and measure the result, summing every block.

    `statevector` sums a block's differences only where one is nonzero;
    this sums them whatever they are.
    """
    r = complex(amps[plan.reference] - shift)
    s, q = 0j, 0.0
    for lo, hi, offsets, _ in plan.blocks:
        block = amps[lo:hi]
        if shift:
            np.subtract(block, shift, out=block)
        diff = plan.scratch[: hi - lo]
        np.subtract(block, r, out=diff)
        if offsets is not None:
            diff[offsets] = 0.0
        s += complex(diff.sum())
        flat = diff.view(np.float64)
        q += float(flat @ flat)
    at = amps[plan.targets]
    m = at.size
    rest = amps.size - m
    t_sum = complex(at.sum())
    total = s + rest * r + t_sum
    probability = float(np.sum(at.real**2) + np.sum(at.imag**2))
    spread = at - t_sum / m
    leakage = q - abs(s) ** 2 / rest + float(np.sum(spread.real**2) + np.sum(spread.imag**2))
    norm = probability + rest * abs(r) ** 2 + 2.0 * (r.conjugate() * s).real + q
    return Plane(
        probability,
        t_sum / math.sqrt(m),
        (total - t_sum) / math.sqrt(rest),
        leakage,
        norm - 1.0,
        total,
    )


def norm_defect(state: np.ndarray) -> float:
    """|<s|s> - 1| of a dense state."""
    return abs(float(np.sum(np.abs(state) ** 2)) - 1.0)


def cellwise_csv(traj: Trajectory) -> str:
    """`Trajectory.to_csv` one cell at a time: %.6f, %d and the O/X flag."""

    def cell(value) -> str:
        if isinstance(value, bool):
            return "XO"[value]
        return "%d" % value if isinstance(value, int) else "%.6f" % value

    lines = [",".join(StepRecord._fields)] + [",".join(map(cell, s)) for s in traj.steps]
    return "\n".join(lines) + "\n"


def dict_rows_json(traj: Trajectory) -> str:
    """`Trajectory.to_json` as one `json.dumps` of a payload with one dict per step."""
    payload = {
        "n": traj.n,
        "m": traj.m,
        "kind": traj.kind,
        "final_probability": traj.final_probability,
        "turning_index": traj.turning_index,
        "steps": [s._asdict() for s in traj.steps],
    }
    return json.dumps(payload, sort_keys=True)


# --- closed forms of exact search -------------------------------------------


def grover_k_star(n: int, m: int = 1) -> int:
    """Standard steps before the closing step of exact search: floor(pi/4 sqrt(N/m) - 1/2)."""
    return math.floor(math.pi / 4.0 * math.sqrt(2**n / m) - 0.5)


def grover_probability(k, n: int, m: int = 1):
    """Target probability after k standard steps: sin^2((2k + 1) asin(sqrt(m/N))).

    k may be an int or an integer array.
    """
    return np.sin((2 * np.asarray(k) + 1) * math.asin(math.sqrt(m / 2**n))) ** 2


def fixed_point_probability(length: int, delta: float, n: int, m: int = 1) -> float:
    """Final target probability of the Chebyshev fixed-point schedule, in closed form.

    Yoder, Low and Chuang (PRL 113, 210501, 2014): with l = 2*length + 1,
    P = 1 - delta^2 T_l(T_{1/l}(1/delta) sqrt(1 - m/N))^2.  The Chebyshev
    argument is written as 1 + eps with eps free of cancellation, and
    T_l(1 + eps) is cosh(l acosh(1 + eps)) above 1 and cos(l acos(1 + eps))
    below it, each through log1p or asin of a small quantity.
    """
    odd = 2 * length + 1
    x = math.acosh(1.0 / delta) / odd
    fraction = m / 2**n
    shrink = fraction / (1.0 + math.sqrt(1.0 - fraction))  # 1 - sqrt(1 - m/N)
    eps = 2.0 * math.sinh(0.5 * x) ** 2 - shrink * math.cosh(x)
    if eps >= 0.0:
        t = math.cosh(odd * math.log1p(eps + math.sqrt(eps * (2.0 + eps))))
    else:
        t = math.cos(2.0 * odd * math.asin(math.sqrt(-0.5 * eps)))
    return 1.0 - delta**2 * t**2


# --- published fixed-point trajectory --------------------------------------
#
# Golden values for the length-21, delta=0.316 Chebyshev schedule run on
# 8 qubits with a single target: per-row state angles (theta, phi), iteration
# parameters (beta, gamma), realized increment, and whether the step
# amplified ("O") or not ("X").
#
# Note on the gamma column: the published listing prints gamma with the
# opposite sign.  That sign is inconsistent with the schedule's own symmetry
# relation beta_i = gamma_{L-i+1} and with the tabulated theta/phi/increment
# trajectory, all of which this package reproduces to ~5e-5; the values here
# carry the consistent sign (the gamma magnitudes match the listing exactly).

# no, theta, phi, beta, gamma, increment, flag
FIXED_POINT_N8_L21: tuple[tuple[int, float, float, float, float, float, str], ...] = (
    (1, 0.1251, 0.0, 3.1291, -3.1354, 0.0309, "O"),
    (2, 0.3752, 6.2727, 3.1162, -3.1228, 0.0598, "O"),
    (3, 0.6252, 6.2440, 3.1020, -3.1093, 0.0847, "O"),
    (4, 0.8746, 6.1934, 3.0857, -3.0941, 0.1036, "O"),
    (5, 1.1218, 6.1143, 3.0659, -3.0763, 0.1141, "O"),
    (6, 1.3633, 5.9948, 3.0401, -3.0539, 0.1133, "O"),
    (7, 1.5914, 5.8145, 3.0033, -3.0235, 0.0975, "O"),
    (8, 1.7881, 5.5385, 2.9433, -2.9775, 0.0608, "O"),
    (9, 1.9147, 5.1123, 2.8209, -2.8950, -0.0061, "X"),
    (10, 1.9018, 4.4555, 2.4078, -2.6915, -0.1007, "X"),
    (11, 1.6947, 3.2412, -1.4255, -1.4255, -0.0596, "X"),
    (12, 1.5752, 3.2562, -2.6915, 2.4078, -0.0575, "X"),
    (13, 1.4600, 4.4549, -2.8950, 2.8209, 0.0245, "O"),
    (14, 1.5091, 5.0453, -2.9775, 2.9433, 0.0719, "O"),
    (15, 1.6530, 5.4069, -3.0235, 3.0033, 0.0946, "O"),
    (16, 1.8456, 5.6353, -3.0539, 3.0401, 0.1001, "O"),
    (17, 2.0619, 5.7743, -3.0763, 3.0659, 0.0931, "O"),
    (18, 2.2888, 5.8423, -3.0941, 3.0857, 0.0770, "O"),
    (19, 2.5180, 5.8340, -3.1093, 3.1020, 0.0541, "O"),
    (20, 2.7389, 5.6917, -3.1228, 3.1162, 0.0269, "O"),
    (21, 2.9120, 5.1506, -3.1354, 3.1291, -0.0028, "X"),
)

#: Row numbers flagged "X" (non-amplifying) in the full listing.
NON_AMPLIFYING_ROWS = (9, 10, 11, 12, 21)
