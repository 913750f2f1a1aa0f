import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qaa import subspace
from qaa.engine import run_search
from qaa.schedules import (
    ParameterSequence,
    build,
    generate_qaao_sequence,
    noisy_optimal_sequence,
    optimal_sequence,
)
from qaa.statevector import OracleSpec
from qaa.subspace import (
    MAX_QUBITS,
    IterationParams,
    ModelConsistencyError,
    StateAngles,
    advance,
    amplification_terms,
    diffuse,
    initial_angles,
    optimal_angles,
    qaao_bound,
    qaao_region_fraction,
    region_boundary,
    wrap_pi,
)

from reference import (
    amplitudes,
    closed_form_increment,
    diffusion_matrix,
    direct_amplification_basis,
    from_amplitudes,
    iteration_matrix,
    object_step,
    wrap_2pi,
)

ANGLE = st.floats(-math.pi, math.pi)
THETA = st.floats(0.0, math.pi)
PHI = st.floats(0.0, 2.0 * math.pi, exclude_max=True)


def terms(beta, gamma, phi, theta0):
    """(a, b, c) of `amplification_terms` at a state of phase phi."""
    return amplification_terms(beta, gamma, phi, math.cos(theta0), math.sin(theta0))


def probability(theta):
    return math.sin(0.5 * theta) ** 2


class TestInitialAngles:
    def test_eight_qubits(self):
        s = initial_angles(8)
        assert s.theta == pytest.approx(0.1251, abs=1e-4)
        assert s.phi == 0.0

    def test_half_marked(self):
        assert initial_angles(2, 2).theta == pytest.approx(math.pi / 2)

    def test_three_qubits(self):
        # independent check: arcsin evaluated directly
        assert initial_angles(3).theta == pytest.approx(2.0 * math.asin(1 / math.sqrt(8)))
        assert initial_angles(3).theta == pytest.approx(0.7227, abs=1e-4)

    def test_caps_the_register(self):
        # The one register cap: generators and the CLI reach it through here.
        initial_angles(MAX_QUBITS)
        for n in (MAX_QUBITS + 1, 1100):
            with pytest.raises(ValueError, match=f"at most {MAX_QUBITS}"):
                initial_angles(n)

    @pytest.mark.parametrize("n,m", [(3, 0), (3, 8), (3, 9), (0, 1)])
    def test_rejects_bad_counts(self, n, m):
        with pytest.raises(ValueError):
            initial_angles(n, m)

    @pytest.mark.parametrize("n,m", [(8.5, 1), (8, 1.5), (8.0, 1), (8, 1.0)])
    @pytest.mark.parametrize("kind", ["grover", "random-qaao", "optimal", "noisy-optimal"])
    def test_rejects_non_integer_counts(self, n, m, kind):
        # Every generator with a register starts here: optimal_sequence(8, 1.5)
        # used to build a 10-step schedule with m=1.5, optimal_sequence(8.5) a
        # 15-step one and grover_sequence(8.5) a schedule with n=8.5.
        with pytest.raises(TypeError):
            initial_angles(n, m)
        with pytest.raises(TypeError):
            build(kind, n, m)

    def test_accepts_numpy_integers(self):
        assert initial_angles(np.int64(8), np.int32(2)) == initial_angles(8, 2)
        assert optimal_sequence(np.int64(8), np.int64(2)).params == optimal_sequence(8, 2).params


class TestStateAngles:
    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_phi(self, phi):
        with pytest.raises(ValueError, match="phi must be finite"):
            StateAngles(1.0, phi)

    def test_wraps_finite_phi(self):
        assert StateAngles(1.0, -0.5).phi == pytest.approx(2.0 * math.pi - 0.5)
        assert StateAngles(1.0, 4.0 * math.pi + 0.25).phi == pytest.approx(0.25)


class TestIterationParams:
    """The validated (beta, gamma) contract, whatever type carries it."""

    LIMIT = math.pi + 1e-12

    @pytest.mark.parametrize("value", [LIMIT, -LIMIT, math.pi, -math.pi, 0.0])
    def test_accepts_the_closed_range(self, value):
        assert IterationParams(value, 0.0).beta == value
        assert IterationParams(0.0, value).gamma == value

    @pytest.mark.parametrize(
        "value",
        [math.nextafter(LIMIT, math.inf), -math.nextafter(LIMIT, math.inf), math.nan,
         math.inf, -math.inf, 7.0],
    )
    def test_rejects_outside_and_non_finite(self, value):
        with pytest.raises(ValueError, match="beta must lie in"):
            IterationParams(value, 0.0)
        with pytest.raises(ValueError, match="gamma must lie in"):
            IterationParams(0.0, value)

    def test_reports_beta_first(self):
        with pytest.raises(ValueError, match="beta must lie in"):
            IterationParams(math.nan, math.nan)

    def test_coerces_to_float(self):
        params = IterationParams(1, np.float32(0.5))
        assert type(params.beta) is float and type(params.gamma) is float
        assert (params.beta, params.gamma) == (1.0, 0.5)
        assert IterationParams(True, -2) == IterationParams(1.0, -2.0)

    def test_repr(self):
        assert repr(IterationParams(1.0, 2.0)) == "IterationParams(beta=1.0, gamma=2.0)"
        assert repr(IterationParams(1, 2)) == "IterationParams(beta=1.0, gamma=2.0)"

    def test_immutable_and_hashable(self):
        params = IterationParams(1.0, 2.0)
        with pytest.raises(AttributeError):
            params.beta = 0.5
        with pytest.raises(AttributeError):
            params.extra = 0.5
        assert hash(params) == hash(IterationParams(1, 2))
        assert params == IterationParams(1, 2) != IterationParams(2.0, 1.0)

    def test_tuple_constructors_validate(self):
        # As a named tuple it unpacks as (beta, gamma); `_make` and `_replace`
        # build through the same checks as the constructor.
        params = IterationParams(1.0, 2.0)
        assert tuple(params) == (1.0, 2.0)
        assert params._replace(gamma=-1) == IterationParams._make([1, -1.0]) == (1.0, -1.0)
        with pytest.raises(ValueError, match="gamma must lie in"):
            params._replace(gamma=7.0)
        with pytest.raises(ValueError, match="beta must lie in"):
            IterationParams._make((math.nan, 0.0))


class TestCoefficients:
    def test_beta_zero_kills_both(self):
        a, b, _ = terms(0.0, 1.3, 2.0, 0.125)
        assert a == 0.0
        assert b == 0.0

    def test_grover_point(self):
        theta0 = initial_angles(8).theta
        b = terms(math.pi, math.pi, 0.0, theta0)[1]
        assert b == pytest.approx(math.sin(theta0) * math.cos(theta0), abs=1e-12)
        assert b == pytest.approx(0.12380, abs=1e-4)

    def test_grover_b_from_finite_difference(self):
        # independent oracle: b = d(Delta)/d(sin theta) at fixed cos-part,
        # recovered from the matrix-product increment at two states
        theta0 = initial_angles(8).theta
        a, b, _ = terms(math.pi, math.pi, 0.0, theta0)
        th1, th2 = 0.6, 0.6 + 1e-7
        d1 = advance(math.pi, math.pi, th1, 0.0, theta0)[2]
        d2 = advance(math.pi, math.pi, th2, 0.0, theta0)[2]
        slope = (d2 - d1) / (th2 - th1)
        # Delta(theta) = a cos + b sin -> derivative -a sin + b cos
        expected = -a * math.sin(th1) + b * math.cos(th1)
        assert slope == pytest.approx(expected, abs=1e-5)

    def test_published_negative_row(self):
        theta0 = initial_angles(8).theta
        assert terms(2.8209, -2.8950, 5.1123, theta0)[1] < 0.0


class TestIncrement:
    def test_negative_published_row(self):
        # row 9 of the published trajectory; gamma carries the sign
        # consistent with the schedule symmetry (see reference.py)
        theta0 = initial_angles(8).theta
        d = advance(2.8209, -2.8950, 1.9147, 5.1123, theta0)[2]
        assert d == pytest.approx(-0.0061, abs=1e-3)

    def test_first_fixed_point_row(self):
        theta0 = initial_angles(8).theta
        d = advance(3.1291, -3.1354, 0.1251, 0.0, theta0)[2]
        assert d == pytest.approx(0.0309, abs=1e-3)

    def test_beta_zero_is_pure_phase(self):
        theta0 = initial_angles(8).theta
        assert advance(0.0, 2.2, 1.0, 0.4, theta0)[2] == 0.0

    @settings(max_examples=300, deadline=None)
    @given(ANGLE, ANGLE, THETA, PHI, st.floats(0.05, 1.5))
    def test_closed_form_matches_matrix(self, beta, gamma, theta, phi, theta0):
        matrix_value = advance(beta, gamma, theta, phi, theta0)[2]  # raises on disagreement
        closed = float(closed_form_increment(beta, gamma, theta, phi, theta0))
        assert matrix_value == pytest.approx(closed, abs=1e-12)


class TestApplyIteration:
    def test_identity(self):
        theta, phi, _ = advance(0.0, 0.0, 0.8, 1.1, 0.125)
        assert theta == pytest.approx(0.8, abs=1e-14)
        assert phi == pytest.approx(1.1, abs=1e-14)

    def test_grover_step_rotates_by_2theta0(self):
        theta0 = initial_angles(8).theta
        theta = advance(math.pi, math.pi, theta0, 0.0, theta0)[0]
        assert theta == pytest.approx(3.0 * theta0, abs=1e-12)
        assert theta == pytest.approx(0.3752, abs=1e-3)

    def test_grover_three_qubits(self):
        theta0 = initial_angles(3).theta
        theta = advance(math.pi, math.pi, theta0, 0.0, theta0)[0]
        assert probability(theta) == pytest.approx(25.0 / 32.0, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(ANGLE, ANGLE, THETA, PHI, st.floats(0.05, 1.5))
    def test_probability_bookkeeping(self, beta, gamma, theta, phi, theta0):
        after, _, d = advance(beta, gamma, theta, phi, theta0)
        assert probability(after) - probability(theta) == pytest.approx(d, abs=1e-12)


class TestAdvance:
    @settings(max_examples=500, deadline=None)
    @given(ANGLE, ANGLE, THETA, PHI, st.integers(1, MAX_QUBITS))
    @example(2.0, -1.0, 0.0, 1.0, 8)
    @example(0.0, 0.5, math.pi, 1.0, 8)
    def test_is_step_and_the_object_chain_exactly(self, beta, gamma, theta, phi, n):
        theta0 = initial_angles(n).theta
        params, state = IterationParams(beta, gamma), StateAngles(theta, phi)
        got = advance(beta, gamma, state.theta, state.phi, theta0)
        want, matrix, closed = object_step(params, state, theta0)
        assert got == (want.theta, want.phi, matrix)
        assert abs(matrix - closed) <= subspace.ALGEBRAIC_TOL

    def test_phase_just_below_zero_wraps_to_zero(self):
        # -1.7e-17 % (2*pi) rounds to 2*pi itself; StateAngles stores 0.
        theta, phi = subspace._plane_angles(complex(0.6, -1e-17), 0.8)
        assert (theta, phi) == (from_amplitudes(complex(0.6, -1e-17), 0.8).theta, 0.0)

    @pytest.mark.parametrize("position", range(5))
    def test_nan_angle_raises(self, position):
        args = [1.0, 0.5, 0.5, 0.1, 0.01]
        args[position] = math.nan
        with pytest.raises(ModelConsistencyError, match="closed-form increment nan"):
            advance(*args)

    @pytest.mark.parametrize(
        "name",
        ["optimal_sequence", "noisy_optimal_sequence", "generate_qaao_sequence", "run_search"],
    )
    def test_closed_form_check_guards_every_step(self, monkeypatch, name):
        # A hand-built copy, built before b is skewed, carries no walked
        # records, so run_search must walk it.
        seq = ParameterSequence(optimal_sequence(6).params, "optimal", 6)
        calls = {
            "optimal_sequence": lambda: optimal_sequence(6),
            "noisy_optimal_sequence": lambda: noisy_optimal_sequence(6, 0.1, seed=1),
            "generate_qaao_sequence": lambda: generate_qaao_sequence(6, seed=1),
            "run_search": lambda: run_search(seq, OracleSpec.standard(6)),
        }
        terms = subspace.amplification_terms

        def skewed(*args):
            a, b, c = terms(*args)
            return a, b + 1e-9, c

        monkeypatch.setattr(subspace, "amplification_terms", skewed)
        with pytest.raises(ModelConsistencyError, match="closed-form increment"):
            calls[name]()


class TestIterationMatrix:
    def test_identity(self):
        np.testing.assert_allclose(
            iteration_matrix(IterationParams(0.0, 0.0), 0.4), np.eye(2), atol=1e-15
        )

    def test_matches_textbook_grover_rotation(self):
        # the matrix acts on (sin(theta/2), cos(theta/2)) amplitudes, so one
        # Grover step is a rotation by theta0 there (theta itself moves 2*theta0)
        theta0 = initial_angles(10).theta
        got = iteration_matrix(IterationParams(math.pi, math.pi), theta0)
        grover = np.array(
            [
                [math.cos(theta0), math.sin(theta0)],
                [-math.sin(theta0), math.cos(theta0)],
            ]
        )
        phase = got[0, 0] / grover[0, 0]
        assert abs(abs(phase) - 1.0) < 1e-12
        np.testing.assert_allclose(got, phase * grover, atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(ANGLE, ANGLE, THETA, PHI, st.floats(0.05, 1.5))
    def test_step_matches_matrix(self, beta, gamma, theta, phi, theta0):
        p = IterationParams(beta, gamma)
        s = StateAngles(theta, phi)
        after = iteration_matrix(p, theta0) @ amplitudes(s)
        theta_after, phi_after, delta = advance(beta, gamma, theta, phi, theta0)
        got = StateAngles(theta_after, phi_after)
        want = from_amplitudes(after[0], after[1])
        np.testing.assert_allclose(amplitudes(got), amplitudes(want), rtol=0, atol=1e-12)
        assert delta == pytest.approx(abs(after[0]) ** 2 - s.target_probability, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(ANGLE, THETA, PHI, st.floats(0.05, 1.5))
    def test_diffuse_matches_matrix(self, beta, theta, phi, theta0):
        pair = amplitudes(StateAngles(theta, phi))
        want = diffusion_matrix(beta, theta0) @ pair
        np.testing.assert_allclose(diffuse(beta, theta0, *pair), want, rtol=0, atol=1e-12)

    @settings(max_examples=500, deadline=None)
    @given(ANGLE, ANGLE, st.floats(1e-3, math.pi - 1e-3))
    def test_unitarity(self, beta, gamma, theta0):
        u = iteration_matrix(IterationParams(beta, gamma), theta0)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)


class TestIsQaao:
    def test_grover_at_initial_state(self):
        theta0 = initial_angles(8).theta
        assert terms(math.pi, math.pi, 0.0, theta0)[1] > qaao_bound(1.5, 256)

    def test_published_negative_row_is_not(self):
        theta0 = initial_angles(8).theta
        assert not terms(2.8209, -2.8950, 5.1123, theta0)[1] > qaao_bound(1.5, 256)

    def test_beta_zero_never_qualifies(self):
        assert not terms(0.0, 1.0, 0.0, 0.125)[1] > qaao_bound(1.5, 256)

    def test_rejects_small_c(self):
        with pytest.raises(ValueError):
            qaao_bound(1.0, 256)

    @pytest.mark.parametrize("c", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_c(self, c):
        with pytest.raises(ValueError, match="finite"):
            qaao_bound(c, 256)


class TestOptimalParams:
    def test_initial_state_gives_grover(self):
        theta0 = initial_angles(8).theta
        beta, gamma = optimal_angles(theta0, 0.0, theta0)
        assert beta == pytest.approx(math.pi)
        assert gamma == pytest.approx(-math.pi)

    def test_at_target_pole(self):
        theta0 = initial_angles(8).theta
        beta, gamma = optimal_angles(math.pi, 0.0, theta0)
        assert beta == pytest.approx(0.0, abs=1e-12)
        assert advance(beta, gamma, math.pi, 0.0, theta0)[2] == pytest.approx(0.0, abs=1e-12)

    def test_closing_step_is_exact(self):
        theta0 = theta = initial_angles(8).theta
        phi = 0.0
        for _ in range(12):
            theta, phi, _ = advance(*optimal_angles(theta, phi, theta0), theta, phi, theta0)
        closing = optimal_angles(theta, phi, theta0)
        assert theta >= math.pi - 2.0 * theta0
        final = advance(*closing, theta, phi, theta0)[0]
        assert probability(final) == pytest.approx(1.0, abs=1e-10)

    def test_beats_grid_search_in_closing_branch(self):
        theta0 = initial_angles(8).theta
        theta, phi = math.pi - theta0, 0.8
        best_closed = advance(*optimal_angles(theta, phi, theta0), theta, phi, theta0)[2]
        axis = np.linspace(-math.pi, math.pi, 400)
        grid = closed_form_increment(axis[:, None], axis[None, :], theta, phi, theta0)
        assert grid.max() <= best_closed + 1e-4

    @settings(max_examples=200, deadline=None)
    @given(THETA, PHI, st.floats(0.05, 0.6))
    def test_branch_dichotomy(self, theta, phi, theta0):
        beta, _ = optimal_angles(theta, phi, theta0)
        if theta < math.pi - 2.0 * theta0:
            assert abs(beta) == pytest.approx(math.pi)
        else:
            # closing branch: sin(beta/2) = cos(theta/2)/sin(theta0)
            assert math.sin(0.5 * beta) == pytest.approx(
                math.cos(0.5 * theta) / math.sin(theta0), abs=1e-9
            )


class TestStationarity:
    def test_phase_derivative_vanishes_at_optimum(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            theta0 = rng.uniform(0.05, 0.5)
            theta = rng.uniform(math.pi - 2.0 * theta0, math.pi)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            beta, gamma = optimal_angles(theta, phi, theta0)
            h = 1e-6

            def delta_at(g):
                return advance(beta, wrap_pi(g), theta, phi, theta0)[2]

            first = (delta_at(gamma + h) - delta_at(gamma - h)) / (2 * h)
            wide = 1e-3
            second = (
                delta_at(gamma + wide) - 2 * delta_at(gamma) + delta_at(gamma - wide)
            ) / wide**2
            assert abs(first) < 1e-6
            assert second < 1e-6
            # the optimal relative phase satisfies tan(varphi) = cot(beta/2)sec(theta0)
            lhs = math.tan(wrap_2pi(phi - gamma))
            rhs = 1.0 / (math.tan(0.5 * beta) * math.cos(theta0))
            assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-6)


class TestRegionBoundary:
    def test_root_of_c(self):
        theta0 = initial_angles(8).theta
        varphi = region_boundary(math.pi / 2.0, theta0)
        c = math.cos(math.pi / 4.0) * math.sin(varphi) + math.sin(math.pi / 4.0) * math.cos(
            varphi
        ) * math.cos(theta0)
        assert abs(c) < 1e-10

    def test_beta_pi_limit(self):
        # at beta = pi the root of c sits at varphi = pi/2
        assert region_boundary(math.pi, 0.3) == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_rejects_beta_zero(self):
        with pytest.raises(ValueError):
            region_boundary(0.0, 0.3)

    def test_sign_flips_across_boundary(self):
        theta0 = initial_angles(8).theta
        beta = 1.3
        varphi = region_boundary(beta, theta0)

        def c_at(v):
            return math.cos(beta / 2) * math.sin(v) + math.sin(beta / 2) * math.cos(
                v
            ) * math.cos(theta0)

        assert c_at(varphi - 1e-3) * c_at(varphi + 1e-3) < 0.0

    def test_roots_are_pi_apart(self):
        rng = np.random.default_rng(11)
        theta0 = initial_angles(8).theta
        for beta in rng.uniform(-math.pi, math.pi, 200):
            if abs(beta) < 1e-3:
                continue
            varphi = region_boundary(float(beta), theta0)
            for v in (varphi, varphi + math.pi):
                c = math.cos(beta / 2) * math.sin(v) + math.sin(beta / 2) * math.cos(
                    v
                ) * math.cos(theta0)
                assert abs(c) < 1e-10


class TestAmplificationBasis:
    @pytest.mark.parametrize("shape", ["samples", "broadcast axes", "scalars"])
    def test_matches_the_direct_form_bit_for_bit(self, shape):
        rng = np.random.default_rng(4)
        if shape == "samples":
            beta, gamma = rng.uniform(-math.pi, math.pi, (2, 10_000))
        elif shape == "broadcast axes":
            axis = np.linspace(-math.pi, math.pi, 65)
            beta, gamma = axis[:, None], axis[None, :]
        else:
            beta, gamma = 2.8209, -2.8950
        for theta0 in (initial_angles(3).theta, initial_angles(20).theta):
            got = subspace.amplification_basis(beta, gamma, theta0)
            want = direct_amplification_basis(beta, gamma, theta0)
            for a, b in zip(got, want):
                assert np.shape(a) == np.shape(b)
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_holds_at_most_seven_input_sized_arrays(self):
        # The direct form holds ten: every trig array, scale, tilt and both sums.
        beta, gamma = np.random.default_rng(5).uniform(-math.pi, math.pi, (2, 2**18))
        tracemalloc.start()
        try:
            subspace.amplification_basis(beta, gamma, initial_angles(10).theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7.5 * beta.nbytes


class TestRegionFraction:
    def test_half_measure(self):
        theta0 = initial_angles(8).theta
        fraction = qaao_region_fraction(StateAngles(1.0, 2.0), theta0, 10**6, seed=5)
        assert fraction == pytest.approx(0.5, abs=0.005)

    def test_single_sample_is_binary(self):
        theta0 = initial_angles(8).theta
        assert qaao_region_fraction(StateAngles(1.0, 0.0), theta0, 1, seed=3) in (0.0, 1.0)

    def test_strict_fraction_gap_shrinks_with_n(self):
        gaps = []
        for n in (4, 8, 12):
            theta0 = initial_angles(n).theta
            strict = qaao_region_fraction(
                StateAngles(1.0, 0.7), theta0, 200_000, seed=9, threshold=1.5 * 2 ** (-n / 2)
            )
            gaps.append(0.5 - strict)
        assert gaps[0] > gaps[1] > gaps[2] > 0.0

    def test_deterministic_per_seed(self):
        theta0 = initial_angles(6).theta
        a = qaao_region_fraction(StateAngles(0.9, 0.1), theta0, 10_000, seed=42)
        b = qaao_region_fraction(StateAngles(0.9, 0.1), theta0, 10_000, seed=42)
        assert a == b


class TestGroverDominance:
    def test_no_grid_point_beats_grover_far_from_target(self):
        theta0 = initial_angles(8).theta
        axis = np.linspace(-math.pi, math.pi, 400)
        rng = np.random.default_rng(13)
        for _ in range(10):
            theta = rng.uniform(0.0, math.pi - 2.0 * theta0 - 1e-6)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            grover = advance(*optimal_angles(theta, phi, theta0), theta, phi, theta0)[2]
            grid = closed_form_increment(axis[:, None], axis[None, :], theta, phi, theta0)
            assert grid.max() <= grover + 1e-4

    def test_peak_grover_increment_scale(self):
        for n in (6, 8, 10, 12):
            theta0 = initial_angles(n).theta
            thetas = np.linspace(0.0, math.pi, 4001)
            a = math.sin(theta0) ** 2
            b = math.sin(theta0) * math.cos(theta0)
            peak = float(np.max(a * np.cos(thetas) + b * np.sin(thetas)))
            assert abs(peak - 2.0 / math.sqrt(2**n)) < 4.0 / 2**n
