import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qaa import schedules, statevector
from qaa.engine import BackendMismatchError, run_search
from qaa.schedules import optimal_sequence
from qaa.statevector import (
    BLOCK,
    WINDOW,
    OracleSpec,
    block_plan,
    checked_steps,
    measure,
    sample_measurements,
    uniform_state,
)
from qaa.subspace import MAX_QUBITS, IterationParams, advance, initial_angles

from reference import (
    apply_iteration,
    checked_step,
    evolve,
    from_amplitudes,
    iterate_in_place,
    norm_defect,
    target_probability,
)

ANGLE = st.floats(-math.pi, math.pi)


def project(state, spec):
    """The plane angles of `state` and its leakage, from one `measure`."""
    plane = measure(state, block_plan(state, spec))
    return from_amplitudes(plane.a_target, plane.a_perp), plane.leakage


def dense_oracle(n, targets, gamma):
    proj = np.zeros((2**n, 2**n))
    for t in targets:
        i = int(t, 2)
        proj[i, i] = 1.0
    return expm(-1j * gamma * proj)


def dense_diffusion(n, beta):
    s0 = np.full(2**n, 2 ** (-n / 2))
    return expm(-1j * beta * np.outer(s0, s0.conj()))


def library_step(state, params, spec):
    """One `checked_steps` step of `state`, its diffusion mean taken from a `measure`."""
    plan = block_plan(state, spec)
    checked_steps(state, [params], plan, measure(state, plan).total)


def windowed_run(state, params, plan):
    """The `Plane` of `state` before `params` and after each of them.

    The steps go through `checked_steps` a window at a time, as `run_search`
    runs them.
    """
    planes = [measure(state, plan)]
    for start in range(0, len(params), WINDOW):
        planes += checked_steps(state, params[start : start + WINDOW], plan, planes[-1].total)
    return planes


def stepwise_run(state, params, plan):
    """`windowed_run` through the reference `checked_step`, one pass per step."""
    planes = [measure(state, plan)]
    for p in params:
        planes.append(checked_step(state, p, plan, planes[-1].total))
    return planes


def plane_bits(plane):
    """Every field of a `Plane` as exact hex text, so -0.0 and 0.0 differ."""
    return tuple(
        (x.real.hex(), x.imag.hex()) if isinstance(x, complex) else x.hex() for x in plane
    )


def assert_one_pass_per_step_bits(n, spec, params, defects=()):
    """The windowed and the stepwise run of `params` agree bit for bit.

    Both start from the uniform state with each (index, value) of `defects`
    written into it.  Returns the windowed run's `plane_bits`, its initial
    `measure` first.
    """
    runs = []
    for run in (windowed_run, stepwise_run):
        state = uniform_state(n)
        for index, value in defects:
            state[index] = value
        planes = run(state, params, block_plan(state, spec))
        runs.append((list(map(plane_bits, planes)), state))
    (planes, amps), (want_planes, want_amps) = runs
    assert planes == want_planes
    assert np.array_equal(amps.view(np.uint64), want_amps.view(np.uint64))
    return planes


class TestOracleSpec:
    def test_single(self):
        spec = OracleSpec.single("110")
        assert spec.m == 1
        assert spec.target_indices().tolist() == [6]

    def test_multi_target_sorted_indices(self):
        spec = OracleSpec(3, frozenset({"111", "000", "010"}))
        assert spec.target_indices().tolist() == [0, 2, 7]

    @pytest.mark.parametrize("bad", ["11", "1120", "", "abc"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            OracleSpec(3, frozenset({bad}))

    def test_standard(self):
        assert OracleSpec.standard(3) == OracleSpec.single("000")
        assert OracleSpec.standard(3, target="101") == OracleSpec.single("101")
        assert OracleSpec.standard(3, 3).targets == {"000", "001", "010"}
        with pytest.raises(ValueError):
            OracleSpec.standard(3, 2, target="101")

    @pytest.mark.parametrize("target", ["10", "1010", ""])
    def test_standard_target_has_n_bits(self, target):
        with pytest.raises(ValueError, match="bits, but n=3"):
            OracleSpec.standard(3, target=target)

    @pytest.mark.parametrize("m", [0, 8, 9, 3_000_000])
    def test_standard_checks_m_before_formatting(self, m):
        with pytest.raises(ValueError, match="target count must satisfy"):
            OracleSpec.standard(3, m)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: OracleSpec.standard(64, target="1" * 64),
            lambda: OracleSpec.single("1" * 64),
            lambda: OracleSpec(64, frozenset({"1" * 64})),
        ],
        ids=["standard", "single", "init"],
    )
    def test_register_cap_comes_before_the_index(self, make):
        # A 64-bit index does not fit an intp; the cap must reject it first.
        with pytest.raises(ValueError, match=f"at most {MAX_QUBITS}"):
            make()

    def test_needs_a_target_and_a_qubit(self):
        with pytest.raises(ValueError, match="target count must satisfy"):
            OracleSpec(3, frozenset())
        with pytest.raises(ValueError, match="at least one qubit"):
            OracleSpec.standard(0)

    def test_big_endian(self):
        # leftmost character is qubit 0, the most significant bit
        assert OracleSpec.single("100").target_indices().tolist() == [4]
        assert OracleSpec.single("001").target_indices().tolist() == [1]


class TestUniformState:
    def test_amplitudes(self):
        sv = uniform_state(4)
        np.testing.assert_allclose(sv, np.full(16, 0.25))
        assert norm_defect(sv) < 1e-15

    def test_rejects_too_many_qubits(self):
        with pytest.raises(ValueError):
            uniform_state(25)


class TestAgainstDenseExponentials:
    # D(0) and R(0) are exact identities, so beta=0 isolates the oracle
    # phase and gamma=0 the diffusion.
    @settings(max_examples=30, deadline=None)
    @given(ANGLE)
    def test_oracle_matches_expm(self, gamma):
        spec = OracleSpec(3, frozenset({"101", "010"}))
        sv = uniform_state(3)
        want = dense_oracle(3, spec.targets, gamma) @ sv
        library_step(sv, IterationParams(0.0, gamma), spec)
        np.testing.assert_allclose(sv, want, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(ANGLE)
    def test_diffusion_matches_expm(self, beta):
        rng = np.random.default_rng(0)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        sv = amps.copy()
        library_step(sv, IterationParams(beta, 0.0), OracleSpec.single("011"))
        want = dense_diffusion(3, beta) @ amps
        np.testing.assert_allclose(sv, want, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(ANGLE, ANGLE)
    def test_iteration_matches_expm_product(self, beta, gamma):
        spec = OracleSpec.single("110")
        sv = uniform_state(3)
        got = apply_iteration(sv, IterationParams(beta, gamma), spec)
        want = dense_diffusion(3, beta) @ dense_oracle(3, spec.targets, gamma) @ sv
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestInPlace:
    def test_apply_iteration_leaves_its_input(self):
        spec = OracleSpec.single("110")
        sv = uniform_state(3)
        out = apply_iteration(sv, IterationParams(math.pi, math.pi), spec)
        np.testing.assert_array_equal(sv, np.full(8, 8**-0.5))
        iterate_in_place(sv, IterationParams(math.pi, math.pi), spec)
        np.testing.assert_array_equal(sv, out)

    def test_evolve_matches_repeated_iterations(self):
        spec = OracleSpec.single("0110")
        seq = [IterationParams(2.1, -0.7), IterationParams(-1.3, 0.4)]
        want = uniform_state(4)
        for p in seq:
            want = apply_iteration(want, p, spec)
        np.testing.assert_array_equal(evolve(seq, spec), want)
        np.testing.assert_array_equal(evolve([], spec), uniform_state(4))

    def test_rejects_mismatched_oracle(self):
        with pytest.raises(ValueError, match="qubit counts disagree"):
            block_plan(uniform_state(3), OracleSpec.single("10"))

    def test_rejects_a_vector_the_sweep_cannot_write(self):
        # The sweeps write complex amplitudes in place; a real copy would drop them.
        with pytest.raises(ValueError, match="qubit counts disagree.*float64"):
            block_plan(uniform_state(3).real.copy(), OracleSpec.single("110"))

    def test_target_indices_are_read_only(self):
        with pytest.raises(ValueError):
            OracleSpec.single("110").target_indices()[0] = 0


class TestLargeDense:
    def test_optimal_n18_m64(self):
        # run_search raises unless the leakage (1e-12) and backend agreement
        # (1e-10) checks hold on every one of the 50 steps.
        traj = run_search(optimal_sequence(18, 64), OracleSpec.standard(18, 64), "statevector")
        assert traj.final_probability == pytest.approx(1.0, abs=1e-10)


class TestGrover:
    def test_one_step_three_qubits(self):
        spec = OracleSpec.single("110")
        sv = apply_iteration(uniform_state(3), IterationParams(math.pi, math.pi), spec)
        assert target_probability(sv, spec) == pytest.approx(25.0 / 32.0, abs=1e-12)

    def test_untouched_amplitudes_stay_symmetric(self):
        spec = OracleSpec.single("0110")
        sv = apply_iteration(uniform_state(4), IterationParams(2.1, -0.7), spec)
        others = np.delete(sv, spec.target_indices())
        assert np.ptp(others.real) < 1e-14
        assert np.ptp(others.imag) < 1e-14


class TestNormPreservation:
    @settings(max_examples=100, deadline=None)
    @given(ANGLE, ANGLE, st.integers(1, 6))
    def test_unitary(self, beta, gamma, n):
        spec = OracleSpec.single("1" * n)
        sv = apply_iteration(uniform_state(n), IterationParams(beta, gamma), spec)
        assert norm_defect(sv) < 1e-12


class TestProjection:
    def test_uniform_state_matches_initial_angles(self):
        spec = OracleSpec.single("10011010")
        angles, leakage = project(uniform_state(8), spec)
        want = initial_angles(8)
        assert angles.theta == pytest.approx(want.theta, abs=1e-12)
        assert angles.phi == pytest.approx(0.0, abs=1e-12)
        assert leakage < 1e-15

    def test_multi_target(self):
        spec = OracleSpec(4, frozenset({"0000", "1111", "0101"}))
        angles, leakage = project(uniform_state(4), spec)
        assert angles.theta == pytest.approx(initial_angles(4, 3).theta, abs=1e-12)
        assert leakage < 1e-15

    @settings(max_examples=100, deadline=None)
    @given(ANGLE, ANGLE, ANGLE, ANGLE)
    def test_tracks_analytic_model(self, b1, g1, b2, g2):
        spec = OracleSpec.single("01101")
        theta0 = initial_angles(5).theta
        sv = uniform_state(5)
        theta, phi = theta0, 0.0
        for beta, gamma in ((b1, g1), (b2, g2)):
            sv = apply_iteration(sv, IterationParams(beta, gamma), spec)
            theta, phi, _ = advance(beta, gamma, theta, phi, theta0)
        projected, leakage = project(sv, spec)
        assert leakage < 1e-12
        assert projected.theta == pytest.approx(theta, abs=1e-10)
        assert target_probability(sv, spec) == pytest.approx(
            math.sin(0.5 * theta) ** 2, abs=1e-10
        )


class TestCheckedStep:
    def test_leakage_resolves_an_off_plane_perturbation(self):
        # The squared distance of a + eps*|i> from the plane, i a non-target.
        n, eps = 12, 1e-9
        spec = OracleSpec.standard(n, 4)
        want = eps**2 * (1.0 - 1.0 / (2**n - 4))
        state = uniform_state(n)
        state[100] += eps
        _, leakage = project(state, spec)
        assert leakage == pytest.approx(want, rel=0.01)
        for plane in windowed_run(state, optimal_sequence(n, 4).params, block_plan(state, spec)):
            assert plane.leakage == pytest.approx(want, rel=0.01)

    def test_targets_on_block_edges(self):
        # Two blocks; a target at index 0 moves the reference amplitude to 1.
        n = BLOCK.bit_length()
        big_n = 2**n
        indices = (0, BLOCK - 1, BLOCK, big_n - 1)
        spec = OracleSpec(n, frozenset(format(i, f"0{n}b") for i in indices))
        seq = optimal_sequence(n, 4)
        state = uniform_state(n)
        plan = block_plan(state, spec)
        assert plan.reference == 1
        assert [b[2].tolist() for b in plan.blocks] == [[0, BLOCK - 1], [0, BLOCK - 1]]
        theta0 = theta = initial_angles(n, 4).theta
        phi = 0.0
        planes = windowed_run(state, seq.params, plan)
        for params, plane in zip(seq.params, planes[1:]):
            theta, phi, _ = advance(params.beta, params.gamma, theta, phi, theta0)
            assert plane.probability == pytest.approx(math.sin(0.5 * theta) ** 2, abs=1e-10)
            assert plane.leakage < 1e-12
            assert abs(plane.norm_defect) < 1e-12
        assert plane.probability == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(state, evolve(seq, spec), atol=1e-12)

    @pytest.mark.parametrize("indices", [(40000,), (3, 1025, 9000, 40000, 65535)])
    def test_block_size_does_not_change_the_result(self, indices, monkeypatch):
        n = 16
        spec = OracleSpec(n, frozenset(format(i, f"0{n}b") for i in indices))
        seq = optimal_sequence(n, len(indices))
        want = evolve(seq, spec)
        runs = []
        for size in (2**10, 2**13, 2**16):
            monkeypatch.setattr(statevector, "BLOCK", size)
            state = uniform_state(n)
            plan = block_plan(state, spec)
            assert len(plan.blocks) == 2**n // size
            planes = [
                (plane.probability, plane.norm_defect, plane.leakage)
                for plane in windowed_run(state, seq.params, plan)[1:]
            ]
            np.testing.assert_allclose(state, want, rtol=0, atol=1e-12)
            runs.append(np.array(planes))
        for other in runs[1:]:
            np.testing.assert_allclose(other[:, 0], runs[0][:, 0], rtol=0, atol=1e-10)
            np.testing.assert_allclose(other[:, 1:], runs[0][:, 1:], rtol=0, atol=1e-12)
        assert runs[0][-1, 0] == pytest.approx(1.0, abs=1e-10)
        assert np.abs(runs[0][:, 1]).max() < 1e-12
        assert runs[0][:, 2].max() < 1e-12

    def test_norm_defect_reads_a_scaled_state(self):
        spec = OracleSpec.standard(10, 3)
        state = uniform_state(10) * (1.0 + 1e-6)
        plane = measure(state, block_plan(state, spec))
        assert plane.norm_defect == pytest.approx(2e-6 + 1e-12, rel=1e-6)
        assert plane.leakage == 0.0

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_an_overflowing_norm_reads_as_an_infinite_defect(self, monkeypatch):
        # |a|^2 of each amplitude exceeds the largest double.
        spec = OracleSpec.standard(4)
        state = uniform_state(4) * 1e160
        plan = block_plan(state, spec)
        plane = measure(state, plan)
        assert plane.norm_defect == math.inf
        assert plane.total == 4e160
        for plane in checked_steps(state, optimal_sequence(4).params, plan, plane.total):
            assert not math.isfinite(plane.norm_defect)
        monkeypatch.setattr(statevector, "uniform_state", lambda n: np.full(2**n, 1e160j))
        with pytest.raises(BackendMismatchError, match="norm defect inf at step 1"):
            run_search(optimal_sequence(4), spec, "statevector")


class TestBlockSkip:
    """`checked_steps` sums a block only where some difference d is nonzero, with the same bits."""

    @pytest.mark.parametrize("size", [2**10, BLOCK])
    @pytest.mark.parametrize(
        "kind",
        [schedules.OPTIMAL, schedules.NOISY_OPTIMAL, schedules.RANDOM_QAAO, schedules.FIXED_POINT],
    )
    def test_matches_the_summing_sweep_bit_for_bit(self, kind, size, monkeypatch):
        monkeypatch.setattr(statevector, "BLOCK", size)
        for n in range(8, 17):
            for m in (1, 3, 16):
                spec = OracleSpec.standard(n, m)
                seq = schedules.build(kind, n, m, seed=n * m, delta=0.3)
                assert_one_pass_per_step_bits(n, spec, seq.params)

    @staticmethod
    def _with_defect(n, value):
        # One non-target amplitude in the third of four 2^10 blocks.
        state = uniform_state(n)
        state[2500] = value
        return state

    # n = 12 amplitudes are 2^-6; the last value is one ulp above that.
    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, np.nextafter(2.0**-6, 1.0)], ids=["nan", "inf", "ulp"]
    )
    def test_a_defect_in_a_later_block_reaches_the_leakage(self, value, monkeypatch):
        monkeypatch.setattr(statevector, "BLOCK", 2**10)
        spec = OracleSpec.standard(12, 3)
        state = self._with_defect(12, value)
        plan = block_plan(state, spec)
        assert len(plan.blocks) == 4
        for plane in windowed_run(state, optimal_sequence(12, 3).params[:2], plan)[1:]:
            assert math.isnan(plane.leakage) or plane.leakage > 0.0
            # A one-ulp change is far below what <a|a> - 1 resolves.
            assert math.isfinite(value) or not math.isfinite(plane.norm_defect)

    def test_a_nan_in_a_later_block_fails_the_run(self, monkeypatch):
        monkeypatch.setattr(statevector, "BLOCK", 2**10)
        monkeypatch.setattr(statevector, "uniform_state", lambda n: self._with_defect(n, math.nan))
        with pytest.raises(BackendMismatchError, match="leakage nan"):
            run_search(optimal_sequence(12, 3), OracleSpec.standard(12, 3), "statevector")


class TestCleanBlocks:
    """A block measured exactly in the plane skips the rest of its pass and takes it in one fill."""

    @staticmethod
    def _params(length):
        angles = np.random.default_rng(length).uniform(-math.pi, math.pi, (length, 2))
        return [IterationParams(beta, gamma) for beta, gamma in angles.tolist()]

    @pytest.mark.parametrize("n", [12, 16])
    @pytest.mark.parametrize(
        "defect",
        [
            # A non-target d != 0 whose square underflows to 0.
            lambda n, targets: (2500, 2.0 ** (-n / 2) + 1e-300j),
            # A target that makes the shift NaN or inf.
            lambda n, targets: (targets[1], math.nan),
            lambda n, targets: (targets[1], complex(math.inf, 0.0)),
            # A non-target in the last block.
            lambda n, targets: (2**n - 1, math.nan),
            lambda n, targets: (2**n - 1, np.nextafter(2.0 ** (-n / 2), 1.0)),
        ],
        ids=["underflow", "nan-target", "inf-target", "nan-last", "ulp-last"],
    )
    @pytest.mark.parametrize("edges", [False, True], ids=["low", "edges"])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_the_skip_hides_nothing(self, n, defect, edges, monkeypatch):
        monkeypatch.setattr(statevector, "BLOCK", 2**10)
        spec = edge_targets(n, 2**10, 3, seed=n) if edges else OracleSpec.standard(n, 3)
        defects = [defect(n, spec.target_indices().tolist())]
        assert_one_pass_per_step_bits(n, spec, self._params(2 * WINDOW + 3), defects)

    @pytest.mark.parametrize("n", [12, 16])
    def test_a_clean_window_measures_each_block_once(self, n, monkeypatch):
        monkeypatch.setattr(statevector, "BLOCK", 2**10)
        state = uniform_state(n)
        plan = block_plan(state, OracleSpec.standard(n, 3))
        total = measure(state, plan).total
        measured = []

        def subtract(a, b, out):
            if np.shares_memory(out, plan.scratch):
                measured.append(b)
            return np.subtract(a, b, out=out)

        monkeypatch.setattr(statevector, "np", SimpleNamespace(**{**vars(np), "subtract": subtract}))
        planes = checked_steps(state, self._params(WINDOW), plan, total)
        assert len(measured) == len(plan.blocks) == 2 ** (n - 10)
        assert max(plane.leakage for plane in planes) < 1e-12

    @pytest.mark.parametrize("n", [12, 16])
    def test_the_plane_takes_no_dot(self, n, monkeypatch):
        monkeypatch.setattr(statevector, "BLOCK", 2**10)
        dots = []

        class Counting(np.ndarray):
            def __matmul__(self, other):
                dots.append(self.size)
                return np.asarray(self) @ np.asarray(other)

        state = uniform_state(n)
        plan = block_plan(state, OracleSpec.standard(n, 3))
        plan = plan._replace(scratch=plan.scratch.view(Counting))
        planes = [measure(state, plan)]
        planes += checked_steps(state, self._params(WINDOW), plan, planes[0].total)
        assert dots == []
        assert max(plane.leakage for plane in planes) < 1e-12
        # One block off the plane takes one dot: the count sees them.
        state[2500] += 1e-9
        measure(state, plan)
        assert dots == [2 * 2**10]

    @pytest.mark.parametrize("n", [12, 16])
    def test_a_clean_window_shifts_each_block_once(self, n, monkeypatch):
        monkeypatch.setattr(statevector, "BLOCK", 2**10)
        spec = OracleSpec.standard(n, 3)
        params = self._params(WINDOW)
        want = uniform_state(n)
        stepwise_run(want, params, block_plan(want, spec))
        state = uniform_state(n)
        plan = block_plan(state, spec)
        total = measure(state, plan).total
        shifted = []

        def subtract(a, b, out):
            if out.size == 2**10 and np.shares_memory(out, state):
                shifted.append(b)
            return np.subtract(a, b, out=out)

        monkeypatch.setattr(statevector, "np", SimpleNamespace(**{**vars(np), "subtract": subtract}))
        checked_steps(state, params, plan, total)
        assert len(shifted) == len(plan.blocks) == 2 ** (n - 10)
        assert np.array_equal(state.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("n", [12, 16])
    def test_a_signed_zero_is_not_clean(self, n, monkeypatch):
        # beta = 0 makes every shift zero, so no step touches the defect, and
        # x - r reads 0 although x and r differ in the sign of a zero.
        monkeypatch.setattr(statevector, "BLOCK", 2**10)
        params = [p._replace(beta=0.0) for p in self._params(2 * WINDOW + 3)]
        defects = [(2500, complex(2.0 ** (-n / 2), -0.0))]
        assert_one_pass_per_step_bits(n, OracleSpec.standard(n, 3), params, defects)

    def test_a_zero_shift_leaves_the_phased_targets(self):
        # The shift is not subtracted, but at = phased - shift turns -0.0 into 0.0.
        state = uniform_state(12) * complex(0.6, 0.8)
        plan = block_plan(state, OracleSpec.standard(12))
        phased, shift = np.array([complex(0.0, -0.0)]), complex(0.0, -0.0)
        at = phased - shift
        step = (phased, shift, complex(state[1]), at, complex(at.sum()))
        statevector._sweep(state, plan, [step, step])
        assert math.copysign(1.0, at[0].imag) == 1.0
        assert state[:1].view(np.uint64).tolist() == phased.view(np.uint64).tolist()


def edge_targets(n, size, m, seed):
    """m target indices of an n-qubit register, first and last of blocks of `size` first."""
    edges = sorted({i for lo in range(0, 2**n, size) for i in (lo, lo + size - 1)})
    rng = np.random.default_rng(seed)
    rest = np.setdiff1d(np.arange(2**n), edges)
    chosen = edges[:m] + rng.choice(rest, max(m - len(edges), 0), replace=False).tolist()
    return OracleSpec(n, frozenset(format(i, f"0{n}b") for i in chosen))


class TestWindow:
    """A window of steps per pass gives the bits of one pass per step."""

    @pytest.mark.parametrize("size", [2**10, BLOCK])
    @pytest.mark.parametrize("m", [1, 3, 256])
    @pytest.mark.parametrize(
        "length", [0, 1, WINDOW - 1, WINDOW, WINDOW + 1, 5 * WINDOW + 3]
    )
    def test_matches_one_pass_per_step(self, size, m, length, monkeypatch):
        monkeypatch.setattr(statevector, "BLOCK", size)
        n = 16
        spec = edge_targets(n, size, m, seed=m)
        angles = np.random.default_rng(length).uniform(-math.pi, math.pi, (length, 2))
        params = [IterationParams(beta, gamma) for beta, gamma in angles.tolist()]
        planes = assert_one_pass_per_step_bits(n, spec, params)
        assert len(planes) == length + 1
        assert max(float.fromhex(bits[3]) for bits in planes) < 1e-12

    def test_off_the_plane_it_differs_only_by_rounding(self, monkeypatch):
        # Off the plane a later step's sum carries the window's off-plane sum,
        # which the steps leave invariant; leaving it out moves the amplitudes
        # by about 1e-5 here.
        monkeypatch.setattr(statevector, "BLOCK", 2**10)
        n = 12
        spec = OracleSpec.standard(n, 4)
        runs = []
        for run in (windowed_run, stepwise_run):
            state = uniform_state(n)
            state[100] += 1e-3
            state[3000] -= 2e-3j
            planes = run(state, optimal_sequence(n, 4).params, block_plan(state, spec))
            runs.append((planes, state))
        (planes, state), (want_planes, want) = runs
        np.testing.assert_allclose(state, want, rtol=0, atol=1e-15)
        for plane, want_plane in zip(planes[1:], want_planes[1:]):
            assert plane.probability == pytest.approx(want_plane.probability, abs=1e-14)
            assert plane.leakage == pytest.approx(want_plane.leakage, rel=1e-12)
            assert plane.leakage > 1e-6

    def test_an_empty_window_leaves_the_state(self):
        spec = OracleSpec.standard(12, 3)
        state = uniform_state(12)
        assert checked_steps(state, [], block_plan(state, spec), 0j) == []
        np.testing.assert_array_equal(state, uniform_state(12))

    @pytest.mark.parametrize("k", [2, WINDOW, WINDOW + 3])
    def test_a_check_failing_mid_window_names_its_step(self, k, monkeypatch):
        exact = schedules.trajectory

        def skewed(*args):
            return tuple(
                r._replace(probability_after=r.probability_after + 1e-6) if r.index >= k else r
                for r in exact(*args)
            )

        seq = optimal_sequence(12)
        assert len(seq) > k
        monkeypatch.setattr(schedules, "trajectory", skewed)
        with pytest.raises(BackendMismatchError, match=f"disagree at step {k}:"):
            run_search(seq, OracleSpec.standard(12), "statevector")


class TestSampling:
    def test_counts_sum_to_shots(self):
        counts = sample_measurements(0.3, OracleSpec.standard(3, 2), 1000, seed=1)
        assert sum(counts.values()) == 1000

    def test_deterministic(self):
        spec = OracleSpec.single("0110")
        assert sample_measurements(0.4, spec, 500, 7) == sample_measurements(0.4, spec, 500, 7)

    def test_concentrates_on_target(self):
        spec = OracleSpec.single("110")
        state = apply_iteration(uniform_state(3), IterationParams(math.pi, math.pi), spec)
        probability = measure(state, block_plan(state, spec)).probability
        counts = sample_measurements(probability, spec, 20_000, seed=3)
        assert counts["110"] / 20_000 == pytest.approx(25.0 / 32.0, abs=0.02)

    def test_keys_are_big_endian_bitstrings(self):
        # Index 4 is "100"; every other index of three qubits is a non-target.
        spec = OracleSpec.single("100")
        assert sample_measurements(1.0, spec, 10, seed=0) == {"100": 10}
        others = {"000", "001", "010", "011", "101", "110", "111"}
        assert set(sample_measurements(0.0, spec, 1000, seed=0)) == others

    @pytest.mark.parametrize("probability", [0.0, 0.3, 0.75, 1.0])
    def test_ranks_map_to_the_non_targets_in_index_order(self, probability):
        # Targets at index 0, in a run (0, 1), alone (7) and at the last index (15).
        targets = [0, 1, 7, 15]
        others = [i for i in range(16) if i not in targets]
        spec = OracleSpec(4, frozenset(format(i, "04b") for i in targets))
        u = np.random.default_rng(5).random(4000)
        want = Counter(
            targets[min(int(x / probability * 4), 3)]
            if x < probability
            else others[min(int((x - probability) / (1 - probability) * 12), 11)]
            for x in u
        )
        counts = sample_measurements(probability, spec, 4000, seed=5)
        assert counts == {format(i, "04b"): c for i, c in sorted(want.items())}
        if probability == 0.0:
            assert sorted(int(k, 2) for k in counts) == others

    def test_certain_outcomes(self):
        spec = OracleSpec.standard(5, 3)
        assert not set(sample_measurements(0.0, spec, 2000, seed=2)) & spec.targets
        assert set(sample_measurements(1.0, spec, 2000, seed=2)) == spec.targets

    def test_rounding_is_clamped_to_the_last_index(self, monkeypatch):
        top = 1.0 - 2.0**-53  # the largest uniform `Generator.random` returns
        # At P = top, one ulp below 1, u = 0, the last u below P and u = P are
        # the first target, the last target and the first non-target.
        below_one = math.nextafter(1.0, 0.0)
        # At this P, (top - P)/(1 - P) rounds to 1.0, one past the last rank.
        rounds_up = 0.1889777030875321
        assert (top - rounds_up) / (1.0 - rounds_up) == 1.0
        spec = OracleSpec(4, frozenset({"0000", "0101", "1111"}))
        cases = [
            (below_one, [0.0, top - 2.0**-53, top], {"0000": 1, "1111": 1, "0001": 1}),
            (rounds_up, [top], {"1110": 1}),
        ]
        for probability, draws, want in cases:
            rng = SimpleNamespace(random=lambda shots, draws=draws: np.array(draws))
            monkeypatch.setattr(np.random, "default_rng", lambda seed, rng=rng: rng)
            assert sample_measurements(probability, spec, len(draws), seed=0) == want

    def test_matches_the_dense_distribution(self, monkeypatch):
        states = []
        uniform = statevector.uniform_state
        monkeypatch.setattr(
            statevector, "uniform_state", lambda n: states.append(uniform(n)) or states[-1]
        )
        spec = OracleSpec.standard(3, 2)
        seq = schedules.build(schedules.FIXED_POINT, 3, 2, length=3, delta=0.5)
        traj = run_search(seq, spec, "statevector")
        assert 0.1 < traj.final_probability < 0.9
        shots = 200_000
        counts = sample_measurements(traj.final_probability, spec, shots, seed=4)
        dense = np.abs(states[-1]) ** 2
        sampled = [counts.get(format(i, "03b"), 0) / shots for i in range(8)]
        assert sampled == pytest.approx(dense, abs=0.005)

    @pytest.mark.parametrize(
        "probability, shots",
        [(0.5, 0), (0.5, statevector.MAX_SHOTS + 1), (-0.1, 10), (1.1, 10), (math.nan, 10)],
    )
    def test_rejects_bad_input(self, probability, shots):
        with pytest.raises(ValueError, match="shots and P in"):
            sample_measurements(probability, OracleSpec.single("01"), shots, seed=0)
