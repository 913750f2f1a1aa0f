import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qaa import schedules
from qaa.schedules import (
    BUILDERS,
    MAX_ITERATIONS,
    MAX_PI3_DEPTH,
    ParameterSequence,
    build,
    fixed_point_sequence,
    generate_qaao_sequence,
    grover_sequence,
    k_star,
    noisy_optimal_sequence,
    optimal_sequence,
    pi3_failure_probability,
    pi3_matrix,
    pi3_queries,
    pi3_series,
)
from qaa.subspace import (
    MAX_QUBITS,
    IterationParams,
    advance,
    amplification_coefficient,
    amplification_terms,
    initial_angles,
    optimal_angles,
    qaao_bound,
)

from reference import (
    FIXED_POINT_N8_L21,
    NON_AMPLIFYING_ROWS,
    fixed_point_probability,
    grover_k_star,
)


class TestKStar:
    def test_known_values(self):
        # floor(pi*sqrt(N/m)/4 - 1/2) computed by hand
        assert k_star(8) == 12
        assert k_star(2) == 1
        assert k_star(4) == 2
        assert k_star(10) == 24
        assert k_star(8, 4) == 5

    def test_matches_direct_formula(self):
        for n in range(2, 20):
            assert k_star(n) == grover_k_star(n)


class TestParameterSequence:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ParameterSequence(params=(), kind="mystery")

    def test_len(self):
        assert len(optimal_sequence(8)) == 13

    def test_iterates_over_params(self):
        seq = optimal_sequence(6)
        assert list(seq) == list(seq.params)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(BUILDERS)),
        st.integers(4, 10),
        st.integers(0, 2),
        st.integers(0, 2**31 - 1),
        st.floats(0.01, 0.99),
        st.integers(1, 30),
        st.integers(1, 4),
    )
    def test_build_every_kind(self, kind, n, log_m, seed, delta, length, steps):
        settings = dict(seed=seed, delta=delta, length=length, steps=steps)
        seq = build(kind, n, 2**log_m, **settings)
        assert seq.kind == kind
        assert seq == build(kind, n, 2**log_m, **settings)
        assert seq.queries_per_iteration == (2 if kind == "fixed-point" else 1)

    def test_query_convention_follows_the_kind(self):
        params = fixed_point_sequence(7, 0.1).params
        assert ParameterSequence(params, kind="fixed-point").queries_per_iteration == 2
        assert ParameterSequence(params, kind="grover").queries_per_iteration == 1

    def test_has_only_the_fields_that_are_read(self):
        assert [f.name for f in dataclasses.fields(ParameterSequence)] == [
            "params", "kind", "n", "m", "steps"
        ]
        # The walked records are set by the generators only.
        with pytest.raises(TypeError):
            ParameterSequence((IterationParams(1.0, 1.0),), "grover", 4, steps=())

    @pytest.mark.parametrize("steps", [0, -2])
    def test_grover_needs_a_step(self, steps):
        with pytest.raises(ValueError, match="at least one step"):
            build("grover", 4, steps=steps)

    @pytest.mark.parametrize("kind, setting", [("grover", "steps"), ("fixed-point", "length")])
    def test_user_lengths_are_capped(self, kind, setting):
        assert len(build(kind, 4, **{setting: MAX_ITERATIONS})) == MAX_ITERATIONS
        with pytest.raises(ValueError, match=f"at most {MAX_ITERATIONS}"):
            build(kind, 4, **{setting: MAX_ITERATIONS + 1})

    def test_build_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            build("pi3", 8)


class TestOptimalSequence:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_reaches_probability_one(self, n):
        seq = optimal_sequence(n)
        assert len(seq) == k_star(n) + 1
        assert final_probability(seq.params, n) == pytest.approx(1.0, abs=1e-10)

    def test_multi_target(self):
        seq = optimal_sequence(8, m=4)
        assert final_probability(seq.params, 8, 4) == pytest.approx(1.0, abs=1e-10)

    def test_every_step_amplifies(self):
        theta0 = theta = initial_angles(8).theta
        phi = 0.0
        for p in optimal_sequence(8).params:
            theta, phi, d = advance(p.beta, p.gamma, theta, phi, theta0)
            assert d > 0.0

    def test_rejects_dense_marking(self):
        with pytest.raises(ValueError):
            optimal_sequence(3, m=3)

    def test_query_scaling(self):
        # length stays within the ~ (pi/4) sqrt(N) envelope
        for n in (4, 8, 12):
            assert len(optimal_sequence(n)) <= math.pi / 4.0 * math.sqrt(2**n) + 1


def reference_qaao(n, m=1, c=1.5, seed=0):
    """The per-draw sampler the block sampler must reproduce.

    One rng.uniform(-pi, pi, 2) call, one validated IterationParams and one
    b > qaao_bound(c, N) test per draw until the closing region, at most
    10,000 draws per step; then the closing step.
    """
    rng = np.random.default_rng(seed)
    theta0 = theta = initial_angles(n, m).theta
    phi = 0.0
    bound = qaao_bound(c, 2**n)
    params = []
    while theta < math.pi - 2.0 * theta0:
        for _ in range(10_000):
            candidate = IterationParams(*rng.uniform(-math.pi, math.pi, 2))
            if b_at(candidate, phi, theta0) > bound:
                break
        else:
            raise RuntimeError("no amplifying parameters found")
        params.append(candidate)
        theta, phi, _ = advance(candidate.beta, candidate.gamma, theta, phi, theta0)
    params.append(IterationParams(*optimal_angles(theta, phi, theta0)))
    return tuple(params)


@st.composite
def qaao_settings(draw):
    n = draw(st.integers(4, 16))
    m = draw(st.integers(1, 2 ** (n - 2)))
    c = draw(st.floats(1.0, 2.5, exclude_min=True))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, m, c, seed


def b_at(p, phi, theta0):
    """The increment coefficient b of iteration p at a state of phase phi."""
    return amplification_terms(p.beta, p.gamma, phi, math.cos(theta0), math.sin(theta0))[1]


def final_probability(params, n, m=1):
    """Target probability after running params from the uniform state."""
    theta0 = theta = initial_angles(n, m).theta
    phi = 0.0
    for p in params:
        theta, phi, _ = advance(p.beta, p.gamma, theta, phi, theta0)
    return math.sin(0.5 * theta) ** 2


class TestRandomQaao:
    def test_each_step_satisfies_predicate(self):
        seq = generate_qaao_sequence(8, c=1.5, seed=3)
        theta0 = theta = initial_angles(8).theta
        phi = 0.0
        for p in seq.params[:-1]:
            assert b_at(p, phi, theta0) > qaao_bound(1.5, 2**8)
            theta, phi, _ = advance(p.beta, p.gamma, theta, phi, theta0)
        assert final_probability(seq.params, 8) == pytest.approx(1.0, abs=1e-10)

    def test_deterministic_per_seed(self):
        assert generate_qaao_sequence(8, seed=5) == generate_qaao_sequence(8, seed=5)

    def test_seeds_differ(self):
        assert generate_qaao_sequence(8, seed=1) != generate_qaao_sequence(8, seed=2)

    @pytest.mark.parametrize("seed", range(8))
    def test_length_band(self, seed):
        # random QAAO walks need at least the optimal count and should stay
        # within a small multiple of it
        seq = generate_qaao_sequence(8, seed=seed)
        assert k_star(8) + 1 <= len(seq) <= 60

    def test_rejects_bad_c(self):
        with pytest.raises(ValueError):
            generate_qaao_sequence(8, c=0.5)

    def test_rejects_infinite_c(self):
        # Every draw would fail c/sqrt(N) = inf; the bound is refused before any.
        with pytest.raises(ValueError, match="finite"):
            generate_qaao_sequence(8, c=math.inf)

    def test_unreachable_predicate_raises(self, monkeypatch):
        # b is at most sin(2 theta0)/2 here (theta0 <= pi/4), below c/sqrt(N),
        # so the sampler refuses the bound before any draw.
        def draw(*args):
            raise AssertionError("drew for a bound no parameters beat")

        monkeypatch.setattr(schedules, "_draw_block", draw)
        for n, c, most in [(3, 1.5, "0.4960783708246"), (4, 1.9, "0.4236075534914"),
                           (20, 2.5, "0.0019531203433")]:
            with pytest.raises(RuntimeError, match=f"but b is at most {most}"):
                generate_qaao_sequence(n, c=c)

    def test_demanding_predicate_runs_out_of_draws(self):
        # c/sqrt(N) = 0.4235 is just below the largest b at n=4, 0.4236:
        # 10,000 draws find no pair above it.
        with pytest.raises(RuntimeError, match="10000 draws; c=1.694 is likely too demanding"):
            generate_qaao_sequence(4, c=1.694)

    @pytest.mark.parametrize("n, m", [(2, 1), (3, 2), (6, 16)])
    def test_no_draw_needed_is_no_bound_check(self, n, m):
        # theta0 = pi/3: the uniform state is already in the closing region.
        seq = generate_qaao_sequence(n, m, c=2.5)
        assert len(seq) == 1
        assert final_probability(seq.params, n, m) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(qaao_settings())
    @example((16, 1, 1.5, 0))
    @example((14, 3, 1.2, 7))
    @example((10, 1, 1.000001, 5))
    @example((4, 1, 1.5, 0))
    @example((4, 3, 1.5, 2))
    def test_matches_per_draw_reference(self, setting):
        n, m, c, seed = setting
        try:
            want = reference_qaao(n, m, c, seed)
        except RuntimeError:
            with pytest.raises(RuntimeError):
                generate_qaao_sequence(n, m, c=c, seed=seed)
            return
        seq = generate_qaao_sequence(n, m, c=c, seed=seed)
        assert seq.params == want

    @pytest.mark.parametrize(
        "first, largest", [(2, 2), (6, 6), (2, 2**14)], ids=["one-pair", "three-pairs", "doubling"]
    )
    def test_blocks_do_not_change_the_schedule(self, monkeypatch, first, largest):
        # The draws are one stream whatever the block sizes: the same pairs are
        # accepted, and the same step runs out of draws.  The n=6 case allows
        # 3 draws per step, so it runs out mid-walk.
        full = schedules.MAX_DRAWS
        cases = [
            (dict(n=8, m=1, c=1.5, seed=0), full),
            (dict(n=10, m=3, c=1.2, seed=7), full),
            (dict(n=12, m=1, c=1.05, seed=4), full),
            (dict(n=14, m=2, c=2.0, seed=11), full),
            (dict(n=6, m=1, c=1.5, seed=2), 3),
            (dict(n=3, m=1, c=1.5, seed=0), full),
        ]

        def outcome(case):
            settings, draws = case
            monkeypatch.setattr(schedules, "MAX_DRAWS", draws)
            try:
                seq = generate_qaao_sequence(**settings)
            except RuntimeError as exc:
                return str(exc)
            return seq.params, seq.steps

        want = [outcome(case) for case in cases]
        assert {type(w) for w in want} == {tuple, str}
        monkeypatch.setattr(schedules, "_DRAW_BLOCK", first)
        monkeypatch.setattr(schedules, "_DRAW_BLOCK_MAX", largest, raising=False)
        assert [outcome(case) for case in cases] == want

    def test_prefilter_is_the_exact_coefficient(self):
        # The sampler rejects a pair whose prefiltered b reads more than
        # 1e-12 below the bound, so the two must agree far inside that; the
        # grid form `amplification_coefficient` reads the same P and Q.
        rng = np.random.default_rng(11)
        for _ in range(48):  # 48 blocks of 256 pairs
            n = int(rng.integers(2, MAX_QUBITS + 1))
            theta0 = initial_angles(n, int(rng.integers(1, 2 ** (n - 1)))).theta
            cos_theta0, sin_theta0 = math.cos(theta0), math.sin(theta0)
            for beta, gamma, p, q in zip(*schedules._draw_block(rng, theta0)):
                phi = float(rng.uniform(0.0, 2.0 * math.pi))
                b = amplification_terms(beta, gamma, phi, cos_theta0, sin_theta0)[1]
                assert abs(math.sin(phi) * p + math.cos(phi) * q - b) <= 1e-14
                assert abs(amplification_coefficient(beta, gamma, phi, theta0) - b) <= 1e-14


@pytest.mark.parametrize(
    "generate",
    [
        optimal_sequence,
        lambda n: noisy_optimal_sequence(n, 0.1),
        generate_qaao_sequence,
        grover_sequence,
    ],
    ids=["optimal", "noisy-optimal", "random-qaao", "grover"],
)
def test_generators_cap_the_register(generate):
    with pytest.raises(ValueError, match=f"at most {MAX_QUBITS}"):
        generate(MAX_QUBITS + 1)


class TestNoisyOptimal:
    def test_zero_noise_is_optimal(self):
        # beta = pi and beta = -pi generate the same unitary, so compare
        # parameters modulo 2*pi
        noisy = noisy_optimal_sequence(8, 0.0, seed=1).params
        ideal = optimal_sequence(8).params
        assert len(noisy) == len(ideal)
        for a, b in zip(noisy, ideal):
            assert math.isclose(math.cos(a.beta - b.beta), 1.0, abs_tol=1e-12)
            assert math.isclose(math.cos(a.gamma - b.gamma), 1.0, abs_tol=1e-12)

    def test_bounded_perturbation(self):
        # while the noisy trajectory stays out of the closing branch the
        # ideal beta is pi, so the drawn beta stays within delta of it
        delta = 0.2 * math.pi
        seq = noisy_optimal_sequence(8, delta, seed=4)
        for p in seq.params[:-1]:
            assert abs(abs(p.beta) - math.pi) <= delta + 1e-12

    def test_shared_pulse_error(self):
        # beta and gamma carry the same draw, so their offsets from the
        # per-state ideal parameters agree step by step
        delta = 0.1 * math.pi
        seq = noisy_optimal_sequence(8, delta, seed=6)
        theta0 = theta = initial_angles(8).theta
        phi = 0.0
        for p in seq.params:
            ideal_beta, ideal_gamma = optimal_angles(theta, phi, theta0)
            offset_b = math.remainder(p.beta - ideal_beta, 2.0 * math.pi)
            offset_g = math.remainder(p.gamma - ideal_gamma, 2.0 * math.pi)
            assert offset_b == pytest.approx(offset_g, abs=1e-12)
            assert abs(offset_b) <= delta
            theta, phi, _ = advance(p.beta, p.gamma, theta, phi, theta0)

    def test_rejects_large_delta(self):
        with pytest.raises(ValueError):
            noisy_optimal_sequence(8, math.pi / 2.0)

    def test_mild_noise_still_amplifies(self):
        seq = noisy_optimal_sequence(8, 0.05 * math.pi, seed=2)
        assert final_probability(seq.params, 8) > 0.9


#: Error budgets and (n, m) registers of the closed-form check, the registers
#: from n = 2 to the qubit cap.
FIXED_POINT_DELTAS = (0.1, 0.316, 0.5, 0.9)
FIXED_POINT_REGISTERS = ((2, 1), (2, 3), (4, 2), (8, 1), (12, 3), (20, 1), (26, 2), (32, 3))


class TestFixedPoint:
    def test_reproduces_published_n8_schedule(self):
        seq = fixed_point_sequence(21, math.sqrt(0.1))
        for (_, _, _, beta, gamma, _, _), p in zip(FIXED_POINT_N8_L21, seq.params):
            assert p.beta == pytest.approx(beta, abs=1e-3)
            assert p.gamma == pytest.approx(gamma, abs=1e-3)

    def test_reproduces_published_trajectory(self):
        seq = fixed_point_sequence(21, math.sqrt(0.1))
        theta0 = theta = initial_angles(8).theta
        phi = 0.0
        negatives = []
        for (index, want_theta, want_phi, _, _, inc, flag), p in zip(
            FIXED_POINT_N8_L21, seq.params
        ):
            assert theta == pytest.approx(want_theta, abs=1e-3)
            # phi is ill-conditioned where theta turns around; allow a bit
            # more slack there than for the well-conditioned columns
            assert phi == pytest.approx(want_phi, abs=3e-3)
            theta, phi, d = advance(p.beta, p.gamma, theta, phi, theta0)
            assert d == pytest.approx(inc, abs=1e-3)
            assert (d < 0.0) == (flag == "X")
            if d < 0.0:
                negatives.append(index)
        assert tuple(negatives) == NON_AMPLIFYING_ROWS
        assert math.sin(0.5 * theta) ** 2 == pytest.approx(0.9841, abs=1e-3)

    def test_gamma_symmetry(self):
        seq = fixed_point_sequence(9, 0.2)
        betas = [p.beta for p in seq.params]
        gammas = [p.gamma for p in seq.params]
        assert gammas == betas[::-1]

    def test_independent_of_register_size(self):
        seq = fixed_point_sequence(7, 0.1)
        assert seq.n is None
        assert seq.queries_per_iteration == 2

    def test_fixed_point_property(self):
        # a sufficiently long schedule ends above 1-delta^2, and so does any
        # longer one (the fixed-point guarantee is on the complete schedule)
        delta = 0.1
        cases = {6: (26, 32, 45), 8: (50, 60, 75)}
        for n, lengths in cases.items():
            for length in lengths:
                final = final_probability(fixed_point_sequence(length, delta).params, n)
                assert final >= 1.0 - delta**2 - 1e-9

    @pytest.mark.parametrize(
        "length, deltas, registers",
        [
            (21, FIXED_POINT_DELTAS, FIXED_POINT_REGISTERS),
            (1000, FIXED_POINT_DELTAS, FIXED_POINT_REGISTERS),
            (4000, FIXED_POINT_DELTAS, FIXED_POINT_REGISTERS),
            (10_000, FIXED_POINT_DELTAS, FIXED_POINT_REGISTERS),
            (MAX_ITERATIONS, (0.05, 0.316, 0.9), ((2, 3), (20, 1), (32, 1))),
        ],
        ids=["L21", "L1000", "L4000", "L10000", "cap"],
    )
    def test_final_probability_matches_the_closed_form(self, length, deltas, registers):
        # At 1e-10 the angles must be exact to rounding: a spread computed as
        # sqrt(1 - eta^2) cancels in long schedules, and misses by 3e-8 at 10,000.
        for delta in deltas:
            seq = fixed_point_sequence(length, delta)
            for n, m in registers:
                final = schedules.trajectory(seq, n, m)[-1].probability_after
                expected = fixed_point_probability(length, delta, n, m)
                assert final == pytest.approx(expected, abs=1e-10), (n, m, delta)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 2.0])
    def test_rejects_bad_delta(self, bad):
        with pytest.raises(ValueError):
            fixed_point_sequence(5, bad)

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            fixed_point_sequence(0, 0.1)


def expand_pi3(depth: int) -> list[tuple[str, float]]:
    """Reference pi/3 program: the flat primitive list in application order.

    Level d+1 is level d, a pi/3 phase on the target, the adjoint of level d
    (reversed, angles negated), a pi/3 phase about the initial state, and
    level d again: 3^d - 1 primitives in all.
    """
    third = -math.pi / 3.0
    ops: list[tuple[str, float]] = []
    for _ in range(depth):
        adjoint = [(kind, -angle) for kind, angle in reversed(ops)]
        ops = ops + [("target", third)] + adjoint + [("initial", third)] + ops
    return ops


def expanded_matrix(ops: list[tuple[str, float]], theta0: float) -> np.ndarray:
    s0 = np.array([math.sin(0.5 * theta0), math.cos(0.5 * theta0)])
    u = np.eye(2, dtype=complex)
    for kind, angle in ops:
        if kind == "target":
            prim = np.diag([np.exp(-1j * angle), 1.0])
        else:
            prim = np.eye(2, dtype=complex) - (1.0 - np.exp(-1j * angle)) * np.outer(s0, s0)
        u = prim @ u
    return u


class TestPi3:
    def test_query_counts(self):
        for depth in range(0, 7):
            assert pi3_queries(depth) == (3**depth - 1) // 2
            targets = sum(1 for kind, _ in expand_pi3(depth) if kind == "target")
            assert pi3_queries(depth) == targets

    def test_depth_zero_is_identity(self):
        np.testing.assert_allclose(pi3_matrix(0, 0.3), np.eye(2), atol=1e-15)

    def test_unitarity(self):
        theta0 = initial_angles(8).theta
        for depth in range(0, 6):
            u = np.array(pi3_matrix(depth, theta0))
            np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 12])
    def test_cubic_error_reduction(self, n):
        # Every depth whose failure probability is at least 1e-11, which takes
        # in n=2 depth 4 (7.6e-11): computed as 1 - |a_t|^2 it cancels to a
        # relative error of 3.4e-5 there.
        theta0 = initial_angles(n).theta
        eps = math.cos(0.5 * theta0) ** 2
        for depth in [d for d in range(MAX_PI3_DEPTH + 1) if eps ** (3**d) >= 1e-11]:
            got = pi3_failure_probability(depth, theta0)
            assert got == pytest.approx(eps ** (3**depth), rel=1e-9, abs=1e-300)

    def test_eight_qubit_threshold_depth(self):
        # n=8: failure eps = 255/256; depth 6 is the first depth with
        # success probability >= 0.9
        theta0 = initial_angles(8).theta
        probs = [1.0 - pi3_failure_probability(d, theta0) for d in range(0, 8)]
        first = next(d for d, p in enumerate(probs) if p >= 0.9)
        assert first == 6
        assert pi3_queries(6) == 364

    def test_series_rows(self):
        theta0 = initial_angles(8).theta
        series = pi3_series(theta0, 7)
        assert [r["depth"] for r in series] == list(range(8))
        for r in series:
            assert r["queries"] == pi3_queries(r["depth"])
            failure = pi3_failure_probability(r["depth"], theta0)
            assert r["probability"] + failure == pytest.approx(1.0, abs=1e-15)
        # A small probability keeps its relative precision (1 - failure would
        # be 28 roundings off here).  One rounding is left: theta0 =
        # 2 asin(1/16) gives sin(theta0/2) one rounding below 1/16.
        assert series[0]["probability"] == pytest.approx(2**-8, rel=2**-52, abs=0.0)
        assert len(pi3_series(theta0)) == MAX_PI3_DEPTH + 1

    def test_rejects_out_of_range_depth(self):
        for bad in (-1, MAX_PI3_DEPTH + 1):
            with pytest.raises(ValueError):
                pi3_queries(bad)
            with pytest.raises(ValueError):
                pi3_matrix(bad, 0.3)

    @pytest.mark.parametrize("depth", range(0, 6))
    def test_matches_flat_expansion(self, depth):
        for theta0 in (0.05, initial_angles(8).theta, 0.7, 1.5):
            want = expanded_matrix(expand_pi3(depth), theta0)
            np.testing.assert_allclose(pi3_matrix(depth, theta0), want, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 4), st.floats(0.05, 1.5))
    def test_recursion_structure(self, depth, theta0):
        # U_{m} = U_{m-1} S_s U_{m-1}^dagger S_t U_{m-1} as matrices
        prev = np.array(pi3_matrix(depth - 1, theta0))
        got = pi3_matrix(depth, theta0)
        s0 = np.array([math.sin(0.5 * theta0), math.cos(0.5 * theta0)])
        phase = np.exp(1j * math.pi / 3.0)
        s_t = np.diag([phase, 1.0])
        s_s = np.eye(2, dtype=complex) - (1.0 - phase) * np.outer(s0, s0)
        want = prev @ s_s @ prev.conj().T @ s_t @ prev
        np.testing.assert_allclose(got, want, atol=1e-12)
