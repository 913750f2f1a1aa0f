import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaa import engine, schedules, statevector as sv
from qaa.engine import (
    BackendMismatchError,
    Trajectory,
    classify,
    compare,
    grover_baseline,
    run_search,
)
from qaa.schedules import (
    BUILDERS,
    ParameterSequence,
    StepRecord,
    build,
    fixed_point_sequence,
    generate_qaao_sequence,
    grover_sequence,
    optimal_sequence,
)
from qaa.statevector import OracleSpec
from qaa.subspace import IterationParams, advance

from reference import CSV_HEADER, cellwise_csv, dict_rows_json, measured_start, probabilities


class TestRunSearch:
    def test_optimal_reaches_one(self):
        traj = run_search(optimal_sequence(8), OracleSpec.single("10110101"))
        assert traj.final_probability == pytest.approx(1.0, abs=1e-10)
        assert traj.is_monotone
        assert traj.turning_index is None
        assert len(traj.steps) == 13

    def test_backend_agreement(self):
        seq = optimal_sequence(6)
        oracle = OracleSpec.single("101101")
        a = run_search(seq, oracle, backend="analytic")
        b = run_search(seq, oracle, backend="statevector")
        for x, y in zip(probabilities(a), probabilities(b)):
            assert x == pytest.approx(y, abs=1e-10)

    def test_query_accounting(self):
        traj = run_search(fixed_point_sequence(5, 0.3), OracleSpec.single("110"))
        assert [s.cumulative_queries for s in traj.steps] == [2, 4, 6, 8, 10]

    def test_empty_schedule(self):
        seq = ParameterSequence(params=(), kind="optimal", n=4)
        traj = run_search(seq, OracleSpec.single("1010"))
        assert traj.steps == ()
        assert traj.final_probability == pytest.approx(1.0 / 16.0)

    @pytest.mark.parametrize("n, m", [(8, 1), (16, 3)])
    def test_empty_schedule_on_the_dense_backend(self, n, m, monkeypatch):
        # Every block of the uniform start is clean and unwritten, so with no
        # step the closing fill writes it from the start's r and targets.
        monkeypatch.setattr(sv, "BLOCK", 2**10)
        seq = ParameterSequence(params=(), kind="optimal", n=n, m=m)
        traj = run_search(seq, OracleSpec.standard(n, m), "statevector")
        assert traj == run_search(seq, OracleSpec.standard(n, m))
        assert traj.final_probability == pytest.approx(m / 2**n, rel=1e-12)

    def test_the_dense_cap_comes_before_any_vector(self, monkeypatch):
        # The model takes n = 25; a dense start of 2^25 amplitudes would take
        # 512 MiB, and it is refused before any array is allocated.
        seq, oracle = grover_sequence(25), OracleSpec.standard(25)

        def allocate(*args, **kwargs):
            raise AssertionError("a vector was allocated")

        numpy = SimpleNamespace(**{**vars(np), "empty": allocate, "full": allocate})
        monkeypatch.setattr(sv, "np", numpy)
        with pytest.raises(ValueError, match=r"qubit count must lie in \[1, 24\], got 25"):
            run_search(seq, oracle, "statevector")

    def test_rejects_mismatched_n(self):
        with pytest.raises(ValueError):
            run_search(optimal_sequence(5), OracleSpec.single("110"))

    def test_rejects_mismatched_m(self):
        with pytest.raises(ValueError):
            run_search(optimal_sequence(8, 4), OracleSpec.single("0" * 8))

    def test_fixed_point_runs_on_any_m(self):
        traj = run_search(fixed_point_sequence(12, 0.316), OracleSpec.standard(6, 4))
        assert traj.m == 4
        assert traj.final_probability >= 0.9

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 8),
        st.data(),
        st.lists(st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi)),
                 min_size=1, max_size=12),
    )
    def test_backends_agree_for_any_oracle(self, n, data, pairs):
        m = data.draw(st.integers(1, 2**n - 1), label="m")
        target = None
        if m == 1:
            bits = data.draw(st.integers(0, 2**n - 1), label="target")
            target = format(bits, f"0{n}b")
        oracle = OracleSpec.standard(n, m, target)
        params = tuple(IterationParams(b, g) for b, g in pairs)
        seq = ParameterSequence(params=params, kind="random-qaao", n=n, m=m)
        analytic = run_search(seq, oracle)
        dense = run_search(seq, oracle, backend="statevector")
        for a, b in zip(probabilities(analytic), probabilities(dense)):
            assert a == pytest.approx(b, abs=1e-10)

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            run_search(optimal_sequence(3), OracleSpec.single("110"), backend="qpu")

    def test_fixed_point_turning_index(self):
        traj = run_search(
            fixed_point_sequence(21, math.sqrt(0.1)), OracleSpec.single("11001010")
        )
        assert not traj.is_monotone
        assert traj.negative_steps == [9, 10, 11, 12, 21]
        assert traj.turning_index == 8  # probability peaks after step 8


class TestDenseGuards:
    """The three checks of every dense step raise, each on its own defect."""

    def test_leakage_out_of_the_plane_raises(self, monkeypatch):
        def perturbed(oracle):
            # Amplitude 5 is a non-target; the leakage reads about 1e-10.
            state = sv.uniform_state(oracle.n)
            state[5] += 1e-5
            return measured_start(state, oracle)

        monkeypatch.setattr(sv, "uniform_start", perturbed)
        with pytest.raises(BackendMismatchError, match="leakage .* at step 1$"):
            run_search(optimal_sequence(8), OracleSpec.standard(8), "statevector")

    def test_norm_defect_raises(self, monkeypatch):
        def scaled(oracle):
            # In the plane, with norm defect 2e-11: neither other check sees it.
            return measured_start(sv.uniform_state(oracle.n) * (1.0 + 1e-11), oracle)

        monkeypatch.setattr(sv, "uniform_start", scaled)
        with pytest.raises(BackendMismatchError, match="norm defect .* at step 1$"):
            run_search(optimal_sequence(10), OracleSpec.standard(10), "statevector")

    def test_disagreement_with_the_model_raises(self, monkeypatch):
        # The generator's walk binds `advance`, so its records carry the skew.
        exact = schedules.advance

        def skewed(*args):
            theta, phi, delta = exact(*args)
            return theta + 1e-6, phi, delta

        monkeypatch.setattr(schedules, "advance", skewed)
        with pytest.raises(BackendMismatchError, match="disagree at step 1:"):
            run_search(optimal_sequence(8), OracleSpec.standard(8), "statevector")

    @pytest.mark.parametrize(
        "cell, message", [("leakage", "leakage nan"), ("probability", "statevector nan")]
    )
    def test_nan_plane_raises(self, monkeypatch, cell, message):
        # The third Plane of a two-window run is poisoned: the run draws no
        # later Plane and never sweeps its second window.  The uniform start
        # takes no sweep at all.
        exact, sweep = sv.checked_steps, sv._sweep
        drawn, swept = [], []

        def poisoned(*args):
            for plane in exact(*args):
                drawn.append(plane)
                yield plane._replace(**{cell: math.nan}) if len(drawn) == 3 else plane

        monkeypatch.setattr(sv, "checked_steps", poisoned)
        monkeypatch.setattr(sv, "_sweep", lambda *a: swept.append(len(a[2])) or sweep(*a))
        seq = optimal_sequence(12)
        assert len(seq) > sv.WINDOW
        with pytest.raises(BackendMismatchError, match=message) as raised:
            run_search(seq, OracleSpec.standard(12), "statevector")
        assert "at step 3" in str(raised.value)
        assert len(drawn) == 3
        assert swept == [sv.WINDOW]


#: The adaptive kinds, whose generators walk the 2D model to choose each step.
WALKED = {
    "optimal": {},
    "noisy-optimal": {"delta": 0.2, "seed": 3},
    "random-qaao": {"seed": 3},
}


class TestOneWalk:
    """A generated schedule's 2D trajectory is walked once, by its generator."""

    @pytest.mark.parametrize("kind", WALKED)
    def test_generate_and_run_advance_once_per_step(self, monkeypatch, kind):
        calls = []

        def counted(*args):
            calls.append(args)
            return advance(*args)

        # Every module that binds `advance` is counted, so a second walk shows.
        for module in (schedules, engine):
            if hasattr(module, "advance"):
                monkeypatch.setattr(module, "advance", counted)
        seq = build(kind, 10, **WALKED[kind])
        run_search(seq, OracleSpec.standard(10))
        assert len(calls) == len(seq)

    def test_replaced_params_are_walked_afresh(self):
        seq = optimal_sequence(8)
        grover = (IterationParams(math.pi, math.pi),) * 3
        replaced = dataclasses.replace(seq, params=grover)
        assert replaced.steps is None
        want = run_search(build("grover", 8, steps=3), OracleSpec.standard(8))
        assert run_search(replaced, OracleSpec.standard(8)).to_csv() == want.to_csv()

    def test_records_of_another_register_are_not_reused(self):
        seq = optimal_sequence(6)
        copy = ParameterSequence(seq.params, "optimal")
        assert schedules.trajectory(seq, 8) == schedules.trajectory(copy, 8)

    @pytest.mark.parametrize("backend", ["analytic", "statevector"])
    @pytest.mark.parametrize("m", [1, 4])
    @pytest.mark.parametrize("kind", WALKED)
    def test_hand_built_copy_gives_the_same_bytes(self, kind, m, backend):
        seq = build(kind, 10, m, **WALKED[kind])
        copy = ParameterSequence(seq.params, kind, 10, m)
        assert seq.steps is not None and copy.steps is None
        # The records take no part in equality, hashing or repr.
        assert (seq, hash(seq), repr(seq)) == (copy, hash(copy), repr(copy))
        oracle = OracleSpec.standard(10, m)
        walked, rerun = run_search(seq, oracle, backend), run_search(copy, oracle, backend)
        assert walked.to_csv() == rerun.to_csv()
        assert walked.to_json() == rerun.to_json()


class TestClassify:
    def test_boundary_predicate_vs_increment_sign(self):
        # row 21's coefficient b is positive even though the realized
        # increment is negative, so the two annotations differ there
        traj = run_search(
            fixed_point_sequence(21, math.sqrt(0.1)), OracleSpec.single("11001010")
        )
        relabeled = classify(traj)
        assert traj.steps[20].qaao_flag is False
        assert relabeled.steps[20].qaao_flag is True

    def test_strict_predicate_is_stricter(self):
        traj = run_search(
            fixed_point_sequence(21, math.sqrt(0.1)), OracleSpec.single("11001010")
        )
        loose = sum(s.qaao_flag for s in classify(traj).steps)
        strict = sum(s.qaao_flag for s in classify(traj, c=1.5).steps)
        assert strict <= loose

    @pytest.mark.parametrize("m", [1, 4])
    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_changes_only_the_flag(self, kind, m):
        traj = run_search(build(kind, 8, m), OracleSpec.standard(8, m))
        for c in (None, 1.5):
            relabeled = classify(traj, c)
            assert len(relabeled.steps) == len(traj.steps)
            for s, r in zip(traj.steps, relabeled.steps):
                assert r._replace(qaao_flag=s.qaao_flag) == s

    def test_rejects_small_c(self):
        traj = grover_baseline(4, steps=2)
        with pytest.raises(ValueError):
            classify(traj, c=1.0)


class TestGroverBaseline:
    def test_single_step_n3(self):
        traj = grover_baseline(3)
        assert traj.kind == "grover"
        assert traj.final_probability == pytest.approx(25.0 / 32.0, abs=1e-12)

    def test_overshoots_eventually(self):
        traj = grover_baseline(6, steps=12)
        assert not traj.is_monotone
        peak = max(probabilities(traj))
        assert peak > 0.99
        assert traj.turning_index is not None


#: Float cells with the edge cases of repr and %.6f: signed zero, the
#: smallest subnormal, the first integer-valued float repr writes with an
#: exponent, and a float with 300 digits before the point.
CELL_FLOATS = st.sampled_from([-0.0, 5e-324, 1e16, 1e300]) | st.floats(
    allow_nan=False, allow_infinity=False
)
CELL_INTS = st.integers(-(2**70), 2**70)
RECORDS = st.builds(
    StepRecord, CELL_INTS, CELL_FLOATS, CELL_FLOATS, CELL_FLOATS, CELL_FLOATS,
    CELL_FLOATS, CELL_FLOATS, st.booleans(), CELL_INTS,
)

#: Rows of the fixed-point table's columns, with a bool column added, whose
#: floats also take nan and +-inf; the header is not in sorted order.
TABLE_HEADER = ("no", "theta", "phi", "increment", "amplified", "qaao")
JSON_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]) | st.floats()
TABLE_ROWS = st.tuples(
    CELL_INTS, JSON_FLOATS, JSON_FLOATS, JSON_FLOATS, st.booleans(), st.sampled_from("OX")
)


class TestSerialization:
    def test_csv_header_and_shape(self):
        traj = run_search(optimal_sequence(4), OracleSpec.single("1010"))
        lines = traj.to_csv().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(traj.steps) + 1
        assert all(len(line.split(",")) == 9 for line in lines)

    def test_csv_flags(self):
        traj = run_search(
            fixed_point_sequence(21, math.sqrt(0.1)), OracleSpec.single("11001010")
        )
        flags = [line.split(",")[7] for line in traj.to_csv().splitlines()[1:]]
        assert [i + 1 for i, f in enumerate(flags) if f == "X"] == [9, 10, 11, 12, 21]

    @settings(max_examples=200, deadline=None)
    @given(st.builds(
        Trajectory,
        n=st.none() | st.integers(1, 32),
        m=st.integers(1, 2**40),
        kind=st.text(),
        steps=st.lists(RECORDS, max_size=12).map(tuple),
        final_probability=CELL_FLOATS,
    ), st.lists(TABLE_ROWS, max_size=12))
    def test_matches_the_dict_rows(self, traj, table):
        assert traj.to_csv() == cellwise_csv(traj)
        assert traj.to_json() == dict_rows_json(traj)
        dicts = [dict(zip(TABLE_HEADER, row)) for row in table]
        expected = json.dumps(dicts, sort_keys=True) + "\n"
        assert engine.format_rows(table, "json", TABLE_HEADER) == expected

    def test_empty_trajectory(self):
        traj = run_search(ParameterSequence((), "optimal", 4), OracleSpec.standard(4))
        assert traj.to_csv() == cellwise_csv(traj) == CSV_HEADER + "\n"
        assert traj.to_json() == dict_rows_json(traj)
        assert json.loads(traj.to_json())["steps"] == []

    def test_nonfinite_cells_are_spelled_as_json_spells_them(self):
        cells = (math.nan, math.inf, -math.inf, -0.0, 1e300, math.nan)
        steps = (StepRecord(1, *cells, False, 1), StepRecord(2, *cells[::-1], True, 2))
        traj = Trajectory(8, 1, "optimal", steps, math.nan)
        text = traj.to_json()
        assert text == dict_rows_json(traj)
        assert "NaN" in text and "-Infinity" in text and "nan" not in text
        assert traj.to_csv() == cellwise_csv(traj)

    def test_json_roundtrips_through_loads(self):
        traj = run_search(optimal_sequence(4), OracleSpec.single("0101"))
        d = json.loads(traj.to_json())
        assert d["n"] == 4
        assert d["kind"] == "optimal"
        assert len(d["steps"]) == len(traj.steps)
        assert d["final_probability"] == pytest.approx(1.0, abs=1e-10)

    def test_deterministic_output(self):
        seq = generate_qaao_sequence(6, seed=9)
        oracle = OracleSpec.single("110011")
        assert run_search(seq, oracle).to_csv() == run_search(seq, oracle).to_csv()
        assert run_search(seq, oracle).to_json() == run_search(seq, oracle).to_json()


class TestCompare:
    def test_report_structure(self):
        report = compare(
            [
                ("optimal", {}),
                ("fixed-point", {"length": 21, "delta": math.sqrt(0.1)}),
                ("pi3", {"max_depth": 7}),
            ],
            n=8,
        )
        kinds = [a["kind"] for a in report["algorithms"]]
        assert kinds == ["optimal", "fixed-point", "pi3"]
        optimal, fixed_point, pi3 = report["algorithms"]
        assert optimal["monotone"] is True
        assert optimal["to_threshold"]["queries_single"] <= 13
        assert fixed_point["negative_steps"] == [9, 10, 11, 12, 21]
        assert fixed_point["queries_per_iteration"] == 2
        assert pi3["to_threshold"]["depth"] == 6

    def test_both_query_conventions_reported(self):
        report = compare([("optimal", {})], n=8)
        to_threshold = report["algorithms"][0]["to_threshold"]
        assert to_threshold["queries_double"] == 2 * to_threshold["queries_single"]
        assert to_threshold["queries_declared"] == to_threshold["queries_single"]

    def test_pi3_needs_many_more_queries(self):
        report = compare([("optimal", {}), ("pi3", {"max_depth": 7})], n=8)
        optimal, pi3 = report["algorithms"]
        assert pi3["to_threshold"]["queries"] >= 10 * optimal["to_threshold"]["queries_single"]

    def test_multi_target_runs_on_m_targets(self):
        report = compare([("optimal", {}), ("random-qaao", {"seed": 3})], n=8, m=4)
        for algorithm in report["algorithms"]:
            assert algorithm["final_probability"] == pytest.approx(1.0, abs=1e-10)

    def test_rejects_empty_spec_list(self):
        with pytest.raises(ValueError):
            compare([], n=6)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            compare([("quantum-annealing", {})], n=6)
