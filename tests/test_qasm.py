import collections
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qaa import qasm, statevector
from qaa.qasm import CHUNK, export_circuit, replay_circuit, roundtrip_deviation
from qaa.schedules import (
    BUILDERS,
    MAX_ITERATIONS,
    RANDOM_QAAO,
    build,
    fixed_point_sequence,
    grover_sequence,
    optimal_sequence,
)
from qaa.statevector import MAX_QUBITS, OracleSpec, uniform_state
from qaa.subspace import IterationParams

from reference import apply_iteration, evolve

ANGLE = st.floats(-math.pi, math.pi)
TARGET = st.integers(1, 5).flatmap(
    lambda n: st.integers(0, 2**n - 1).map(lambda i: format(i, f"0{n}b"))
)

# Reference replay: every gate rebuilds the whole vector.  One-qubit gates
# go through moveaxis + tensordot, and a phase multiplies the entries of a
# boolean mask over all basis indices.  A program is a list of ("h", q),
# ("x", q) and ("p", angle, qubits) gates, run from |0...0>.
_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def _apply_one_qubit(amps, n, gate, qubit):
    # Big-endian: qubit 0 is the leading tensor axis.
    shaped = np.moveaxis(amps.reshape((2,) * n), qubit, 0)
    shaped = np.tensordot(gate, shaped, axes=([1], [0]))
    return np.moveaxis(shaped, 0, qubit).reshape(-1)


def reference_replay(n, gates):
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    index = np.arange(2**n)
    for gate in gates:
        if gate[0] == "p":
            _, angle, qubits = gate
            selected = np.ones(2**n, dtype=bool)
            for q in qubits:
                selected &= ((index >> (n - 1 - q)) & 1) == 1
            amps = np.where(selected, amps * np.exp(1j * angle), amps)
        else:
            matrix = _H if gate[0] == "h" else _X
            amps = _apply_one_qubit(amps, n, matrix.astype(complex), gate[1])
    return amps


def render(n, gates):
    """The program as OpenQASM text, in the syntax export_circuit emits."""
    lines = ["OPENQASM 3.0;", 'include "stdgates.inc";', f"qubit[{n}] q;"]
    for gate in gates:
        if gate[0] == "p":
            _, angle, qubits = gate
            ctrl = f"ctrl({len(qubits) - 1}) @ " if len(qubits) > 1 else ""
            lines.append(f"{ctrl}p({angle!r}) " + ", ".join(f"q[{q}]" for q in qubits) + ";")
        else:
            lines.append(f"{gate[0]} q[{gate[1]}];")
    return "\n".join(lines) + "\n"


def _program(n):
    qubit = st.integers(0, n - 1)
    gate = st.one_of(
        st.tuples(st.sampled_from(["h", "x"]), qubit),
        st.tuples(st.just("p"), ANGLE, st.lists(qubit, min_size=1, max_size=n, unique=True)),
    )
    # A uniform start, a random body, then trailing x gates left pending.
    start = [("h", q) for q in range(n)]
    body = st.lists(gate, max_size=16)
    tail = st.lists(qubit.map(lambda q: ("x", q)), max_size=3)
    return st.tuples(st.just(n), st.builds(lambda b, t: start + b + t, body, tail))


# Registers up to two chunks and one qubit, so that flushes cross chunk boundaries.
PROGRAM = st.integers(1, 2 * CHUNK + 1).flatmap(_program)


class TestExport:
    def test_header(self):
        text = export_circuit([], OracleSpec.single("110"))
        lines = text.splitlines()
        assert lines[0] == "OPENQASM 3.0;"
        assert lines[1] == 'include "stdgates.inc";'
        assert lines[2] == "qubit[3] q;"
        assert lines[3:6] == ["h q[0];", "h q[1];", "h q[2];"]

    def test_iteration_comment_and_gates(self):
        text = export_circuit([IterationParams(1.5, -0.5)], OracleSpec.single("10"))
        assert "// iteration 1: beta=1.5, gamma=-0.5" in text
        # oracle: X-conjugated controlled phase of -gamma on the marked string
        assert "ctrl(1) @ p(0.5)" in text
        # diffusion: H/X-conjugated controlled phase of -beta
        assert "ctrl(1) @ p(-1.5)" in text

    def test_single_qubit_register_uses_plain_phase(self):
        text = export_circuit([IterationParams(1.0, 2.0)], OracleSpec.single("1"))
        assert "ctrl" not in text
        assert "p(-2.0) q[0];" in text
        assert "p(-1.0) q[0];" in text

    def test_rejects_more_oracle_phases_than_the_cap(self, monkeypatch):
        # A program holds m oracle phases per iteration, MAX_ITERATIONS in all.
        spec = OracleSpec(2, frozenset({"00", "11"}))
        step = IterationParams(1.0, 1.0)
        with pytest.raises(ValueError, match=f"at most {MAX_ITERATIONS} oracle phases, got 65538"):
            export_circuit([step] * (MAX_ITERATIONS // 2 + 1), spec)
        monkeypatch.setattr(qasm, "MAX_ITERATIONS", 8)
        assert export_circuit([step] * 4, spec).count("// iteration") == 4
        with pytest.raises(ValueError, match="at most 8 oracle phases, got 10"):
            export_circuit(iter([step] * 5), spec)

    @pytest.mark.parametrize("export", [export_circuit, roundtrip_deviation])
    @pytest.mark.parametrize(
        "spec", [OracleSpec.standard(6), OracleSpec.standard(8, 4)], ids=["n", "m"]
    )
    def test_rejects_a_schedule_for_another_register(self, export, spec):
        with pytest.raises(ValueError, match="schedule n=8, m=1 != oracle"):
            export(optimal_sequence(8), spec)
        # Its bare parameters carry no register, so they export to any.
        export(optimal_sequence(8).params, spec)

    def test_one_oracle_phase_per_target_in_sorted_order(self):
        spec = OracleSpec(3, frozenset({"110", "011"}))
        text = export_circuit([IterationParams(1.5, -0.5)], spec)
        body = text.splitlines()[7:]
        phase = "ctrl(2) @ p(0.5) q[0], q[1], q[2];"
        # Each target's phase sits between X gates on its 0 bits; the diffusion follows.
        assert body[:6] == ["x q[0];", phase, "x q[0];", "x q[2];", phase, "x q[2];"]
        assert body[6:9] == ["h q[0];", "h q[1];", "h q[2];"]

    def test_zero_bits_get_x_conjugation(self):
        text = export_circuit([IterationParams(1.0, 1.0)], OracleSpec.single("01"))
        assert "x q[0];" in text


class TestReplay:
    def test_bare_preparation_is_uniform(self):
        sv = replay_circuit(export_circuit([], OracleSpec.single("0110")))
        np.testing.assert_allclose(sv, np.full(16, 0.25), atol=1e-15)

    def test_grover_step(self):
        spec = OracleSpec.single("110")
        seq = [IterationParams(math.pi, math.pi)]
        sv = replay_circuit(export_circuit(seq, spec))
        want = apply_iteration(uniform_state(3), seq[0], spec)
        ratio = sv[6] / want[6]
        np.testing.assert_allclose(sv, ratio * want, atol=1e-12)
        assert abs(abs(ratio) - 1.0) < 1e-12

    def test_rejects_unknown_statement(self):
        with pytest.raises(ValueError):
            replay_circuit("OPENQASM 3.0;\nqubit[1] q;\ncz q[0], q[1];\n")

    def test_rejects_register_above_cap(self):
        with pytest.raises(ValueError, match="at most"):
            replay_circuit(f"OPENQASM 3.0;\nqubit[{MAX_QUBITS + 1}] q;\n")

    def test_rejects_empty_register(self):
        with pytest.raises(ValueError, match=re.escape("'qubit[0] q;'")):
            replay_circuit("OPENQASM 3.0;\nqubit[0] q;\n")

    @pytest.mark.parametrize(
        "line",
        [
            "p(0.5) q[7];",  # phase outside the register
            "ctrl(1) @ p(0.5) q[0], q[2];",
            "ctrl(5) @ p(0.5) q[0], q[1];",  # control count
            "p(0.5) q[0], q[1];",
            "ctrl(1) @ p(0.5) q[0] junk q[1];",
            "ctrl(1) @ p(0.5) q[0], q[0];",
            "qubit[2] q;",  # second declaration
            "h q[2];",
            "x q[5];",
        ],
    )
    def test_rejects_malformed_line(self, line):
        with pytest.raises(ValueError, match=re.escape(line)):
            replay_circuit(f"OPENQASM 3.0;\nqubit[2] q;\nh q[0];\n{line}\n")

    @pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_angle(self, angle):
        line = f"ctrl(1) @ p({angle}) q[0], q[1];"
        with pytest.raises(ValueError, match=re.escape(line)):
            replay_circuit(f"OPENQASM 3.0;\nqubit[2] q;\nh q[0];\n{line}\n")

    @pytest.mark.parametrize("angle", ["abc", "1e400x"])
    def test_rejects_non_numeric_angle(self, angle):
        line = f"p({angle}) q[0];"
        with pytest.raises(ValueError, match=re.escape(line)):
            replay_circuit(f"OPENQASM 3.0;\nqubit[2] q;\nh q[0];\n{line}\n")

    @pytest.mark.parametrize(
        "body",
        [
            "qubit[{}] q;",
            "qubit[2] q;\nh q[{}];",
            "qubit[2] q;\np(0.5) q[{}];",
            "qubit[2] q;\nctrl({}) @ p(0.5) q[0], q[1];",
        ],
        ids=["declaration", "h", "p", "ctrl"],
    )
    def test_overlong_number_quotes_the_line(self, body):
        # More digits than CPython's int() converts (4,300).
        body = body.format("9" * 5000)
        with pytest.raises(ValueError, match=re.escape(body.splitlines()[-1])):
            replay_circuit(f"OPENQASM 3.0;\n{body}\n")

    def test_memory_does_not_grow_with_the_program(self):
        # Every phase line carries its iteration's angle, so a replay that
        # kept an entry per distinct line would grow with the schedule.
        def beyond_the_lines(length):
            source = export_circuit(fixed_point_sequence(length, 0.1), OracleSpec.single("0110"))
            tracemalloc.start()
            try:
                source.splitlines()
                lines = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                replay_circuit(source)
                return tracemalloc.get_traced_memory()[1] - lines
            finally:
                tracemalloc.stop()

        assert beyond_the_lines(4000) - beyond_the_lines(400) < 128 * 1024

    def test_x_only_program_is_the_exact_basis_vector(self):
        n = 2 * CHUNK + 1
        flips = [0, 3, n - 1, 3, 1, CHUNK]
        program = render(n, [("x", q) for q in flips])
        want = np.zeros(2**n, dtype=complex)
        want[sum(1 << (n - 1 - q) for q in {0, 1, CHUNK, n - 1})] = 1.0
        assert np.array_equal(replay_circuit(program), want)

    def test_only_partial_phases_and_the_end_run_products(self, monkeypatch):
        n = 2 * CHUNK + 1
        calls = []
        chunk_matrix = qasm._chunk_matrix
        monkeypatch.setattr(qasm, "_chunk_matrix", lambda f: calls.append(f) or chunk_matrix(f))
        run = [("h", q) for q in range(n)] + [("x", q) for q in range(0, n, 2)]
        everywhere = list(range(n))
        # A full-register phase is a rank-1 update in the frame: only the end applies it.
        full = run + [("p", 0.7, everywhere)] + run + [("p", -1.9, everywhere)] + run
        # A phase on a qubit with pending gates applies the frame once, the end once more.
        partial = run + [("p", 0.3, [0])] + run + [("p", 0.7, everywhere)] + run
        for gates, products in ((full, 1), (partial, 2)):
            calls.clear()
            got = replay_circuit(render(n, gates))
            assert len(calls) == products * math.ceil(n / CHUNK)
            np.testing.assert_allclose(got, reference_replay(n, gates), rtol=0, atol=1e-12)

    def test_vector_work_does_not_grow_with_the_program(self, monkeypatch):
        # Full-register phases stay pending: a frame's first phase takes one
        # product over the vector, and the end writes the terms out once.
        calls = collections.Counter()
        for name in ("_halves", "_write_out"):
            real = getattr(qasm, name)
            monkeypatch.setattr(qasm, name, lambda *a, f=real, k=name: calls.update([k]) or f(*a))

        def work(k):
            calls.clear()
            replay_circuit(export_circuit(grover_sequence(10, 1, k), OracleSpec.single("0110100101")))
            return dict(calls)

        assert work(8) == work(64) == {"_halves": 2, "_write_out": 1}

    def test_more_frames_than_pending_terms(self, monkeypatch):
        n, rng = CHUNK + 2, random.Random(18)
        write_outs = []
        write_out = qasm._write_out
        monkeypatch.setattr(qasm, "_write_out", lambda *a: write_outs.append(len(a[2])) or write_out(*a))
        everywhere = list(range(n))
        gates = [("h", q) for q in range(n)]
        for segment in range(3):
            # More full-register phases than TERMS, each after a random h/x word,
            # every third one repeated in the same frame.
            for i in range(qasm.TERMS + 6):
                word = [(rng.choice("hx"), rng.randrange(n)) for _ in range(3)]
                gates += word + [("p", rng.uniform(-math.pi, math.pi), everywhere)] * (1 + (i % 3 == 0))
            # A phase on a qubit with pending gates, then one after the flush.
            gates += [("p", 0.3 + segment, [word[-1][1]]), ("p", -0.8, [0, n - 1])]
        gates += [("x", 1), ("x", n - 1)]
        got = replay_circuit(render(n, gates))
        np.testing.assert_allclose(got, reference_replay(n, gates), rtol=0, atol=1e-12)
        assert write_outs.count(qasm.TERMS) >= 3  # the cap wrote out full sets mid-segment

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_every_frame_element(self, n):
        # Breadth-first words over {h, x}, kept while they reach a new matrix:
        # the group H and X generate has 16 elements.
        words, seen = [""], {}
        for word in words:
            matrix = np.identity(2)
            for g in word:
                matrix = (_H if g == "h" else _X) @ matrix
            key = tuple(np.round(matrix, 9).ravel())
            if key not in seen:
                seen[key] = word
                words.extend(word + g for g in "hx")
        assert len(seen) == 16
        q = n // 2
        others = [("h", r) for r in range(n) if r != q]
        for word in seen.values():
            gates = others + [(g, q) for g in word]
            gates += [("p", 0.7, list(range(n))), ("p", -1.3, [q]), ("h", q)]
            got = replay_circuit(render(n, gates))
            np.testing.assert_allclose(got, reference_replay(n, gates), rtol=0, atol=1e-12)

    def test_long_grover_keeps_its_precision(self):
        seq = grover_sequence(16, 1, 768)
        assert roundtrip_deviation(seq, OracleSpec.single("1011001110001011")) <= 1e-12

    @pytest.mark.parametrize(
        "seq, target, tol",
        [
            (optimal_sequence(16), "1011001110001011", 1e-12),
            (fixed_point_sequence(4000, 0.1), "0110", 1e-11),
        ],
        ids=["optimal-n16", "fixed-point-4000"],
    )
    def test_accumulated_coefficients_keep_their_precision(self, seq, target, tol):
        assert roundtrip_deviation(seq, OracleSpec.single(target)) <= tol

    def test_replay_holds_two_vectors(self):
        n = 16
        source = export_circuit(grover_sequence(n, 1, 8), OracleSpec.single("0110" * 4))
        replay_circuit(source)  # fill the caches
        tracemalloc.start()
        try:
            replay_circuit(source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * 2**n * np.dtype(complex).itemsize

    @settings(max_examples=200, deadline=None)
    @given(PROGRAM)
    @example((2, [("h", 0), ("h", 1), ("x", 0), ("p", 0.7, [0, 1]), ("h", 0), ("x", 1)]))
    # Phases on some qubits while others have pending gates: after the first
    # phase flushes the start, the second leaves the gates pending on q[1]
    # and q[CHUNK], and the third has one of them on its own qubit q[1].
    @example(
        (
            CHUNK + 1,
            [("h", q) for q in range(CHUNK + 1)]
            + [("p", 0.4, [0]), ("x", CHUNK), ("h", 1), ("p", 0.9, [0, 2])]
            + [("x", 2), ("p", -2.1, [1, CHUNK - 1]), ("h", 0)]
        )
    )
    def test_matches_reference_replay(self, program):
        n, gates = program
        got = replay_circuit(render(n, gates))
        np.testing.assert_allclose(got, reference_replay(n, gates), rtol=0, atol=1e-12)


def _round_trip_cases():
    """(kind, n, m): every kind at n = 2..10 with m in {1, 2, 3, 4, N/8, N/4} and 4m <= N.

    m = 16 and 17 at n = 10 put more targets in one iteration than replay
    keeps pending (TERMS); random-qaao at n = 3, m = 1 is left out, since no
    pair beats its default bound there.
    """
    for kind in BUILDERS:
        for n in range(2, 11):
            big_n = 2**n
            ms = {1, 2, 3, 4, big_n // 8, big_n // 4} | ({16, 17} if n == 10 else set())
            for m in sorted(m for m in ms if m and 4 * m <= big_n):
                if (kind, n, m) != (RANDOM_QAAO, 3, 1):
                    yield kind, n, m


class TestRoundTrip:
    @pytest.mark.parametrize("kind, n, m", list(_round_trip_cases()))
    def test_every_kind_and_target_count(self, kind, n, m):
        seq = build(kind, n, m)
        assert roundtrip_deviation(seq, OracleSpec.standard(n, m)) <= 1e-12

    def test_multi_target_matches_evolve(self):
        spec = OracleSpec(6, frozenset({"000111", "101010", "110001"}))
        seq = optimal_sequence(6, 3)
        got = replay_circuit(export_circuit(seq, spec))
        want = evolve(seq, spec)
        k = int(np.argmax(np.abs(want)))
        np.testing.assert_allclose(got, got[k] / want[k] * want, rtol=0, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(TARGET, st.lists(st.tuples(ANGLE, ANGLE), max_size=3))
    def test_random_sequences(self, target, pairs):
        seq = [IterationParams(b, g) for b, g in pairs]
        assert roundtrip_deviation(seq, OracleSpec.single(target)) < 1e-9

    def test_optimal_schedule_n5(self):
        assert roundtrip_deviation(optimal_sequence(5), OracleSpec.single("10110")) < 1e-9

    def test_optimal_schedule_n12_matches_evolve(self):
        seq, spec = optimal_sequence(12), OracleSpec.single("010011010110")
        got = replay_circuit(export_circuit(seq, spec))
        want = evolve(seq, spec)
        k = int(np.argmax(np.abs(want)))
        np.testing.assert_allclose(got, got[k] / want[k] * want, rtol=0, atol=1e-12)
        assert abs(abs(got[k] / want[k]) - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "once", [iter, lambda params: (p for p in params)], ids=["iterator", "generator"]
    )
    def test_single_use_schedule(self, once):
        # The schedule is read once for both the export and the 2D reference.
        seq = once(optimal_sequence(5).params)
        assert roundtrip_deviation(seq, OracleSpec.single("10110")) < 1e-12

    def test_reference_is_the_2d_model(self, monkeypatch):
        # No dense simulation: the replay is compared with the target-plane state.
        def dense(*args):
            raise AssertionError("roundtrip_deviation ran a dense simulation")

        monkeypatch.setattr(statevector, "uniform_state", dense)
        monkeypatch.setattr(statevector, "checked_steps", dense)
        assert roundtrip_deviation(optimal_sequence(8), OracleSpec.single("01101001")) <= 1e-12

    def test_fixed_point_schedule(self):
        seq = fixed_point_sequence(6, 0.1)
        assert roundtrip_deviation(seq, OracleSpec.single("0011")) < 1e-9

    def test_all_marked_strings_n3(self):
        seq = [IterationParams(2.2, -1.1), IterationParams(-0.4, 0.9)]
        for i in range(8):
            target = format(i, "03b")
            assert roundtrip_deviation(seq, OracleSpec.single(target)) < 1e-9
