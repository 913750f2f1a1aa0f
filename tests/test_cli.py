import itertools
import json
import math
import subprocess
import sys

import pytest

from qaa import engine, qasm, schedules, statevector as sv
from qaa.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_cli_error(*argv):
    """A fresh `qaa` process rejects argv: exit 2, no stdout, no traceback.

    Returns its stderr.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "qaa.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    return proc.stderr


class TestIncrement:
    def test_prints_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "increment",
            "--beta", "3.141592653589793",
            "--gamma", "3.141592653589793",
            "--theta", "0.125082",
            "--n", "8",
        )
        assert code == 0
        assert "increment" in out
        assert "qaao" in out

    def test_published_negative_row(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "increment",
            "--beta", "2.8209",
            "--gamma", "-2.8950",
            "--theta", "1.9147",
            "--phi", "5.1123",
            "--n", "8",
        )
        assert code == 0
        assert "-0.006" in out

    def test_out_of_range_beta_fails(self, capsys):
        code, _, err = run_cli(
            capsys, "increment", "--beta", "7.0", "--gamma", "0.0", "--theta", "1.0"
        )
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("phi", ["nan", "inf", "-inf"])
    def test_non_finite_phi_is_bad_input(self, capsys, phi):
        # Rejected as input, not reported as a closed-form/matrix disagreement.
        code, out, err = run_cli(
            capsys, "increment", "--beta", "1", "--gamma", "1", "--theta", "1", f"--phi={phi}"
        )
        assert (code, out) == (2, "")
        assert err == f"error: phi must be finite, got {float(phi)}\n"


class TestTable:
    def test_appendix_first_row(self, capsys):
        code, out, _ = run_cli(capsys, "table", "appendix")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "no,theta,phi,beta,gamma,increment,qaao"
        assert len(lines) == 22
        assert lines[1].startswith("1,0.125082,0.000000,3.129148,")
        assert lines[1].endswith(",O")

    def test_main_subset(self, capsys):
        code, out, _ = run_cli(capsys, "table", "main")
        lines = out.splitlines()
        assert code == 0
        assert [line.split(",")[0] for line in lines[1:]] == ["9", "10", "11", "12"]
        assert all(line.endswith(",X") for line in lines[1:])

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "table", "main", "--format", "json")
        rows = json.loads(out)
        assert code == 0
        assert [r["no"] for r in rows] == [9, 10, 11, 12]
        assert rows[0]["increment"] == pytest.approx(-0.0061, abs=1e-3)


class TestSearch:
    def test_optimal_csv(self, capsys):
        code, out, _ = run_cli(capsys, "search", "optimal", "--n", "8")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 14
        assert lines[-1].split(",")[5] == "1.000000"

    def test_statevector_backend_agrees(self, capsys):
        _, analytic, _ = run_cli(capsys, "search", "optimal", "--n", "6")
        _, statevector, _ = run_cli(
            capsys, "search", "optimal", "--n", "6", "--backend", "statevector"
        )
        assert analytic == statevector

    def test_pi3_series(self, capsys):
        code, out, _ = run_cli(capsys, "search", "pi3", "--n", "8", "--format", "json")
        rows = json.loads(out)
        assert code == 0
        assert rows[0] == {"depth": 0, "queries": 0, "probability": pytest.approx(1 / 256)}
        assert rows[6]["queries"] == 364
        assert rows[6]["probability"] >= 0.9

    def test_histogram_shots(self, capsys, tmp_path):
        out_file = tmp_path / "traj.csv"
        code, _, _ = run_cli(
            capsys,
            "search", "optimal", "--n", "4", "--target", "1010",
            "--shots", "100", "--seed", "3", "--out", str(out_file),
        )
        assert code == 0
        hist = json.loads((tmp_path / "traj.csv.hist.json").read_text())
        assert hist == {"1010": 100}

    @pytest.mark.parametrize("backend", ["analytic", "statevector"])
    def test_shots_evolve_the_state_once(self, capsys, monkeypatch, backend):
        # The statevector run makes 201 dense steps, in checked passes of up to
        # WINDOW steps; shots sample the final probability, so the analytic run
        # builds no 2^n vector at all.
        windows, vectors = [], []
        kernel, uniform = sv.checked_steps, sv.uniform_state
        monkeypatch.setattr(
            sv, "checked_steps", lambda *a: windows.append(len(a[1])) or kernel(*a)
        )
        monkeypatch.setattr(sv, "uniform_state", lambda n: vectors.append(n) or uniform(n))
        code, _, _ = run_cli(
            capsys, "search", "optimal", "--n", "16", "--backend", backend, "--shots", "10"
        )
        steps = 201 if backend == "statevector" else 0
        assert code == 0
        assert len(vectors) == (backend == "statevector")
        assert sum(windows) == steps
        assert len(windows) == -(-steps // sv.WINDOW)

    def test_shots_do_not_depend_on_the_backend(self, capsys):
        argv = ["search", "fixed-point", "--n", "2", "--delta", "0.2", "--shots", "50"]
        hists = []
        for backend in ("analytic", "statevector"):
            code, out, _ = run_cli(capsys, *argv, "--seed", "0", "--backend", backend)
            assert code == 0
            hists.append(out.splitlines()[-1])
        assert hists[0] == hists[1]
        # Through the library: each backend feeds its own final probability
        # to the one sampler, over every search kind, n, m, seed and shot count.
        cases = 0
        for kind in [k for k in schedules.BUILDERS if k != schedules.GROVER]:
            quarter = kind in (schedules.OPTIMAL, schedules.NOISY_OPTIMAL)
            for n, m, seed in itertools.product((2, 4, 6, 8, 10), (1, 3), range(4)):
                if quarter and 4 * m > 2**n:
                    continue
                seq = schedules.build(kind, n, m, seed=seed, delta=0.2)
                oracle = sv.OracleSpec.standard(n, m)
                final = [
                    engine.run_search(seq, oracle, b).final_probability for b in engine.BACKENDS
                ]
                for shots in (50, 100, 1000):
                    analytic, statevector = (
                        sv.sample_measurements(p, oracle, shots, seed) for p in final
                    )
                    assert analytic == statevector, (kind, n, m, seed, shots)
                    cases += 1
        assert cases == 456

    def test_shots_reach_the_model_register_cap(self, capsys):
        code, out, _ = run_cli(capsys, "search", "fixed-point", "--n", "32", "--shots", "1000")
        hist = json.loads(out.splitlines()[-1])
        assert code == 0
        assert sum(hist.values()) == 1000
        assert {len(key) for key in hist} == {32}

    def test_deterministic_byte_identical(self, capsys):
        outputs = [
            run_cli(capsys, "search", "random-qaao", "--n", "8", "--seed", "11")[1]
            for _ in range(2)
        ]
        assert outputs[0] == outputs[1]

    def test_output_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("QAA_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run_cli(capsys, "search", "optimal", "--n", "4", "--out", "t.csv")
        assert code == 0
        assert (tmp_path / "t.csv").exists()


    @pytest.mark.parametrize(
        "argv",
        [
            "search optimal --shots 1048577",
            "search optimal --n 32 --backend statevector",
            "export-qasm optimal --n 26 --verify",
        ],
    )
    def test_dense_cap_comes_before_the_schedule(self, capsys, monkeypatch, argv):
        def build(*args, **kwargs):
            raise AssertionError("schedule built before the 2^n cap was checked")

        monkeypatch.setattr(schedules, "build", build)
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 2
        assert out == ""
        if "--shots" in argv:
            assert f"--shots must lie in [0, {sv.MAX_SHOTS}]" in err
        else:
            assert f"qubit count must lie in [1, {sv.MAX_QUBITS}]" in err

    def test_export_without_verify_is_not_capped(self, capsys, monkeypatch):
        # Writing the circuit builds no 2^n vector, so n may exceed the dense cap.
        monkeypatch.setattr(qasm, "export_circuit", lambda seq, oracle: f"{len(seq)} steps\n")
        want = f"{schedules.k_star(26) + 1} steps\n"
        assert run_cli(capsys, "export-qasm", "optimal", "--n", "26") == (0, want, "")

    @pytest.mark.parametrize("command", ["search", "export-qasm"])
    def test_target_needs_single_target(self, capsys, command):
        code, out, err = run_cli(
            capsys, command, "optimal", "--m", "4", "--target", "00000001"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestFigure:
    def test_fig1b(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "fig1b", "--n", "8")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "step,probability"
        assert len(lines) == 13  # K*(8) = 12 Grover steps

    @pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (3, 3)])
    def test_fig1b_without_grover_steps_is_empty(self, capsys, n, m):
        # K* = 0 here: the series has no rows.
        argv = ("figure", "fig1b", "--n", str(n), "--m", str(m))
        assert run_cli(capsys, *argv) == (0, "step,probability\n", "")
        assert run_cli(capsys, *argv, "--format", "json") == (0, "[]\n", "")

    def test_fig3_has_three_deltas(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "fig3", "--n", "6")
        assert code == 0
        deltas = {line.split(",")[0] for line in out.splitlines()[1:]}
        assert len(deltas) == 3

    def test_region_payload(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "region", "--n", "8", "--seed", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["positive_fraction"] == pytest.approx(0.5, abs=0.01)
        assert payload["boundary"]

    def test_fig4_compare(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "fig4", "--n", "8")
        payload = json.loads(out)
        assert code == 0
        kinds = [a["kind"] for a in payload["algorithms"]]
        assert "fixed-point" in kinds and "pi3" in kinds

    def test_fig4_multi_target(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "fig4", "--n", "10", "--m", "4")
        finals = {
            a["kind"]: a.get("final_probability")
            for a in json.loads(out)["algorithms"]
        }
        assert code == 0
        assert finals["fixed-point"] >= 0.9
        assert finals["random-qaao"] == pytest.approx(1.0, abs=1e-10)


class TestExportQasm:
    def test_grover_circuit(self, capsys):
        code, out, _ = run_cli(
            capsys, "export-qasm", "grover", "--n", "3", "--target", "110"
        )
        assert code == 0
        assert out.startswith("OPENQASM 3.0;")
        assert "qubit[3] q;" in out

    def test_verify_flag(self, capsys):
        code, out, err = run_cli(
            capsys,
            "export-qasm", "grover", "--n", "3", "--target", "110", "--verify",
        )
        assert code == 0
        assert "replay max deviation" in err

    def test_multi_target_verify(self, capsys):
        code, out, err = run_cli(
            capsys, "export-qasm", "optimal", "--n", "8", "--m", "4", "--verify"
        )
        assert code == 0
        iterations = out.count("// iteration")
        assert out.count("ctrl(7) @ p(") == (4 + 1) * iterations  # 4 oracle phases, 1 diffusion
        assert float(err.split()[-1]) <= 1e-12

    def test_to_file(self, capsys, tmp_path):
        path = tmp_path / "circ.qasm"
        code, out, _ = run_cli(
            capsys, "export-qasm", "optimal", "--n", "4", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("OPENQASM 3.0;")


class TestConfig:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 4}))
        _, out, _ = run_cli(capsys, "search", "optimal", "--config", str(cfg))
        _, want, _ = run_cli(capsys, "search", "optimal", "--n", "4")
        assert out == want

    def test_cli_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 4}))
        _, out, _ = run_cli(capsys, "search", "optimal", "--n", "6", "--config", str(cfg))
        _, want, _ = run_cli(capsys, "search", "optimal", "--n", "6")
        assert out == want

    def test_config_keys_of_other_subcommands_are_ignored(self, capsys, tmp_path):
        # `table` has no --backend flag, so the key is skipped and --n applies.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"backend": "statevector", "n": "6"}))
        _, out, _ = run_cli(capsys, "table", "--config", str(cfg))
        _, want, _ = run_cli(capsys, "table", "--n", "6")
        assert out == want

    def test_config_key_abbreviating_a_flag_is_ignored(self, capsys, tmp_path):
        # "ph" names no flag; it must not be read as --phi.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ph": 1.0}))
        args = ("increment", "--beta", "3.1291", "--gamma", "-3.1354", "--theta", "0.1251")
        _, out, _ = run_cli(capsys, *args, "--config", str(cfg))
        _, want, _ = run_cli(capsys, *args)
        assert out == want

    @pytest.mark.parametrize(
        "content",
        [None, '{"n": 4', '{"n": 8.5}'],
        ids=["missing-file", "invalid-json", "wrong-type"],
    )
    def test_bad_config_is_a_cli_error(self, tmp_path, content):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_text(content)
        assert_cli_error("search", "optimal", "--config", str(cfg))

    def test_false_switch_leaves_the_flag_off(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        args = ("export-qasm", "optimal", "--n", "4")
        cfg.write_text(json.dumps({"verify": False}))
        code, out, err = run_cli(capsys, *args, "--config", str(cfg))
        _, want, _ = run_cli(capsys, *args)
        assert (code, out, err) == (0, want, "")
        cfg.write_text(json.dumps({"verify": True}))
        code, out, err = run_cli(capsys, *args, "--config", str(cfg))
        assert (code, out) == (0, want)
        assert "replay max deviation" in err

    def test_config_values_convert_like_flags(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": "4", "delta": 0.2, "seed": 3}))
        args = ("search", "noisy-optimal")
        _, out, _ = run_cli(capsys, *args, "--config", str(cfg))
        _, want, _ = run_cli(capsys, *args, "--n", "4", "--delta", "0.2", "--seed", "3")
        assert out == want


class TestEntryPoint:
    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qaa.cli", "table", "main"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "no,theta,phi,beta,gamma,increment,qaao"

    def test_unknown_kind_exits_nonzero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qaa.cli", "search", "sideways"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode != 0

    @pytest.mark.parametrize(
        "argv, says",
        [
            ("figure region --resolution 0", ""),
            ("figure region --resolution -2", ""),
            # Work grows with these; the caps come before any is done.
            ("figure region --resolution 2049", "[1, 2048]"),
            ("export-qasm grover --n 4 --steps 65537", "at most 65536"),
            # m oracle phases per iteration count against the same cap.
            ("export-qasm grover --n 10 --m 2 --steps 32769", "at most 65536 oracle phases"),
            ("table appendix --L 65537", "at most 65536"),
            # A target string has exactly --n bits.
            ("export-qasm optimal --n 8 --target 0000000", "but n=8"),
            ("search pi3 --n 8 --target 01", "but n=8"),
            ("search optimal --n 6 --shots -3", ""),
            ("export-qasm grover --n 2 --target 01 --steps 0", ""),
            ("increment --beta 1 --gamma 1 --theta 1 --c 0.5", ""),
            ("increment --beta 3.1 --gamma -3.1 --theta 0.2 --n 8 --c nan", "finite"),
            ("increment --beta 3.1 --gamma -3.1 --theta 0.2 --n 8 --c inf", "finite"),
            ("increment --beta 1 --gamma 1 --theta 1 --n 1100", ""),
            # Each subcommand takes only the flags it reads.
            ("increment --beta 1 --gamma 1 --theta 1 --format json", ""),
            ("table main --backend statevector", ""),
            ("figure fig7 --target 0", ""),
            ("export-qasm optimal --n 4 --shots 5", ""),
            # A flag is never read as the longer flag it abbreviates.
            ("increment --beta 1 --gamma 1 --theta 1 --bet 2", "unrecognized arguments"),
            ("table main --c 9", "unrecognized arguments: --c 9"),
            # The register cap comes before a 64-bit target index is built.
            (f"search optimal --n 64 --target {'1' * 64}", "at most 32"),
            (f"export-qasm optimal --n 64 --target {'1' * 64}", "at most 32"),
            ("search optimal --n 8 --m 256", "target count must satisfy"),
            ("figure fig1b --m 0", "target count must satisfy"),
            # The shot cap, and n for a command that builds a 2^n vector,
            # are checked before any output.
            ("search optimal --n 26 --shots 1048577", "lie in [0, 1048576]"),
            ("export-qasm optimal --n 26 --verify", "lie in [1, 24]"),
            ("search optimal --n 32 --backend statevector", "lie in [1, 24]"),
            # The pi/3 series has no state vector to run or sample.
            ("search pi3 --n 4 --backend statevector", "search pi3"),
            ("search pi3 --n 4 --shots 5", "search pi3"),
        ],
        ids=[
            "resolution-0", "resolution-negative", "resolution-2049", "steps-65537", "phases-65538",
            "L-65537", "export-qasm-short-target", "search-short-target", "shots-negative", "steps-0", "c-below-1",
            "c-nan", "c-inf",
            "n-1100", "increment-format", "table-backend", "figure-target", "export-qasm-shots",
            "abbrev-bet", "abbrev-c", "search-n-64-target", "export-qasm-n-64-target",
            "m-out-of-range", "fig1b-m-0", "shots-above-cap", "verify-n-26", "statevector-n-32",
            "pi3-statevector", "pi3-shots",
        ],
    )
    def test_bad_flag_is_a_cli_error(self, argv, says):
        # Rejected before any work, so nothing reaches stdout.
        assert says in assert_cli_error(*argv.split())
