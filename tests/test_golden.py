"""Seeded CLI output must stay byte-identical to the saved golden files.

Each file under tests/golden/ holds the stdout of one command as an earlier
release printed it.  The determinism criterion compares repeated runs of one
version; these files pin the output across versions.  Regenerate a file only
for an intended change of output, with

    PYTHONPATH=src python -m qaa.cli ARGS > tests/golden/NAME.out

The last tests pin the library the same way, each by one sha256: the
serializers over a fixed sweep of analytic trajectories, the dense kernel
over the final amplitudes and JSON of a sweep of statevector runs (also in
child processes under other numpy and OpenBLAS kernel sets), and the
random-qaao sampler over a stream of seeded schedules and errors.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from qaa import schedules, statevector
from qaa.cli import main
from qaa.engine import classify, run_search
from qaa.schedules import generate_qaao_sequence, noisy_optimal_sequence, optimal_sequence
from qaa.statevector import OracleSpec

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

COMMANDS = {
    "search_random_qaao_n12_seed7": "search random-qaao --n 12 --seed 7",
    "search_random_qaao_n10_m4_seed3": "search random-qaao --n 10 --m 4 --seed 3",
    "search_random_qaao_n9_c1_8_seed11": "search random-qaao --n 9 --c 1.8 --seed 11",
    "search_random_qaao_n8_shots": (
        "search random-qaao --n 8 --seed 5 --shots 50 --target 00010110"
    ),
    "search_random_qaao_n14_statevector": (
        "search random-qaao --n 14 --seed 2 --backend statevector"
    ),
    "search_optimal_n16_statevector": (
        "search optimal --n 16 --backend statevector --target 1011001110001011"
    ),
    "export_qasm_random_qaao_n5_seed3": "export-qasm random-qaao --n 5 --seed 3",
    "export_qasm_random_qaao_n4_verify": "export-qasm random-qaao --n 4 --seed 1 --verify",
    "export_qasm_grover_n1_steps2": "export-qasm grover --n 1 --steps 2 --target 1",
    "export_qasm_fixed_point_n6_L5": "export-qasm fixed-point --n 6 --L 5 --target 010011",
    "export_qasm_optimal_n4_m2_verify": "export-qasm optimal --n 4 --m 2 --verify",
    "search_noisy_optimal_delta0_3_seed4": "search noisy-optimal --delta 0.3 --seed 4",
    "table_appendix": "table appendix",
    "figure_fig1b": "figure fig1b",
    "increment_beta3_1291_n8": (
        "increment --beta 3.1291 --gamma -3.1354 --theta 0.1251 --n 8"
    ),
    "increment_beta2_8209_n8": (
        "increment --beta 2.8209 --gamma -2.8950 --theta 1.9147 --phi 5.1123 --n 8"
    ),
    "figure_region_n6_res64": "figure region --n 6 --resolution 64",
    # An odd resolution puts beta = 0 on the grid, where b is +-0 and the
    # boundary is undefined.
    "figure_region_n5_res63": "figure region --n 5 --resolution 63",
    "figure_fig3_n6": "figure fig3 --n 6",
    "table_main_json": "table main --format json",
    "search_pi3_n8": "search pi3 --n 8",
    "search_optimal_n10_m4_json": "search optimal --n 10 --m 4 --format json",
    "search_fixed_point_n8_json": "search fixed-point --n 8 --format json",
    "figure_fig4_seed5": "figure fig4 --seed 5",
    "search_random_qaao_n9_m2_seed4_json": "search random-qaao --n 9 --m 2 --seed 4 --format json",
    "search_noisy_optimal_n10_delta0_2_seed3_json": (
        "search noisy-optimal --n 10 --delta 0.2 --seed 3 --format json"
    ),
    "table_appendix_json": "table appendix --format json",
    "table_main": "table main",
    "figure_fig1b_json": "figure fig1b --format json",
    "figure_fig3_n6_json": "figure fig3 --n 6 --format json",
    "figure_fig7": "figure fig7",
    "figure_fig7_json": "figure fig7 --format json",
    "search_pi3_n8_json": "search pi3 --n 8 --format json",
}


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden(name, capsys):
    assert main(COMMANDS[name].split()) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()


#: sha256 of the analytic serialization sweep below, as recorded in
#: BENCH_15.json; it pins `to_json`, `to_csv` and `classify` over 153
#: trajectories that no CLI golden covers.
SWEEP_SHA256 = "2911de8ad3738b82ff8218edcc727516ee1291d20eb55bcc099bf5dbec433186"


def test_analytic_serialization_sweep_is_unchanged():
    digest = hashlib.sha256()
    kinds = (
        optimal_sequence,
        lambda n, m: noisy_optimal_sequence(n, 0.2, seed=n + m, m=m),
        lambda n, m: generate_qaao_sequence(n, m, seed=7 * n + m),
    )
    for build in kinds:
        for n in range(6, 23):
            for m in (1, 2, 4):
                traj = run_search(build(n, m), OracleSpec.standard(n, m))
                for text in (
                    traj.to_json(),
                    traj.to_csv(),
                    classify(traj).to_json(),
                    classify(traj, c=1.5).to_json(),
                ):
                    digest.update(text.encode())
    assert digest.hexdigest() == SWEEP_SHA256


#: sha256 of the dense sweep below.  The kernel rounds each real product of
#: the oracle phase on its own and sums squares with numpy rather than a BLAS
#: dot, so the hash does not depend on the SIMD kernels numpy or OpenBLAS
#: pick on the host.  n = 16 and 17 span several `statevector.BLOCK`s.
DENSE_SHA256 = "03aca327964ddc299a2ee53d7e71c90209f78e9e39e781ef36e7863cf91d5271"


def dense_sweep_digest() -> str:
    """sha256 over the final amplitudes and JSON of a sweep of statevector runs."""
    # A run steps the vector its `uniform_start` built in place; keep the last.
    built = []
    start = statevector.uniform_start

    def keep(oracle):
        built[:] = start(oracle)
        return tuple(built)

    digest = hashlib.sha256()
    with mock.patch.object(statevector, "uniform_start", keep):
        for kind in schedules.BUILDERS:
            # The optimal builders need 4m <= 2^n; every other kind needs m < 2^n.
            quarter = kind in (schedules.OPTIMAL, schedules.NOISY_OPTIMAL)
            for n in (2, 5, 8, 11, 14, 16, 17):
                for m in (1, 2, 4):
                    if m > (2**n // 4 if quarter else 2**n - 1):
                        continue
                    seq = schedules.build(kind, n, m, seed=n * m + 1, delta=0.2, steps=3)
                    traj = run_search(seq, OracleSpec.standard(n, m), "statevector")
                    digest.update(built[0].tobytes())
                    digest.update(traj.to_json().encode())
    return digest.hexdigest()


def test_dense_sweep_is_unchanged():
    assert dense_sweep_digest() == DENSE_SHA256


_NUMPY_X86_V2 = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"}
_OPENBLAS_HASWELL = {"OPENBLAS_CORETYPE": "Haswell"}

#: Kernel sets the dense hash is recomputed under: numpy at its X86_V2
#: baseline, OpenBLAS with its AVX2 kernels, both, as on an AVX2-only host,
#: and OpenBLAS on two threads.
KERNEL_SETS = {
    "numpy-x86-v2": _NUMPY_X86_V2,
    "openblas-haswell": _OPENBLAS_HASWELL,
    "both": {**_NUMPY_X86_V2, **_OPENBLAS_HASWELL},
    "openblas-threads-2": {"OPENBLAS_NUM_THREADS": "2"},
}


@pytest.mark.parametrize("kernels", sorted(KERNEL_SETS))
def test_dense_sweep_is_unchanged_under_other_kernels(kernels):
    paths = [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, **KERNEL_SETS[kernels], "PYTHONPATH": os.pathsep.join(paths)}

    def child(code):
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)

    # A host without these kernels (not x86, say) may refuse the setting.
    if (probe := child("import numpy")).returncode:
        pytest.skip(f"numpy does not import under {kernels}: {probe.stderr[-300:]}")
    run = child("import test_golden; print(test_golden.dense_sweep_digest())")
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.strip() == DENSE_SHA256


#: sha256 of the random-qaao stream below: 300 seeded schedules, 6 of which
#: (n = 4, m = 1, c = 1.9) ask for more than the largest b and contribute their
#: error text instead.
QAAO_STREAM_SHA256 = "4ab304341e880bf417de3827e6bbb6e4c56c53f6d77f44166e42e30113b805a3"


def test_random_qaao_stream_is_unchanged():
    digest = hashlib.sha256()
    for s in range(300):
        n, m, c = 2 + s % 17, 1 + (s // 17) % 3, (1.5, 1.000001, 1.9)[s % 3]
        try:
            text = repr(generate_qaao_sequence(n, m if m < 2**n else 1, c=c, seed=s).params)
        except RuntimeError as exc:
            text = str(exc)
        digest.update(text.encode())
    assert digest.hexdigest() == QAAO_STREAM_SHA256
