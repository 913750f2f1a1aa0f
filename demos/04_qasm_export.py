"""Export an amplification circuit to OpenQASM 3 and verify it by replay.

Each iteration is two standard gate blocks: the oracle phase (an
X-conjugated multi-controlled phase selecting the marked bit string) and
the diffusion about the uniform state (the same construction conjugated by
Hadamards).  The replay parser re-simulates the emitted text and compares
it, up to global phase, with the final state of the 2D target-plane model.

Run:  python demos/04_qasm_export.py
"""

from qaa import OracleSpec, export_circuit, optimal_sequence, roundtrip_deviation

N_QUBITS = 3
TARGET = "110"
#: Bound on the replay deviation.  The value itself is rounding noise that
#: differs between BLAS kernels, so the demo prints the bound it checked.
REPLAY_TOL = 1e-12


def main() -> None:
    seq = optimal_sequence(N_QUBITS)
    oracle = OracleSpec.single(TARGET)
    source = export_circuit(seq, oracle)
    print(source)
    deviation = roundtrip_deviation(seq, oracle)
    assert deviation < REPLAY_TOL, deviation
    print(f"// replay max amplitude deviation < {REPLAY_TOL:.0e}")


if __name__ == "__main__":
    main()
