"""Exact amplitude-amplification search on 8 qubits.

Standard Grover iterations get close to the target state but generically
overshoot: after the optimal number of steps the success probability is
high yet not 1.  Generalizing the two phase angles buys back the gap — one
specially chosen closing step lands on the target state exactly.

Run:  python demos/01_exact_search.py
"""

import numpy as np

from qaa import OracleSpec, grover_baseline, k_star, optimal_sequence, run_search

N_QUBITS = 8
TARGET = "10011010"


def main() -> None:
    steps = k_star(N_QUBITS)
    print(f"search space 2^{N_QUBITS} = {2**N_QUBITS}, target {TARGET!r}")
    print(f"optimal iteration count K* = {steps}\n")

    grover = grover_baseline(N_QUBITS, steps=steps + 1)
    exact = run_search(optimal_sequence(N_QUBITS), OracleSpec.single(TARGET))

    print("step   Grover P      exact P     (beta, gamma) of the exact schedule")
    for g, e in zip(grover.steps, exact.steps):
        print(
            f"{e.index:4d}   {g.probability_after:.6f}    {e.probability_after:.6f}"
            f"    ({e.beta:+.4f}, {e.gamma:+.4f})"
        )

    print(f"\nGrover after {steps} steps:  {grover.steps[steps - 1].probability_after:.6f}")
    print(f"Grover one step further:  {grover.final_probability:.6f}  (overshoot)")
    print(f"exact schedule, {steps}+1 steps: {exact.final_probability:.15f}")
    assert np.isclose(exact.final_probability, 1.0, atol=1e-10)


if __name__ == "__main__":
    main()
