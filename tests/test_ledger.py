"""The closed forms of exact search against the schedule builders, at 1e-12.

For n = 2..32 and m = 1, 2, 3, wherever the builder accepts them, every
standard step of `optimal_sequence` lands on sin^2((2k + 1) asin sqrt(m/N))
and its closing step ends at P = 1.  `generate_qaao_sequence` ends at P = 1
too, for three seeds at n = 2..24.  Each closed form is written once, in
`reference`.  The 2^16-step Grover schedule is left out for time.
"""

import numpy as np
import pytest

from qaa.schedules import generate_qaao_sequence, optimal_sequence, trajectory

from reference import grover_k_star, grover_probability

TOL = 1e-12

#: The optimal builders need 4m <= 2^n.
OPTIMAL_CASES = [(n, m) for n in range(2, 33) for m in (1, 2, 3) if 4 * m <= 2**n]

#: n = 25..32 would take about 7 s per seed, twice what the rest of this module takes.
QAAO_SEEDS = (0, 1, 2)
QAAO_CASES = [(n, m) for n in range(2, 25) for m in (1, 2, 3) if m < 2**n and (n, m) != (3, 1)]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_optimal_follows_the_closed_form(m):
    for n in [n for n, k in OPTIMAL_CASES if k == m]:
        records = trajectory(optimal_sequence(n, m), n, m)
        assert len(records) == grover_k_star(n, m) + 1, n
        probability = np.array([r.probability_after for r in records])
        gap = np.abs(probability[:-1] - grover_probability(np.arange(1, len(records)), n, m))
        assert gap.max(initial=0.0) <= TOL, (n, int(gap.argmax()) + 1, gap.max())
        assert abs(probability[-1] - 1.0) <= TOL, (n, probability[-1])


@pytest.mark.parametrize("m", [1, 2, 3])
def test_random_qaao_ends_at_one(m):
    for n in [n for n, k in QAAO_CASES if k == m]:
        for seed in QAAO_SEEDS:
            final = trajectory(generate_qaao_sequence(n, m, seed=seed), n, m)[-1]
            assert abs(final.probability_after - 1.0) <= TOL, (n, seed, final.probability_after)


def test_random_qaao_leaves_out_only_what_it_rejects():
    # At n = 3, m = 1 no state on the way admits b > 1.5 / sqrt(8) often enough.
    for seed in QAAO_SEEDS:
        with pytest.raises(RuntimeError, match="no amplifying parameters"):
            generate_qaao_sequence(3, 1, seed=seed)
