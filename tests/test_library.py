"""Seeded library output must stay byte-identical to the saved hashes.

tests/golden/library.json maps each case name to the sha256 of one output
of the library: the JSON and CSV of a trajectory and of its two
re-annotations, a `compare` report, or the CSV of a statevector run (its
JSON keeps full precision, which the dense checked step may move in the last
bits).  A failing case names itself.  Regenerate the file only for an
intended change of output, with

    PYTHONPATH=src python tests/test_library.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from qaa import schedules
from qaa.engine import classify, compare, run_search
from qaa.statevector import OracleSpec

LIBRARY = Path(__file__).parent / "golden" / "library.json"

#: Schedule settings per kind of the analytic matrix.
KINDS = {
    schedules.RANDOM_QAAO: {"seed": 3},
    schedules.NOISY_OPTIMAL: {"delta": 0.2, "seed": 3},
    schedules.OPTIMAL: {},
}

COMPARE_SPECS = [
    (schedules.GROVER, {"steps": 20}),
    (schedules.OPTIMAL, {}),
    (schedules.RANDOM_QAAO, {"c": 1.5}),
    (schedules.NOISY_OPTIMAL, {"delta": 0.2}),
    (schedules.FIXED_POINT, {"length": 21}),
    (schedules.PI3, {"max_depth": 5}),
]

#: (kind, n, settings, oracle) of the statevector runs.
DENSE = {
    "optimal n=10 m=3": (schedules.OPTIMAL, 10, {}, OracleSpec.standard(10, 3)),
    "random-qaao n=12 m=1 seed=2": (
        schedules.RANDOM_QAAO, 12, {"seed": 2}, OracleSpec.single("101100111010"),
    ),
    "noisy-optimal n=11 m=4 delta=0.2 seed=5": (
        schedules.NOISY_OPTIMAL, 11, {"delta": 0.2, "seed": 5}, OracleSpec.standard(11, 4),
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _analytic(kind, n, m):
    settings = KINDS[kind]
    traj = run_search(schedules.build(kind, n, m, **settings), OracleSpec.standard(n, m))
    return {
        "to_json": _sha(traj.to_json()),
        "to_csv": _sha(traj.to_csv()),
        "classify(c=1.5).to_json": _sha(classify(traj, c=1.5).to_json()),
        "classify().to_json": _sha(classify(traj).to_json()),
    }


def _fixed_point():
    seq = schedules.build(schedules.FIXED_POINT, 8, 1, length=21)
    traj = run_search(seq, OracleSpec.standard(8, 1))
    return {"to_json": _sha(traj.to_json()), "to_csv": _sha(traj.to_csv())}


def _compare(n, m):
    report = compare(COMPARE_SPECS, n, m, seed=3)
    return {"json": _sha(json.dumps(report, sort_keys=True))}


def _dense(name):
    kind, n, settings, oracle = DENSE[name]
    seq = schedules.build(kind, n, oracle.m, **settings)
    return {"to_csv": _sha(run_search(seq, oracle, backend="statevector").to_csv())}


CASES = {
    **{
        f"{kind} n={n} m={m}": (lambda k=kind, n=n, m=m: _analytic(k, n, m))
        for kind in KINDS
        for n in range(6, 19, 2)
        for m in (1, 2, 4)
    },
    "fixed-point length=21 n=8": _fixed_point,
    **{
        f"compare n={n} m={m}": (lambda n=n, m=m: _compare(n, m))
        for n in range(8, 13)
        for m in (1, 4)
    },
    **{f"statevector {name}": (lambda name=name: _dense(name)) for name in DENSE},
}


def test_every_saved_case_is_run():
    assert sorted(json.loads(LIBRARY.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_saved_hash(name):
    assert CASES[name]() == json.loads(LIBRARY.read_text())[name]


if __name__ == "__main__":
    hashes = {name: CASES[name]() for name in sorted(CASES)}
    LIBRARY.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
