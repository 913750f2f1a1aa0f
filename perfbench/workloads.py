"""Seeded job lists for the four benchmark workloads, with their output checks.

Every workload is a fixed composition of jobs (which kinds, sizes and target
counts) so that its cost does not depend on the seed.  The seed only draws
the target strings, the noise and sampling seeds of the schedule generators,
and the arguments of the CLI calls.  A job returns the number of dense
amplitude updates it made (the sum of 2^n over its dense iterations) and
raises CheckFailed when its output is wrong.

`qaa` is imported inside the job functions, never at module level, so that
the cli-cold workload can build its command list without importing it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

WORKLOADS = ("dense-large", "analytic-study", "small-batch", "cli-cold")

#: Optimal and random-qaao schedules reach probability 1 within this.
EXACT_TOL = 1e-10
#: Noisy-optimal and fixed-point schedules must end at or above this, the
#: bound the acceptance tests use.
HIGH_PROBABILITY = 0.9
#: Export-replay amplitude deviation bound (the CLI's --verify bound).
REPLAY_TOL = 1e-9
#: pi/3 failure probability must decay cubically per level within this.
PI3_CUBIC_TOL = 1e-9

#: Noise of the noisy-optimal jobs: the acceptance tests' monotone tier.
NOISY_DELTA = 0.05 * math.pi
#: Error budget of the fixed-point jobs, as in the reference table.
FIXED_POINT_DELTA = 0.316

#: compare() runs m>1 schedules against a single-target oracle (ROADMAP open
#: item 4), so its m>1 jobs fail their check until that is fixed.  They stay
#: in the workload and count in `failed`; a failure here does not mark the
#: run as incorrect, any other failure does.
COMPARE_M_DEFECT = "compare() runs m>1 schedules on a single-target oracle"


class CheckFailed(Exception):
    """A job's output is wrong."""


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], int]
    known_defect: Optional[str] = None


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def fixed_point_length(n: int, m: int, delta: float = FIXED_POINT_DELTA) -> int:
    """Shortest Chebyshev schedule whose guarantee 1 - delta^2 covers m/2^n.

    The fixed-point bound holds once 2*L + 1 >= log(2/delta) * sqrt(2^n/m).
    """
    return math.ceil((math.log(2.0 / delta) * math.sqrt(2**n / m) - 1.0) / 2.0)


def _targets(rng: random.Random, n: int, m: int) -> frozenset[str]:
    return frozenset(format(i, f"0{n}b") for i in rng.sample(range(2**n), m))


def _schedule(kind: str, n: int, m: int, seed: int):
    from qaa import schedules

    if kind == "optimal":
        return schedules.optimal_sequence(n, m)
    if kind == "noisy-optimal":
        return schedules.noisy_optimal_sequence(n, NOISY_DELTA, seed=seed, m=m)
    if kind == "random-qaao":
        return schedules.generate_qaao_sequence(n, m, seed=seed)
    if kind == "fixed-point":
        return schedules.fixed_point_sequence(fixed_point_length(n, m), FIXED_POINT_DELTA)
    raise ValueError(f"unknown schedule kind {kind!r}")


def _check_final(kind: str, probability: float) -> None:
    if kind in ("optimal", "random-qaao"):
        _check(
            abs(probability - 1.0) <= EXACT_TOL,
            f"{kind} ends at {probability!r}, not 1 within {EXACT_TOL}",
        )
    else:
        _check(
            probability >= HIGH_PROBABILITY,
            f"{kind} ends at {probability!r} < {HIGH_PROBABILITY}",
        )


def search_job(
    kind: str,
    n: int,
    targets: frozenset[str],
    seed: int,
    backend: str,
    serialize: bool = False,
    export: bool = False,
) -> int:
    """Generate a schedule, run it and check it; optionally serialize or replay."""
    from qaa import engine, qasm, statevector as sv

    seq = _schedule(kind, n, len(targets), seed)
    oracle = sv.OracleSpec(n, targets)
    traj = engine.run_search(seq, oracle, backend=backend)
    _check_final(kind, traj.final_probability)
    updates = len(seq) * 2**n if backend == "statevector" else 0
    if serialize:
        flagged = engine.classify(traj)
        csv_text = traj.to_csv()
        json_text = traj.to_json()
        _check(len(flagged.steps) == len(traj.steps), "classify changed the step count")
        _check(csv_text.count("\n") == len(traj.steps) + 1, "to_csv row count")
        _check(
            json.loads(json_text)["final_probability"] == traj.final_probability,
            "to_json final probability",
        )
    if export:
        deviation = qasm.roundtrip_deviation(seq, oracle)
        _check(deviation <= REPLAY_TOL, f"replay deviation {deviation:.3e} > {REPLAY_TOL}")
        updates += len(seq) * 2**n
    return updates


def compare_job(n: int, m: int, seed: int) -> int:
    """compare() over optimal, fixed-point, pi3 and random-qaao, each checked."""
    from qaa import engine

    specs = [
        ("optimal", {}),
        ("fixed-point", {"length": fixed_point_length(n, m), "delta": FIXED_POINT_DELTA}),
        ("pi3", {}),
        ("random-qaao", {"seed": seed}),
    ]
    report = engine.compare(specs, n, m, seed=seed)
    for algorithm in report["algorithms"]:
        if algorithm["kind"] == "pi3":
            failures = [1.0 - s["probability"] for s in algorithm["series"]]
            for depth, (now, after) in enumerate(zip(failures, failures[1:])):
                _check(
                    abs(after - now**3) < PI3_CUBIC_TOL,
                    f"pi3 failure at depth {depth + 1} is not cubic in depth {depth}",
                )
        else:
            _check_final(algorithm["kind"], algorithm["final_probability"])
    return 0


def _dense_large(rng: random.Random) -> list[Job]:
    # n=20: 16 MiB vectors, 805 + 50 dense iterations per pass.  The m=256
    # job runs first so the warm-up touches only the short one.
    n = 20
    jobs = []
    for m in (256, 1):
        run = partial(search_job, "optimal", n, _targets(rng, n, m), 0, "statevector")
        jobs.append(Job(f"optimal n={n} m={m} statevector", run))
    return jobs


_ANALYTIC_COMBOS = [
    (kind, m) for kind in ("optimal", "noisy-optimal", "random-qaao") for m in (1, 4)
]


def _analytic_study(rng: random.Random) -> list[Job]:
    # 36 search jobs (each n in 14..22 four times, each kind/m pair six
    # times) and 10 compare jobs (n in 8..12, m in {1, 4}).
    jobs = []
    for i in range(36):
        n = 14 + i // 4
        kind, m = _ANALYTIC_COMBOS[i % len(_ANALYTIC_COMBOS)]
        run = partial(
            search_job, kind, n, _targets(rng, n, m), rng.randrange(2**31),
            "analytic", serialize=True,
        )
        jobs.append(Job(f"{kind} n={n} m={m} analytic", run))
    for n in range(8, 13):
        for m in (1, 4):
            run = partial(compare_job, n, m, rng.randrange(2**31))
            defect = COMPARE_M_DEFECT if m > 1 else None
            jobs.append(Job(f"compare n={n} m={m}", run, known_defect=defect))
    return jobs


def _small_batch(rng: random.Random) -> list[Job]:
    # Every (kind, n, single/multi) combination once: 4 x 5 x 2 = 40 jobs.
    # Single-target jobs also export to QASM and replay; multi-target jobs
    # cycle m through {2, 4, 16}.
    jobs = []
    multi = (2, 4, 16)
    for i, (kind, n) in enumerate(
        (k, n) for k in ("optimal", "noisy-optimal", "random-qaao", "fixed-point")
        for n in range(8, 13)
    ):
        for m in (1, multi[i % len(multi)]):
            run = partial(
                search_job, kind, n, _targets(rng, n, m), rng.randrange(2**31),
                "statevector", export=m == 1,
            )
            jobs.append(Job(f"{kind} n={n} m={m} statevector", run))
    return jobs


def build_jobs(workload: str, seed: int) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    builders = {
        "dense-large": _dense_large,
        "analytic-study": _analytic_study,
        "small-batch": _small_batch,
    }
    return builders[workload](rng)


#: Commands the cli-cold workload repeats, in order, per pass.
CLI_REPEATS = 5


def cli_commands(seed: int) -> list[list[str]]:
    """The nine README/ROADMAP commands with seeded arguments.

    `increment` draws its angles inside the ranges the CLI accepts (the
    README's `--beta 3.1416` is rejected as greater than pi).
    """
    rng = random.Random(f"cli-cold:{seed}")
    bits = lambda n: format(rng.getrandbits(n), f"0{n}b")  # noqa: E731
    angle = lambda lo, hi: f"{rng.uniform(lo, hi):.4f}"  # noqa: E731
    draw = rng.randrange(10**6)
    return [
        ["table", "appendix"],
        ["table", "main", "--format", "json"],
        ["figure", "fig4", "--seed", str(draw)],
        ["figure", "region", "--n", str(rng.randint(6, 10))],
        ["search", "optimal", "--n", "16", "--backend", "statevector", "--target", bits(16)],
        ["search", "random-qaao", "--shots", "100", "--seed", str(draw), "--target", bits(8)],
        ["search", "pi3", "--n", str(rng.randint(6, 10))],
        ["export-qasm", "optimal", "--n", "10", "--verify", "--target", bits(10)],
        [
            "increment", "--beta", angle(-3.1, 3.1), "--gamma", angle(-3.1, 3.1),
            "--theta", angle(0.05, 3.0), "--n", "8",
        ],
    ]
