"""Schedule execution, trajectory records, classification, and comparison.

Runs a parameter schedule end to end from the uniform state, on either the
analytic two-level backend or the full state-vector backend, recording one
StepRecord per iteration.  The state-vector backend cross-checks the
analytic prediction at every step and flags any disagreement as a defect.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Optional, Sequence

from . import schedules, statevector as sv
from .schedules import ParameterSequence, StepRecord
from .subspace import amplification_terms, initial_angles, qaao_bound

BACKENDS = ("analytic", "statevector")

#: Cross-backend and composed-sequence tolerance.
SEQUENCE_TOL = 1e-10

LEAKAGE_TOL = 1e-12

#: Decimal places of every float in CSV output.
CSV_DECIMALS = 6


def _cell_format(value, fmt: str) -> str:
    if isinstance(value, bool):
        return "%s"  # CSV maps it to its O/X flag first, JSON respells True/False
    if isinstance(value, int):
        return "%d"
    if isinstance(value, float):
        return "%r" if fmt == "json" else f"%.{CSV_DECIMALS}f"  # %r: json's float repr
    return '"%s"' if fmt == "json" else "%s"


#: A nan or inf cell as %r writes it; json writes NaN, Infinity or -Infinity.
_NONFINITE = re.compile(r": (-?inf|nan)\b")


def format_rows(rows: Sequence[tuple], fmt: str, header: Sequence[str]) -> str:
    """Newline-terminated CSV or JSON text of header-ordered tuples.

    Every row goes through one printf-style template built from the first
    row's cell types, so every row must have them.  CSV prints `header`, then
    floats with CSV_DECIMALS places, ints as integers, bools as the O/X
    amplification flag and strs as they are.  JSON writes a list of objects
    with sorted keys: floats at full precision, bools as true/false, nan and
    inf as json spells them, and strs quoted with no escaping (a str cell must
    need none), so the bytes are those of `json.dumps(..., sort_keys=True)`.
    """
    if not rows:
        return "[]\n" if fmt == "json" else ",".join(header) + "\n"
    formats = [_cell_format(cell, fmt) for cell in rows[0]]
    if fmt == "json":
        order = sorted(range(len(header)), key=header.__getitem__)
        template = "{%s}" % ", ".join('"%s": %s' % (header[i], formats[i]) for i in order)
        body = ", ".join([template % row for row in map(itemgetter(*order), rows)])
        body = body.replace(": True", ": true").replace(": False", ": false")
        body = _NONFINITE.sub(lambda cell: ": " + json.dumps(float(cell[1])), body)
        return f"[{body}]\n"
    row_format = ",".join(formats)
    flags = [i for i, value in enumerate(rows[0]) if isinstance(value, bool)]
    lines = [",".join(header)]
    for row in rows:
        cells = list(row)
        for i in flags:
            cells[i] = "XO"[cells[i]]
        lines.append(row_format % tuple(cells))
    return "\n".join(lines) + "\n"


class BackendMismatchError(RuntimeError):
    """Analytic and state-vector backends disagree beyond tolerance."""


@dataclass(frozen=True)
class Trajectory:
    n: Optional[int]
    m: int
    kind: str
    steps: tuple[StepRecord, ...]
    final_probability: float

    @property
    def is_monotone(self) -> bool:
        return all(s.increment >= 0.0 for s in self.steps)

    @property
    def negative_steps(self) -> list[int]:
        return [s.index for s in self.steps if s.increment < 0.0]

    @property
    def turning_index(self) -> Optional[int]:
        """The step after which the probability first drops (0: before any step).

        None while the trajectory is still nondecreasing.
        """
        return next((s.index - 1 for s in self.steps if s.increment < 0.0), None)

    def to_csv(self) -> str:
        return format_rows(self.steps, "csv", StepRecord._fields)

    def to_json(self) -> str:
        payload = {
            "n": self.n,
            "m": self.m,
            "kind": self.kind,
            "final_probability": self.final_probability,
            "turning_index": self.turning_index,
            "steps": [],
        }
        # turning_index, the one key after "steps", holds an int or null.
        head, _, tail = json.dumps(payload, sort_keys=True).rpartition("[]")
        rows = format_rows(self.steps, "json", StepRecord._fields)
        return f"{head}{rows[:-1]}{tail}"  # rows without its newline


def run_search(
    seq: ParameterSequence,
    oracle: sv.OracleSpec,
    backend: str = "analytic",
) -> Trajectory:
    """Execute a schedule from the uniform state: its `schedules.trajectory` records.

    With the state-vector backend, the schedule is one checked run
    (`statevector.checked_steps`) over the 2^n vector of
    `statevector.uniform_start`, which is filled only after the last step,
    and the run raises unless, at every step, the leakage, the squared
    distance of the state from the target plane, and the norm defect
    <a|a> - 1 stay within 1e-12 and the measured target probability matches
    the step's record within 1e-10.  It
    stops at the window of the first failing check.  After the last step, a
    closing `statevector.measure` reads every amplitude: its `Plane` must
    equal the last step's bit for bit, and it must find clean exactly the
    blocks the run left clean, each holding the last r bit for bit.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    oracle.check_schedule(seq)
    n, m = oracle.n, oracle.m
    steps = schedules.trajectory(seq, n, m)
    if backend == "statevector":
        state, plan, plane = sv.uniform_start(oracle)
        checked = []
        # The planes come first, so that zip exhausts the run and it writes the vector.
        for plane, record in zip(sv.checked_steps(state, seq.params, plan, plane.total), steps):
            if not (plane.leakage <= LEAKAGE_TOL):
                raise BackendMismatchError(
                    f"leakage {plane.leakage} out of the target plane at step {record.index}"
                )
            if not (abs(plane.norm_defect) <= LEAKAGE_TOL):
                raise BackendMismatchError(
                    f"norm defect {plane.norm_defect} at step {record.index}"
                )
            if not (abs(plane.probability - record.probability_after) <= SEQUENCE_TOL):
                raise BackendMismatchError(
                    f"backends disagree at step {record.index}: statevector "
                    f"{plane.probability} vs analytic {record.probability_after}"
                )
            checked.append(StepRecord(*record[:5], plane.probability, *record[6:]))
        settled = plan.clean.copy()
        # repr writes every float exactly, so -0.0 and 0.0 differ.  A settled block
        # must also read back with r's bits: with m > 1, a Plane can round off a ulp.
        if repr(closing := sv.measure(state, plan)) != repr(plane) or plan.clean != settled:
            raise BackendMismatchError(
                f"the vector after step {len(steps)} reads {closing} with "
                f"{sum(plan.clean)} clean blocks, not {plane} with {sum(settled)}"
            )
        steps = tuple(checked)
    final = steps[-1].probability_after if steps else initial_angles(n, m).target_probability
    return Trajectory(n, m, seq.kind, steps, final)


def classify(traj: Trajectory, c: Optional[float] = None) -> Trajectory:
    """Re-annotate qaao_flag with the coefficient predicate at each state.

    With c=None the boundary predicate b > 0 is used; with c > 1 the strict
    predicate b > c/sqrt(N).  (The default flags written by run_search
    follow the realized increment sign instead, which is what the published
    reference tables tabulate.)
    """
    if traj.n is None:
        raise ValueError("cannot classify a trajectory without a register size")
    threshold = 0.0 if c is None else qaao_bound(c, 2**traj.n)
    theta0 = initial_angles(traj.n, traj.m).theta
    cos_theta0, sin_theta0 = math.cos(theta0), math.sin(theta0)
    steps = []
    for s in traj.steps:
        b = amplification_terms(s.beta, s.gamma, s.phi_before, cos_theta0, sin_theta0)[1]
        steps.append(StepRecord(*s[:7], b > threshold, s[8]))
    return replace(traj, steps=tuple(steps))


def grover_baseline(n: int, m: int = 1, steps: int = 1) -> Trajectory:
    """Repeated standard iterations G(pi, pi): monotone up to the turning point."""
    seq = schedules.build(schedules.GROVER, n, m, steps=steps)
    return run_search(seq, sv.OracleSpec.standard(n, m))


def _queries_to_threshold(traj: Trajectory, threshold: float) -> Optional[dict]:
    for s in traj.steps:
        if s.probability_after >= threshold:
            return {
                "iterations": s.index,
                "queries_single": s.index,
                "queries_double": 2 * s.index,
                "queries_declared": s.cumulative_queries,
            }
    return None


def compare(
    specs: list[tuple[str, dict]],
    n: int,
    m: int = 1,
    threshold: float = 0.9,
    seed: int = 0,
) -> dict:
    """Run several schedule families and report queries-to-threshold data.

    Each spec is (kind, settings): a schedule kind with settings for
    `schedules.build` (`seed` defaults to the seed given here), or "pi3"
    with an optional `max_depth`.  Every schedule runs against the oracle
    marking the basis strings 0..m-1.  Because the query-accounting
    convention differs between published figures, both the 1-per-iteration
    and 2-per-iteration counts are reported alongside each schedule's own
    declared convention.
    """
    if not specs:
        raise ValueError("need at least one algorithm spec")
    oracle = sv.OracleSpec.standard(n, m)
    theta0 = initial_angles(n, m).theta
    report: dict = {"n": n, "m": m, "threshold": threshold, "algorithms": []}
    for kind, settings in specs:
        if kind == schedules.PI3:
            series = schedules.pi3_series(
                theta0, settings.get("max_depth", schedules.MAX_PI3_DEPTH)
            )
            hit = next((r for r in series if r["probability"] >= threshold), None)
            reached = hit and {"depth": hit["depth"], "queries": hit["queries"]}
            report["algorithms"].append(
                {"kind": kind, "series": series, "to_threshold": reached, "monotone": True}
            )
            continue
        seq = schedules.build(kind, n, m, **{"seed": seed, **settings})
        traj = run_search(seq, oracle)
        report["algorithms"].append(
            {
                "kind": kind,
                "iterations": len(traj.steps),
                "final_probability": traj.final_probability,
                "monotone": traj.is_monotone,
                "negative_steps": traj.negative_steps,
                "to_threshold": _queries_to_threshold(traj, threshold),
                "queries_per_iteration": seq.queries_per_iteration,
            }
        )
    return report
