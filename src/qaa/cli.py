"""Command-line front end.

Subcommands:
    increment    evaluate one iteration's increment and coefficients
    table        emit the fixed-point trajectory table as CSV
    figure       emit the data series behind the standard plots
    search       generate a schedule, run it, write the trajectory
    export-qasm  write an OpenQASM 3 circuit, optionally replay-verified

All data outputs are deterministic for a fixed seed: CSV columns are
printed with 6 decimal places, JSON carries full double precision.  Each
subcommand takes only the flags it reads.  A JSON config file may supply
any flag, converted as on the command line; keys that name no flag of the
subcommand are ignored, and command-line values win.  With --m > 1 the
targets are the basis strings 0..m-1, so --target needs m = 1.  The
environment variable QAA_OUTPUT_DIR sets the default output directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from operator import itemgetter
from pathlib import Path

from . import engine, qasm, schedules, statevector as sv
from .subspace import (
    IterationParams,
    StateAngles,
    advance,
    amplification_terms,
    initial_angles,
    qaao_bound,
)


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    if not path.is_absolute() and (base := os.environ.get("QAA_OUTPUT_DIR")):
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_increment(args: argparse.Namespace) -> int:
    state = StateAngles(args.theta, args.phi)
    theta0 = initial_angles(args.n, args.m).theta
    params = IterationParams(args.beta, args.gamma)
    delta = advance(*params, state.theta, state.phi, theta0)[2]
    a, b, c = amplification_terms(*params, state.phi, math.cos(theta0), math.sin(theta0))
    amplifying = b > qaao_bound(args.c, 2**args.n)
    lines = [
        f"increment {delta:.6f}",
        f"A {a:.6f}",
        f"B {b:.6f}",
        f"C {c:.6f}",
        f"qaao {'O' if amplifying else 'X'}",
    ]
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _columns(traj: engine.Trajectory, **fields: str) -> tuple[tuple[str, ...], list[tuple]]:
    """Header and rows of a trajectory's steps: column name -> StepRecord field."""
    pick = itemgetter(*map(schedules.StepRecord._fields.index, fields.values()))
    return tuple(fields), list(map(pick, traj.steps))


#: Rows of the published main-table excerpt: its four non-amplifying steps.
MAIN_TABLE_ROWS = (9, 10, 11, 12)


def cmd_table(args: argparse.Namespace) -> int:
    seq = schedules.fixed_point_sequence(args.L, args.delta)
    traj = engine.run_search(seq, sv.OracleSpec.standard(args.n, args.m))
    header = ("no", "theta", "phi", "beta", "gamma", "increment", "qaao")
    rows = [
        (s.index, s.theta_before, s.phi_before, s.beta, s.gamma, s.increment, "XO"[s.qaao_flag])
        for s in traj.steps
        if args.kind == "appendix" or s.index in MAIN_TABLE_ROWS
    ]
    _write(engine.format_rows(rows, args.format, header), args.out)
    return 0


def _figure_fig1b(args) -> tuple[tuple[str, ...], list[tuple]]:
    if not (steps := schedules.k_star(args.n, args.m)):
        return ("step", "probability"), []  # K* = 0: no Grover step precedes the closing one
    traj = engine.grover_baseline(args.n, args.m, steps)
    return _columns(traj, step="index", probability="probability_after")


def _figure_fig3(args) -> tuple[tuple[str, ...], list[tuple]]:
    oracle = sv.OracleSpec.standard(args.n, args.m)
    rows = []
    for delta in (0.05 * math.pi, 0.2 * math.pi, 0.3 * math.pi):
        seq = schedules.noisy_optimal_sequence(args.n, delta, seed=args.seed, m=args.m)
        traj = engine.run_search(seq, oracle)
        header, series = _columns(
            traj, step="index", queries="cumulative_queries", probability="probability_after"
        )
        rows += [(delta, *r) for r in series]
    return ("delta", *header), rows


def _figure_fig4(args) -> dict:
    return engine.compare(
        [
            (schedules.FIXED_POINT, {"length": args.L}),
            (schedules.PI3, {}),
            (schedules.RANDOM_QAAO, {"seed": args.seed, "c": args.c}),
        ],
        n=args.n,
        m=args.m,
        threshold=0.9,
        seed=args.seed,
    )


def _figure_region(args) -> dict:
    import numpy as np

    from .subspace import amplification_coefficient, region_boundary

    res = args.resolution
    if not 1 <= res <= 2048:
        raise ValueError(f"--resolution must lie in [1, 2048], got {res}")
    theta0 = initial_angles(args.n, args.m).theta
    axis = np.linspace(-math.pi, math.pi, res, endpoint=False) + math.pi / res
    b = amplification_coefficient(axis[:, None], axis[None, :], 0.0, theta0)
    boundary = []
    for bt in axis:
        try:
            boundary.append([float(bt), region_boundary(float(bt), theta0)])
        except ValueError:
            continue
    return {
        "n": args.n,
        "resolution": res,
        "positive_fraction": float(np.mean(b > 0.0)),
        "boundary": boundary,
    }


def _figure_fig7(args) -> tuple[tuple[str, ...], list[tuple]]:
    seq = schedules.fixed_point_sequence(args.L, schedules.FIXED_POINT_DELTA)
    traj = engine.run_search(seq, sv.OracleSpec.standard(args.n, args.m))
    return _columns(
        traj, step="index", queries="cumulative_queries", probability="probability_after"
    )


def cmd_figure(args: argparse.Namespace) -> int:
    if args.id in ("fig4", "region"):
        payload = _figure_fig4(args) if args.id == "fig4" else _figure_region(args)
        _write(json.dumps(payload, sort_keys=True) + "\n", args.out)
        return 0
    header, rows = {
        "fig1b": _figure_fig1b,
        "fig3": _figure_fig3,
        "fig7": _figure_fig7,
    }[args.id](args)
    _write(engine.format_rows(rows, args.format, header), args.out)
    return 0


def _build_sequence(args, steps: int = 1) -> schedules.ParameterSequence:
    return schedules.build(
        args.kind, args.n, args.m,
        seed=args.seed, c=args.c, delta=args.delta, length=args.L, steps=steps,
    )


def cmd_search(args: argparse.Namespace) -> int:
    if not 0 <= args.shots <= sv.MAX_SHOTS:
        raise ValueError(f"--shots must lie in [0, {sv.MAX_SHOTS}], got {args.shots}")
    if args.kind == schedules.PI3 and (args.backend == "statevector" or args.shots):
        raise ValueError(
            "search pi3 is the analytic series only: no --backend statevector or --shots"
        )
    if args.backend == "statevector":
        sv.check_qubits(args.n)
    oracle = sv.OracleSpec.standard(args.n, args.m, args.target)
    if args.kind == schedules.PI3:
        header = ("depth", "queries", "probability")
        series = schedules.pi3_series(initial_angles(args.n, args.m).theta)
        rows = list(map(itemgetter(*header), series))
        _write(engine.format_rows(rows, args.format, header), args.out)
        return 0
    seq = _build_sequence(args)
    traj = engine.run_search(seq, oracle, backend=args.backend)
    text = traj.to_json() + "\n" if args.format == "json" else traj.to_csv()
    _write(text, args.out)
    if args.shots:
        histogram = sv.sample_measurements(traj.final_probability, oracle, args.shots, args.seed)
        hist_text = json.dumps(histogram, sort_keys=True) + "\n"
        _write(hist_text, args.out + ".hist.json" if args.out else None)
    return 0


def cmd_export_qasm(args: argparse.Namespace) -> int:
    if args.verify:
        sv.check_qubits(args.n)
    oracle = sv.OracleSpec.standard(args.n, args.m, args.target)
    seq = _build_sequence(args, args.steps)
    source = qasm.export_circuit(seq, oracle)
    _write(source, args.out)
    if args.verify:
        deviation = qasm.roundtrip_deviation(seq, oracle, source)
        print(f"replay max deviation {deviation:.3e}", file=sys.stderr)
        if deviation > 1e-9:
            return 1
    return 0


#: The flags subcommands share, in --help order.
_FLAGS = {
    "n": dict(type=int, default=8, help="qubit count"),
    "m": dict(type=int, default=1, help="number of target states"),
    "c": dict(type=float, default=1.5, help="amplification predicate constant"),
    "delta": dict(type=float, default=0.0, help="perturbation / error budget"),
    "L": dict(type=int, default=21, help="fixed-point schedule length"),
    "seed": dict(type=int, default=0, help="random seed"),
    "shots": dict(type=int, default=0, help="readout shots of the final state, 0 to 1048576"),
    "target": dict(type=str, default=None, help="target bit string"),
    "backend": dict(choices=engine.BACKENDS, default="analytic"),
    "format": dict(choices=("csv", "json"), default="csv"),
    "out": dict(type=str, default=None, help="output path (default stdout)"),
    "config": dict(type=str, default=None, help="JSON file with default flags"),
}


def _add_flags(p: argparse.ArgumentParser, *names: str) -> None:
    """Register the shared flags `names` plus the four every subcommand reads."""
    for name, spec in _FLAGS.items():
        if name in names or name in ("n", "m", "out", "config"):
            p.add_argument(f"--{name}", **spec)


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a prefix such as --c must not stand for --config.
    parser = argparse.ArgumentParser(
        prog="qaa",
        description="amplitude amplification schedules and simulation",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("increment", allow_abbrev=False, help="evaluate one iteration at a state")
    _add_flags(p, "c")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--phi", type=float, default=0.0)
    p.set_defaults(func=cmd_increment)

    p = sub.add_parser("table", allow_abbrev=False, help="emit the fixed-point trajectory table")
    _add_flags(p, "delta", "L", "format")
    p.add_argument("kind", choices=("main", "appendix"), nargs="?", default="appendix")
    p.set_defaults(func=cmd_table, delta=schedules.FIXED_POINT_DELTA)

    p = sub.add_parser("figure", allow_abbrev=False, help="emit a figure data series")
    _add_flags(p, "c", "L", "seed", "format")
    p.add_argument("id", choices=("fig1b", "fig3", "fig4", "region", "fig7"))
    p.add_argument("--resolution", type=int, default=512)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("search", allow_abbrev=False, help="generate and run a schedule")
    _add_flags(p, *_FLAGS)
    search_kinds = [k for k in schedules.BUILDERS if k != schedules.GROVER]
    p.add_argument("kind", choices=search_kinds + [schedules.PI3])
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("export-qasm", allow_abbrev=False, help="write an OpenQASM 3 circuit")
    _add_flags(p, "c", "delta", "L", "seed", "target")
    p.add_argument("kind", choices=list(schedules.BUILDERS))
    p.add_argument("--steps", type=int, default=1, help="iterations for kind=grover")
    p.add_argument("--verify", action="store_true", help="replay and report deviation")
    p.set_defaults(func=cmd_export_qasm)

    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv with the --config file's flags placed before the subcommand's own.

    Config values are parsed as the text of their flags, so they get the same
    type checks; `false` and `null` are skipped, and command-line flags win.
    """
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    try:
        overrides = json.loads(Path(args.config).read_text())
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(overrides, dict):
        raise ValueError(f"config {args.config} must hold a JSON object")
    flags = [
        f"--{key}" if value is True else f"--{key}={value}"
        for key, value in overrides.items()
        if value is not None and value is not False
    ]
    return parser.parse_known_args(argv[:1] + flags + argv[1:])[0]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = _apply_config(parser, list(sys.argv[1:] if argv is None else argv))
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
