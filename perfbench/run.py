"""Benchmark for `qaa`: four seeded closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see perfbench/README.md):

    dense-large     optimal schedule at n=20 on the statevector backend
    analytic-study  analytic-backend searches, serialization and compare()
    small-batch     small dense jobs at n=8..12 with QASM export and replay
    cli-cold        fresh `python -m qaa.cli` processes, one at a time

One caller runs one job at a time and sends the next when the last one has
finished.  With --trace 0 the run reports the end-to-end metrics of
BENCHMARK.json, measured without tracing.  With --trace 1 it runs the same
jobs untraced and then traced, and reports the per-layer metrics.  Times
are scaled to a reference host speed (perfbench/hostspeed.py).  Every
job's output is checked.  Human-readable lines come first; the last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  A traced run writes its spans to perfbench/out/spans-WORKLOAD.json.gz.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from hostspeed import WORKLOAD_KERNELS, Probe, bracketed, scaled  # noqa: E402
from tracer import LAYERS, read_spans, summarize, write_spans  # noqa: E402
from workloads import CLI_REPEATS, WORKLOADS, cli_commands  # noqa: E402

#: Fresh processes timed for setup_s before and again after the timed
#: passes, so that the median spans the run rather than one moment of it.
SETUP_SAMPLES = 5
#: `python -X importtime -c "import qaa.cli"` runs for cli.import_*.
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 150
#: BLAS and OpenMP pools pinned to one thread, so that the benchmark never
#: runs more threads at once than the two processes it holds.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """A benchmark child process failed; no result is printed."""


def child_env() -> dict:
    """Environment of every child: `src` importable, BLAS pinned, bytecode cached.

    Compiled bytecode goes to .bench_build/pycache in the checkout, so that
    after the first import children load cached bytecode, as an installed
    package does, whatever PYTHONDONTWRITEBYTECODE the caller set.
    """
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    return env


def spawn(args: list[str]) -> subprocess.CompletedProcess:
    """Run one child with the interpreter running this script, and wait for it."""
    try:
        return subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[:3]} timed out after {CHILD_TIMEOUT_S} s") from exc


def worker(*args) -> dict:
    proc = spawn([str(BENCH / "worker.py"), *map(str, args)])
    if proc.returncode != 0:
        raise BenchError(f"worker {args[:2]} exited {proc.returncode}: {proc.stderr.decode()[-2000:]}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def setup_samples(workload: str, seed: int) -> list[float]:
    """Times of fresh processes that import qaa and build the jobs, at reference speed."""
    probe = Probe()
    samples, probes = [], [probe()]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        worker("setup", workload, seed)
        samples.append(time.perf_counter() - t0)
        probes.append(probe())
    return scaled(samples, bracketed(probes))


def import_times() -> dict:
    """cli.import_numpy_s and cli.import_qaa_s from `python -X importtime`.

    numpy is its cumulative time; qaa is the rest of `import qaa.cli`.
    """
    numpy_s, qaa_s = [], []
    for _ in range(IMPORT_SAMPLES):
        proc = spawn(["-X", "importtime", "-c", "import qaa.cli"])
        if proc.returncode != 0:
            raise BenchError(f"import qaa.cli failed: {proc.stderr.decode()[-2000:]}")
        cumulative = {}
        for line in proc.stderr.decode().splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative.setdefault(fields[2].strip(), int(fields[1]) / 1e6)
        numpy_s.append(cumulative["numpy"])
        qaa_s.append(cumulative["qaa.cli"] - cumulative["numpy"])
    return {"cli.import_numpy_s": statistics.median(numpy_s),
            "cli.import_qaa_s": statistics.median(qaa_s)}


def cli_pass(commands, reference: dict, spans_path: Path | None = None, collected=None) -> dict:
    """Run every command CLI_REPEATS times, each in a fresh process.

    A call fails unless it exits 0 and prints the same bytes as the first
    call of the same command in this run.  With `spans_path`, each call runs
    under perfbench/clitrace.py and its spans are appended to `collected`.
    """
    probe = Probe(WORKLOAD_KERNELS["cli-cold"])
    latencies, failures, probes = [], [], [probe()]
    order = [i for _ in range(CLI_REPEATS) for i in range(len(commands))]
    for job, index in enumerate(order):
        argv = commands[index]
        if spans_path is None:
            args = ["-m", "qaa.cli", *argv]
        else:
            args = [str(BENCH / "clitrace.py"), str(job), str(spans_path), "--", *argv]
        t0 = time.perf_counter()
        proc = spawn(args)
        latencies.append(time.perf_counter() - t0)
        name = "qaa " + " ".join(argv)
        if proc.returncode != 0:
            failures.append({"job": name, "error": f"exit {proc.returncode}: "
                             f"{proc.stderr.decode()[-300:]}", "known_defect": None})
        elif reference.setdefault(index, proc.stdout) != proc.stdout:
            failures.append({"job": name, "error": "stdout differs from this run's first call",
                             "known_defect": None})
        if spans_path is not None and spans_path.exists():
            spans, counters = read_spans(spans_path)
            offset = len(collected["spans"])
            collected["spans"].extend(
                (n, s, e, p + offset if p >= 0 else p, j) for n, s, e, p, j in spans
            )
            for key, value in counters.items():
                collected["counters"][key] = collected["counters"].get(key, 0) + value
            spans_path.unlink()
        probes.append(probe())
    return {"wall_s": sum(latencies), "latencies_s": latencies, "probes_s": bracketed(probes),
            "amp_updates": 0, "failures": failures}


def cli_passes(commands, reference: dict, seconds: float) -> list[dict]:
    passes = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        passes.append(cli_pass(commands, reference))
        now = time.perf_counter()
        if (now - begin) + (now - start) > seconds:
            return passes


def machine_info(seed: int) -> dict:
    info = {"cpu": "unknown", "l3": "unknown"}
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.TimeoutExpired):
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() == "Model name":
            info["cpu"] = value.strip()
        elif key.strip() == "L3 cache":
            info["l3"] = value.strip()
    info.update(
        nproc=len(os.sched_getaffinity(0)),
        python=platform.python_version(),
        numpy=importlib.metadata.version("numpy"),
        threads=",".join(f"{k}={v}" for k, v in THREAD_ENV.items()),
        seed=seed,
    )
    return info


def l3_bytes(text: str) -> float:
    """Bytes in an lscpu size such as "300 MiB (1 instance)"; 0 if unknown."""
    match = re.match(r"([\d.]+)\s*([KMG])i?B", text)
    if match is None:
        return 0.0
    return float(match.group(1)) * 1024 ** " KMG".index(match.group(2))


def _p75(values: list[float]) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def scaled_jobs(p: dict) -> list[float]:
    """A pass's job times at reference host speed (see perfbench/hostspeed.py)."""
    return scaled(p["latencies_s"], p["probes_s"])


def scaled_wall(p: dict) -> float:
    return sum(scaled_jobs(p))


def end_to_end(passes: list[dict], jobs: int, setup: list[float], peak_rss_mb: float) -> dict:
    """End-to-end metrics of the untraced passes of one run.

    Every time is at reference host speed, and each is a median: `wall_s`
    over the passes, and each job's latency over its runs in the passes
    before the percentiles are taken over the jobs.
    """
    wall = statistics.median(scaled_wall(p) for p in passes)
    job_ms = [1e3 * statistics.median(t) for t in zip(*(scaled_jobs(p) for p in passes))]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "jobs_per_s": jobs / wall,
        "job_ms_p50": statistics.median(job_ms),
        "job_ms_p75": _p75(job_ms),
        "peak_rss_mb": peak_rss_mb,
    }


def amp_updates_per_s(passes: list[dict]) -> float:
    return statistics.median(p["amp_updates"] / scaled_wall(p) for p in passes)


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[dict], dict]:
    """Returns (metrics, passes incl. the traced one, extra machine fields)."""
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{workload}.json.gz"
    if workload == "cli-cold":
        commands, reference = cli_commands(seed), {}
        jobs = len(commands) * CLI_REPEATS
        if not trace:
            setup = setup_samples(workload, seed)
            passes = cli_passes(commands, reference, seconds)
            setup += setup_samples(workload, seed)
            # Largest child: the setup probes import nothing heavy.
            peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
            return end_to_end(passes, jobs, setup, peak), passes, {}
        passes = cli_passes(commands, reference, seconds / 2)
        collected = {"spans": [], "counters": {}}
        traced = cli_pass(commands, reference, OUT / "clitrace-job.json.gz", collected)
        layers = summarize(collected["spans"], collected["counters"], traced["wall_s"])
        write_spans(spans_file, collected["spans"], collected["counters"],
                    workload=workload, seed=seed, wall_s=traced["wall_s"])
        extra = {}
    elif not trace:
        setup = setup_samples(workload, seed)
        result = worker("run", workload, seed, seconds)
        setup += setup_samples(workload, seed)
        passes = result["passes"]
        metrics = end_to_end(passes, result["jobs"], setup, result["peak_rss_mb"])
        return metrics, passes, {"blas": result["blas"]}
    else:
        result = worker("trace", workload, seed, seconds, spans_file)
        passes, traced, layers = result["passes"], result["traced"], result["layers"]
        extra = {"blas": result["blas"]}
    floors = worker("floors")
    untraced_wall = statistics.median(scaled_wall(p) for p in passes)
    metrics = {
        **layers,
        "tracing.overhead_frac": scaled_wall(traced) / untraced_wall - 1.0,
        "amp_updates_per_s": amp_updates_per_s(passes),
        **import_times(),
        **{k: v for k, v in floors.items() if k.startswith("floor.")},
    }
    extra.update(blas=floors["blas"], vector_mib=floors["vector_bytes"] / 2**20)
    return metrics, passes + [traced], extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qaa" / "__init__.py").is_file():
        print(f"error: no qaa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    try:
        metrics, passes, extra = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(len(p["latencies_s"]) for p in passes)
    unexpected = [f for f in failures if f["known_defect"] is None]
    if args.trace:
        metrics["error_rate"] = len(failures) / attempted
        parts = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        gap = parts + metrics["unattributed_s"] - metrics["tracing.wall_s"]
        if abs(gap) > 1e-9 * max(1.0, metrics["tracing.wall_s"]):
            unexpected.append({"job": "trace", "error": f"layer times miss wall by {gap}"})

    machine = {**machine_info(args.seed), **extra}
    print(f"# qaa benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    if args.trace:
        fits = l3_bytes(machine["l3"]) >= machine["vector_mib"] * 2**20
        print(f"# the {machine['vector_mib']:g} MiB floor vector "
              f"{'fits' if fits else 'does not fit'} in the {machine['l3']} L3 cache, "
              f"so floor.copy_gbps is {'cache' if fits else 'memory'} bandwidth")
    print(f"# jobs: {attempted} attempted over {len(passes)} passes, {len(failures)} failed "
          f"(error_rate {len(failures) / attempted:.4f}); latency percentiles over "
          f"{len(passes[0]['latencies_s'])} jobs, each the median of its runs")
    probes = [x for p in passes for job in p["probes_s"] for x in job]
    print(f"# host speed: probes ran {statistics.median(probes):.3f} times their reference "
          f"time (median); unscaled pass time median "
          f"{statistics.median(p['wall_s'] for p in passes):.4f} s; times below are "
          f"scaled to reference speed (perfbench/hostspeed.py)")
    for failure in {f["job"]: f for f in failures}.values():
        known = f" [known defect: {failure['known_defect']}]" if failure["known_defect"] else ""
        print(f"# failed: {failure['job']}: {failure['error']}{known}")
    if any(f["known_defect"] for f in failures):
        print("# known-defect failures count in `failed` but leave `correct` true")
    out = {}
    for entry in declared:
        value = metrics[entry["name"]]
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']} = {value:.6g} {entry['unit']}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": len(failures), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
