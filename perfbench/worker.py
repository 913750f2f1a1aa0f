"""Child process of the benchmark: one workload's jobs in a closed loop.

Run from the repository root with `src` on PYTHONPATH:

    python perfbench/worker.py setup  WORKLOAD SEED
    python perfbench/worker.py run    WORKLOAD SEED SECONDS
    python perfbench/worker.py trace  WORKLOAD SEED SECONDS SPANS_PATH
    python perfbench/worker.py floors

`setup` only imports `qaa` and builds the seeded jobs.  `run` repeats whole
passes over the jobs, one job at a time, until another pass would overrun
SECONDS.  `trace` does the same for half of SECONDS, then one traced pass.
`floors` times the plain-numpy and plain-complex lower bounds.  Each mode
prints one JSON object on stdout.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hostspeed import WORKLOAD_KERNELS, Probe, Sampler  # noqa: E402
from workloads import CheckFailed, build_jobs  # noqa: E402

WARMUP_S = 0.5


def run_pass(jobs, probe: Probe, tracer=None) -> dict:
    """One pass over the jobs, probing the host speed around and during each job.

    `wall_s` is the sum of the job times, which leave out the probes.  A
    traced pass probes only between jobs, so that no probe falls in a span.
    """
    latencies, probes, failures, updates = [], [], [], 0
    before = probe()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        sampler = Sampler(probe)
        t0 = time.perf_counter()
        try:
            with sampler if tracer is None else contextlib.nullcontext():
                updates += job.run()
        except CheckFailed as exc:
            failures.append({"job": job.name, "error": str(exc), "known_defect": job.known_defect})
        except Exception as exc:  # a raising job is a failed job; keep going
            failures.append(
                {"job": job.name, "error": f"{type(exc).__name__}: {exc}", "known_defect": None}
            )
        latencies.append(time.perf_counter() - t0 - sampler.spent)
        after = probe()
        probes.append([before, *sampler.probes, after])
        before = after
    return {
        "wall_s": sum(latencies),
        "latencies_s": latencies,
        "probes_s": probes,
        "amp_updates": updates,
        "failures": failures,
    }


def timed_passes(jobs, probe: Probe, seconds: float) -> list[dict]:
    """Warm up, then run whole passes until the next one would end after `seconds`."""
    begin = time.perf_counter()
    for job in jobs:
        if time.perf_counter() - begin >= WARMUP_S:
            break
        try:
            job.run()
        except Exception:  # the timed passes record this job's failure
            pass
    passes = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        passes.append(run_pass(jobs, probe))
        now = time.perf_counter()
        if (now - begin) + (now - start) > seconds:
            return passes


def _numpy_info() -> dict:
    import numpy as np

    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def floors() -> dict:
    """Lower bounds for the two step kernels, measured in the same run.

    dense: one pass of sum, in-place scalar update and vdot on the
    dense-large vector (2^20 complex128, 16 MiB).  pair: one 2D step on a
    plain complex pair.  copy: np.copyto bandwidth on the same vector,
    counting the read and the write.
    """
    import cmath
    import math

    import numpy as np

    size = 2**20
    a = np.full(size, size**-0.5, dtype=complex)
    b = np.empty_like(a)

    def median_time(fn, reps):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return sorted(times)[len(times) // 2]

    def dense_step():
        total = a.sum()
        np.subtract(a, (2.0 / size) * total, out=a)
        np.vdot(a, a)

    theta0 = 2.0 * math.asin(2.0**-10)
    s_t, s_p = math.sin(0.5 * theta0), math.cos(0.5 * theta0)
    angles = [(math.pi, math.pi - 0.001 * k) for k in range(100)] * 100

    def pair_steps():
        a_t, a_p = complex(s_t), complex(s_p)
        for beta, gamma in angles:
            a_t *= cmath.exp(-1j * gamma)
            overlap = (s_t * a_t + s_p * a_p) * (1.0 - cmath.exp(-1j * beta))
            a_t -= overlap * s_t
            a_p -= overlap * s_p
        return a_t.real * a_t.real + a_t.imag * a_t.imag

    copy_s = median_time(lambda: np.copyto(b, a), 41)
    return {
        "floor.dense_step_ms": 1e3 * median_time(dense_step, 41),
        "floor.pair_step_us": 1e6 * median_time(pair_steps, 5) / len(angles),
        "floor.copy_gbps": 2 * a.nbytes / copy_s / 1e9,
        "vector_bytes": a.nbytes,
        **_numpy_info(),
    }


def main(argv: list[str]) -> dict:
    mode = argv[0]
    if mode == "floors":
        return floors()
    workload, seed = argv[1], int(argv[2])
    if workload == "cli-cold":
        from workloads import cli_commands

        return {"commands": len(cli_commands(seed))}
    import qaa  # noqa: F401  (setup time includes the package import)

    jobs, probe = build_jobs(workload, seed), Probe(WORKLOAD_KERNELS[workload])
    if mode == "setup":
        return {"jobs": len(jobs)}
    seconds = float(argv[3])
    if mode == "run":
        passes = timed_passes(jobs, probe, seconds)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {"passes": passes, "jobs": len(jobs), "peak_rss_mb": peak, **_numpy_info()}
    if mode == "trace":
        from tracer import Tracer, summarize, write_spans

        passes = timed_passes(jobs, probe, seconds / 2)
        tracer = Tracer()
        tracer.install()
        traced = run_pass(jobs, probe, tracer)
        layers = summarize(tracer.spans, tracer.counters, traced["wall_s"])
        write_spans(argv[4], tracer.spans, tracer.counters, workload=workload, seed=seed,
                    wall_s=traced["wall_s"])
        return {"passes": passes, "traced": traced, "jobs": len(jobs), "layers": layers,
                **_numpy_info()}
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
