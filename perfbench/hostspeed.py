"""Host-speed probe: the time scale of the benchmark's end-to-end times.

On a shared host the speed a process gets swings by up to ~1.7x within
seconds and stays slow or fast for whole runs (seen on a 2-vCPU Xeon VM,
with CPU time tracking wall time, so it is contention from other tenants
rather than preemption).  Raw times then mostly record the host's state.
The benchmark therefore times fixed kernels, which call no `qaa` code,
before and after every job and, for jobs run in the measuring process,
every SAMPLE_INTERVAL_S while the job runs.  A probe gives how many times
slower than their reference times the kernels run now, and each job's time
is divided by the mean of its probes: the job's time at reference speed.
A change to `qaa` moves the job times and not the probes, so it shows in
the scaled times in full.

Probes run at once in two processes, one on each vCPU of that VM, were
barely correlated (0.3), so the probe runs in the process that runs the
jobs (the caller, for CLI children), never beside them.
"""

from __future__ import annotations

import cmath
import math
import signal
import statistics
import time

#: Complex multiply-adds per python-kernel sample.
PYTHON_STEPS = 3000
#: Complex amplitudes of the vector kernels, which copy a vector into a
#: preallocated buffer and shift it by its mean, the passes of a dense
#: Grover step: one 4 MiB vector, or SMALL_REPEATS times a 16 KiB one.
#: They allocate nothing, so the job's heap cannot change their cost.
VECTOR_SIZE = 2**18
SMALL_SIZE = 2**10
SMALL_REPEATS = 120
#: Timings per kernel; a probe takes their median, so that one interrupt
#: does not set it.
PROBE_SAMPLES = 3
#: Period of the probes taken while a job runs.
SAMPLE_INTERVAL_S = 0.25


#: Each kernel's median time on the 2-vCPU Xeon VM the benchmark was
#: written on: the reference speed.
REFERENCE_S = {"python": 0.75e-3, "vector": 0.8e-3, "small": 1.0e-3}
#: Kernels probed per workload, chosen to do the work that sets its cost:
#: passes over 16 MiB vectors (dense-large), Python and numpy calls on
#: small vectors (small-batch), Python (the others).
WORKLOAD_KERNELS = {
    "dense-large": ("vector",),
    "analytic-study": ("python",),
    "small-batch": ("python", "small"),
    "cli-cold": ("python",),
}


class Probe:
    """Times a set of kernels; owns the buffers of the vector kernels."""

    def __init__(self, kernels: tuple[str, ...] = ("python",)) -> None:
        self.kernels = kernels
        self._buffers: dict[int, list] = {}

    def __call__(self) -> float:
        """How many times slower than reference the host runs the kernels now.

        The geometric mean, over the kernels, of the median of PROBE_SAMPLES
        timings over its reference time; 1.0 at reference speed.
        """
        logs = []
        for name in self.kernels:
            kernel = getattr(self, f"_{name}")
            samples = []
            for _ in range(PROBE_SAMPLES):
                t0 = time.perf_counter()
                kernel()
                samples.append(time.perf_counter() - t0)
            logs.append(math.log(statistics.median(samples) / REFERENCE_S[name]))
        return math.exp(statistics.fmean(logs))

    def _python(self) -> None:
        a = complex(0.3, 0.1)
        for k in range(PYTHON_STEPS):
            a = a * cmath.exp(-1e-3j * k) + 0.01

    def _vector(self) -> None:
        self._shift(VECTOR_SIZE)

    def _small(self) -> None:
        for _ in range(SMALL_REPEATS):
            self._shift(SMALL_SIZE)

    def _shift(self, size: int) -> None:
        if size not in self._buffers:
            import numpy as np

            self._buffers[size] = [np.full(size, size**-0.5, dtype=complex) for _ in range(2)]
        source, shifted = self._buffers[size]
        shifted[:] = source
        shifted -= 0.1j * shifted.mean()


class Sampler:
    """Probes every SAMPLE_INTERVAL_S from a timer signal while in its `with` block.

    The handler runs between two bytecodes of the job, in the same thread,
    and adds the time it takes to `spent`, which the caller takes off the
    job's time.
    """

    def __init__(self, probe: Probe) -> None:
        self.probe = probe
        self.probes: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.probes.append(self.probe())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def bracketed(probes: list[float]) -> list[list[float]]:
    """Per-job probe lists from probes taken before the first job and after each."""
    return [[before, after] for before, after in zip(probes, probes[1:])]


def scaled(times: list[float], probes: list[list[float]]) -> list[float]:
    """Each time at reference speed, given the probes taken around and during it."""
    return [t / statistics.fmean(p) for t, p in zip(times, probes)]
