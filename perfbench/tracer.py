"""Spans around the calls into each `qaa` module, recorded from outside the package.

`Tracer.install()` replaces every public function of the layer modules, and
every public method of their public classes, with a wrapper that records a
span (name, start, end, parent span, job id).  A function is replaced in
every loaded `qaa` namespace that binds it, so `engine.increment` (imported
from `subspace` by name) is traced as `subspace.increment`.  Spans stay in
memory until `write_spans()`.

`summarize()` turns spans and counters into the per-layer metrics.  This
module imports neither numpy nor `qaa` at import time.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

#: Modules timed as layers.  `reference_tables` is data only.
LAYERS = ("subspace", "statevector", "schedules", "engine", "qasm", "cli")

#: Passes over one state vector per call (a read or a write of all 2^n
#: complex amplitudes; a float64 temporary counts one half), read off the
#: numpy expressions in `qaa.statevector`.  Calls not listed touch only the
#: m target amplitudes or delegate to listed calls.
VECTOR_PASSES = {
    "statevector.uniform_state": 1.0,  # np.full
    "statevector.apply_oracle_phase": 2.0,  # copy()
    "statevector.apply_diffusion": 3.0,  # mean(), then a - c*mean
    "statevector.project_to_angles": 4.0,  # sum(); abs(a); **2; sum()
    "statevector.sample_measurements": 4.5,  # abs; **2; sum; divide; multinomial
}

SERIALIZERS = ("engine.Trajectory.to_csv", "engine.Trajectory.to_json", "engine.classify")
PI3_SPANS = ("schedules.pi3_sequence", "schedules.pi3_matrix", "schedules.pi3_failure_probability")


def _vector_bytes(args, result) -> int:
    for value in (result, *args):
        amplitudes = getattr(value, "amplitudes", None)
        if amplitudes is not None and hasattr(amplitudes, "nbytes"):
            return amplitudes.nbytes
    return 0


def _count_qaao(counters, name, args, kwargs, result) -> None:
    counters["qaao_draws"] += 1
    counters["qaao_accepted"] += bool(result)


def _count_pi3(counters, name, args, kwargs, result) -> None:
    counters["pi3_primitives"] += len(result.ops)


def _count_replay(counters, name, args, kwargs, result) -> None:
    source = args[0] if args else kwargs["source"]
    counters["lines_replayed"] += len(source.splitlines())


def _count_vector(counters, name, args, kwargs, result) -> None:
    counters["statevector_bytes"] += VECTOR_PASSES[name] * _vector_bytes(args, result)


HOOKS = {
    "subspace.is_qaao": _count_qaao,
    "schedules.pi3_sequence": _count_pi3,
    "qasm.replay_circuit": _count_replay,
    **{name: _count_vector for name in VECTOR_PASSES},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counters: Counter = Counter()
        self.job = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
            if hook is not None:
                hook(counters, name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions and methods of every loaded layer module."""
        namespaces = [m for key, m in sys.modules.items() if key == "qaa" or key.startswith("qaa.")]
        replaced = {}
        for layer in LAYERS:
            module = sys.modules.get(f"qaa.{layer}")
            if module is None:
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    replaced[id(value)] = (value, self.wrap(f"{layer}.{attr}", value))
                elif inspect.isclass(value):
                    self._wrap_methods(f"{layer}.{attr}", value)
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if id(value) in replaced and replaced[id(value)][0] is value:
                    setattr(module, attr, replaced[id(value)][1])

    def _wrap_methods(self, prefix: str, cls) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(value, (classmethod, staticmethod)):
                setattr(cls, attr, type(value)(self.wrap(name, value.__func__)))
            elif inspect.isfunction(value):
                setattr(cls, attr, self.wrap(name, value))


def write_spans(path, spans, counters, **extra) -> None:
    """Write spans, counters and `extra` fields as one gzip-compressed JSON document.

    Span names are stored once, in `names`; each span is [name index,
    start, end, parent span index or -1, job id].
    """
    names: dict[str, int] = {}
    rows = [[names.setdefault(n, len(names)), s, e, p, j] for n, s, e, p, j in spans]
    payload = {"names": list(names), "spans": rows, "counters": dict(counters), **extra}
    with gzip.open(path, "wt", compresslevel=1) as fh:
        json.dump(payload, fh)


def read_spans(path) -> tuple[list, dict]:
    with gzip.open(path, "rt") as fh:
        payload = json.load(fh)
    names = payload["names"]
    return [(names[i], s, e, p, j) for i, s, e, p, j in payload["spans"]], payload["counters"]


def summarize(spans, counters, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass that took `wall_s` seconds.

    A span's self time is its duration minus its children's durations, so
    the layers' self times plus `unattributed_s` (time outside any span)
    add up to `wall_s`.
    """
    child_time = defaultdict(float)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, self_s, total_s = Counter(), defaultdict(float), defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        total_s[name] += end - start
        self_s[name] += end - start - child_time[index]
    top_level = sum(end - start for _, start, end, parent, _ in spans if parent < 0)

    out = {}
    for layer in LAYERS:
        names = [n for n in calls if n.split(".", 1)[0] == layer]
        layer_self = sum(self_s[n] for n in names)
        out[f"{layer}.calls"] = sum(calls[n] for n in names)
        out[f"{layer}.self_s"] = layer_self
        out[f"{layer}.share"] = layer_self / wall_s
    out["unattributed_s"] = wall_s - top_level
    out["tracing.wall_s"] = wall_s

    def mean(name):
        return total_s[name] / calls[name] if calls[name] else 0.0

    steps = calls["statevector.apply_iteration"]
    vector_s = out["statevector.self_s"]
    vector_bytes = counters.get("statevector_bytes", 0)
    out["statevector.step_ms"] = 1e3 * vector_s / steps if steps else 0.0
    out["statevector.bytes_per_step"] = vector_bytes / steps if steps else 0.0
    out["statevector.achieved_gbps"] = vector_bytes / vector_s / 1e9 if vector_s else 0.0
    out["subspace.step_us"] = 1e6 * (mean("subspace.increment") + mean("subspace.apply_iteration"))
    out["schedules.pi3_s"] = sum(self_s[n] for n in PI3_SPANS)
    out["schedules.pi3_primitives"] = counters.get("pi3_primitives", 0)
    draws = counters.get("qaao_draws", 0)
    out["schedules.qaao_accept_ratio"] = counters.get("qaao_accepted", 0) / draws if draws else 0.0
    out["engine.serialize_s"] = sum(total_s[n] for n in SERIALIZERS)
    out["qasm.export_s"] = total_s["qasm.export_circuit"]
    out["qasm.replay_s"] = total_s["qasm.replay_circuit"]
    out["qasm.lines_replayed"] = counters.get("lines_replayed", 0)
    out["cli.main_s"] = mean("cli.main")
    return out
