"""One traced `qaa` CLI call, for the traced pass of the cli-cold workload.

    python perfbench/clitrace.py JOB SPANS_PATH -- CLI_ARGS...

Behaves like `python -m qaa.cli CLI_ARGS...` (same stdout, stderr and exit
code) but records the package import as a `cli.import` span and wraps the
layer modules with the tracer before running `qaa.cli.main`.  Spans and
counters go to SPANS_PATH.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, write_spans  # noqa: E402


def main(argv: list[str]) -> int:
    job, spans_path, cli_args = int(argv[0]), argv[1], argv[3:]
    tracer = Tracer()
    tracer.job = job
    start = time.perf_counter()
    from qaa import cli

    tracer.spans.append(("cli.import", start, time.perf_counter(), -1, job))
    tracer.install()
    code = cli.main(cli_args)
    write_spans(spans_path, tracer.spans, tracer.counters)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
