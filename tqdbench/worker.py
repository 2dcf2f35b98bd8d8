"""Run one benchmark job in a fresh interpreter, as one CLI call would.

Usage: ``python3 worker.py JOB_JSON [--trace] [--spans PATH]`` with
``tqdstab`` importable. Prints one JSON object: the job's answer (or the
error it raised), its time in ns from the first library call to the answer,
the process's peak resident memory and, with ``--trace``, the per-layer
statistics of the job.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

import jobs
from layertrace import Tracer


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("job")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()
    job = json.loads(args.job)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    answer, error = None, None
    t0 = time.perf_counter_ns()
    try:
        answer = jobs.run_job(job)
    except Exception as exc:  # reported to the runner as a failed job
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter_ns() - t0

    out = {"answer": answer, "error": error, "ns": elapsed,
           "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        out["layers"] = tracer.results()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
