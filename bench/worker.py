"""One workload process of the benchmark.

``--mode setup`` measures set-up only: process start (``--t0``, a
``time.monotonic`` reading taken by the parent just before it started this
process) through importing benchkelly and loading and validating the
workload's model once.  ``--mode run`` then runs jobs back to back, a closed
loop with one client, until ``--seconds`` have passed; ``--mode trace``
alternates untraced and traced jobs so the same run yields the per-layer
metrics, the tracing overhead and a digest comparison of the two.  The raw
per-job record goes to ``--result`` as JSON; traced spans go to ``--spans``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import time
from pathlib import Path

import numpy as np
import scipy

from tracing import Tracer, layer_metrics
from workloads import Context, run_job, setup_model


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--jobs", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    setup_model(args.inputs, args.workload)
    record = {
        "setup_s": time.monotonic() - args.t0,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    if args.mode != "setup":
        record["jobs"] = run_jobs(args)
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.result.write_text(json.dumps(record) + "\n")
    return 0


def run_jobs(args) -> list[dict]:
    ctx = Context(args.workload, args.inputs, args.jobs)
    tracer = Tracer()
    jobs, first = [], None
    start = time.perf_counter()
    while True:
        traced = args.mode == "trace" and len(jobs) % 2 == 1
        if traced:
            tracer.job = len(jobs)
            with tracer.installed():
                job_s, ops = run_job(ctx, tracer.span)
        else:
            job_s, ops = run_job(ctx, lambda name: contextlib.nullcontext())
        if first is None:
            first = {op.name: op.manifest for op in ops}
        for op in ops:
            if op.manifest != first[op.name]:
                op.errors.append("manifest differs from the run's first job")
        job = {
            "traced": traced,
            "job_s": job_s,
            "digest": hashlib.sha256(json.dumps(
                {op.name: op.manifest for op in ops}, sort_keys=True).encode()).hexdigest(),
            "ops": [{"name": op.name, "seconds": op.seconds, "errors": op.errors}
                    for op in ops],
        }
        if traced:
            layers = layer_metrics([s for s in tracer.spans if s.job == tracer.job])
            layers["cli.artifact_bytes"] = sum(op.artifact_bytes for op in ops)
            job["layers"] = layers
        jobs.append(job)
        done = time.perf_counter() - start >= args.seconds
        if done and (args.mode == "run" or len(jobs) % 2 == 0):
            break
    if args.spans is not None:
        tracer.dump(args.spans)
    return jobs


if __name__ == "__main__":
    raise SystemExit(main())
