"""Benchmark of the benchkelly engine on three CLI pipeline workloads.

    python3 bench/run.py --workload experiment-2f --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; the program is imported from ``src/``.
Workload and metric names and metric units come from ``BENCHMARK.json`` at
the same root.

For one workload it
1. writes the inputs for ``--seed`` (``bench/inputs.py``),
2. with ``--trace 0``, starts several set-up-only processes; set-up time is
   the median over them and the workload process,
3. starts one workload process (``bench/worker.py``) that runs jobs back to
   back for ``--seconds`` -- a closed loop with a single client -- so peak
   RSS belongs to that workload alone.  With ``--trace 1`` that process
   alternates untraced and traced jobs and the run reports the per-layer
   metrics, the tracing overhead and whether both kinds of job produced the
   same artifact digest.

Every child process gets the same fixed BLAS thread count through its
environment.  Human-readable lines (environment, digest, every metric with
its unit) precede the result; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The full
record, and with ``--trace 1`` the span dump, are kept under
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# one BLAS thread per workload process: the engine's matrices are small and a
# single thread keeps the figures independent of what else runs on the host
BLAS_THREADS = 1
# set-up-only processes; the workload process adds one more set-up sample
SETUP_REPEATS = 4
RUN_BUDGET_S = 170.0
# per-operation wall times reported per workload (0 where it does not run)
OP_METRICS = {
    "experiment": "cmd.experiment_s", "simulate": "cmd.simulate_s", "report": "cmd.report_s",
    "solve": "cmd.solve_s", "policy": "cmd.policy_s", "verify": "cmd.verify_s",
    "estimate": "cmd.estimate_s", "bootstrap": "lib.bootstrap_s",
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(argv: list[str], deadline: float) -> None:
    """Run one child to completion (killed and reaped if it overruns)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget of the run exhausted")
    try:
        proc = subprocess.run([sys.executable, *argv], env=child_env(), cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[0]} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[:3])} exited with {proc.returncode}:\n"
                         + proc.stderr[-2000:])


def environment(versions: dict) -> dict:
    commit = "unknown (not a git checkout)"
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    cpu_model = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = "unknown"
    return {
        "git_commit": commit,
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l3_cache": l3,
        "blas_threads": BLAS_THREADS,
    }


def tree_digest(directory: Path) -> str:
    """SHA-256 over the names and bytes of every file under ``directory``."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def timing_summary(values: list[float]) -> dict:
    """Median, sample count, and the highest of the usual percentiles that
    has at least ten samples beyond it (None when there are too few)."""
    out = {"median": statistics.median(values), "samples": len(values),
           "tail_percentile": None, "values": list(values)}
    values = sorted(values)
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            k = min(n - 1, int(p / 100.0 * n))
            out["tail_percentile"] = {"p": p, "value": values[k]}
            break
    return out


def run_workload(workload: str, seed: int, seconds: int, trace: bool, spec: dict) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    work = ROOT / ".bench_work" / tag
    results = ROOT / ".bench_work" / "results"
    shutil.rmtree(work, ignore_errors=True)
    results.mkdir(parents=True, exist_ok=True)
    inputs, jobs, result = work / "inputs", work / "jobs", work / "result.json"
    try:
        run_child([str(BENCH / "inputs.py"), "--seed", str(seed), "--out", str(inputs)],
                  deadline)
        common = ["--workload", workload, "--inputs", str(inputs), "--jobs", str(jobs),
                  "--result", str(result)]
        setup = []
        for _ in range(0 if trace else SETUP_REPEATS):
            run_child([str(BENCH / "worker.py"), "--mode", "setup", *common,
                       "--t0", repr(time.monotonic())], deadline)
            setup.append(json.loads(result.read_text())["setup_s"])
        mode = ["--mode", "trace", "--spans", str(results / f"{tag}.spans.json")] if trace \
            else ["--mode", "run"]
        run_child([str(BENCH / "worker.py"), *mode, *common, "--seconds", str(seconds),
                   "--t0", repr(time.monotonic())], deadline)
        record = json.loads(result.read_text())
        inputs_digest = tree_digest(inputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    all_jobs = record["jobs"]
    plain = [j for j in all_jobs if not j["traced"]]
    traced = [j for j in all_jobs if j["traced"]]
    ops = [op for j in all_jobs for op in j["ops"]]
    failures = [f"job {i} {op['name']}: {'; '.join(op['errors'])}"
                for i, j in enumerate(all_jobs) for op in j["ops"] if op["errors"]]
    digests = sorted({j["digest"] for j in all_jobs})

    def op_median(jobs_, name):
        times = [op["seconds"] for j in jobs_ for op in j["ops"] if op["name"] == name]
        return statistics.median(times) if times else 0.0

    values: dict[str, float] = {}
    summaries = {"job_s": timing_summary([j["job_s"] for j in plain])}
    for name, metric in OP_METRICS.items():
        values[metric] = op_median(plain, name)
    if trace:
        for key in traced[0]["layers"]:
            values[key] = statistics.median(j["layers"][key] for j in traced)
        values["trace.overhead_s"] = (statistics.median(j["job_s"] for j in traced)
                                      - summaries["job_s"]["median"])
        wanted = spec["per_layer"]
    else:
        summaries["setup_s"] = timing_summary([*setup, record["setup_s"]])
        values["setup_s"] = summaries["setup_s"]["median"]
        values["job_s"] = summaries["job_s"]["median"]
        values["peak_rss_mb"] = record["peak_rss_mb"]
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for metrics {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    res = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(record["versions"]),
        "inputs_digest": inputs_digest,
        "digest": digests[0] if len(digests) == 1 else digests,
        "traced_digest_matches": (None if not trace else
                                  {j["digest"] for j in traced} == {j["digest"] for j in plain}),
        "jobs": {"untraced": len(plain), "traced": len(traced)},
        "timings": summaries,
        "operations": {name: op_median(plain, name) for name in OP_METRICS
                       if any(op["name"] == name for op in ops)},
        "failures": failures,
        "correct": not failures and len(digests) == 1,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op["errors"]),
        "metrics": metrics,
    }
    (results / f"{tag}.json").write_text(json.dumps(res, indent=2, sort_keys=True) + "\n")
    return res


def report(res: dict) -> None:
    """Human-readable lines before the result line."""
    print(f"# {res['workload']} seed={res['seed']} trace={int(res['trace'])} "
          f"jobs={res['jobs']} inputs={res['inputs_digest']} digest={res['digest']}")
    print(f"# environment {json.dumps(res['environment'], sort_keys=True)}")
    for name, summary in res["timings"].items():
        print(f"# {name}: median of {summary['samples']}, tail percentile "
              f"{summary['tail_percentile'] or 'none (fewer than ten samples beyond p50)'}")
    if not res["trace"]:
        for name, seconds in res["operations"].items():
            print(f"# {OP_METRICS[name]} = {seconds:.6g} s (median)")
    for name, m in res["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(f"# failed_ratio = {res['failed']}/{res['attempted']}")
    if res["trace"]:
        print(f"# traced digest equals untraced digest: {res['traced_digest_matches']}")
    for line in res["failures"]:
        print(f"# FAILED {line}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "benchkelly" / "__init__.py").is_file():
            raise BenchError(f"no benchkelly sources under {ROOT / 'src'}")
        names = workloads if args.workload == "all" else (args.workload,)
        runs = []
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
            report(res)
            runs.append(res)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in runs for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
