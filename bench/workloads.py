"""The benchmark's workloads: one CLI pipeline each, plus its output checks.

A job runs a workload's operations back to back through
``benchkelly.cli.main`` (and, for ``estimate-bootstrap``, one library call).
An operation fails on a nonzero exit code, an exception, or a failed output
check; no check tolerance may be loosened to make a run pass.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from benchkelly import cli, estimate, valuefn
from benchkelly import model as model_mod

ROUTE_GAP_TOL = 1e-12
FACTORIZATION_TOL = 1e-10
ORACLE_STD_ERRORS = 4.0


@dataclass
class Op:
    name: str
    seconds: float = 0.0
    errors: list[str] = field(default_factory=list)
    manifest: str | None = None
    artifact_bytes: int = 0


class Context:
    """Inputs of one run plus the values the checks compare against."""

    def __init__(self, workload: str, inputs: Path, jobs: Path):
        self.workload = workload
        self.inputs = inputs
        self.jobs = jobs
        self.plan = json.loads((inputs / "plan.json").read_text())
        self.log_criterion = None
        if workload == "experiment-2f":
            # Riccati value u(0, x0): the oracle of the simulate criterion,
            # solved once outside the timed jobs with the CLI's solver steps
            config = json.loads((inputs / "experiment-2f.json").read_text())
            vm = model_mod.validate_model(model_mod.load_model(inputs / config["model"]))
            vc = valuefn.solve_value_coefficients(vm, config["solver"]["steps_per_year"])
            self.log_criterion = valuefn.value_function(vc, 0.0, vm.x0).log_criterion


SETUP_MODEL = {
    "experiment-2f": "twofactor.json",
    "verify-wide": "wide.json",
    "estimate-bootstrap": "generator.json",
}


def setup_model(inputs: Path, workload: str) -> None:
    """Load and validate the workload's model once (the end of set-up)."""
    model_mod.validate_model(model_mod.load_model(inputs / SETUP_MODEL[workload]))


def pipeline(ctx: Context) -> list[tuple[str, list[str] | None]]:
    """(operation, CLI argv) in job order; argv None marks the library call."""
    def cfg(name):
        return ["--config", str(ctx.inputs / name)]

    def out(op):
        return ["--out", str(ctx.jobs / op)]

    if ctx.workload == "experiment-2f":
        sim = ctx.jobs / "simulate"
        return [
            ("experiment", ["experiment", *cfg("experiment-2f.json"), *out("experiment")]),
            ("simulate", ["simulate", *cfg("experiment-2f.json"), *out("simulate")]),
            ("report", ["report", *cfg("experiment-2f.json"), *out("report"),
                        f"paths={sim / 'paths.bin'}", f"terminals={sim / 'terminals.csv'}"]),
        ]
    if ctx.workload == "verify-wide":
        return [(op, [op, *cfg("verify-wide.json"), *out(op)])
                for op in ("solve", "policy", "verify")]
    if ctx.workload == "estimate-bootstrap":
        return [
            ("estimate", ["estimate", *cfg("estimate-bootstrap.json"), *out("estimate")]),
            ("bootstrap", None),
            ("solve", ["solve", *cfg("estimated-model.json"), *out("solve")]),
            ("policy", ["policy", *cfg("estimated-model.json"), *out("policy")]),
        ]
    raise ValueError(f"unknown workload '{ctx.workload}'")


def bootstrap(ctx: Context) -> dict[str, np.ndarray]:
    """The bootstrap standard errors the CLI does not expose yet."""
    config = json.loads((ctx.inputs / "estimate-bootstrap.json").read_text())
    schema = estimate.PanelSchema(bench_weights=np.asarray(ctx.plan["bench_weights"]))
    panel = estimate.load_panel(ctx.inputs / config["estimation"]["panel"], schema)
    params = ctx.plan["bootstrap"]
    return estimate.bootstrap_gram_se(panel, block_len=params["block_len"],
                                      n_resamples=params["n_resamples"], seed=params["seed"])


def run_job(ctx: Context, span) -> tuple[float, list[Op]]:
    """Run one job; returns its wall time and its checked operations.

    ``span(name)`` is a context manager entered around each call into the
    program (a no-op when tracing is off).
    """
    shutil.rmtree(ctx.jobs, ignore_errors=True)
    ctx.jobs.mkdir(parents=True)
    ops, results = [], {}
    start = time.perf_counter()
    for name, argv in pipeline(ctx):
        op = Op(name)
        t0 = time.perf_counter()
        try:
            if argv is None:
                with span(f"lib.{name}"):
                    results[name] = bootstrap(ctx)
            else:
                with span(f"cli.{name}"):
                    code = cli.main(argv)
                if code != 0:
                    op.errors.append(f"exit code {code}")
        except Exception as exc:  # the job must go on and report the failure
            op.errors.append(f"{type(exc).__name__}: {exc}")
        op.seconds = time.perf_counter() - t0
        ops.append(op)
    job_s = time.perf_counter() - start
    for op in ops:
        _check(ctx, op, results.get(op.name))
    return job_s, ops


def _check(ctx: Context, op: Op, result) -> None:
    """Output checks of one operation, after the job's timed part."""
    if op.name == "bootstrap":
        if result is not None:
            if not all(np.all(np.isfinite(v)) for v in result.values()):
                op.errors.append("non-finite bootstrap standard error")
            op.manifest = json.dumps({k: hashlib.sha256(np.ascontiguousarray(v).tobytes())
                                      .hexdigest() for k, v in sorted(result.items())})
        return
    outdir = ctx.jobs / op.name
    manifest = outdir / "manifest.json"
    if not manifest.exists():
        op.errors.append("no manifest.json")
        return
    op.manifest = manifest.read_text()
    op.artifact_bytes = sum(p.stat().st_size for p in outdir.iterdir() if p.is_file())
    try:
        if op.name == "experiment":
            gap = json.loads((outdir / "experiment_summary.json").read_text())["route_metric_gap"]
            if not gap <= ROUTE_GAP_TOL:
                op.errors.append(f"route_metric_gap {gap:.3e} > {ROUTE_GAP_TOL:g}")
        elif op.name == "verify":
            rows = json.loads((outdir / "verify_report.json").read_text())
            bad = [r["invariant"] for r in rows if r["status"] not in ("PASS", "SKIP")]
            if bad:
                op.errors.append(f"verify rows not PASS/SKIP: {bad}")
        elif op.name == "simulate":
            cols = np.loadtxt(outdir / "terminals.csv", delimiter=",", skiprows=1, ndmin=2)
            gap = float(np.abs(cols[:, 2] - (cols[:, 3] + cols[:, 4])).max())
            if not gap <= FACTORIZATION_TOL:
                op.errors.append(f"density factorization gap {gap:.3e} > {FACTORIZATION_TOL:g}")
            summary = json.loads((outdir / "sim_summary.json").read_text())
            est, se = summary["criterion_estimate"], summary["criterion_std_error"]
            z = abs(np.log(est) - ctx.log_criterion) / (se / est)
            if not z <= ORACLE_STD_ERRORS:
                op.errors.append(f"criterion {z:.2f} std errors from the Riccati value")
    except (OSError, KeyError, ValueError) as exc:
        op.errors.append(f"unreadable output: {type(exc).__name__}: {exc}")
