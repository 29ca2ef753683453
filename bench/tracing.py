"""Span tracing of the engine's layers from outside the program.

``Tracer.installed()`` replaces every public function of the traced modules
with a wrapper that records a span (name, start, end, parent span, job id)
and, for a few functions, work counts taken from the arguments and the
return value.  The wrapper is bound at every site that holds the function:
``game`` imports ``optimal_h`` by name and ``policy`` imports
``value_function`` by name, so patching only the defining module would miss
those calls.  Leaving the context restores the original bindings.

Spans stay in memory; ``dump`` writes them out once the run ends and
``layer_metrics`` turns one job's spans into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

LAYERS = ("model", "valuefn", "policy", "game", "simulate", "estimate", "analytics", "cli")
# cli.main is entered by the benchmark itself and recorded as cli.<command>
UNTRACED = {"cli.main"}
ESTIMATORS = ("simulate.mc_criterion", "simulate.martingale_check", "simulate.kl_estimate")
COMMANDS = ("experiment", "simulate", "report", "solve", "policy", "verify", "estimate")


def _bundle_bytes(bundle) -> int:
    return sum(v.nbytes for v in vars(bundle).values() if isinstance(v, np.ndarray))


# work counts per wrapped function: (bound arguments, return value) -> counts
WORK = {
    "simulate.simulate_paths": lambda a, r: {
        "path_steps": a["cfg"].n_paths * a["cfg"].steps, "stored_bytes": _bundle_bytes(r)},
    "simulate.save_terminals_csv": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "simulate.save_paths_binary": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "valuefn.solve_value_coefficients": lambda a, r: {"rk4_steps": len(r.grid) - 1},
    "valuefn.save_coefficients": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "game.saddle_check": lambda a, r: {"probes": a["probes"]},
    "estimate.load_panel": lambda a, r: {"rows": r.rows},
    "estimate.bootstrap_gram_se": lambda a, r: {"resamples": a["n_resamples"]},
    "analytics.performance_report": lambda a, r: {"samples": r.sample_count},
}


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int
    work: dict


class Tracer:
    """Collects spans for the jobs run while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.job = -1

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the body; yields the span."""
        span = Span(len(self.spans), name, 0.0, 0.0,
                    self._stack[-1] if self._stack else None, self.job, {})
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _call(self, name, fn, sig, args, kwargs):
        with self.span(name) as span:
            result = fn(*args, **kwargs)
        work = WORK.get(name)
        if work is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            span.work = work(bound.arguments, result)
        return result

    def _wrapper(self, name, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, sig, args, kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Bind wrappers at every site that holds a traced function."""
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"benchkelly.{layer}"]
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    originals[id(value)] = (value, self._wrapper(name, value))
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "benchkelly" and not mod_name.startswith("benchkelly."):
                continue
            for attr, value in list(vars(module).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    patched.append((module, attr, value))
                # module-level tables hold functions too (cli dispatches
                # its subcommands through _COMMANDS)
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        entry = originals.get(id(item))
                        if entry is not None and entry[0] is item:
                            value[key] = entry[1]
                            patched.append((value, key, item))
        try:
            yield
        finally:
            for holder, key, value in patched:
                if isinstance(holder, dict):
                    holder[key] = value
                else:
                    setattr(holder, key, value)

    def dump(self, path: Path) -> None:
        """Write every span; self times can be recomputed from these fields."""
        rows = [dataclasses.asdict(s) for s in self.spans]
        Path(path).write_text(json.dumps({"clock": "time.perf_counter", "spans": rows}) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover (one thread,
    so children nest and never overlap)."""
    out = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in out:
            out[s.parent] -= s.end - s.start
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced job."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    work: dict[str, float] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + own[s.id]
        for key, value in s.work.items():
            work[f"{s.name}.{key}"] = work.get(f"{s.name}.{key}", 0) + value

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    def top_command(s: Span) -> str:
        while s.parent is not None:
            s = by_id[s.parent]
        return s.name

    m: dict[str, float] = {}
    for name in ("simulate.simulate_paths", "valuefn.solve_value_coefficients",
                 "valuefn.riccati_residual", "policy.fractional_kelly", "policy.optimal_h",
                 "policy.optimal_gamma", "game.saddle_check", "game.hamiltonians",
                 "analytics.performance_report", "model.validate_model"):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("simulate.save_terminals_csv", "simulate.save_paths_binary",
                 "simulate.load_paths_binary", "valuefn.save_coefficients",
                 "estimate.load_panel", "estimate.estimate_model",
                 "estimate.bootstrap_gram_se", "analytics.compare_strategies",
                 "cli.run_verification"):
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("simulate.save_terminals_csv", "simulate.save_paths_binary",
                 "valuefn.save_coefficients"):
        m[f"{name}.bytes"] = work.get(f"{name}.bytes", 0)

    m["simulate.path_steps"] = work.get("simulate.simulate_paths.path_steps", 0)
    m["simulate.path_steps_per_s"] = rate(m["simulate.path_steps"],
                                          m["simulate.simulate_paths.self_s"])
    m["simulate.stored_bytes"] = work.get("simulate.simulate_paths.stored_bytes", 0)
    m["simulate.estimators.self_s"] = sum(self_s.get(name, 0.0) for name in ESTIMATORS)
    m["valuefn.rk4_steps"] = work.get("valuefn.solve_value_coefficients.rk4_steps", 0)
    m["valuefn.rk4_steps_per_s"] = rate(m["valuefn.rk4_steps"],
                                        m["valuefn.solve_value_coefficients.self_s"])
    # a point evaluation is a policy call not made from inside another one;
    # its time includes the value-function lookups it needs
    top_policy = [s for s in spans if s.name.startswith("policy.") and not (
        s.parent is not None and by_id[s.parent].name.startswith("policy."))]
    m["policy.point_evals_per_s"] = rate(len(top_policy),
                                         sum(s.end - s.start for s in top_policy))
    m["game.saddle_probes"] = work.get("game.saddle_check.probes", 0)
    m["estimate.panel_rows_per_s"] = rate(work.get("estimate.load_panel.rows", 0),
                                          m["estimate.load_panel.self_s"])
    m["estimate.resamples_per_s"] = rate(work.get("estimate.bootstrap_gram_se.resamples", 0),
                                         m["estimate.bootstrap_gram_se.self_s"])
    m["analytics.samples_per_s"] = rate(work.get("analytics.performance_report.samples", 0),
                                        m["analytics.performance_report.self_s"])
    # a command's own time: the cli span plus the cli helpers it calls,
    # without run_verification (reported on its own) and without layer spans
    for command in COMMANDS:
        m[f"cli.{command}.self_s"] = sum((
            own[s.id] for s in spans
            if s.name.startswith("cli.") and s.name != "cli.run_verification"
            and top_command(s) == f"cli.{command}"), 0.0)
    return m
