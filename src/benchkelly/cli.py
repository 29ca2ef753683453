"""Config-driven command-line pipeline.

Subcommands: validate, estimate, solve, policy, simulate, report,
experiment, verify.  One JSON config file drives an experiment; all outputs
land under the output directory together with a manifest of file hashes, and
every failure exits nonzero with a machine-parsable ``ERROR <code>:`` line.
All randomness flows from a single seed; per-role sub-seeds are derived
deterministically.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analytics, estimate, game
from . import model as model_mod
from . import policy as policy_mod
from . import simulate as sim_mod
from . import valuefn
from .errors import (
    BlowUp,
    ConfigError,
    EigenvalueViolation,
    EngineError,
    EquivalenceFailure,
    RepresentationMismatch,
    SaddleViolation,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2

# failures of the mathematics (as opposed to bad inputs) exit with code 2
_VERIFY_ERRORS = (
    SaddleViolation,
    EigenvalueViolation,
    EquivalenceFailure,
    RepresentationMismatch,
    BlowUp,
)

METRIC_ROWS = (
    ("mean", "mean (%/day)"),
    ("std", "std dev (%/day)"),
    ("semideviation", "semideviation (%/day)"),
    ("skewness", "skewness"),
    ("kurtosis", "excess kurtosis"),
    ("var", "VaR 95% (%/day)"),
    ("cvar", "CVaR 95% (%/day)"),
    ("sharpe", "sharpe"),
    ("sortino", "sortino"),
    ("mean_to_var", "mean-to-VaR"),
    ("mean_to_cvar", "mean-to-CVaR"),
)


def derive_seed(seed: int, role: str) -> int:
    """Deterministic per-role sub-seed from the single config seed."""
    digest = hashlib.sha256(f"{seed}:{role}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class OutputWriter:
    """Writes artifacts under one directory and keeps a hash manifest."""

    def __init__(self, outdir: Path):
        self.outdir = Path(outdir)
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.hashes: dict[str, str] = {}

    def record(self, name: str) -> None:
        data = (self.outdir / name).read_bytes()
        self.hashes[name] = hashlib.sha256(data).hexdigest()

    def write_text(self, name: str, text: str) -> Path:
        path = self.outdir / name
        path.write_text(text)
        self.record(name)
        return path

    def write_json(self, name: str, obj) -> Path:
        return self.write_text(name, json.dumps(obj, indent=2, sort_keys=True) + "\n")

    def finish(self) -> None:
        manifest = json.dumps(self.hashes, indent=2, sort_keys=True) + "\n"
        (self.outdir / "manifest.json").write_text(manifest)


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def _number(value) -> bool:
    # bool is an int subclass: a switch is not a number
    return not isinstance(value, bool) and (
        isinstance(value, int) or isinstance(value, float) and math.isfinite(value))


def _same(value):
    return value


def _one_of(choices: tuple) -> tuple:
    return f"one of {list(choices)}", lambda v: isinstance(v, str) and v in choices, _same


# value kinds: (what the value must be, its check, the reader's conversion)
_COUNT = ("an integer >= 1", lambda v: _number(v) and isinstance(v, int) and v >= 1, int)
_INTEGER = ("an integer", lambda v: _number(v) and isinstance(v, int), int)
_NUMBER = ("a finite number", _number, float)
_POSITIVE = ("a positive number", lambda v: _number(v) and v > 0, float)
_FRACTION = ("a number in (0, 1)", lambda v: _number(v) and 0 < v < 1, float)
_SWITCH = ("true or false", lambda v: isinstance(v, bool), _same)
_TEXT = ("a string", lambda v: isinstance(v, str), _same)
_VECTOR = ("a list of numbers", lambda v: isinstance(v, list) and all(map(_number, v)),
           lambda v: np.asarray(v, dtype=float))

CLI_STRATEGIES = ("optimal", "kelly", "benchmark")

# every key a config block may carry: key -> (kind, default when absent);
# a None default leaves the choice to the reader (the simulation keys
# default to SimConfig's fields)
_CONFIG = {
    "solver": {"steps_per_year": (_COUNT, 1008), "residual_tol": (_POSITIVE, 1e-3)},
    "simulation": {
        "n_paths": (_COUNT, None), "steps": (_COUNT, None), "dt": (_POSITIVE, None),
        "seed": (_INTEGER, None), "measure": (_one_of(sim_mod.MEASURES), None),
        "strategy": (_one_of(CLI_STRATEGIES), None),
        "route": (_one_of(policy_mod.ROUTES), None), "antithetic": (_SWITCH, None),
        "bench_weights": (_VECTOR, None), "dump_paths": (_SWITCH, False),
    },
    "metrics": {"level": (_FRACTION, 0.95),
                "downside_denominator": (_one_of(("below", "full")), "below")},
    "verify": {"probes": (_COUNT, 2000), "sim_paths": (_COUNT, 4000),
               "lattice_times": (_COUNT, 3), "lattice_states": (_COUNT, 3),
               "inject_corruption": (_SWITCH, False)},
    "policy": {"t": (_NUMBER, 0.0), "x": (_VECTOR, None)},
    "estimation": {"panel": (_TEXT, None), "bench_weights": (_VECTOR, None),
                   "date_column": (_TEXT, "date"), "asset_prefix": (_TEXT, "asset:"),
                   "factor_prefix": (_TEXT, "factor:"), "dt": (_POSITIVE, estimate.DEFAULT_DT)},
}


def _check_config(config: dict) -> None:
    """Reject unknown keys and ill-typed values in every block of _CONFIG."""
    for block, table in _CONFIG.items():
        values = config.get(block, {})
        if not isinstance(values, dict):
            raise ConfigError(f"config '{block}' must be an object")
        unknown = sorted(set(values) - set(table))
        if unknown:
            raise ConfigError(f"unknown {block} config keys: {unknown}")
        for key, value in values.items():
            (expected, check, _), _ = table[key]
            if not check(value):
                raise ConfigError(f"{block}.{key} must be {expected}, got {value!r}")


def _setting(config: dict, block: str, key: str):
    """A block's checked value, converted, or the table's default when absent."""
    (_, _, convert), default = _CONFIG[block][key]
    values = config.get(block, {})
    return convert(values[key]) if key in values else default


def load_run_config(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        config = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    config["_dir"] = str(path.parent)
    has_model = "model" in config
    has_est = "estimation" in config
    if has_model == has_est:
        raise ConfigError("config must supply exactly one of 'model' or 'estimation'")
    _check_config(config)
    return config


def _resolve(config: dict, rel: str) -> Path:
    p = Path(rel)
    return p if p.is_absolute() else Path(config["_dir"]) / p


def build_model(config: dict) -> tuple[model_mod.ModelSpec, estimate.EstimationReport | None]:
    """Model from a model file (with optional overrides) or from estimation."""
    if "model" in config:
        path = _resolve(config, config["model"])
        if not path.exists():
            raise ConfigError(f"model file not found: {path}")
        spec = model_mod.load_model(path)
        overrides = {}
        if "theta" in config:
            overrides["theta"] = float(config["theta"])
        if "horizon_years" in config:
            overrides["horizon_years"] = float(config["horizon_years"])
        if "x0" in config:
            overrides["x0"] = np.asarray(config["x0"], dtype=float)
        if overrides:
            spec = model_mod.ModelSpec(
                n=spec.n, m=spec.m, d=spec.d, coeffs=spec.coeffs,
                horizon_years=overrides.get("horizon_years", spec.horizon_years),
                theta=overrides.get("theta", spec.theta),
                x0=overrides.get("x0", spec.x0),
            )
        return spec, None

    est_cfg = config["estimation"]
    for key in ("panel", "bench_weights"):
        if key not in est_cfg:
            raise ConfigError(f"estimation config missing '{key}'")
    if "theta" not in config or "horizon_years" not in config:
        raise ConfigError("estimation mode needs top-level 'theta' and 'horizon_years'")
    schema = estimate.PanelSchema(**{
        key: _setting(config, "estimation", key)
        for key in ("bench_weights", "date_column", "asset_prefix", "factor_prefix", "dt")})
    panel_path = _resolve(config, est_cfg["panel"])
    if not panel_path.exists():
        raise ConfigError(f"panel file not found: {panel_path}")
    panel = estimate.load_panel(panel_path, schema)
    x0 = np.asarray(config["x0"], dtype=float) if "x0" in config else None
    report = estimate.estimate_model(
        panel, theta=float(config["theta"]),
        horizon_years=float(config["horizon_years"]), x0=x0,
    )
    return report.model_spec, report


def _sim_config(config: dict, seed_override: int | None, **kwargs) -> sim_mod.SimConfig:
    """SimConfig from the checked simulation block; kwargs override it."""
    sim_cfg = dict(config.get("simulation", {}))
    sim_cfg.pop("dump_paths", None)
    if seed_override is not None:
        sim_cfg["seed"] = seed_override
    if "bench_weights" in sim_cfg:
        sim_cfg["bench_weights"] = _setting(config, "simulation", "bench_weights")
    sim_cfg.update(kwargs)
    return sim_mod.SimConfig(**sim_cfg)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_validate(config: dict, out: OutputWriter, args) -> int:
    spec, _ = build_model(config)
    validated = model_mod.validate_model(spec)
    lines = [
        f"model OK: factors={validated.n} assets={validated.m} noise_dim={validated.d}",
        f"theta={validated.theta:g} horizon_years={validated.horizon:g} "
        f"segments={len(spec.coeffs.blocks)}",
    ]
    text = "\n".join(lines)
    print(text)
    out.write_text("validate.txt", text + "\n")
    out.finish()
    return EXIT_OK


def cmd_estimate(config: dict, out: OutputWriter, args) -> int:
    if "estimation" not in config:
        raise ConfigError("the estimate command needs an 'estimation' config block")
    spec, report = build_model(config)
    model_mod.validate_model(spec)
    out.write_json("model.json", model_mod.model_to_dict(spec))
    out.write_json("estimation_report.json", report.to_dict())
    out.finish()
    print(f"estimated model from {report.rows} rows "
          f"(assets={spec.m}, factors={spec.n}); wrote model.json")
    return EXIT_OK


def _solve_from_config(config: dict):
    spec, _ = build_model(config)
    validated = model_mod.validate_model(spec)
    vc = valuefn.solve_value_coefficients(validated, _setting(config, "solver", "steps_per_year"))
    return validated, vc


def cmd_solve(config: dict, out: OutputWriter, args) -> int:
    validated, vc = _solve_from_config(config)
    valuefn.save_coefficients(vc, out.outdir / "value_coefficients.json")
    out.record("value_coefficients.json")

    min_eig = min(float(np.linalg.eigvalsh(qn)[0]) for qn in vc.quad)
    summary = {
        "steps_per_year": vc.solver_meta["steps_per_year"],
        "residual_quad": vc.solver_meta["residual_quad"],
        "residual_lin": vc.solver_meta["residual_lin"],
        "residual_quad_rel": vc.solver_meta["residual_quad_rel"],
        "residual_lin_rel": vc.solver_meta["residual_lin_rel"],
        "min_eigenvalue": min_eig,
        "initial_level": float(vc.level[0]),
    }
    out.write_json("solve_summary.json", summary)
    out.finish()
    # gate on the derivative-scaled residual: the raw defect carries the
    # centered-difference truncation, which grows with the solution magnitude
    residual_tol = _setting(config, "solver", "residual_tol")
    worst_rel = max(summary["residual_quad_rel"], summary["residual_lin_rel"])
    print(f"solved: residuals quad={summary['residual_quad']:.3e} "
          f"lin={summary['residual_lin']:.3e} (relative {worst_rel:.3e}), "
          f"min eigenvalue {min_eig:.3e}")
    if worst_rel > residual_tol:
        print(f"ERROR RESIDUAL: relative residual {worst_rel:.3e} above "
              f"tolerance {residual_tol:g}", file=sys.stderr)
        return EXIT_VERIFY
    if min_eig < -1e-10:
        print("ERROR EIGENVALUE_VIOLATION: quadratic coefficient not PSD", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_policy(config: dict, out: OutputWriter, args) -> int:
    validated, vc = _solve_from_config(config)
    t = _setting(config, "policy", "t")
    x = _setting(config, "policy", "x")
    if x is None:
        x = np.asarray(validated.x0, dtype=float)
    elif x.shape != (validated.n,):
        raise ConfigError(f"policy.x must have {validated.n} entries, got {len(x)}")
    action = policy_mod.fractional_kelly(validated, vc, t, x)

    rows = [
        ("allocation", action.allocation),
        ("tilt", action.tilt),
        ("tilt_twostep", action.tilt_twostep),
        ("kelly", action.kelly),
        ("bench_track", action.bench_track),
        ("hedge", action.hedge),
        ("kelly_fraction", np.array([action.kelly_fraction])),
    ]
    width = max(len(name) for name, _ in rows)
    lines = [f"policy at t={t:g}, x={x.tolist()}"]
    for name, vec in rows:
        body = "  ".join(f"{v: .6f}" for v in np.atleast_1d(vec))
        lines.append(f"{name:<{width}}  {body}")
    text = "\n".join(lines)
    print(text)
    out.write_text("policy.txt", text + "\n")
    out.write_json("policy.json", {
        "t": t,
        "x": x.tolist(),
        "allocation": action.allocation.tolist(),
        "tilt": action.tilt.tolist(),
        "tilt_twostep": action.tilt_twostep.tolist(),
        "kelly": action.kelly.tolist(),
        "bench_track": action.bench_track.tolist(),
        "hedge": action.hedge.tolist(),
        "kelly_fraction": action.kelly_fraction,
    })
    out.finish()
    return EXIT_OK


def cmd_simulate(config: dict, out: OutputWriter, args) -> int:
    spec, _ = build_model(config)
    validated = model_mod.validate_model(spec)
    overrides = {}
    for flag, key in (("paths", "n_paths"), ("steps", "steps"), ("dt", "dt"),
                      ("measure", "measure"), ("strategy", "strategy")):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[key] = value
    if getattr(args, "antithetic", False):
        overrides["antithetic"] = True
    dump_paths = _setting(config, "simulation", "dump_paths")
    cfg = _sim_config(config, args.seed, store_paths=dump_paths, **overrides)
    vc = None
    if cfg.strategy == "optimal" or cfg.measure != "physical":
        vc = valuefn.solve_value_coefficients(
            validated, _setting(config, "solver", "steps_per_year"))
    bundle = sim_mod.simulate_paths(validated, vc, cfg)

    sim_mod.save_terminals_csv(bundle, out.outdir / "terminals.csv")
    out.record("terminals.csv")
    summary = {
        "n_paths": cfg.n_paths,
        "steps": cfg.steps,
        "dt": cfg.dt,
        "seed": cfg.seed,
        "measure": cfg.measure,
        "strategy": cfg.strategy,
        "route": cfg.route,
    }
    if cfg.measure == "physical":
        mc = sim_mod.mc_criterion(bundle, validated.theta)
        summary["criterion_estimate"] = mc.estimate
        summary["criterion_std_error"] = mc.std_error
        summary["certainty_equivalent"] = mc.certainty_equivalent
    if cfg.measure == "tilted_gamma":
        kl = sim_mod.kl_estimate(bundle)
        summary["kl_from_log_density"] = kl.from_log_density
        summary["kl_from_tilt_norm"] = kl.from_tilt_norm
    out.write_json("sim_summary.json", summary)
    if dump_paths:
        sim_mod.save_paths_binary(bundle, out.outdir / "paths.bin")
        out.record("paths.bin")
    out.finish()
    print(f"simulated {cfg.n_paths} paths x {cfg.steps} steps under {cfg.measure}")
    return EXIT_OK


def _performance_report(config: dict, returns: np.ndarray,
                        min_samples: int = analytics.MIN_SAMPLES) -> analytics.PerfReport:
    """The metric set of a return stream under the config's metrics block."""
    return analytics.performance_report(
        returns, min_samples=min_samples,
        **{key: _setting(config, "metrics", key) for key in _CONFIG["metrics"]})


def _format_report_table(labeled: list[tuple[str, analytics.PerfReport]]) -> str:
    labels = [label for label, _ in labeled]
    width = max(len(desc) for _, desc in METRIC_ROWS)
    col = max(max(len(lbl) for lbl in labels), 12)
    head = f"{'metric':<{width}}  " + "  ".join(f"{lbl:>{col}}" for lbl in labels)
    lines = [head, "-" * len(head)]
    for key, desc in METRIC_ROWS:
        cells = []
        for _, rep in labeled:
            value = getattr(rep, key)
            cells.append(f"{'undefined':>{col}}" if value is None else f"{value:>{col}.6f}")
        lines.append(f"{desc:<{width}}  " + "  ".join(cells))
    return "\n".join(lines)


def _report_csv(labeled: list[tuple[str, analytics.PerfReport]]) -> str:
    lines = ["metric," + ",".join(label for label, _ in labeled)]
    for key, _ in METRIC_ROWS:
        cells = []
        for _, rep in labeled:
            value = getattr(rep, key)
            cells.append("" if value is None else repr(value))
        lines.append(f"{key}," + ",".join(cells))
    return "\n".join(lines) + "\n"


def _returns_from_artifact(path: Path) -> np.ndarray:
    """Return stream from a simulate artifact: per-step increments from a
    binary path dump, or terminal values from a terminals CSV."""
    with open(path, "rb") as fh:
        head = fh.read(8)
    if head == sim_mod._BIN_MAGIC:
        _, log_excess = sim_mod.load_paths_binary(path)
        return np.diff(log_excess, axis=1).reshape(-1)
    lines = path.read_text().strip().splitlines()
    if not lines or not lines[0].startswith("path,terminal_log_excess"):
        raise ConfigError(f"{path} is neither a path dump nor a terminals CSV")
    return np.array([float(line.split(",")[1]) for line in lines[1:]])


def cmd_report(config: dict, out: OutputWriter, args) -> int:
    inputs = config.get("report", {}).get("inputs", [])
    if args.inputs:
        inputs = [{"label": spec.split("=", 1)[0], "paths": spec.split("=", 1)[1]}
                  for spec in args.inputs]
    if not inputs:
        raise ConfigError(
            "report needs inputs: config report.inputs or label=<paths.bin|terminals.csv> args"
        )
    labeled = []
    for item in inputs:
        path = _resolve(config, item["paths"])
        if not path.exists():
            raise ConfigError(f"report input not found: {path}")
        labeled.append((item["label"], _performance_report(config, _returns_from_artifact(path))))
    text = _format_report_table(labeled)
    print(text)
    out.write_text("report.txt", text + "\n")
    out.write_text("report.csv", _report_csv(labeled))
    out.finish()
    return EXIT_OK


def cmd_experiment(config: dict, out: OutputWriter, args) -> int:
    """Simulate the four strategies on shared seeds and emit the comparison
    table; the two optimal-policy routes must produce identical metrics."""
    spec, est_report = build_model(config)
    validated = model_mod.validate_model(spec)
    vc = valuefn.solve_value_coefficients(validated, _setting(config, "solver", "steps_per_year"))

    # the simulation block's benchmark weights, else the estimation's
    benchmark = dict(strategy="benchmark")
    if est_report is not None and _setting(config, "simulation", "bench_weights") is None:
        benchmark["bench_weights"] = _setting(config, "estimation", "bench_weights")
    sim_kwargs = dict(measure="physical", store_paths=True, track_densities=False)
    runs = [
        ("benchmark", benchmark),
        ("portfolio-twostep", dict(strategy="optimal", route="twostep")),
        ("portfolio-direct", dict(strategy="optimal", route="direct")),
        ("kelly", dict(strategy="kelly")),
    ]
    labeled = []
    criteria = {}
    warnings = []
    for label, overrides in runs:
        cfg = _sim_config(config, args.seed, **sim_kwargs, **overrides)
        bundle = sim_mod.simulate_paths(validated, vc, cfg)
        if cfg.n_paths * cfg.steps < analytics.MIN_SAMPLES:
            warnings.append(
                f"{label}: only {cfg.n_paths * cfg.steps} observations; "
                "statistics are degenerate"
            )
        # the return stream is passed inline so it is freed before the next run
        labeled.append((label, _performance_report(
            config, np.diff(bundle.log_excess, axis=1).reshape(-1), min_samples=2)))
        mc = sim_mod.mc_criterion(bundle, validated.theta)
        criteria[label] = {"estimate": mc.estimate, "std_error": mc.std_error,
                           "certainty_equivalent": mc.certainty_equivalent}

    verdict = analytics.compare_strategies(labeled, tolerance=1e-12)
    route_gap = verdict.max_difference("portfolio-twostep", "portfolio-direct")

    text = _format_report_table(labeled)
    print(text)
    for w in warnings:
        print(f"warning: {w}")
    out.write_text("experiment_report.txt", text + "\n")
    out.write_text("experiment_report.csv", _report_csv(labeled))
    out.write_json("experiment_summary.json", {
        "criteria": criteria,
        "route_metric_gap": route_gap,
        "warnings": warnings,
        "seed": _sim_config(config, args.seed).seed,
    })
    out.finish()
    if not verdict.pair_within("portfolio-twostep", "portfolio-direct", 1e-12):
        raise EquivalenceFailure(
            f"the two optimal-policy routes disagree: max metric gap {route_gap:.3e}"
        )
    print(f"route metric gap: {route_gap:.3e}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify: the full invariant suite
# ---------------------------------------------------------------------------

def _lattice(validated, vc, config, seed):
    n_times = _setting(config, "verify", "lattice_times")
    n_states = _setting(config, "verify", "lattice_states")
    T = validated.horizon
    times = np.linspace(0.05 * T, 0.95 * T, n_times)
    rng = np.random.default_rng(derive_seed(seed, "verify-lattice"))
    states = validated.x0 + rng.standard_normal((n_states, validated.n))
    return times, states


def run_verification(config: dict, seed: int, inject_corruption: bool = False) -> list[dict]:
    """Run every checkable identity; returns one row per invariant."""
    spec, _ = build_model(config)
    validated = model_mod.validate_model(spec)
    vc = valuefn.solve_value_coefficients(validated, _setting(config, "solver", "steps_per_year"))
    theta = validated.theta
    rows: list[dict] = []

    def add(name: str, status: str, detail: str) -> None:
        rows.append({"invariant": name, "status": status, "detail": detail})

    if inject_corruption:
        vc = valuefn.ValueCoefficients(
            grid=vc.grid, quad=1.5 * vc.quad + 0.1, lin=vc.lin, level=vc.level,
            theta=vc.theta, solver_meta=dict(vc.solver_meta),
        )

    times, states = _lattice(validated, vc, config, seed)

    # projection identities at segment starts
    worst_inv, worst_idem = 0.0, 0.0
    eye = np.eye(validated.d)
    for knot in spec.coeffs.knots:
        proj = validated.projection_matrices(float(knot))
        worst_inv = max(worst_inv, float(np.abs(proj.pminus @ proj.pplus - eye).max()))
        pi = (eye - proj.pminus) * ((theta + 1.0) / theta) if theta > 0 else None
        if pi is not None:
            worst_idem = max(worst_idem, float(np.abs(pi @ pi - pi).max()))
    add("projection_inverse", "PASS" if worst_inv < 1e-12 else "FAIL", f"max |P-P+ - I| = {worst_inv:.2e}")
    if theta > 0:
        add("projection_idempotent", "PASS" if worst_idem < 1e-10 else "FAIL", f"max |Pi^2 - Pi| = {worst_idem:.2e}")

    # terminal conditions and symmetry/PSD
    term = max(float(np.abs(vc.quad[-1]).max()), float(np.abs(vc.lin[-1]).max()), abs(float(vc.level[-1])))
    add("terminal_condition", "PASS" if term == 0.0 else "FAIL", f"max terminal coefficient = {term:.2e}")
    asym = max(float(np.abs(qn - qn.T).max()) for qn in vc.quad)
    add("quad_symmetry", "PASS" if asym < 1e-12 else "FAIL", f"max |Q - Q'| = {asym:.2e}")
    min_eig = min(float(np.linalg.eigvalsh(qn)[0]) for qn in vc.quad)
    add("quad_psd", "PASS" if min_eig >= -1e-10 else "FAIL", f"min eigenvalue = {min_eig:.2e}")

    # backward-equation residuals at sampled interior nodes, scaled by the
    # local derivative magnitude (the raw defect is truncation-dominated)
    res_tol = _setting(config, "solver", "residual_tol")
    worst_q, worst_l = 0.0, 0.0
    for t in np.linspace(0.1 * validated.horizon, 0.9 * validated.horizon, 7):
        res = valuefn.riccati_residual(vc, validated, float(t))
        worst_q, worst_l = max(worst_q, res.quad_rel), max(worst_l, res.lin_rel)
    add("backward_residuals", "PASS" if max(worst_q, worst_l) < res_tol else "FAIL",
        f"quad={worst_q:.2e} lin={worst_l:.2e} (derivative-scaled) tol={res_tol:g}")

    # policy identities on the lattice
    worst_route, worst_affine = 0.0, 0.0
    policy_ok, policy_err = True, ""
    for t in times:
        for x in states:
            try:
                policy_mod.fractional_kelly(validated, vc, float(t), x)
            except RepresentationMismatch as exc:
                policy_ok, policy_err = False, str(exc)
            h1 = policy_mod.optimal_h(validated, vc, float(t), x, "direct")
            h2 = policy_mod.optimal_h(validated, vc, float(t), x, "twostep")
            worst_route = max(worst_route, float(np.abs(h1 - h2).max() / (1.0 + np.abs(h1).max())))
            y = states[0] + 0.5
            hm = policy_mod.optimal_h(validated, vc, float(t), 0.5 * (x + y))
            hx = policy_mod.optimal_h(validated, vc, float(t), x)
            hy = policy_mod.optimal_h(validated, vc, float(t), y)
            worst_affine = max(worst_affine, float(np.abs(hm - 0.5 * (hx + hy)).max()))
    add("policy_decompositions", "PASS" if policy_ok else "FAIL", policy_err or "all identity checks hold")
    add("policy_route_equality", "PASS" if worst_route < 1e-12 else "FAIL", f"max relative gap = {worst_route:.2e}")
    add("policy_affine", "PASS" if worst_affine < 1e-12 else "FAIL", f"max midpoint defect = {worst_affine:.2e}")

    # game checks (no game at theta == 0)
    if theta == 0.0:
        add("saddle_probes", "SKIP", "Kelly mode (theta = 0): no adverse player")
        add("isaacs_gap", "SKIP", "Kelly mode (theta = 0): no adverse player")
    else:
        probes = _setting(config, "verify", "probes")
        worst_h, worst_g, saddle_ok, saddle_err = 0.0, 0.0, True, ""
        offset = 0.1 if inject_corruption else None
        for i, t in enumerate(times):
            for k, x in enumerate(states):
                kwargs = {}
                if offset is not None:
                    kwargs["h_center"] = policy_mod.optimal_h(validated, vc, float(t), x) + offset
                try:
                    rep = game.saddle_check(
                        validated, vc, float(t), x, probes=probes,
                        seed=derive_seed(seed, f"saddle-{i}-{k}"), **kwargs,
                    )
                    scale = 1.0 + abs(rep.center_value)
                    worst_h = max(worst_h, rep.max_violation_h / scale)
                    worst_g = max(worst_g, rep.max_violation_gamma / scale)
                except SaddleViolation as exc:
                    saddle_ok, saddle_err = False, str(exc)
        add("saddle_probes", "PASS" if saddle_ok else "FAIL",
            saddle_err or f"worst relative violations h={worst_h:.2e} tilt={worst_g:.2e}")
        worst_gap = 0.0
        for t in times:
            for x in states:
                hp, hm = game.hamiltonians(validated, vc, float(t), x)
                worst_gap = max(worst_gap, abs(hp - hm) / (1.0 + abs(hp)))
        add("isaacs_gap", "PASS" if worst_gap < 1e-9 else "FAIL", f"max relative gap = {worst_gap:.2e}")

    # measure-theory suite on a small shared-seed simulation
    sim_paths = _setting(config, "verify", "sim_paths")
    sim_steps = int(min(252, round(validated.horizon / (1.0 / 252.0))))
    sim_steps = max(sim_steps, 1)
    base = dict(n_paths=sim_paths, steps=sim_steps, dt=min(1.0 / 252.0, validated.horizon / sim_steps),
                seed=derive_seed(seed, "verify-sim"), store_paths=False)
    if theta == 0.0:
        add("density_factorization", "SKIP", "Kelly mode (theta = 0): densities are trivial")
        add("measure_equality", "SKIP", "Kelly mode (theta = 0)")
        add("martingale_tilt", "SKIP", "Kelly mode (theta = 0)")
        add("martingale_alloc", "SKIP", "Kelly mode (theta = 0)")
        add("kl_dual_estimators", "SKIP", "Kelly mode (theta = 0)")
    else:
        bundle = sim_mod.simulate_paths(validated, vc, sim_mod.SimConfig(strategy="optimal", **base))
        fact_gap = float(np.abs(bundle.log_density_tilt
                                - (bundle.log_density_alloc + bundle.log_density_link)).max())
        add("density_factorization", "PASS" if fact_gap < 1e-10 else "FAIL",
            f"max pathwise gap = {fact_gap:.2e}")
        alt_gap = float(np.abs(bundle.log_density_link - bundle.log_density_link_alt).max())
        add("measure_equality", "PASS" if alt_gap < 1e-10 else "FAIL",
            f"max pathwise gap = {alt_gap:.2e}")
        for which in ("tilt", "alloc"):
            chk = sim_mod.martingale_check(bundle, which)
            add(f"martingale_{which}", "PASS" if chk.ok else "FAIL",
                f"mean = {chk.mean:.6f} (se {chk.std_error:.2e})")
        tilted = sim_mod.simulate_paths(
            validated, vc, sim_mod.SimConfig(strategy="optimal", measure="tilted_gamma", **base))
        kl = sim_mod.kl_estimate(tilted)
        add("kl_dual_estimators", "PASS" if kl.consistent else "FAIL",
            f"log-density {kl.from_log_density:.5f} vs tilt-norm {kl.from_tilt_norm:.5f}")

    return rows


def cmd_verify(config: dict, out: OutputWriter, args) -> int:
    inject = args.inject_corruption or _setting(config, "verify", "inject_corruption")
    seed = _sim_config(config, args.seed).seed
    rows = run_verification(config, seed, inject_corruption=inject)

    width = max(len(r["invariant"]) for r in rows)
    lines = [f"{r['invariant']:<{width}}  {r['status']:<4}  {r['detail']}" for r in rows]
    text = "\n".join(lines)
    print(text)
    out.write_text("verify_report.txt", text + "\n")
    out.write_json("verify_report.json", rows)
    out.finish()

    failures = [r for r in rows if r["status"] == "FAIL"]
    if failures:
        print(f"ERROR VERIFY: invariant '{failures[0]['invariant']}' failed: "
              f"{failures[0]['detail']}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "validate": cmd_validate,
    "estimate": cmd_estimate,
    "solve": cmd_solve,
    "policy": cmd_policy,
    "simulate": cmd_simulate,
    "report": cmd_report,
    "experiment": cmd_experiment,
    "verify": cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchkelly",
        description="Benchmarked risk-sensitive portfolio engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output directory (default: config output_dir)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--threads", type=int, default=None,
                       help="accepted for interface compatibility; the engine is "
                            "vectorized single-process and results never depend on it")
        if name == "report":
            p.add_argument("inputs", nargs="*", help="label=paths.bin entries")
        if name == "simulate":
            p.add_argument("--paths", type=int, default=None, help="override n_paths")
            p.add_argument("--steps", type=int, default=None, help="override step count")
            p.add_argument("--dt", type=float, default=None, help="override step size (years)")
            p.add_argument("--measure", default=None, choices=sim_mod.MEASURES)
            p.add_argument("--strategy", default=None, choices=CLI_STRATEGIES)
            p.add_argument("--antithetic", action="store_true", default=None)
        if name == "verify":
            p.add_argument("--inject-corruption", action="store_true",
                           help="negative control: corrupt the solve and require failures")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_run_config(args.config)
        outdir = Path(args.out) if args.out else Path(config.get("output_dir", "out"))
        if not Path(outdir).is_absolute():
            base = Path.cwd()
            outdir = base / outdir
        out = OutputWriter(outdir)
        return _COMMANDS[args.command](config, out, args)
    except _VERIFY_ERRORS as exc:
        print(f"ERROR {exc.code}: {exc.message}", file=sys.stderr)
        return EXIT_VERIFY
    except EngineError as exc:
        print(f"ERROR {exc.code}: {exc.message}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"ERROR IO: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
