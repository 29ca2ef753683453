"""Config-driven command-line pipeline: a thin shell over the library.

Subcommands: validate, estimate, solve, policy, simulate, report,
experiment, verify.  One JSON config file drives an experiment.  Each command
reads its checked settings, takes the validated model from ``build_model``
(and its coefficients from ``_solve``), calls the library, and writes its
artifacts under the output directory together with a manifest of file
hashes; the invariant suite of ``verify`` is ``benchkelly.verify.run``.
Every failure exits nonzero with a machine-parsable ``ERROR <code>:`` line.
All randomness flows from a single seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analytics, estimate, valuefn, verify
from . import model as model_mod
from . import policy as policy_mod
from . import simulate as sim_mod
from .errors import (
    BlowUp,
    ConfigError,
    EigenvalueViolation,
    EngineError,
    EquivalenceFailure,
    RepresentationMismatch,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2

# failures of the mathematics (as opposed to bad inputs) exit with code 2
_VERIFY_ERRORS = (
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
_SEED = ("an integer in [0, 2^64)",
         lambda v: _number(v) and isinstance(v, int) and 0 <= v < 2**64, int)
_NUMBER = ("a finite number", _number, float)
_POSITIVE = ("a positive number", lambda v: _number(v) and v > 0, float)
_FRACTION = ("a number in (0, 1)", lambda v: _number(v) and 0 < v < 1, float)
_SWITCH = ("true or false", lambda v: isinstance(v, bool), _same)
_TEXT = ("a string", lambda v: isinstance(v, str), _same)
_VECTOR = ("a list of numbers", lambda v: isinstance(v, list) and all(map(_number, v)),
           lambda v: np.asarray(v, dtype=float))
_INPUTS = ("a list of objects with string 'label' and 'paths'",
           lambda v: isinstance(v, list) and all(
               isinstance(item, dict) and isinstance(item.get("label"), str)
               and isinstance(item.get("paths"), str) for item in v),
           _same)

# every key a config block may carry: key -> (kind, default when absent);
# a None default leaves the choice to the reader (the simulation keys
# default to SimConfig's fields)
_CONFIG = {
    "solver": {"steps_per_year": (_COUNT, 1008), "residual_tol": (_POSITIVE, 1e-3)},
    "simulation": {
        "n_paths": (_COUNT, None), "steps": (_COUNT, None), "dt": (_POSITIVE, None),
        "seed": (_SEED, None), "measure": (_one_of(sim_mod.MEASURES), None),
        "strategy": (_one_of(policy_mod.STRATEGIES), None),
        "route": (_one_of(policy_mod.ROUTES), None), "antithetic": (_SWITCH, None),
        "bench_weights": (_VECTOR, None), "dump_paths": (_SWITCH, False),
    },
    "metrics": {"level": (_FRACTION, 0.95),
                "downside_denominator": (_one_of(("below", "full")), "below")},
    "verify": {"sim_paths": (_COUNT, 4000), "lattice_times": (_COUNT, 3),
               "lattice_states": (_COUNT, 3), "inject_corruption": (_SWITCH, False)},
    "policy": {"t": (_NUMBER, 0.0), "x": (_VECTOR, None)},
    "estimation": {"panel": (_TEXT, None), "bench_weights": (_VECTOR, None),
                   "date_column": (_TEXT, "date"), "asset_prefix": (_TEXT, "asset:"),
                   "factor_prefix": (_TEXT, "factor:"), "dt": (_POSITIVE, estimate.DEFAULT_DT)},
    "report": {"inputs": (_INPUTS, [])},
}

# top-level keys that override the model file's values or feed estimation
_OVERRIDES = {"theta": _NUMBER, "horizon_years": _NUMBER, "x0": _VECTOR}
# every checked top-level key that is not a block
_TOP_LEVEL = {"model": _TEXT, "output_dir": _TEXT, **_OVERRIDES}


def _check_config(config: dict) -> None:
    """Reject unknown and ill-typed top-level keys, and unknown keys and
    ill-typed values in every block of _CONFIG."""
    unknown = sorted(set(config) - set(_TOP_LEVEL) - set(_CONFIG))
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {unknown}")
    for key, (expected, check, _) in _TOP_LEVEL.items():
        if key in config and not check(config[key]):
            raise ConfigError(f"{key} must be {expected}, got {config[key]!r}")
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
    if not isinstance(config, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    has_model = "model" in config
    has_est = "estimation" in config
    if has_model == has_est:
        raise ConfigError("config must supply exactly one of 'model' or 'estimation'")
    _check_config(config)
    config["_dir"] = str(path.parent)
    return config


def _resolve(config: dict, rel: str) -> Path:
    p = Path(rel)
    return p if p.is_absolute() else Path(config["_dir"]) / p


def build_model(config: dict) -> tuple[model_mod.ValidatedModel, estimate.EstimationReport | None]:
    """Validated model from a model file (with optional overrides) or from
    estimation, plus the estimation report (None for a model file)."""
    overrides = {key: convert(config[key])
                 for key, (_, _, convert) in _OVERRIDES.items() if key in config}
    if "model" in config:
        path = _resolve(config, config["model"])
        if not path.is_file():
            raise ConfigError(f"model file not found: {path}")
        spec = dataclasses.replace(model_mod.load_model(path), **overrides)
        return model_mod.validate_model(spec), None

    est_cfg = config["estimation"]
    for key in ("panel", "bench_weights"):
        if key not in est_cfg:
            raise ConfigError(f"estimation config missing '{key}'")
    if "theta" not in overrides or "horizon_years" not in overrides:
        raise ConfigError("estimation mode needs top-level 'theta' and 'horizon_years'")
    schema = estimate.PanelSchema(**{
        key: _setting(config, "estimation", key)
        for key in ("bench_weights", "date_column", "asset_prefix", "factor_prefix", "dt")})
    panel_path = _resolve(config, est_cfg["panel"])
    if not panel_path.exists():
        raise ConfigError(f"panel file not found: {panel_path}")
    panel = estimate.load_panel(panel_path, schema)
    report = estimate.estimate_model(panel, **overrides)
    return model_mod.validate_model(report.model_spec), report


def _solve(config: dict, validated: model_mod.ValidatedModel) -> valuefn.ValueCoefficients:
    """The model's value coefficients at the config's solver steps."""
    return valuefn.solve_value_coefficients(
        validated, _setting(config, "solver", "steps_per_year"))


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
    validated, _ = build_model(config)
    text = (f"model OK: factors={validated.n} assets={validated.m} noise_dim={validated.d}\n"
            f"theta={validated.theta:g} horizon_years={validated.horizon:g} "
            f"segments={len(validated.spec.coeffs.blocks)}")
    print(text)
    out.write_text("validate.txt", text + "\n")
    out.finish()
    return EXIT_OK


def cmd_estimate(config: dict, out: OutputWriter, args) -> int:
    if "estimation" not in config:
        raise ConfigError("the estimate command needs an 'estimation' config block")
    validated, report = build_model(config)
    out.write_json("model.json", model_mod.model_to_dict(validated.spec))
    out.write_json("estimation_report.json", report.to_dict())
    out.finish()
    print(f"estimated model from {report.rows} rows "
          f"(assets={validated.m}, factors={validated.n}); wrote model.json")
    return EXIT_OK


def cmd_solve(config: dict, out: OutputWriter, args) -> int:
    vc = _solve(config, build_model(config)[0])
    valuefn.save_coefficients(vc, out.outdir / "value_coefficients.bin")
    out.record("value_coefficients.bin")

    min_eig = vc.solver_meta["min_eigenvalue"]
    summary = {key: vc.solver_meta[key] for key in (
        "steps_per_year", "residual_quad", "residual_lin", "residual_quad_rel",
        "residual_lin_rel", "min_eigenvalue")}
    summary["initial_level"] = float(vc.level[0])
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
    validated, _ = build_model(config)
    vc = _solve(config, validated)
    t = _setting(config, "policy", "t")
    x = _setting(config, "policy", "x")
    if x is None:
        x = np.asarray(validated.x0, dtype=float)
    elif x.shape != (validated.n,):
        raise ConfigError(f"policy.x must have {validated.n} entries, got {len(x)}")
    # one row and one JSON entry per PolicyAction field, in field order
    fields = dataclasses.asdict(policy_mod.fractional_kelly(validated, vc, t, x))
    width = max(map(len, fields))
    lines = [f"policy at t={t:g}, x={x.tolist()}"]
    for name, value in fields.items():
        body = "  ".join(f"{v: .6f}" for v in np.atleast_1d(value))
        lines.append(f"{name:<{width}}  {body}")
    text = "\n".join(lines)
    print(text)
    out.write_text("policy.txt", text + "\n")
    out.write_json("policy.json", {"t": t, "x": x.tolist(), **{
        name: np.asarray(value).tolist() for name, value in fields.items()}})
    out.finish()
    return EXIT_OK


def cmd_simulate(config: dict, out: OutputWriter, args) -> int:
    validated, _ = build_model(config)
    overrides = {}
    for flag, key in (("paths", "n_paths"), ("steps", "steps"), ("dt", "dt"),
                      ("measure", "measure"), ("strategy", "strategy")):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[key] = value
    if getattr(args, "antithetic", False):
        overrides["antithetic"] = True
    dump_paths = _setting(config, "simulation", "dump_paths")
    keep = sim_mod.OUTPUTS if dump_paths else ("densities",)
    cfg = _sim_config(config, args.seed, keep=keep, **overrides)
    # the terminals CSV holds the densities, and they need the coefficients
    (bundle,) = sim_mod.simulate_lanes(validated, _solve(config, validated), [cfg])

    sim_mod.save_terminals_csv(bundle, out.outdir / "terminals.csv")
    out.record("terminals.csv")
    summary = {key: getattr(cfg, key)
               for key in ("n_paths", "steps", "dt", "seed", "measure", "strategy", "route")}
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
        values = [getattr(rep, key) for _, rep in labeled]
        cells = [f"{'undefined':>{col}}" if v is None else f"{v:>{col}.6f}" for v in values]
        lines.append(f"{desc:<{width}}  " + "  ".join(cells))
    return "\n".join(lines)


def _report_csv(labeled: list[tuple[str, analytics.PerfReport]]) -> str:
    lines = ["metric," + ",".join(label for label, _ in labeled)]
    for key, _ in METRIC_ROWS:
        values = [getattr(rep, key) for _, rep in labeled]
        cells = ["" if v is None else repr(v) for v in values]
        lines.append(f"{key}," + ",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_report(config: dict, out: OutputWriter, args) -> int:
    inputs = _setting(config, "report", "inputs")
    if args.inputs:
        if not all("=" in spec for spec in args.inputs):
            raise ConfigError(f"report arguments must be label=path, got {args.inputs}")
        inputs = [dict(zip(("label", "paths"), spec.split("=", 1))) for spec in args.inputs]
    if not inputs:
        raise ConfigError(
            "report needs inputs: config report.inputs or label=<paths.bin|terminals.csv> args"
        )
    for item in inputs:
        if set(item["label"]) & set(',"\r\n'):
            raise ConfigError(f"report label {item['label']!r} holds a comma, a quote or a "
                              "line break, which report.csv cannot carry")
    labeled = []
    for item in inputs:
        path = _resolve(config, item["paths"])
        if not path.is_file():
            raise ConfigError(f"report input not found or not a file: {path}")
        labeled.append((item["label"], _performance_report(config, sim_mod.load_returns(path))))
    text = _format_report_table(labeled)
    print(text)
    out.write_text("report.txt", text + "\n")
    out.write_text("report.csv", _report_csv(labeled))
    out.finish()
    return EXIT_OK


def cmd_experiment(config: dict, out: OutputWriter, args) -> int:
    """Simulate the four strategies as lanes of one noise draw and emit the
    comparison table; the two optimal-policy routes must produce identical
    metrics."""
    validated, est_report = build_model(config)
    vc = _solve(config, validated)

    # the simulation block's benchmark weights, else the estimation's
    benchmark = dict(strategy="benchmark")
    if est_report is not None and _setting(config, "simulation", "bench_weights") is None:
        benchmark["bench_weights"] = _setting(config, "estimation", "bench_weights")
    # only the log excess return feeds the report
    sim_kwargs = dict(measure="physical", keep=("log_excess",))
    runs = [
        ("benchmark", benchmark),
        ("portfolio-twostep", dict(strategy="optimal", route="twostep")),
        ("portfolio-direct", dict(strategy="optimal", route="direct")),
        ("kelly", dict(strategy="kelly")),
    ]
    cfgs = [_sim_config(config, args.seed, **sim_kwargs, **overrides) for _, overrides in runs]
    bundles = list(sim_mod.simulate_lanes(validated, vc, cfgs))
    labeled = []
    criteria = {}
    warnings = []
    for (label, _), cfg in zip(runs, cfgs):
        if cfg.n_paths * cfg.steps < analytics.MIN_SAMPLES:
            warnings.append(
                f"{label}: only {cfg.n_paths * cfg.steps} observations; "
                "statistics are degenerate"
            )
        # each lane's arrays are released before its report, which needs
        # only the return stream
        bundle = bundles.pop(0)
        mc = sim_mod.mc_criterion(bundle, validated.theta)
        criteria[label] = {"estimate": mc.estimate, "std_error": mc.std_error,
                           "certainty_equivalent": mc.certainty_equivalent}
        returns = np.diff(bundle.log_excess, axis=1).reshape(-1)
        del bundle
        labeled.append((label, _performance_report(config, returns, min_samples=2)))
        del returns

    reports = dict(labeled)
    route_gap = analytics.metric_gap(reports["portfolio-twostep"], reports["portfolio-direct"])

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
    if not route_gap <= 1e-12:  # also catches NaN
        raise EquivalenceFailure(
            f"the two optimal-policy routes disagree: max metric gap {route_gap:.3e}"
        )
    print(f"route metric gap: {route_gap:.3e}")
    return EXIT_OK


def cmd_verify(config: dict, out: OutputWriter, args) -> int:
    """The invariant suite of benchkelly.verify.run; exit 2 on any FAIL row."""
    inject = args.inject_corruption or _setting(config, "verify", "inject_corruption")
    seed = _sim_config(config, args.seed).seed
    validated, _ = build_model(config)
    rows = verify.run(
        validated, _solve(config, validated), seed, inject_corruption=inject,
        residual_tol=_setting(config, "solver", "residual_tol"),
        **{key: _setting(config, "verify", key)
           for key in ("sim_paths", "lattice_times", "lattice_states")})

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


def _seed_argument(text: str) -> int:
    """--seed's value, held to the config seed's kind."""
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if not _SEED[1](seed):
        raise argparse.ArgumentTypeError(f"must be {_SEED[0]}, got {text!r}")
    return seed


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are ConfigErrors, so a bad
    argument exits like every other bad input; its subcommand parsers are
    of this class too."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="benchkelly",
        description="Benchmarked risk-sensitive portfolio engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output directory (default: config output_dir)")
        p.add_argument("--seed", type=_seed_argument, default=None,
                       help=f"override the config seed, {_SEED[0]}")
        p.add_argument("--threads", type=int, default=None,
                       help="accepted for interface compatibility and ignored; the "
                            "simulator uses one thread per CPU the process may use, "
                            "and results never depend on either")
        if name == "report":
            p.add_argument("inputs", nargs="*", help="label=paths.bin entries")
        if name == "simulate":
            p.add_argument("--paths", type=int, default=None, help="override n_paths")
            p.add_argument("--steps", type=int, default=None, help="override step count")
            p.add_argument("--dt", type=float, default=None, help="override step size (years)")
            p.add_argument("--measure", default=None, choices=sim_mod.MEASURES)
            p.add_argument("--strategy", default=None, choices=policy_mod.STRATEGIES)
            p.add_argument("--antithetic", action="store_true", default=None)
        if name == "verify":
            p.add_argument("--inject-corruption", action="store_true",
                           help="negative control: corrupt the solve and require failures")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = load_run_config(args.config)
        # a relative output directory is taken from the working directory
        out = OutputWriter(Path.cwd() / (args.out or config.get("output_dir", "out")))
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
