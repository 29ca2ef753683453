import json
import struct

import numpy as np
import pytest

from benchkelly import model as model_mod
from benchkelly.cli import main
from benchkelly.estimate import save_panel, synthesize_panel
from benchkelly.model import validate_model
from benchkelly.valuefn import load_coefficients

from conftest import make_random_spec, make_scalar_spec


@pytest.fixture()
def workdir(tmp_path):
    """Config + model file for the scalar reference setup."""
    model_mod.save_model(make_scalar_spec(), tmp_path / "model.json")
    config = {
        "model": "model.json",
        "solver": {"steps_per_year": 1008, "residual_tol": 1e-3},
        "simulation": {"n_paths": 400, "steps": 126, "dt": 1 / 252, "seed": 42,
                       "strategy": "optimal", "dump_paths": True},
        "metrics": {"level": 0.95},
        "verify": {"probes": 1500, "sim_paths": 1500, "lattice_times": 2, "lattice_states": 2},
        "output_dir": "out",
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    return tmp_path


def run(workdir, *argv):
    return main(list(argv))


def test_validate(workdir, capsys):
    code = run(workdir, "validate", "--config", str(workdir / "config.json"),
               "--out", str(workdir / "o"))
    assert code == 0
    assert "model OK" in capsys.readouterr().out


def test_missing_model_file(tmp_path, capsys):
    (tmp_path / "c.json").write_text(json.dumps({"model": "nowhere.json"}))
    code = run(tmp_path, "solve", "--config", str(tmp_path / "c.json"),
               "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR CONFIG:")
    assert "nowhere.json" in err


def test_config_requires_exactly_one_source(tmp_path):
    (tmp_path / "c.json").write_text(json.dumps({}))
    code = run(tmp_path, "validate", "--config", str(tmp_path / "c.json"),
               "--out", str(tmp_path / "o"))
    assert code == 1


def test_config_must_be_object(tmp_path, capsys):
    (tmp_path / "c.json").write_text(json.dumps(["model.json"]))
    code = run(tmp_path, "validate", "--config", str(tmp_path / "c.json"),
               "--out", str(tmp_path / "o"))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("ERROR CONFIG:") and "Traceback" not in err


def test_solve_writes_artifacts(workdir):
    out = workdir / "solved"
    code = run(workdir, "solve", "--config", str(workdir / "config.json"), "--out", str(out))
    assert code == 0
    load_coefficients(out / "value_coefficients.bin")
    summary = json.loads((out / "solve_summary.json").read_text())
    assert summary["residual_quad"] < 1e-3
    manifest = json.loads((out / "manifest.json").read_text())
    assert "value_coefficients.bin" in manifest and "solve_summary.json" in manifest


def test_solve_zero_loading_model(tmp_path):
    spec = make_scalar_spec(asset_factor_loading=[[0.0]], bench_factor_loading=[0.0],
                            bench_vol=[0.0])
    model_mod.save_model(spec, tmp_path / "m.json")
    (tmp_path / "c.json").write_text(json.dumps({
        "model": "m.json", "solver": {"steps_per_year": 504}, "output_dir": "out",
    }))
    out = tmp_path / "o"
    assert run(tmp_path, "solve", "--config", str(tmp_path / "c.json"), "--out", str(out)) == 0
    vc = load_coefficients(out / "value_coefficients.bin")
    assert np.all(vc.quad == 0.0)
    assert np.all(vc.lin == 0.0)


def test_policy_output(workdir, capsys):
    out = workdir / "pol"
    code = run(workdir, "policy", "--config", str(workdir / "config.json"), "--out", str(out))
    assert code == 0
    text = capsys.readouterr().out
    assert "allocation" in text and "kelly_fraction" in text
    payload = json.loads((out / "policy.json").read_text())
    mid = 0.5  # theta = 1
    assert payload["kelly_fraction"] == mid


def test_simulate_and_report(workdir):
    out = workdir / "sim"
    code = run(workdir, "simulate", "--config", str(workdir / "config.json"), "--out", str(out))
    assert code == 0
    assert (out / "terminals.csv").exists() and (out / "paths.bin").exists()
    summary = json.loads((out / "sim_summary.json").read_text())
    assert "criterion_estimate" in summary

    rep_out = workdir / "rep"
    code = run(workdir, "report", "--config", str(workdir / "config.json"),
               "--out", str(rep_out), f"optimal={out / 'paths.bin'}")
    assert code == 0
    table = (rep_out / "report.txt").read_text()
    assert "sharpe" in table and "optimal" in table

    # terminals CSV is accepted as a return stream too
    rep_out2 = workdir / "rep_csv"
    code = run(workdir, "report", "--config", str(workdir / "config.json"),
               "--out", str(rep_out2), f"terminal={out / 'terminals.csv'}")
    assert code == 0
    assert "terminal" in (rep_out2 / "report.txt").read_text()


def test_experiment_route_columns_identical(workdir):
    out = workdir / "exp"
    code = run(workdir, "experiment", "--config", str(workdir / "config.json"),
               "--out", str(out))
    assert code == 0
    rows = (out / "experiment_report.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    i_two = header.index("portfolio-twostep")
    i_dir = header.index("portfolio-direct")
    for row in rows[1:]:
        cells = row.split(",")
        assert cells[i_two] == cells[i_dir]  # byte-identical route columns
    summary = json.loads((out / "experiment_summary.json").read_text())
    assert summary["route_metric_gap"] <= 1e-12


def test_experiment_determinism(workdir):
    out1, out2 = workdir / "d1", workdir / "d2"
    for out in (out1, out2):
        assert run(workdir, "experiment", "--config", str(workdir / "config.json"),
                   "--out", str(out)) == 0
    for name in ("experiment_report.csv", "experiment_report.txt",
                 "experiment_summary.json", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_experiment_single_path_smoke(workdir, capsys):
    config = json.loads((workdir / "config.json").read_text())
    config["simulation"].update({"n_paths": 1, "steps": 60})
    (workdir / "tiny.json").write_text(json.dumps(config))
    out = workdir / "tiny_out"
    code = run(workdir, "experiment", "--config", str(workdir / "tiny.json"),
               "--out", str(out))
    assert code == 0
    assert "degenerate" in capsys.readouterr().out


def test_experiment_theta_zero_kelly_columns_coincide(workdir):
    config = json.loads((workdir / "config.json").read_text())
    config["theta"] = 0.0
    (workdir / "kelly.json").write_text(json.dumps(config))
    out = workdir / "kelly_out"
    code = run(workdir, "experiment", "--config", str(workdir / "kelly.json"),
               "--out", str(out))
    assert code == 0
    rows = (out / "experiment_report.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    i_dir = header.index("portfolio-direct")
    i_kelly = header.index("kelly")
    for row in rows[1:]:
        cells = row.split(",")
        assert cells[i_dir] == cells[i_kelly]


def test_verify_all_pass(workdir):
    out = workdir / "ver"
    code = run(workdir, "verify", "--config", str(workdir / "config.json"), "--out", str(out))
    assert code == 0
    rows = json.loads((out / "verify_report.json").read_text())
    assert all(r["status"] == "PASS" for r in rows)


def test_verify_negative_control(workdir, capsys):
    out = workdir / "verneg"
    code = run(workdir, "verify", "--config", str(workdir / "config.json"),
               "--out", str(out), "--inject-corruption")
    assert code == 2
    assert "ERROR VERIFY" in capsys.readouterr().err
    rows = json.loads((out / "verify_report.json").read_text())
    failed = {r["invariant"] for r in rows if r["status"] == "FAIL"}
    assert {"backward_residuals", "hjb_residual", "saddle_probes"} <= failed


def test_verify_fails_checks_with_infinite_standard_errors(workdir, capsys):
    # one simulated path has no standard error; its Monte-Carlo rows check
    # nothing and fail rather than pass inside a 3 * inf band
    config = json.loads((workdir / "config.json").read_text())
    config["verify"]["sim_paths"] = 1
    (workdir / "one_path.json").write_text(json.dumps(config))
    out = workdir / "ver1"
    code = run(workdir, "verify", "--config", str(workdir / "one_path.json"), "--out", str(out))
    assert code == 2
    assert "ERROR VERIFY" in capsys.readouterr().err
    rows = json.loads((out / "verify_report.json").read_text())
    failed = {r["invariant"] for r in rows if r["status"] == "FAIL"}
    assert failed == {"martingale_tilt", "martingale_alloc", "kl_dual_estimators"}


def test_verify_kelly_mode_skips_game_checks(workdir):
    config = json.loads((workdir / "config.json").read_text())
    config["theta"] = 0.0
    (workdir / "k.json").write_text(json.dumps(config))
    out = workdir / "verk"
    code = run(workdir, "verify", "--config", str(workdir / "k.json"), "--out", str(out))
    assert code == 0
    rows = {r["invariant"]: r for r in json.loads((out / "verify_report.json").read_text())}
    assert rows["saddle_probes"]["status"] == "SKIP"
    assert "Kelly mode" in rows["saddle_probes"]["detail"]


def test_estimate_command(tmp_path):
    vm = validate_model(make_scalar_spec())
    # a d=2 generator so the joint covariance is well-posed
    gen = model_mod.ModelSpec.constant(
        n=1, m=1, d=2, horizon_years=1.0, theta=1.0, x0=[0.0],
        asset_drift=[0.3], asset_factor_loading=[[0.4]], asset_vol=[[0.1, 0.0]],
        factor_drift=[0.02], factor_mean_reversion=[[-0.8]], factor_vol=[[0.0, 0.04]],
        bench_drift=0.3, bench_factor_loading=[0.4], bench_vol=[0.1, 0.0],
    )
    panel = synthesize_panel(validate_model(gen), years=4.0, weights=np.array([1.0]), seed=3)
    save_panel(panel, tmp_path / "panel.csv")
    config = {
        "estimation": {"panel": "panel.csv", "bench_weights": [1.0], "dt": 1 / 252},
        "theta": 1.0,
        "horizon_years": 1.0,
        "solver": {"steps_per_year": 504},
        "output_dir": "out",
    }
    (tmp_path / "c.json").write_text(json.dumps(config))
    out = tmp_path / "est"
    code = run(tmp_path, "estimate", "--config", str(tmp_path / "c.json"), "--out", str(out))
    assert code == 0
    fitted = model_mod.load_model(out / "model.json")
    assert fitted.m == 1 and fitted.n == 1 and fitted.d == 3
    report = json.loads((out / "estimation_report.json").read_text())
    assert report["rows"] == panel.rows

    # the estimated model drives the full pipeline
    code = run(tmp_path, "verify", "--config", str(tmp_path / "c.json"),
               "--out", str(tmp_path / "ver"))
    assert code == 0


def test_report_needs_inputs(workdir):
    code = run(workdir, "report", "--config", str(workdir / "config.json"),
               "--out", str(workdir / "r"))
    assert code == 1


def test_report_argument_needs_label(workdir, capsys):
    code = run(workdir, "report", "--config", str(workdir / "config.json"),
               "--out", str(workdir / "r"), "paths.bin")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("ERROR CONFIG:") and "Traceback" not in err


@pytest.mark.parametrize("argv,detail", [
    (["simulate", "--config", "config.json", "--paths", "abc"], "invalid int value: 'abc'"),
    (["simulate", "--config", "config.json", "--bogus"], "unrecognized arguments: --bogus"),
    (["simulate"], "required: --config"),
], ids=["bad-int", "unknown-flag", "missing-config"])
def test_usage_errors_are_config_errors(workdir, capsys, argv, detail):
    code = run(workdir, *argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("ERROR CONFIG:") and detail in err
    assert "error:" not in err


def test_help_exits_zero(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        run(workdir, "simulate", "--help")
    assert exc.value.code == 0
    assert "--paths" in capsys.readouterr().out


def test_report_rejects_a_label_that_breaks_the_csv(workdir, capsys):
    code = run(workdir, "report", "--config", str(workdir / "config.json"),
               "--out", str(workdir / "r"), f"a,b={workdir / 'paths.bin'}")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("ERROR CONFIG:") and "'a,b'" in err
    assert not (workdir / "r" / "report.csv").exists()


def test_simulate_flag_overrides(workdir):
    out = workdir / "flags"
    code = run(workdir, "simulate", "--config", str(workdir / "config.json"),
               "--out", str(out), "--paths", "50", "--steps", "30",
               "--strategy", "kelly", "--antithetic")
    assert code == 0
    summary = json.loads((out / "sim_summary.json").read_text())
    assert summary["n_paths"] == 50 and summary["steps"] == 30
    assert summary["strategy"] == "kelly"
    rows = (out / "terminals.csv").read_text().strip().splitlines()
    assert len(rows) == 51  # header + one row per path


@pytest.mark.parametrize("strategy", ["kelly", "benchmark"])
def test_simulate_densities_factorize_for_every_strategy(workdir, strategy):
    # every strategy's adverse tilt comes from the value coefficients, so the
    # terminal log densities factorize pathwise: tilt = alloc + link; on a
    # model whose benchmark the assets do not span, no column is zero
    spec = make_random_spec(np.random.default_rng(5), theta=1.0, n=2, m=2, d=3)
    model_mod.save_model(spec, workdir / "model.json")
    out = workdir / strategy
    code = run(workdir, "simulate", "--config", str(workdir / "config.json"), "--out", str(out),
               "--paths", "40", "--steps", "20", "--strategy", strategy)
    assert code == 0
    cols = np.loadtxt(out / "terminals.csv", delimiter=",", skiprows=1, ndmin=2)
    tilt, alloc, link = cols[:, 2], cols[:, 3], cols[:, 4]
    assert np.abs(tilt - (alloc + link)).max() <= 1e-10
    assert all(np.any(col != 0.0) for col in (tilt, alloc, link))


def test_seed_override_changes_results(workdir):
    out1, out2 = workdir / "s1", workdir / "s2"
    run(workdir, "simulate", "--config", str(workdir / "config.json"),
        "--out", str(out1), "--seed", "1")
    run(workdir, "simulate", "--config", str(workdir / "config.json"),
        "--out", str(out2), "--seed", "2")
    t1 = (out1 / "terminals.csv").read_text()
    t2 = (out2 / "terminals.csv").read_text()
    assert t1 != t2


@pytest.mark.parametrize("simulation", [
    {"custom_tilt": "x"},    # library-only SimConfig fields
    {"keep": []},
    {"n_paths": "ten"},
    {"steps": 12.5},
    {"dt": "daily"},
    {"seed": True},
    {"antithetic": "no"},
    {"dump_paths": 1},
    {"route": "bogus"},
    {"strategy": "benchmark", "bench_weights": [0.5, 0.5]},  # one asset
    {"strategy": "benchmark", "bench_weights": "equal"},
    {"strategy": "custom"},
])
def test_simulate_rejects_bad_simulation_config(workdir, capsys, simulation):
    config = json.loads((workdir / "config.json").read_text())
    config["simulation"].update(simulation)
    (workdir / "bad.json").write_text(json.dumps(config))
    code = run(workdir, "simulate", "--config", str(workdir / "bad.json"),
               "--out", str(workdir / "o"))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("ERROR CONFIG:")
    assert "Traceback" not in err


def test_verify_rejects_bad_simulation_seed(workdir, capsys):
    config = json.loads((workdir / "config.json").read_text())
    config["simulation"]["seed"] = "forty-two"
    (workdir / "bad.json").write_text(json.dumps(config))
    code = run(workdir, "verify", "--config", str(workdir / "bad.json"),
               "--out", str(workdir / "o"))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("ERROR CONFIG:")


@pytest.mark.parametrize("command", ["policy", "simulate", "experiment"])
def test_commands_reject_coefficients_of_another_model(workdir, monkeypatch, capsys, command):
    # coefficients solved at theta = 1 handed to a theta = 5 model end in a
    # typed error, not in a silent run
    import benchkelly.cli as cli_mod

    real = cli_mod._solve
    theta_one = validate_model(make_scalar_spec())
    monkeypatch.setattr(cli_mod, "_solve", lambda config, validated: real(config, theta_one))
    config = json.loads((workdir / "config.json").read_text())
    config["theta"] = 5.0
    (workdir / "theta5.json").write_text(json.dumps(config))
    code = run(workdir, command, "--config", str(workdir / "theta5.json"),
               "--out", str(workdir / "o"))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("ERROR CONFIG:") and "theta" in err


def test_experiment_lanes_keep_only_the_log_excess_return(workdir, monkeypatch):
    import benchkelly.simulate as sim_mod

    kept = []
    real = sim_mod.simulate_lanes

    def spy(model, vc, cfgs):
        bundles = real(model, vc, cfgs)
        kept.extend((cfg.keep, b.states, b.log_density_tilt) for cfg, b in zip(cfgs, bundles))
        return bundles

    monkeypatch.setattr(sim_mod, "simulate_lanes", spy)
    assert run(workdir, "experiment", "--config", str(workdir / "config.json"),
               "--out", str(workdir / "exp_keep")) == 0
    assert kept == [(("log_excess",), None, None)] * 4


def test_simulate_stores_paths_only_for_dump(workdir, monkeypatch):
    import benchkelly.simulate as sim_mod

    stored = []
    real = sim_mod.simulate_paths

    def spy(model, vc, cfg):
        stored.append(cfg.keep)
        return real(model, vc, cfg)

    monkeypatch.setattr(sim_mod, "simulate_paths", spy)
    config = json.loads((workdir / "config.json").read_text())
    config["simulation"]["dump_paths"] = False
    (workdir / "nodump.json").write_text(json.dumps(config))
    out = workdir / "nodump"
    assert run(workdir, "simulate", "--config", str(workdir / "nodump.json"),
               "--out", str(out)) == 0
    assert stored == [("densities",)]
    assert not (out / "paths.bin").exists()


@pytest.mark.parametrize("command,block,values", [
    pytest.param("solve", "solver", {"steps_per_year": "fast"}, id="solve-steps-text"),
    pytest.param("solve", "solver", {"steps_per_year": 100.7}, id="solve-steps-fraction"),
    pytest.param("solve", "solver", {"steps_per_year": 0}, id="solve-steps-zero"),
    pytest.param("solve", "solver", {"residual_tol": "tight"}, id="solve-tol-text"),
    pytest.param("verify", "verify", {"probes": "many"}, id="verify-probes-text"),
    pytest.param("verify", "verify", {"sim_paths": "4k"}, id="verify-sim-paths-text"),
    pytest.param("verify", "verify", {"inject_corruption": "no"}, id="verify-inject-text"),
    pytest.param("verify", "verify", {"lattice_times": 0, "probes": 0}, id="verify-zero-counts"),
    pytest.param("verify", "verify", {"residual_tol": 1e-3}, id="verify-removed-tol"),
    pytest.param("verify", "verify", [], id="verify-not-object"),
    pytest.param("experiment", "metrics", {"level": "high"}, id="experiment-level-text"),
    pytest.param("experiment", "metrics", {"level": 1.5}, id="experiment-level-range"),
    pytest.param("experiment", "metrics", {"downside_denominator": "half"},
                 id="experiment-denominator"),
    pytest.param("policy", "policy", {"t": "now"}, id="policy-t-text"),
    pytest.param("policy", "policy", {"x": "origin"}, id="policy-x-text"),
    pytest.param("policy", "policy", {"x": [0.1, 0.2]}, id="policy-x-length"),
    pytest.param("validate", "theta", "high", id="validate-theta-text"),
    pytest.param("validate", "x0", ["a"], id="validate-x0-text"),
    pytest.param("validate", "horizon_years", None, id="validate-horizon-null"),
    pytest.param("validate", "model", 5, id="validate-model-number"),
    pytest.param("validate", "output_dir", ["out"], id="validate-output-dir-list"),
    pytest.param("report", "report", {"inputs": [{"label": "a"}]}, id="report-input-no-paths"),
    pytest.param("report", "report", "oops", id="report-not-object"),
])
def test_commands_reject_bad_config(workdir, capsys, command, block, values):
    config = json.loads((workdir / "config.json").read_text())
    if isinstance(values, dict):
        config.setdefault(block, {}).update(values)
    else:
        config[block] = values
    (workdir / "bad.json").write_text(json.dumps(config))
    code = run(workdir, command, "--config", str(workdir / "bad.json"),
               "--out", str(workdir / "o"))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("ERROR CONFIG:")
    assert "Traceback" not in err


@pytest.mark.parametrize("name,value", [
    ("asset_drift", [float("nan")]),
    ("asset_vol", [[float("inf")]]),
])
def test_validate_rejects_nonfinite_model(workdir, capsys, name, value):
    model_mod.save_model(make_scalar_spec(**{name: value}), workdir / "model.json")
    code = run(workdir, "validate", "--config", str(workdir / "config.json"),
               "--out", str(workdir / "o"))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("ERROR NONFINITE_STATE:") and name in captured.err
    assert "model OK" not in captured.out and "Traceback" not in captured.err


def _edited_model(edit):
    data = model_mod.model_to_dict(make_scalar_spec())
    edit(data)
    return json.dumps(data)


def _piecewise_without_blocks(data):
    data["piecewise"] = {"knots": [0.0]}
    del data["constant"]


@pytest.mark.parametrize("code,text,detail", [
    ("PARSE", "{not json", "JSON"),
    ("PARSE", _edited_model(lambda d: d.update(n="one")), "'n'"),
    ("PARSE", _edited_model(lambda d: d["constant"].update(asset_drift=["abc"])), "asset_drift"),
    ("DIMENSION_MISMATCH", _edited_model(_piecewise_without_blocks), "blocks"),
    # a count is a JSON integer; any other number is a JSON number, not text or a switch
    ("PARSE", _edited_model(lambda d: d.update(n=1.7)), "'n'"),
    ("PARSE", _edited_model(lambda d: d.update(theta="1.0")), "'theta'"),
    ("PARSE", _edited_model(lambda d: d.update(x0=["0.2"])), "'x0'"),
    ("PARSE", _edited_model(lambda d: d["constant"].update(bench_drift=True)), "bench_drift"),
], ids=["not-json", "n-text", "coefficient-text", "piecewise-no-blocks",
        "n-fraction", "theta-text", "x0-text", "bench-drift-switch"])
def test_validate_rejects_unreadable_model_file(workdir, capsys, code, text, detail):
    (workdir / "model.json").write_text(text)
    exit_code = run(workdir, "validate", "--config", str(workdir / "config.json"),
                    "--out", str(workdir / "o"))
    captured = capsys.readouterr()
    assert exit_code == 1
    assert captured.err.startswith(f"ERROR {code}:") and detail in captured.err
    assert "model OK" not in captured.out and "Traceback" not in captured.err


def _short_dump(path):
    # the header promises 10 paths of 5 steps in one factor; no data follows
    path.write_bytes(b"BKPATHS1" + struct.pack("<QQQ", 10, 5, 1))


def _csv_with_nan(path):
    # enough rows for the metrics; row 50 (line 52) holds the nan
    rows = [f"{i},{0.001 * (i % 7 - 3)!r}" for i in range(200)]
    rows[50] = "50,nan"
    path.write_text("path,terminal_log_excess\n" + "\n".join(rows) + "\n")


def _dump_with_nan(path):
    # one path of 200 steps in one factor, one log excess value nan
    log_excess = 0.001 * (np.arange(201) % 7 - 3.0)
    log_excess[120] = np.nan
    path.write_bytes(b"BKPATHS1" + struct.pack("<QQQ", 1, 200, 1)
                     + np.zeros(201).tobytes() + log_excess.astype("<f8").tobytes())


@pytest.mark.parametrize("code,make,detail", [
    ("PARSE", lambda p: p.write_text("path,terminal_log_excess\n0,0.1\n1,abc\n"), "line 3"),
    ("PARSE", _short_dump, "truncated"),
    ("CONFIG", lambda p: p.mkdir(), "not a file"),
    ("PARSE", _csv_with_nan, "line 52"),
    ("PARSE", _dump_with_nan, "non-finite"),
], ids=["csv-cell", "short-dump", "directory", "csv-nan", "dump-nan"])
def test_report_rejects_unreadable_input(workdir, capsys, code, make, detail):
    make(workdir / "input")
    exit_code = run(workdir, "report", "--config", str(workdir / "config.json"),
                    "--out", str(workdir / "r"), f"bad={workdir / 'input'}")
    err = capsys.readouterr().err
    assert exit_code == 1
    assert err.startswith(f"ERROR {code}:") and detail in err
    assert "Traceback" not in err


def test_simulate_rejects_nonfinite_dt_flag(workdir, capsys):
    exit_code = run(workdir, "simulate", "--config", str(workdir / "config.json"),
                    "--out", str(workdir / "o"), "--dt", "nan")
    err = capsys.readouterr().err
    assert exit_code == 1
    assert err.startswith("ERROR CONFIG:") and "dt" in err
    assert "Traceback" not in err


def test_estimate_rejects_nonfinite_panel(tmp_path, capsys):
    (tmp_path / "panel.csv").write_text(
        "date,asset:x,factor:f\n2020-01-01,0.01,0.001\n2020-01-02,nan,0.002\n")
    (tmp_path / "c.json").write_text(json.dumps({
        "estimation": {"panel": "panel.csv", "bench_weights": [1.0]},
        "theta": 1.0, "horizon_years": 1.0,
    }))
    code = run(tmp_path, "estimate", "--config", str(tmp_path / "c.json"),
               "--out", str(tmp_path / "o"))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("ERROR PARSE:") and "line 3" in err
    assert "Traceback" not in err


def test_experiment_benchmark_uses_simulation_weights(workdir):
    config = json.loads((workdir / "config.json").read_text())
    config["simulation"]["bench_weights"] = [0.5]
    (workdir / "weights.json").write_text(json.dumps(config))
    exp_out, sim_out = workdir / "exp_w", workdir / "sim_w"
    assert run(workdir, "experiment", "--config", str(workdir / "weights.json"),
               "--out", str(exp_out)) == 0
    assert run(workdir, "simulate", "--config", str(workdir / "weights.json"),
               "--out", str(sim_out), "--strategy", "benchmark") == 0
    criterion = json.loads((exp_out / "experiment_summary.json").read_text())["criteria"]["benchmark"]
    summary = json.loads((sim_out / "sim_summary.json").read_text())
    assert criterion["estimate"] == summary["criterion_estimate"]
    assert criterion["std_error"] == summary["criterion_std_error"]


def test_verify_gates_residuals_on_solver_tolerance(workdir):
    config = json.loads((workdir / "config.json").read_text())
    config["solver"]["residual_tol"] = 1e-300
    config["verify"] = {"probes": 10, "sim_paths": 10, "lattice_times": 1, "lattice_states": 1}
    (workdir / "tight.json").write_text(json.dumps(config))
    out = workdir / "tight"
    assert run(workdir, "verify", "--config", str(workdir / "tight.json"),
               "--out", str(out)) == 2
    rows = {r["invariant"]: r for r in json.loads((out / "verify_report.json").read_text())}
    for name in ("backward_residuals", "hjb_residual"):
        assert rows[name]["status"] == "FAIL"
        assert "tol=1e-300" in rows[name]["detail"]
