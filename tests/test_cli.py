import json

import numpy as np
import pytest

from mehybrid.cli import RunConfig, UsageError, main, run, table, validate


def base_config(**overrides):
    raw = {
        "problem": "step",
        "method": "me-gha",
        "seed": 42,
        "m": 50_000,
        "delta_m": 1000,
    }
    raw.update(overrides)
    return raw


def test_config_validation_errors():
    with pytest.raises(UsageError, match="problem"):
        RunConfig.from_dict({"method": "mc", "seed": 1})
    with pytest.raises(UsageError, match="unknown config field"):
        RunConfig.from_dict(base_config(bogus=1))
    with pytest.raises(UsageError, match="method"):
        RunConfig.from_dict(base_config(method="annealing"))
    with pytest.raises(UsageError, match="gamma"):
        RunConfig.from_dict(base_config(method="direct-hybrid"))
    with pytest.raises(UsageError, match="order"):
        RunConfig.from_dict(base_config(problem="ko3"))
    with pytest.raises(UsageError, match="seed"):
        RunConfig.from_dict(base_config(seed=-1))
    for key in ("tol1", "theta"):
        with pytest.raises(UsageError, match="accepted keys: theta1, N0, theta2"):
            RunConfig.from_dict(base_config(refine={key: 1e-3}))


def test_run_report_fields_and_determinism():
    cfg = RunConfig.from_dict(base_config())
    rep_a = run(cfg)
    rep_b = run(RunConfig.from_dict(base_config()))
    for key in ("estimate", "n_exact", "n_surrogate", "n_elements", "relative_error"):
        assert rep_a[key] == rep_b[key]
    a = {k: v for k, v in rep_a.items() if k not in ("wall_time_s", "timings")}
    b = {k: v for k, v in rep_b.items() if k not in ("wall_time_s", "timings")}
    assert a == b
    assert rep_a["n_surrogate"] == 50_000
    assert rep_a["n_elements"] == 2
    assert rep_a["reference"] == 0.5
    assert rep_a["config"]["seed"] == 42
    timings = rep_a["timings"]
    assert set(timings) == {"sample_s", "build_s", "estimate_s", "exact_s"}
    assert all(v >= 0.0 for v in timings.values())
    assert timings["sample_s"] + timings["build_s"] + timings["estimate_s"] <= rep_a["wall_time_s"]


def test_run_mc_method():
    rep = run(RunConfig.from_dict(base_config(method="mc", m=20_000)))
    assert rep["n_exact"] == 20_000
    assert abs(rep["estimate"] - 0.5) < 0.02


def test_estimate_command_writes_outputs(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    report_path = tmp_path / "report.json"
    trace_path = tmp_path / "trace.csv"
    cfg = base_config(output={"report": str(report_path), "trace": str(trace_path)})
    cfg_path.write_text(json.dumps(cfg))
    code = main(["estimate", "--config", str(cfg_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["problem"] == "step"
    lines = trace_path.read_text().strip().splitlines()
    assert lines[0] == "iteration,estimate,n_exact,element"
    printed = json.loads(capsys.readouterr().out)
    assert printed["estimate"] == report["estimate"]


def test_estimate_command_set_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config()))
    code = main(["estimate", "--config", str(cfg_path), "--set", "m=10000", "--set", "delta_m=500"])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["config"]["m"] == 10000
    assert printed["n_surrogate"] == 10000


def test_estimate_command_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(method="nope")))
    assert main(["estimate", "--config", str(cfg_path)]) == 1
    assert main(["estimate", "--config", str(tmp_path / "missing.json")]) == 1
    cfg_path.write_text(json.dumps(base_config(problem="linear-ode", order=3)))
    for key in ("tol1", "theta"):
        capsys.readouterr()
        assert main(["estimate", "--config", str(cfg_path), "--set", f"refine.{key}=1e-9"]) == 1
        err = capsys.readouterr().err
        assert f"unknown refine key(s) ['{key}']" in err
        assert "collocation_nodes" in err
    # bad values reach the model, the hybrid or refinement settings or the collocation grid;
    # each is rejected before sampling
    for sets in (["problem_params.foo=1"], ["refine.theta2=2"], ["delta_m=0"], ["m=0"],
                 ["problem=burgers", "refine.collocation_nodes=2"], ["delta_m=50001"],
                 ["refine.check_interval=0"], ["refine.dt=0"], ["refine.dt=abc"],
                 ["problem=ko3", "method=mc", "problem_params.T=-5"],
                 ["problem=ko3", "method=mc", "problem_params.T=0"],
                 ["problem=ko3", "method=mc", "problem_params.T=abc"],
                 ["problem=ko3", "method=mc", "problem_params.dt=-0.01"]):
        capsys.readouterr()
        args = [arg for item in sets for arg in ("--set", item)]
        assert main(["estimate", "--config", str(cfg_path)] + args) == 1, sets
        assert capsys.readouterr().err.startswith("usage error: "), sets


def test_estimate_numerical_failure_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(problem="ko3", method="mc", m=100)))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["estimate", "--config", str(cfg_path), "--set", "problem_params.dt=3"]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_refine_then_estimate_with_cache(tmp_path, capsys):
    cache = tmp_path / "surr.json"
    assert main(["refine", "--problem", "linear-ode", "--cache", str(cache), "--order", "3"]) == 0
    capsys.readouterr()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            base_config(
                problem="linear-ode",
                order=3,
                m=20_000,
                delta_m=100,
                surrogate_cache=str(cache),
            )
        )
    )
    assert main(["estimate", "--config", str(cfg_path)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["n_elements"] >= 4
    assert printed["n_exact_build"] == 0


@pytest.mark.parametrize(
    "element",
    [
        {"lower": [-1.0], "upper": [1.0], "order": 1, "coeffs": [1.0]},  # order 1 needs two coefficients
        {"lower": [0.5], "upper": [0.5], "order": 0, "coeffs": [1.0]},  # empty box
        {"lower": [-1.0], "upper": [1.5], "order": 0, "coeffs": [1.0]},  # outside [-1, 1]
    ],
)
def test_malformed_cache_is_usage_error(tmp_path, capsys, element):
    cache = tmp_path / "bad.json"
    cache.write_text(json.dumps({"dim": 1, "order": element["order"], "elements": [element]}))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(m=1000, delta_m=100, surrogate_cache=str(cache))))
    assert main(["estimate", "--config", str(cfg_path)]) == 1
    assert main(["validate", "--cache", str(cache)]) == 1
    err = capsys.readouterr().err
    assert err.count("usage error: malformed surrogate cache") == 2


def test_cache_of_another_dimension_is_usage_error(tmp_path, capsys):
    cache = tmp_path / "square.json"
    element = {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], "order": 0, "coeffs": [1.0]}
    cache.write_text(json.dumps({"dim": 2, "order": 0, "elements": [element]}))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(problem="linear-ode", order=0, m=1000, delta_m=100,
                                               surrogate_cache=str(cache))))
    assert main(["estimate", "--config", str(cfg_path)]) == 1
    assert "cached surrogate has dim 2" in capsys.readouterr().err


def test_table_one_downscaled(tmp_path):
    rows = table(1, {"m": 20_000, "seed": 7})
    header = rows[0]
    assert header == ["metric", "order", "tol", "computed", "published", "abs_diff"]
    metrics = {r[0] for r in rows[1:]}
    assert metrics == {"surrogate_estimate", "hybrid_exact_calls", "hybrid_estimate"}
    orders = {r[1] for r in rows[1:]}
    assert orders == {0, 2, 7}
    published = [r for r in rows[1:] if r[0] == "surrogate_estimate"]
    for row in published:
        assert isinstance(row[4], float)
        assert isinstance(row[5], float)


def test_table_command_writes_csv(tmp_path, capsys):
    out = tmp_path / "table1.csv"
    code = main(["table", "1", "--out", str(out), "--set", "m=20000"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("metric,order,tol,computed,published")
    assert len(lines) > 3


def test_table_rejects_unknown_number():
    with pytest.raises(UsageError):
        table(9)


def test_validate_passes(capsys):
    assert validate() == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 8


def test_validate_detects_corrupted_cache(tmp_path, capsys):
    # two overlapping elements cannot be a partition of the domain
    bad = {
        "dim": 1,
        "order": 0,
        "truncated": False,
        "elements": [
            {"lower": [-1.0], "upper": [0.5], "prob": 0.75, "order": 0, "coeffs": [1.0]},
            {"lower": [0.0], "upper": [1.0], "prob": 0.5, "order": 0, "coeffs": [1.0]},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert validate(cache=str(path)) == 2
    out = capsys.readouterr().out
    assert "FAIL  surrogate-cache" in out
    assert "overlap" in out or "sum" in out


def test_main_usage_exit_codes(capsys):
    assert main(["table", "42"]) == 1
    assert main([]) == 1
    capsys.readouterr()
    assert main(["table", "1", "--set", "refine.theta1=1e-9"]) == 1
    assert "unknown table override(s) ['refine']; accepted keys: seed, m, delta_m" in capsys.readouterr().err
