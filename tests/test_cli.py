import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mehybrid import cli, problems, randomspace, surrogate
from mehybrid.cli import RunConfig, UsageError, _prepare, _write_csv, main, run, table, validate
from mehybrid.randomspace import sample_uniform

DATA = Path(__file__).parent / "data"


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
    for key in ("bogus", "surrogate_cache", "max_exact"):
        with pytest.raises(UsageError, match=f"unknown config field '{key}'"):
            RunConfig.from_dict(base_config(**{key: 1}))
    with pytest.raises(UsageError, match="method"):
        RunConfig.from_dict(base_config(method="annealing"))
    with pytest.raises(UsageError, match="gamma"):
        RunConfig.from_dict(base_config(method="direct-hybrid"))
    with pytest.raises(UsageError, match="order"):
        RunConfig.from_dict(base_config(problem="ko3"))
    with pytest.raises(UsageError, match="seed"):
        RunConfig.from_dict(base_config(seed=-1))
    for key in ("tol1", "theta"):
        with pytest.raises(UsageError, match="accepted keys: theta1, max_elements$"):
            RunConfig.from_dict(base_config(refine={key: 1e-3}))
    with pytest.raises(UsageError, match=r"unknown output key\(s\) \['reprot'\]; accepted keys: report, trace, events"):
        RunConfig.from_dict(base_config(output={"reprot": "report.json"}))
    for key in ("cache", "surrogate"):
        with pytest.raises(UsageError, match="unknown output key"):
            RunConfig.from_dict(base_config(output={key: "surr.json"}))
    with pytest.raises(UsageError, match="'output' must be an object"):
        RunConfig.from_dict(base_config(output="report.json"))
    # a null sample count and an unhashable problem name are usage errors, not TypeErrors
    with pytest.raises(UsageError, match="field 'm' must be an integer"):
        RunConfig.from_dict(base_config(m=None))
    for problem in (["step"], {"name": "step"}):
        with pytest.raises(UsageError, match="unknown problem"):
            RunConfig.from_dict(base_config(problem=problem))


def test_run_report_fields_and_determinism(tmp_path):
    trace, events = tmp_path / "trace.csv", tmp_path / "events.csv"
    lha = base_config(problem="linear-ode", method="me-lha", order=3, m=20_000, delta_m=100,
                      output={"trace": str(trace), "events": str(events)})
    first = {}
    for raw in (base_config(), lha):
        rep_a = run(RunConfig.from_dict(raw))
        csv_a = [path.read_bytes() for path in (trace, events) if "output" in raw]
        rep_b = run(RunConfig.from_dict(raw))
        for key in ("estimate", "n_exact", "n_surrogate", "n_elements", "relative_error", "surrogate_estimate"):
            assert rep_a[key] == rep_b[key]
        a = {k: v for k, v in rep_a.items() if k not in ("wall_time_s", "timings")}
        b = {k: v for k, v in rep_b.items() if k not in ("wall_time_s", "timings")}
        assert a == b
        assert csv_a == [path.read_bytes() for path in (trace, events) if "output" in raw]
        first[raw["problem"]] = rep_a
    assert len(csv_a[1].splitlines()) > 2  # the linear-ode run logged its splits
    # the walk starts at the surrogate's own estimate
    row0 = csv_a[0].decode().splitlines()[1].split(",")
    assert float(row0[1]) == first["linear-ode"]["surrogate_estimate"]
    # every run is charged for its build
    assert first["linear-ode"]["n_exact_build"] == 0  # the Galerkin build makes no exact calls
    burgers = run(RunConfig.from_dict(base_config(problem="burgers", method="me-lha", order=3, m=20_000,
                                                  delta_m=100)))
    assert burgers["n_exact_build"] > 0  # a collocation build does
    for rep in (first["linear-ode"], burgers):
        assert rep["model_calls_total"] == rep["n_exact"] + rep["n_exact_build"]
    rep_a = first["step"]
    assert rep_a["n_surrogate"] == 50_000
    assert rep_a["n_elements"] == 2
    assert rep_a["reference"] == 0.5
    assert rep_a["config"]["seed"] == 42
    timings = rep_a["timings"]
    assert set(timings) == {"sample_s", "build_s", "estimate_s", "surrogate_s", "order_s", "blocks_s", "exact_s"}
    assert all(v >= 0.0 for v in timings.values())
    assert timings["sample_s"] + timings["build_s"] + timings["estimate_s"] <= rep_a["wall_time_s"]
    assert timings["surrogate_s"] + timings["order_s"] + timings["blocks_s"] <= timings["estimate_s"]
    assert timings["surrogate_s"] > 0.0 and timings["blocks_s"] > 0.0


def test_events_file_of_a_run_that_did_not_split(tmp_path):
    # a run that can split writes its events CSV even when refinement made no split
    events = tmp_path / "events.csv"
    rep = run(RunConfig.from_dict(base_config(problem="linear-ode", order=3, m=2000, delta_m=100,
                                              refine={"theta1": 100}, output={"events": str(events)})))
    assert rep["n_elements"] == 1
    assert events.read_bytes() == b"time,element,indicator,dims\r\n"


def test_run_mc_method():
    rep = run(RunConfig.from_dict(base_config(method="mc", m=20_000, delta_m=None)))
    assert rep["n_exact"] == 20_000
    assert abs(rep["estimate"] - 0.5) < 0.02
    assert rep["surrogate_estimate"] is None


def test_delta_m_defaults_only_where_a_walk_reads_it():
    # mc never reads delta_m, so its report echoes null; a walk still gets the problem's default
    rep = run(RunConfig.from_dict({"problem": "ko3", "method": "mc", "seed": 1, "m": 20}))
    assert rep["config"]["delta_m"] is None
    for problem, spec in problems.PROBLEMS.items():
        cfg = RunConfig.from_dict({"problem": problem, "method": "global-hybrid", "seed": 1, "order": 2})
        assert cfg.delta_m == spec.defaults["delta_m"]


def test_direct_hybrid_run_writes_trace(tmp_path):
    # the direct hybrid is the global walk with the band stop rule: one block, traced
    trace = tmp_path / "trace.csv"
    rep = run(RunConfig.from_dict(base_config(method="direct-hybrid", order=2, gamma=0.05, m=20_000, delta_m=None,
                                              output={"trace": str(trace)})))
    rows = [line.split(",") for line in trace.read_text().splitlines()]
    assert rows[0] == ["iteration", "estimate", "n_exact", "element"]
    assert [r[0] for r in rows[1:]] == ["0", "1"]
    assert float(rows[1][1]) == rep["surrogate_estimate"]
    assert float(rows[-1][1]) == rep["estimate"] and int(rows[-1][2]) == rep["n_exact"] > 0


@pytest.mark.parametrize("problem, order", [("step", 7), ("linear-ode", 7), ("ko3", 5), ("burgers", 5)])
def test_global_surrogate_is_a_one_element_mesh(problem, order, monkeypatch):
    # a global run's surrogate is a one-element mesh, evaluated like any other:
    # a point gives the same bits alone as in a batch
    spec = problems.PROBLEMS[problem]
    model, _, rcfg = _prepare(RunConfig.from_dict(base_config(problem=problem, method="global-hybrid", order=order)))
    surr = spec.build_surrogate(model, order, rcfg, [])
    assert isinstance(surr, surrogate.MultiElementSurrogate) and len(surr) == 1
    pts = sample_uniform(20_000, model.dim, 3).points
    alone = np.array([surr(pts[i : i + 1])[0] for i in range(len(pts))])
    assert alone.tobytes() == surr(pts).tobytes()

    # every run path evaluates through the multi-element evaluator
    def unused(*args):
        raise AssertionError("eval_expansion_many is a test reference only")

    monkeypatch.setattr(surrogate, "eval_expansion_many", unused)
    for method in ("global-hybrid", "direct-hybrid"):
        band = method == "direct-hybrid"
        rep = run(RunConfig.from_dict(base_config(problem=problem, method=method, order=order, m=2000,
                                                  delta_m=None if band else 100, gamma=0.01 if band else None)))
        assert rep["n_elements"] == 1 and not rep["truncated"]


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
    # a path that cannot be read or written is a usage error too
    for args in (["--config", str(tmp_path)],
                 ["--config", str(cfg_path), "--set", "m=2000", "--set", f"output.report={tmp_path}"]):
        capsys.readouterr()
        assert main(["estimate", *args]) == 1, args
        assert capsys.readouterr().err.startswith("usage error: "), args
    # the refinement constants are not settings
    for key, value in (("tol1", "1e-9"), ("theta", "1e-9"), ("N0", "1"), ("theta2", "2"), ("alpha", "0.5"),
                       ("collocation_nodes", "2"), ("check_interval", "0"), ("dt", "0"), ("dt", "abc")):
        capsys.readouterr()
        assert main(["estimate", "--config", str(cfg_path), "--set", f"refine.{key}={value}"]) == 1
        err = capsys.readouterr().err
        assert f"unknown refine key(s) ['{key}']; accepted keys: theta1, max_elements\n" in err
    # bad values reach the model, the hybrid or refinement settings or the collocation grid;
    # each is rejected before sampling with a message that names its field
    mc = ["method=mc", "order=null", "delta_m=null"]
    direct = ["method=direct-hybrid", "delta_m=null"]
    for sets, name in ((["problem_params.foo=1"], "foo"), (["delta_m=0"], "delta_m"), (["m=0"], "m"),
                       (["delta_m=50001"], "delta_m"), (["problem=burgers", "order=21"], "order"),
                       ([*direct, "gamma=NaN"], "gamma"), ([*direct, "gamma=-0.1"], "gamma"),
                       (["refine.theta1=NaN"], "theta1"), (["refine.theta1=0"], "theta1"),
                       (["refine.theta1=true"], "theta1"), (["refine.theta1=abc"], "theta1"),
                       (["eta_stop=NaN"], "eta_stop"), (["eta_stop=true"], "eta_stop"),
                       ([*direct, "gamma=true"], "gamma"),
                       (["refine.max_elements=1.5"], "max_elements"),
                       (["refine.max_elements=true"], "max_elements"),
                       (["seed=true"], "seed"), (["m=true"], "m"), (["order=true"], "order"), (["seed=1.5"], "seed"),
                       (["seed=340282366920938463463374607431768211456"], "seed"),
                       (["m=abc"], "m"),
                       (["problem=ko3", *mc, "problem_params.T=-5"], "T"),
                       (["problem=ko3", *mc, "problem_params.T=0"], "T"),
                       (["problem=ko3", *mc, "problem_params.T=abc"], "T"),
                       (["problem=ko3", *mc, "problem_params.dt=-0.01"], "dt"),
                       (["problem_params.T=0"], "T"), (["problem_params.T=-1"], "T"),
                       (["problem=ko3", *mc, "problem_params.u_d=abc"], "u_d"),
                       (["problem=burgers", *mc, "problem_params.nu=0"], "nu"),
                       (["problem=burgers", *mc, "problem_params.e=-1"], "e"),
                       (["problem=burgers", *mc, "problem_params.nu=abc"], "nu"),
                       (["problem=burgers", "problem_params.nu=0"], "nu"),
                       (["problem=burgers", *mc, "problem_params.z0=NaN"], "z0"),
                       (["reference=abc"], "reference"), (["reference=NaN"], "reference"),
                       (["reference=-1"], "reference"), (["reference=0"], "reference"),
                       (["reference=true"], "reference"),
                       # refine settings of a run whose build reads none of them
                       (["problem=step", "order=null", "refine.theta1=NaN", "refine.max_elements=0"], "refine"),
                       (["problem=ko3", *mc, "refine.theta1=NaN"], "refine"),
                       (["method=global-hybrid", "refine.theta1=1e-9"], "refine"),
                       # an order is required exactly where the run reads it
                       (["method=global-hybrid", "order=null"], "order"),
                       (["problem=step", "method=direct-hybrid", "gamma=0", "order=null"], "order"),
                       (["problem=ko3", "method=mc"], "order"), (["problem=step"], "order"),
                       (["problem=step", "method=me-lha"], "order"),
                       (["problem=step", "method=global-hybrid", "order=-1"], "order"),
                       (["problem=step", *direct, "gamma=0", "order=-1"], "order"),
                       # hybrid settings of a run that does not read them
                       (["problem=ko3", *mc, "eta_stop=0.5"], "eta_stop"),
                       (["problem=ko3", *mc, "gamma=0.5"], "gamma"),
                       (["method=me-gha", "gamma=0.5"], "gamma"), (["method=global-hybrid", "gamma=0.5"], "gamma"),
                       (["method=me-lha", "gamma=0.5"], "gamma"),
                       (["problem=step", "method=direct-hybrid", "gamma=0", "eta_stop=0.5"], "eta_stop"),
                       # every hybrid walk ends by its own stop rule; there is no run-wide call cap
                       (["max_exact=10"], "unknown config field 'max_exact'"),
                       # config shapes: objects where objects are read, and nonempty paths as outputs
                       (["problem_params=5"], "problem_params"), (["problem_params=null"], "problem_params"),
                       (["problem_params=[1]"], "problem_params"),
                       (["output.report=true"], "output.report"), (["output.report=7"], "output.report"),
                       (["output.trace=\"\""], "output.trace"), (["output.events=null"], "output.events"),
                       # a setting or output the run would not read or write
                       (["problem=ko3", "method=mc", "order=null", "delta_m=7"], "delta_m"),
                       (["method=direct-hybrid", "gamma=0.1", "delta_m=7"], "delta_m"),
                       (["problem=ko3", *mc, f"output.trace={tmp_path / 't.csv'}"], "output.trace"),
                       (["problem=ko3", *mc, f"output.events={tmp_path / 'e.csv'}"], "output.events"),
                       (["method=global-hybrid", f"output.events={tmp_path / 'e.csv'}"], "output.events"),
                       (["method=direct-hybrid", "gamma=0.1", f"output.events={tmp_path / 'e.csv'}"],
                        "output.events"),
                       (["problem=step", "order=null", f"output.events={tmp_path / 'e.csv'}"], "output.events")):
        capsys.readouterr()
        args = [arg for item in sets for arg in ("--set", item)]
        assert main(["estimate", "--config", str(cfg_path)] + args) == 1, sets
        err = capsys.readouterr().err
        assert err.startswith("usage error: "), sets
        assert re.search(rf"(?<!\w){re.escape(name)}(?!\w)", err), (sets, err)
    assert not (tmp_path / "t.csv").exists() and not (tmp_path / "e.csv").exists()
    # a config file must hold an object, with or without --set
    for text in ("5", "[1, 2]", "null", '"step"'):
        cfg_path.write_text(text)
        for args in ([], ["--set", "m=10"]):
            capsys.readouterr()
            assert main(["estimate", "--config", str(cfg_path)] + args) == 1, (text, args)
            err = capsys.readouterr().err
            assert err.startswith("usage error: ") and "config" in err, (text, args, err)


def test_output_paths_are_checked_before_the_run(tmp_path, capsys, monkeypatch):
    # a directory, or a file in a missing directory, exits 1 before any sample is drawn
    # or any table cell runs, and leaves no file behind
    def never(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "sample_uniform", never)
    monkeypatch.setattr(cli, "table", never)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(problem="linear-ode", order=3, m=2000)))
    missing = tmp_path / "missing"
    report = f"output.report={tmp_path / 'report.json'}"
    for args, name in (
        (["estimate", "--config", str(cfg_path), "--set", f"output.report={tmp_path}"], "output.report"),
        (["estimate", "--config", str(cfg_path), "--set", report, "--set", f"output.trace={missing / 't.csv'}"],
         "output.trace"),
        (["estimate", "--config", str(cfg_path), "--set", f"output.events={missing / 'e.csv'}"], "output.events"),
        (["table", "1", "--out", str(tmp_path)], "--out"),
        (["table", "1", "--out", str(missing / "t.csv"), "--set", "m=2000"], "--out"),
    ):
        capsys.readouterr()
        assert main(args) == 1, args
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {name} "), (args, err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"], args


def test_outputs_must_name_different_files(tmp_path, capsys, monkeypatch):
    # two outputs at one file would overwrite each other; the paths are compared as the files
    # they resolve to, and the clash exits 1 before any sample is drawn
    def never(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "sample_uniform", never)
    (tmp_path / "real").mkdir()
    (tmp_path / "link").symlink_to(tmp_path / "real")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(problem="linear-ode", order=3, m=2000, delta_m=100)))
    out = tmp_path / "real" / "out.csv"
    for first, second in ((("report", out), ("events", out)),
                          (("trace", out), ("events", tmp_path / "link" / "out.csv")),
                          (("report", out), ("trace", tmp_path / "real" / "sub" / ".." / "out.csv"))):
        sets = [arg for key, path in (first, second) for arg in ("--set", f"output.{key}={path}")]
        capsys.readouterr()
        assert main(["estimate", "--config", str(cfg_path), *sets]) == 1, sets
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: fields 'output.{first[0]}' and 'output.{second[0]}' name the same file")
        assert not out.exists()
    with pytest.raises(UsageError, match="same file"):
        RunConfig.from_dict(base_config(output={key: "out.csv" for key in ("report", "trace", "events")}))


def test_direct_hybrid_reads_no_delta_m():
    # the band is one exact block of every sample with |g~| <= gamma, whatever the step: a step
    # is a usage error, as on mc, none is filled in, and m may be below the walks' default step
    raw = base_config(method="direct-hybrid", order=2, gamma=0.05, m=500, delta_m=None)
    rep = run(RunConfig.from_dict(raw))
    assert rep["config"]["delta_m"] is None and rep["n_exact"] > 0
    for delta_m in (1, 7, 500):
        with pytest.raises(UsageError, match="field 'delta_m' is not used by method 'direct-hybrid'"):
            RunConfig.from_dict({**raw, "delta_m": delta_m})


@pytest.mark.parametrize("problem", sorted(problems.PROBLEMS))
def test_unknown_problem_param_is_a_usage_error(problem, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(problem=problem, method="mc", m=100, delta_m=None,
                                               problem_params={"bogus": 3})))
    assert main(["estimate", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "bogus" in err


@pytest.mark.parametrize("problem, method, order", [("burgers", "me-gha", 3), ("linear-ode", "me-lha", 3),
                                                    ("step", "global-hybrid", 2)])
def test_build_and_estimate_call_one_model(problem, method, order, monkeypatch):
    # the run makes one exact model; the build's calls are its count when the build returns
    spec = problems.PROBLEMS[problem]
    models, builds = [], []

    def make_model(**params):
        models.append(spec.make_model(**params))
        return models[-1]

    def build_surrogate(model, *args):
        surr = spec.build_surrogate(model, *args)
        builds.append((model, model.call_count))
        return surr

    monkeypatch.setitem(problems.PROBLEMS, problem, replace(spec, make_model=make_model,
                                                            build_surrogate=build_surrogate))
    rep = run(RunConfig.from_dict(base_config(problem=problem, method=method, order=order, m=5000, delta_m=100)))
    [model] = models
    [(built_with, n_build)] = builds
    assert built_with is model and rep["n_exact_build"] == n_build
    assert rep["model_calls_total"] == model.call_count == n_build + rep["n_exact"]


def test_no_run_loads_scipy():
    # the package does not use scipy: a fresh process that imports the command line and runs
    # every problem never loads it (nor numpy.ma, which np.unique loads, while numpy.random,
    # which every run needs, comes with the import), and the linear-ode run gives the
    # estimate, exact calls and build calls of the same run in this process
    runs = [
        {"problem": "ko3", "method": "mc", "seed": 5, "m": 200},
        {"problem": "burgers", "method": "me-gha", "seed": 5, "m": 5000, "order": 2, "delta_m": 100},
        {"problem": "step", "method": "global-hybrid", "seed": 5, "m": 5000, "order": 3, "delta_m": 100},
        {"problem": "linear-ode", "method": "me-gha", "seed": 5, "m": 20_000, "order": 3, "delta_m": 100},
    ]
    script = (
        "import json, sys\n"
        "from mehybrid import cli\n"
        "assert 'scipy' not in sys.modules and 'numpy.random' in sys.modules, 'import'\n"
        f"for raw in {runs!r}:\n"
        "    report = cli.run(cli.RunConfig.from_dict(raw))\n"
        "    assert 'scipy' not in sys.modules and 'numpy.ma' not in sys.modules, raw['problem']\n"
        "print(json.dumps([report['estimate'], report['n_exact'], report['n_exact_build']]))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = run(RunConfig.from_dict(runs[-1]))
    assert json.loads(proc.stdout) == [report["estimate"], report["n_exact"], report["n_exact_build"]]


def test_python_dash_m_runs_the_cli_from_a_checkout():
    # with only the source tree on the path, as in a plain checkout without an install
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "mehybrid", "--help"], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: mehybrid ")


def test_estimate_numerical_failure_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(problem="ko3", method="mc", m=100, delta_m=None)))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["estimate", "--config", str(cfg_path), "--set", "problem_params.dt=3"]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_galerkin_blow_up_names_the_surrogate_build(tmp_path, capsys):
    # at mu = -2000 the Galerkin state of the linear-ode surrogate overflows before T; its rows are
    # an element's modes, so the message names the build's Galerkin solve and no sample column
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(problem="linear-ode", order=3, m=1000, delta_m=None,
                                               problem_params={"mu": -2000.0})))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["estimate", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: the surrogate's Galerkin solve reached a non-finite state at t = ")
    assert "column" not in err


def test_burgers_mc_at_small_viscosity(tmp_path, capsys):
    # at nu = 1e-3 the transition layer sits against the boundary
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(problem="burgers", method="mc", m=2000, delta_m=None,
                                               problem_params={"nu": 0.001})))
    assert main(["estimate", "--config", str(cfg_path)]) == 0
    assert json.loads(capsys.readouterr().out)["n_exact"] == 2000


def test_table_one_downscaled(monkeypatch):
    # one global-hybrid run per order gives both the surrogate estimate and the hybrid
    runs = []

    def counting(cfg):
        runs.append(cfg.method)
        return run(cfg)

    monkeypatch.setattr(cli, "run", counting)
    rows = table(1, {"m": 20_000, "seed": 7})
    assert runs == ["global-hybrid"] * 3
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


def test_a_table_draws_its_sample_set_once(monkeypatch):
    # every cell of a table runs on one sample set, which the first cell draws
    cells = []

    def counting(cfg):
        cells.append(cfg)
        return run(cfg)

    monkeypatch.setattr(cli, "run", counting)
    sample_uniform.cache_clear()
    table(2, {"m": 2000})
    info = sample_uniform.cache_info()
    assert len(cells) == 9 and (info.misses, info.hits) == (1, len(cells) - 1)


def test_a_reused_sample_set_changes_no_report(tmp_path):
    trace, events = tmp_path / "trace.csv", tmp_path / "events.csv"
    cfg = RunConfig.from_dict(base_config(problem="linear-ode", method="me-lha", order=3, m=20_000, delta_m=100,
                                          output={"trace": str(trace), "events": str(events)}))
    sample_uniform.cache_clear()
    outputs = []
    for _ in range(2):  # a fresh draw, then the kept set
        rep = run(cfg)
        outputs.append(({k: v for k, v in rep.items() if k not in ("wall_time_s", "timings")},
                        trace.read_bytes(), events.read_bytes()))
    info = sample_uniform.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert outputs[0] == outputs[1]
    kept = sample_uniform(20_000, 1, 42).points
    assert kept.tobytes() == randomspace._draw.__wrapped__(20_000, 1, 42).points.tobytes()


def test_table_command_writes_csv(tmp_path, capsys):
    out = tmp_path / "table1.csv"
    code = main(["table", "1", "--out", str(out), "--set", "m=20000"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("metric,order,tol,computed,published")
    assert len(lines) > 3


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_table_csv_matches_golden(n, tmp_path):
    # tests/data/table{n}_m20000.csv was written by `mehybrid table n --set m=20000 --out ...`
    out = tmp_path / f"table{n}.csv"
    _write_csv(table(n, {"m": 20000}), out)
    assert out.read_bytes() == (DATA / f"table{n}_m20000.csv").read_bytes()


def test_table_rejects_unknown_number():
    with pytest.raises(UsageError):
        table(9)


def test_validate_passes(capsys):
    assert validate() == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 8


def test_main_usage_exit_codes(tmp_path, capsys):
    assert main(["table", "42"]) == 1
    assert main([]) == 1
    assert main(["refine", "--problem", "ko3", "--cache", "x.json"]) == 1
    assert main(["validate", "--cache", "x.json"]) == 1
    capsys.readouterr()
    assert main(["table", "1", "--set", "refine.theta1=1e-9"]) == 1
    assert "unknown table override(s) ['refine']; accepted keys: seed, m, delta_m" in capsys.readouterr().err
    for item in ("m=2000.5", "seed=true"):
        assert main(["table", "1", "--set", item]) == 1, item
        assert "must be an integer" in capsys.readouterr().err, item
    assert main(["table", "1", "--out", str(tmp_path), "--set", "m=2000"]) == 1
    assert capsys.readouterr().err.startswith("usage error: ")
