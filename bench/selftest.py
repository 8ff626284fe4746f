"""Self-test of the benchmark at reduced sample counts.

    python3 bench/selftest.py

Run from the root of a source checkout.  It checks that

* BENCHMARK.json keeps to the benchmark's file format;
* a plain and a traced run of every workload at a small m print, as their
  last line, exactly the result schema with the metric names and units that
  BENCHMARK.json lists;
* every gate, the determinism check and the wiring check trip on one
  deliberately wrong input, and pass the matching right one;
* the benchmark fails, without printing a result, in a directory that holds
  only BENCHMARK.json and the benchmark's own files.

Prints one line per check and exits 0 when all pass.  Takes about two minutes.
"""
from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys

import run
import workloads

SMALL_M = {"ode-table2": 20_000, "ko-gha": 20_000, "ko-mc": 4_096, "burgers": 20_000}
# At m = 20,000 the sampling error alone exceeds criterion 4's 1% bound, so here
# ko-gha may fail that gate but nothing else.
GATED_AT_SMALL_M = ("ode-table2", "ko-mc", "burgers")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")

failures: list[str] = []


def check(label: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {label}{': ' + detail if detail and not ok else ''}")
    if not ok:
        failures.append(label)


def check_spec(spec: dict) -> None:
    check("spec keys", set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
    check("spec workloads", [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
          and all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"]))
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [w["name"] for w in spec["workloads"]]
    check("spec names unique and well formed", len(names) == len(set(names)) and all(NAME.match(n) for n in names))
    metrics = spec["end_to_end"] + spec["per_layer"]
    check("spec units and directions", all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
                                           for m in metrics))
    check("spec bounds", all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
                             for m in spec["end_to_end"]))
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check("spec setup_s", len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]))
    check("spec per_layer keys", all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"]))
    check("spec run_seconds", isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60)
    check("spec paths", all((run.ROOT / p).is_dir() for p in spec["paths"]))


def check_output(workload: str, trace: int, spec: dict) -> None:
    label = f"{workload} trace={trace} at m={SMALL_M[workload]}"
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--m", str(SMALL_M[workload])],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=run.ROOT, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        check(label, False, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return
    res = json.loads(lines[-1])
    listed = spec["per_layer" if trace else "end_to_end"]
    metrics = res.get("metrics", {})
    ok = (
        set(res) == {"correct", "attempted", "failed", "metrics"}
        and isinstance(res["attempted"], int) and res["attempted"] >= 1
        and isinstance(res["failed"], int) and isinstance(res["correct"], bool)
        and list(metrics) == [m["name"] for m in listed]
        and all(metrics[m["name"]] == {"value": metrics[m["name"]]["value"], "unit": m["unit"]} for m in listed)
        and all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"]) for v in metrics.values())
    )
    check(f"{label}: schema", ok, lines[-1][:500])
    if workload in GATED_AT_SMALL_M:
        check(f"{label}: gates, determinism and wiring", res["correct"] and res["failed"] == 0,
              proc.stderr.strip()[-500:])
    else:
        details = json.loads((run.OUT / f"{workload}-seed3-trace{trace}.json").read_text())
        others = [p for p in details["problems"] if not p.startswith("config 1: p=5: relative error")]
        check(f"{label}: determinism and wiring (criterion 4's gate needs full m)", not others, str(others[:3]))


def check_gates() -> None:
    m = 1000
    ode = workloads.configs("ode-table2", 42, m)
    ref = {"p_mc": 0.004}
    good = [{"estimate": 0.004, "n_exact": 100} for _ in ode]
    check("ode-table2 gate passes equal estimates", workloads.gate("ode-table2", ode, good, ref) == [None] * len(ode))
    bad = [dict(r) for r in good]
    bad[4]["estimate"] += 1.0 / m
    verdicts = workloads.gate("ode-table2", ode, bad, ref)
    check("ode-table2 gate trips on one estimate off by one sample",
          verdicts[4] is not None and verdicts.count(None) == len(ode) - 1)
    check("rel_error reports 1/m for an exact estimate",
          workloads.rel_error("ode-table2", ode, good, ref) == (1.0 / m) / 0.004)

    burgers = workloads.configs("burgers", 42, m)
    good = [{"estimate": 0.871} for _ in burgers]
    check("burgers gate passes equal estimates", workloads.gate("burgers", burgers, good, {"p_mc": None}) == [None] * 5)
    bad = [dict(r) for r in good]
    bad[3]["estimate"] -= 1.0 / m
    check("burgers gate trips on a hybrid estimate off by one sample",
          workloads.gate("burgers", burgers, bad, {"p_mc": None})[3] is not None)

    ko = workloads.configs("ko-gha", 42)
    ref_ko = workloads.KO_REFERENCE
    good = [{"estimate": ref_ko, "n_exact": 300}, {"estimate": ref_ko * 1.009, "n_exact": 5000}]
    check("ko-gha gate passes error 0.9% at 5,000 calls", workloads.gate("ko-gha", ko, good, {"p_mc": ref_ko}) == [None] * 2)
    for what, change in (("relative error 1.01%", {"estimate": ref_ko * 1.0101}), ("5,001 calls", {"n_exact": 5001})):
        bad = [good[0], {**good[1], **change}]
        check(f"ko-gha gate trips on {what} at p=5", workloads.gate("ko-gha", ko, bad, {"p_mc": ref_ko})[1] is not None)

    kmc = workloads.configs("ko-mc", 42)
    sigma = math.sqrt(ref_ko * (1 - ref_ko) / kmc[0]["m"])
    inside = round((ref_ko + 2.9 * sigma) * kmc[0]["m"]) / kmc[0]["m"]
    outside = round((ref_ko + 3.1 * sigma) * kmc[0]["m"]) / kmc[0]["m"]
    check("ko-mc gate passes 2.9 sigma", workloads.gate("ko-mc", kmc, [{"estimate": inside}], {"p_mc": inside}) == [None])
    check("ko-mc gate trips on 3.1 sigma",
          workloads.gate("ko-mc", kmc, [{"estimate": outside}], {"p_mc": outside})[0] is not None)
    check("ko-mc gate trips on a count unlike the bracketed failure set",
          workloads.gate("ko-mc", kmc, [{"estimate": inside}], {"p_mc": inside + 1.0 / kmc[0]["m"]})[0] is not None)
    check("every gate fails a run that raised",
          all(workloads.gate(w, workloads.configs(w, 42, m)[:1], [{"error": "boom"}], {"p_mc": 0.1})[0] is not None
              for w in workloads.WORKLOADS))


def check_repeat_and_wiring() -> None:
    report = {"estimate": 0.1, "n_exact": 100, "n_exact_build": 0, "n_elements": 4, "relative_error": 0.01,
              "model_calls_total": 100}
    expected: list = [None]
    verdicts: list = [None]
    run.check_repeat(expected, [report], verdicts)
    run.check_repeat(expected, [dict(report)], verdicts)
    check("determinism check passes identical runs", verdicts == [None])
    run.check_repeat(expected, [{**report, "n_elements": 5}], verdicts)
    check("determinism check trips on a changed element count", verdicts[0] is not None)

    reach, skip = run.WIRING["ko-gha"]
    layers = {name: 1 for name in run.REACHED_BY_ALL + reach} | {name: 0 for name in skip}
    layers["problems.exact_calls"] = 100
    bindings = {"refine.rk4_step": 3}
    check("wiring check passes a complete trace", run.check_wiring("ko-gha", layers, [report], bindings) == [])
    broken = [
        ("a missed binding", {**layers, "problems.rk4_steps": 0}, [report], bindings),
        ("an expected zero", {**layers, "refine.static_s": 0.1}, [report], bindings),
        ("unaccounted exact calls", layers, [{**report, "model_calls_total": 101}], bindings),
        ("an unwrapped target", layers, [report], {"refine.rk4_step": 0}),
    ]
    for what, lay, reps, binds in broken:
        check(f"wiring check trips on {what}", run.check_wiring("ko-gha", lay, reps, binds) != [])


def check_bare_directory() -> None:
    bare = run.ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / run.BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, f"{run.BENCH.name}/run.py", "--workload", "ko-mc", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=bare, timeout=180)
        check("fails without a package to measure", proc.returncode != 0 and "correct" not in proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(run.SRC))
    check_spec(spec)
    check_gates()
    check_repeat_and_wiring()
    check_bare_directory()
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            check_output(workload, trace, spec)
    print(f"{'FAILED ' + str(len(failures)) if failures else 'all'} checks {'failed' if failures else 'passed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
