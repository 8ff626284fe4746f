"""Benchmark of mehybrid on four workloads taken from the paper's tables.

    python3 bench/run.py --workload ode-table2 --seed 42 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One invocation runs passes of the workload back to back, one
fresh interpreter at a time, until ``--seconds`` have passed and at least
``MIN_PASSES`` passes are done.  A pass runs every ``RunConfig``
of the workload through ``mehybrid.cli.run``.  Outside the timed region
every run is checked against its workload's gate, and the checked report
fields must be identical in all passes.  With ``--trace 1``, traced passes
(see ``tracer.py``) alternate with plain ones and the per-layer metrics are
reported instead of the end-to-end ones.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; metric names and units come from BENCHMARK.json.
A JSON line with the environment comes before it, and a detailed report and
the spans of the last traced pass are written under ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Fewest passes per run: plain passes in a --trace 0 run, plain and traced each in a
# --trace 1 run.  Runs stop on time, not on a pass count, so that a slow host makes
# the longest run at most one pass longer.
MIN_PASSES = 2
MIN_TRACE_PASSES = 2
SETUP_PROBES = 1        # set-up-only interpreters per run, besides the set-up of every plain pass
DEADLINE_S = 170.0      # no invocation may run past this
CHECKED = ("estimate", "n_exact", "n_exact_build", "n_elements", "relative_error")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# Per-layer metrics a workload must reach (nonzero) and must not reach (zero):
# a zero where calls are expected means a name binding the tracer missed.
REACHED_BY_ALL = ("randomspace.sample_s", "problems.exact_s", "problems.exact_calls")
SURROGATE = ("randomspace.points_located", "polybasis.basis_rows", "surrogate.points_evaluated",
             "refine.n_elements", "estimator.hybrid_s", "estimator.blocks")
WIRING = {
    "ode-table2": (SURROGATE + ("refine.dynamic_s", "refine.rk4_steps"),
                   ("refine.static_s", "surrogate.collocation_calls", "problems.rk4_steps")),
    "ko-gha": (SURROGATE + ("refine.dynamic_s", "refine.rk4_steps", "refine.splits", "problems.rk4_steps"),
               ("refine.static_s", "surrogate.collocation_calls")),
    "ko-mc": (("problems.rk4_steps",),
              SURROGATE + ("refine.dynamic_s", "refine.static_s", "refine.rk4_steps", "surrogate.collocation_calls")),
    "burgers": (SURROGATE + ("refine.static_s", "refine.splits", "surrogate.collocation_calls"),
                ("refine.dynamic_s", "refine.rk4_steps", "problems.rk4_steps")),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: str(nproc()) for var in THREAD_VARS},
    }


def launch(job: dict, timeout: float) -> tuple[dict | None, float, str | None]:
    """Run one worker interpreter; returns (its result, set-up seconds, error)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **{var: str(nproc()) for var in THREAD_VARS})
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py")], input=json.dumps(job),
                              stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, 0.0, f"worker timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, 0.0, f"worker exited with code {proc.returncode}"
    result = json.loads(lines[-1])
    if not result["package"].startswith(str(SRC)):
        return None, 0.0, f"worker imported mehybrid from {result['package']}, not {SRC}"
    return result, result["ready"] - t0, None


def check_wiring(workload: str, layers: dict, reports: list[dict], bindings: dict) -> list[str]:
    reach, skip = WIRING[workload]
    issues = [f"{name} is 0" for name in REACHED_BY_ALL + reach if not layers[name]]
    issues += [f"{name} is {layers[name]}, expected 0" for name in skip if layers[name]]
    issues += [f"no binding of {name} was wrapped" for name, hits in bindings.items() if hits < 1]
    calls = sum(r["model_calls_total"] for r in reports)
    if layers["problems.exact_calls"] != calls:
        issues.append(f"traced exact calls {layers['problems.exact_calls']} != reported {calls}")
    return issues


def check_repeat(expected: list[tuple | None], reports: list[dict], verdicts: list[str | None]) -> None:
    """Fail every run whose checked fields differ from the first passing run of its config."""
    for i, r in enumerate(reports):
        if verdicts[i] is not None:
            continue
        key = tuple(r[f] for f in CHECKED)
        if expected[i] is None:
            expected[i] = key
        elif expected[i] != key:
            verdicts[i] = f"not deterministic: {dict(zip(CHECKED, key))} vs {dict(zip(CHECKED, expected[i]))}"


def measure(workload: str, seed: int, seconds: float, trace: bool, m: int | None = None) -> dict:
    """Run the workload and return the result object plus the details behind it."""
    start = time.monotonic()
    cfgs = workloads.configs(workload, seed, m)
    ref = workloads.reference(workload, cfgs)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload}-seed{seed}.spans.csv"

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - start)

    setup = []
    for k in range(SETUP_PROBES + 1):  # the first one only warms the file and bytecode caches
        result, setup_s, error = launch({"configs": cfgs, "setup_only": True}, remaining())
        if error:
            raise RuntimeError(error)
        if k:
            setup.append(setup_s)

    passes: list[dict] = []
    attempted = failed = 0
    problems: list[str] = []
    expected: list[tuple | None] = [None] * len(cfgs)
    kinds = (False, True) if trace else (False,)
    t_measure = time.monotonic()
    longest = 0.0
    while True:
        done = {kind: sum(1 for p in passes if p["traced"] == kind) for kind in kinds}
        least = MIN_TRACE_PASSES if trace else MIN_PASSES
        enough = all(done[kind] >= least for kind in kinds)
        if (enough and time.monotonic() - t_measure >= seconds) or remaining() < 1.3 * longest + 5:
            break
        traced = kinds[len(passes) % len(kinds)]
        t_pass = time.monotonic()
        job = {"configs": cfgs, "trace": traced, "spans": str(spans_path) if traced else None}
        result, setup_s, error = launch(job, remaining())
        longest = max(longest, time.monotonic() - t_pass)
        attempted += len(cfgs)
        if error:
            failed += len(cfgs)
            problems.append(error)
            passes.append({"traced": traced, "error": error})
            continue
        reports = result["reports"]
        verdicts = workloads.gate(workload, cfgs, reports, ref)
        check_repeat(expected, reports, verdicts)
        if traced and not any("error" in r for r in reports):
            issues = check_wiring(workload, result["layers"], reports, result["bindings"])
            if issues:
                verdicts = [f"wiring: {'; '.join(issues)}"] * len(cfgs)
        ok = all(v is None for v in verdicts)
        failed += sum(v is not None for v in verdicts)
        problems += [f"config {i}: {v}" for i, v in enumerate(verdicts) if v is not None]
        entry = {"traced": traced, "ok": ok, "total_s": result["total_s"], "peak_rss_mb": result["peak_rss_mb"],
                 "reports": reports, "verdicts": verdicts}
        if not any("error" in r for r in reports):
            entry["n_exact"] = sum(r["model_calls_total"] for r in reports)
            entry["rel_error"] = workloads.rel_error(workload, cfgs, reports, ref)
        if traced:
            entry["layers"] = result["layers"]
            entry["n_spans"] = result["n_spans"]
        else:
            setup.append(setup_s)
        passes.append(entry)
        print(f"[bench] {workload} seed {seed} pass {len(passes)} {'traced' if traced else 'plain'}: "
              f"{result['total_s']:.3f} s, {'ok' if ok else 'FAILED'}", file=sys.stderr)

    def med(key: str, traced: bool) -> float:
        """Median over the passing passes, or over all that measured ``key`` if none passed."""
        mine = [p for p in passes if p["traced"] == traced and key in p]
        values = [p[key] for p in mine if p["ok"]] or [p[key] for p in mine]
        if not values:
            raise RuntimeError(f"no {'traced' if traced else 'plain'} pass measured {key}; problems: {problems[:5]}")
        return statistics.median(values)

    if trace:
        traced_passes = [p for p in passes if "layers" in p]
        if not traced_passes:
            raise RuntimeError(f"no traced pass finished; problems: {problems[:5]}")
        metrics = {name: statistics.median(p["layers"][name] for p in traced_passes)
                   for name in traced_passes[0]["layers"]}
        metrics["trace.overhead_s"] = med("total_s", True) - med("total_s", False)
    else:
        metrics = {
            "total_s": med("total_s", False),
            "setup_s": statistics.median(setup),
            "n_exact": med("n_exact", False),
            "rel_error": med("rel_error", False),
            "peak_rss_mb": med("peak_rss_mb", False),
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "values": metrics,
        "problems": problems,
        "passes": passes,
        "setup_samples": setup,
        "reference": ref,
        "configs": cfgs,
    }


def spec_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--m", type=int, default=None,
                        help="override every config's sample count (quick checks only; not the benchmark)")
    args = parser.parse_args(argv)
    if not (SRC / "mehybrid" / "__init__.py").is_file():
        print(f"error: no mehybrid package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    trace = bool(args.trace)
    spec = spec_metrics(trace)
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
           "m": args.m, **environment()}
    print(json.dumps({"env": env}))
    try:
        res = measure(args.workload, args.seed, args.seconds, trace, args.m)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in spec if m["name"] not in res["values"]]
    if missing:
        print(f"error: metrics named in BENCHMARK.json but not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": res["values"][m["name"]], "unit": m["unit"]} for m in spec}
    report = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"env": env, **res, "metrics": metrics}, indent=1, default=str) + "\n")
    for problem in res["problems"]:
        print(f"[bench] FAILED {problem}", file=sys.stderr)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
