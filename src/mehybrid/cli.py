"""Batch experiment runner.

Subcommands:
  estimate  run one estimator from a JSON config (plus --set overrides)
  table     reproduce one of the five benchmark tables as CSV
  refine    build a multi-element surrogate and cache it as JSON
  validate  run the fast invariant suite

Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field

from . import problems as prob
from .errors import DomainError, IntegrationError, ModelEvaluationError, RootSolveError
from .estimator import (
    HybridConfig,
    HybridTrace,
    direct_hybrid,
    iterative_hybrid,
    mc_estimate,
    me_gha,
    me_lha,
    relative_error,
)
from .invariants import CHECKS
from .randomspace import check_partition, sample_uniform
from .refine import RefinementConfig, write_events_csv
from .surrogate import (
    GpcExpansion,
    MultiElementSurrogate,
    collocation_nodes,
    surrogate_from_json,
    surrogate_to_json,
)

METHODS = ("mc", "direct-hybrid", "global-hybrid", "me-gha", "me-lha")
GLOBAL_METHODS = ("direct-hybrid", "global-hybrid")
REFINE_KEYS = ("theta1", "N0", "theta2", "alpha", "max_elements", "check_interval",
               "dt", "resolve_from_t0", "collocation_nodes")
TABLE_KEYS = ("seed", "m", "delta_m")


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    """One experiment: problem, method, sampling and refinement settings."""

    problem: str
    method: str
    seed: int
    m: int = 1_000_000
    order: int | None = None
    delta_m: int | None = None
    eta_stop: float = 0.0
    gamma: float | None = None
    max_exact: int | None = None
    reference: float | None = None
    refine: dict = field(default_factory=dict)
    problem_params: dict = field(default_factory=dict)
    surrogate_cache: str | None = None
    output: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        for key in raw:
            if key not in known:
                raise UsageError(f"unknown config field {key!r}")
        for required in ("problem", "method", "seed"):
            if required not in raw:
                raise UsageError(f"missing required config field {required!r}")
        refine = raw.get("refine", {})
        if not isinstance(refine, dict):
            raise UsageError("field 'refine' must be an object")
        unknown = sorted(set(refine) - set(REFINE_KEYS))
        if unknown:
            raise UsageError(f"unknown refine key(s) {unknown}; accepted keys: {', '.join(REFINE_KEYS)}")
        raw = dict(raw)
        for key in ("m", "order", "delta_m", "max_exact"):
            if raw.get(key) is not None:
                value = raw[key]
                if isinstance(value, float) and not value.is_integer():
                    raise UsageError(f"field {key!r} must be an integer, got {value!r}")
                raw[key] = int(value)
        cfg = cls(**raw)
        if cfg.problem not in prob.PROBLEMS:
            raise UsageError(f"unknown problem {cfg.problem!r}; choose from {sorted(prob.PROBLEMS)}")
        if cfg.delta_m is None:
            cfg.delta_m = prob.PROBLEMS[cfg.problem].defaults["delta_m"]
        if cfg.method not in METHODS:
            raise UsageError(f"unknown method {cfg.method!r}; choose from {METHODS}")
        if cfg.method == "direct-hybrid" and cfg.gamma is None:
            raise UsageError("field 'gamma' is required for the direct-hybrid method")
        if cfg.method != "mc" and cfg.order is None and (cfg.problem != "step" or cfg.method in GLOBAL_METHODS):
            raise UsageError("field 'order' is required for surrogate methods")
        if not isinstance(cfg.seed, int) or cfg.seed < 0:
            raise UsageError("field 'seed' must be a nonnegative integer")
        if cfg.m < 1:
            raise UsageError("field 'm' must be at least one")
        if cfg.method != "mc" and cfg.delta_m > cfg.m:
            raise UsageError(f"step size delta_m = {cfg.delta_m} exceeds the sample count m = {cfg.m}")
        return cfg


def _refine_config(opts: dict, order: int) -> RefinementConfig:
    """Parse the refinement options (problem defaults merged with the run's ``refine``
    object); RefinementConfig supplies every default the options leave unset."""
    if opts.get("theta1") is None:
        raise UsageError("field 'refine.theta1' is required")
    if "collocation_nodes" in opts:
        collocation_nodes(order, int(opts["collocation_nodes"]))
    if "dt" in opts and not 0.0 < float(opts["dt"]) < math.inf:
        raise UsageError(f"field 'refine.dt' must be a positive number, got {opts['dt']!r}")
    casts = {"N0": None, "theta2": float, "alpha": float, "max_elements": int, "check_interval": None}
    given = {key: opts[key] if cast is None else cast(opts[key]) for key, cast in casts.items() if key in opts}
    return RefinementConfig(theta1=float(opts["theta1"]), N=order, **given)


def _prepare(cfg: RunConfig):
    """Models and settings a run makes before it samples; a bad value among them is a usage error.

    Returns the exact model, a second one charged with the surrogate build, and
    the hybrid and refinement settings (None where unused)."""
    spec = prob.PROBLEMS[cfg.problem]
    params = {**spec.parameters, **cfg.problem_params}
    refines = cfg.method != "mc" and not cfg.surrogate_cache and "theta1" in spec.defaults
    try:
        model = spec.make_model(**params)
        build_model = spec.make_model(**params)
        hycfg = None if cfg.method == "mc" else HybridConfig(
            delta_m=cfg.delta_m, eta_stop=cfg.eta_stop, max_exact=cfg.max_exact)
        rcfg = _refine_config({**spec.defaults, **cfg.refine}, cfg.order) if refines else None
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid configuration: {exc}") from exc
    return model, build_model, hycfg, rcfg


def _load_cache(path: str) -> tuple[MultiElementSurrogate, list[str]]:
    """Parse a surrogate cache; returns it with its partition issues (empty when valid)."""
    with open(path) as fh:
        text = fh.read()
    try:
        surr = surrogate_from_json(text)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed surrogate cache {path}: {exc!r}") from exc
    return surr, check_partition(surr.decomposition)


def _build_surrogate(cfg: RunConfig, model, rcfg: RefinementConfig | None, event_log: list):
    """Load the cached surrogate, or have the problem registry build the one the method needs."""
    if cfg.surrogate_cache:
        surr, issues = _load_cache(cfg.surrogate_cache)
        if issues:
            raise UsageError("cached surrogate is not a valid partition: " + "; ".join(issues))
        if surr.dim != model.dim:
            raise UsageError(f"cached surrogate has dim {surr.dim}, problem {cfg.problem!r} has dim {model.dim}")
        return surr
    spec = prob.PROBLEMS[cfg.problem]
    return spec.build_surrogate(
        model, {**spec.parameters, **cfg.problem_params}, cfg.order, {**spec.defaults, **cfg.refine},
        rcfg, cfg.method in GLOBAL_METHODS, event_log,
    )


def run(cfg: RunConfig) -> dict:
    """Execute one configured estimation and return the report dictionary."""
    t0 = time.perf_counter()
    spec = prob.PROBLEMS[cfg.problem]
    model, build_model, hycfg, rcfg = _prepare(cfg)
    clock = time.perf_counter()
    samples = sample_uniform(cfg.m, model.dim, cfg.seed)
    timings = {"sample_s": time.perf_counter() - clock, "build_s": 0.0}
    trace: HybridTrace | None = None
    surr = None
    events: list = []
    if cfg.method != "mc":
        clock = time.perf_counter()
        surr = _build_surrogate(cfg, build_model, rcfg, events)
        timings["build_s"] = time.perf_counter() - clock
    clock = time.perf_counter()
    if cfg.method == "mc":
        est = mc_estimate(model, samples)
    elif cfg.method == "direct-hybrid":
        est = direct_hybrid(model, surr, samples, cfg.gamma)
    elif cfg.method == "global-hybrid":
        est, trace = iterative_hybrid(model, surr, samples, hycfg)
    elif cfg.method == "me-gha":
        est, trace = me_gha(model, surr, samples, hycfg)
    else:
        est, trace = me_lha(model, surr, samples, hycfg)
    timings["estimate_s"] = time.perf_counter() - clock
    timings["exact_s"] = model.exact_s + build_model.exact_s
    multi = isinstance(surr, MultiElementSurrogate)
    reference = cfg.reference if cfg.reference is not None else spec.reference_p_f
    report = {
        "problem": cfg.problem,
        "method": cfg.method,
        "estimate": est.p_f,
        "stddev": est.stddev,
        "n_exact": est.n_exact,
        "n_exact_build": build_model.call_count,
        "n_surrogate": est.n_surrogate,
        "n_elements": len(surr) if multi else int(surr is not None),
        "truncated": multi and surr.truncated,
        "reference": reference,
        "reference_tag": spec.reference_tag if cfg.reference is None else "configured",
        "relative_error": relative_error(est.p_f, reference) if reference > 0 else None,
        "model_calls_total": model.call_count + build_model.call_count,
        "wall_time_s": time.perf_counter() - t0,
        "timings": timings,
        "config": asdict(cfg),
    }
    out = cfg.output or {}
    if out.get("report"):
        with open(out["report"], "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if out.get("trace") and trace is not None:
        trace.to_csv(out["trace"])
    if out.get("events") and events:
        write_events_csv(events, out["events"])
    if out.get("cache") and cfg.method in ("me-gha", "me-lha") and not cfg.surrogate_cache:
        with open(out["cache"], "w") as fh:
            fh.write(surrogate_to_json(surr))
    return report


# ---------------------------------------------------------------------------
# benchmark tables

# Published element counts of the three-mode meshes, shared by tables 3 and 4.
KO_ELEMENTS = {(3, 1e-2): 22, (3, 1e-3): 38, (3, 1e-4): 58,
               (5, 1e-2): 12, (5, 1e-3): 22, (5, 1e-4): 30,
               (7, 1e-2): 10, (7, 1e-3): 16, (7, 1e-4): 26}

# Published benchmark results the table command reproduces side by side.
REFERENCE_TABLES = {
    1: {
        "problem": "step",
        "orders": (0, 2, 7),
        "rows": {
            "surrogate_estimate": {0: 0.833187, 2: 0.773777, 7: 0.756490},
            "hybrid_exact_calls": {0: 502_000, 2: 502_000, 7: 502_000},
        },
        "delta_m": 1000,
    },
    2: {
        "problem": "linear-ode",
        "orders": (3, 5, 7),
        "rows": {
            "global_exact_calls": {3: 105_000, 5: 54_700, 7: 31_600},
            "elements": {3: 5, 5: 5, 7: 4},
            "me_gha_exact_calls": {3: 3_700, 5: 3_700, 7: 900},
            "me_lha_exact_calls": {3: 4_100, 5: 4_100, 7: 1_200},
        },
        "delta_m": 100,
    },
    3: {
        "problem": "ko3",
        "orders": (3, 5, 7),
        "tols": (1e-2, 1e-3, 1e-4),
        "rows": {
            "elements": KO_ELEMENTS,
            "me_gha_exact_calls": {(3, 1e-2): 6900, (3, 1e-3): 500, (3, 1e-4): 200,
                                   (5, 1e-2): 3900, (5, 1e-3): 200, (5, 1e-4): 200,
                                   (7, 1e-2): 1400, (7, 1e-3): 2200, (7, 1e-4): 300},
            "relative_error": {(3, 1e-2): 0.0006, (3, 1e-3): 0.0016, (3, 1e-4): 0.00015,
                               (5, 1e-2): 0.00012, (5, 1e-3): 0.0014, (5, 1e-4): 0.00021,
                               (7, 1e-2): 0.0033, (7, 1e-3): 0.00038, (7, 1e-4): 0.0},
        },
        "delta_m": 100,
    },
    4: {
        "problem": "ko3",
        "orders": (3, 5, 7),
        "tols": (1e-2, 1e-3, 1e-4),
        "rows": {
            "elements": KO_ELEMENTS,
            "me_lha_exact_calls": {(3, 1e-2): 12245, (3, 1e-3): 4700, (3, 1e-4): 6029,
                                   (5, 1e-2): 3400, (5, 1e-3): 3000, (5, 1e-4): 3400,
                                   (7, 1e-2): 2900, (7, 1e-3): 2200, (7, 1e-4): 2800},
        },
        "delta_m": 100,
    },
    5: {
        "problem": "burgers",
        "orders": (2, 3, 4, 5),
        "rows": {
            "global_exact_calls": {2: 101_921, 3: 62_921, 4: 23_421, 5: 3_921},
            "elements": {2: 9, 3: 7, 4: 6, 5: 5},
            "me_gha_exact_calls": {2: 1_757, 3: 573, 4: 431, 5: 389},
            "me_lha_exact_calls": {2: 2_557, 3: 1_173, 4: 931, 5: 799},
        },
        "delta_m": 100,
    },
}


def _run_cell(problem: str, method: str, order: int, seed: int, m: int, delta_m: int,
              tol: float | None = None) -> dict:
    refine = {} if tol is None else {"theta1": tol}
    return run(RunConfig.from_dict(dict(problem=problem, method=method, seed=seed, m=m, order=order,
                                        delta_m=delta_m, refine=refine)))


def table(n: int, overrides: dict | None = None) -> list[list]:
    """Recompute one benchmark table; rows carry computed and published values side by side."""
    if n not in REFERENCE_TABLES:
        raise UsageError(f"table number must be one of {sorted(REFERENCE_TABLES)}")
    overrides = overrides or {}
    unknown = sorted(set(overrides) - set(TABLE_KEYS))
    if unknown:
        raise UsageError(f"unknown table override(s) {unknown}; accepted keys: {', '.join(TABLE_KEYS)}")
    ref = REFERENCE_TABLES[n]
    problem = ref["problem"]
    seed = int(overrides.get("seed", 42))
    m = int(overrides.get("m", 1_000_000))
    delta_m = int(overrides.get("delta_m", ref["delta_m"]))
    rows: list[list] = [["metric", "order", "tol", "computed", "published", "abs_diff"]]

    def add(metric: str, order, tol, computed, published):
        diff = "" if published is None or computed is None else abs(computed - published)
        rows.append([metric, order, "" if tol is None else tol, computed, published, diff])

    if n == 1:
        for p in ref["orders"]:
            rep_direct = run(RunConfig.from_dict(dict(problem=problem, method="direct-hybrid", seed=seed,
                                                      m=m, order=p, gamma=0.0, delta_m=delta_m)))
            add("surrogate_estimate", p, None, rep_direct["estimate"],
                ref["rows"]["surrogate_estimate"][p])
            rep = _run_cell(problem, "global-hybrid", p, seed, m, delta_m)
            add("hybrid_exact_calls", p, None, rep["n_exact"], ref["rows"]["hybrid_exact_calls"][p])
            add("hybrid_estimate", p, None, rep["estimate"], None)
    elif n in (2, 5):
        for p in ref["orders"]:
            for method, row in (("global-hybrid", "global_exact_calls"), ("me-gha", "me_gha_exact_calls"),
                                ("me-lha", "me_lha_exact_calls")):
                rep = _run_cell(problem, method, p, seed, m, delta_m)
                if method == "me-gha":
                    add("elements", p, None, rep["n_elements"], ref["rows"]["elements"][p])
                add(row, p, None, rep["n_exact"] + rep["n_exact_build"], ref["rows"][row][p])
    else:
        method = "me-gha" if n == 3 else "me-lha"
        call_row = "me_gha_exact_calls" if n == 3 else "me_lha_exact_calls"
        for p in ref["orders"]:
            for tol in ref["tols"]:
                rep = _run_cell(problem, method, p, seed, m, delta_m, tol=tol)
                add("elements", p, tol, rep["n_elements"], ref["rows"]["elements"][(p, tol)])
                add(call_row, p, tol, rep["n_exact"], ref["rows"][call_row][(p, tol)])
                if n == 3:
                    add("relative_error", p, tol, rep["relative_error"],
                        ref["rows"]["relative_error"][(p, tol)])
    return rows


def _write_csv(rows: list[list], path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


# ---------------------------------------------------------------------------
# validation suite


def validate(cache: str | None = None) -> int:
    """Run the invariant suite (and check a cached surrogate); 0 when all pass, 2 otherwise."""
    checks = list(CHECKS)
    if cache:
        surr, issues = _load_cache(cache)
        checks.append(("surrogate-cache", lambda: (not issues, issues[0] if issues else f"{len(surr)} elements ok")))
    failures = 0
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        print(f"{'PASS' if ok else 'FAIL'}  {name:22s} {detail}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 2


# ---------------------------------------------------------------------------
# argument parsing


def _apply_set(target: dict, assignments: list[str]) -> dict:
    for item in assignments:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = target
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise UsageError(f"cannot descend into non-object config field {part!r}")
        node[parts[-1]] = value
    return target


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="mehybrid", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="run one estimation from a JSON config")
    p_est.add_argument("--config", required=True, help="path to the JSON run configuration")
    p_est.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config field (dotted keys descend into objects)")

    p_tab = sub.add_parser("table", help="recompute a benchmark table")
    p_tab.add_argument("number", type=int, choices=sorted(REFERENCE_TABLES))
    p_tab.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p_tab.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override table defaults (seed, m, delta_m)")

    p_ref = sub.add_parser("refine", help="build and cache a multi-element surrogate")
    p_ref.add_argument("--problem", required=True, choices=sorted(prob.PROBLEMS))
    p_ref.add_argument("--cache", required=True, help="where to write the surrogate JSON")
    p_ref.add_argument("--order", type=int, default=None)
    p_ref.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")

    p_val = sub.add_parser("validate", help="run the fast invariant suite")
    p_val.add_argument("--cache", default=None, help="also check a cached surrogate")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        if args.command == "estimate":
            with open(args.config) as fh:
                raw = json.load(fh)
            _apply_set(raw, args.set)
            cfg = RunConfig.from_dict(raw)
            report = run(cfg)
            print(json.dumps(report, indent=2, sort_keys=True))
            return 0
        if args.command == "table":
            overrides = _apply_set({}, args.set)
            rows = table(args.number, overrides)
            if args.out:
                _write_csv(rows, args.out)
                print(f"wrote {args.out}")
            else:
                for row in rows:
                    print(",".join(str(v) for v in row))
            return 0
        if args.command == "refine":
            raw = {
                "problem": args.problem,
                "method": "me-gha",
                "seed": 0,
                "order": args.order,
                "refine": {},
            }
            _apply_set(raw, args.set)
            if raw.get("order") is None:
                raw["order"] = prob.PROBLEMS[args.problem].defaults["order"]
            cfg = RunConfig.from_dict(raw)
            _, build_model, _, rcfg = _prepare(cfg)
            surr = _build_surrogate(cfg, build_model, rcfg, [])
            if isinstance(surr, GpcExpansion):
                raise UsageError("refine builds multi-element surrogates; got a single expansion")
            with open(args.cache, "w") as fh:
                fh.write(surrogate_to_json(surr))
            print(f"wrote {args.cache}: {len(surr)} elements, {build_model.call_count} build calls")
            return 0
        if args.command == "validate":
            return validate(args.cache)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (RootSolveError, IntegrationError, ModelEvaluationError, DomainError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
