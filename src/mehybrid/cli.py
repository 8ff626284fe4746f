"""Batch experiment runner.

Subcommands:
  estimate  run one estimator from a JSON config (plus --set overrides)
  table     reproduce one of the five benchmark tables as CSV
  validate  run the fast invariant suite

Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field

from . import problems as prob
from .errors import DomainError, IntegrationError, ModelEvaluationError, RootSolveError
from .estimator import (
    HybridConfig,
    HybridTrace,
    iterative_hybrid,
    mc_estimate,
    me_lha,
    relative_error,
)
from .invariants import CHECKS
from .randomspace import sample_uniform
from .refine import RefinementConfig, _positive_finite, write_events_csv

METHODS = ("mc", "direct-hybrid", "global-hybrid", "me-gha", "me-lha")
GLOBAL_METHODS = ("direct-hybrid", "global-hybrid")
# The settable fields of RefinementConfig; its order N is the run's order.
REFINE_KEYS = tuple(name for name in RefinementConfig.__dataclass_fields__ if name != "N")
OUTPUT_KEYS = ("report", "trace", "events")
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
    reference: float | None = None
    refine: dict = field(default_factory=dict)
    problem_params: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise UsageError(f"a config must be an object, got {raw!r}")
        known = {f for f in cls.__dataclass_fields__}
        for key in raw:
            if key not in known:
                raise UsageError(f"unknown config field {key!r}")
        for required in ("problem", "method", "seed"):
            if required not in raw:
                raise UsageError(f"missing required config field {required!r}")
        for key in ("refine", "problem_params", "output"):
            if not isinstance(raw.get(key, {}), dict):
                raise UsageError(f"field {key!r} must be an object")
        refine, output = raw.get("refine", {}), raw.get("output", {})
        unknown = sorted(set(refine) - set(REFINE_KEYS))
        if unknown:
            raise UsageError(f"unknown refine key(s) {unknown}; accepted keys: {', '.join(REFINE_KEYS)}")
        unknown = sorted(set(output) - set(OUTPUT_KEYS))
        if unknown:
            raise UsageError(f"unknown output key(s) {unknown}; accepted keys: {', '.join(OUTPUT_KEYS)}")
        named: dict[str, str] = {}
        for key, path in output.items():
            if not (isinstance(path, str) and path):
                raise UsageError(f"field 'output.{key}' must be a nonempty path, got {path!r}")
            other = named.setdefault(os.path.realpath(path), key)
            if other != key:
                raise UsageError(f"fields 'output.{other}' and 'output.{key}' name the same file {path!r}")
        raw = dict(raw)
        for key in ("seed", "m", "order", "delta_m"):
            if raw.get(key) is not None:
                raw[key] = _integer(key, raw[key])
        if refine.get("max_elements") is not None:
            raw["refine"] = {**refine, "max_elements": _integer("refine.max_elements", refine["max_elements"])}
        cfg = cls(**raw)
        if not (isinstance(cfg.problem, str) and cfg.problem in prob.PROBLEMS):
            raise UsageError(f"unknown problem {cfg.problem!r}; choose from {sorted(prob.PROBLEMS)}")
        if cfg.method not in METHODS:
            raise UsageError(f"unknown method {cfg.method!r}; choose from {METHODS}")
        # only the iterative walks read delta_m and eta_stop: direct-hybrid's band is one block
        iterative = cfg.method not in ("mc", "direct-hybrid")
        if cfg.delta_m is None and iterative:
            cfg.delta_m = prob.PROBLEMS[cfg.problem].defaults["delta_m"]
        splits = cfg.method in ("me-gha", "me-lha") and "theta1" in prob.PROBLEMS[cfg.problem].defaults
        if cfg.refine and not splits:
            raise UsageError(f"field 'refine' must be empty: method {cfg.method!r} on problem {cfg.problem!r} "
                             "does not refine")
        if cfg.method == "direct-hybrid" and cfg.gamma is None:
            raise UsageError("field 'gamma' is required for the direct-hybrid method")
        # step's multi-element surrogate is exact and has no order
        reads_order = cfg.method != "mc" and (cfg.problem != "step" or cfg.method in GLOBAL_METHODS)
        if reads_order and cfg.order is None:
            raise UsageError("field 'order' is required for surrogate methods")
        given = {**raw, **{f"output.{key}": path for key, path in output.items()}}
        unread = {"order": not reads_order, "gamma": cfg.method != "direct-hybrid", "eta_stop": not iterative,
                  "output.trace": cfg.method == "mc", "output.events": not splits, "delta_m": not iterative}
        for key, skipped in unread.items():
            if skipped and given.get(key) is not None:
                raise UsageError(f"field {key!r} is not used by method {cfg.method!r} on problem {cfg.problem!r}")
        if cfg.reference is not None and not _positive_finite(cfg.reference):
            raise UsageError(f"field 'reference' must be a positive finite number, got {cfg.reference!r}")
        max_order = prob.PROBLEMS[cfg.problem].max_order
        if cfg.order is not None and cfg.order < 0:
            raise UsageError(f"field 'order' must be nonnegative, got {cfg.order}")
        if cfg.order is not None and max_order is not None and cfg.order > max_order:
            raise UsageError(f"field 'order' must be at most {max_order} for problem {cfg.problem!r}")
        if not isinstance(cfg.seed, int) or not 0 <= cfg.seed < 2**128:
            raise UsageError("field 'seed' must be a nonnegative integer less than 2**128")
        if cfg.m is None or cfg.m < 1:
            raise UsageError(f"field 'm' must be an integer of at least one, got {cfg.m!r}")
        if iterative and cfg.delta_m > cfg.m:
            raise UsageError(f"step size delta_m = {cfg.delta_m} exceeds the sample count m = {cfg.m}")
        return cfg


def _integer(name: str, value) -> int:
    """An integer field's value: an int (not a bool) or an integral float, else a usage error."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise UsageError(f"field {name!r} must be an integer, got {value!r}")


def _prepare(cfg: RunConfig):
    """The model and settings a run makes before it samples; a bad value among them is a usage error.

    Returns the run's one exact model, which the surrogate build and the estimate both call, and
    the hybrid and refinement settings (None where unused).  A global run's
    refinement never splits (theta1 = inf), so its surrogate is a one-element mesh."""
    spec = prob.PROBLEMS[cfg.problem]
    refines = cfg.method != "mc" and "theta1" in spec.defaults
    try:
        model = spec.make_model(**cfg.problem_params)
        hycfg = None if cfg.method == "mc" else HybridConfig(
            delta_m=cfg.delta_m, eta_stop=cfg.eta_stop, gamma=cfg.gamma)
        rcfg = None if not refines else RefinementConfig(
            **{"theta1": math.inf if cfg.method in GLOBAL_METHODS else spec.defaults["theta1"], **cfg.refine},
            N=cfg.order)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid configuration: {exc}") from exc
    return model, hycfg, rcfg


def _check_output_path(name: str, path: str) -> None:
    """A usage error, raised before any work, for an output path that cannot be opened for writing
    because it is a directory or its directory does not exist; no file is created."""
    if os.path.isdir(path):
        raise UsageError(f"{name} {path!r} is a directory")
    parent = os.path.dirname(path) or os.curdir
    if not os.path.isdir(parent):
        raise UsageError(f"{name} {path!r}: directory {parent!r} does not exist")


def run(cfg: RunConfig) -> dict:
    """Execute one configured estimation and return the report dictionary.

    Runs in one process at the same m, dimension and seed share one sample
    set (see ``sample_uniform``), so ``timings.sample_s`` is near zero for
    every run after the first.  Each run still builds its own surrogate and
    evaluates and counts its own exact calls.
    """
    t0 = time.perf_counter()
    spec = prob.PROBLEMS[cfg.problem]
    model, hycfg, rcfg = _prepare(cfg)
    out = cfg.output or {}
    for key, path in out.items():
        _check_output_path(f"output.{key}", path)
    clock = time.perf_counter()
    samples = sample_uniform(cfg.m, model.dim, cfg.seed)
    timings = {"sample_s": time.perf_counter() - clock, "build_s": 0.0}
    trace: HybridTrace | None = None
    surr = None
    events: list = []
    if cfg.method != "mc":
        clock = time.perf_counter()
        surr = spec.build_surrogate(model, cfg.order, rcfg, events)
        timings["build_s"] = time.perf_counter() - clock
    n_exact_build = model.call_count
    clock = time.perf_counter()
    if cfg.method == "mc":
        est = mc_estimate(model, samples)
    elif cfg.method == "me-lha":
        est, trace = me_lha(model, surr, samples, hycfg)
    else:
        est, trace = iterative_hybrid(model, surr, samples, hycfg)
    timings["estimate_s"] = time.perf_counter() - clock
    timings.update(est.timings)
    timings["exact_s"] = model.exact_s
    # the registry's reference is P_f at the problem's default parameters and at no others
    if cfg.reference is not None:
        reference, reference_tag = cfg.reference, "configured"
    elif {**spec.parameters, **cfg.problem_params} == spec.parameters:
        reference, reference_tag = spec.reference_p_f, spec.reference_tag
    else:
        reference, reference_tag = None, "none"
    report = {
        "problem": cfg.problem,
        "method": cfg.method,
        "estimate": est.p_f,
        "stddev": est.stddev,
        "n_exact": est.n_exact,
        "n_exact_build": n_exact_build,
        "n_surrogate": est.n_surrogate,
        "surrogate_estimate": est.surrogate_estimate,
        "n_elements": 0 if surr is None else len(surr),
        "truncated": surr is not None and surr.truncated,
        "reference": reference,
        "reference_tag": reference_tag,
        "relative_error": None if reference is None else relative_error(est.p_f, reference),
        "model_calls_total": model.call_count,
        "wall_time_s": time.perf_counter() - t0,
        "timings": timings,
        "config": asdict(cfg),
    }
    if out.get("report"):
        with open(out["report"], "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if out.get("trace"):
        trace.to_csv(out["trace"])
    if out.get("events"):
        write_events_csv(events, out["events"])
    return report


# ---------------------------------------------------------------------------
# benchmark tables

# Published element counts of the three-mode meshes, shared by tables 3 and 4.
KO_ELEMENTS = {(3, 1e-2): 22, (3, 1e-3): 38, (3, 1e-4): 58,
               (5, 1e-2): 12, (5, 1e-3): 22, (5, 1e-4): 30,
               (7, 1e-2): 10, (7, 1e-3): 16, (7, 1e-4): 26}

# The runs of tables 2 and 5: the global surrogate, ME-GHA and ME-LHA at each order.
GLOBAL_GHA_LHA_RUNS = (("global-hybrid", (("global_exact_calls", "model_calls_total"),)),
                       ("me-gha", (("elements", "n_elements"), ("me_gha_exact_calls", "model_calls_total"))),
                       ("me-lha", (("me_lha_exact_calls", "model_calls_total"),)))

# Published benchmark results the table command reproduces side by side.  Each table names
# its runs, one per method, and the rows each run fills as (metric, report field) pairs; a
# metric's published values are keyed by order, or by (order, tol) where the table has tols.
# A table's exact calls are the run's model_calls_total: the hybrid's calls plus the build's.
REFERENCE_TABLES = {
    1: {
        "problem": "step",
        "orders": (0, 2, 7),
        "runs": (("global-hybrid", (("surrogate_estimate", "surrogate_estimate"),
                                    ("hybrid_exact_calls", "model_calls_total"),
                                    ("hybrid_estimate", "estimate"))),),
        "published": {
            "surrogate_estimate": {0: 0.833187, 2: 0.773777, 7: 0.756490},
            "hybrid_exact_calls": {0: 502_000, 2: 502_000, 7: 502_000},
        },
    },
    2: {
        "problem": "linear-ode",
        "orders": (3, 5, 7),
        "runs": GLOBAL_GHA_LHA_RUNS,
        "published": {
            "global_exact_calls": {3: 105_000, 5: 54_700, 7: 31_600},
            "elements": {3: 5, 5: 5, 7: 4},
            "me_gha_exact_calls": {3: 3_700, 5: 3_700, 7: 900},
            "me_lha_exact_calls": {3: 4_100, 5: 4_100, 7: 1_200},
        },
    },
    3: {
        "problem": "ko3",
        "orders": (3, 5, 7),
        "tols": (1e-2, 1e-3, 1e-4),
        "runs": (("me-gha", (("elements", "n_elements"), ("me_gha_exact_calls", "model_calls_total"),
                             ("relative_error", "relative_error"))),),
        "published": {
            "elements": KO_ELEMENTS,
            "me_gha_exact_calls": {(3, 1e-2): 6900, (3, 1e-3): 500, (3, 1e-4): 200,
                                   (5, 1e-2): 3900, (5, 1e-3): 200, (5, 1e-4): 200,
                                   (7, 1e-2): 1400, (7, 1e-3): 2200, (7, 1e-4): 300},
            "relative_error": {(3, 1e-2): 0.0006, (3, 1e-3): 0.0016, (3, 1e-4): 0.00015,
                               (5, 1e-2): 0.00012, (5, 1e-3): 0.0014, (5, 1e-4): 0.00021,
                               (7, 1e-2): 0.0033, (7, 1e-3): 0.00038, (7, 1e-4): 0.0},
        },
    },
    4: {
        "problem": "ko3",
        "orders": (3, 5, 7),
        "tols": (1e-2, 1e-3, 1e-4),
        "runs": (("me-lha", (("elements", "n_elements"), ("me_lha_exact_calls", "model_calls_total"))),),
        "published": {
            "elements": KO_ELEMENTS,
            "me_lha_exact_calls": {(3, 1e-2): 12245, (3, 1e-3): 4700, (3, 1e-4): 6029,
                                   (5, 1e-2): 3400, (5, 1e-3): 3000, (5, 1e-4): 3400,
                                   (7, 1e-2): 2900, (7, 1e-3): 2200, (7, 1e-4): 2800},
        },
    },
    5: {
        "problem": "burgers",
        "orders": (2, 3, 4, 5),
        "runs": GLOBAL_GHA_LHA_RUNS,
        "published": {
            "global_exact_calls": {2: 101_921, 3: 62_921, 4: 23_421, 5: 3_921},
            "elements": {2: 9, 3: 7, 4: 6, 5: 5},
            "me_gha_exact_calls": {2: 1_757, 3: 573, 4: 431, 5: 389},
            "me_lha_exact_calls": {2: 2_557, 3: 1_173, 4: 931, 5: 799},
        },
    },
}


def table(n: int, overrides: dict | None = None) -> list[list]:
    """Recompute one benchmark table; rows carry computed and published values side by side."""
    if n not in REFERENCE_TABLES:
        raise UsageError(f"table number must be one of {sorted(REFERENCE_TABLES)}")
    overrides = overrides or {}
    unknown = sorted(set(overrides) - set(TABLE_KEYS))
    if unknown:
        raise UsageError(f"unknown table override(s) {unknown}; accepted keys: {', '.join(TABLE_KEYS)}")
    ref = REFERENCE_TABLES[n]
    rows: list[list] = [["metric", "order", "tol", "computed", "published", "abs_diff"]]
    for order in ref["orders"]:
        for tol in ref.get("tols", (None,)):
            for method, fills in ref["runs"]:
                rep = run(RunConfig.from_dict(dict(
                    problem=ref["problem"], method=method, seed=overrides.get("seed", 42),
                    m=overrides.get("m", 1_000_000), order=order, delta_m=overrides.get("delta_m"),
                    refine={} if tol is None else {"theta1": tol})))
                for metric, key in fills:
                    published = ref["published"].get(metric, {}).get(order if tol is None else (order, tol))
                    diff = "" if published is None else abs(rep[key] - published)
                    rows.append([metric, order, "" if tol is None else tol, rep[key], published, diff])
    return rows


def _write_csv(rows: list[list], path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


# ---------------------------------------------------------------------------
# validation suite


def validate() -> int:
    """Run the invariant suite; 0 when all pass, 2 otherwise."""
    failures = 0
    for name, fn in CHECKS:
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
            node = node.setdefault(part, {}) if isinstance(node, dict) else node
        if not isinstance(node, dict):
            raise UsageError(f"cannot set {key!r}: the config and every field on its path must be objects")
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

    sub.add_parser("validate", help="run the fast invariant suite")

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
            if args.out:
                _check_output_path("--out", args.out)
            rows = table(args.number, overrides)
            if args.out:
                _write_csv(rows, args.out)
                print(f"wrote {args.out}")
            else:
                for row in rows:
                    print(",".join(str(v) for v in row))
            return 0
        if args.command == "validate":
            return validate()
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, OSError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (RootSolveError, IntegrationError, ModelEvaluationError, DomainError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
