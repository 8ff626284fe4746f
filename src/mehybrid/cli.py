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

import numpy as np

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
from .polybasis import gauss_legendre, multi_index_set, triple_products
from .randomspace import (
    Decomposition,
    Element,
    check_partition,
    sample_uniform,
    split_element,
)
from .refine import (
    PolynomialOde,
    RefinementConfig,
    adapt_dynamic,
    adapt_static,
    dynamic_indicator,
    limit_state_surrogate,
    rk4_step,
    write_events_csv,
    _batched_rhs,
)
from .surrogate import (
    GpcExpansion,
    build_collocation,
    surrogate_from_json,
    surrogate_to_json,
)

METHODS = ("mc", "direct-hybrid", "global-hybrid", "me-gha", "me-lha")
REFINE_KEYS = ("theta1", "N0", "theta2", "alpha", "max_elements", "check_interval",
               "dt", "resolve_from_t0", "collocation_nodes")


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
        if cfg.method not in METHODS:
            raise UsageError(f"unknown method {cfg.method!r}; choose from {METHODS}")
        if cfg.method == "direct-hybrid" and cfg.gamma is None:
            raise UsageError("field 'gamma' is required for the direct-hybrid method")
        if cfg.method != "mc" and cfg.order is None and cfg.problem != "step":
            raise UsageError("field 'order' is required for surrogate methods")
        if not isinstance(cfg.seed, int) or cfg.seed < 0:
            raise UsageError("field 'seed' must be a nonnegative integer")
        return cfg


def _refine_config(cfg: RunConfig, defaults: dict, order: int) -> RefinementConfig:
    opts = {**defaults, **cfg.refine}
    if opts.get("theta1") is None:
        raise UsageError("field 'refine.theta1' is required")
    return RefinementConfig(
        theta1=float(opts["theta1"]),
        N=order,
        N0=opts.get("N0"),
        theta2=float(opts.get("theta2", 0.1)),
        alpha=float(opts.get("alpha", 0.5)),
        max_elements=int(opts.get("max_elements", 256)),
        check_interval=opts.get("check_interval"),
    )


def _load_cache(path: str):
    with open(path) as fh:
        text = fh.read()
    try:
        return surrogate_from_json(text)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed surrogate cache {path}: {exc!r}") from exc


def _build_surrogate(cfg: RunConfig, model):
    """Build (or load) the surrogate a non-mc method needs.

    Returns (surrogate, n_elements, build_calls, truncated, events).
    """
    spec = prob.PROBLEMS[cfg.problem]
    defaults = dict(spec.defaults)
    params = {**spec.parameters, **cfg.problem_params}
    events: list = []
    if cfg.surrogate_cache:
        surr = _load_cache(cfg.surrogate_cache)
        issues = check_partition(surr.decomposition)
        if issues:
            raise UsageError("cached surrogate is not a valid partition: " + "; ".join(issues))
        return surr, len(surr), 0, surr.truncated, events
    name, method, order = cfg.problem, cfg.method, cfg.order
    global_only = method in ("global-hybrid", "direct-hybrid")
    if name == "step":
        if global_only:
            if order is None:
                raise UsageError("field 'order' (half-order p) is required for the step global surrogate")
            return prob.step_global_gpc(order), 1, 0, False, events
        surr = prob.step_me_exact()
        return surr, len(surr), 0, False, events
    if name in ("linear-ode", "ko3"):
        dt = float(cfg.refine.get("dt", defaults.get("dt", 0.01)))
        if name == "linear-ode":
            system = prob.ode_galerkin_system(order, u0=params["u0"], mu=params["mu"], sigma=params["sigma"])
            T, offset = params["T"], -params["u_d"]
        else:
            system = prob.ko_galerkin_system()
            T, offset = params["T"], -params["u_d"]
        rcfg = _refine_config(cfg, defaults, order)
        if global_only:
            rcfg.theta1 = math.inf
        status: dict = {}
        dec, states = adapt_dynamic(
            system, rcfg, T=T, dt=dt,
            resolve_from_t0=bool(cfg.refine.get("resolve_from_t0", False)),
            event_log=events, status=status,
        )
        surr = limit_state_surrogate(dec, states, var=0, offset=offset, truncated=status.get("truncated", False))
        return surr, len(surr), 0, surr.truncated, events
    if name == "burgers":
        q = int(cfg.refine.get("collocation_nodes", defaults.get("collocation_nodes", 21)))
        if global_only:
            exp = build_collocation(model, Element.box([-1.0], [1.0]), order, q)
            return exp, 1, model.call_count, False, events
        rcfg = _refine_config(cfg, defaults, order)
        surr = adapt_static(model, rcfg, order=order, q=q, event_log=events)
        return surr, len(surr), model.call_count, surr.truncated, events
    raise UsageError(f"no surrogate builder for problem {cfg.problem!r}")


def run(cfg: RunConfig) -> dict:
    """Execute one configured estimation and return the report dictionary."""
    t0 = time.perf_counter()
    spec = prob.PROBLEMS[cfg.problem]
    params = {**spec.parameters, **cfg.problem_params}
    model = spec.make_model(**params)
    build_model = spec.make_model(**params)
    samples = sample_uniform(cfg.m, model.dim, cfg.seed)
    delta_m = cfg.delta_m if cfg.delta_m is not None else spec.defaults.get("delta_m", 100)
    trace: HybridTrace | None = None
    n_elements = 0
    build_calls = 0
    truncated = False
    events: list = []
    if cfg.method == "mc":
        est = mc_estimate(model, samples)
    else:
        surr, n_elements, build_calls, truncated, events = _build_surrogate(cfg, build_model)
        hycfg = HybridConfig(delta_m=delta_m, eta_stop=cfg.eta_stop, max_exact=cfg.max_exact, m=cfg.m)
        if cfg.method == "direct-hybrid":
            est = direct_hybrid(model, surr, samples, cfg.gamma)
        elif cfg.method == "global-hybrid":
            est, trace = iterative_hybrid(model, surr, samples, hycfg)
        elif cfg.method == "me-gha":
            est, trace = me_gha(model, surr, samples, hycfg)
        else:
            est, trace = me_lha(model, surr, samples, hycfg)
    reference = cfg.reference if cfg.reference is not None else spec.reference_p_f
    report = {
        "problem": cfg.problem,
        "method": cfg.method,
        "estimate": est.p_f,
        "stddev": est.stddev,
        "n_exact": est.n_exact,
        "n_exact_build": build_calls,
        "n_surrogate": est.n_surrogate,
        "n_elements": n_elements,
        "truncated": truncated,
        "reference": reference,
        "reference_tag": spec.reference_tag if cfg.reference is None else "configured",
        "relative_error": relative_error(est.p_f, reference) if reference > 0 else None,
        "model_calls_total": model.call_count + build_calls,
        "wall_time_s": time.perf_counter() - t0,
        "config": _config_echo(cfg),
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


def _config_echo(cfg: RunConfig) -> dict:
    echo = asdict(cfg)
    echo["delta_m"] = cfg.delta_m if cfg.delta_m is not None else prob.PROBLEMS[cfg.problem].defaults.get("delta_m", 100)
    return echo


# ---------------------------------------------------------------------------
# benchmark tables

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
            "elements": {(3, 1e-2): 22, (3, 1e-3): 38, (3, 1e-4): 58,
                         (5, 1e-2): 12, (5, 1e-3): 22, (5, 1e-4): 30,
                         (7, 1e-2): 10, (7, 1e-3): 16, (7, 1e-4): 26},
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
            "elements": {(3, 1e-2): 22, (3, 1e-3): 38, (3, 1e-4): 58,
                         (5, 1e-2): 12, (5, 1e-3): 22, (5, 1e-4): 30,
                         (7, 1e-2): 10, (7, 1e-3): 16, (7, 1e-4): 26},
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
    refine: dict = {}
    if tol is not None:
        refine["theta1"] = tol
    cfg = RunConfig(problem=problem, method=method, seed=seed, m=m, order=order,
                    delta_m=delta_m, refine=refine)
    return run(cfg)


def table(n: int, overrides: dict | None = None) -> list[list]:
    """Recompute one benchmark table; rows carry computed and published values side by side."""
    if n not in REFERENCE_TABLES:
        raise UsageError(f"table number must be one of {sorted(REFERENCE_TABLES)}")
    overrides = overrides or {}
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
            cfg = RunConfig(problem=problem, method="direct-hybrid", seed=seed, m=m,
                            order=p, gamma=0.0, delta_m=delta_m)
            rep_direct = run(cfg)
            add("surrogate_estimate", p, None, rep_direct["estimate"],
                ref["rows"]["surrogate_estimate"][p])
            rep = _run_cell(problem, "global-hybrid", p, seed, m, delta_m)
            add("hybrid_exact_calls", p, None, rep["n_exact"], ref["rows"]["hybrid_exact_calls"][p])
            add("hybrid_estimate", p, None, rep["estimate"], None)
    elif n == 2:
        for p in ref["orders"]:
            rep_g = _run_cell(problem, "global-hybrid", p, seed, m, delta_m)
            add("global_exact_calls", p, None, rep_g["n_exact"], ref["rows"]["global_exact_calls"][p])
            rep_a = _run_cell(problem, "me-gha", p, seed, m, delta_m)
            add("elements", p, None, rep_a["n_elements"], ref["rows"]["elements"][p])
            add("me_gha_exact_calls", p, None, rep_a["n_exact"], ref["rows"]["me_gha_exact_calls"][p])
            rep_l = _run_cell(problem, "me-lha", p, seed, m, delta_m)
            add("me_lha_exact_calls", p, None, rep_l["n_exact"], ref["rows"]["me_lha_exact_calls"][p])
    elif n in (3, 4):
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
    else:
        for p in ref["orders"]:
            rep_g = _run_cell(problem, "global-hybrid", p, seed, m, delta_m)
            add("global_exact_calls", p, None, rep_g["n_exact"] + rep_g["n_exact_build"],
                ref["rows"]["global_exact_calls"][p])
            rep_a = _run_cell(problem, "me-gha", p, seed, m, delta_m)
            add("elements", p, None, rep_a["n_elements"], ref["rows"]["elements"][p])
            add("me_gha_exact_calls", p, None, rep_a["n_exact"] + rep_a["n_exact_build"],
                ref["rows"]["me_gha_exact_calls"][p])
            rep_l = _run_cell(problem, "me-lha", p, seed, m, delta_m)
            add("me_lha_exact_calls", p, None, rep_l["n_exact"] + rep_l["n_exact_build"],
                ref["rows"]["me_lha_exact_calls"][p])
    return rows


def _write_csv(rows: list[list], path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


# ---------------------------------------------------------------------------
# validation suite


def _check_orthonormality() -> tuple[bool, str]:
    from .polybasis import basis_matrix
    from .surrogate import tensor_grid

    worst = 0.0
    for d, n in ((1, 8), (2, 6), (3, 4)):
        pts, w = tensor_grid(n + 2, d)
        phi = basis_matrix(multi_index_set(d, n), pts)
        gram = phi.T @ (w[:, None] * phi)
        worst = max(worst, float(np.max(np.abs(gram - np.eye(gram.shape[0])))))
    return worst < 1e-12, f"gram deviation {worst:.2e}"


def _check_quadrature() -> tuple[bool, str]:
    worst = 0.0
    for q in range(1, 10):
        rule = gauss_legendre(q)
        for k in range(0, 2 * q - 1, 2):
            exact = 1.0 / (k + 1)
            got = float(np.sum(rule.weights * rule.nodes**k))
            worst = max(worst, abs(got - exact) / exact)
    return worst < 1e-13, f"moment error {worst:.2e}"


def _check_partition() -> tuple[bool, str]:
    rng = np.random.default_rng(5)
    dec = Decomposition.whole_domain(2)
    elements = list(dec.elements)
    for _ in range(25):
        k = int(rng.integers(len(elements)))
        dims = set(rng.choice(2, size=int(rng.integers(1, 3)), replace=False).tolist())
        elements[k : k + 1] = split_element(elements[k], dims)
    issues = check_partition(Decomposition(tuple(elements)))
    return not issues, issues[0] if issues else f"{len(elements)} elements"


def _check_hybrid_exhaustion() -> tuple[bool, str]:
    from .surrogate import CallableModel

    m = 5000
    samples = sample_uniform(m, 1, 11)
    model = CallableModel(lambda z: 1.0, fn_many=lambda Z: np.ones(len(Z)))
    est, _ = iterative_hybrid(model, lambda Z: -np.ones(len(Z)), samples,
                              HybridConfig(delta_m=300))
    ok = est.p_f == 0.0 and est.n_exact == m
    return ok, f"estimate {est.p_f}, n_exact {est.n_exact}/{m}"


def _check_linear_closure() -> tuple[bool, str]:
    system = PolynomialOde(
        n_state=2, dim=1,
        initial=lambda pts: np.stack([np.ones(pts.shape[0]), pts[:, 0]]),
        linear=((0, -1.0, 0), (0, 0.5, 1), (1, -0.25, 1)),
    )
    dense = triple_products(1, 5).dense
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10):
        c = rng.normal(size=(1, 2, 6))
        full = _batched_rhs(system, c, dense, {})
        red = _batched_rhs(system, c[:, :, :4], dense, {})
        q, _ = dynamic_indicator(full[0], red[0], c[0], dim=1)
        worst = max(worst, q)
    return worst < 1e-10, f"max Q {worst:.2e}"


def _check_ko_invariants() -> tuple[bool, str]:
    rng = np.random.default_rng(9)
    xi = rng.uniform(-1, 1, size=10)
    y = prob.ko_trajectory(xi, 15.0, 0.01)
    drift = float(np.max(np.abs(y[0] * y[1] - 0.1 * xi)))
    y_neg = prob.ko_trajectory(-xi, 15.0, 0.01)
    sym = float(np.max(np.abs(y[0] - y_neg[0])))
    return drift < 1e-8 and sym < 1e-10, f"conservation {drift:.2e}, symmetry {sym:.2e}"


def _check_burgers_residuals() -> tuple[bool, str]:
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(50):
        delta = float(rng.uniform(0, 0.1))
        nu = float(rng.uniform(0.02, 0.1))
        z, a = prob.burgers_transition_z(delta, nu, return_amplitude=True)
        f1, f2 = prob._tanh_system(a, z, delta, nu)
        worst = max(worst, math.hypot(f1, f2))
    return worst < 1e-12, f"max residual {worst:.2e}"


def _check_rk4_order() -> tuple[bool, str]:
    def err(h: float) -> float:
        y, t = 1.0, 0.0
        for _ in range(round(1.0 / h)):
            y = rk4_step(lambda _t, v: -v, y, t, h)
            t += h
        return abs(y - math.exp(-1.0))

    ratio = err(0.02) / err(0.01)
    return 12.0 <= ratio <= 20.0, f"error ratio {ratio:.2f}"


def _check_cache(surr) -> tuple[bool, str]:
    issues = check_partition(surr.decomposition)
    return not issues, issues[0] if issues else f"{len(surr)} elements ok"


def validate(cache: str | None = None) -> int:
    checks = [
        ("orthonormality", _check_orthonormality),
        ("quadrature-exactness", _check_quadrature),
        ("partition-of-unity", _check_partition),
        ("hybrid-exhaustion", _check_hybrid_exhaustion),
        ("linear-closure", _check_linear_closure),
        ("ko-invariants", _check_ko_invariants),
        ("burgers-residuals", _check_burgers_residuals),
        ("rk4-order", _check_rk4_order),
    ]
    if cache:
        surr = _load_cache(cache)
        checks.append(("surrogate-cache", lambda: _check_cache(surr)))
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
                defaults = {"step": 0, "linear-ode": 5, "ko3": 5, "burgers": 3}
                raw["order"] = defaults[args.problem]
            cfg = RunConfig.from_dict(raw)
            spec = prob.PROBLEMS[cfg.problem]
            model = spec.make_model(**{**spec.parameters, **cfg.problem_params})
            surr, n_elem, build_calls, truncated, events = _build_surrogate(cfg, model)
            if isinstance(surr, GpcExpansion):
                raise UsageError("refine builds multi-element surrogates; got a single expansion")
            with open(args.cache, "w") as fh:
                fh.write(surrogate_to_json(surr))
            print(f"wrote {args.cache}: {n_elem} elements, {build_calls} build calls")
            return 0
        if args.command == "validate":
            return validate(args.cache)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (RootSolveError, IntegrationError, ModelEvaluationError, DomainError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
