"""Span tracing of the package's layers, installed from outside the package.

``install`` wraps each public function below at every module attribute that
is bound to it, and ``LimitStateModel.evaluate_many`` on its class, so calls
are caught whichever module makes them.  Each call records one span
``[name, start, end, parent, run_id, count, extra]`` in memory; ``layer_metrics``
turns the spans of one pass into the per-layer metrics.
"""
from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (span name, home module, attribute); the span name's prefix is the layer.
TARGETS = (
    ("randomspace.sample", "randomspace", "sample_uniform"),
    ("randomspace.locate", "randomspace", "locate_many"),
    ("polybasis.basis_matrix", "polybasis", "basis_matrix"),
    ("surrogate.eval", "surrogate", "eval_me_surrogate_many"),
    ("surrogate.eval", "surrogate", "eval_expansion_many"),
    ("surrogate.collocation", "surrogate", "build_collocation"),
    ("refine.dynamic", "refine", "adapt_dynamic"),
    ("refine.static", "refine", "adapt_static"),
    ("refine.rk4_step", "refine", "rk4_step"),
    ("estimator.mc", "estimator", "mc_estimate"),
    ("estimator.hybrid", "estimator", "direct_hybrid"),
    ("estimator.hybrid", "estimator", "iterative_hybrid"),
    ("estimator.hybrid", "estimator", "me_gha"),
    ("estimator.hybrid", "estimator", "me_lha"),
    ("cli.run", "cli", "run"),
)
EXACT = "problems.evaluate_many"

NAME, START, END, PARENT, RUN, COUNT, EXTRA = range(7)

# Ladder for the tail percentile of block latency: the highest with ten calls above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rows(out) -> int:
    if isinstance(out, tuple):  # adapt_dynamic returns (decomposition, states)
        out = out[0]
    return len(out) if hasattr(out, "__len__") else getattr(out, "m", 0)


def _flips(out) -> tuple[int, int]:
    """(sum of |net failure-count change| per block, exact calls in blocks) from a hybrid trace."""
    if not isinstance(out, tuple):  # direct_hybrid returns no trace
        return 0, 0
    est, trace = out
    m = est.n_surrogate
    flips = calls = 0
    prev = None
    for rec in trace.records:
        if rec.iteration > 0 and prev is not None:
            flips += abs(round((rec.estimate - prev.estimate) * m))
            calls += rec.n_exact - prev.n_exact
        prev = rec
    return flips, calls


class Tracer:
    """In-memory span recorder; ``run_id`` is set by the caller for each config."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run_id = -1
        self.bindings: dict[str, int] = {}

    def wrap(self, name: str, fn, count=_rows, extra=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = kwargs.get("event_log")
            before = len(log) if log is not None else 0
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.run_id, 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            span[COUNT] = count(out)
            if extra is not None:
                span[EXTRA] = extra(out)
            elif log is not None:
                span[EXTRA] = len(log) - before
            return out

        return traced

    def install(self) -> None:
        """Wrap every binding of every target in the loaded ``mehybrid`` modules."""
        from mehybrid import surrogate

        modules = [m for key, m in sorted(sys.modules.items()) if key == "mehybrid" or key.startswith("mehybrid.")]
        for span_name, home, attr in TARGETS:
            original = getattr(sys.modules[f"mehybrid.{home}"], attr)
            extra = _flips if span_name == "estimator.hybrid" else None
            traced = self.wrap(span_name, original, extra=extra)
            hits = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                        hits += 1
            self.bindings[f"{home}.{attr}"] = hits
        pending = [surrogate.LimitStateModel]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "evaluate_many" in vars(cls):
                cls.evaluate_many = self.wrap(EXACT, cls.evaluate_many)
                self.bindings[f"{cls.__module__}.{cls.__name__}.evaluate_many"] = 1


class _Index:
    """Parent links of one span list, with helpers for inclusive and self time."""

    def __init__(self, spans: list[list]):
        self.spans = spans

    def dur(self, s) -> float:
        return s[END] - s[START]

    def ancestor(self, s, names) -> list | None:
        """Nearest ancestor whose name is in ``names``."""
        p = s[PARENT]
        while p >= 0:
            if self.spans[p][NAME] in names:
                return self.spans[p]
            p = self.spans[p][PARENT]
        return None

    def outermost(self, names) -> list[list]:
        return [s for s in self.spans if s[NAME] in names and self.ancestor(s, names) is None]

    def under(self, names, within) -> list[list]:
        """Spans named in ``names`` with an ancestor in ``within``."""
        return [s for s in self.spans if s[NAME] in names and self.ancestor(s, within) is not None]

    def self_time(self, names, minus) -> float:
        """Time of the outermost ``names`` spans not covered by ``minus`` spans below them."""
        total = sum(self.dur(s) for s in self.outermost(names))
        both = set(names) | set(minus)
        covered = 0.0
        for s in self.spans:
            if s[NAME] in minus:
                hit = self.ancestor(s, both)
                if hit is not None and hit[NAME] in names:
                    covered += self.dur(s)
        return total - covered


def _tail(values_ms: list[float]) -> tuple[float, float]:
    n = len(values_ms)
    if n == 0:
        return 0.0, 0.0
    q = next((q for q in TAIL_LADDER if n * (1.0 - q / 100.0) >= 10), TAIL_LADDER[-1])
    return float(np.percentile(values_ms, q)), q


def layer_metrics(spans: list[list], pass_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (values only; units live in BENCHMARK.json)."""
    ix = _Index(spans)
    everything = {name for name, _, _ in TARGETS} | {EXACT}
    dur = ix.dur

    def total(name) -> float:
        return sum(dur(s) for s in ix.outermost({name}))

    def count(name) -> int:
        return sum(s[COUNT] for s in ix.outermost({name}))

    out: dict[str, float] = {}
    locate_s, located = total("randomspace.locate"), count("randomspace.locate")
    out["randomspace.sample_s"] = total("randomspace.sample")
    out["randomspace.locate_s"] = locate_s
    out["randomspace.points_located"] = located
    out["randomspace.locate_ns_per_point"] = 1e9 * locate_s / located if located else 0.0
    out["polybasis.basis_matrix_s"] = total("polybasis.basis_matrix")
    out["polybasis.basis_rows"] = count("polybasis.basis_matrix")

    out["surrogate.eval_self_s"] = ix.self_time({"surrogate.eval"}, everything - {"surrogate.eval"})
    out["surrogate.points_evaluated"] = count("surrogate.eval")
    out["surrogate.collocation_s"] = total("surrogate.collocation")
    out["surrogate.collocation_calls"] = sum(s[COUNT] for s in ix.under({EXACT}, {"surrogate.collocation"}))

    build = {"refine.dynamic", "refine.static"}
    out["refine.dynamic_s"] = total("refine.dynamic")
    out["refine.static_s"] = total("refine.static")
    out["refine.rk4_steps"] = len(ix.under({"refine.rk4_step"}, {"refine.dynamic"}))
    out["refine.n_elements"] = sum(s[COUNT] for s in ix.outermost(build))
    out["refine.splits"] = sum(s[EXTRA] or 0 for s in ix.outermost(build))

    exact = ix.outermost({EXACT})
    exact_s, exact_calls = sum(dur(s) for s in exact), sum(s[COUNT] for s in exact)
    blocks = ix.under({EXACT}, {"estimator.hybrid"})
    block_ms = [1e3 * dur(s) for s in blocks]
    tail, tail_q = _tail(block_ms)
    out["problems.exact_s"] = exact_s
    out["problems.exact_calls"] = exact_calls
    out["problems.exact_us_per_call"] = 1e6 * exact_s / exact_calls if exact_calls else 0.0
    out["problems.exact_batches"] = len(exact)
    out["problems.rk4_steps"] = len(ix.under({"refine.rk4_step"}, {EXACT}))
    out["problems.block_ms_p50"] = float(np.median(block_ms)) if block_ms else 0.0
    out["problems.block_ms_tail"] = tail
    out["problems.block_tail_percentile"] = tail_q

    hybrid = ix.outermost({"estimator.hybrid"})
    flips = sum(s[EXTRA][0] for s in hybrid)
    flip_calls = sum(s[EXTRA][1] for s in hybrid)
    out["estimator.hybrid_s"] = sum(dur(s) for s in hybrid)
    out["estimator.self_s"] = ix.self_time(
        {"estimator.hybrid"},
        {n for n in everything if n.split(".")[0] in ("surrogate", "randomspace", "problems")},
    )
    out["estimator.blocks"] = len(blocks)
    out["estimator.flip_ratio"] = flips / flip_calls if flip_calls else 0.0

    runs = {i for i, s in enumerate(spans) if s[NAME] == "cli.run"}
    cli_self = pass_s - sum(dur(s) for s in spans if s[PARENT] in runs)
    out["cli.self_s"] = cli_self
    out["trace.unattributed_share"] = cli_self / pass_s if pass_s > 0 else 0.0
    return out


def write_spans(spans: list[list], path) -> None:
    """One CSV row per span: name, start, end, parent index, run id, count, extra."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "start", "end", "parent", "run_id", "count", "extra"])
        for s in spans:
            writer.writerow([s[NAME], repr(s[START]), repr(s[END]), s[PARENT], s[RUN], s[COUNT],
                             "" if s[EXTRA] is None else s[EXTRA]])
