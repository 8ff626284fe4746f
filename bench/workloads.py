"""Workload definitions, exact same-sample references and correctness gates.

Every workload is a list of ``RunConfig`` dictionaries built from the seed;
the program only ever sees those configs.  The gates and references here run
in the benchmark's parent process, outside every timed region.
"""
from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("ode-table2", "ko-gha", "ko-mc", "burgers")

# Published reference of the three-mode system (paper table 3, criterion 4).
KO_REFERENCE = 0.102651

# Sample counts per workload; the self-test passes smaller ones.
FULL_M = {"ode-table2": 1_000_000, "ko-gha": 1_000_000, "ko-mc": 65_536, "burgers": 200_000}


def configs(workload: str, seed: int, m: int | None = None) -> list[dict]:
    """The ``RunConfig`` dictionaries of one pass of the workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    m = FULL_M[workload] if m is None else m
    if workload == "ode-table2":
        return [
            {"problem": "linear-ode", "method": method, "seed": seed, "m": m, "order": p, "delta_m": 100}
            for p in (3, 5, 7)
            for method in ("global-hybrid", "me-gha", "me-lha")
        ]
    if workload == "ko-gha":
        return [
            {"problem": "ko3", "method": "me-gha", "seed": seed, "m": m, "order": p, "delta_m": 100,
             "refine": {"theta1": 1e-4}}
            for p in (3, 5)
        ]
    if workload == "ko-mc":
        return [{"problem": "ko3", "method": "mc", "seed": seed, "m": m}]
    hybrids = [
        {"problem": "burgers", "method": method, "seed": seed, "m": m, "order": p, "delta_m": 100,
         "refine": {"theta1": 0.01}}
        for method in ("me-gha", "me-lha")
        for p in (2, 5)
    ]
    return [{"problem": "burgers", "method": "mc", "seed": seed, "m": m}] + hybrids


class KoFailureSet:
    """Failure set {xi : g(xi) < 0} of the three-mode model, located by root bracketing.

    g is smooth in xi and changes sign only a few times on [-1, 1], so each
    sign change found on a fine grid is narrowed to a bracket a few ulps wide.
    A point is then classified by the parity of brackets to its left; points
    within ``margin`` of a bracket are evaluated with the exact model.  This
    gives the exact-model Monte Carlo count on a million samples in
    milliseconds instead of minutes.
    """

    def __init__(self, model, grid: int = 4001, sub: int = 64, rounds: int = 9, margin: float = 1e-9):
        self.model = model
        self.margin = margin
        x = np.linspace(-1.0, 1.0, grid)
        neg = model.evaluate_many(x[:, None]) < 0.0
        idx = np.flatnonzero(neg[:-1] != neg[1:])
        lo, hi = x[idx], x[idx + 1]
        frac = np.linspace(0.0, 1.0, sub + 1)
        rows = np.arange(idx.size)
        for _ in range(rounds):
            pts = lo[:, None] + (hi - lo)[:, None] * frac[None, :]
            sign = model.evaluate_many(pts.reshape(-1, 1)).reshape(pts.shape) < 0.0
            j = np.argmax(sign[:, 1:] != sign[:, :1], axis=1)
            lo, hi = pts[rows, j], pts[rows, j + 1]
        self.lo, self.hi = lo, hi
        self.neg_left = bool(neg[0])

    def count(self, xi) -> int:
        """Number of points with g < 0."""
        xi = np.asarray(xi, dtype=float).ravel()
        neg = (np.searchsorted(self.lo, xi, side="right") % 2 == 1) ^ self.neg_left
        near = np.zeros(xi.size, dtype=bool)
        for a, b in zip(self.lo, self.hi):
            near |= (xi >= a - self.margin) & (xi <= b + self.margin)
        if near.any():
            neg[near] = self.model.evaluate_many(xi[near, None]) < 0.0
        return int(np.count_nonzero(neg))


def reference(workload: str, cfgs: list[dict]) -> dict:
    """Exact-model Monte Carlo answer on the pass's own samples, where it is cheap.

    ``p_mc`` is None for burgers, whose pass computes its own Monte Carlo
    estimate.  Needs ``mehybrid`` importable.
    """
    from mehybrid.problems import PROBLEMS
    from mehybrid.randomspace import sample_uniform

    first = cfgs[0]
    if workload == "burgers":
        return {"p_mc": None}
    spec = PROBLEMS[first["problem"]]
    model = spec.make_model(**spec.parameters)
    points = sample_uniform(first["m"], model.dim, first["seed"]).points
    if workload == "ode-table2":
        fails = int((model.evaluate_many(points) < 0.0).sum())
    else:
        fails = KoFailureSet(model).count(points[:, 0])
    return {"p_mc": fails / first["m"]}


def same_sample_mc(workload: str, reports: list[dict], ref: dict) -> float | None:
    """The burgers pass's own Monte Carlo run, else the precomputed reference."""
    return reports[0].get("estimate") if workload == "burgers" else ref["p_mc"]


def rel_error(workload: str, cfgs: list[dict], reports: list[dict], ref: dict) -> float:
    """Largest relative error of the pass's estimates against the exact answer on
    the same samples, floored at one sample's weight 1/m.

    Against the analytic or published value the error is dominated by sampling
    noise and varies by more than its own size from seed to seed; on the same
    samples only the method's error is left, which is what a change to the
    program can move.  An estimate that matches to the last sample reports the
    resolution 1/m instead of 0.
    """
    p_mc = same_sample_mc(workload, reports, ref)
    return max(max(abs(r["estimate"] - p_mc), 1.0 / c["m"]) / p_mc for c, r in zip(cfgs, reports))


def gate(workload: str, cfgs: list[dict], reports: list[dict], ref: dict) -> list[str | None]:
    """One entry per config: None when the run passes its gate, else the reason."""
    out: list[str | None] = []
    p_mc = same_sample_mc(workload, reports, ref)
    for c, r in zip(cfgs, reports):
        if "error" in r:
            out.append(f"raised {r['error']}")
        elif workload in ("ode-table2", "burgers"):
            ok = p_mc is not None and r["estimate"] == p_mc
            out.append(None if ok else f"estimate {r['estimate']!r} != same-sample MC {p_mc!r}")
        elif workload == "ko-gha":
            err = abs(r["estimate"] - KO_REFERENCE) / KO_REFERENCE
            if c["order"] != 5:
                out.append(None)
            elif err >= 0.01 or r["n_exact"] > 5000:
                out.append(f"p=5: relative error {err:.4g} (bound 0.01), n_exact {r['n_exact']} (bound 5000)")
            else:
                out.append(None)
        else:
            sigma = math.sqrt(KO_REFERENCE * (1.0 - KO_REFERENCE) / c["m"])
            if abs(r["estimate"] - KO_REFERENCE) > 3.0 * sigma:
                out.append(f"estimate {r['estimate']!r} outside 3 sigma ({sigma:.3g}) of {KO_REFERENCE}")
            elif r["estimate"] != p_mc:
                out.append(f"estimate {r['estimate']!r} != bracketed failure set {p_mc!r}")
            else:
                out.append(None)
    return out
