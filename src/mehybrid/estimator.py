"""Failure-probability estimators with exact-call accounting.

All iterative variants keep an integer count of samples currently
classified as failing; the reported probability is that count divided by
the total sample size.  This makes the conservation property exact: when
the iteration replaces every surrogate value by an exact one, the estimate
equals the plain Monte Carlo estimate on the same samples bit for bit.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .randomspace import SampleSet, locate_many
from .surrogate import LimitStateModel, MultiElementSurrogate

__all__ = [
    "HybridConfig",
    "Estimate",
    "TraceRecord",
    "HybridTrace",
    "mc_estimate",
    "mc_stddev",
    "direct_hybrid",
    "iterative_hybrid",
    "me_gha",
    "me_lha",
    "relative_error",
]


@dataclass
class HybridConfig:
    """Iteration controls: block size, stopping tolerance, optional call cap."""

    delta_m: int
    eta_stop: float = 0.0
    max_exact: int | None = None

    def __post_init__(self):
        if self.delta_m < 1:
            raise ValueError("step size delta_m must be at least one")
        if self.eta_stop < 0:
            raise ValueError("stopping tolerance must be nonnegative")
        if self.max_exact is not None and self.max_exact < 1:
            raise ValueError("max_exact must be at least one when given")


@dataclass(frozen=True)
class Estimate:
    """Final estimate with its cost accounting."""

    p_f: float
    n_exact: int
    n_surrogate: int
    stddev: float

    def __post_init__(self):
        if not 0.0 <= self.p_f <= 1.0:
            raise ValueError(f"estimate {self.p_f} outside [0, 1]")


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    estimate: float
    n_exact: int
    element: int | None = None


@dataclass
class HybridTrace:
    """Per-iteration history of an iterative hybrid run."""

    records: list[TraceRecord] = field(default_factory=list)

    def append(self, iteration: int, estimate: float, n_exact: int, element: int | None = None) -> None:
        self.records.append(TraceRecord(iteration, estimate, n_exact, element))

    def __len__(self) -> int:
        return len(self.records)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "estimate", "n_exact", "element"])
            for r in self.records:
                writer.writerow([r.iteration, repr(r.estimate), r.n_exact, "" if r.element is None else r.element])


def _points(samples) -> np.ndarray:
    if isinstance(samples, SampleSet):
        return samples.points
    return np.atleast_2d(np.asarray(samples, dtype=float))


def mc_stddev(p: float, m: int) -> float:
    """Standard deviation of the Monte Carlo estimator: sqrt(p (1 - p) / m)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability must lie in [0, 1]")
    if m < 1:
        raise ValueError("sample count must be at least one")
    return math.sqrt(p * (1.0 - p) / m)


def mc_estimate(model: LimitStateModel, samples) -> Estimate:
    """Plain Monte Carlo: fraction of samples with a negative exact value."""
    pts = _points(samples)
    if pts.shape[0] < 1:
        raise ValueError("at least one sample is required")
    values = model.evaluate_many(pts)
    m = pts.shape[0]
    fails = int(np.count_nonzero(values < 0.0))
    p = fails / m
    return Estimate(p, m, 0, mc_stddev(p, m))


def direct_hybrid(model: LimitStateModel, surrogate, samples, gamma: float) -> Estimate:
    """Hybrid estimate with a fixed replacement band of half-width gamma.

    Samples with surrogate value below -gamma count as failures outright;
    samples inside the band are settled by the exact model; the rest are
    taken as safe.
    """
    if gamma < 0:
        raise ValueError("replacement threshold gamma must be nonnegative")
    pts = _points(samples)
    m = pts.shape[0]
    approx = surrogate(pts)
    band = np.abs(approx) <= gamma
    fails = int(np.count_nonzero(approx < -gamma))
    n_exact = int(np.count_nonzero(band))
    if n_exact:
        exact = model.evaluate_many(pts[band])
        fails += int(np.count_nonzero(exact < 0.0))
    p = fails / m
    return Estimate(p, n_exact, m, mc_stddev(p, m))


def _walks(approx: np.ndarray, groups: np.ndarray | None):
    """(group label, sample indices in ascending |g~|) for every nonempty group.

    Without groups all samples form one unlabeled walk.  Ties keep sample
    order (stable sort), which keeps runs deterministic.
    """
    if groups is None:
        yield None, np.argsort(np.abs(approx), kind="stable")
        return
    mag = np.abs(approx)
    for k in range(int(groups.max()) + 1):
        members = np.flatnonzero(groups == k)
        if members.size:
            yield k, members[np.argsort(mag[members], kind="stable")]


def iterative_hybrid(
    model: LimitStateModel, surrogate, samples, cfg: HybridConfig, groups: np.ndarray | None = None
) -> tuple[Estimate, HybridTrace]:
    """Iterative hybrid estimation: replace surrogate calls by exact ones in
    blocks of delta_m, walking samples in ascending surrogate magnitude.
    ``surrogate`` is any callable from the (m, d) sample array to m values.

    The failure count starts at the surrogate's own count over all samples,
    and each block adds its exact-minus-surrogate change.  ``groups`` (one
    integer label per sample) splits the walk: each group is walked on its
    own, in label order, and stops once a block changes the estimate by at
    most eta_stop (or its samples run out).  The call budget ``max_exact``
    ends the whole run; samples never reached keep their surrogate class.
    """
    pts = _points(samples)
    m = pts.shape[0]
    if cfg.delta_m > m:
        raise ValueError("step size cannot exceed the sample count")
    if groups is not None and len(groups) != m:
        raise ValueError(f"expected one group label per sample, got {len(groups)} for {m} samples")
    approx = surrogate(pts)
    surr_neg = approx < 0.0
    fails = int(np.count_nonzero(surr_neg))
    budget = m if cfg.max_exact is None else cfg.max_exact
    n_exact = 0
    trace = HybridTrace()
    for label, order in _walks(approx, groups):
        if n_exact >= budget:
            break
        trace.append(0, fails / m, n_exact, label)
        for iteration, pos in enumerate(range(0, order.size, cfg.delta_m), start=1):
            block = order[pos : pos + min(cfg.delta_m, budget - n_exact)]
            exact_vals = model.evaluate_many(pts[block])
            delta = int(np.count_nonzero(exact_vals < 0.0)) - int(np.count_nonzero(surr_neg[block]))
            fails += delta
            n_exact += block.size
            trace.append(iteration, fails / m, n_exact, label)
            if abs(delta) / m <= cfg.eta_stop or n_exact >= budget:
                break
    p = fails / m
    return Estimate(p, n_exact, m, mc_stddev(p, m)), trace


# ME-GHA is the iterative hybrid over a multi-element surrogate: one walk over all samples.
me_gha = iterative_hybrid


def me_lha(model: LimitStateModel, s: MultiElementSurrogate, samples, cfg: HybridConfig) -> tuple[Estimate, HybridTrace]:
    """Local hybrid: the iterative hybrid walked inside every element of the mesh.

    Every nonempty element performs at least one block of exact evaluations
    (unless the call budget is spent); trace rows carry the running global
    estimate and the element index.
    """
    return iterative_hybrid(model, s, samples, cfg, groups=locate_many(s.decomposition, _points(samples)))


def relative_error(p_hat: float, p_ref: float) -> float:
    """Absolute relative deviation from a reference probability."""
    if p_ref <= 0:
        raise ValueError("reference probability must be positive")
    return abs(p_hat - p_ref) / p_ref
