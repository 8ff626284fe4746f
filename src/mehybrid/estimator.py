"""Failure-probability estimators with exact-call accounting.

Every hybrid estimate is one walk engine, ``_hybrid_walk``: it walks the
samples (all of them, or each element's under ``me_lha``) in ascending
``|g~|`` and replaces surrogate classes with exact ones, block by block.  Two
stop rules end a walk: the net-change rule of Li, Li & Xiu (JCP 2011), which
stops once a block changes the estimate by at most ``eta_stop``, and the
band of Li & Xiu (JCP 2010), which evaluates exactly the walk's samples with
``|g~| <= gamma`` as one block.

The walk keeps an integer count of samples currently classified as
failing; the reported probability is that count divided by the total
sample size.  This makes the conservation property exact: when the walk
replaces every surrogate value by an exact one, the estimate equals the
plain Monte Carlo estimate on the same samples bit for bit.
"""
from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelEvaluationError
from .randomspace import SampleSet
from .refine import _count, _real
from .surrogate import LimitStateModel, MultiElementSurrogate, eval_me_surrogate_many

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
    """Walk controls: block size, stopping tolerance, and ``gamma``, which
    replaces the net-change rule by the band |g~| <= gamma."""

    delta_m: int
    eta_stop: float = 0.0
    gamma: float | None = None

    def __post_init__(self):
        if not (_count(self.delta_m) and self.delta_m >= 1):
            raise ValueError(f"step size delta_m must be an integer of at least one, got {self.delta_m!r}")
        if not (_real(self.eta_stop) and self.eta_stop >= 0):
            raise ValueError(f"stopping tolerance eta_stop must be a nonnegative number, got {self.eta_stop!r}")
        if self.gamma is not None and not (_real(self.gamma) and self.gamma >= 0):
            raise ValueError(f"band half-width gamma must be a nonnegative number, got {self.gamma!r}")
        if self.gamma is not None and self.eta_stop:
            raise ValueError("the band rule gamma takes no eta_stop")


# Wall-time stages of a hybrid estimate: surrogate evaluation, ordering by |g~|
# (with the grouping of the local hybrid) and the exact blocks.
STAGES = ("surrogate_s", "order_s", "blocks_s")


@dataclass(frozen=True)
class Estimate:
    """Final estimate with its cost accounting; ``surrogate_estimate`` is a hybrid walk's
    starting failure count over m (None for Monte Carlo), and ``timings`` holds the
    seconds of each of STAGES."""

    p_f: float
    n_exact: int
    n_surrogate: int
    stddev: float
    surrogate_estimate: float | None = None
    timings: dict = field(default_factory=lambda: dict.fromkeys(STAGES, 0.0), compare=False)

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
    """Per-block history of a hybrid run."""

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


def mc_stddev(p: float, m: int) -> float:
    """Standard deviation of the Monte Carlo estimator: sqrt(p (1 - p) / m)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability must lie in [0, 1]")
    if m < 1:
        raise ValueError("sample count must be at least one")
    return math.sqrt(p * (1.0 - p) / m)


def mc_estimate(model: LimitStateModel, samples: SampleSet) -> Estimate:
    """Plain Monte Carlo: fraction of samples with a negative exact value."""
    pts = samples.points
    if pts.shape[0] < 1:
        raise ValueError("at least one sample is required")
    values = model.evaluate_many(pts)
    m = pts.shape[0]
    fails = int(np.count_nonzero(values < 0.0))
    p = fails / m
    return Estimate(p, m, 0, mc_stddev(p, m))


# A walk grows its order through thresholds from a sorted fixed-stride subsample
# of about ORDER_SAMPLE of its magnitudes (about 20 microseconds at m = 1e6): the
# value at rank 1/FIRST_PREFIX_SHARE of the subsample, then at twice the rank, and
# so on, then inf.  Every growth scans all of the walk's magnitudes, so the share
# keeps a growth from yielding only a few values.
FIRST_PREFIX_SHARE = 64
ORDER_SAMPLE = 4096


def _thresholds(mag: np.ndarray):
    """A walk's ascending growth thresholds; the subsample is sorted at the first ``next``."""
    sample = np.sort(mag[:: max(1, mag.size // ORDER_SAMPLE)])
    rank = max(1, sample.size // FIRST_PREFIX_SHARE)
    while rank < sample.size:
        yield sample[rank]
        rank *= 2
    yield np.inf


def _grow_order(mag: np.ndarray, order: np.ndarray, t: float) -> np.ndarray:
    """Extend ``order``, a prefix of ``np.argsort(mag, kind="stable")`` that holds
    every value at or below its last one, by the values in ``(mag[order[-1]], t]``.

    Only that band is sorted: it comes in index order and the sort is stable, so
    ties keep sample order.  mag must hold no NaN.
    """
    band = mag <= t
    if order.size:
        band &= mag > mag[order[-1]]
    band = np.flatnonzero(band)
    return np.concatenate([order, band[np.argsort(mag[band], kind="stable")]])


def _walks(groups: np.ndarray | None) -> list:
    """(group label, member sample indices in ascending order) for every nonempty
    group, in label order; without groups one unlabeled walk over all samples
    (members None)."""
    if groups is None:
        return [(None, None)]
    counts = np.bincount(groups)
    # a stable sort of labels of 16 bits or fewer is a radix sort; me_lha's owners
    # come in the smallest type that holds them
    by_label = np.argsort(groups, kind="stable")
    ends = np.cumsum(counts)
    return [(k, by_label[end - n : end]) for k, (n, end) in enumerate(zip(counts, ends)) if n]


def iterative_hybrid(model: LimitStateModel, surrogate, samples: SampleSet,
                     cfg: HybridConfig) -> tuple[Estimate, HybridTrace]:
    """Iterative hybrid estimation: replace surrogate calls by exact ones in
    blocks of delta_m, walking samples in ascending surrogate magnitude.
    ``surrogate`` is any callable from the (m, d) sample array to m values;
    the walk overwrites a new array it returns with |g~|, and copies any
    other result, such as a view of the samples, first.

    The failure count starts at the surrogate's own count over all samples,
    and each block adds its exact-minus-surrogate change.  The walk stops
    once a block changes the estimate by at most eta_stop or its samples
    run out; samples never reached keep their surrogate class.  With
    ``cfg.gamma`` set the walk is the band instead: one block of every
    sample with |g~| <= gamma.
    """
    pts = samples.points
    start = time.perf_counter()
    approx = surrogate(pts)
    if not (isinstance(approx, np.ndarray) and approx.flags.owndata and approx.flags.writeable):
        approx = np.array(approx)
    return _hybrid_walk(model, pts, approx, cfg, None, time.perf_counter() - start)


# ME-GHA is the iterative hybrid over a multi-element surrogate: one walk over all samples.
me_gha = iterative_hybrid
# The direct hybrid is the iterative hybrid with the band stop rule (HybridConfig.gamma).
direct_hybrid = iterative_hybrid


def me_lha(model: LimitStateModel, s: MultiElementSurrogate, samples: SampleSet,
           cfg: HybridConfig) -> tuple[Estimate, HybridTrace]:
    """Local hybrid: the iterative hybrid walked inside every element of the mesh.

    Each element is walked on its own, in element order, with the stopping
    rule of `iterative_hybrid`.  Under the net-change rule every nonempty
    element performs at least one block of exact evaluations; under the band
    rule each element evaluates its own band, and an element with an empty
    band none.  Trace rows carry the running global estimate and the element
    index.  The samples are located once, by the surrogate evaluation.
    """
    pts = samples.points
    owners = np.empty(pts.shape[0], dtype=np.min_scalar_type(len(s) - 1))
    start = time.perf_counter()
    approx = eval_me_surrogate_many(s, pts, owners)
    return _hybrid_walk(model, pts, approx, cfg, owners, time.perf_counter() - start)


def _hybrid_walk(model: LimitStateModel, pts: np.ndarray, approx: np.ndarray, cfg: HybridConfig,
                 groups: np.ndarray | None, surrogate_s: float) -> tuple[Estimate, HybridTrace]:
    """The block loop of every hybrid, walking each group of ``groups`` (one
    integer label per sample) on its own; ``surrogate_s`` is the time the
    surrogate values ``approx`` took, and ``approx`` becomes |g~| in place.
    Under the band rule a walk's only block is its samples with |g~| <= gamma,
    in sample order.  A NaN in ``approx`` raises ModelEvaluationError at its
    first sample before any exact call."""
    m = pts.shape[0]
    if cfg.delta_m > m:
        raise ValueError("step size cannot exceed the sample count")
    if np.isnan(np.min(approx)):  # min propagates NaN, and needs no m-length mask
        row = int(np.argmax(np.isnan(approx)))
        raise ModelEvaluationError(f"the surrogate returned NaN at sample {row}", point=pts[row])
    tick = time.perf_counter()
    surr_neg = approx < 0.0
    fails = surrogate_fails = int(np.count_nonzero(surr_neg))
    mag = np.abs(approx, out=approx)  # approx has no other reader
    n_exact = 0
    trace = HybridTrace()
    walks = _walks(groups)
    order_s, blocks_s = time.perf_counter() - tick, 0.0
    for label, members in walks:
        trace.append(0, fails / m, n_exact, label)
        mag_k = mag if members is None else mag[members]
        if cfg.gamma is None:
            order, end, step = np.empty(0, dtype=np.intp), mag_k.size, cfg.delta_m
        else:
            order = np.flatnonzero(mag_k <= cfg.gamma)
            end, step = order.size, mag_k.size
        thresholds = _thresholds(mag_k)
        for iteration, pos in enumerate(range(0, end, step), start=1):
            tick = time.perf_counter()
            stop = pos + step
            while order.size < min(stop, end):
                order = _grow_order(mag_k, order, next(thresholds))
            block = order[pos:stop] if members is None else members[order[pos:stop]]
            tock = time.perf_counter()
            exact_vals = model.evaluate_many(pts[block])
            delta = int(np.count_nonzero(exact_vals < 0.0)) - int(np.count_nonzero(surr_neg[block]))
            order_s += tock - tick
            blocks_s += time.perf_counter() - tock
            fails += delta
            n_exact += block.size
            trace.append(iteration, fails / m, n_exact, label)
            if abs(delta) / m <= cfg.eta_stop:
                break
    p = fails / m
    return Estimate(p, n_exact, m, mc_stddev(p, m), surrogate_fails / m,
                    dict(zip(STAGES, (surrogate_s, order_s, blocks_s)))), trace


def relative_error(p_hat: float, p_ref: float) -> float:
    """Absolute relative deviation from a reference probability."""
    if p_ref <= 0:
        raise ValueError("reference probability must be positive")
    return abs(p_hat - p_ref) / p_ref
