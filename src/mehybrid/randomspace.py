"""Hypercube decomposition of the random domain [-1, 1]^d.

Elements are half-open boxes; the right boundary of the global domain is
closed so that a sample landing exactly on 1 still belongs to an element.
Sampling uses the Philox counter-based generator, keyed per 65536-sample
chunk with ``seed XOR chunk_index``, so regeneration (serial or parallel by
chunk) is bit-exact for a given (m, d, seed).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "DOMAIN_LO",
    "DOMAIN_HI",
    "Element",
    "Decomposition",
    "SampleSet",
    "to_local_many",
    "to_global_many",
    "split_element",
    "locate_many",
    "sample_uniform",
    "check_partition",
]

DOMAIN_LO = -1.0
DOMAIN_HI = 1.0

_SAMPLE_CHUNK = 1 << 16


@dataclass(frozen=True)
class Element:
    """Axis-aligned box [lower, upper); `box` validates the bounds."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    @classmethod
    def box(cls, lower: Sequence[float], upper: Sequence[float]) -> "Element":
        lo = tuple(float(a) for a in lower)
        hi = tuple(float(b) for b in upper)
        if len(lo) != len(hi) or not lo:
            raise ValueError("lower and upper bounds must have the same nonzero dimension")
        if any(not (DOMAIN_LO <= a < b <= DOMAIN_HI) for a, b in zip(lo, hi)):
            raise ValueError(f"invalid box inside [-1,1]^d: lower={lo} upper={hi}")
        return cls(lo, hi)

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def prob(self) -> float:
        """Probability mass under the uniform density: prod (b-a)/2.

        Exact for every element bisection produces, since all bounds are
        dyadic, so partition sums stay exact across refinements.
        """
        prob = 1.0
        for a, b in zip(self.lower, self.upper):
            prob *= (b - a) / 2.0
        return prob


def to_local_many(e: Element, Z: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(Z, dtype=float))
    lo = np.array(e.lower)
    hi = np.array(e.upper)
    if np.any(pts < lo) or np.any(pts > hi):
        raise DomainError("points outside element")
    return np.clip((2.0 * pts - (lo + hi)) / (hi - lo), -1.0, 1.0)


def to_global_many(e: Element, X: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(X, dtype=float))
    lo = np.array(e.lower)
    hi = np.array(e.upper)
    return (lo + hi) / 2.0 + pts * (hi - lo) / 2.0


def split_element(e: Element, dims: Iterable[int]) -> list[Element]:
    """Bisect the element along each requested dimension.

    Returns 2^len(dims) children in a fixed binary order.
    """
    dim_list = sorted(set(int(d) for d in dims))
    if not dim_list:
        raise ValueError("at least one split dimension is required")
    if any(d < 0 or d >= e.dim for d in dim_list):
        raise ValueError(f"split dimensions {dim_list} out of range for dimension {e.dim}")
    mids = {d: (e.lower[d] + e.upper[d]) / 2.0 for d in dim_list}
    children = []
    for mask in range(2 ** len(dim_list)):
        lo = list(e.lower)
        hi = list(e.upper)
        for bit, d in enumerate(dim_list):
            if (mask >> bit) & 1:
                lo[d] = mids[d]
            else:
                hi[d] = mids[d]
        children.append(Element(tuple(lo), tuple(hi)))
    return children


@dataclass(frozen=True)
class Decomposition:
    """Ordered, pairwise-disjoint elements covering the whole domain."""

    elements: tuple[Element, ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if not self.elements:
            raise ValueError("decomposition needs at least one element")

    @property
    def dim(self) -> int:
        return self.elements[0].dim

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def _member_mask(e: Element, pts: np.ndarray) -> np.ndarray:
    """Half-open membership with the global right edge closed."""
    mask = np.ones(pts.shape[0], dtype=bool)
    for d in range(e.dim):
        col = pts[:, d]
        hi = e.upper[d]
        below = (col < hi) | ((hi == DOMAIN_HI) & (col == hi))
        mask &= (col >= e.lower[d]) & below
    return mask


def locate_many(dec: Decomposition, Z: np.ndarray) -> np.ndarray:
    """Index of the unique element containing each row of Z."""
    pts = np.atleast_2d(np.asarray(Z, dtype=float))
    if np.any(pts < DOMAIN_LO) or np.any(pts > DOMAIN_HI):
        raise DomainError("points outside [-1,1]^d")
    out = np.full(pts.shape[0], -1, dtype=np.int64)
    for k, e in enumerate(dec.elements):
        unassigned = out < 0
        if not np.any(unassigned):
            break
        hit = _member_mask(e, pts[unassigned])
        idx = np.flatnonzero(unassigned)[hit]
        out[idx] = k
    if np.any(out < 0):
        raise DomainError("points not covered by the decomposition")
    return out


@dataclass(frozen=True)
class SampleSet:
    """Uniform sample points on [-1, 1]^d together with the seed that made them."""

    points: np.ndarray
    seed: int

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def sample_uniform(m: int, d: int, seed: int) -> SampleSet:
    """Draw m i.i.d. uniform points on [-1, 1]^d, reproducibly.

    Philox streams keyed with ``seed ^ chunk_index`` generate 65536 samples
    each, so the same (m, d, seed) always yields the identical array and
    chunks can be produced independently.
    """
    if m < 1:
        raise ValueError("sample count must be at least one")
    if d < 1:
        raise ValueError("dimension must be at least one")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    out = np.empty((m, d))
    for chunk in range((m + _SAMPLE_CHUNK - 1) // _SAMPLE_CHUNK):
        gen = np.random.Generator(np.random.Philox(key=seed ^ chunk))
        start = chunk * _SAMPLE_CHUNK
        stop = min(start + _SAMPLE_CHUNK, m)
        out[start:stop] = gen.uniform(DOMAIN_LO, DOMAIN_HI, size=(stop - start, d))
    return SampleSet(out, seed)


def check_partition(dec: Decomposition, n_probe: int = 4096, seed: int = 0) -> list[str]:
    """Partition-of-unity and disjointness diagnostics; returns human-readable issues."""
    issues = []
    total = sum(e.prob for e in dec.elements)
    if abs(total - 1.0) > 1e-12:
        issues.append(f"element probabilities sum to {total!r}, not 1")
    pts = sample_uniform(n_probe, dec.dim, seed).points
    counts = np.zeros(n_probe, dtype=int)
    owners = np.full(n_probe, -1, dtype=int)
    for k, e in enumerate(dec.elements):
        hit = _member_mask(e, pts)
        overlap = hit & (counts > 0)
        if np.any(overlap):
            first = int(np.flatnonzero(overlap)[0])
            issues.append(f"elements {owners[first]} and {k} overlap near {pts[first].tolist()}")
        counts += hit
        owners[hit] = k
    if np.any(counts == 0):
        miss = pts[counts == 0][0]
        issues.append(f"uncovered region near {miss.tolist()}")
    return issues
