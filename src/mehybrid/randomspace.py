"""Hypercube decomposition of the random domain [-1, 1]^d.

Elements are half-open boxes; the right boundary of the global domain is
closed so that a sample landing exactly on 1 still belongs to an element.
Sampling uses the Philox counter-based generator, keyed per 65536-sample
chunk with ``seed XOR chunk_index``, so regeneration (serial or parallel by
chunk) is bit-exact for a given (m, d, seed).
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np
import numpy.random  # every run samples; numpy would otherwise load this in the first run

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

# Most buckets a dimension's location table holds.  A mesh bisected to depth 16,
# four levels deeper than the 44-element ko3 mesh, still has every breakpoint on
# a bucket edge; the cap keeps a table at 512 KiB, built in about half a
# millisecond once per mesh, and a deeper or non-dyadic mesh only costs
# correction steps for the points whose bucket holds a breakpoint.
_MAX_BUCKETS = 1 << 16


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
    """Ordered, pairwise-disjoint elements covering the whole domain.

    Two tables are cached on first use: ``cells``, the grid that the element
    bounds cut the domain into, and ``buckets``, which locates a coordinate in
    that grid without a search.
    """

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

    @cached_property
    def cells(self) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
        """The grid that every element boundary cuts the domain into.

        Returns the sorted breakpoints of each dimension (the element bounds and
        the domain edges), then two arrays over the grid's cells: the first
        element covering each cell (-1 for none) and the number of elements
        covering it.  Cell (c_0, ..., c_{d-1}) is the box with lower corner
        b_j[c_j] and upper corner b_j[c_j + 1].
        """
        lower = np.array([e.lower for e in self.elements])
        upper = np.array([e.upper for e in self.elements])
        breaks = tuple(_sorted_unique(np.concatenate([lower[:, j], upper[:, j], [DOMAIN_LO, DOMAIN_HI]]))
                       for j in range(self.dim))
        shape = tuple(b.size - 1 for b in breaks)
        owner = np.full(shape, -1, dtype=np.intp)
        cover = np.zeros(shape, dtype=np.intp)
        for k in reversed(range(len(self.elements))):  # so the first element wins an overlap
            box = tuple(slice(*np.searchsorted(b, (lower[k, j], upper[k, j]))) for j, b in enumerate(breaks))
            owner[box] = k
            cover[box] += 1
        return breaks, owner, cover

    @cached_property
    def buckets(self) -> tuple[tuple[float, np.ndarray, np.ndarray | None], ...]:
        """Per dimension, a table over G uniform buckets of [-1, 1] that starts point location.

        G is the smallest power of two, at least 2, with 2/G at most the
        smallest gap between the dimension's breakpoints, capped at
        _MAX_BUCKETS; a mesh made by bisection to depth D gets G = 2^D and
        every breakpoint on a bucket edge.  Each dimension gives (G/2, first,
        hi): ``first[i]`` is the number of interior breakpoints at or below
        bucket i's left edge -1 + 2i/G (entry G, for x = 1, counts all of
        them), and hi, the interior breakpoints with +inf appended, is None
        when every breakpoint lies on a bucket edge and ``first`` is exact.
        """
        tables = []
        for b in self.cells[0]:
            interior = b[1:-1]
            gap, size = float(np.min(np.diff(b))), 2
            while 2.0 / size > gap and size < _MAX_BUCKETS:
                size *= 2
            scaled = interior * (size / 2.0)  # exact: a power-of-two scale
            edges = DOMAIN_LO + np.arange(size + 1) * (2.0 / size)  # exact: dyadic with at most 17 bits
            hi = None if np.array_equal(np.floor(scaled), scaled) else np.concatenate((interior, [np.inf]))
            tables.append((size / 2.0, np.searchsorted(interior, edges, side="right"), hi))
        return tuple(tables)


def _sorted_unique(x: np.ndarray) -> np.ndarray:
    """The distinct values of a NaN-free array, ascending: np.unique's result without
    the numpy.ma import that np.unique makes."""
    b = np.sort(x)
    return b[np.concatenate(([True], b[1:] != b[:-1]))]


def _check_in_domain(pts: np.ndarray) -> None:
    """DomainError unless every entry of ``pts`` lies in [-1, 1]; a NaN fails too."""
    if pts.size and not DOMAIN_LO <= pts.min() <= pts.max() <= DOMAIN_HI:
        raise DomainError("points outside [-1,1]^d")


def locate_many(dec: Decomposition, Z: np.ndarray) -> np.ndarray:
    """Index of the unique element containing each row of Z, read from the mesh's cell table.

    A coordinate's cell is the number of interior breakpoints at or below it,
    ``searchsorted(b[1:-1], x, side="right")``, which puts the domain's closed
    right edge in the last cell.  It is read from the mesh's bucket table at
    bucket floor(x G/2) + G/2, which is exact in floating point, and where a
    bucket can hold a breakpoint it is moved up past every breakpoint at or
    below x until no point moves, so it equals the search for every input.
    """
    pts = np.atleast_2d(np.asarray(Z, dtype=float))
    _check_in_domain(pts)
    breaks, owner, _ = dec.cells
    if pts.shape[1] != len(breaks):
        raise ValueError(f"points have dimension {pts.shape[1]}, the decomposition {len(breaks)}")
    cell = []
    for j, (scale, first, hi) in enumerate(dec.buckets):
        x = pts[:, j]
        bucket = x * scale
        np.floor(bucket, out=bucket)
        bucket += scale
        c = first[bucket.astype(np.intp)]
        if hi is not None:
            while (up := hi[c] <= x).any():
                c += up
        cell.append(c)
    out = owner[tuple(cell)]
    if np.any(out < 0):
        raise DomainError("points not covered by the decomposition")
    return out


@dataclass(frozen=True)
class SampleSet:
    """Uniform sample points on [-1, 1]^d together with the seed that made them.

    ``points`` is a read-only view of the given array; the caller's array keeps
    its own flags.
    """

    points: np.ndarray
    seed: int

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float)).view()
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
    chunks can be produced independently.  The last set drawn is kept: a
    repeated call returns that same object, shared by every caller, and its
    points can never be made writable again.  ``sample_uniform.cache_clear``
    drops it.
    """
    if m < 1:
        raise ValueError("sample count must be at least one")
    if d < 1:
        raise ValueError("dimension must be at least one")
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed must be nonnegative and less than 2**128, got {seed}")
    return _draw(operator.index(m), operator.index(d), operator.index(seed))


@lru_cache(maxsize=1)
def _draw(m: int, d: int, seed: int) -> SampleSet:
    out = np.empty((m, d))
    for chunk in range((m + _SAMPLE_CHUNK - 1) // _SAMPLE_CHUNK):
        gen = np.random.Generator(np.random.Philox(key=seed ^ chunk))
        start = chunk * _SAMPLE_CHUNK
        stop = min(start + _SAMPLE_CHUNK, m)
        out[start:stop] = gen.uniform(DOMAIN_LO, DOMAIN_HI, size=(stop - start, d))
    out.setflags(write=False)  # the set's view then cannot be made writable
    return SampleSet(out, seed)


sample_uniform.cache_info = _draw.cache_info
sample_uniform.cache_clear = _draw.cache_clear


def check_partition(dec: Decomposition) -> list[str]:
    """Partition-of-unity and disjointness diagnostics; returns human-readable issues.

    Reads the mesh's cell table, so every overlap and every gap is reported
    with its exact bounds.
    """
    issues = []
    total = sum(e.prob for e in dec.elements)
    if abs(total - 1.0) > 1e-12:
        issues.append(f"element probabilities sum to {total!r}, not 1")
    breaks, _, cover = dec.cells
    for cell in np.argwhere(cover != 1):
        lo = [float(b[c]) for b, c in zip(breaks, cell)]
        hi = [float(b[c + 1]) for b, c in zip(breaks, cell)]
        if cover[tuple(cell)] == 0:
            issues.append(f"uncovered region [{lo}, {hi})")
        else:
            ks = [k for k, e in enumerate(dec.elements)
                  if all(a <= x and y <= b for a, b, x, y in zip(e.lower, e.upper, lo, hi))]
            issues.append(f"elements {ks} overlap on [{lo}, {hi})")
    return issues
