"""Orthonormal Legendre bases, multi-index sets, quadrature and triple products.

Everything in this module is normalized against the uniform probability
density on [-1, 1] (1/2 per dimension): basis functions are orthonormal in
that inner product and quadrature weights sum to one, so expansion
coefficients are plain expectations.  A multi-index is a plain tuple of
per-dimension degrees; index sets use a fixed graded lexicographic order,
which makes coefficient layouts identical across runs and makes the
order-N0 index set a prefix of the order-N one.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "legendre_rows",
    "basis_matrix",
    "gauss_legendre",
    "multi_index_set",
    "triple_products",
]


def _recurrence(nmax: int, x: np.ndarray) -> np.ndarray:
    """Unnormalized Legendre values P_0..P_nmax at the points of x (flattened), one row per
    degree, by the three-term recurrence: the module's one copy of it, written in place
    in the textbook formula's order, so the values keep their bits.  `legendre_rows`
    scales its rows and each Newton step of `gauss_legendre` reads its last two."""
    if nmax < 0:
        raise ValueError("degree must be nonnegative")
    x = np.asarray(x, dtype=float).ravel()
    rows = np.ones((nmax + 1, x.size))
    if nmax >= 1:
        rows[1] = x
        tmp = np.empty(x.size)
        for k in range(1, nmax):  # ((2k + 1) x P_k - k P_{k-1}) / (k + 1), written into row k + 1
            nxt = rows[k + 1]
            np.multiply(2 * k + 1, x, nxt)
            nxt *= rows[k]
            np.multiply(k, rows[k - 1], tmp)
            nxt -= tmp
            nxt /= k + 1
    return rows


def legendre_rows(nmax: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal Legendre values for all degrees 0..nmax at once, one row per degree.

    Returns a C-ordered array of shape ``(nmax + 1, len(x))`` whose row k is
    the orthonormal polynomial of degree k evaluated at the points, so each
    degree is one contiguous vector: the package's one Legendre layout.
    """
    rows = _recurrence(nmax, x)
    rows *= np.sqrt(2.0 * np.arange(nmax + 1) + 1.0)[:, None]
    return rows


def basis_matrix(indices: Sequence[tuple[int, ...]], points: np.ndarray) -> np.ndarray:
    """Evaluate a set of tensor basis functions, one degree tuple each, on many points.

    ``points`` has shape (npts, d); the result has shape (npts, len(indices)).
    """
    pts = np.asarray(points, dtype=float)
    d = pts.shape[1]
    idx_arr = np.array(indices, dtype=int)
    if idx_arr.shape[1] != d:
        raise ValueError(f"index dimension {idx_arr.shape[1]} does not match points dimension {d}")
    nmax = int(idx_arr.max()) if idx_arr.size else 0
    out = np.ones((pts.shape[0], idx_arr.shape[0]))
    for j in range(d):
        out *= legendre_rows(nmax, pts[:, j])[idx_arr[:, j]].T
    return out


@lru_cache(maxsize=None)
def gauss_legendre(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule with q nodes as cached, read-only (nodes, weights) arrays:
    ascending nodes strictly inside (-1, 1), positive weights summing to one.

    Nodes are the roots of P_q found by Newton iteration on the recurrence
    (tolerance 1e-15); the rule integrates polynomials of degree <= 2q-1
    exactly against the uniform density on [-1, 1].
    """
    if q < 1:
        raise ValueError("node count must be at least one")
    k = np.arange(q)
    x = np.cos(np.pi * (4 * k + 3) / (4 * q + 2))
    for _ in range(100):
        p_prev, p = _recurrence(q, x)[q - 1:]
        dp = q * (x * p - p_prev) / (x * x - 1.0)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    # symmetrize so that mirrored nodes cancel exactly
    x = 0.5 * (x - x[::-1])
    p_prev, p = _recurrence(q, x)[q - 1:]
    dp = q * (x * p - p_prev) / (x * x - 1.0)
    w = 1.0 / ((1.0 - x * x) * dp * dp)
    w = 0.5 * (w + w[::-1])
    w /= w.sum()
    order = np.argsort(x)
    nodes, weights = x[order], w[order]
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@lru_cache(maxsize=None)
def multi_index_set(d: int, n_max: int) -> tuple[tuple[int, ...], ...]:
    """All degree tuples of total degree <= n_max in graded lexicographic order, cached.

    The count is C(n_max + d, d), and the set for a lower maximum degree is
    always a prefix of the set for a higher one.
    """
    if d < 1:
        raise ValueError("dimension must be at least one")
    if n_max < 0:
        raise ValueError("maximum degree must be nonnegative")
    box = itertools.product(range(n_max + 1), repeat=d)
    return tuple(sorted((idx for idx in box if sum(idx) <= n_max), key=lambda idx: (sum(idx), idx)))


@lru_cache(maxsize=None)
def triple_products(d: int, n_max: int) -> np.ndarray:
    """Triple-product tensor e[a, b, c] = E[Phi_a Phi_b Phi_c] over the members
    of ``multi_index_set(d, n_max)``, as a read-only dense array.

    One-dimensional entries come from a Gauss rule with at least
    ceil((3*n_max + 1) / 2) nodes, which integrates the degree-3n integrands
    exactly; multi-dimensional entries are products of the per-dimension ones.
    """
    nq = max(1, math.ceil((3 * n_max + 1) / 2))
    nodes, weights = gauss_legendre(nq)
    rows = legendre_rows(n_max, nodes)
    one_d = np.einsum("aq,bq,cq,q->abc", rows, rows, rows, weights)
    entry_arr = np.array(multi_index_set(d, n_max), dtype=int)
    n = len(entry_arr)
    dense = np.ones((n, n, n))
    for dim in range(d):
        e = entry_arr[:, dim]
        dense *= one_d[e[:, None, None], e[None, :, None], e[None, None, :]]
    dense.setflags(write=False)
    return dense
