"""Element-local polynomial-chaos expansions and multi-element surrogates.

Every expansion in the package comes from one pseudo-spectral projection,
`project`, on a tensor Gauss grid: each coefficient is the quadrature
estimate of E[f Phi_i] over the element, which is exact whenever f
restricted to the element is a polynomial of degree <= 2q - 1 - N.
"""
from __future__ import annotations

import contextvars
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, ModelEvaluationError
from .polybasis import basis_matrix, gauss_legendre, legendre_rows, multi_index_set
from .randomspace import (
    Decomposition,
    Element,
    locate_many,
    sample_uniform,
    to_global_many,
    to_local_many,
)

__all__ = [
    "LimitStateModel",
    "CallableModel",
    "GpcExpansion",
    "MultiElementSurrogate",
    "build_collocation",
    "project",
    "eval_expansion_many",
    "eval_me_surrogate_many",
    "local_variance",
    "lp_error",
    "gamma_bound",
    "tensor_grid",
]


# Rows per `_g_many` call inside a sequential `evaluate_many` and per chunk of
# `eval_me_surrogate_many`, measured on a 2-core Xeon VM.
# A 65,536-row KO batch takes 5.9-6.0 s in one call and 3.2-3.9 s in 8,192-row
# chunks (16,384 rows is no faster, 2,048 and 4,096 rows are slower), with
# bit-identical values; at 8,192 rows the RK4 work arrays and state (about 0.8 MB)
# fit the host's 2 MB per-core L2 cache.  Bulk KO batches go to both cores in
# 16,384-row chunks (`LimitStateModel.parallel_chunk`): the benchmark's ko-mc
# workload takes 2.34 s instead of 3.58 s (medians of 10 alternating runs).  In
# 8,192-row chunks two threads were no faster than one (3.26 vs 3.20 s per
# 65,536-row batch): each ufunc call is then short enough that handing the
# interpreter lock back and forth eats the gain.  The benchmark's burgers
# workload, whose Monte Carlo run is one 200k-row batch, peaks at 113 MB RSS
# unchunked and 79 MB chunked; with 65,536-row surrogate chunks it peaks at 77 MB.
EVAL_CHUNK = 8192

# Threads that share a parallel batch: the calling thread and WORKERS - 1 pool threads.
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _executor() -> ThreadPoolExecutor:
    """The module's pool of WORKERS - 1 threads, started for the first pool chunk."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(WORKERS - 1, thread_name_prefix="mehybrid-exact")
        return _pool


class LimitStateModel:
    """Exact limit-state function g(z); failure is the event {g < 0}.

    Subclasses implement `_g_many` on an (n, d) point array; `evaluate_many`
    counts every exact evaluation, adds its wall time to ``exact_s`` and feeds
    `_g_many` rows in chunks of EVAL_CHUNK, one after another.  A model whose
    `_g_many` is thread-safe and spends its time in ufuncs that release the
    interpreter lock sets ``parallel_chunk``: a batch of more than that many
    rows is then cut into chunks of ``parallel_chunk`` rows, and when the
    affinity mask holds more than one CPU the calling thread evaluates every
    WORKERS-th chunk while the module's pool evaluates the others.  Rows never
    interact, so the values do not depend on the chunking or the thread count.
    NaN is an error either way: a batch holding a NaN point raises `DomainError`
    before any call, and a NaN value raises `ModelEvaluationError` naming the
    first such row; +-inf keeps its sign.
    """

    dim: int = 1
    parallel_chunk: int | None = None

    def __init__(self):
        self._calls = 0
        self.exact_s = 0.0

    @property
    def call_count(self) -> int:
        return self._calls

    def evaluate_many(self, Z: np.ndarray) -> np.ndarray:
        start = time.perf_counter()
        pts = np.asarray(Z, dtype=float)
        if np.isnan(pts).any():
            raise DomainError("a point to evaluate is NaN")
        n = pts.shape[0]
        self._calls += n
        out = np.empty(n)
        rows = self.parallel_chunk
        if rows and n > rows and WORKERS > 1:
            self._evaluate_chunks(pts, out, rows, WORKERS)
        else:
            self._evaluate_chunks(pts, out, EVAL_CHUNK, 1)
        self.exact_s += time.perf_counter() - start
        nan = np.isnan(out)
        if nan.any():
            row = int(np.argmax(nan))
            raise ModelEvaluationError(f"the exact model returned NaN at row {row}", point=pts[row])
        return out

    def _evaluate_chunks(self, pts: np.ndarray, out: np.ndarray, rows: int, workers: int) -> None:
        """Fill ``out`` in chunks of ``rows`` rows: the calling thread evaluates
        every ``workers``-th chunk and the module's pool the others (none when
        ``workers`` is 1).

        Each pool chunk runs in a copy of the caller's context, which carries
        its ``np.errstate``.  Once a chunk of the calling thread fails, the
        pool chunks after it that have not started are cancelled; the error
        raised is that of the lowest-numbered failing chunk, for any
        number of workers.
        """

        def run(k: int) -> None:
            out[k * rows : (k + 1) * rows] = self._g_many(pts[k * rows : (k + 1) * rows])

        n_chunks = -(-pts.shape[0] // rows)
        futures = {k: _executor().submit(contextvars.copy_context().run, run, k)
                   for k in range(n_chunks) if k % workers}
        first, error = n_chunks, None  # the lowest failing chunk and its error
        for k in range(0, n_chunks, workers):
            try:
                run(k)
            except Exception as exc:
                first, error = k, exc
                break
        for k, fut in futures.items():  # in chunk order; waits for every chunk that started
            if k > first and fut.cancel():
                continue
            exc = fut.exception()
            if exc is not None and k < first:
                first, error = k, exc
        if error is not None:
            raise error

    def _g_many(self, Z: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class CallableModel(LimitStateModel):
    """Adapter turning a vectorized function into a model; it receives the flat
    column when dim == 1 and the (n, dim) array otherwise."""

    def __init__(self, fn: Callable, dim: int = 1):
        super().__init__()
        self.dim = dim
        self._fn = fn

    def _g_many(self, Z):
        return self._fn(Z if self.dim > 1 else Z[:, 0])


@dataclass(frozen=True)
class GpcExpansion:
    """Orthonormal expansion of g on one element, coefficients in graded-lex order."""

    element: Element
    order: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        expected = len(multi_index_set(self.element.dim, self.order))
        if c.shape != (expected,):
            raise ValueError(f"expected {expected} coefficients for order {self.order}, got {c.shape}")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def indices(self) -> tuple[tuple[int, ...], ...]:
        return multi_index_set(self.element.dim, self.order)


@dataclass(frozen=True)
class MultiElementSurrogate:
    """One expansion per element of a mesh; the mesh is their elements, in order.

    A global surrogate is the one-element case.
    """

    expansions: tuple[GpcExpansion, ...]
    truncated: bool = False
    decomposition: Decomposition = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "expansions", tuple(self.expansions))
        object.__setattr__(self, "decomposition", Decomposition(tuple(exp.element for exp in self.expansions)))

    @property
    def dim(self) -> int:
        return self.decomposition.dim

    def __len__(self) -> int:
        return len(self.expansions)

    def __call__(self, Z: np.ndarray) -> np.ndarray:
        return eval_me_surrogate_many(self, Z)


def tensor_grid(q: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference tensor Gauss grid: q^d points and matching product weights.

    At d = 1 the weights are the cached rule's read-only array."""
    rule = gauss_legendre(q)
    grids = np.meshgrid(*([rule.nodes] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    weights = rule.weights
    for _ in range(d - 1):
        weights = np.multiply.outer(weights, rule.weights)
    return pts, weights.ravel()


def project(fn: Callable, e: Element, order: int, q: int | None = None) -> np.ndarray:
    """Quadrature projection of a function of the global points onto the element's order-``order`` basis.

    ``fn`` maps the (npts, d) points of a tensor Gauss grid over ``e`` with q
    nodes per dimension (default order + 2) to values of shape
    ``lead + (npts,)``; the coefficients have shape ``lead + (n_modes,)``.
    """
    ref, w = tensor_grid(q or order + 2, e.dim)
    return (fn(to_global_many(e, ref)) * w) @ basis_matrix(multi_index_set(e.dim, order), ref)


def build_collocation(model: LimitStateModel, e: Element, order: int, q: int | None = None) -> GpcExpansion:
    """Project the exact model onto the element basis using a tensor Gauss grid.

    The grid has q nodes per dimension, at least order + 1 and by default
    order + 2, which slightly over-integrates to damp aliasing; the build
    costs exactly q^d exact-model calls.
    """
    if q is not None and q < order + 1:
        raise ValueError(f"need at least order+1 = {order + 1} nodes per dimension, got {q}")

    def values(nodes: np.ndarray) -> np.ndarray:
        try:
            return model.evaluate_many(nodes)
        except Exception as exc:
            raise ModelEvaluationError(
                f"exact model failed on a collocation grid over [{e.lower}, {e.upper}): {exc}",
                point=nodes,
            ) from exc

    return GpcExpansion(e, order, project(values, e, order, q))


def eval_expansion_many(exp: GpcExpansion, Z: np.ndarray) -> np.ndarray:
    """Expansion values at the (n, d) points Z, all inside its element."""
    return basis_matrix(exp.indices, to_local_many(exp.element, Z)) @ exp.coeffs


def eval_me_surrogate_many(s: MultiElementSurrogate, Z: np.ndarray, owners: np.ndarray | None = None) -> np.ndarray:
    """Values at the (n, d) points Z of each point's owning element's expansion.

    Walks Z in chunks of EVAL_CHUNK rows: locates the chunk, maps each row to
    its element's local coordinates, evaluates the Legendre rows of every
    dimension once and sums each basis function (a product of per-degree
    rows) times its gathered coefficients in index-set order, so the value
    at a point does not depend on the other points of the batch.  Element
    indices are written into ``owners`` when it is given.
    """
    order = max(exp.order for exp in s.expansions)
    indices = multi_index_set(s.dim, order)
    coeffs = np.zeros((len(indices), len(s)))  # column k holds element k's coefficients
    for k, exp in enumerate(s.expansions):  # a lower order's index set is a prefix
        coeffs[: exp.coeffs.size, k] = exp.coeffs
    lower = np.array([e.lower for e in s.decomposition])
    upper = np.array([e.upper for e in s.decomposition])
    center2, width = lower + upper, upper - lower
    out = np.empty(Z.shape[0])
    for start in range(0, Z.shape[0], EVAL_CHUNK):
        pts = Z[start : start + EVAL_CHUNK]
        k = locate_many(s.decomposition, pts)
        if owners is not None:
            owners[start : start + EVAL_CHUNK] = k
        local = np.clip((2.0 * pts - center2[k]) / width[k], -1.0, 1.0)  # as in to_local_many
        rows = [legendre_rows(order, local[:, j]) for j in range(s.dim)]
        acc = out[start : start + EVAL_CHUNK]
        for j, idx in enumerate(indices):
            col = rows[0][idx[0]]
            for dim in range(1, s.dim):
                col = col * rows[dim][idx[dim]]
            if j == 0:
                np.multiply(col, coeffs[0][k], out=acc)
            else:
                acc += col * coeffs[j][k]
    return out


def local_variance(exp: GpcExpansion) -> float:
    """Variance of the expansion under the element's conditional density."""
    return float(np.sum(exp.coeffs[1:] ** 2))


def lp_error(surrogate, model: LimitStateModel, p: float, m: int, seed: int) -> float:
    """Monte Carlo estimate of the L^p distance between surrogate and exact model.

    Diagnostic only: costs m exact-model calls on a fresh sample set that is
    independent of any estimation samples.  The norm order p must be finite.
    """
    if not 1 <= p < math.inf:
        raise ValueError(f"norm order must be a finite number of at least one, got {p!r}")
    if m < 1:
        raise ValueError("sample count must be at least one")
    pts = sample_uniform(m, model.dim, seed).points
    exact = model.evaluate_many(pts)
    approx = surrogate(pts)
    return float(np.mean(np.abs(exact - approx) ** p) ** (1.0 / p))


def gamma_bound(eps_p: float, eps: float, p: float) -> float:
    """Smallest admissible replacement threshold for a target accuracy eps; NaN is rejected."""
    if not eps > 0:
        raise ValueError("accuracy target must be positive")
    if not eps_p >= 0:
        raise ValueError("surrogate error must be nonnegative")
    if not p >= 1:
        raise ValueError("norm order must be at least one")
    return eps_p / eps ** (1.0 / p)

