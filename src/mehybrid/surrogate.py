"""Element-local polynomial-chaos expansions and multi-element surrogates.

Every surrogate a run builds is one record, `MultiElementSurrogate`: a
mesh, one expansion order and an (M, modes) coefficient matrix, one row per
element; a global surrogate is the one-element case.

Every expansion in the package comes from one pseudo-spectral projection,
`project`, on a tensor Gauss grid: collocation of the exact model, Galerkin
initial and field data, a parent's state re-expanded on its children and the
Gaussian rate's Legendre coefficients.  Each coefficient is the quadrature
estimate of E[f Phi_i] over the element, which is exact whenever f
restricted to the element is a polynomial of degree <= 2q - 1 - N.
"""
from __future__ import annotations

import contextvars
import math
import numbers
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ModelEvaluationError, _ColumnError
from .polybasis import basis_matrix, gauss_legendre, legendre_rows, multi_index_set
from .randomspace import (
    Decomposition,
    Element,
    _check_in_domain,
    locate_many,
    sample_uniform,
    to_global_many,
    to_local_many,
)

__all__ = [
    "LimitStateModel",
    "CallableModel",
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
# `eval_me_surrogate_many`, measured on a 2-core Xeon VM shared with other tenants
# (numpy 2.4, medians of 5 runs).  A 65,536-row KO batch takes 4.0 s in one call and
# 2.0 s in 8,192-row chunks (16,384 rows is no faster; 4,096 and 2,048 rows take 2.9
# and 3.3 s), with bit-identical values; at 8,192 rows the RK4 work arrays and state
# (about 0.8 MB) fit a 2 MB per-core L2 cache.  Bulk KO batches go to both cores in
# 16,384-row chunks (`LimitStateModel.parallel_chunk`): 1.45 s per 65,536-row
# batch, against 2.2 s on two threads in 8,192-row chunks, where each ufunc call
# is short enough that handing the interpreter lock back and forth eats much of
# the gain.  The benchmark's burgers workload, whose Monte Carlo run is one
# 200k-row batch, peaks at 113 MB RSS unchunked and 79 MB chunked; with
# 65,536-row surrogate chunks it peaks at 77 MB.
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
    Points of any shape other than (n, dim) raise `ValueError` before any call.
    NaN is an error either way: a batch holding a NaN point raises `DomainError`
    before any call, and a NaN value raises `ModelEvaluationError` naming the
    first such row; +-inf keeps its sign.  A chunk whose values are not one
    per row, shape (rows,), raises `ModelEvaluationError` naming both shapes and
    the chunk's first row, instead of being broadcast.  An IntegrationError or
    RootSolveError with a column is raised again with the column counted in
    the whole batch.
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
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"points of shape {pts.shape} given, expected (n, {self.dim})")
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
            chunk = pts[k * rows : (k + 1) * rows]
            try:
                values = self._g_many(chunk)
            except _ColumnError as exc:
                if exc.column is None:
                    raise
                raise exc.at_column(exc.column + k * rows) from exc  # the row of the batch, not of the chunk
            if np.shape(values) != (len(chunk),):
                raise ModelEvaluationError(f"the exact model returned shape {np.shape(values)} for the {len(chunk)} "
                                           f"points from row {k * rows}, expected ({len(chunk)},)", point=chunk[0])
            out[k * rows : (k + 1) * rows] = values

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
class MultiElementSurrogate:
    """One order-``order`` expansion per element of a mesh: row k of ``coeffs``
    holds element k's coefficients in graded-lex order.

    ``coeffs`` is copied and made read-only, so changing the caller's array
    afterwards leaves the surrogate unchanged; a shape other than (M, modes),
    M elements and the order's number of modes, raises ValueError.
    ``truncated`` records that a refinement cap stopped a split.
    """

    decomposition: Decomposition
    order: int
    coeffs: np.ndarray
    truncated: bool = False

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)
        expected = (len(self.decomposition), len(multi_index_set(self.dim, self.order)))
        if c.shape != expected:
            raise ValueError(f"expected coefficients of shape {expected} (elements, modes), got {c.shape}")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def dim(self) -> int:
        return self.decomposition.dim

    def __len__(self) -> int:
        return len(self.decomposition)

    def __call__(self, Z: np.ndarray) -> np.ndarray:
        return eval_me_surrogate_many(self, Z)


def tensor_grid(q: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference tensor Gauss grid: q^d points and matching product weights.

    At d = 1 the weights are the cached rule's read-only array."""
    nodes, rule_weights = gauss_legendre(q)
    grids = np.meshgrid(*([nodes] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    weights = rule_weights
    for _ in range(d - 1):
        weights = np.multiply.outer(weights, rule_weights)
    return pts, weights.ravel()


def project(fn: Callable, e: Element, order: int, q: int | None = None) -> np.ndarray:
    """Quadrature projection of a function of the global points onto the element's order-``order`` basis.

    ``fn`` maps the (npts, d) points of a tensor Gauss grid over ``e`` with q
    nodes per dimension (default order + 2) to values of shape
    ``lead + (npts,)``; the coefficients have shape ``lead + (n_modes,)``.
    """
    ref, w = tensor_grid(q or order + 2, e.dim)
    return (fn(to_global_many(e, ref)) * w) @ basis_matrix(multi_index_set(e.dim, order), ref)


def build_collocation(model: LimitStateModel, e: Element, order: int, q: int | None = None) -> np.ndarray:
    """The exact model's order-``order`` coefficients on element ``e``, projected on a tensor Gauss grid.

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

    return project(values, e, order, q)


def eval_expansion_many(e: Element, order: int, coeffs: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Values at the (n, d) points Z inside element ``e`` of its order-``order`` expansion
    ``coeffs``: the single-element basis-matrix reference for `eval_me_surrogate_many`."""
    return basis_matrix(multi_index_set(e.dim, order), to_local_many(e, Z)) @ coeffs


def eval_me_surrogate_many(s: MultiElementSurrogate, Z: np.ndarray, owners: np.ndarray | None = None) -> np.ndarray:
    """Values at the (n, d) points Z of each point's owning element's expansion.

    Z is read as ``np.asarray(Z, dtype=float)``; any shape other than (n, d),
    d the surrogate's dimension, raises ValueError before any work, and a
    point that is NaN, outside [-1, 1]^d or in no element raises DomainError.
    Walks Z in chunks of EVAL_CHUNK rows: locates the chunk, maps each row to
    its element's local coordinates, evaluates the Legendre rows of every
    dimension once and sums each basis function (a product of per-degree
    rows) times its gathered coefficients in index-set order, so the value
    at a point does not depend on the other points of the batch.  When the
    mesh's cell table is one cell, element 0 covers the whole domain and owns
    every point: the chunk is then only range-checked, not located, and the
    same sum reads element 0's scalars instead of gathering them per point,
    with the same bits.  Element indices are written into ``owners`` when it
    is given.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != s.dim:
        raise ValueError(f"points of shape {Z.shape} given, expected (n, {s.dim})")
    indices = multi_index_set(s.dim, s.order)
    coeffs = s.coeffs.T  # column k holds element k's coefficients
    lower = np.array([e.lower for e in s.decomposition])
    upper = np.array([e.upper for e in s.decomposition])
    center2, width = lower + upper, upper - lower
    _, owner, _ = s.decomposition.cells
    one_owner = owner.size == 1
    out = np.empty(Z.shape[0])
    for start in range(0, Z.shape[0], EVAL_CHUNK):
        pts = Z[start : start + EVAL_CHUNK]
        if one_owner:
            _check_in_domain(pts)
            k = 0
        else:
            k = locate_many(s.decomposition, pts)
        if owners is not None:
            owners[start : start + EVAL_CHUNK] = k
        local = np.clip((2.0 * pts - center2[k]) / width[k], -1.0, 1.0)  # as in to_local_many
        rows = [legendre_rows(s.order, local[:, j]) for j in range(s.dim)]
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


def local_variance(coeffs: np.ndarray) -> np.ndarray:
    """Variance under its element's density of each expansion along the last axis of ``coeffs``."""
    return np.sum(np.asarray(coeffs)[..., 1:] ** 2, axis=-1)


def _real(x) -> bool:
    """True for a real number that is not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _count(x) -> bool:
    """True for an integer that is not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def lp_error(surrogate, model: LimitStateModel, p: float, m: int, seed: int) -> float:
    """Monte Carlo estimate of the L^p distance between surrogate and exact model.

    Diagnostic only: costs m exact-model calls on the sample set of (m, seed).
    At a run's own seed those are the run's leading samples, and at its m the
    very same shared set, so a check independent of the estimation samples
    needs a seed whose chunk keys ``seed ^ chunk`` differ from the run's.  The
    norm order p must be finite, and a surrogate result of any shape but (m,)
    is a ValueError, raised before the exact calls.
    """
    if not (_real(p) and 1 <= p < math.inf):
        raise ValueError(f"norm order must be a finite number of at least one, got {p!r}")
    if not (_count(m) and m >= 1):
        raise ValueError(f"sample count must be an integer of at least one, got {m!r}")
    pts = sample_uniform(m, model.dim, seed).points
    approx = surrogate(pts)
    if np.shape(approx) != (m,):
        raise ValueError(f"the surrogate must return shape ({m},), one value per point, got {np.shape(approx)}")
    exact = model.evaluate_many(pts)
    return float(np.mean(np.abs(exact - approx) ** p) ** (1.0 / p))


def gamma_bound(eps_p: float, eps: float, p: float) -> float:
    """Smallest admissible replacement threshold for a target accuracy eps; NaN, bools and
    non-numbers are rejected."""
    if not (_real(eps) and eps > 0):
        raise ValueError(f"accuracy target must be a positive number, got {eps!r}")
    if not (_real(eps_p) and eps_p >= 0):
        raise ValueError(f"surrogate error must be a nonnegative number, got {eps_p!r}")
    if not (_real(p) and p >= 1):
        raise ValueError(f"norm order must be a number of at least one, got {p!r}")
    return eps_p / eps ** (1.0 / p)

