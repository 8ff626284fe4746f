"""Element-local polynomial-chaos expansions and multi-element surrogates.

Expansions are built non-intrusively by pseudo-spectral projection on a
tensor Gauss grid: each coefficient is the quadrature estimate of
E[g Phi_i] over the element, which is exact whenever g restricted to the
element is a polynomial of degree <= 2q - 1 - N.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ModelEvaluationError
from .polybasis import MultiIndex, as_multi_index, basis_matrix, gauss_legendre, multi_index_set
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
    "collocation_nodes",
    "eval_expansion_many",
    "eval_me_surrogate_many",
    "local_variance",
    "lp_error",
    "gamma_bound",
    "surrogate_to_json",
    "surrogate_from_json",
    "tensor_grid",
]


# Rows per `_g_many` call inside `evaluate_many`, measured on a 2-core Xeon VM.
# With the in-place RK4 stepper a 65,536-row KO batch takes 5.9-6.0 s in one call
# and 3.2-3.9 s in 8,192-row chunks (16,384 rows is no faster, 2,048 and 4,096
# rows are slower), with bit-identical values; at 8,192 rows the five RK4 work
# arrays (about 1 MB) fit the host's 2 MB per-core L2 cache, at 65,536 rows they
# take 7.5 MB.  The benchmark's burgers workload, whose Monte Carlo run is
# one 200k-row batch, peaks at 113 MB RSS unchunked and 79 MB chunked.
EVAL_CHUNK = 8192


class LimitStateModel:
    """Exact limit-state function g(z); failure is the event {g < 0}.

    Subclasses implement `_g_many` on an (n, d) point array; `evaluate_many`
    counts every exact evaluation, adds its wall time to ``exact_s`` and feeds
    `_g_many` rows in chunks of EVAL_CHUNK.
    """

    dim: int = 1

    def __init__(self):
        self._calls = 0
        self.exact_s = 0.0

    @property
    def call_count(self) -> int:
        return self._calls

    def evaluate_many(self, Z: np.ndarray) -> np.ndarray:
        start = time.perf_counter()
        pts = np.asarray(Z, dtype=float)
        self._calls += pts.shape[0]
        chunks = [self._g_many(pts[i : i + EVAL_CHUNK]) for i in range(0, pts.shape[0], EVAL_CHUNK)]
        self.exact_s += time.perf_counter() - start
        return np.concatenate(chunks, dtype=float) if chunks else np.empty(0)

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
    def indices(self) -> tuple[MultiIndex, ...]:
        return multi_index_set(self.element.dim, self.order)

    def coeff(self, i) -> float:
        idx = as_multi_index(i)
        return float(self.coeffs[self.indices.index(idx)])

    def __call__(self, Z: np.ndarray) -> np.ndarray:
        return eval_expansion_many(self, Z)


@dataclass(frozen=True)
class MultiElementSurrogate:
    """One expansion per element of a decomposition, in matching order."""

    decomposition: Decomposition
    expansions: tuple[GpcExpansion, ...]
    truncated: bool = False

    def __post_init__(self):
        object.__setattr__(self, "expansions", tuple(self.expansions))
        if len(self.expansions) != len(self.decomposition):
            raise ValueError("one expansion per element is required")
        for e, exp in zip(self.decomposition, self.expansions):
            if e != exp.element:
                raise ValueError("expansion order does not match decomposition order")

    @property
    def dim(self) -> int:
        return self.decomposition.dim

    def __len__(self) -> int:
        return len(self.expansions)

    def __call__(self, Z: np.ndarray) -> np.ndarray:
        return eval_me_surrogate_many(self, Z)


def tensor_grid(q: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference tensor Gauss grid: q^d points and matching product weights."""
    rule = gauss_legendre(q)
    if d == 1:
        return rule.nodes[:, None], rule.weights.copy()
    grids = np.meshgrid(*([rule.nodes] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    w = rule.weights
    weights = w
    for _ in range(d - 1):
        weights = np.multiply.outer(weights, w)
    return pts, weights.ravel()


def collocation_nodes(order: int, q: int | None = None) -> int:
    """Gauss nodes per dimension of a collocation build: q (at least order + 1), by
    default order + 2, which slightly over-integrates to damp aliasing."""
    if q is not None and q < order + 1:
        raise ValueError(f"need at least order+1 = {order + 1} nodes per dimension, got {q}")
    return order + 2 if q is None else q


def build_collocation(model: LimitStateModel, e: Element, order: int, q: int | None = None) -> GpcExpansion:
    """Project the exact model onto the element basis using a tensor Gauss grid.

    Costs exactly q^d exact-model calls, with q from `collocation_nodes`.
    """
    q = collocation_nodes(order, q)
    d = e.dim
    ref_pts, weights = tensor_grid(q, d)
    nodes = to_global_many(e, ref_pts)
    try:
        values = model.evaluate_many(nodes)
    except Exception as exc:
        raise ModelEvaluationError(
            f"exact model failed on a collocation grid over [{e.lower}, {e.upper}): {exc}",
            point=nodes,
        ) from exc
    phi = basis_matrix(multi_index_set(d, order), ref_pts)
    coeffs = phi.T @ (weights * values)
    return GpcExpansion(e, order, coeffs)


def eval_expansion_many(exp: GpcExpansion, Z: np.ndarray) -> np.ndarray:
    """Expansion values at the (n, d) points Z, all inside its element."""
    return _eval_local(exp, to_local_many(exp.element, Z))


def _eval_local(exp: GpcExpansion, local: np.ndarray) -> np.ndarray:
    return basis_matrix(exp.indices, local) @ exp.coeffs


def eval_me_surrogate_many(s: MultiElementSurrogate, Z: np.ndarray) -> np.ndarray:
    """Locate each of the (n, d) points Z, then evaluate the owning element's expansion."""
    owners = locate_many(s.decomposition, Z)
    out = np.empty(Z.shape[0])
    for k, exp in enumerate(s.expansions):
        rows = owners == k
        if not np.any(rows):
            continue
        out[rows] = _eval_local(exp, to_local_many(exp.element, Z[rows]))
    return out


def local_variance(exp: GpcExpansion) -> float:
    """Variance of the expansion under the element's conditional density."""
    return float(np.sum(exp.coeffs[1:] ** 2))


def lp_error(surrogate, model: LimitStateModel, p: float, m: int, seed: int) -> float:
    """Monte Carlo estimate of the L^p distance between surrogate and exact model.

    Diagnostic only: costs m exact-model calls on a fresh sample set that is
    independent of any estimation samples.
    """
    if p < 1:
        raise ValueError("norm order must be at least one")
    if m < 1:
        raise ValueError("sample count must be at least one")
    pts = sample_uniform(m, model.dim, seed).points
    exact = model.evaluate_many(pts)
    approx = surrogate(pts)
    return float(np.mean(np.abs(exact - approx) ** p) ** (1.0 / p))


def gamma_bound(eps_p: float, eps: float, p: float) -> float:
    """Smallest admissible replacement threshold for a target accuracy eps."""
    if eps <= 0:
        raise ValueError("accuracy target must be positive")
    if eps_p < 0:
        raise ValueError("surrogate error must be nonnegative")
    if p < 1:
        raise ValueError("norm order must be at least one")
    return eps_p / eps ** (1.0 / p)


def surrogate_to_json(s: MultiElementSurrogate) -> str:
    payload = {
        "dim": s.dim,
        "order": s.expansions[0].order if s.expansions else 0,
        "truncated": s.truncated,
        "elements": [
            {
                "lower": list(exp.element.lower),
                "upper": list(exp.element.upper),
                "order": exp.order,
                "coeffs": exp.coeffs.tolist(),
            }
            for exp in s.expansions
        ],
    }
    return json.dumps(payload, indent=2)


def surrogate_from_json(text: str) -> MultiElementSurrogate:
    payload = json.loads(text)
    expansions = []
    elements = []
    for item in payload["elements"]:
        e = Element.box(item["lower"], item["upper"])
        elements.append(e)
        expansions.append(GpcExpansion(e, int(item["order"]), np.array(item["coeffs"])))
    return MultiElementSurrogate(
        Decomposition(tuple(elements)), tuple(expansions), bool(payload.get("truncated", False))
    )
