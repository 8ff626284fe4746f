"""Adaptive construction of multi-element surrogates.

Two refinement drivers are provided.  The static criterion looks at a built
expansion: the share of variance carried by the top-degree coefficients
(eta) decides whether to split, and the per-dimension top-degree
coefficients (r_j) decide where.  The dynamic criterion integrates a
Galerkin-projected ODE system per element and splits where the energy-rate
mismatch Q between the full-order system and its truncation is too large
for the element's probability mass.

Both drivers apply one split rule in passes over the mesh (`_split_pass`):
split elements are bisected and their children take their parent's place,
so a mesh is in bisection order.  Static children are solved anew, dynamic
children continue from the projection of their parent's state.  Splits are
capped by ``max_elements``; hitting the cap sets the ``truncated`` flag on
the result instead of raising.
"""
from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import IntegrationError, UnsupportedModelError
from .polybasis import basis_matrix, multi_index_set, triple_products
from .randomspace import Decomposition, Element, split_element, to_local_many
from .surrogate import LimitStateModel, MultiElementSurrogate, build_collocation, local_variance, project

__all__ = [
    "RefinementConfig",
    "RefinementEvent",
    "PolynomialOde",
    "static_indicator",
    "adapt_static",
    "dynamic_indicator",
    "adapt_dynamic",
    "limit_state_surrogate",
    "rk4_step",
    "rk4_integrate",
    "write_events_csv",
]


# Split-direction share of the ME-gPC criterion (Wan & Karniadakis, JCP 209, 2005):
# an element is bisected along every dimension whose sensitivity (r_j or s_j) is
# at least THETA2 times the largest.  In one dimension it has no effect.
THETA2 = 0.1

# Exponent of the static criterion eta^ALPHA * prob >= theta1.
ALPHA = 0.5


@dataclass
class RefinementConfig:
    """Settings shared by both refinement criteria.

    ``theta1`` is the split threshold (eta^ALPHA * prob for the static
    criterion, Q * prob for the dynamic one; inf never splits); ``N`` is the
    expansion order; ``max_elements`` caps the mesh (hitting it marks the
    surrogate truncated).
    """

    theta1: float
    N: int = 3
    max_elements: int = 256

    def __post_init__(self):
        if not (_real(self.theta1) and self.theta1 > 0):
            raise ValueError(f"split threshold theta1 must be a positive number, got {self.theta1!r}")
        if not (_count(self.N) and self.N >= 1):
            raise ValueError(f"order N must be an integer of at least one, got {self.N!r}")
        if not (_count(self.max_elements) and self.max_elements >= 1):
            raise ValueError(f"max_elements must be an integer of at least one, got {self.max_elements!r}")


def _real(x) -> bool:
    """True for a real number that is not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _count(x) -> bool:
    """True for an integer that is not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _finite(x) -> bool:
    """True for a real number (not a bool) other than +-inf and nan."""
    return _real(x) and math.isfinite(x)


def _positive_finite(x) -> bool:
    """True for a real number (not a bool) in (0, inf)."""
    return _finite(x) and x > 0


@dataclass(frozen=True)
class RefinementEvent:
    """One split decision: when (None for static), which element, how strong, which dims."""

    time: float | None
    element: int
    indicator: float
    dims: tuple[int, ...]


def write_events_csv(events: Sequence[RefinementEvent], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "element", "indicator", "dims"])
        for ev in events:
            writer.writerow(["" if ev.time is None else ev.time, ev.element, ev.indicator,
                             " ".join(str(d) for d in ev.dims)])


# ---------------------------------------------------------------------------
# static criterion


def static_indicator(coeffs: np.ndarray, order: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Variance-decay rates eta (M,) and per-dimension sensitivities r (M, dim) of
    the order-``order`` expansions in the M rows of ``coeffs``, each row on its own.

    eta is the top-degree share of the local variance; r_j isolates the
    contribution of the pure degree-N term in dimension j.  Rows with
    (numerically) zero variance report eta = 0, and a vanishing top-degree
    mass reports r = 0, so constants never trigger a split.
    """
    if order < 1:
        raise ValueError("static indicator needs an expansion of order >= 1")
    indices = multi_index_set(dim, order)
    c = np.asarray(coeffs, dtype=float)
    sigma2 = local_variance(c)
    top = np.sum(c[:, [sum(idx) == order for idx in indices]] ** 2, axis=1)
    eta = np.divide(top, sigma2, out=np.zeros(len(c)), where=sigma2 >= 1e-14)
    axes = [indices.index(tuple(order if k == j else 0 for k in range(dim))) for j in range(dim)]
    r = np.divide(c[:, axes] ** 2, top[:, None], out=np.zeros((len(c), dim)), where=top[:, None] >= 1e-14)
    return eta, r


def _split_dims(sensitivity: np.ndarray) -> set[int]:
    """The dimensions to bisect: those whose sensitivity (r_j for the static
    criterion, s_j for the dynamic one) is at least THETA2 times the largest."""
    s = np.asarray(sensitivity, dtype=float)
    if s.size == 1:
        return {0}
    return {int(j) for j in np.flatnonzero(s >= THETA2 * s.max())}


def _split_pass(elements: Sequence[Element], ids: Sequence[int], cfg: RefinementConfig,
                strength, sensitivity, indicator, t: float | None, event_log: list[RefinementEvent] | None,
                ) -> tuple[list[Element], list[int], list[tuple[int, bool]], bool]:
    """One pass of the split rule over a mesh, in mesh order.

    Element k splits when ``strength[k] * prob >= cfg.theta1``, along the
    dimensions `_split_dims` picks from ``sensitivity[k]``, unless the split
    would grow the mesh beyond ``cfg.max_elements``.  Children take their
    parent's place and consecutive ids from max(ids) + 1, which no element
    ever held: the newest element is a leaf, and only a split removes one.
    Each split is logged as ``RefinementEvent(t, ids[k], indicator[k], dims)``.
    Returns the new mesh, its ids, the origin (parent index, is a child) of
    each new element and whether the cap refused a split.
    """
    new_elements, new_ids, origin = [], [], []
    next_id, truncated = max(ids) + 1, False
    for k, e in enumerate(elements):
        dims = _split_dims(sensitivity[k]) if strength[k] * e.prob >= cfg.theta1 else None
        if dims is not None and len(new_elements) + (len(elements) - k - 1) + 2 ** len(dims) > cfg.max_elements:
            truncated, dims = True, None
        if dims is None:
            parts, part_ids = [e], [ids[k]]
        else:
            if event_log is not None:
                event_log.append(RefinementEvent(t, ids[k], float(indicator[k]), tuple(sorted(dims))))
            parts = split_element(e, dims)
            part_ids = list(range(next_id, next_id + len(parts)))
            next_id += len(parts)
        new_elements += parts
        new_ids += part_ids
        origin += [(k, dims is not None)] * len(parts)
    return new_elements, new_ids, origin, truncated


def adapt_static(
    model: LimitStateModel,
    cfg: RefinementConfig,
    q: int | None = None,
    event_log: list[RefinementEvent] | None = None,
) -> MultiElementSurrogate:
    """Static refinement driven by order-``cfg.N`` collocation expansions on
    ``q`` Gauss nodes per dimension (see `build_collocation`).

    Passes of the split rule (`_split_pass` with strength eta^ALPHA, direction
    sensitivities r and indicator eta, all from one `static_indicator` call)
    sweep the whole mesh until one splits nothing; children take their
    parent's place and are solved anew, with all collocation points charged to
    the model's call counter, while an element that did not split keeps its
    coefficient row.  At ``theta1 = inf`` it makes one build on the whole domain.
    """
    elements = [Element.box([-1.0] * model.dim, [1.0] * model.dim)]
    rows = [build_collocation(model, elements[0], cfg.N, q)]
    ids, truncated = [0], False
    while True:
        eta, r = static_indicator(np.array(rows), cfg.N, model.dim)
        strength = [x ** ALPHA for x in eta.tolist()]  # float pow: numpy's ** 0.5 is a sqrt, rounded otherwise
        new, ids, origin, cut = _split_pass(elements, ids, cfg, strength, r, eta, None, event_log)
        truncated |= cut
        if len(new) == len(elements):
            return MultiElementSurrogate(Decomposition(tuple(elements)), cfg.N, np.array(rows), truncated)
        rows = [build_collocation(model, e, cfg.N, q) if child else rows[k] for e, (k, child) in zip(new, origin)]
        elements = new


# ---------------------------------------------------------------------------
# Galerkin propagation of polynomial ODE systems


@dataclass(frozen=True)
class PolynomialOde:
    """ODE system du/dt = f(u; z) with a right-hand side of degree <= 2 in the state.

    Terms, each addressed to one state variable ``var``:
      linear:       coeff * u[src]
      quadratic:    coeff * u[a] * u[b]
      field_linear: coeff * field(z) * u[src]

    A field_linear term holds its field, a vectorized callable of the global
    point array (npts, d); ``initial`` maps the same array to initial data of
    shape (n_state, npts).  Anything outside this structure cannot be
    projected and must be rejected with UnsupportedModelError by the
    consumers below.
    """

    n_state: int
    initial: Callable[[np.ndarray], np.ndarray]
    dim: int = 1
    linear: tuple[tuple[int, float, int], ...] = ()
    quadratic: tuple[tuple[int, float, int, int], ...] = ()
    field_linear: tuple[tuple[int, Callable[[np.ndarray], np.ndarray], float, int], ...] = ()

    def __post_init__(self):
        used = [v for var, _, src in self.linear for v in (var, src)]
        used += [v for var, _, a, b in self.quadratic for v in (var, a, b)]
        used += [v for var, _, _, src in self.field_linear for v in (var, src)]
        for v in used:
            if not 0 <= v < self.n_state:
                raise UnsupportedModelError(f"state variable {v} out of range")


def _quadratic_operator(system: PolynomialOde, dense: np.ndarray, n: int) -> np.ndarray | None:
    """The quadratic terms at ``n`` modes as one (S n, (S n)^2) matrix, S = n_state, or None
    if there are none.

    Row (a, j) and column (b, l, var, k) hold the sum of c * E[k, j, l] over the
    terms (var, c, a, b), with E = ``dense`` the triple products.  An element's
    flattened state u times this matrix, read as an (S n, S n) matrix A(u), gives
    the quadratic part of its slope as u A(u).
    """
    if not system.quadratic:
        return None
    s = system.n_state
    op = np.zeros((s, n, s, n, s, n))
    e_jlk = dense[:n, :n, :n].transpose(1, 2, 0)
    for var, c, a, b in system.quadratic:
        op[a, :, b, :, var, :] += c * e_jlk
    return op.reshape(s * n, (s * n) ** 2)


def _linear_operator(system: PolynomialOde, dense: np.ndarray, fields: Sequence[np.ndarray],
                     n: int) -> np.ndarray | None:
    """The linear and field_linear terms at ``n`` modes as one (S n, S n) matrix L per
    element, whose linear part of the slope is u L, or None if there are neither.

    ``fields`` holds the projected field, (M, modes), of each field_linear term in
    term order; the result is (M, S n, S n), or (1, S n, S n) for every element
    alike when there are no field terms.  A linear term (var, c, i) adds c to the
    diagonal of block (i, var); a field term (var, fn, c, i) with field f adds
    c * sum_j E[k, j, l] f[j] at row (i, l), column (var, k).  Raises ValueError
    unless there is one field per field_linear term.
    """
    if len(fields) != len(system.field_linear):
        raise ValueError(f"need one projected field per field_linear term: "
                         f"{len(system.field_linear)} terms, {len(fields)} fields")
    if not (system.linear or system.field_linear):
        return None
    s = system.n_state
    op = np.zeros((fields[0].shape[0] if fields else 1, s, n, s, n))
    for var, c, i in system.linear:
        op[:, i, :, var, :] += c * np.eye(n)
    for (var, _, c, i), f in zip(system.field_linear, fields):
        op[:, i, :, var, :] += c * np.einsum("kjl,ej->elk", dense[:n, : f.shape[1], :n], f)
    return op.reshape(op.shape[0], s * n, s * n)


def _batched_rhs(quad: np.ndarray | None, lin: np.ndarray | None,
                 src: np.ndarray, dst: np.ndarray) -> Callable[[], np.ndarray]:
    """Binds the projected right-hand side, given as its operators (see
    `_quadratic_operator` and `_linear_operator`), to a batch of mode coefficients
    ``src`` (M, n_state, n) and a C-contiguous output ``dst`` shaped like it.

    The returned slope reads ``src`` as it is at call time, writes the mode
    derivatives u (A(u) + L) of each element's flattened state u into ``dst`` and
    returns it: one matmul forms every A(u), the linear operator is added to them,
    and one batched matmul applies the sum, so a slope with one term kind makes
    two numpy calls or, without quadratic terms, one.  ``src`` may be a
    non-contiguous view such as a prefix of the modes; it is then flattened, by a
    copy, at each call.  The (M, S n, S n) buffer of the A(u) is made here, once.
    """
    if not dst.flags.c_contiguous:
        raise ValueError("the slope output must be C-contiguous")
    m, s, n = dst.shape
    out = dst.reshape(m, 1, s * n)
    if quad is not None:
        mat = np.empty((m, s * n, s * n))
        mat_rows = mat.reshape(m, -1)
    else:
        mat = lin if lin is not None else np.zeros((1, s * n, s * n))
    matmul, add = np.matmul, np.add

    def slope() -> np.ndarray:
        flat = src.reshape(m, s * n)
        if quad is not None:
            matmul(flat, quad, mat_rows)
            if lin is not None:
                add(mat, lin, mat)
        matmul(flat[:, None, :], mat, out)
        return dst

    return slope


def _galerkin_rhs(system: PolynomialOde, coeffs: np.ndarray, dense: np.ndarray,
                  fields: Sequence[np.ndarray]) -> np.ndarray:
    """The projected right-hand side at the mode coefficients ``coeffs`` (M, n_state, n),
    evaluated once into a new array; ``fields`` as in `_linear_operator`."""
    n = coeffs.shape[2]
    slope = _batched_rhs(_quadratic_operator(system, dense, n), _linear_operator(system, dense, fields, n),
                         coeffs, np.empty(coeffs.shape))
    return slope()


def dynamic_indicator(
    full_rhs: np.ndarray,
    reduced_rhs: np.ndarray,
    coeffs: np.ndarray,
    reduced: Sequence[tuple[int, ...]],
) -> tuple[np.ndarray, np.ndarray]:
    """Energy-rate mismatch Q between the full system and its truncation, plus
    the per-dimension contributions s, for a batch of M elements.

    ``full_rhs`` and the mode coefficients ``coeffs`` have shape (M, n_state,
    full modes), ``reduced_rhs`` has shape (M, n_state, len(reduced)); the
    reduced state is the truncation of the full one to the graded index set
    ``reduced``, a prefix of the full set, so the truncated system's slope is
    the full slope at the full state with its other modes set to zero, read
    on the first len(reduced) modes.  Returns Q of shape (M,) and s of shape
    (M, dim), each row depending on that element alone.
    """
    n_red, dim = len(reduced), len(reduced[0])
    u_red = coeffs[:, :, :n_red]
    q = np.sum(np.abs(2.0 * np.sum(full_rhs[:, :, :n_red] * u_red, axis=2)
                      - 2.0 * np.sum(reduced_rhs * u_red, axis=2)), axis=1)
    # the pure top-degree mode of each dimension
    top = [reduced.index(tuple(sum(reduced[-1]) if k == j else 0 for k in range(dim))) for j in range(dim)]
    s = np.sum(np.abs(2.0 * full_rhs[:, :, top] * coeffs[:, :, top] - 2.0 * reduced_rhs[:, :, top] * coeffs[:, :, top]),
               axis=1)
    return q, s


def rk4_step(stages, y: np.ndarray, mults, work) -> None:
    """One classical fourth-order Runge-Kutta step of an autonomous system, in place on ``y``.

    ``mults`` holds the step's four multipliers (h/2, 2, h, h/6) for a step
    of length h.  `_rk4_steps` makes them once per integration as 0-d float64
    arrays, which a ufunc takes for less per call than Python floats; any
    numbers of the same values give the same result.  ``work`` holds three
    arrays shaped like y (k1, the slope buffer kb and the stage state);
    ``stages`` holds the two slopes that `rk4_integrate` bound to (y, k1) and
    (stage, kb): calling one writes the derivative at its state into its
    buffer.  k2, k3 and k4 take turns in kb, and each is folded into the
    running sum in k1 once its stage state is made.  The update keeps the
    textbook association: stages y + (h/2) k, result
    y + (h/6) (((k1 + 2 k2) + 2 k3) + k4).
    """
    k1, kb, stage = work
    slope1, slopeb = stages
    half, two, h, sixth = mults
    add, mul = np.add, np.multiply  # outputs are positional: the out= keyword costs more per call
    slope1()
    add(y, mul(k1, half, stage), stage)
    slopeb()
    add(y, mul(kb, half, stage), stage)
    add(k1, mul(kb, two, kb), k1)
    slopeb()
    add(y, mul(kb, h, stage), stage)
    add(k1, mul(kb, two, kb), k1)
    slopeb()
    add(k1, kb, k1)
    add(y, mul(k1, sixth, k1), y)


def rk4_integrate(bind: Callable, y, t0: float, t1: float, dt: float) -> np.ndarray:
    """Integrate the autonomous system y' = f(y) from t0 to t1 > t0 in ceil((t1 - t0) / dt)
    equal RK4 steps.

    ``bind(src, dst)`` returns a slope: a callable of no arguments that
    writes f(src) into ``dst``, reading ``src`` as it is at call time (its
    return value is ignored).  Both arrays are shaped like y.  It is called
    twice per pass over the steps, once for the first stage of `rk4_step` and
    once for the other three, so per-call setup such as row views belongs in
    ``bind``.  The state is copied once, so the caller's ``y`` is left
    unmodified, and the three work arrays and the step's multipliers (see
    `rk4_step`) are made once per call.
    Raises ValueError unless t1 > t0 and dt is a positive finite number.

    Finiteness is checked once, after the last step: a step only adds to the
    state, so a non-finite entry stays non-finite.  That pass runs with
    overflow and invalid-value warnings off.  A state that ends non-finite
    is integrated again from the caller's ``y`` under the caller's error
    state, checked after every step.  This replay raises IntegrationError at
    the first step that leaves a non-finite state, with the time reached and,
    for a state of at least one axis, the first index along the last axis
    that holds a non-finite entry: for the KO exact model, the sample column.
    """
    if not t1 > t0:
        raise ValueError(f"integration interval must have t1 > t0, got [{t0!r}, {t1!r}]")
    if not _positive_finite(dt):
        raise ValueError(f"time step must be a positive finite number, got {dt!r}")
    steps = max(1, math.ceil((t1 - t0) / dt - 1e-12))
    h = (t1 - t0) / steps
    with np.errstate(over="ignore", invalid="ignore"):
        out = _rk4_steps(bind, y, h, steps)
    if np.isfinite(out).all():
        return out
    return _rk4_steps(bind, y, h, steps, t0)


def _rk4_steps(bind: Callable, y, h: float, steps: int, t0: float | None = None) -> np.ndarray:
    """``steps`` RK4 steps of length h from a copy of ``y``, each one call of the module's
    `rk4_step` with the multipliers made here once; with a start time ``t0``, raises
    IntegrationError at the first step that leaves a non-finite state."""
    y = np.array(y, dtype=float)
    work = k1, kb, stage = tuple(np.empty_like(y) for _ in range(3))
    stages = (bind(y, k1), bind(stage, kb))
    mults = tuple(np.array(x) for x in (0.5 * h, 2.0, h, h / 6.0))
    if t0 is None:
        for _ in range(steps):
            rk4_step(stages, y, mults, work)
        return y
    t = t0
    for _ in range(steps):
        rk4_step(stages, y, mults, work)
        t += h
        bad = ~np.isfinite(y)
        if bad.any():
            column = int(np.argmax(bad.reshape(-1, y.shape[-1]).any(axis=0))) if y.ndim else None
            raise IntegrationError(f"non-finite state at t = {t:.6g}", t=t, column=column)
    return y


def _project_function(fn: Callable, elements: Sequence[Element], order: int,
                      lead: tuple[int, ...] = ()) -> np.ndarray:
    """Quadrature projection of a function of the global points onto each element.

    ``fn`` maps the (npts, d) point array to values of shape ``lead + (npts,)``.
    """

    def checked(pts: np.ndarray) -> np.ndarray:
        vals = np.asarray(fn(pts), dtype=float)
        shape = lead + (pts.shape[0],)
        if vals.shape != shape:
            raise ValueError(f"projected data must have shape {shape}, got {vals.shape}")
        return vals

    return np.stack([project(checked, e, order) for e in elements])


def _project_child_state(parent: Element, child: Element, coeffs: np.ndarray, order: int) -> np.ndarray:
    """Re-expand a parent's polynomial state in the child's local basis (exact for degree <= order)."""
    basis = multi_index_set(parent.dim, order)
    return project(lambda pts: (basis_matrix(basis, to_local_many(parent, pts)) @ coeffs.T).T, child, order)


def adapt_dynamic(
    system,
    cfg: RefinementConfig,
    T: float,
    dt: float,
    event_log: list[RefinementEvent] | None = None,
) -> tuple[Decomposition, np.ndarray, bool]:
    """Integrate the projected system to time T with on-the-fly mesh refinement.

    Each element evolves its order-N Galerkin system with RK4.  Every 10 dt
    the rhs of the system truncated to order max(0, N - 2) is compared
    against the full one; elements with Q * prob >= theta1 are bisected along
    the dimensions selected by s, and the children continue from the
    projection of the parent's state.  The truncated system needs no
    operators of its own: its index set is a prefix of the full one and every
    term is at most quadratic, so its slope is the full slope at the state
    whose modes past the truncation are zero, read on the truncated modes.
    Returns the mesh, the (M, n_state, n_modes) mode coefficients at T in
    mesh order, and whether ``max_elements`` stopped a split.
    """
    if not isinstance(system, PolynomialOde):
        raise UnsupportedModelError(
            f"cannot Galerkin-project a system of type {type(system).__name__}; "
            "declare it as a PolynomialOde"
        )
    if not (_positive_finite(T) and _positive_finite(dt)):
        raise ValueError(f"final time and step must be positive finite numbers, got T = {T!r}, dt = {dt!r}")
    d = system.dim
    # Checking at every step instead of every 10 dt changes the meshes little, and
    # a reduced order of N - 1 instead of N - 2 refines the three-mode system worse.
    reduced = multi_index_set(d, max(0, cfg.N - 2))
    dense = triple_products(d, cfg.N)
    n, n_red = dense.shape[0], len(reduced)

    def linear(elements: Sequence[Element]) -> np.ndarray | None:
        """The linear operator, with the fields projected onto ``elements``."""
        fields = [_project_function(fn, elements, cfg.N) for _, fn, _, _ in system.field_linear]
        return _linear_operator(system, dense, fields, n)

    def bind(src: np.ndarray, dst: np.ndarray) -> Callable[[], np.ndarray]:
        return _batched_rhs(quad, lin, src, dst)

    quad = _quadratic_operator(system, dense, n)
    elements = [Element.box([-1.0] * d, [1.0] * d)]
    ids = [0]
    coeffs = _project_function(system.initial, elements, cfg.N, (system.n_state,))
    lin = linear(elements)
    truncated = False

    t = 0.0
    while t < T - 1e-12:
        t_next = min(t + 10.0 * dt, T)
        coeffs = rk4_integrate(bind, coeffs, t, t_next, dt)
        t = t_next
        if t >= T - 1e-12:
            break
        low = coeffs.copy()
        low[:, :, n_red:] = 0.0
        full, low_rhs = (bind(u, np.empty(u.shape))() for u in (coeffs, low))
        q_all, s_all = dynamic_indicator(full, low_rhs[:, :, :n_red], coeffs, reduced)
        new, ids, origin, cut = _split_pass(elements, ids, cfg, q_all, s_all, q_all, t, event_log)
        truncated |= cut
        if len(new) != len(elements):
            coeffs = np.stack([_project_child_state(elements[k], e, coeffs[k], cfg.N) if child else coeffs[k]
                               for e, (k, child) in zip(new, origin)])
            elements = new
            lin = linear(elements)
    return Decomposition(tuple(elements)), coeffs, truncated


def limit_state_surrogate(
    dec: Decomposition,
    coeffs: np.ndarray,
    order: int,
    var: int = 0,
    offset: float = 0.0,
    truncated: bool = False,
) -> MultiElementSurrogate:
    """Surrogate on the mesh ``dec`` for an observable of the integrated system: state
    variable ``var``'s rows of the (M, n_state, n_modes) order-``order`` mode
    coefficients, with a constant shift folded into the mean mode."""
    c = coeffs[:, var].copy()
    c[:, 0] += offset
    return MultiElementSurrogate(dec, order, c, truncated)
