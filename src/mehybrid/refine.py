"""Adaptive construction of multi-element surrogates.

Two refinement drivers are provided.  The static criterion looks at a built
expansion: the share of variance carried by the top-degree coefficients
(eta) decides whether to split, and the per-dimension top-degree
coefficients (r_j) decide where.  The dynamic criterion integrates a
Galerkin-projected ODE system per element and splits where the energy-rate
mismatch Q between the full-order system and its truncation is too large
for the element's probability mass.

Both drivers bisect elements and either re-project (default) or re-solve
the children.  Splits are capped by ``max_elements``; hitting the cap sets
the ``truncated`` flag on the result instead of raising.
"""
from __future__ import annotations

import csv
import math
import numbers
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import IntegrationError, UnsupportedModelError
from .polybasis import MultiIndex, basis_matrix, multi_index_set, triple_products, TripleProductTensor
from .randomspace import Decomposition, Element, split_element, to_global_many, to_local_many
from .surrogate import GpcExpansion, LimitStateModel, MultiElementSurrogate, build_collocation, tensor_grid

__all__ = [
    "RefinementConfig",
    "RefinementEvent",
    "GalerkinState",
    "PolynomialOde",
    "static_indicator",
    "static_should_split",
    "adapt_static",
    "galerkin_rhs",
    "dynamic_indicator",
    "adapt_dynamic",
    "limit_state_surrogate",
    "rk4_step",
    "rk4_integrate",
    "write_events_csv",
]


@dataclass
class RefinementConfig:
    """Thresholds and orders shared by both refinement criteria.

    ``theta1`` is the split threshold (eta^alpha * prob for the static
    criterion, Q * prob for the dynamic one); ``N`` and ``N0`` are the full
    and reduced orders (``N0`` defaults to N - 2); ``theta2`` selects the
    split dimensions relative to the strongest one; ``alpha`` is the static
    criterion's exponent; ``max_elements`` caps the mesh (hitting it marks
    the surrogate truncated); ``check_interval`` is the dynamic criterion's
    time between checks (default 10 dt).
    """

    theta1: float
    N: int = 3
    N0: int | None = None
    theta2: float = 0.1
    alpha: float = 0.5
    max_elements: int = 256
    check_interval: float | None = None

    def __post_init__(self):
        if self.theta1 <= 0:
            raise ValueError("split threshold theta1 must be positive")
        if not 0 < self.theta2 < 1:
            raise ValueError("theta2 must lie in (0, 1)")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        if self.N0 is None:
            self.N0 = max(0, self.N - 2)
        if not 0 <= self.N0 < self.N:
            raise ValueError("reduced order N0 must satisfy 0 <= N0 < N")
        if self.max_elements < 1:
            raise ValueError("max_elements must be at least one")
        if self.check_interval is not None and not _positive_finite(self.check_interval):
            raise ValueError(f"check_interval must be a positive number, got {self.check_interval!r}")


def _positive_finite(x) -> bool:
    """True for a real number (not a bool) in (0, inf)."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and 0 < x < math.inf


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


def static_indicator(exp: GpcExpansion) -> tuple[float, np.ndarray]:
    """Variance-decay rate eta and per-dimension sensitivities r of an expansion.

    eta is the top-degree share of the local variance; r_j isolates the
    contribution of the pure degree-N term in dimension j.  Expansions with
    (numerically) zero variance report eta = 0, and a vanishing top-degree
    mass reports r = 0, so constants never trigger a split.
    """
    if exp.order < 1:
        raise ValueError("static indicator needs an expansion of order >= 1")
    degrees = np.array([i.degree for i in exp.indices])
    c = exp.coeffs
    sigma2 = float(np.sum(c[degrees >= 1] ** 2))
    top = float(np.sum(c[degrees == exp.order] ** 2))
    eta = 0.0 if sigma2 < 1e-14 else top / sigma2
    d = exp.element.dim
    r = np.zeros(d)
    if top >= 1e-14:
        positions = {idx: k for k, idx in enumerate(exp.indices)}
        for j in range(d):
            axis = MultiIndex(tuple(exp.order if k == j else 0 for k in range(d)))
            r[j] = c[positions[axis]] ** 2 / top
    return eta, r


def static_should_split(eta: float, r: np.ndarray, prob: float, cfg: RefinementConfig) -> tuple[bool, set[int]]:
    """Split decision eta^alpha * prob >= theta1 and the dimensions to bisect."""
    if eta ** cfg.alpha * prob < cfg.theta1:
        return False, set()
    r = np.asarray(r, dtype=float)
    if r.size == 1:
        return True, {0}
    return True, {int(j) for j in np.flatnonzero(r >= cfg.theta2 * r.max())}


def adapt_static(
    model: LimitStateModel,
    cfg: RefinementConfig,
    order: int | None = None,
    q: int | None = None,
    event_log: list[RefinementEvent] | None = None,
) -> MultiElementSurrogate:
    """Breadth-first static refinement driven by collocation expansions.

    Every element in the final mesh carries a freshly built expansion; each
    split discards the parent's expansion and solves the children anew, with
    all collocation points charged to the model's call counter.
    """
    n = cfg.N if order is None else order
    queue: deque[tuple[int, Element]] = deque([(0, Element.box([-1.0] * model.dim, [1.0] * model.dim))])
    next_id = 1
    done: list[GpcExpansion] = []
    truncated = False
    while queue:
        elem_id, e = queue.popleft()
        exp = build_collocation(model, e, n, q)
        eta, r = static_indicator(exp)
        split, dims = static_should_split(eta, r, e.prob, cfg)
        if split:
            grown = len(done) + len(queue) + 2 ** len(dims)
            if grown > cfg.max_elements:
                truncated = True
                done.append(exp)
                continue
            for child in split_element(e, dims):
                queue.append((next_id, child))
                next_id += 1
            if event_log is not None:
                event_log.append(RefinementEvent(None, elem_id, eta, tuple(sorted(dims))))
        else:
            done.append(exp)
    dec = Decomposition(tuple(exp.element for exp in done))
    return MultiElementSurrogate(dec, tuple(done), truncated)


# ---------------------------------------------------------------------------
# Galerkin propagation of polynomial ODE systems


@dataclass(frozen=True)
class PolynomialOde:
    """ODE system du/dt = f(u; z) with a right-hand side of degree <= 2 in the state.

    Terms, each addressed to one state variable ``var``:
      constant:       value                       (deterministic source)
      linear:         coeff * u[src]
      quadratic:      coeff * u[a] * u[b]
      field_constant: coeff * field(z)
      field_linear:   coeff * field(z) * u[src]

    ``fields`` maps names to vectorized callables of the global point array
    (npts, d); ``initial`` maps the same array to initial data of shape
    (n_state, npts).  Anything outside this structure cannot be projected and
    must be rejected with UnsupportedModelError by the consumers below.
    """

    n_state: int
    initial: Callable[[np.ndarray], np.ndarray]
    dim: int = 1
    constant: tuple[tuple[int, float], ...] = ()
    linear: tuple[tuple[int, float, int], ...] = ()
    quadratic: tuple[tuple[int, float, int, int], ...] = ()
    field_constant: tuple[tuple[int, str, float], ...] = ()
    field_linear: tuple[tuple[int, str, float, int], ...] = ()
    fields: dict[str, Callable[[np.ndarray], np.ndarray]] = field(default_factory=dict)

    def __post_init__(self):
        names = set(self.fields)
        for var, _ in self.constant:
            self._check_var(var)
        for var, _, src in self.linear:
            self._check_var(var), self._check_var(src)
        for var, _, a, b in self.quadratic:
            self._check_var(var), self._check_var(a), self._check_var(b)
        for var, name, _ in self.field_constant:
            self._check_var(var)
            if name not in names:
                raise UnsupportedModelError(f"unknown field {name!r}")
        for var, name, _, src in self.field_linear:
            self._check_var(var), self._check_var(src)
            if name not in names:
                raise UnsupportedModelError(f"unknown field {name!r}")

    def _check_var(self, v: int) -> None:
        if not 0 <= v < self.n_state:
            raise UnsupportedModelError(f"state variable {v} out of range")


@dataclass(frozen=True)
class GalerkinState:
    """Per-element mode coefficients of every state variable at one time."""

    element: Element
    order: int
    t: float
    coeffs: np.ndarray                      # (n_state, n_modes)
    fields: dict[str, np.ndarray]           # per-field local mode coefficients

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)


def _require_polynomial(system) -> PolynomialOde:
    if not isinstance(system, PolynomialOde):
        raise UnsupportedModelError(
            f"cannot Galerkin-project a system of type {type(system).__name__}; "
            "declare it as a PolynomialOde"
        )
    return system


def _batched_rhs(
    system: PolynomialOde,
    coeffs: np.ndarray,
    dense: np.ndarray,
    fields: dict[str, np.ndarray],
    out: np.ndarray,
) -> np.ndarray:
    """Mode derivatives for a batch of elements, written into ``out`` (shaped like
    ``coeffs``, (M, n_state, n)) and returned."""
    m, _, n = coeffs.shape
    out.fill(0.0)
    e_nnn = dense[:n, :n, :n]
    for var, value in system.constant:
        out[:, var, 0] += value
    for var, c, src in system.linear:
        out[:, var, :] += c * coeffs[:, src, :]
    for var, c, a, b in system.quadratic:
        out[:, var, :] += c * np.einsum("ijl,ej,el->ei", e_nnn, coeffs[:, a, :], coeffs[:, b, :])
    for var, name, c in system.field_constant:
        out[:, var, :] += c * fields[name][:, :n]
    for var, name, c, src in system.field_linear:
        nf = fields[name].shape[1]
        e_slice = dense[:n, :nf, :n]
        out[:, var, :] += c * np.einsum("ijl,ej,el->ei", e_slice, fields[name], coeffs[:, src, :])
    return out


def galerkin_rhs(system, state: GalerkinState, tp: TripleProductTensor) -> np.ndarray:
    """Time derivatives of one element's mode coefficients under the projected system."""
    sys_ = _require_polynomial(system)
    fields = {name: vec[None, :] for name, vec in state.fields.items()}
    coeffs = state.coeffs[None, :, :]
    return _batched_rhs(sys_, coeffs, tp.dense, fields, np.empty_like(coeffs))[0]


def dynamic_indicator(
    full_rhs: np.ndarray,
    reduced_rhs: np.ndarray,
    coeffs: np.ndarray,
    dim: int,
) -> tuple[float, np.ndarray]:
    """Energy-rate mismatch Q between the full system and its truncation, plus
    the per-dimension contributions s.

    ``full_rhs`` has one column per full-order mode, ``reduced_rhs`` one per
    reduced-order mode; the reduced state is the truncation of the full one,
    whose mode coefficients ``coeffs`` live in ``dim`` random dimensions.
    """
    n_red = reduced_rhs.shape[1]
    indices = _indices_for_modes(dim, n_red)
    n0 = indices[-1].degree
    u_red = coeffs[:, :n_red]
    q_per_var = np.abs(
        2.0 * np.sum(full_rhs[:, :n_red] * u_red, axis=1) - 2.0 * np.sum(reduced_rhs * u_red, axis=1)
    )
    q_total = float(np.sum(q_per_var))
    s = np.zeros(dim)
    positions = {idx: k for k, idx in enumerate(indices)}
    for j in range(dim):
        axis = MultiIndex(tuple(n0 if k == j else 0 for k in range(dim)))
        pos = positions[axis]
        s[j] = float(
            np.sum(np.abs(2.0 * full_rhs[:, pos] * coeffs[:, pos] - 2.0 * reduced_rhs[:, pos] * coeffs[:, pos]))
        )
    return q_total, s


def _indices_for_modes(d: int, n_modes: int) -> tuple[MultiIndex, ...]:
    n = 0
    while len(multi_index_set(d, n)) < n_modes:
        n += 1
    full = multi_index_set(d, n)
    if len(full) != n_modes:
        raise ValueError(f"{n_modes} modes is not a complete graded set in dimension {d}")
    return full


def rk4_step(f: Callable, y: np.ndarray, t: float, h: float, work) -> None:
    """One classical fourth-order Runge-Kutta step, in place on ``y``.

    ``work`` holds five arrays shaped like y (k1, k2, k3, k4 and the stage
    state); ``f(t, y, out)`` writes y' into ``out``.  The update keeps the
    textbook association: stages y + (h/2) k, result
    y + (h/6) (((k1 + 2 k2) + 2 k3) + k4).
    """
    k1, k2, k3, k4, stage = work
    half = 0.5 * h
    f(t, y, k1)
    np.add(y, np.multiply(k1, half, out=stage), out=stage)
    f(t + half, stage, k2)
    np.add(y, np.multiply(k2, half, out=stage), out=stage)
    f(t + half, stage, k3)
    np.add(y, np.multiply(k3, h, out=stage), out=stage)
    f(t + h, stage, k4)
    np.add(k1, np.multiply(k2, 2.0, out=k2), out=k1)
    np.add(k1, np.multiply(k3, 2.0, out=k3), out=k1)
    np.add(k1, k4, out=k1)
    np.add(y, np.multiply(k1, h / 6.0, out=k1), out=y)


def rk4_integrate(f: Callable, y, t0: float, t1: float, dt: float) -> np.ndarray:
    """Integrate y' = f(t, y) from t0 to t1 > t0 in ceil((t1 - t0) / dt) equal RK4 steps.

    ``f(t, y, out)`` writes y' into ``out``, an array shaped like y; its return
    value is ignored.  The state is copied once, so the caller's ``y`` is
    left unmodified, and the five work arrays of `rk4_step` are allocated once
    per call.  Raises ValueError unless t1 > t0 and dt is a positive finite
    number, and IntegrationError at the first step that leaves a non-finite state.
    """
    if not t1 > t0:
        raise ValueError(f"integration interval must have t1 > t0, got [{t0!r}, {t1!r}]")
    if not _positive_finite(dt):
        raise ValueError(f"time step must be a positive finite number, got {dt!r}")
    steps = max(1, math.ceil((t1 - t0) / dt - 1e-12))
    h = (t1 - t0) / steps
    y = np.array(y, dtype=float)
    work = tuple(np.empty_like(y) for _ in range(5))
    t = t0
    for _ in range(steps):
        rk4_step(f, y, t, h, work)
        t += h
        if not np.isfinite(y).all():
            raise IntegrationError(f"non-finite state at t = {t:.6g}", t=t)
    return y


def _projection_grid(d: int, order: int):
    ref, w = tensor_grid(order + 2, d)
    phi = basis_matrix(multi_index_set(d, order), ref)
    return ref, w, phi


def _project_function(fn: Callable, elements: Sequence[Element], d: int, order: int,
                      lead: tuple[int, ...] = ()) -> np.ndarray:
    """Quadrature projection of a function of the global points onto each element.

    ``fn`` maps the (npts, d) point array to values of shape ``lead + (npts,)``.
    """
    ref, w, phi = _projection_grid(d, order)
    shape = lead + (ref.shape[0],)
    rows = []
    for e in elements:
        vals = np.asarray(fn(to_global_many(e, ref)), dtype=float)
        if vals.shape != shape:
            raise ValueError(f"projected data must have shape {shape}, got {vals.shape}")
        rows.append((vals * w) @ phi)
    return np.stack(rows)


def _project_child_state(parent: Element, child: Element, coeffs: np.ndarray, order: int) -> np.ndarray:
    """Re-expand a parent's polynomial state in the child's local basis (exact for degree <= order)."""
    d = parent.dim
    ref, w, phi = _projection_grid(d, order)
    mapped = to_local_many(parent, to_global_many(child, ref))
    parent_vals = basis_matrix(multi_index_set(d, order), mapped) @ coeffs.T   # (npts, n_state)
    return ((parent_vals * w[:, None]).T @ phi)


def _field_coeffs(system: PolynomialOde, elements: Sequence[Element], order: int) -> dict[str, np.ndarray]:
    return {
        name: _project_function(fn, elements, system.dim, order) for name, fn in system.fields.items()
    }


def adapt_dynamic(
    system,
    cfg: RefinementConfig,
    T: float,
    dt: float,
    resolve_from_t0: bool = False,
    event_log: list[RefinementEvent] | None = None,
    status: dict | None = None,
) -> tuple[Decomposition, list[GalerkinState]]:
    """Integrate the projected system to time T with on-the-fly mesh refinement.

    Each element evolves its full-order Galerkin system with RK4.  At every
    check interval the truncated system's rhs is compared against the full
    one; elements with Q * prob >= theta1 are bisected along the dimensions
    selected by s.  Children restart from a projection of the parent state
    (or are re-solved from t = 0 when ``resolve_from_t0`` is set).
    """
    sys_ = _require_polynomial(system)
    if T <= 0 or dt <= 0:
        raise ValueError("final time and step must be positive")
    d = sys_.dim
    n_red = len(multi_index_set(d, cfg.N0))
    dense = triple_products(d, cfg.N).dense
    check = cfg.check_interval if cfg.check_interval is not None else 10.0 * dt

    elements = [Element.box([-1.0] * d, [1.0] * d)]
    ids = [0]
    next_id = 1
    coeffs = _project_function(sys_.initial, elements, d, cfg.N, (sys_.n_state,))
    fields = _field_coeffs(sys_, elements, cfg.N)
    truncated = False

    t = 0.0
    while t < T - 1e-12:
        t_next = min(t + check, T)
        coeffs = rk4_integrate(lambda _t, y, out: _batched_rhs(sys_, y, dense, fields, out),
                               coeffs, t, t_next, dt)
        t = t_next
        if t >= T - 1e-12:
            break
        low = coeffs[:, :, :n_red]
        full = _batched_rhs(sys_, coeffs, dense, fields, np.empty_like(coeffs))
        reduced = _batched_rhs(sys_, low, dense, fields, np.empty_like(low))
        new_elements: list[Element] = []
        new_ids: list[int] = []
        new_rows: list[np.ndarray] = []
        for k, e in enumerate(elements):
            q_val, s = dynamic_indicator(full[k], reduced[k], coeffs[k], dim=d)
            split = q_val * e.prob >= cfg.theta1
            if split:
                dims = {0} if d == 1 else {int(j) for j in np.flatnonzero(s >= cfg.theta2 * s.max())}
                grown = len(new_elements) + (len(elements) - k - 1) + 2 ** len(dims)
                if grown > cfg.max_elements:
                    truncated = True
                    split = False
            if not split:
                new_elements.append(e)
                new_ids.append(ids[k])
                new_rows.append(coeffs[k])
                continue
            children = split_element(e, dims)
            if event_log is not None:
                event_log.append(RefinementEvent(t, ids[k], q_val, tuple(sorted(dims))))
            if resolve_from_t0:
                child_coeffs = _project_function(sys_.initial, children, d, cfg.N, (sys_.n_state,))
                child_fields = _field_coeffs(sys_, children, cfg.N)
                child_coeffs = rk4_integrate(
                    lambda _t, y, out: _batched_rhs(sys_, y, dense, child_fields, out), child_coeffs, 0.0, t, dt)
                for child, row in zip(children, child_coeffs):
                    new_elements.append(child)
                    new_ids.append(next_id)
                    next_id += 1
                    new_rows.append(row)
            else:
                for child in children:
                    new_elements.append(child)
                    new_ids.append(next_id)
                    next_id += 1
                    new_rows.append(_project_child_state(e, child, coeffs[k], cfg.N))
        if len(new_elements) != len(elements):
            elements = new_elements
            ids = new_ids
            coeffs = np.stack(new_rows)
            fields = _field_coeffs(sys_, elements, cfg.N)
    dec = Decomposition(tuple(elements))
    states = [
        GalerkinState(e, cfg.N, T, coeffs[k], {name: fields[name][k] for name in fields})
        for k, e in enumerate(elements)
    ]
    if status is not None:
        status["truncated"] = truncated
    return dec, states


def limit_state_surrogate(
    dec: Decomposition,
    states: Sequence[GalerkinState],
    var: int = 0,
    offset: float = 0.0,
    truncated: bool = False,
) -> MultiElementSurrogate:
    """Surrogate for an observable of the integrated system: mode coefficients of
    one state variable with a constant shift folded into the mean mode."""
    exps = []
    for e, st in zip(dec, states):
        c = st.coeffs[var].copy()
        c[0] += offset
        exps.append(GpcExpansion(e, st.order, c))
    return MultiElementSurrogate(dec, tuple(exps), truncated)
