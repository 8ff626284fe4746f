"""Benchmark limit-state models.

Four problems of increasing difficulty, each standardized to uniform inputs
on [-1, 1]:

* ``step``       -- a one-dimensional step function whose global polynomial
                    expansions suffer Gibbs oscillations.
* ``linear-ode`` -- exponential decay u' = -Z u with a Gaussian rate,
                    expressed through a uniform variable; failure is
                    u(T) - u_d < 0.
* ``ko3``        -- a three-mode quadratic ODE system with a bifurcation in
                    its random initial condition; failure is y1(T) - u_d < 0.
* ``burgers``    -- the steady viscous Burgers transition layer, whose
                    position is supersensitive to a boundary perturbation;
                    failure is z0 - z(delta) < 0.

Each problem exposes an exact model (with call counting), its input
transform where applicable, and builders for the surrogates the estimators
consume.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy.special import erf, erfinv

from .errors import DomainError, RootSolveError
from .polybasis import legendre_table, gauss_legendre
from .randomspace import Decomposition, Element
from .refine import (
    PolynomialOde,
    _positive_finite,
    adapt_dynamic,
    adapt_static,
    limit_state_surrogate,
    rk4_integrate,
)
from .surrogate import GpcExpansion, LimitStateModel, MultiElementSurrogate, build_collocation

__all__ = [
    "ProblemSpec",
    "PROBLEMS",
    "StepModel",
    "step_global_gpc",
    "step_me_exact",
    "gaussian_from_uniform",
    "z_legendre_coeffs",
    "ode_limit_state",
    "OdeModel",
    "ode_galerkin_system",
    "ko_limit_state",
    "ko_trajectory",
    "KoModel",
    "ko_galerkin_system",
    "burgers_transition_z",
    "burgers_limit_state",
    "BurgersModel",
]


# ---------------------------------------------------------------------------
# step function


class StepModel(LimitStateModel):
    """Step limit state on [-1, 1]: -1 left of zero, -0.5 at zero, 0 to the right."""

    dim = 1

    def _g_many(self, Z):
        z = Z[:, 0]
        out = np.zeros_like(z)
        out[z < 0.0] = -1.0
        out[z == 0.0] = -0.5
        return out


def step_global_gpc(p: int) -> GpcExpansion:
    """Closed-form global expansion of the step function with p + 1 odd terms.

    The unnormalized series is -1/2 + sum_n c_n P_{2n+1} with
    c_n = (-1)^n (4n+3) (2n)! / (2^{2n+2} (n+1)! n!); coefficients are stored
    in the orthonormal convention, i.e. divided by sqrt(4n+3).
    """
    if p < 0:
        raise ValueError("half-order p must be nonnegative")
    order = 2 * p + 1
    coeffs = np.zeros(order + 1)
    coeffs[0] = -0.5
    for n in range(p + 1):
        c = (-1) ** n * (4 * n + 3) * math.factorial(2 * n) / (
            2 ** (2 * n + 2) * math.factorial(n + 1) * math.factorial(n)
        )
        coeffs[2 * n + 1] = c / math.sqrt(4 * n + 3)
    return GpcExpansion(Element.box([-1.0], [1.0]), order, coeffs)


def step_me_exact() -> MultiElementSurrogate:
    """The two-element surrogate that resolves the step exactly: -1 left, 0 right."""
    left = Element.box([-1.0], [0.0])
    right = Element.box([0.0], [1.0])
    dec = Decomposition((left, right))
    return MultiElementSurrogate(
        dec,
        (GpcExpansion(left, 0, np.array([-1.0])), GpcExpansion(right, 0, np.array([0.0]))),
    )


# ---------------------------------------------------------------------------
# uniform -> Gaussian transform


def gaussian_from_uniform(x, mu: float = -2.0, sigma: float = 1.0):
    """Map a uniform variable on (-1, 1) to a Gaussian with the given moments.

    Uses mu + sqrt(2) * sigma * erfinv(x), polished with one Newton step on
    erf so that |erf(y) - x| < 1e-13, elementwise.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(np.abs(arr) >= 1.0):
        raise DomainError("the transform is defined on the open interval (-1, 1)")
    y = erfinv(arr)
    y = y - (erf(y) - arr) * (math.sqrt(math.pi) / 2.0) * np.exp(y * y)
    return mu + math.sqrt(2.0) * sigma * y


def z_legendre_coeffs(p: int, mu: float = -2.0, sigma: float = 1.0, nodes: int = 64) -> np.ndarray:
    """Orthonormal Legendre coefficients of the Gaussian transform up to degree p.

    k_i = E[(mu + sqrt(2) sigma erfinv(X)) phi_i(X)] by Gauss quadrature;
    k_0 is the mean mu, and even-degree coefficients vanish when mu = 0.
    """
    if p < 1:
        raise ValueError("expansion order must be at least one")
    rule = gauss_legendre(max(nodes, 64))
    vals = gaussian_from_uniform(rule.nodes, mu, sigma)
    table = legendre_table(p, rule.nodes)
    return (rule.weights * vals) @ table


# ---------------------------------------------------------------------------
# linear decay ODE


def ode_limit_state(
    z_uniform,
    u0: float = 1.0,
    T: float = 1.0,
    u_d: float = 0.5,
    mu: float = -2.0,
    sigma: float = 1.0,
):
    """u0 exp(-Z T) - u_d with Z the Gaussian image of the uniform input (closed form)."""
    z = gaussian_from_uniform(z_uniform, mu, sigma)
    return u0 * np.exp(-z * T) - u_d


class OdeModel(LimitStateModel):
    dim = 1

    def __init__(self, u0=1.0, T=1.0, u_d=0.5, mu=-2.0, sigma=1.0):
        super().__init__()
        self.u0, self.T, self.u_d, self.mu, self.sigma = u0, T, u_d, mu, sigma

    def _g_many(self, Z):
        return ode_limit_state(Z[:, 0], self.u0, self.T, self.u_d, self.mu, self.sigma)

    def analytic_p_f(self) -> float:
        """Exact tail probability Prob(Z > ln(u0/u_d) / T) of the Gaussian rate."""
        threshold = math.log(self.u0 / self.u_d) / self.T
        return 0.5 * math.erfc((threshold - self.mu) / (self.sigma * math.sqrt(2.0)))


def ode_galerkin_system(p: int, u0=1.0, mu=-2.0, sigma=1.0) -> PolynomialOde:
    """Decay system u' = -Z_p(x) u with the rate replaced by its degree-p expansion."""
    k = z_legendre_coeffs(p, mu, sigma)

    def rate(pts: np.ndarray) -> np.ndarray:
        return legendre_table(p, pts[:, 0]) @ k

    return PolynomialOde(
        n_state=1,
        dim=1,
        initial=lambda pts: np.full((1, pts.shape[0]), float(u0)),
        field_linear=((0, "decay_rate", -1.0, 0),),
        fields={"decay_rate": rate},
    )


# ---------------------------------------------------------------------------
# three-mode quadratic system


def _ko_rhs(_t, y: np.ndarray, out: np.ndarray) -> None:
    """Writes (y1 y3, -y2 y3, y2^2 - y1^2) for a (3, n) state into ``out`` without temporaries;
    each row is bit-identical to (y1 y3, (-y2) y3, -y1^2 + y2^2)."""
    y1, y2, y3 = y
    _, d2, d3 = out
    np.multiply(y2, y2, out=d3)
    np.multiply(y1, y1, out=d2)
    np.subtract(d3, d2, out=d3)
    np.multiply(y[:2], y3, out=out[:2])
    np.negative(d2, out=d2)


def ko_trajectory(xi, T: float = 15.0, dt: float = 0.01) -> np.ndarray:
    """Integrate the three-mode system from (1, 0.1 xi, 0) in ceil(T / dt) RK4 steps;
    returns the state (3, n) at T."""
    xi = np.asarray(xi, dtype=float)
    y = np.stack([np.ones_like(xi), 0.1 * xi, np.zeros_like(xi)])
    return rk4_integrate(_ko_rhs, y, 0.0, T, dt)


def ko_limit_state(xi, T: float = 15.0, u_d: float = 0.03, dt: float = 0.01):
    """y1(T) - u_d for the three-mode system started at (1, 0.1 xi, 0)."""
    return ko_trajectory(xi, T, dt)[0] - u_d


class KoModel(LimitStateModel):
    dim = 1

    def __init__(self, T=15.0, u_d=0.03, dt=0.01):
        super().__init__()
        for name, value in (("T", T), ("dt", dt)):
            if not _positive_finite(value):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")
        self.T, self.u_d, self.dt = T, u_d, dt

    def _g_many(self, Z):
        return ko_limit_state(Z[:, 0], self.T, self.u_d, self.dt)


def ko_galerkin_system() -> PolynomialOde:
    """Quadratic couplings of the three-mode system with random y2(0) = 0.1 xi."""

    def initial(pts: np.ndarray) -> np.ndarray:
        xi = pts[:, 0]
        return np.stack([np.ones_like(xi), 0.1 * xi, np.zeros_like(xi)])

    return PolynomialOde(
        n_state=3,
        dim=1,
        initial=initial,
        quadratic=(
            (0, 1.0, 0, 2),
            (1, -1.0, 1, 2),
            (2, -1.0, 0, 0),
            (2, 1.0, 1, 1),
        ),
    )


# ---------------------------------------------------------------------------
# Burgers transition layer


def _tanh_system(a, z, delta, nu):
    s1 = a * (1.0 + z) / (2.0 * nu)
    s2 = a * (1.0 - z) / (2.0 * nu)
    return a * np.tanh(s1) - (1.0 + delta), a * np.tanh(s2) - 1.0


def _layer_residual(a, w, delta, nu):
    """The tanh system rewritten in (A, w) with w = exp(-A (1 - z) / nu).

    tanh(s) = (1 - e^(-2s)) / (1 + e^(-2s)) turns the two equations into
    rational expressions of w and e1 = exp(-2A/nu) / w, which keeps every
    partial derivative O(1) where the raw (A, z) Jacobian is singular to
    machine precision (saturated tanh).
    """
    e1 = np.exp(-2.0 * a / nu) / w
    f1 = a * (1.0 - e1) / (1.0 + e1) - (1.0 + delta)
    f2 = a * (1.0 - w) / (1.0 + w) - 1.0
    return f1, f2


def burgers_transition_z(delta, nu, return_amplitude: bool = False):
    """Transition-layer positions from the two-equation tanh system, elementwise.

    Solves A tanh[A (1 + z) / (2 nu)] = 1 + delta and
    A tanh[A (1 - z) / (2 nu)] = 1 for (A, z) by a damped Newton iteration
    started from (A, z) = (1, 0); ``delta`` and ``nu`` broadcast.  The
    iteration runs in the equivalent (A, w) coordinates of `_layer_residual`
    (steps capped componentwise and halved until the residual norm drops)
    because the raw variables make the Jacobian numerically singular wherever
    a tanh saturates.  Each point iterates until its own residual norm is
    below 1e-13; every returned root satisfies the original equations with
    residual norm below 1e-12.
    """
    delta, nu = np.broadcast_arrays(np.asarray(delta, dtype=float), np.asarray(nu, dtype=float))
    if np.any(delta < 0):
        raise ValueError("boundary perturbation must be nonnegative")
    if np.any(nu <= 0):
        raise ValueError("viscosity must be positive")
    shape = delta.shape
    delta, nu = delta.ravel(), nu.ravel()
    a, w = np.ones_like(delta), np.exp(-1.0 / nu)
    f1, f2 = _layer_residual(a, w, delta, nu)
    res = np.hypot(f1, f2)
    cap = 0.25
    w_min, w_max = 5e-324, 1.0 - 1e-12
    for _ in range(100):
        act = np.flatnonzero(~(res < 1e-13))
        if act.size == 0:
            break
        a_k, w_k, d_k, nu_k, res_k = a[act], w[act], delta[act], nu[act], res[act]
        e1 = np.exp(-2.0 * a_k / nu_k) / w_k
        d1 = (1.0 + e1) ** 2
        d2 = (1.0 + w_k) ** 2
        j11 = (1.0 - e1) / (1.0 + e1) + (4.0 * a_k / nu_k) * e1 / d1
        j12 = 2.0 * a_k * e1 / (w_k * d1)
        j21 = (1.0 - w_k) / (1.0 + w_k)
        j22 = -2.0 * a_k / d2
        det = j11 * j22 - j12 * j21
        if np.any(det == 0.0):
            i = int(np.argmax(det == 0.0))
            raise RootSolveError("singular Jacobian in the transition-layer solve",
                                 last_iterate=(a_k[i], w_k[i]), residual=res_k[i])
        da = np.clip((-f1[act] * j22 + f2[act] * j12) / det, -cap, cap)
        dw = np.clip((-j11 * f2[act] + j21 * f1[act]) / det, -cap, cap)
        # backtracking line search: points whose residual has not dropped yet retry at half the step
        lam = 1.0
        todo = np.arange(act.size)
        for _ in range(60):
            a_new = a_k[todo] + lam * da[todo]
            w_new = np.clip(w_k[todo] + lam * dw[todo], w_min, w_max)
            f1n, f2n = _layer_residual(a_new, w_new, d_k[todo], nu_k[todo])
            res_new = np.hypot(f1n, f2n)
            ok = res_new < res_k[todo]
            done = act[todo[ok]]
            a[done], w[done], f1[done], f2[done], res[done] = a_new[ok], w_new[ok], f1n[ok], f2n[ok], res_new[ok]
            todo = todo[~ok]
            if todo.size == 0:
                break
            lam *= 0.5
        if todo.size:
            i = todo[0]
            raise RootSolveError("transition-layer line search stalled",
                                 last_iterate=(a_k[i], w_k[i]), residual=res_k[i])
    z = 1.0 + (nu / a) * np.log(w)
    res = np.hypot(*_tanh_system(a, z, delta, nu))
    if np.any(~(res < 1e-12)):
        i = int(np.argmax(~(res < 1e-12)))
        raise RootSolveError(
            f"transition-layer Newton did not reach residual 1e-12 (got {res[i]:.3e})",
            last_iterate=(a[i], z[i]),
            residual=res[i],
        )
    z, a = z.reshape(shape), a.reshape(shape)
    return (z, a) if return_amplitude else z


def burgers_limit_state(x_uniform, e: float = 0.1, nu: float = 0.05, z0: float = 0.75):
    """z0 - z(delta) with delta = e (x + 1) / 2, i.e. delta uniform on (0, e), elementwise."""
    x = np.asarray(x_uniform, dtype=float)
    if np.any(np.abs(x) > 1.0):
        raise DomainError("input must lie in [-1, 1]")
    delta = e * (x + 1.0) / 2.0
    return -burgers_transition_z(delta, nu) + z0


class BurgersModel(LimitStateModel):
    dim = 1

    def __init__(self, e=0.1, nu=0.05, z0=0.75):
        super().__init__()
        self.e, self.nu, self.z0 = e, nu, z0

    def _g_many(self, Z):
        return burgers_limit_state(Z[:, 0], self.e, self.nu, self.z0)


# ---------------------------------------------------------------------------
# surrogate builders (see ProblemSpec for the call signature)


def _step_surrogate(model, params, order, opts, rcfg, global_only, event_log):
    return step_global_gpc(order) if global_only else step_me_exact()


def _galerkin_builder(make_system: Callable[[int, dict], PolynomialOde]):
    """Dynamic refinement of ``make_system(order, params)`` to time T; observes y1 - u_d."""

    def build(model, params, order, opts, rcfg, global_only, event_log):
        if global_only:
            rcfg = replace(rcfg, theta1=math.inf)
        status: dict = {}
        dec, states = adapt_dynamic(
            make_system(order, params), rcfg, T=params["T"], dt=float(opts["dt"]),
            resolve_from_t0=bool(opts.get("resolve_from_t0", False)),
            event_log=event_log, status=status,
        )
        return limit_state_surrogate(dec, states, var=0, offset=-params["u_d"], truncated=status["truncated"])

    return build


def _burgers_surrogate(model, params, order, opts, rcfg, global_only, event_log):
    q = int(opts["collocation_nodes"])
    if global_only:
        return build_collocation(model, Element.box([-1.0], [1.0]), order, q)
    return adapt_static(model, rcfg, order=order, q=q, event_log=event_log)


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class ProblemSpec:
    """Canonical description of one benchmark: parameters, reference value, builders.

    ``build_surrogate(model, params, order, opts, rcfg, global_only, event_log)``
    charges ``model`` with its exact calls; ``opts`` are ``defaults`` merged with the
    run's refine options, ``rcfg`` their RefinementConfig (None without ``theta1``).
    """

    name: str
    parameters: dict
    reference_p_f: float
    reference_tag: str
    make_model: Callable[..., LimitStateModel] = field(repr=False)
    build_surrogate: Callable[..., GpcExpansion | MultiElementSurrogate] = field(repr=False)
    defaults: dict = field(default_factory=dict, repr=False)


PROBLEMS: dict[str, ProblemSpec] = {
    "step": ProblemSpec(
        name="step",
        parameters={},
        reference_p_f=0.5,
        reference_tag="analytic",
        make_model=lambda **kw: StepModel(),
        build_surrogate=_step_surrogate,
        defaults={"delta_m": 1000, "order": 0},
    ),
    "linear-ode": ProblemSpec(
        name="linear-ode",
        parameters={"u0": 1.0, "T": 1.0, "u_d": 0.5, "mu": -2.0, "sigma": 1.0},
        reference_p_f=0.003541,
        reference_tag="published",
        make_model=lambda **kw: OdeModel(**kw),
        build_surrogate=_galerkin_builder(
            lambda order, p: ode_galerkin_system(order, u0=p["u0"], mu=p["mu"], sigma=p["sigma"])
        ),
        defaults={"delta_m": 100, "order": 5, "theta1": 0.05, "dt": 0.01},
    ),
    "ko3": ProblemSpec(
        name="ko3",
        parameters={"T": 15.0, "u_d": 0.03, "dt": 0.01},
        reference_p_f=0.102651,
        reference_tag="published",
        make_model=lambda **kw: KoModel(**kw),
        build_surrogate=_galerkin_builder(lambda order, p: ko_galerkin_system()),
        defaults={"delta_m": 100, "order": 5, "theta1": 1e-4, "dt": 0.01},
    ),
    "burgers": ProblemSpec(
        name="burgers",
        parameters={"e": 0.1, "nu": 0.05, "z0": 0.75},
        reference_p_f=0.127478,
        reference_tag="published-for-uncalibrated-parameters",
        make_model=lambda **kw: BurgersModel(**kw),
        build_surrogate=_burgers_surrogate,
        defaults={"delta_m": 100, "order": 3, "theta1": 0.01, "collocation_nodes": 21},
    ),
}
