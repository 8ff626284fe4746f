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

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, RootSolveError
from .polybasis import basis_matrix, multi_index_set
from .randomspace import Decomposition, Element
from .refine import (
    PolynomialOde,
    _finite,
    _positive_finite,
    adapt_dynamic,
    adapt_static,
    limit_state_surrogate,
    rk4_integrate,
)
from .surrogate import LimitStateModel, MultiElementSurrogate, project

__all__ = [
    "ProblemSpec",
    "PROBLEMS",
    "StepModel",
    "step_global_gpc",
    "step_me_exact",
    "gaussian_from_uniform",
    "z_legendre_coeffs",
    "OdeModel",
    "ode_galerkin_system",
    "ko_trajectory",
    "KoModel",
    "ko_galerkin_system",
    "burgers_transition_z",
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


def step_global_gpc(p: int) -> MultiElementSurrogate:
    """The step function's closed-form global expansion, p + 1 odd terms, on one element.

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
    return MultiElementSurrogate(Decomposition((Element.box([-1.0], [1.0]),)), order, coeffs[None])


def step_me_exact() -> MultiElementSurrogate:
    """The two-element surrogate that resolves the step exactly: -1 left, 0 right."""
    halves = Decomposition((Element.box([-1.0], [0.0]), Element.box([0.0], [1.0])))
    return MultiElementSurrogate(halves, 0, [[-1.0], [0.0]])


# ---------------------------------------------------------------------------
# uniform -> Gaussian transform


def _constants(*values: float) -> tuple[np.ndarray, ...]:
    """Read-only 0-d float64 arrays of ``values``: a ufunc reads one faster than a Python float."""
    out = tuple(np.array(v, dtype=float) for v in values)
    for a in out:
        a.setflags(write=False)
    return out


# erfinv(x) = p(w) x with w = -log((1 - x)(1 + x)): M. Giles' double-precision polynomials
# ("Approximating the erfinv function", GPU Computing Gems, 2011), highest degree first.
# The first serves w < 6.25 in w - 3.125, the others sqrt(w) < 4 in sqrt(w) - 3.25 and
# beyond in sqrt(w) - 5.
_ERFINV_CENTRAL = _constants(
    -3.6444120640178196996e-21, -1.685059138182016589e-19, 1.2858480715256400167e-18,
    1.115787767802518096e-17, -1.333171662854620906e-16, 2.0972767875968561637e-17,
    6.6376381343583238325e-15, -4.0545662729752068639e-14, -8.1519341976054721522e-14,
    2.6335093153082322977e-12, -1.2975133253453532498e-11, -5.4154120542946279317e-11,
    1.051212273321532285e-09, -4.1126339803469836976e-09, -2.9070369957882005086e-08,
    4.2347877827932403518e-07, -1.3654692000834678645e-06, -1.3882523362786468719e-05,
    0.0001867342080340571352, -0.00074070253416626697512, -0.0060336708714301490533,
    0.24015818242558961693, 1.6536545626831027356,
)
_ERFINV_TAIL = _constants(
    2.2137376921775787049e-09, 9.0756561938885390979e-08, -2.7517406297064545428e-07,
    1.8239629214389227755e-08, 1.5027403968909827627e-06, -4.013867526981545969e-06,
    2.9234449089955446044e-06, 1.2475304481671778723e-05, -4.7318229009055733981e-05,
    6.8284851459573175448e-05, 2.4031110387097893999e-05, -0.0003550375203628474796,
    0.00095328937973738049703, -0.0016882755560235047313, 0.0024914420961078508066,
    -0.0037512085075692412107, 0.005370914553590063617, 1.0052589676941592334,
    3.0838856104922207635,
)
_ERFINV_FAR_TAIL = _constants(
    -2.7109920616438573243e-11, -2.5556418169965252055e-10, 1.5076572693500548083e-09,
    -3.7894654401267369937e-09, 7.6157012080783393804e-09, -1.4960026627149240478e-08,
    2.9147953450901080826e-08, -6.7711997758452339498e-08, 2.2900482228026654717e-07,
    -9.9298272942317002539e-07, 4.5260625972231537039e-06, -1.9681778105531670567e-05,
    7.5995277030017761139e-05, -0.00021503011930044477347, -0.00013871931833623122026,
    1.0103004648645343977, 4.8499064014085844221,
)


_ONE, _CENTRAL_SHIFT, _TAIL_FROM = _constants(1.0, 3.125, 6.25)


def _horner(coeffs, w):
    """The polynomial with ``coeffs`` (highest degree first) at ``w``, by Horner's rule:
    coeffs[0] * w + coeffs[1], then p * w + c for each further c, in one new array."""
    mul, add = np.multiply, np.add
    p = mul(w, coeffs[0])
    add(p, coeffs[1], p)
    for c in coeffs[2:]:
        mul(p, w, p)
        add(p, c, p)
    return p


def _erfinv(x: np.ndarray) -> np.ndarray:
    """Inverse error function of a 1-d array inside (-1, 1), within a few ulps.

    w = -log((1 - x)(1 + x)), the central polynomial in w - 3.125 and the
    product with x are computed in place, by the same operations in the same
    order as their allocating forms, so the bits are theirs."""
    w = np.subtract(_ONE, x)
    np.multiply(w, np.add(_ONE, x), w)
    np.log(w, w)
    np.negative(w, w)
    p = _horner(_ERFINV_CENTRAL, np.subtract(w, _CENTRAL_SHIFT))
    tail = w >= _TAIL_FROM
    # |x| > 0.999 is rare, so the tail polynomials run on those entries only
    if tail.any():
        s = np.sqrt(w[tail])
        p[tail] = np.where(s < 4.0, _horner(_ERFINV_TAIL, s - 3.25), _horner(_ERFINV_FAR_TAIL, s - 5.0))
    np.multiply(p, x, p)
    return p


def gaussian_from_uniform(x, mu: float, sigma: float):
    """Map a uniform variable on (-1, 1) to a Gaussian with the given moments.

    Uses mu + sqrt(2) * sigma * erfinv(x), elementwise, with erfinv from
    Giles' polynomials, so that |erf(y) - x| < 1e-13.  The result has the
    input's shape; a scalar gives a scalar.  A NaN or infinite input is
    outside the interval too.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.abs(arr) < 1.0):
        raise DomainError("the transform is defined on the open interval (-1, 1)")
    y = _erfinv(arr.reshape(-1)).reshape(arr.shape)
    np.multiply(y, math.sqrt(2.0) * sigma, y)  # mu + sqrt(2) sigma y, in place
    np.add(y, mu, y)
    return y[()]  # a scalar for a scalar input


def z_legendre_coeffs(p: int, mu: float, sigma: float) -> np.ndarray:
    """Orthonormal Legendre coefficients of the Gaussian transform up to degree p.

    k_i = E[(mu + sqrt(2) sigma erfinv(X)) phi_i(X)] by 64-node Gauss quadrature;
    k_0 is the mean mu, and even-degree coefficients vanish when mu = 0.
    """
    if p < 1:
        raise ValueError("expansion order must be at least one")
    return project(lambda pts: gaussian_from_uniform(pts[:, 0], mu, sigma), Element.box([-1.0], [1.0]), p, 64)


# ---------------------------------------------------------------------------
# linear decay ODE


def _check_parameters(values: dict, positive: tuple[str, ...]) -> None:
    """ValueError unless every value is a finite number and those named in ``positive`` are > 0."""
    for name, value in values.items():
        if name in positive and not _positive_finite(value):
            raise ValueError(f"{name} must be a positive finite number, got {value!r}")
        if not _finite(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


class OdeModel(LimitStateModel):
    """u0 exp(-Z T) - u_d with Z the Gaussian image of the uniform input (closed form)."""

    dim = 1

    def __init__(self, u0=1.0, T=1.0, u_d=0.5, mu=-2.0, sigma=1.0):
        super().__init__()
        _check_parameters({"u0": u0, "T": T, "u_d": u_d, "mu": mu, "sigma": sigma},
                          positive=("u0", "T", "u_d", "sigma"))
        self.u0, self.T, self.u_d, self.mu, self.sigma = u0, T, u_d, mu, sigma

    def _g_many(self, Z):
        z = gaussian_from_uniform(Z[:, 0], self.mu, self.sigma)
        # u0 exp(-z T) - u_d, in place
        np.negative(z, z)
        np.multiply(z, self.T, z)
        np.exp(z, z)
        np.multiply(z, self.u0, z)
        np.subtract(z, self.u_d, z)
        return z

    def analytic_p_f(self) -> float:
        """Exact tail probability Prob(Z > ln(u0/u_d) / T) of the Gaussian rate."""
        threshold = math.log(self.u0 / self.u_d) / self.T
        return 0.5 * math.erfc((threshold - self.mu) / (self.sigma * math.sqrt(2.0)))


def ode_galerkin_system(p: int, u0: float, mu: float, sigma: float) -> PolynomialOde:
    """Decay system u' = -Z_p(x) u with the rate replaced by its degree-p expansion."""
    k = z_legendre_coeffs(p, mu, sigma)

    def rate(pts: np.ndarray) -> np.ndarray:
        return basis_matrix(multi_index_set(1, p), pts) @ k

    return PolynomialOde(
        n_state=1,
        dim=1,
        initial=lambda pts: np.full((1, pts.shape[0]), float(u0)),
        field_linear=((0, rate, -1.0, 0),),
    )


# ---------------------------------------------------------------------------
# three-mode quadratic system


def _ko_rhs(src: np.ndarray, dst: np.ndarray):
    """Binds the three-mode right-hand side in (a, b, c) = (y1 + y2, y1 - y2, y3) to a
    (3, n) state ``src`` and an output ``dst``.

    There y1' = y1 y3, y2' = -y2 y3, y3' = y2^2 - y1^2 read a' = c b, b' = c a,
    c' = -a b, so the returned slope runs four ufuncs on rows and makes no
    temporaries: b c into the row d1 of ``dst``, a c into d2, a b into d3,
    then d3 negated in place.  The row views are made once here; a row
    multiply costs less per call than one broadcast over two rows, and
    outputs are passed positionally, which is cheaper than the out= keyword.
    """
    a, b, c = src
    d1, d2, d3 = dst
    mul, negative = np.multiply, np.negative

    def slope():
        mul(b, c, d1)
        mul(a, c, d2)
        mul(a, b, d3)
        negative(d3, d3)

    return slope


def _ko_integrate(y0: np.ndarray, T: float, dt: float) -> np.ndarray:
    """RK4 of the three-mode system from the (3, n) state ``y0`` in (y1, y2, y3) to time T,
    in ceil(T / dt) steps of the (a, b, c) = (y1 + y2, y1 - y2, y3) slope `_ko_rhs`;
    returns the state in (y1, y2, y3) = ((a + b) / 2, (a - b) / 2, c).

    RK4 commutes with linear changes of variables, so the result is the
    y-coordinate RK4 up to rounding: 8e-13 at most on 1e6 KO samples at seeds 42
    and 7, with no failure sign changed, which the ``ko-reference`` invariant checks.
    """
    start = np.stack([y0[0] + y0[1], y0[0] - y0[1], y0[2]])
    # a temporary y0, as ko_trajectory passes, is freed here rather than held through the integration
    del y0
    a, b, c = rk4_integrate(_ko_rhs, start, 0.0, T, dt)
    return np.stack([(a + b) / 2.0, (a - b) / 2.0, c])


def ko_trajectory(xi, T: float, dt: float) -> np.ndarray:
    """Integrate the three-mode system from (1, 0.1 xi, 0) in ceil(T / dt) RK4 steps;
    returns the state at T, shaped (3,) + xi.shape (see `_ko_integrate`)."""
    xi = np.asarray(xi, dtype=float)
    flat = xi.reshape(-1)
    y = _ko_integrate(np.stack([np.ones_like(flat), 0.1 * flat, np.zeros_like(flat)]), T, dt)
    return y.reshape((3,) + xi.shape)


class KoModel(LimitStateModel):
    """y1(T) - u_d for the three-mode system started at (1, 0.1 xi, 0), in RK4 steps of dt."""

    dim = 1
    parallel_chunk = 16_384

    def __init__(self, T=15.0, u_d=0.03, dt=0.01):
        super().__init__()
        _check_parameters({"T": T, "u_d": u_d, "dt": dt}, positive=("T", "dt"))
        self.T, self.u_d, self.dt = T, u_d, dt

    def _g_many(self, Z):
        return ko_trajectory(Z[:, 0], self.T, self.dt)[0] - self.u_d


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


def burgers_transition_z(delta, nu, return_amplitude: bool = False):
    """Transition-layer positions from the two-equation tanh system, elementwise.

    Solves A tanh[A (1 + z) / (2 nu)] = 1 + delta and
    A tanh[A (1 - z) / (2 nu)] = 1 for (A, z); ``delta`` and ``nu`` broadcast.
    The equations give w = (A - 1) / (A + 1) and e1 = (A - 1 - delta) / (A + 1 + delta)
    with w e1 = exp(-2A / nu), which in t = ln(A - 1 - delta) is the strictly
    increasing scalar equation

        t + ln(delta + e^t) + 2 (1 + delta + e^t) / nu - ln(2 + delta + e^t) - ln(2 + 2 delta + e^t) = 0.

    Newton's method in t starts from the root with the e^t terms dropped, and
    each point stops on its own step, so its root does not depend on its
    batch; then z = nu / (2A) ln(w / e1).  Working in t keeps A - 1 - delta
    resolved where it underflows (small nu).  Every returned root satisfies
    the original equations with residual norm below 1e-12, each residual
    divided by its equation's slope in z where that slope exceeds one: a
    layer pushed against z = 1 by a large delta makes the second equation
    steep in z, so a z correct to the last bit leaves a residual of that
    slope times its rounding.  Otherwise RootSolveError names the first
    failing entry of the broadcast inputs, flattened, as its column.
    """
    delta, nu = np.broadcast_arrays(np.asarray(delta, dtype=float), np.asarray(nu, dtype=float))
    if not np.all(np.isfinite(delta) & (delta >= 0)):
        raise ValueError("boundary perturbation must be finite and nonnegative")
    if not np.all(np.isfinite(nu) & (nu > 0)):
        raise ValueError("viscosity must be positive and finite")
    shape = delta.shape
    delta, nu = delta.ravel(), nu.ravel()
    with np.errstate(divide="ignore"):
        ln_d = np.log(delta)
    c = np.log((2.0 + delta) * (2.0 + 2.0 * delta)) - 2.0 * (1.0 + delta) / nu
    t = np.minimum(c - ln_d, 0.5 * c)
    act = np.arange(t.size)
    for _ in range(100):
        if act.size == 0:
            break
        t_k, d_k, nu_k = t[act], delta[act], nu[act]
        e = np.exp(t_k)
        ln_de = np.logaddexp(ln_d[act], t_k)
        g = t_k + ln_de + 2.0 * (1.0 + d_k + e) / nu_k - np.log(2.0 + d_k + e) - np.log(2.0 + 2.0 * d_k + e)
        dg = 1.0 + np.exp(t_k - ln_de) + 2.0 * e / nu_k - e / (2.0 + d_k + e) - e / (2.0 + 2.0 * d_k + e)
        step = g / dg
        t[act] = t_k - step
        act = act[np.abs(step) > 1e-12 * (1.0 + np.abs(t_k))]
    e = np.exp(t)
    a = 1.0 + delta + e
    z = nu / (2.0 * a) * (np.logaddexp(ln_d, t) + np.log(2.0 + 2.0 * delta + e) - np.log(2.0 + delta + e) - t)
    # at the root the equations' slopes in z are (A^2 - (1 + delta)^2) / (2 nu) = e^t (A + 1 + delta) / (2 nu)
    # and -(A^2 - 1) / (2 nu); near a boundary they amplify the rounding of z, so each residual is
    # measured as a step in z wherever its slope exceeds one
    r1, r2 = _tanh_system(a, z, delta, nu)
    res = np.hypot(r1 / np.maximum(1.0, e * (a + 1.0 + delta) / (2.0 * nu)),
                   r2 / np.maximum(1.0, (a * a - 1.0) / (2.0 * nu)))
    if np.any(~(res < 1e-12)):
        i = int(np.argmax(~(res < 1e-12)))
        raise RootSolveError(
            f"transition-layer Newton did not reach residual 1e-12 (got {res[i]:.3e})",
            last_iterate=(a[i], z[i]),
            residual=res[i],
            column=i,
        )
    z, a = z.reshape(shape), a.reshape(shape)
    return (z, a) if return_amplitude else z


class BurgersModel(LimitStateModel):
    """z0 - z(delta) with delta = e (x + 1) / 2, i.e. delta uniform on (0, e); an input
    outside [-1, 1] is a DomainError."""

    dim = 1

    def __init__(self, e=0.1, nu=0.05, z0=0.75):
        super().__init__()
        _check_parameters({"e": e, "nu": nu, "z0": z0}, positive=("e", "nu"))
        self.e, self.nu, self.z0 = e, nu, z0

    def _g_many(self, Z):
        x = Z[:, 0]
        if not np.all(np.abs(x) <= 1.0):
            raise DomainError("input must lie in [-1, 1]")
        delta = self.e * (x + 1.0) / 2.0
        return -burgers_transition_z(delta, self.nu) + self.z0


# ---------------------------------------------------------------------------
# surrogate builders (see ProblemSpec for the call signature)

# RK4 step of the Galerkin solves of both ODE problems.
GALERKIN_DT = 0.01

# Gauss nodes per element of every Burgers collocation build, whatever the
# order; a build needs at least order + 1, so Burgers orders stop at 20.
BURGERS_NODES = 21


def _step_surrogate(model, order, rcfg, event_log):
    return step_me_exact() if order is None else step_global_gpc(order)


def _galerkin_builder(make_system: Callable[[LimitStateModel, int], PolynomialOde]):
    """Dynamic refinement of ``make_system(model, order)`` to the model's time T; observes y1 - u_d."""

    def build(model, order, rcfg, event_log):
        dec, coeffs, truncated = adapt_dynamic(
            make_system(model, order), rcfg, T=model.T, dt=GALERKIN_DT, event_log=event_log)
        return limit_state_surrogate(dec, coeffs, order, var=0, offset=-model.u_d, truncated=truncated)

    return build


def _burgers_surrogate(model, order, rcfg, event_log):
    return adapt_static(model, rcfg, q=BURGERS_NODES, event_log=event_log)


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class ProblemSpec:
    """Canonical description of one benchmark: model, reference value, builders.

    ``make_model(**params)`` makes the run's one exact model; ``parameters``
    are the defaults of its signature, at which ``reference_p_f`` holds.
    ``build_surrogate(model, order, rcfg, event_log)`` returns a
    MultiElementSurrogate; it reads any parameter it needs from ``model``
    and charges ``model`` with its exact calls.  ``rcfg`` is the run's
    RefinementConfig (None for a problem without a ``theta1`` default), with
    ``theta1 = inf`` for a global build, which makes a one-element mesh.
    Step builds its exact two-element surrogate when ``order`` is None.
    """

    reference_p_f: float
    reference_tag: str
    make_model: Callable[..., LimitStateModel] = field(repr=False)
    build_surrogate: Callable[..., MultiElementSurrogate] = field(repr=False)
    defaults: dict = field(default_factory=dict, repr=False)
    max_order: int | None = None  # the highest order build_surrogate accepts, if it has one

    @property
    def parameters(self) -> dict:
        return {p.name: p.default for p in inspect.signature(self.make_model).parameters.values()}


PROBLEMS: dict[str, ProblemSpec] = {
    "step": ProblemSpec(
        reference_p_f=0.5,
        reference_tag="analytic",
        make_model=StepModel,
        build_surrogate=_step_surrogate,
        defaults={"delta_m": 1000},
    ),
    "linear-ode": ProblemSpec(
        reference_p_f=0.003541,
        reference_tag="published",
        make_model=OdeModel,
        build_surrogate=_galerkin_builder(lambda m, order: ode_galerkin_system(order, m.u0, m.mu, m.sigma)),
        defaults={"delta_m": 100, "theta1": 0.05},
    ),
    "ko3": ProblemSpec(
        reference_p_f=0.102651,
        reference_tag="published",
        make_model=KoModel,
        build_surrogate=_galerkin_builder(lambda m, order: ko_galerkin_system()),
        defaults={"delta_m": 100, "theta1": 1e-4},
    ),
    "burgers": ProblemSpec(
        reference_p_f=0.127478,
        reference_tag="published-for-uncalibrated-parameters",
        make_model=BurgersModel,
        build_surrogate=_burgers_surrogate,
        defaults={"delta_m": 100, "theta1": 0.01},
        max_order=BURGERS_NODES - 1,
    ),
}
