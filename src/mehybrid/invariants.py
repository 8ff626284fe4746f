"""Invariant suite shared by ``mehybrid validate`` and the acceptance tests.

``CHECKS`` lists the checks in run order; each returns ``(ok, detail)`` and
takes every bound it applies from ``TOLERANCES``.
"""
from __future__ import annotations

import math

import numpy as np

from . import problems as prob
from .estimator import HybridConfig, direct_hybrid, iterative_hybrid, mc_estimate
from .polybasis import basis_matrix, gauss_legendre, multi_index_set, triple_products
from .randomspace import Decomposition, Element, check_partition, sample_uniform, split_element
from .refine import PolynomialOde, _batched_rhs, dynamic_indicator, rk4_integrate
from .surrogate import CallableModel, gamma_bound, lp_error, tensor_grid

__all__ = ["TOLERANCES", "CHECKS"]

TOLERANCES = {
    "orthonormality": 1e-12,          # max |Gram - I|
    "quadrature-exactness": 1e-13,    # relative error of the even moments
    "partition-of-unity": 1e-12,      # |sum of element probabilities - 1|
    "linear-closure": 1e-10,          # Q of a linear system
    "ko-conservation": 1e-8,          # drift of y1 y2 from its initial value
    "ko-symmetry": 1e-10,             # |y1(xi) - y1(-xi)|
    "burgers-residuals": 1e-12,       # residual norm of the transition-layer solve
    "rk4-order": (12.0, 20.0),        # error ratio when the step halves
    "gamma-bound": 0.05,              # accuracy target eps of the banded hybrid
}


def check_orthonormality() -> tuple[bool, str]:
    worst = 0.0
    for d, n in ((1, 8), (2, 6), (3, 4)):
        pts, w = tensor_grid(n + 2, d)
        phi = basis_matrix(multi_index_set(d, n), pts)
        gram = phi.T @ (w[:, None] * phi)
        worst = max(worst, float(np.max(np.abs(gram - np.eye(gram.shape[0])))))
    return worst < TOLERANCES["orthonormality"], f"gram deviation {worst:.2e}"


def check_quadrature() -> tuple[bool, str]:
    worst = 0.0
    for q in range(1, 17):
        rule = gauss_legendre(q)
        for k in range(0, 2 * q - 1, 2):
            exact = 1.0 / (k + 1)
            got = float(np.sum(rule.weights * rule.nodes**k))
            worst = max(worst, abs(got - exact) / exact)
    return worst < TOLERANCES["quadrature-exactness"], f"moment error {worst:.2e}"


def check_partition_of_unity() -> tuple[bool, str]:
    rng = np.random.default_rng(5)
    elements = [Element.box([-1.0, -1.0], [1.0, 1.0])]
    for _ in range(40):
        k = int(rng.integers(len(elements)))
        dims = set(rng.choice(2, size=int(rng.integers(1, 3)), replace=False).tolist())
        elements[k : k + 1] = split_element(elements[k], dims)
    drift = abs(sum(e.prob for e in elements) - 1.0)
    issues = check_partition(Decomposition(tuple(elements)))
    ok = drift < TOLERANCES["partition-of-unity"] and not issues
    return ok, issues[0] if issues else f"{len(elements)} elements, sum drift {drift:.2e}"


def check_hybrid_exhaustion() -> tuple[bool, str]:
    """A surrogate wrong on every sample walks all of them and ends at Monte Carlo exactly."""
    ok, details = True, []
    for m, delta_m in ((4321, 200), (5000, 300)):
        samples = sample_uniform(m, 1, 11)
        model = CallableModel(lambda z: np.ones(len(z)))
        est, _ = iterative_hybrid(model, lambda Z: -np.ones(len(Z)), samples, HybridConfig(delta_m=delta_m))
        mc = mc_estimate(model, samples)
        ok = ok and est.p_f == mc.p_f and est.n_exact == m
        details.append(f"estimate {est.p_f} vs MC {mc.p_f}, n_exact {est.n_exact}/{m}")
    return ok, "; ".join(details)


def check_linear_closure() -> tuple[bool, str]:
    system = PolynomialOde(
        n_state=2, dim=1,
        initial=lambda pts: np.stack([np.ones(pts.shape[0]), pts[:, 0]]),
        linear=((0, -1.0, 0), (0, 0.5, 1), (1, -0.25, 1)),
    )
    dense = triple_products(1, 5).dense
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10):
        c = rng.normal(size=(1, 2, 6))
        full = _batched_rhs(system, c, dense, {}, np.empty_like(c))
        red = _batched_rhs(system, c[:, :, :4], dense, {}, np.empty_like(c[:, :, :4]))
        q, _ = dynamic_indicator(full[0], red[0], c[0], dim=1)
        worst = max(worst, q)
    return worst < TOLERANCES["linear-closure"], f"max Q {worst:.2e}"


def check_ko_invariants() -> tuple[bool, str]:
    xi = np.random.default_rng(9).uniform(-1, 1, size=20)
    y = prob.ko_trajectory(xi, 15.0, 0.01)
    drift = float(np.max(np.abs(y[0] * y[1] - 0.1 * xi)))
    sym = float(np.max(np.abs(y[0] - prob.ko_trajectory(-xi, 15.0, 0.01)[0])))
    ok = drift < TOLERANCES["ko-conservation"] and sym < TOLERANCES["ko-symmetry"]
    return ok, f"conservation {drift:.2e}, symmetry {sym:.2e}"


def check_burgers_residuals() -> tuple[bool, str]:
    # 50 (delta, nu) pairs, drawn in the same stream order as 50 alternating scalar draws
    delta, nu = np.random.default_rng(13).uniform([0.0, 0.02], [0.1, 0.1], size=(50, 2)).T
    z, a = prob.burgers_transition_z(delta, nu, return_amplitude=True)
    worst = float(np.max(np.hypot(*prob._tanh_system(a, z, delta, nu))))
    return worst < TOLERANCES["burgers-residuals"], f"max residual {worst:.2e}"


def check_rk4_order() -> tuple[bool, str]:
    def decay(_t, v, out):
        np.negative(v, out=out)

    def err(h: float) -> float:
        return abs(float(rk4_integrate(decay, 1.0, 0.0, 1.0, h)) - math.exp(-1.0))

    lo, hi = TOLERANCES["rk4-order"]
    ratio = err(0.02) / err(0.01)
    return lo <= ratio <= hi, f"error ratio {ratio:.2f}"


def check_gamma_bound() -> tuple[bool, str]:
    """The banded hybrid at gamma_bound stays within eps of Monte Carlo on 20 sample sets."""
    eps, p_norm, offset = TOLERANCES["gamma-bound"], 2, 0.01
    model = CallableModel(lambda z: z - 0.5)
    surr = CallableModel(lambda z: z - 0.5 + offset)
    worst = 0.0
    for seed in range(20):
        samples = sample_uniform(4000, 1, 100 + seed)
        eps_p = lp_error(surr.evaluate_many, model, p_norm, 2000, seed=200 + seed)
        est = direct_hybrid(model, surr.evaluate_many, samples, gamma_bound(eps_p, eps, p_norm))
        worst = max(worst, abs(est.p_f - mc_estimate(model, samples).p_f))
    return worst <= eps, f"max |hybrid - MC| {worst:.2e}"


CHECKS = (
    ("orthonormality", check_orthonormality),
    ("quadrature-exactness", check_quadrature),
    ("partition-of-unity", check_partition_of_unity),
    ("hybrid-exhaustion", check_hybrid_exhaustion),
    ("linear-closure", check_linear_closure),
    ("ko-invariants", check_ko_invariants),
    ("burgers-residuals", check_burgers_residuals),
    ("rk4-order", check_rk4_order),
    ("gamma-bound", check_gamma_bound),
)
