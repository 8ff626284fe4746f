import math

import numpy as np
import pytest
from scipy.special import erf

from mehybrid.errors import DomainError, IntegrationError, RootSolveError
from mehybrid.estimator import mc_estimate, mc_stddev
from mehybrid.polybasis import gauss_legendre, legendre_table
from mehybrid.randomspace import sample_uniform
from mehybrid.refine import rk4_integrate
from mehybrid.surrogate import EVAL_CHUNK, eval_expansion_many, lp_error
from mehybrid.problems import (
    PROBLEMS,
    BurgersModel,
    KoModel,
    OdeModel,
    StepModel,
    _ko_rhs,
    _tanh_system,
    burgers_limit_state,
    burgers_transition_z,
    gaussian_from_uniform,
    ko_trajectory,
    ode_limit_state,
    step_global_gpc,
    step_me_exact,
    z_legendre_coeffs,
)


# ---------------------------------------------------------------------------
# step


def test_step_values():
    assert StepModel().evaluate_many(np.array([[-0.5], [0.0], [0.5]])).tolist() == [-1.0, -0.5, 0.0]


def test_step_exact_surrogate_has_zero_lp_error():
    model = StepModel()
    for p in (1, 2, 4):
        assert lp_error(step_me_exact(), model, p=p, m=3000, seed=p) == 0.0


def test_step_global_expansion_closed_form():
    # lowest order: -1/2 + (3/4) P1
    exp = step_global_gpc(0)
    assert exp.coeff((0,)) == pytest.approx(-0.5, abs=1e-15)
    assert exp.coeff((1,)) == pytest.approx(0.75 / math.sqrt(3.0), abs=1e-15)

    # higher orders match the explicit series evaluated with numpy Legendre
    x = np.linspace(-1, 1, 41)
    for p in (2, 7):
        exp = step_global_gpc(p)
        series = np.full_like(x, -0.5)
        for n in range(p + 1):
            c = (-1) ** n * (4 * n + 3) * math.factorial(2 * n) / (
                2 ** (2 * n + 2) * math.factorial(n + 1) * math.factorial(n)
            )
            series += c * np.polynomial.legendre.Legendre.basis(2 * n + 1)(x)
        assert np.max(np.abs(eval_expansion_many(exp, x[:, None]) - series)) < 1e-12


def test_step_global_expansion_converges_in_l2():
    model = StepModel()
    errs = [lp_error(step_global_gpc(p), model, p=2, m=20000, seed=1) for p in (0, 3, 7)]
    assert errs[0] > errs[1] > errs[2]


# ---------------------------------------------------------------------------
# uniform -> Gaussian transform


def test_transform_median_and_round_trip():
    assert gaussian_from_uniform(0.0, -2.0, 1.0) == pytest.approx(-2.0, abs=1e-14)
    x = float(erf(1.0 / math.sqrt(2.0)))
    assert gaussian_from_uniform(x, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_transform_newton_polish_accuracy():
    x = np.linspace(-0.999999, 0.999999, 2001)
    y = (gaussian_from_uniform(x, 0.0, 1.0)) / math.sqrt(2.0)
    assert np.max(np.abs(erf(y) - x)) < 1e-13


def test_transform_domain_error():
    with pytest.raises(DomainError):
        gaussian_from_uniform(1.0)
    with pytest.raises(DomainError):
        gaussian_from_uniform(-1.0000001)


def test_transform_sample_mean_clt():
    pts = sample_uniform(1_000_000, 1, 17).points[:, 0]
    z = gaussian_from_uniform(pts, -2.0, 1.0)
    assert abs(float(z.mean()) + 2.0) < 0.003


def test_z_legendre_coeffs():
    k = z_legendre_coeffs(6, mu=-2.0, sigma=1.0)
    assert k[0] == pytest.approx(-2.0, abs=1e-12)
    k0 = z_legendre_coeffs(6, mu=0.0, sigma=1.0)
    assert np.max(np.abs(k0[2::2])) < 1e-12

    # reconstruction error decreases with the order (quadrature oracle)
    rule = gauss_legendre(128)
    z_exact = gaussian_from_uniform(rule.nodes, -2.0, 1.0)
    errs = []
    for p in (1, 3, 5, 9):
        kp = z_legendre_coeffs(p, -2.0, 1.0)
        approx = legendre_table(p, rule.nodes) @ kp
        errs.append(float(np.sqrt(np.sum(rule.weights * (z_exact - approx) ** 2))))
    assert errs == sorted(errs, reverse=True)


# ---------------------------------------------------------------------------
# linear decay ODE


def test_ode_limit_state_at_median():
    assert ode_limit_state(0.0) == pytest.approx(math.exp(2.0) - 0.5, rel=1e-12)


def test_ode_analytic_tail_matches_mc():
    model = OdeModel()
    analytic = model.analytic_p_f()
    # independent tail oracle through the complementary error function
    assert analytic == pytest.approx(0.5 * math.erfc((math.log(2.0) + 2.0) / math.sqrt(2.0)), abs=1e-15)
    est = mc_estimate(model, sample_uniform(200_000, 1, 42))
    assert abs(est.p_f - analytic) < 3.0 * mc_stddev(analytic, 200_000)


# ---------------------------------------------------------------------------
# three-mode system


def test_ko_conservation_and_symmetry():
    rng = np.random.default_rng(3)
    xi = rng.uniform(-1.0, 1.0, size=50)
    y = ko_trajectory(xi, 15.0, 0.01)
    assert np.max(np.abs(y[0] * y[1] - 0.1 * xi)) < 1e-8
    y_neg = ko_trajectory(-xi, 15.0, 0.01)
    assert np.max(np.abs(y[0] - y_neg[0])) < 1e-10


def test_ko_trajectory_matches_textbook_rk4():
    # the in-place stepper keeps the textbook association, so it agrees bit for bit with
    # an allocating RK4 that does not use the package's stepper
    xi = np.random.default_rng(4).uniform(-1.0, 1.0, size=300)
    y0 = np.stack([np.ones_like(xi), 0.1 * xi, np.zeros_like(xi)])

    def rhs(v):
        return np.stack([v[0] * v[2], -v[1] * v[2], -v[0] ** 2 + v[1] ** 2])

    y, h = y0, 15.0 / 1500
    for _ in range(1500):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert np.array_equal(ko_trajectory(xi, 15.0, 0.01), y)
    start = y0.copy()
    assert np.array_equal(rk4_integrate(_ko_rhs, y0, 0.0, 15.0, 0.01), y)
    assert np.array_equal(y0, start)


def test_ko_rejects_bad_step():
    with pytest.raises(ValueError):
        ko_trajectory(0.1, 15.0, 0.0)
    with pytest.raises(ValueError):
        ko_trajectory(0.1, 0.0, 0.01)
    for bad in ({"T": -5}, {"T": 0}, {"T": "abc"}, {"T": math.inf}, {"dt": -0.01}, {"dt": 0}, {"dt": math.nan}):
        with pytest.raises(ValueError, match="positive finite"):
            KoModel(**bad)
    # five RK4 steps of length 3 overflow the state
    with pytest.raises(IntegrationError), np.errstate(over="ignore", invalid="ignore"):
        ko_trajectory(np.array([-0.5, 0.3]), 15.0, 3.0)


# ---------------------------------------------------------------------------
# Burgers transition layer


def oracle_transition_z(delta: np.ndarray, nu: np.ndarray) -> np.ndarray:
    # algebraic reduction of the tanh system: with E2 = (A-1)/(A+1) and
    # E1 = (A-1-d)/(A+1+d), the product E1 E2 equals exp(-2A/nu), which pins
    # eps = A-1-d through a quadratic; z follows from the ratio E2/E1
    eps = np.zeros_like(delta)
    for _ in range(3):
        k = (2 + delta + eps) * (2 + 2 * delta + eps) * np.exp(-2 * (1 + delta + eps) / nu)
        eps = 2 * k / (delta + np.sqrt(delta * delta + 4 * k))
    a = 1 + delta + eps
    return (nu / (2 * a)) * np.log((delta + eps) * (2 + 2 * delta + eps) / ((2 + delta + eps) * eps))


def test_burgers_symmetric_root():
    assert abs(burgers_transition_z(0.0, 0.05)) < 1e-14


def test_burgers_residuals_and_oracle_agreement():
    # 1,000 (delta, nu) pairs, drawn in the same stream order as alternating scalar draws
    delta, nu = np.random.default_rng(13).uniform([0.0, 0.02], [0.1, 0.1], size=(1000, 2)).T
    z, a = burgers_transition_z(delta, nu, return_amplitude=True)
    assert z.shape == a.shape == (1000,)
    assert np.max(np.hypot(*_tanh_system(a, z, delta, nu))) < 1e-12
    assert np.max(np.abs(z - oracle_transition_z(delta, nu))) < 1e-9


def test_burgers_monotone_and_continuous():
    grid = np.arange(0.0, 0.1 + 1e-12, 1e-4)
    zs = burgers_transition_z(grid, 0.05)
    assert np.all(np.diff(zs) > 0.0)
    # the first interval crosses the supersensitive layer; jumps beyond it stay small
    assert np.max(np.diff(zs)[1:]) < 0.2


def test_burgers_parameter_validation():
    with pytest.raises(ValueError):
        burgers_transition_z(-0.01, 0.05)
    with pytest.raises(ValueError):
        burgers_transition_z(0.01, 0.0)
    # one bad entry rejects the whole batch
    with pytest.raises(ValueError):
        burgers_transition_z(np.array([0.02, -0.01, 0.05]), 0.05)
    with pytest.raises(ValueError):
        burgers_transition_z(0.01, np.array([0.05, 0.0]))


def test_burgers_unconverged_point_raises():
    # at nu = 1e-3 the start value w = exp(-1/nu) underflows to zero, so that point's
    # residual is not finite and its line search stalls; the whole batch fails
    with pytest.raises(RootSolveError, match="stalled"), np.errstate(divide="ignore", invalid="ignore"):
        burgers_transition_z(np.array([0.01, 0.05]), np.array([0.05, 1e-3]))


def test_burgers_limit_state_endpoints_and_failure_interval():
    assert burgers_limit_state(-1.0) == pytest.approx(0.75, abs=1e-14)
    xs = np.linspace(-1.0, 1.0, 201)
    vals = burgers_limit_state(xs)
    # failure region is one upper interval of delta: signs switch exactly once
    signs = vals < 0.0
    switches = np.count_nonzero(np.diff(signs))
    assert switches == 1
    assert not signs[0] and signs[-1]
    with pytest.raises(DomainError):
        burgers_limit_state(1.5)
    with pytest.raises(DomainError):
        burgers_limit_state(np.array([0.0, -1.2]))


def test_burgers_model_counts_calls():
    model = BurgersModel()
    model.evaluate_many(sample_uniform(37, 1, 2).points)
    assert model.call_count == 37


# ---------------------------------------------------------------------------
# registry


def test_problem_registry():
    assert set(PROBLEMS) == {"step", "linear-ode", "ko3", "burgers"}
    for spec in PROBLEMS.values():
        assert 0.0 < spec.reference_p_f < 1.0
        model = spec.make_model(**spec.parameters)
        assert model.dim == 1
        assert model.call_count == 0


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_batch_equals_blocks(name):
    # the property behind "hybrid equals MC": one batch spanning several chunks
    # gives the same bits as the 100-point blocks a hybrid walk evaluates.  ko3 runs
    # at dt = 0.1 (150 RK4 steps instead of 1,500) to keep its 165 blocks cheap; its
    # rows never interact, whatever the step.
    spec = PROBLEMS[name]
    model = spec.make_model(**{**spec.parameters, **({"dt": 0.1} if name == "ko3" else {})})
    pts = sample_uniform(2 * EVAL_CHUNK + 17, model.dim, 8).points
    blocks = np.concatenate([model.evaluate_many(pts[i : i + 100]) for i in range(0, len(pts), 100)])
    assert np.array_equal(model.evaluate_many(pts), blocks)
    assert model.call_count == 2 * len(pts)


def test_problem_registry_parameter_overrides():
    spec = PROBLEMS["ko3"]
    model = spec.make_model(**{**spec.parameters, "dt": 0.02})
    assert model.dt == 0.02
