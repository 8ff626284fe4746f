import math
import re

import numpy as np
import pytest

from mehybrid.errors import DomainError, IntegrationError, RootSolveError
from mehybrid import problems
from mehybrid.cli import RunConfig, run
from mehybrid.estimator import HybridConfig, iterative_hybrid, mc_estimate, mc_stddev
from mehybrid.polybasis import basis_matrix, gauss_legendre, multi_index_set
from mehybrid.randomspace import SampleSet, sample_uniform
from mehybrid.refine import rk4_integrate
from mehybrid.surrogate import EVAL_CHUNK, lp_error
from mehybrid.problems import (
    PROBLEMS,
    BurgersModel,
    KoModel,
    OdeModel,
    StepModel,
    _ko_rhs,
    _tanh_system,
    burgers_transition_z,
    gaussian_from_uniform,
    ko_trajectory,
    step_global_gpc,
    step_me_exact,
    z_legendre_coeffs,
)


# ---------------------------------------------------------------------------
# step


def test_step_values():
    assert StepModel().evaluate_many(np.array([[-0.5], [0.0], [0.5]])).tolist() == [-1.0, -0.5, 0.0]


@pytest.mark.parametrize("model, points", [(OdeModel(), np.zeros((2, 2))), (StepModel(), np.zeros((1, 3))),
                                           (OdeModel(), np.zeros(3))],
                         ids=["ode-2-columns", "step-3-columns", "ode-1-d"])
def test_wrong_shaped_points_are_an_error(model, points):
    with pytest.raises(ValueError, match=re.escape(f"points of shape {points.shape} given, expected (n, 1)")):
        model.evaluate_many(points)
    with pytest.raises(ValueError, match=r"expected \(n, 1\)"):
        mc_estimate(model, sample_uniform(10, 2, 3))
    assert model.call_count == 0


def test_nan_point_is_a_domain_error():
    # NaN compares false with every bound, so every model rejects it before a call
    for model in (StepModel(), BurgersModel(), KoModel()):
        with pytest.raises(DomainError):
            model.evaluate_many(np.array([[0.1], [math.nan]]))
        assert model.call_count == 0


def test_step_exact_surrogate_has_zero_lp_error():
    model = StepModel()
    for p in (1, 2, 4):
        assert lp_error(step_me_exact(), model, p=p, m=3000, seed=p) == 0.0


def test_step_global_expansion_closed_form():
    # lowest order: -1/2 + (3/4) P1
    surr = step_global_gpc(0)
    assert len(surr) == 1 and surr.order == 1
    assert surr.coeffs[0, 0] == pytest.approx(-0.5, abs=1e-15)
    assert surr.coeffs[0, 1] == pytest.approx(0.75 / math.sqrt(3.0), abs=1e-15)

    # higher orders match the explicit series evaluated with numpy Legendre
    x = np.linspace(-1, 1, 41)
    for p in (2, 7):
        surr = step_global_gpc(p)
        series = np.full_like(x, -0.5)
        for n in range(p + 1):
            c = (-1) ** n * (4 * n + 3) * math.factorial(2 * n) / (
                2 ** (2 * n + 2) * math.factorial(n + 1) * math.factorial(n)
            )
            series += c * np.polynomial.legendre.Legendre.basis(2 * n + 1)(x)
        assert np.max(np.abs(surr(x[:, None]) - series)) < 1e-12


def test_step_global_expansion_converges_in_l2():
    model = StepModel()
    errs = [lp_error(step_global_gpc(p), model, p=2, m=20000, seed=1) for p in (0, 3, 7)]
    assert errs[0] > errs[1] > errs[2]


# ---------------------------------------------------------------------------
# uniform -> Gaussian transform


def test_transform_median_and_round_trip():
    assert gaussian_from_uniform(0.0, -2.0, 1.0) == pytest.approx(-2.0, abs=1e-14)
    x = math.erf(1.0 / math.sqrt(2.0))
    assert gaussian_from_uniform(x, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_transform_accuracy():
    erf, erfc = np.vectorize(math.erf), np.vectorize(math.erfc)
    # a dense grid and x = +-(1 - 2^-k) up to the last double below one, where erf is flattest
    edge = 1.0 - 2.0 ** -np.arange(1, 53)
    x = np.concatenate([np.linspace(-0.999999, 0.999999, 200_001), edge, -edge])
    y = gaussian_from_uniform(x, 0.0, 1.0) / math.sqrt(2.0)
    assert np.max(np.abs(erf(y) - x)) < 1e-13
    # near +-1 erf is too flat to show an error in y, but 1 - x = erfc(y) keeps it relative
    y_edge = gaussian_from_uniform(edge, 0.0, 1.0) / math.sqrt(2.0)
    assert np.max(np.abs(erfc(y_edge) / (1.0 - edge) - 1.0)) < 1e-12
    # the transform is odd, exactly
    assert np.array_equal(gaussian_from_uniform(-x, 0.0, 1.0), -gaussian_from_uniform(x, 0.0, 1.0))


def test_transform_keeps_the_input_shape():
    for scalar in (0.25, np.float64(0.25), np.asarray(0.25)):
        z = gaussian_from_uniform(scalar, -2.0, 1.0)
        assert np.ndim(z) == 0 and float(z) == gaussian_from_uniform([0.25], -2.0, 1.0)[0]
    x = np.linspace(-0.999, 0.9999, 7)
    z = gaussian_from_uniform(x, -2.0, 1.0)
    assert z.shape == (7,)
    assert np.array_equal(gaussian_from_uniform(x.reshape(7, 1), -2.0, 1.0), z.reshape(7, 1))


def test_transform_domain_error():
    with pytest.raises(DomainError):
        gaussian_from_uniform(1.0, -2.0, 1.0)
    with pytest.raises(DomainError):
        gaussian_from_uniform(-1.0000001, -2.0, 1.0)
    # NaN compares false with every bound, so it must not slip through as a value inside
    for bad in (math.nan, [0.5, math.nan], math.inf):
        with pytest.raises(DomainError):
            gaussian_from_uniform(bad, -2.0, 1.0)
    with pytest.raises(DomainError):
        OdeModel().evaluate_many(np.array([[0.1], [math.nan]]))


def _allocating_gaussian(x, mu, sigma):
    # the transform with a new array per operation, over the module's Giles tables
    def horner(coeffs, w):
        coeffs = [float(c) for c in coeffs]
        p = coeffs[0] * w + coeffs[1]
        for c in coeffs[2:]:
            p = p * w + c
        return p

    w = -np.log((1.0 - x) * (1.0 + x))
    p = horner(problems._ERFINV_CENTRAL, w - 3.125)
    tail = w >= 6.25
    s = np.sqrt(w[tail])
    p[tail] = np.where(s < 4.0, horner(problems._ERFINV_TAIL, s - 3.25), horner(problems._ERFINV_FAR_TAIL, s - 5.0))
    return mu + math.sqrt(2.0) * sigma * (p * x)


def test_linear_ode_exact_values_equal_the_allocating_formula_bit_for_bit():
    # seed 42's leading samples and +-(1 - 10^-k), which reach both tail polynomials
    edge = 1.0 - 10.0 ** -np.arange(3, 16)
    x = np.concatenate([sample_uniform(1_000_000, 1, 42).points[:200_000, 0], edge, -edge])
    w = -np.log((1.0 - edge) * (1.0 + edge))
    s = np.sqrt(w[w >= 6.25])
    assert (s < 4.0).any() and (s >= 4.0).any()
    # a sigma other than 1 pins the order of the scale and the shift too
    shifted = _allocating_gaussian(x, 0.3, 0.7)
    assert gaussian_from_uniform(x, 0.3, 0.7).tobytes() == shifted.tobytes()
    z = _allocating_gaussian(x, -2.0, 1.0)
    assert gaussian_from_uniform(x, -2.0, 1.0).tobytes() == z.tobytes()
    model = OdeModel()
    expected = model.u0 * np.exp(-z * model.T) - model.u_d
    assert model.evaluate_many(x[:, None]).tobytes() == expected.tobytes()
    # in hybrid blocks of 100 rows too, and the caller's points are left as they were
    before = x.copy()
    blocks = np.concatenate([model.evaluate_many(x[i : i + 100, None]) for i in range(0, len(x), 100)])
    assert blocks.tobytes() == expected.tobytes() and x.tobytes() == before.tobytes()


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
    nodes, weights = gauss_legendre(128)
    z_exact = gaussian_from_uniform(nodes, -2.0, 1.0)
    errs = []
    for p in (1, 3, 5, 9):
        kp = z_legendre_coeffs(p, -2.0, 1.0)
        approx = basis_matrix(multi_index_set(1, p), nodes[:, None]) @ kp
        errs.append(float(np.sqrt(np.sum(weights * (z_exact - approx) ** 2))))
    assert errs == sorted(errs, reverse=True)


# ---------------------------------------------------------------------------
# linear decay ODE


def test_ode_limit_state_at_median():
    assert OdeModel().evaluate_many(np.array([[0.0]]))[0] == pytest.approx(math.exp(2.0) - 0.5, rel=1e-12)


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
    # the exact model integrates in (a, b, c) = (y1 + y2, y1 - y2, y3), where the slope is
    # (c b, c a, -a b); the in-place stepper keeps the textbook association, so it agrees
    # bit for bit with an allocating RK4 in those variables that does not use the
    # package's stepper; 100 rows is one hybrid block and 8,192 one evaluation chunk
    def rk4(rhs, v, h=15.0 / 1500):
        for _ in range(1500):
            k1 = rhs(v)
            k2 = rhs(v + 0.5 * h * k1)
            k3 = rhs(v + 0.5 * h * k2)
            k4 = rhs(v + h * k3)
            v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return v

    def rhs_abc(v):
        return np.stack([v[2] * v[1], v[2] * v[0], -(v[0] * v[1])])

    def rhs_y(v):
        return np.stack([v[0] * v[2], -v[1] * v[2], -v[0] ** 2 + v[1] ** 2])

    for size in (300, 100, 8192):
        xi = np.random.default_rng(4).uniform(-1.0, 1.0, size=size)
        abc0 = np.stack([1.0 + 0.1 * xi, 1.0 - 0.1 * xi, np.zeros_like(xi)])
        a, b, c = rk4(rhs_abc, abc0)
        y = np.stack([(a + b) / 2.0, (a - b) / 2.0, c])
        assert np.array_equal(ko_trajectory(xi, 15.0, 0.01), y)
        start = abc0.copy()
        assert np.array_equal(rk4_integrate(_ko_rhs, abc0, 0.0, 15.0, 0.01), np.stack([a, b, c]))
        assert np.array_equal(abc0, start)
        # the same model as the RK4 in (y1, y2, y3) up to rounding, with the same failures
        y_ref = rk4(rhs_y, np.stack([np.ones_like(xi), 0.1 * xi, np.zeros_like(xi)]))
        assert np.max(np.abs(y - y_ref)) < 1e-12
        assert np.array_equal(y[0] < 0.03, y_ref[0] < 0.03)


def test_ko_trajectory_keeps_the_shape_of_xi():
    # a scalar xi gives one state (3,), as the docstring promises
    y = ko_trajectory(np.array([0.1, -0.4]), 15.0, 0.01)
    one = ko_trajectory(0.1, 15.0, 0.01)
    assert one.shape == (3,) and np.array_equal(one, y[:, 0])
    assert np.array_equal(ko_trajectory(np.array([[0.1], [-0.4]]), 15.0, 0.01), y[:, :, None])


def test_ko_rejects_bad_step():
    with pytest.raises(ValueError):
        ko_trajectory(0.1, 15.0, 0.0)
    with pytest.raises(ValueError):
        ko_trajectory(0.1, 0.0, 0.01)
    for bad in ({"T": -5}, {"T": 0}, {"T": "abc"}, {"T": math.inf}, {"dt": -0.01}, {"dt": 0}, {"dt": math.nan}):
        with pytest.raises(ValueError, match="positive finite"):
            KoModel(**bad)
    # five RK4 steps of length 3 overflow the state: finiteness is checked once per
    # integration, and the replay on failure reports the first step that overflowed
    with pytest.raises(IntegrationError) as info, np.errstate(over="ignore", invalid="ignore"):
        ko_trajectory(np.array([-0.5, 0.3]), 15.0, 3.0)
    assert info.value.t == 9.0 and info.value.column == 0
    # at dt = 2, xi = -0.5 overflows at t = 11.25 and xi = 1 only at t = 13.125
    with pytest.raises(IntegrationError, match=r"t = 11\.25 in column 2") as info, \
            np.errstate(over="ignore", invalid="ignore"):
        ko_trajectory(np.array([0.0, 1.0, -0.5]), 15.0, 2.0)
    assert info.value.t == 11.25 and info.value.column == 2


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
    assert np.max(np.abs(z - oracle_transition_z(delta, nu))) < 1e-13


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
    # a non-finite input is rejected before any solve
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="boundary perturbation"):
            burgers_transition_z(np.array([0.02, bad]), 0.05)
        with pytest.raises(ValueError, match="viscosity"):
            burgers_transition_z(0.01, np.array([0.05, bad]))


def test_burgers_extreme_viscosities_solve():
    # the layer sits against the boundary at small nu and spreads over the domain at large nu
    grid = np.arange(0.0, 0.1 + 1e-12, 1e-4)
    for nu in (1e-4, 1e-3, 100.0, 1e4):
        z, a = burgers_transition_z(grid, nu, return_amplitude=True)
        assert np.max(np.hypot(*_tanh_system(a, z, grid, nu))) < 1e-12, nu
        assert np.all(np.diff(z) > 0.0), nu


def test_burgers_residual_check_raises():
    # at nu = 1e8 the prefactor nu / (2A) of z = nu / (2A) ln(w / e1) is about 3,500, so rounding
    # in the logarithms leaves a tanh residual above 1e-12, which the final check rejects
    with pytest.raises(RootSolveError, match="residual"):
        burgers_transition_z(np.array([0.01, 0.05]), 1e8)


def test_root_solve_error_names_its_row(monkeypatch):
    # one entry's residual is made to fail: the solver names its entry, a batch the row of
    # the batch (row 12,345 is row 4,153 of the second 8,192-row chunk), and a hybrid walk
    # the sample, which the surrogate ranks 38th, with the walk's iteration
    x = np.linspace(-1.0, 1.0, 20_000)
    row = 12_345
    model = BurgersModel()
    bad = model.e * (x[row] + 1.0) / 2.0  # the model's delta at that row
    tanh_system = problems._tanh_system

    def failing(a, z, delta, nu):
        r1, r2 = tanh_system(a, z, delta, nu)
        return r1 + (delta == bad), r2

    monkeypatch.setattr(problems, "_tanh_system", failing)
    with pytest.raises(RootSolveError, match=r"\(got 1\.000e\+00\) in column 2$") as info:
        burgers_transition_z(np.array([0.01, 0.02, bad, bad]), 0.05)
    assert info.value.column == 2 and info.value.residual == pytest.approx(1.0)
    with pytest.raises(RootSolveError, match=r"in column 12345$") as info:
        model.evaluate_many(x[:, None])
    assert info.value.column == row and info.value.__cause__.column == row - EVAL_CHUNK
    assert info.value.last_iterate == info.value.__cause__.last_iterate
    approx = np.arange(1.0, x.size + 1.0)
    approx[row] = 37.5
    with pytest.raises(RootSolveError, match=r"in column 12345 \(iteration 1\)$") as info:
        iterative_hybrid(model, lambda Z: approx.copy(), SampleSet(x[:, None], seed=0), HybridConfig(delta_m=100))
    assert info.value.column == row and info.value.__cause__.column == 37


def test_burgers_large_perturbation_evaluates():
    # a delta of up to 100 or 1000 pushes the layer against z = 1, where the second tanh
    # equation is steep in z (slope (A^2 - 1) / (2 nu), about 1e5 and 1e7): the residual
    # check measures it as a step in z, so these roots pass as the small-delta ones do
    x = np.linspace(-1.0, 1.0, 2000)[:, None]
    for e in (100.0, 1000.0):
        g = BurgersModel(e=e).evaluate_many(x)
        assert np.all(np.isfinite(g)) and g[0] == pytest.approx(0.75, abs=1e-14)
        assert np.all(np.diff(g) <= 0.0) and g[-1] == pytest.approx(-0.25, abs=1e-4)
        delta = e * (x[:, 0] + 1.0) / 2.0
        z, a = burgers_transition_z(delta, 0.05, return_amplitude=True)
        r1, r2 = _tanh_system(a, z, delta, 0.05)
        assert np.max(np.abs(r1)) < 1e-12 and 1e-12 < np.max(np.abs(r2)) < 1e-8


def test_burgers_limit_state_endpoints_and_failure_interval():
    model = BurgersModel()
    assert model.evaluate_many(np.array([[-1.0]]))[0] == pytest.approx(0.75, abs=1e-14)
    xs = np.linspace(-1.0, 1.0, 201)
    vals = model.evaluate_many(xs[:, None])
    # failure region is one upper interval of delta: signs switch exactly once
    signs = vals < 0.0
    switches = np.count_nonzero(np.diff(signs))
    assert switches == 1
    assert not signs[0] and signs[-1]
    with pytest.raises(DomainError):
        model.evaluate_many(np.array([[1.5]]))
    with pytest.raises(DomainError):
        model.evaluate_many(np.array([[0.0], [-1.2]]))


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


# parameters other than the defaults, at which the registry's references do not hold
CHANGED_PARAMETERS = {"linear-ode": {"u_d": 0.9}, "ko3": {"u_d": 0.05}, "burgers": {"z0": 0.7}}


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_reference_applies_only_at_the_default_parameters(name):
    # a problem's parameters are its model's constructor defaults, and its reference holds at
    # them alone: a run at other parameters reports no reference unless one is configured
    spec = PROBLEMS[name]
    model = spec.make_model()
    assert all(getattr(model, key) == value for key, value in spec.parameters.items())
    base = {"problem": name, "method": "mc", "seed": 1, "m": 200}
    for params in ({}, spec.parameters):  # nothing given, and every default restated
        rep = run(RunConfig.from_dict({**base, "problem_params": params}))
        assert (rep["reference"], rep["reference_tag"]) == (spec.reference_p_f, spec.reference_tag)
        assert rep["relative_error"] == abs(rep["estimate"] - spec.reference_p_f) / spec.reference_p_f
    if name in CHANGED_PARAMETERS:
        changed = {**base, "problem_params": CHANGED_PARAMETERS[name]}
        rep = run(RunConfig.from_dict(changed))
        assert (rep["reference"], rep["reference_tag"], rep["relative_error"]) == (None, "none", None)
        rep = run(RunConfig.from_dict({**changed, "reference": 0.5}))
        assert (rep["reference"], rep["reference_tag"]) == (0.5, "configured")


def test_problem_registry_parameter_overrides():
    spec = PROBLEMS["ko3"]
    model = spec.make_model(**{**spec.parameters, "dt": 0.02})
    assert model.dt == 0.02
