import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mehybrid.errors import IntegrationError, UnsupportedModelError
from mehybrid.polybasis import multi_index_set, triple_products
from mehybrid.randomspace import Element, check_partition, sample_uniform
from mehybrid.refine import (
    GalerkinState,
    PolynomialOde,
    RefinementConfig,
    RefinementEvent,
    _batched_rhs,
    _project_child_state,
    adapt_dynamic,
    adapt_static,
    dynamic_indicator,
    galerkin_rhs,
    limit_state_surrogate,
    rk4_integrate,
    rk4_step,
    static_indicator,
    static_should_split,
    write_events_csv,
)
from mehybrid.surrogate import CallableModel, GpcExpansion, eval_expansion_many, eval_me_surrogate_many
from mehybrid.problems import StepModel, ko_galerkin_system, ode_galerkin_system
from mehybrid.randomspace import split_element


def line():
    return Element.box([-1.0], [1.0])


def cfg(**kw):
    base = dict(theta1=1e-3, N=3, N0=1)
    base.update(kw)
    return RefinementConfig(**base)


# ---------------------------------------------------------------------------
# static criterion


def test_static_indicator_examples():
    eta, r = static_indicator(GpcExpansion(line(), 2, np.array([5.0, 0.0, 0.0])))
    assert eta == 0.0 and np.all(r == 0.0)

    eta, r = static_indicator(GpcExpansion(line(), 2, np.array([0.0, 1.0, 1.0])))
    assert eta == pytest.approx(0.5)
    assert r[0] == pytest.approx(1.0)

    # 2-D expansion whose only top-degree mass is the mixed (1,1) term
    idx = multi_index_set(2, 2)
    coeffs = np.zeros(len(idx))
    coeffs[idx.index(tuple_index((1, 1)))] = 3.0
    eta, r = static_indicator(GpcExpansion(Element.box([-1, -1], [1, 1]), 2, coeffs))
    assert eta == pytest.approx(1.0)
    assert np.all(r == 0.0)


def tuple_index(t):
    from mehybrid.polybasis import MultiIndex

    return MultiIndex(t)


def test_static_indicator_requires_order():
    with pytest.raises(ValueError):
        static_indicator(GpcExpansion(line(), 0, np.array([1.0])))


@given(st.floats(0.1, 10.0), st.booleans())
@settings(max_examples=50, deadline=None)
def test_static_indicator_scale_invariance(c, negate):
    scale = -c if negate else c
    base = np.array([0.3, -1.2, 0.5, 0.8])
    e1, r1 = static_indicator(GpcExpansion(line(), 3, base))
    e2, r2 = static_indicator(GpcExpansion(line(), 3, scale * base))
    assert e1 == pytest.approx(e2, rel=1e-12)
    assert np.allclose(r1, r2, rtol=1e-12)


def test_static_should_split_examples():
    assert static_should_split(0.0, np.array([0.0]), 0.9, cfg()) == (False, set())
    split, dims = static_should_split(1.0, np.array([1.0]), 0.5, cfg(theta1=0.4, alpha=0.5))
    assert split and dims == {0}
    split, dims = static_should_split(1.0, np.array([1.0, 0.05]), 1.0, cfg(theta1=0.1, theta2=0.1))
    assert split and dims == {0}  # second dimension falls below theta2 * max r


def test_adapt_static_linear_model_never_splits():
    model = CallableModel(lambda z: z)
    surr = adapt_static(model, cfg(theta1=1e-6), order=2)
    assert len(surr) == 1
    assert not surr.truncated


def test_adapt_static_step_localizes_discontinuity():
    surr = adapt_static(StepModel(), cfg(theta1=1e-3), order=3)
    widths = [e.upper[0] - e.lower[0] for e in surr.decomposition]
    smallest = surr.decomposition.elements[int(np.argmin(widths))]
    assert smallest.lower[0] <= 0.0 <= smallest.upper[0]
    assert check_partition(surr.decomposition) == []
    # the jump sits exactly on the first bisection point, so two elements resolve it
    assert len(surr) == 2


def test_adapt_static_accumulates_at_offset_jump():
    jump = 0.31
    model = CallableModel(lambda z: np.where(z < jump, -1.0, 0.5))
    events: list[RefinementEvent] = []
    surr = adapt_static(model, cfg(theta1=1e-4, max_elements=64), order=3, event_log=events)
    widths = [e.upper[0] - e.lower[0] for e in surr.decomposition]
    smallest = surr.decomposition.elements[int(np.argmin(widths))]
    assert smallest.lower[0] <= jump <= smallest.upper[0]
    assert min(widths) <= 2.0 ** -3
    assert len(events) >= 3
    assert check_partition(surr.decomposition) == []


def test_adapt_static_respects_max_elements():
    model = StepModel()
    shifted = CallableModel(lambda z: np.where(z < 0.31, -1.0, 0.5))
    surr = adapt_static(shifted, cfg(theta1=1e-9, max_elements=4), order=3)
    assert len(surr) <= 4
    assert surr.truncated


def test_write_events_csv(tmp_path):
    events = [RefinementEvent(None, 0, 0.5, (0,)), RefinementEvent(1.5, 3, 0.25, (0, 1))]
    path = tmp_path / "events.csv"
    write_events_csv(events, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "time,element,indicator,dims"
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# Galerkin propagation


def test_galerkin_rhs_linear_is_coefficientwise():
    system = PolynomialOde(
        n_state=1, dim=1, initial=lambda pts: np.ones((1, pts.shape[0])), linear=((0, -1.0, 0),)
    )
    tp = triple_products(1, 3)
    c = np.array([[0.4, -0.2, 0.1, 0.05]])
    st_ = GalerkinState(line(), 3, 0.0, c, {})
    assert np.allclose(galerkin_rhs(system, st_, tp), -c, atol=1e-15)


def test_galerkin_rhs_quadratic_example():
    system = PolynomialOde(
        n_state=1, dim=1, initial=lambda pts: np.ones((1, pts.shape[0])), quadratic=((0, 1.0, 0, 0),)
    )
    tp = triple_products(1, 1)
    st_ = GalerkinState(line(), 1, 0.0, np.array([[1.0, 0.0]]), {})
    dc = galerkin_rhs(system, st_, tp)
    assert np.allclose(dc, [[1.0, 0.0]], atol=1e-14)


def test_galerkin_rhs_rejects_non_polynomial():
    tp = triple_products(1, 2)
    st_ = GalerkinState(line(), 2, 0.0, np.zeros((1, 3)), {})
    with pytest.raises(UnsupportedModelError):
        galerkin_rhs(lambda t, y: y, st_, tp)


def test_polynomial_ode_validation():
    with pytest.raises(UnsupportedModelError):
        PolynomialOde(n_state=1, dim=1, initial=lambda p: p, linear=((0, 1.0, 2),))
    with pytest.raises(UnsupportedModelError):
        PolynomialOde(n_state=1, dim=1, initial=lambda p: p, field_linear=((0, "ghost", 1.0, 0),))


def test_ko_deterministic_mode_tracks_scalar_trajectory():
    # spatially constant initial data keeps all energy in the mean mode
    system = PolynomialOde(
        n_state=3,
        dim=1,
        initial=lambda pts: np.stack(
            [np.ones(pts.shape[0]), 0.25 * np.ones(pts.shape[0]), np.zeros(pts.shape[0])]
        ),
        quadratic=ko_galerkin_system().quadratic,
    )
    dec, states = adapt_dynamic(system, cfg(theta1=1e-9, N=4, N0=2), T=3.0, dt=0.01)
    assert len(dec) == 1
    coeffs = states[0].coeffs
    assert np.max(np.abs(coeffs[:, 1:])) < 1e-12

    # reference: a textbook RK4 of the deterministic system, independent of the package's stepper
    def scalar_rhs(y):
        return np.array([y[0] * y[2], -y[1] * y[2], -y[0] ** 2 + y[1] ** 2])

    ys, h = np.array([1.0, 0.25, 0.0]), 0.01
    for _ in range(300):
        k1 = scalar_rhs(ys)
        k2 = scalar_rhs(ys + 0.5 * h * k1)
        k3 = scalar_rhs(ys + 0.5 * h * k2)
        k4 = scalar_rhs(ys + h * k3)
        ys = ys + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert np.allclose(coeffs[:, 0], ys, atol=1e-10)


def test_dynamic_indicator_zero_state():
    q, s = dynamic_indicator(np.zeros((2, 6)), np.zeros((2, 2)), np.zeros((2, 6)), dim=1)
    assert q == 0.0 and np.all(s == 0.0)


def test_dynamic_indicator_linear_closure():
    system = PolynomialOde(
        n_state=2,
        dim=1,
        initial=lambda pts: np.stack([np.ones(pts.shape[0]), pts[:, 0]]),
        linear=((0, -1.0, 0), (0, 0.5, 1), (1, -0.25, 1)),
    )
    dense = triple_products(1, 5).dense
    rng = np.random.default_rng(2)
    for _ in range(5):
        c = rng.normal(size=(1, 2, 6))
        full = _batched_rhs(system, c, dense, {}, np.empty_like(c))
        red = _batched_rhs(system, c[:, :, :4], dense, {}, np.empty_like(c[:, :, :4]))
        q, _ = dynamic_indicator(full[0], red[0], c[0], dim=1)
        assert q < 1e-10


def test_dynamic_indicator_ko_transfers_energy():
    system = ko_galerkin_system()
    rcfg = cfg(theta1=math.inf, N=5, N0=3)
    dec, states = adapt_dynamic(system, rcfg, T=5.0, dt=0.01)
    tp = triple_products(1, 5)
    full = galerkin_rhs(system, states[0], tp)
    c_red = states[0].coeffs[None, :, :4]
    red = _batched_rhs(system, c_red, tp.dense, {}, np.empty_like(c_red))[0]
    q, s = dynamic_indicator(full, red, states[0].coeffs, dim=1)
    assert q > 1e-4
    assert s[0] >= 0.0


def test_adapt_dynamic_deterministic_data_never_splits():
    system = PolynomialOde(
        n_state=1, dim=1, initial=lambda pts: np.full((1, pts.shape[0]), 0.7), linear=((0, -1.0, 0),)
    )
    dec, states = adapt_dynamic(system, cfg(theta1=1e-12, N=3, N0=1), T=2.0, dt=0.01)
    assert len(dec) == 1
    assert states[0].t == 2.0
    assert states[0].coeffs[0, 0] == pytest.approx(0.7 * math.exp(-2.0), rel=1e-8)


def test_adapt_dynamic_blow_up_raises():
    # u' = u^2, u(0) = 1 blows up at t = 1
    system = PolynomialOde(
        n_state=1, dim=1, initial=lambda pts: np.ones((1, pts.shape[0])), quadratic=((0, 1.0, 0, 0),)
    )
    with pytest.raises(IntegrationError), np.errstate(over="ignore", invalid="ignore"):
        adapt_dynamic(system, cfg(theta1=1e-3, N=3, N0=1), T=2.0, dt=0.01)


def test_adapt_dynamic_ode_element_count():
    system = ode_galerkin_system(3)
    dec, states = adapt_dynamic(system, cfg(theta1=0.05, N=3, N0=1), T=1.0, dt=0.01)
    assert 4 <= len(dec) <= 7
    assert check_partition(dec) == []


def test_adapt_dynamic_ko_element_counts_bracketed():
    system = ko_galerkin_system()
    counts = []
    for theta1 in (1e-2, 1e-3, 1e-4):
        dec, _ = adapt_dynamic(system, cfg(theta1=theta1, N=5, N0=3, max_elements=128), T=15.0, dt=0.01)
        counts.append(len(dec))
        assert check_partition(dec) == []
    assert counts[0] < counts[1] < counts[2]
    assert all(8 <= c <= 40 for c in counts)


def test_adapt_dynamic_projection_restart_consistency():
    # re-expanding a parent state on its children reproduces the polynomial exactly
    rng = np.random.default_rng(6)
    order = 5
    parent = Element.box([-0.5], [0.25])
    coeffs = rng.normal(size=(2, order + 1))
    children = split_element(parent, {0})
    pts = np.linspace(-0.5, 0.25, 100, endpoint=False)[:, None]
    parent_exps = [GpcExpansion(parent, order, coeffs[v]) for v in range(2)]
    for child in children:
        child_coeffs = _project_child_state(parent, child, coeffs, order)
        inside = (pts[:, 0] >= child.lower[0]) & (pts[:, 0] < child.upper[0])
        for v in range(2):
            child_exp = GpcExpansion(child, order, child_coeffs[v])
            got = eval_expansion_many(child_exp, pts[inside])
            want = eval_expansion_many(parent_exps[v], pts[inside])
            assert np.max(np.abs(got - want)) < 1e-9


def test_adapt_dynamic_resolve_from_t0_is_an_equivalent_surrogate():
    # re-solving children from t = 0 gives a different (usually sharper) local
    # history than projecting the parent; both must classify failures like the
    # exact model away from a thin boundary band
    from mehybrid.problems import OdeModel

    system = ode_galerkin_system(3)
    pts = sample_uniform(2000, 1, 1).points
    exact_sign = OdeModel().evaluate_many(pts) < 0
    for resolve in (False, True):
        dec, states = adapt_dynamic(
            system, cfg(theta1=0.05, N=3, N0=1), T=1.0, dt=0.01, resolve_from_t0=resolve
        )
        surr = limit_state_surrogate(dec, states, 0, -0.5)
        surr_sign = eval_me_surrogate_many(surr, pts) < 0
        assert np.mean(surr_sign != exact_sign) < 0.02


def test_adapt_dynamic_truncation_status():
    system = ko_galerkin_system()
    status: dict = {}
    dec, _ = adapt_dynamic(
        system, cfg(theta1=1e-4, N=5, N0=3, max_elements=6), T=15.0, dt=0.01, status=status
    )
    assert len(dec) <= 6
    assert status["truncated"] is True


def test_rk4_error_ratio():
    def err(h):
        y, t = np.array(1.0), 0.0
        work = tuple(np.empty_like(y) for _ in range(5))
        for _ in range(round(1.0 / h)):
            rk4_step(lambda _t, v, out: np.negative(v, out=out), y, t, h, work)
            t += h
        return abs(float(y) - math.exp(-1.0))

    ratio = err(0.02) / err(0.01)
    assert 12.0 <= ratio <= 20.0


def test_rk4_integrate_rejects_bad_interval():
    def decay(_t, v, out):
        np.negative(v, out=out)

    for t0, t1 in ((0.0, 0.0), (1.0, 0.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="t1 > t0"):
            rk4_integrate(decay, np.ones(2), t0, t1, 0.1)
    for dt in (0.0, -0.01, math.inf, math.nan, "0.1", True):
        with pytest.raises(ValueError, match="time step"):
            rk4_integrate(decay, np.ones(2), 0.0, 1.0, dt)


def test_refinement_config_validation():
    with pytest.raises(ValueError):
        RefinementConfig(theta1=0.0, N=3)
    with pytest.raises(ValueError):
        RefinementConfig(theta1=1e-3, N=3, N0=3)
    with pytest.raises(ValueError):
        RefinementConfig(theta1=1e-3, N=3, theta2=1.5)
    with pytest.raises(ValueError):
        RefinementConfig(theta1=1e-3, N=3, alpha=0.0)
    # a check interval that does not advance time would loop forever in adapt_dynamic
    for interval in (0, 0.0, -0.1, math.nan, math.inf, "abc", True):
        with pytest.raises(ValueError, match="check_interval"):
            RefinementConfig(theta1=1e-3, N=3, check_interval=interval)
    assert RefinementConfig(theta1=1e-3, N=3, check_interval=0.05).check_interval == 0.05
    assert RefinementConfig(theta1=5e-4, N=4).N0 == 2
