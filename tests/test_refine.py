import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mehybrid.errors import IntegrationError, UnsupportedModelError
from mehybrid.polybasis import multi_index_set, triple_products
from mehybrid.randomspace import Element, check_partition, sample_uniform
from mehybrid.refine import (
    PolynomialOde,
    RefinementConfig,
    RefinementEvent,
    THETA2,
    _batched_rhs,
    _galerkin_rhs,
    _linear_operator,
    _project_child_state,
    _project_function,
    _quadratic_operator,
    _split_pass,
    adapt_dynamic,
    adapt_static,
    dynamic_indicator,
    limit_state_surrogate,
    rk4_integrate,
    rk4_step,
    static_indicator,
    write_events_csv,
)
from mehybrid.surrogate import (
    CallableModel,
    build_collocation,
    eval_expansion_many,
    eval_me_surrogate_many,
)
from mehybrid import refine
from mehybrid.problems import BurgersModel, KoModel, StepModel, ko_galerkin_system, ode_galerkin_system
from mehybrid.randomspace import split_element


def cfg(**kw):
    base = dict(theta1=1e-3, N=3)
    base.update(kw)
    return RefinementConfig(**base)


# ---------------------------------------------------------------------------
# static criterion


def test_static_indicator_examples():
    # a constant row (zero variance, no warning) next to one with half its variance on top
    eta, r = static_indicator(np.array([[5.0, 0.0, 0.0], [0.0, 1.0, 1.0]]), 2, 1)
    assert eta.shape == (2,) and r.shape == (2, 1)
    assert eta[0] == 0.0 and np.all(r[0] == 0.0)
    assert eta[1] == pytest.approx(0.5)
    assert r[1, 0] == pytest.approx(1.0)

    # 2-D expansion whose only top-degree mass is the mixed (1,1) term
    idx = multi_index_set(2, 2)
    coeffs = np.zeros(len(idx))
    coeffs[idx.index((1, 1))] = 3.0
    eta, r = static_indicator(coeffs[None], 2, 2)
    assert eta[0] == pytest.approx(1.0)
    assert np.all(r == 0.0)

    # one batch over a 1-D and a 2-D mesh, each with a constant row, gives the bits of row-at-a-time calls
    rng = np.random.default_rng(17)
    for dim, order in ((1, 5), (2, 3)):
        coeffs = rng.normal(size=(9, len(multi_index_set(dim, order)))) * 10.0 ** -rng.integers(0, 6, size=(9, 1))
        coeffs[4, 1:] = 0.0
        eta, r = static_indicator(coeffs, order, dim)
        assert eta[4] == 0.0 and np.all(r[4] == 0.0)
        for k in range(len(coeffs)):
            eta_k, r_k = static_indicator(coeffs[k : k + 1], order, dim)
            assert eta_k.tobytes() == eta[k : k + 1].tobytes() and r_k.tobytes() == r[k : k + 1].tobytes()


def test_static_indicator_requires_order():
    with pytest.raises(ValueError):
        static_indicator(np.array([[1.0]]), 0, 1)


@given(st.floats(0.1, 10.0), st.booleans())
@settings(max_examples=50, deadline=None)
def test_static_indicator_scale_invariance(c, negate):
    scale = -c if negate else c
    base = np.array([0.3, -1.2, 0.5, 0.8])
    e1, r1 = static_indicator(base[None], 3, 1)
    e2, r2 = static_indicator(scale * base[None], 3, 1)
    assert e1 == pytest.approx(e2, rel=1e-12)
    assert np.allclose(r1, r2, rtol=1e-12)


def test_split_pass_threshold_is_inclusive():
    # strength * prob == theta1 splits, the next float below it does not
    half = Element.box([-1.0], [0.0])  # prob 0.5
    below = np.nextafter(0.5, 0.0)
    for strength, splits in ((0.5, True), (below, False)):
        elements, ids, origin, truncated = _split_pass(
            [half], [0], cfg(theta1=0.25), [strength], [np.ones(1)], [strength], None, None)
        assert len(elements) == (2 if splits else 1) and not truncated
        assert ids == ([1, 2] if splits else [0])


def test_split_pass_directions_follow_theta2():
    square = Element.box([-1.0, -1.0], [1.0, 1.0])
    for r, dims in (([1.0, 0.05], (0,)), ([0.05, 1.0], (1,)), ([1.0, THETA2], (0, 1)), ([0.3, 1.0], (0, 1))):
        events: list[RefinementEvent] = []
        elements, ids, *_ = _split_pass([square], [0], cfg(theta1=0.5), [1.0], [np.array(r)], [0.7], None, events)
        assert events == [RefinementEvent(None, 0, 0.7, dims)]
        assert elements == split_element(square, set(dims))
        assert ids == list(range(1, 1 + 2 ** len(dims)))


def test_split_pass_numbers_children_in_mesh_order():
    # elements 0 and 2 of four split: kept elements keep their ids, children take their
    # parent's place and consecutive ids from the largest id plus one, and each split logs one event
    mesh = [Element.box([a], [a + 0.5]) for a in (-1.0, -0.5, 0.0, 0.5)]  # prob 0.25 each
    strength = np.array([1.0, 0.1, 2.0, 0.1])
    events: list[RefinementEvent] = []
    elements, ids, origin, truncated = _split_pass(
        mesh, [3, 7, 8, 9], cfg(theta1=0.25), strength, np.ones((4, 1)), 10.0 * strength, 1.5, events)
    assert [(e.lower[0], e.upper[0]) for e in elements] == [
        (-1.0, -0.75), (-0.75, -0.5), (-0.5, 0.0), (0.0, 0.25), (0.25, 0.5), (0.5, 1.0)]
    assert ids == [10, 11, 7, 12, 13, 9]
    assert origin == [(0, True), (0, True), (1, False), (2, True), (2, True), (3, False)]
    assert not truncated
    assert events == [RefinementEvent(1.5, 3, 10.0, (0,)), RefinementEvent(1.5, 8, 20.0, (0,))]
    assert all(type(ev.indicator) is float for ev in events)


def test_split_pass_refuses_splits_past_the_cap():
    # every element wants to split, and each split grows the mesh by one: a cap of 4 on
    # three elements admits the first split only, and a refused split logs no event
    mesh = [Element.box([a], [a + 2.0 / 3.0]) for a in (-1.0, -1.0 / 3.0, 1.0 / 3.0)]
    for cap, n_splits in ((3, 0), (4, 1), (5, 2), (6, 3)):
        events: list[RefinementEvent] = []
        elements, ids, origin, truncated = _split_pass(
            mesh, [0, 1, 2], cfg(theta1=1e-3, max_elements=cap), np.ones(3), np.ones((3, 1)), np.ones(3),
            None, events)
        assert len(elements) == 3 + n_splits <= cap
        assert truncated is (n_splits < 3)
        assert len(events) == n_splits
        assert ids == list(range(3, 3 + 2 * n_splits)) + list(range(n_splits, 3))
        assert [k for k, child in origin if child] == [k for k in range(n_splits) for _ in range(2)]


def test_adapt_static_linear_model_never_splits():
    model = CallableModel(lambda z: z)
    surr = adapt_static(model, cfg(theta1=1e-6, N=2))
    assert len(surr) == 1
    assert not surr.truncated


def test_adapt_static_step_localizes_discontinuity():
    surr = adapt_static(StepModel(), cfg(theta1=1e-3))
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
    surr = adapt_static(model, cfg(theta1=1e-4, max_elements=64), event_log=events)
    widths = [e.upper[0] - e.lower[0] for e in surr.decomposition]
    smallest = surr.decomposition.elements[int(np.argmin(widths))]
    assert smallest.lower[0] <= jump <= smallest.upper[0]
    assert min(widths) <= 2.0 ** -3
    assert len(events) >= 3
    assert check_partition(surr.decomposition) == []


# (elements, exact calls, (element id, dims) of every split) of Burgers at table 5's
# settings, theta1 = 0.01 and q = 21, for p = 2..5
BURGERS_STATIC_SPLITS = {
    2: (11, 441, [(0, (0,)), (1, (0,)), (2, (0,)), (3, (0,)), (4, (0,)), (5, (0,)), (7, (0,)), (8, (0,)),
                  (13, (0,)), (17, (0,))]),
    3: (6, 231, [(0, (0,)), (1, (0,)), (3, (0,)), (5, (0,)), (7, (0,))]),
    4: (5, 189, [(0, (0,)), (1, (0,)), (3, (0,)), (5, (0,))]),
    5: (5, 189, [(0, (0,)), (1, (0,)), (3, (0,)), (5, (0,))]),
}


@pytest.mark.parametrize("p", sorted(BURGERS_STATIC_SPLITS))
def test_adapt_static_burgers_splits_are_pinned(p):
    n_elements, calls, splits = BURGERS_STATIC_SPLITS[p]
    model = BurgersModel()
    events: list[RefinementEvent] = []
    surr = adapt_static(model, cfg(theta1=0.01, N=p), q=21, event_log=events)
    assert len(surr) == n_elements and not surr.truncated
    assert model.call_count == calls
    assert [(ev.element, ev.dims) for ev in events] == splits
    assert check_partition(surr.decomposition) == []


# the offset jump of test_adapt_static_accumulates_at_offset_jump: the elements, as
# (lower, upper), and the split element ids at max_elements 2..9; the cap stops it below 6
OFFSET_JUMP_MESHES = [
    [(-1.0, 0.0), (0.0, 1.0)],
    [(-1.0, 0.0), (0.0, 0.5), (0.5, 1.0)],
    [(-1.0, 0.0), (0.0, 0.25), (0.25, 0.5), (0.5, 1.0)],
    [(-1.0, 0.0), (0.0, 0.25), (0.25, 0.375), (0.375, 0.5), (0.5, 1.0)],
    [(-1.0, 0.0), (0.0, 0.25), (0.25, 0.3125), (0.3125, 0.375), (0.375, 0.5), (0.5, 1.0)],
]
OFFSET_JUMP_SPLITS = [0, 2, 3, 6, 7]


@pytest.mark.parametrize("cap", range(2, 10))
def test_adapt_static_offset_jump_meshes_are_pinned(cap):
    model = CallableModel(lambda z: np.where(z < 0.31, -1.0, 0.5))
    events: list[RefinementEvent] = []
    surr = adapt_static(model, cfg(theta1=1e-4, max_elements=cap), event_log=events)
    n = min(cap, 6)
    # bisection order: the children of a split take their parent's place
    assert [(e.lower[0], e.upper[0]) for e in surr.decomposition] == OFFSET_JUMP_MESHES[n - 2]
    assert [(ev.time, ev.element, ev.dims) for ev in events] == [(None, k, (0,)) for k in OFFSET_JUMP_SPLITS[: n - 1]]
    assert all(ev.indicator == pytest.approx(0.05632335242797853, rel=1e-10, abs=0.0) for ev in events)
    assert surr.truncated is (cap < 6)


def test_adapt_static_respects_max_elements():
    model = StepModel()
    shifted = CallableModel(lambda z: np.where(z < 0.31, -1.0, 0.5))
    surr = adapt_static(shifted, cfg(theta1=1e-9, max_elements=4))
    assert len(surr) <= 4
    assert surr.truncated


def test_adapt_static_two_dimensional_split_directions():
    # a jump along z0 only never splits z1; a jump along the diagonal z0 + z1 = 0.3
    # carries equal top-degree mass in both dimensions and splits both
    along_z0 = CallableModel(lambda Z: np.where(Z[:, 0] < 0.3, -1.0, 0.5), dim=2)
    diagonal = CallableModel(lambda Z: np.where(Z[:, 0] + Z[:, 1] < 0.3, -1.0, 0.5), dim=2)
    square = Element.box([-1.0, -1.0], [1.0, 1.0])
    for model, expected in ((along_z0, (0,)), (diagonal, (0, 1))):
        events: list[RefinementEvent] = []
        surr = adapt_static(model, cfg(theta1=1e-2, max_elements=32), event_log=events)
        assert check_partition(surr.decomposition) == []
        assert len(events) >= 2 and {ev.dims for ev in events} == {expected}
        # the first split bisects the dimensions whose r_j reaches THETA2 times the largest
        _, (r,) = static_indicator(build_collocation(model, square, 3)[None], 3, 2)
        assert events[0].dims == tuple(np.flatnonzero(r >= THETA2 * r.max()))


def test_write_events_csv(tmp_path):
    events = [RefinementEvent(None, 0, 0.5, (0,)), RefinementEvent(1.5, 3, 0.25, (0, 1))]
    path = tmp_path / "events.csv"
    write_events_csv(events, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "time,element,indicator,dims"
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# Galerkin propagation


def test_batched_rhs_linear_is_coefficientwise():
    system = PolynomialOde(
        n_state=1, dim=1, initial=lambda pts: np.ones((1, pts.shape[0])), linear=((0, -1.0, 0),)
    )
    c = np.array([[[0.4, -0.2, 0.1, 0.05]]])
    assert np.allclose(_galerkin_rhs(system, c, triple_products(1, 3), ()), -c, atol=1e-15)


def test_batched_rhs_quadratic_example():
    system = PolynomialOde(
        n_state=1, dim=1, initial=lambda pts: np.ones((1, pts.shape[0])), quadratic=((0, 1.0, 0, 0),)
    )
    c = np.array([[[1.0, 0.0]]])
    dc = _galerkin_rhs(system, c, triple_products(1, 1), ())
    assert np.allclose(dc, [[[1.0, 0.0]]], atol=1e-14)


def reference_rhs(system, src, dense, fields):
    """The projected right-hand side term by term, one einsum per quadratic and field term."""
    n = src.shape[2]
    out = np.zeros(src.shape)
    for var, c, i in system.linear:
        out[:, var] += c * src[:, i]
    for var, c, a, b in system.quadratic:
        out[:, var] += c * np.einsum("kjl,ej,el->ek", dense[:n, :n, :n], src[:, a], src[:, b])
    for (var, _, c, i), f in zip(system.field_linear, fields):
        out[:, var] += c * np.einsum("kjl,ej,el->ek", dense[:n, : f.shape[1], :n], f, src[:, i])
    return out


def all_term_kinds(d):
    return PolynomialOde(
        n_state=2,
        dim=d,
        initial=lambda pts: np.ones((2, pts.shape[0])),
        linear=((0, -1.0, 1), (1, 0.5, 0), (1, 0.25, 1)),
        quadratic=((1, 0.7, 0, 1), (0, -0.2, 1, 1), (0, 1.3, 0, 0)),
        field_linear=((0, lambda pts: pts[:, 0], -1.5, 0), (1, lambda pts: pts[:, 0] ** 2, 0.4, 1)),
    )


@pytest.mark.parametrize("prefix", [False, True], ids=["full", "prefix"])
@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("d", [1, 2])
def test_contracted_slope_matches_per_term_reference(d, m, prefix):
    system = all_term_kinds(d)
    dense = triple_products(d, 4)
    n_full = dense.shape[0]
    rng = np.random.default_rng(10 * d + m)
    fields = [rng.normal(size=(m, n_full)), rng.normal(size=(m, n_full))]
    src = rng.normal(size=(m, 2, n_full))
    if prefix:  # a non-contiguous view of the lower modes, as the linear-closure invariant passes
        src = src[:, :, : len(multi_index_set(d, 2))]
        assert not src.flags.c_contiguous
    want = reference_rhs(system, src, dense, fields)
    got = _galerkin_rhs(system, src, dense, fields)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_galerkin_rhs_needs_one_field_per_field_term():
    # a short field list used to drop the unpaired field terms without a word
    system = all_term_kinds(1)
    dense = triple_products(1, 3)
    c = np.ones((2, 2, 4))
    for fields in ((), {}, [np.ones((2, 4))], [np.ones((2, 4))] * 3):
        with pytest.raises(ValueError, match="one projected field per field_linear term"):
            _galerkin_rhs(system, c, dense, fields)
    with pytest.raises(ValueError, match="one projected field per field_linear term"):
        _galerkin_rhs(ko_galerkin_system(), np.ones((1, 3, 4)), dense, [np.ones((1, 4))])


def test_adapt_dynamic_rejects_bad_input():
    with pytest.raises(UnsupportedModelError):
        adapt_dynamic(lambda t, y: y, cfg(), T=1.0, dt=0.01)
    system = ode_galerkin_system(3, 1.0, -2.0, 1.0)
    # a nan T would skip the time loop and return the t = 0 projection; an infinite one would never end
    for T, dt in ((math.nan, 0.01), (math.inf, 0.01), (0.0, 0.01), (1.0, math.nan), (1.0, math.inf), (1.0, 0.0)):
        with pytest.raises(ValueError, match="final time and step"):
            adapt_dynamic(system, cfg(), T=T, dt=dt)


def test_polynomial_ode_validation():
    with pytest.raises(UnsupportedModelError):
        PolynomialOde(n_state=1, dim=1, initial=lambda p: p, linear=((0, 1.0, 2),))
    for term in ((0, lambda p: p[:, 0], 1.0, 1), (1, lambda p: p[:, 0], 1.0, 0)):
        with pytest.raises(UnsupportedModelError, match="state variable 1 out of range"):
            PolynomialOde(n_state=1, dim=1, initial=lambda p: p, field_linear=(term,))


def test_field_linear_terms_keep_their_own_fields():
    # u0' = -2 u0 and u1' = -3 u1 through two field_linear terms with constant fields
    system = PolynomialOde(
        n_state=2,
        dim=1,
        initial=lambda pts: np.ones((2, pts.shape[0])),
        field_linear=((0, lambda pts: np.full(pts.shape[0], 2.0), -1.0, 0),
                      (1, lambda pts: np.full(pts.shape[0], 3.0), -1.0, 1)),
    )
    dec, coeffs, _ = adapt_dynamic(system, cfg(theta1=math.inf, N=3), T=1.0, dt=0.01)
    assert len(dec) == 1
    assert coeffs[0, :, 0] == pytest.approx([math.exp(-2.0), math.exp(-3.0)], rel=1e-6)  # RK4 at dt = 0.01


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
    dec, coeffs, _ = adapt_dynamic(system, cfg(theta1=1e-9, N=4), T=3.0, dt=0.01)
    assert len(dec) == 1
    coeffs = coeffs[0]
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
    q, s = dynamic_indicator(np.zeros((1, 2, 6)), np.zeros((1, 2, 2)), np.zeros((1, 2, 6)), multi_index_set(1, 1))
    assert q.tolist() == [0.0] and np.all(s == 0.0)


def test_dynamic_indicator_linear_closure():
    system = PolynomialOde(
        n_state=2,
        dim=1,
        initial=lambda pts: np.stack([np.ones(pts.shape[0]), pts[:, 0]]),
        linear=((0, -1.0, 0), (0, 0.5, 1), (1, -0.25, 1)),
    )
    dense = triple_products(1, 5)
    rng = np.random.default_rng(2)
    for _ in range(5):
        c = rng.normal(size=(1, 2, 6))
        full = _galerkin_rhs(system, c, dense, ())
        red = _galerkin_rhs(system, c[:, :, :4], dense, ())
        q, _ = dynamic_indicator(full, red, c, multi_index_set(1, 3))
        assert q[0] < 1e-10


def test_dynamic_indicator_ko_transfers_energy():
    system = ko_galerkin_system()
    rcfg = cfg(theta1=math.inf, N=5)
    dec, coeffs, _ = adapt_dynamic(system, rcfg, T=5.0, dt=0.01)
    dense = triple_products(1, 5)
    full = _galerkin_rhs(system, coeffs, dense, ())
    red = _galerkin_rhs(system, coeffs[:, :, :4], dense, ())
    q, s = dynamic_indicator(full, red, coeffs, multi_index_set(1, 3))
    assert q[0] > 1e-4
    assert s[0, 0] >= 0.0


def test_bound_slope_reads_its_source_live():
    # every term kind, on a batch of three elements; the slope is bound once and the
    # source is then overwritten in place, as rk4_integrate overwrites its stage state;
    # at n = 4 the source is a non-contiguous view of the first modes, like the reduced
    # state of the linear-closure invariant
    system = all_term_kinds(1)
    dense = triple_products(1, 5)
    rng = np.random.default_rng(8)
    fields = [rng.normal(size=(3, 6)), rng.normal(size=(3, 6))]
    for n in (6, 4):
        state = rng.normal(size=(3, 2, 6))
        src = state[:, :, :n]
        dst = np.empty(src.shape)
        ops = _quadratic_operator(system, dense, n), _linear_operator(system, dense, fields, n)
        slope = _batched_rhs(*ops, src, dst)
        slope()
        for _ in range(3):
            state[...] = rng.normal(size=state.shape)
            fresh = _galerkin_rhs(system, src.copy(), dense, fields)
            assert slope() is dst
            assert np.array_equal(dst, fresh)
        with pytest.raises(ValueError, match="C-contiguous"):
            _batched_rhs(*ops, src, np.empty((3, 2, 2 * n))[:, :, ::2])


@pytest.mark.parametrize("d, N", [(1, 3), (1, 5), (1, 7), (2, 4)])
def test_truncated_slope_is_the_full_slope_at_the_truncated_state(d, N):
    # the index sets are nested and every term is at most quadratic, so adapt_dynamic reads the
    # truncated system's slope off the full operators at the state with its upper modes zeroed;
    # it equals the slope of the operators built at the reduced mode count, up to summation order
    if d == 1:
        mesh = [Element.box([-1.0 + k / 8.0], [-1.0 + (k + 1) / 8.0]) for k in range(16)]
        systems = (ode_galerkin_system(N, 1.0, -2.0, 1.0), ko_galerkin_system(), all_term_kinds(1))
    else:
        mesh = [Element.box([-1.0 + a, -1.0 + b], [a, b]) for a in (0.0, 1.0) for b in (0.0, 1.0)]
        ko = PolynomialOde(n_state=3, dim=2, initial=lambda pts: np.ones((3, pts.shape[0])),
                           quadratic=ko_galerkin_system().quadratic)
        systems = (ko, all_term_kinds(2))
    dense = triple_products(d, N)
    n, n_red = dense.shape[0], len(multi_index_set(d, N - 2))
    rng = np.random.default_rng(N)
    for system in systems:
        fields = [_project_function(fn, mesh, N) for _, fn, _, _ in system.field_linear]
        state = rng.normal(size=(len(mesh), system.n_state, n))
        low = state.copy()
        low[:, :, n_red:] = 0.0
        got = _batched_rhs(_quadratic_operator(system, dense, n), _linear_operator(system, dense, fields, n),
                           low, np.empty(low.shape))()[:, :, :n_red]
        truncated = state[:, :, :n_red].copy()
        want = _batched_rhs(_quadratic_operator(system, dense, n_red),
                            _linear_operator(system, dense, fields, n_red), truncated, np.empty(truncated.shape))()
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("d", [1, 2])
def test_ko_galerkin_slope_conserves_energy(d):
    # y . f(y) = 0 for the three-mode right-hand side and the triple products are exact,
    # so each element's projected slope is orthogonal to its coefficients
    quadratic = ko_galerkin_system().quadratic
    system = PolynomialOde(n_state=3, dim=d, initial=lambda pts: np.ones((3, pts.shape[0])), quadratic=quadratic)
    # one coupling with the wrong sign no longer conserves it
    broken = PolynomialOde(n_state=3, dim=d, initial=system.initial,
                           quadratic=((0, -1.0, 0, 2),) + quadratic[1:])
    rng = np.random.default_rng(d)
    for order in (3, 5, 7) if d == 1 else (2, 4):
        dense = triple_products(d, order)
        c = rng.normal(size=(4, 3, dense.shape[0]))
        for sys_, ok in ((system, True), (broken, False)):
            prod = (c * _galerkin_rhs(sys_, c, dense, ())).reshape(4, -1)
            rate = np.abs(prod.sum(axis=1)) / np.abs(prod).sum(axis=1)
            assert np.all(rate < 1e-13) if ok else np.all(rate > 1e-3)


@pytest.mark.parametrize("d, n_full, n_red", [(1, 6, 4), (2, 10, 3)])
def test_batched_dynamic_indicator_matches_per_element(d, n_full, n_red):
    rng = np.random.default_rng(d)
    m, n_state = 200, 3
    full = rng.normal(size=(m, n_state, n_full))
    red = rng.normal(size=(m, n_state, n_red))
    coeffs = rng.normal(size=(m, n_state, n_full))
    reduced = multi_index_set(d, n_full)[:n_red]  # graded: the first n_red members are a complete lower order
    q_all, s_all = dynamic_indicator(full, red, coeffs, reduced)
    assert q_all.shape == (m,) and s_all.shape == (m, d)
    for k in range(m):
        q, s = dynamic_indicator(full[k : k + 1], red[k : k + 1], coeffs[k : k + 1], reduced)
        assert q[0] == q_all[k]
        assert np.array_equal(s[0], s_all[k])


def test_adapt_dynamic_deterministic_data_never_splits():
    system = PolynomialOde(
        n_state=1, dim=1, initial=lambda pts: np.full((1, pts.shape[0]), 0.7), linear=((0, -1.0, 0),)
    )
    dec, coeffs, _ = adapt_dynamic(system, cfg(theta1=1e-12, N=3), T=2.0, dt=0.01)
    assert len(dec) == 1
    assert coeffs[0, 0, 0] == pytest.approx(0.7 * math.exp(-2.0), rel=1e-8)


def test_adapt_dynamic_blow_up_raises():
    # u' = u^2, u(0) = 1 blows up at t = 1
    system = PolynomialOde(
        n_state=1, dim=1, initial=lambda pts: np.ones((1, pts.shape[0])), quadratic=((0, 1.0, 0, 0),)
    )
    with pytest.raises(IntegrationError), np.errstate(over="ignore", invalid="ignore"):
        adapt_dynamic(system, cfg(theta1=1e-3, N=3), T=2.0, dt=0.01)


def test_adapt_dynamic_ode_element_count():
    system = ode_galerkin_system(3, 1.0, -2.0, 1.0)
    dec, _, _ = adapt_dynamic(system, cfg(theta1=0.05, N=3), T=1.0, dt=0.01)
    assert 4 <= len(dec) <= 7
    assert check_partition(dec) == []


def test_adapt_dynamic_ko_element_counts_bracketed():
    system = ko_galerkin_system()
    counts = []
    for theta1 in (1e-2, 1e-3, 1e-4):
        dec, _, _ = adapt_dynamic(system, cfg(theta1=theta1, N=5, max_elements=128), T=15.0, dt=0.01)
        counts.append(len(dec))
        assert check_partition(dec) == []
    assert counts[0] < counts[1] < counts[2]
    assert all(8 <= c <= 40 for c in counts)


# (time, element, indicator, dims) of every split at dt = 0.01, for the nine ko3 cells of tables 3 and 4
# and the three linear-ode orders of table 2, recorded while the truncated system still had
# operators of its own; a change of summation order in the slope may move the indicators by
# rounding, but not the times, elements or directions
DYNAMIC_SPLITS = json.loads((Path(__file__).parent / "data" / "dynamic_splits.json").read_text())


@pytest.mark.parametrize("name", list(DYNAMIC_SPLITS))
def test_adapt_dynamic_split_sequences_are_pinned(name):
    pinned = DYNAMIC_SPLITS[name]
    order, splits = pinned["order"], pinned["splits"]
    if name.startswith("ko3"):
        system, T = ko_galerkin_system(), 15.0
    else:
        system, T = ode_galerkin_system(order, 1.0, -2.0, 1.0), 1.0
    events: list[RefinementEvent] = []
    dec, _, truncated = adapt_dynamic(system, cfg(theta1=pinned["theta1"], N=order), T=T, dt=0.01,
                                      event_log=events)
    assert len(dec) == pinned["n_elements"] and not truncated
    assert [(ev.time, ev.element, ev.dims) for ev in events] == [(t, k, tuple(dims)) for t, k, _, dims in splits]
    for ev, (_, _, indicator, _) in zip(events, splits):
        assert ev.indicator == pytest.approx(indicator, rel=1e-10, abs=0.0)


def test_adapt_dynamic_projection_restart_consistency():
    # re-expanding a parent state on its children reproduces the polynomial exactly
    rng = np.random.default_rng(6)
    order = 5
    parent = Element.box([-0.5], [0.25])
    coeffs = rng.normal(size=(2, order + 1))
    children = split_element(parent, {0})
    pts = np.linspace(-0.5, 0.25, 100, endpoint=False)[:, None]
    for child in children:
        child_coeffs = _project_child_state(parent, child, coeffs, order)
        inside = (pts[:, 0] >= child.lower[0]) & (pts[:, 0] < child.upper[0])
        for v in range(2):
            got = eval_expansion_many(child, order, child_coeffs[v], pts[inside])
            want = eval_expansion_many(parent, order, coeffs[v], pts[inside])
            assert np.max(np.abs(got - want)) < 1e-9


def test_adapt_dynamic_projected_children_classify_like_exact_model():
    # children continue from the projection of their parent's state; the surrogate
    # must classify failures like the exact model away from a thin boundary band
    from mehybrid.problems import OdeModel

    system = ode_galerkin_system(3, 1.0, -2.0, 1.0)
    pts = sample_uniform(2000, 1, 1).points
    exact_sign = OdeModel().evaluate_many(pts) < 0
    dec, coeffs, _ = adapt_dynamic(system, cfg(theta1=0.05, N=3), T=1.0, dt=0.01)
    surr = limit_state_surrogate(dec, coeffs, 3, 0, -0.5)
    surr_sign = eval_me_surrogate_many(surr, pts) < 0
    assert np.mean(surr_sign != exact_sign) < 0.02


def test_adapt_dynamic_two_dimensional_ko_matches_monte_carlo():
    # three-mode system with y(0) = (1 + 0.1 xi2, 0.1 xi1, 0) and failure y1(5) < 0.03:
    # refinement must split both dimensions, and both hybrids must end at Monte Carlo
    # on the same samples
    from mehybrid import problems
    from mehybrid.estimator import HybridConfig, mc_estimate, me_gha, me_lha

    def initial(pts):
        return np.stack([1.0 + 0.1 * pts[:, 1], 0.1 * pts[:, 0], np.zeros(pts.shape[0])])

    def g(Z):
        return problems._ko_integrate(initial(Z), 5.0, 0.01)[0] - 0.03

    system = PolynomialOde(n_state=3, dim=2, initial=initial, quadratic=ko_galerkin_system().quadratic)
    events: list[RefinementEvent] = []
    dec, coeffs, truncated = adapt_dynamic(system, cfg(theta1=1e-3, N=3), T=5.0, dt=0.01, event_log=events)
    assert check_partition(dec) == [] and not truncated
    assert {ev.dims for ev in events} == {(0,), (0, 1)}  # the THETA2 rule picks the directions
    surr = limit_state_surrogate(dec, coeffs, 3, offset=-0.03)
    samples = sample_uniform(2000, 2, 1)
    mc = mc_estimate(CallableModel(g, dim=2), samples)
    assert 0.2 < mc.p_f < 0.4
    for walk in (me_gha, me_lha):
        est, _ = walk(CallableModel(g, dim=2), surr, samples, HybridConfig(delta_m=100))
        assert est.p_f == mc.p_f, walk.__name__
        assert est.n_exact < 2000, walk.__name__


def test_adapt_dynamic_truncation_status():
    system = ko_galerkin_system()
    dec, _, truncated = adapt_dynamic(system, cfg(theta1=1e-4, N=5, max_elements=6), T=15.0, dt=0.01)
    assert len(dec) <= 6
    assert truncated is True


def test_rk4_error_ratio():
    def err(h):
        y = np.array(1.0)
        work = k1, kb, stage = tuple(np.empty_like(y) for _ in range(3))
        stages = tuple(lambda v=v, out=out: np.negative(v, out=out) for v, out in ((y, k1), (stage, kb)))
        for _ in range(round(1.0 / h)):
            rk4_step(stages, y, (0.5 * h, 2.0, h, h / 6.0), work)
        return abs(float(y) - math.exp(-1.0))

    ratio = err(0.02) / err(0.01)
    assert 12.0 <= ratio <= 20.0


def test_rk4_integrate_rejects_bad_interval():
    def decay(src, dst):
        return lambda: np.negative(src, out=dst)

    for t0, t1 in ((0.0, 0.0), (1.0, 0.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="t1 > t0"):
            rk4_integrate(decay, np.ones(2), t0, t1, 0.1)
    for dt in (0.0, -0.01, math.inf, math.nan, "0.1", True):
        with pytest.raises(ValueError, match="time step"):
            rk4_integrate(decay, np.ones(2), 0.0, 1.0, dt)


def test_rk4_integrate_replays_a_blow_up_step_by_step():
    # u' = u^2 blows up at t = 1 / u(0): finiteness is checked once per integration, and on
    # failure the replay from the caller's state names the step and the column that a check
    # after every step finds first
    def square(src, dst):
        return lambda: np.multiply(src, src, dst)

    u0 = np.array([[0.25, 0.5, 1.0, 0.5]])
    start = u0.copy()
    y, h = u0.copy(), 0.05
    work = tuple(np.empty_like(y) for _ in range(3))
    stages = (square(y, work[0]), square(work[2], work[1]))
    steps = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while np.isfinite(y).all():
            rk4_step(stages, y, (0.5 * h, 2.0, h, h / 6.0), work)
            steps += 1
    first = int(np.flatnonzero(~np.isfinite(y[0]))[0])
    assert first == 2
    with pytest.raises(IntegrationError, match=f"in column {first}") as info, \
            np.errstate(over="ignore", invalid="ignore"):
        rk4_integrate(square, u0, 0.0, 5.0, h)
    assert info.value.t == pytest.approx(steps * h, rel=1e-12) and info.value.column == first
    assert np.array_equal(u0, start)
    # the replay runs under the caller's error state, so an error raised on overflow still is
    with pytest.raises(FloatingPointError), np.errstate(over="raise", invalid="ignore"):
        rk4_integrate(square, u0, 0.0, 5.0, h)
    # a scalar state names no column
    with pytest.raises(IntegrationError) as info, np.errstate(over="ignore", invalid="ignore"):
        rk4_integrate(square, 1.0, 0.0, 5.0, h)
    assert info.value.column is None


def test_rk4_steps_go_through_the_module_rk4_step(monkeypatch):
    # bench/tracer.py counts RK4 steps by wrapping refine.rk4_step where the module binds
    # it, so every step must be one call through that binding: ceil((t1 - t0) / dt) for
    # one integration, and T / dt = 1,500 for a 100-row KO block at the model's defaults
    calls = []
    step = refine.rk4_step

    def counting(*args):
        calls.append(1)
        step(*args)

    monkeypatch.setattr(refine, "rk4_step", counting)
    rk4_integrate(lambda src, dst: lambda: np.negative(src, dst), np.ones(3), 0.0, 1.0, 0.3)
    assert len(calls) == math.ceil(1.0 / 0.3)
    calls.clear()
    KoModel().evaluate_many(np.linspace(-1.0, 1.0, 100)[:, None])
    assert len(calls) == 1500


def test_galerkin_rk4_matches_textbook_rk4():
    # the in-place stepper with its multipliers made once per integration gives, bit for
    # bit, an allocating textbook RK4 with Python-float multipliers on the same slope: a
    # KO Galerkin state (M, 3, n) on four elements
    system, n_order, h, steps = ko_galerkin_system(), 5, 0.01, 150
    dense = triple_products(1, n_order)
    elements = [Element.box([lo], [lo + 0.5]) for lo in (-1.0, -0.5, 0.0, 0.5)]
    c0 = _project_function(system.initial, elements, n_order, (3,))
    quad = _quadratic_operator(system, dense, dense.shape[0])

    def rhs(v):
        return _galerkin_rhs(system, v, dense, ())

    v = c0
    for _ in range(steps):
        k1 = rhs(v)
        k2 = rhs(v + 0.5 * h * k1)
        k3 = rhs(v + 0.5 * h * k2)
        k4 = rhs(v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    start = c0.copy()
    got = rk4_integrate(lambda src, dst: _batched_rhs(quad, None, src, dst), c0, 0.0, steps * h, h)
    assert got.shape == (4, 3, dense.shape[0])
    assert np.array_equal(got, v)
    assert np.array_equal(c0, start)


def test_refinement_config_validation():
    for theta1 in (0.0, -1e-3, math.nan, True, "1e-3", None):
        with pytest.raises(ValueError, match="theta1"):
            RefinementConfig(theta1=theta1, N=3)
    assert RefinementConfig(theta1=math.inf, N=3).theta1 == math.inf  # the global build never splits
    # the order and the element cap are counts: integers, not bools or floats
    for order in (0, -1, 2.5, 3.0, True, "3", None):
        with pytest.raises(ValueError, match="order N"):
            RefinementConfig(theta1=1e-3, N=order)
    for max_elements in (0, 2.5, 8.0, True, "8", None):
        with pytest.raises(ValueError, match="max_elements"):
            RefinementConfig(theta1=1e-3, N=3, max_elements=max_elements)
    assert RefinementConfig(theta1=1e-3, N=1, max_elements=1).max_elements == 1
