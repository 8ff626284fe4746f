import math

import numpy as np
import pytest

from mehybrid import surrogate as surrogate_module
from mehybrid.errors import IntegrationError, ModelEvaluationError
from mehybrid.estimator import (
    ORDER_SAMPLE,
    Estimate,
    _grow_order,
    _thresholds,
    HybridConfig,
    iterative_hybrid,
    mc_estimate,
    mc_stddev,
    me_gha,
    me_lha,
    relative_error,
)
from mehybrid.randomspace import Decomposition, Element, SampleSet, locate_many, sample_uniform
from mehybrid.surrogate import (
    CallableModel,
    MultiElementSurrogate,
    gamma_bound,
    lp_error,
)
from mehybrid.problems import BurgersModel, KoModel, StepModel, step_global_gpc, step_me_exact
from mehybrid.refine import RefinementConfig, adapt_static


def const_model(value: float) -> CallableModel:
    return CallableModel(lambda z: np.full(len(z), value))


def line_mesh(bounds, order, coeffs) -> MultiElementSurrogate:
    """A 1-D surrogate on the elements between consecutive ``bounds``, one coefficient row each."""
    return MultiElementSurrogate(Decomposition(tuple(Element.box([a], [b]) for a, b in zip(bounds, bounds[1:]))),
                                 order, coeffs)


def band(gamma: float) -> HybridConfig:
    """The direct hybrid's walk: the band |g~| <= gamma as one block."""
    return HybridConfig(delta_m=1, gamma=gamma)


def test_mc_estimate_constant_models():
    samples = sample_uniform(500, 1, 0)
    assert mc_estimate(const_model(-1.0), samples).p_f == 1.0
    assert mc_estimate(const_model(1.0), samples).p_f == 0.0


def test_nan_model_value_is_an_error():
    # a NaN value is neither safe nor failed; both the plain MC and the hybrid stop on it
    samples = sample_uniform(500, 1, 0)
    model = CallableModel(lambda z: np.where(z > 0.5, np.nan, z))
    with pytest.raises(ModelEvaluationError) as info:
        mc_estimate(model, samples)
    assert info.value.point.tolist() == samples.points[np.argmax(samples.points[:, 0] > 0.5)].tolist()
    with pytest.raises(ModelEvaluationError):
        iterative_hybrid(model, lambda Z: 1.0 - Z[:, 0], samples, HybridConfig(delta_m=50))  # z near 1 first


def test_nan_surrogate_value_is_an_error():
    # a NaN surrogate value would count as safe and be walked last; both walks refuse it
    # before any exact call, naming the first NaN sample as the exact model does
    samples = sample_uniform(1000, 1, 0)
    first = samples.points[np.argmax(samples.points[:, 0] < 0.0)].tolist()
    model = CallableModel(lambda z: z)
    with pytest.raises(ModelEvaluationError, match="surrogate returned NaN") as info:
        iterative_hybrid(model, lambda Z: np.where(Z[:, 0] < 0.0, np.nan, Z[:, 0]), samples,
                         HybridConfig(delta_m=100))
    assert info.value.point.tolist() == first
    halves = line_mesh((-1.0, 0.0, 1.0), 0, [[np.nan], [1.0]])
    with pytest.raises(ModelEvaluationError, match="surrogate returned NaN") as info:
        me_lha(model, halves, samples, HybridConfig(delta_m=100))
    assert info.value.point.tolist() == first
    assert model.call_count == 0


def test_integration_error_names_the_sample():
    # at dt = 2, xi = -0.5 overflows and xi = 0 does not; the surrogate ranks sample 737
    # 38th, so it is row 37 of the first block, and in the local walk the only sample of
    # element 0
    pts = np.zeros((1000, 1))
    pts[737] = -0.5
    samples = SampleSet(pts, seed=0)
    approx = np.arange(1.0, 1001.0)
    approx[737] = 37.5
    with pytest.raises(IntegrationError, match=r"t = 11\.25 in column 737 \(iteration 1\)$") as info, \
            np.errstate(over="ignore", invalid="ignore"):
        iterative_hybrid(KoModel(dt=2.0), lambda Z: approx.copy(), samples, HybridConfig(delta_m=100))
    assert info.value.t == 11.25 and info.value.column == 737
    assert info.value.__cause__.column == 37
    mesh = line_mesh((-1.0, -0.25, 1.0), 0, [[1.0], [1.0]])
    with pytest.raises(IntegrationError, match=r"in column 737 \(iteration 1 of element 0\)$") as info, \
            np.errstate(over="ignore", invalid="ignore"):
        me_lha(KoModel(dt=2.0), mesh, samples, HybridConfig(delta_m=100))
    assert info.value.column == 737 and info.value.__cause__.column == 0


def test_wrong_shaped_values_are_errors():
    # a constant model used to fill every chunk: Monte Carlo read p_f = 1.0
    samples = sample_uniform(1000, 1, 0)
    for wrong in (lambda z: -1.0, lambda z: np.array([-1.0])):
        with pytest.raises(ModelEvaluationError, match="for the 1000 points from row 0, expected"):
            mc_estimate(CallableModel(wrong), samples)
    # a surrogate with m - 1 values walked m - 1 samples and left the last one unclassified;
    # (m, 1), (m, 2) and scalar results failed deep inside the walk
    model = CallableModel(lambda z: z)
    for wrong in (lambda Z: Z[:-1, 0], lambda Z: Z, lambda Z: np.hstack([Z, Z]), lambda Z: 0.5, lambda Z: []):
        with pytest.raises(ValueError, match=r"surrogate must return shape \(1000,\)"):
            iterative_hybrid(model, wrong, samples, HybridConfig(delta_m=100))
    assert model.call_count == 0
    est, _ = iterative_hybrid(model, lambda Z: list(Z[:, 0]), samples, HybridConfig(delta_m=100))
    assert est.p_f == mc_estimate(model, samples).p_f  # any sequence of m values is accepted


def test_mc_estimate_step():
    samples = sample_uniform(1_000_000, 1, 42)
    est = mc_estimate(StepModel(), samples)
    assert est.p_f == pytest.approx(0.5, abs=0.0015)
    assert est.n_exact == 1_000_000
    assert est.stddev == pytest.approx(mc_stddev(est.p_f, 1_000_000))


def test_mc_stddev_examples():
    assert mc_stddev(0.0, 100) == 0.0
    assert mc_stddev(0.5, 100) == pytest.approx(0.05, abs=1e-15)
    assert mc_stddev(0.1, 1_000_000) == pytest.approx(3e-4, abs=1e-15)
    with pytest.raises(ValueError):
        mc_stddev(1.2, 10)
    with pytest.raises(ValueError):
        mc_stddev(0.5, 0)


def test_estimate_bounds_validation():
    with pytest.raises(ValueError):
        Estimate(1.5, 0, 0, 0.0)


def test_direct_hybrid_zero_band_is_pure_surrogate():
    samples = sample_uniform(2000, 1, 1)
    model = StepModel()
    surrogate = step_global_gpc(0)
    est, _ = iterative_hybrid(model, surrogate, samples, band(0.0))
    assert est.n_exact == 0
    assert model.call_count == 0
    ghat = surrogate(samples.points)
    assert est.p_f == np.count_nonzero(ghat < 0) / samples.m


def test_direct_hybrid_full_band_equals_mc():
    samples = sample_uniform(3000, 1, 2)
    model = StepModel()
    surrogate = step_global_gpc(0)
    big_gamma = float(np.max(np.abs(surrogate(samples.points)))) + 1e-9
    est, _ = iterative_hybrid(model, surrogate, samples, band(big_gamma))
    ref = mc_estimate(StepModel(), samples)
    assert est.p_f == ref.p_f
    assert est.n_exact == samples.m


def test_direct_hybrid_band_covers_disagreement():
    samples = sample_uniform(5000, 1, 3)
    model = CallableModel(lambda z: z - 0.5)
    surrogate = CallableModel(lambda z: z - 0.5 + 0.01)
    est, _ = iterative_hybrid(model, surrogate.evaluate_many, samples, band(0.02))
    ref = mc_estimate(CallableModel(lambda z: z - 0.5), samples)
    assert est.p_f == ref.p_f


def test_direct_hybrid_rejects_negative_gamma():
    for gamma in (-0.1, math.nan, True, "0.1"):
        with pytest.raises(ValueError, match="gamma"):
            band(gamma)
    # the band is a stop rule of its own: it takes no net-change tolerance
    with pytest.raises(ValueError, match="gamma"):
        HybridConfig(delta_m=1, gamma=0.1, eta_stop=0.01)
    HybridConfig(delta_m=1, gamma=0.1, eta_stop=0.0)


def test_iterative_hybrid_perfect_surrogate_stops_immediately():
    samples = sample_uniform(20_000, 1, 4)
    model = StepModel()
    est, trace = iterative_hybrid(model, step_me_exact(), samples, HybridConfig(delta_m=500))
    ref = mc_estimate(StepModel(), samples)
    assert est.p_f == ref.p_f
    assert est.n_exact == 500
    assert len([r for r in trace.records if r.iteration > 0]) == 1


def test_iterative_hybrid_me_lha_step_counts():
    samples = sample_uniform(100_000, 1, 5)
    cfg = HybridConfig(delta_m=1000)
    est_l, trace = me_lha(StepModel(), step_me_exact(), samples, cfg)
    ref = mc_estimate(StepModel(), samples)
    # one block per element, both stop after a single zero-change iteration
    assert est_l.n_exact == 2000
    assert est_l.p_f == ref.p_f
    elements_in_trace = {r.element for r in trace.records}
    assert elements_in_trace == {0, 1}


def test_me_gha_single_element_reduces_to_iterative():
    surrogate = line_mesh((-1.0, 1.0), 1, [[-0.2, 0.6]])
    samples = sample_uniform(5000, 1, 6)
    cfg = HybridConfig(delta_m=250)
    est_a, tr_a = me_gha(StepModel(), surrogate, samples, cfg)
    est_b, tr_b = iterative_hybrid(StepModel(), surrogate, samples, cfg)
    assert est_a == est_b
    assert [r.estimate for r in tr_a.records] == [r.estimate for r in tr_b.records]


def test_me_lha_single_element_reduces_to_iterative():
    surrogate = line_mesh((-1.0, 1.0), 1, [[-0.2, 0.6]])
    samples = sample_uniform(5000, 1, 7)
    cfg = HybridConfig(delta_m=250)
    est_a, _ = me_lha(StepModel(), surrogate, samples, cfg)
    est_b, _ = iterative_hybrid(StepModel(), surrogate, samples, cfg)
    assert est_a.p_f == est_b.p_f
    assert est_a.n_exact == est_b.n_exact


def test_full_replacement_limit_exact_equality():
    # surrogate always predicts failure, model never fails: every block corrects,
    # so the iteration must run to exhaustion and meet the plain MC estimate
    m = 5317  # deliberately not a multiple of delta_m
    samples = sample_uniform(m, 1, 8)
    for runner in ("global", "local"):
        model = const_model(1.0)
        if runner == "global":
            est, trace = iterative_hybrid(
                model, lambda Z: -np.ones(len(Z)), samples, HybridConfig(delta_m=250)
            )
        else:
            neg = MultiElementSurrogate(step_me_exact().decomposition, 0, [[-1.0], [-1.0]])
            est, trace = me_lha(model, neg, samples, HybridConfig(delta_m=250))
        ref = mc_estimate(const_model(1.0), samples)
        assert est.p_f == ref.p_f == 0.0
        assert est.n_exact == m
        assert model.call_count == m


def test_exact_call_accounting_matches_model_counter():
    samples = sample_uniform(30_000, 1, 9)
    surrogate = step_me_exact()
    for runner in (iterative_hybrid, me_gha, me_lha):
        model = StepModel()
        before = model.call_count
        est, _ = runner(model, surrogate, samples, HybridConfig(delta_m=700))
        assert est.n_exact == model.call_count - before


def test_me_lha_element_order_invariance():
    # each element's walk is its own: a permuted mesh gives the same estimate, exact calls and
    # final trace row, and every element the same walk; the step's two elements reversed, and a
    # Burgers p = 2 mesh (11 elements) in a random order
    burgers = adapt_static(BurgersModel(), RefinementConfig(theta1=0.01, N=2), q=21)
    cases = ((StepModel, step_me_exact(), sample_uniform(40_000, 1, 10), HybridConfig(delta_m=900), [1, 0]),
             (BurgersModel, burgers, sample_uniform(20_000, 1, 7), HybridConfig(delta_m=100),
              np.random.default_rng(3).permutation(len(burgers))))
    for make_model, mesh, samples, cfg, perm in cases:
        elements = mesh.decomposition.elements
        permuted = MultiElementSurrogate(Decomposition(tuple(elements[k] for k in perm)), mesh.order, mesh.coeffs[perm])
        est_a, trace_a = me_lha(make_model(), mesh, samples, cfg)
        est_b, trace_b = me_lha(make_model(), permuted, samples, cfg)
        assert (est_b.p_f, est_b.n_exact, est_b.surrogate_estimate) == (est_a.p_f, est_a.n_exact,
                                                                         est_a.surrogate_estimate)
        last_a, last_b = trace_a.records[-1], trace_b.records[-1]
        assert (last_b.estimate, last_b.n_exact) == (last_a.estimate, last_a.n_exact)

        def walks(trace, label_of):
            """Each element's blocks as (iteration, failure change, exact calls), keyed by mesh element."""
            out, prev = {}, None
            for r in trace.records:
                fails = round(r.estimate * samples.m)
                if r.iteration:
                    out.setdefault(label_of(r.element), []).append((r.iteration, fails - prev[0],
                                                                    r.n_exact - prev[1]))
                prev = fails, r.n_exact
            return out

        assert walks(trace_b, lambda k: int(perm[k])) == walks(trace_a, int)


def linear_mesh_surrogate() -> MultiElementSurrogate:
    """g~(z) = z - 0.3 on four elements, except a constant -1 on the last one."""
    bounds = (-1.0, -0.5, 0.0, 0.5, 1.0)
    coeffs = [[(a + b) / 2.0 - 0.3, (b - a) / (2.0 * math.sqrt(3.0))] if b < 1.0 else [-1.0, 0.0]
              for a, b in zip(bounds, bounds[1:])]
    return line_mesh(bounds, 1, coeffs)


def test_conservation_of_count_reconstruction():
    # reclassify every sample by the documented rule and reproduce p_f bit for bit:
    # exact classes on the samples each walk evaluated, surrogate classes on all others
    samples = sample_uniform(25_000, 1, 11)
    pts = samples.points
    line = step_global_gpc(0)
    mesh = linear_mesh_surrogate()
    owners = locate_many(mesh.decomposition, pts)
    cases = [
        (iterative_hybrid, line, HybridConfig(delta_m=400), None),
        (me_gha, mesh, HybridConfig(delta_m=400), None),
        (me_lha, mesh, HybridConfig(delta_m=400), owners),
    ]
    for runner, surrogate, cfg, groups in cases:
        est, trace = runner(StepModel(), surrogate, samples, cfg)
        assert trace.records[-1].estimate == est.p_f

        walk_start, walk_calls = {}, {}
        for r in trace.records:
            if r.iteration == 0:
                walk_start[r.element] = r.n_exact
            walk_calls[r.element] = r.n_exact - walk_start[r.element]
        assert sum(walk_calls.values()) == est.n_exact

        ghat = surrogate(pts)
        evaluated = []
        for label, calls in walk_calls.items():
            members = np.arange(len(pts)) if label is None else np.flatnonzero(groups == label)
            evaluated.append(members[np.argsort(np.abs(ghat[members]), kind="stable")][:calls])
        evaluated = np.concatenate(evaluated)
        count = int(np.count_nonzero(StepModel().evaluate_many(pts[evaluated]) < 0))
        mask = np.ones(len(pts), dtype=bool)
        mask[evaluated] = False
        count += int(np.count_nonzero(ghat[mask] < 0))
        assert est.p_f == count / samples.m


def test_trace_invariants():
    samples = sample_uniform(30_000, 1, 12)
    cfg = HybridConfig(delta_m=500)
    surrogate = step_global_gpc(0)
    est, trace = iterative_hybrid(StepModel(), surrogate, samples, cfg)
    records = trace.records
    for prev, cur in zip(records, records[1:]):
        assert abs(cur.estimate - prev.estimate) <= cfg.delta_m / samples.m + 1e-15
        assert cur.n_exact > prev.n_exact or cur.iteration == 0
    assert records[-1].estimate == est.p_f


def test_eta_stop_tolerance():
    samples = sample_uniform(20_000, 1, 14)
    surrogate = step_global_gpc(0)
    # a generous tolerance stops after the first block regardless of corrections
    cfg = HybridConfig(delta_m=100, eta_stop=1.0)
    est, trace = iterative_hybrid(StepModel(), surrogate, samples, cfg)
    assert est.n_exact == 100
    assert len([r for r in trace.records if r.iteration > 0]) == 1


def test_hybrid_band_property_over_seeds():
    # whenever gamma >= gamma_bound(lp_error, eps, p), the banded estimate sits
    # within eps of plain MC on the same samples
    eps, p = 0.05, 2
    offset = 0.01
    for seed in range(20):
        samples = sample_uniform(4000, 1, 100 + seed)
        model = CallableModel(lambda z: z - 0.5)
        surr = CallableModel(lambda z: z - 0.5 + offset)
        eps_p = lp_error(surr.evaluate_many, model, p, 2000, seed=200 + seed)
        gamma = gamma_bound(eps_p, eps, p)
        est, _ = iterative_hybrid(model, surr.evaluate_many, samples, band(gamma))
        ref = mc_estimate(CallableModel(lambda z: z - 0.5), samples)
        assert abs(est.p_f - ref.p_f) <= eps


def test_relative_error_examples():
    assert relative_error(0.1, 0.1) == 0.0
    assert relative_error(0.102651, 0.102651) == 0.0
    assert relative_error(0.11, 0.10) == pytest.approx(0.1, abs=1e-12)
    with pytest.raises(ValueError):
        relative_error(0.1, 0.0)


def test_hybrid_config_validation():
    # the block size is a count: an integer, not a bool or a float
    for delta_m in (0, -1, 2.5, 2.0, True, "3", None):
        with pytest.raises(ValueError, match="delta_m"):
            HybridConfig(delta_m=delta_m)
    assert HybridConfig(delta_m=np.int64(7)).delta_m == 7
    for eta_stop in (-1e-3, math.nan, True, None):
        with pytest.raises(ValueError, match="eta_stop"):
            HybridConfig(delta_m=10, eta_stop=eta_stop)
    with pytest.raises(ValueError):
        iterative_hybrid(
            const_model(1.0), lambda Z: np.zeros(len(Z)), sample_uniform(5, 1, 0), HybridConfig(delta_m=10)
        )


def _grown(mag, thresholds=None):
    """Grow an order through ``thresholds`` (by default the walk's own, from
    `_thresholds`) and check it against a full stable argsort after every growth;
    returns the order's sizes after each."""
    full = np.argsort(mag, kind="stable")
    order = np.empty(0, dtype=np.intp)
    sizes, top = [], -np.inf
    for t in _thresholds(mag) if thresholds is None else thresholds:
        order = _grow_order(mag, order, t)
        top = max(top, t)
        assert np.array_equal(order, full[: order.size]), t
        # the order holds every value at or below its last one: all those at or below
        # the highest threshold so far, and no others
        assert order.size == np.count_nonzero(mag <= top), t
        sizes.append(order.size)
    return sizes


def test_thresholds_double_the_subsample_rank_then_end_at_inf():
    # below 64 values the subsample is the whole array and the first rank is still 1;
    # a single value has no finite threshold
    for size, ranks in ((1, []), (63, [1, 2, 4, 8, 16, 32]), (64, [1, 2, 4, 8, 16, 32])):
        mag = np.arange(size, dtype=float)[::-1]
        assert list(_thresholds(mag)) == ranks + [np.inf]
        assert _grown(mag) == [rank + 1 for rank in ranks] + [size]
    # a long walk: a stride-48 subsample of 4,167 values, ranks 65 to 4,160
    mag = np.abs(np.random.default_rng(13).normal(size=200_000))
    thresholds = list(_thresholds(mag))
    sample = np.sort(mag[::48])
    assert thresholds == [sample[65 * 2**i] for i in range(7)] + [np.inf]
    sizes = _grown(mag)
    assert sizes == [np.count_nonzero(mag <= t) for t in thresholds]
    # the first growth takes about 1/64 of the walk, each next one about doubles it
    assert abs(sizes[0] / 200_000 - 1 / 64) < 1 / 256
    assert np.all(np.abs(np.diff(np.log2(sizes[:-1])) - 1.0) < 0.1) and sizes[-1] == 200_000


def test_prefix_order_equals_full_stable_argsort():
    rng = np.random.default_rng(17)
    arrays = (rng.integers(0, 6, size=5000).astype(float),     # heavy ties
              np.abs(rng.normal(size=5000)),
              np.where(rng.random(5000) < 0.05, np.inf, rng.normal(size=5000)) * rng.choice([-1.0, 1.0], 5000))  # signed, infinities
    for mag in arrays:
        assert _grown(mag)[-1] == 5000
        for t in (-np.inf, -1.0, 0.0, 2.0, 5.0, np.inf):
            _grown(mag, [t])

    # doubling up to the whole array, each growth sorting only its new band
    mag = np.abs(rng.normal(size=200_000))
    sizes = _grown(mag, [np.sort(mag)[400 * 2**i - 1] for i in range(9)] + [np.inf])
    assert sizes == [400 * 2**i for i in range(9)] + [200_000]

    # a threshold inside a run of ties takes all of them; one at or below the order's
    # last value, as when consecutive thresholds are equal, adds nothing
    mag = np.repeat([0.5, 0.25, 0.75], 2000)[rng.permutation(6000)]
    assert _grown(mag, [0.25, 0.25, 0.1, 0.5, 0.6, 0.75, np.inf]) == [2000, 2000, 2000, 4000, 4000, 6000, 6000]
    assert _grown(mag, [0.0, np.inf, np.inf]) == [0, 6000, 6000]


def test_prefix_order_with_ties_and_a_misleading_subsample():
    rng = np.random.default_rng(19)
    size = 50_000
    # all equal, and {0, 1} as from the step surrogate: every growth runs through a run of
    # ties, and the thresholds repeat, so most growths add nothing
    mag = np.full(size, 0.5)
    assert _grown(mag) == [size] * len(list(_thresholds(mag)))
    steps = rng.integers(0, 2, size=size).astype(float)
    zeros = int(np.count_nonzero(steps == 0.0))
    sizes = _grown(steps)
    assert sizes[0] == zeros and sizes[-1] == size and set(sizes) == {zeros, size}
    # the last one or two values
    mag = np.abs(rng.normal(size=size))
    assert _grown(mag, [np.sort(mag)[-2], np.inf]) == [size - 1, size]
    assert _grown(mag, [np.inf]) == [size]
    # the subsample takes every stride-th value: holding all of the smallest values there
    # makes the thresholds low, holding none of them there makes the first one high
    stride = size // ORDER_SAMPLE
    on_stride = np.zeros(size, dtype=bool)
    on_stride[::stride] = True
    for small in (on_stride, ~on_stride):
        mag = rng.uniform(1.0, 2.0, size=size)
        mag[small] = rng.uniform(0.0, 1.0, size=np.count_nonzero(small))
        sizes = _grown(mag)
        assert sizes[-1] == size
        if small is on_stride:  # every finite threshold is small: the last growth takes all large values
            assert sizes[-2] < np.count_nonzero(small)
        else:  # the first threshold is large: the first growth takes every small value
            assert sizes[0] > np.count_nonzero(small)


class RecordingModel(CallableModel):
    """Step model that remembers the points of every exact block, in call order."""

    def __init__(self):
        super().__init__(lambda z: np.where(z < 0.0, -1.0, 0.0))
        self.blocks = []

    def _g_many(self, Z):
        self.blocks.append(Z[:, 0].copy())
        return super()._g_many(Z)


def test_walk_order_equals_full_stable_argsort():
    # a surrogate with five distinct values that is wrong on the left half walks every sample
    # (far past the first prefix), in the order of a full stable argsort of |g~|
    samples = sample_uniform(30_000, 1, 23)
    pts = samples.points
    levels = np.array([0.5, 0.25, 0.0, 0.25, 0.5])

    def ties(Z):
        return levels[np.minimum(((Z[:, 0] + 1.0) * 2.5).astype(int), 4)]

    cfg = HybridConfig(delta_m=300)
    assert next(_thresholds(np.abs(ties(pts)))) < 0.5  # the first growth leaves samples out
    model = RecordingModel()
    est, _ = iterative_hybrid(model, ties, samples, cfg)
    assert est.n_exact == samples.m
    full = np.argsort(np.abs(ties(pts)), kind="stable")
    assert np.array_equal(np.concatenate(model.blocks), pts[full, 0])

    # the same per element of the local hybrid
    mesh = line_mesh((-1.0, 0.0, 1.0), 0, [[0.25], [-0.25]])
    model = RecordingModel()
    est, _ = me_lha(model, mesh, samples, cfg)
    assert est.n_exact == samples.m
    walked = np.concatenate(model.blocks)
    left = np.flatnonzero(pts[:, 0] < 0.0)
    right = np.flatnonzero(pts[:, 0] >= 0.0)
    assert np.array_equal(walked, np.concatenate([pts[left, 0], pts[right, 0]]))


def test_walk_through_equal_thresholds():
    # |g~| in {0, 1}, mostly 0: the thresholds repeat 0, so a growth after the first adds
    # nothing and the walk must move on to the next threshold; the surrogate is wrong on
    # every sample with z < 0, so every block changes the estimate and the walk runs to
    # the end, in the order of a full stable argsort
    samples = sample_uniform(30_000, 1, 41)
    pts = samples.points

    def steps(Z):
        return np.where(Z[:, 0] < -0.9, 1.0, 0.0)

    thresholds = list(_thresholds(steps(pts)))
    assert thresholds[:2] == [0.0, 0.0]
    model = RecordingModel()
    est, _ = iterative_hybrid(model, steps, samples, HybridConfig(delta_m=300))
    assert est.n_exact == samples.m
    assert est.p_f == mc_estimate(StepModel(), samples).p_f
    full = np.argsort(steps(pts), kind="stable")
    assert np.array_equal(np.concatenate(model.blocks), pts[full, 0])


def test_band_is_a_stop_rule_of_the_walk():
    # four constant elements give |g~| ties at 0 and exactly at 0.25; the band walk must
    # give the fixed-band formula (count(g~ < -gamma) + exact failures on |g~| <= gamma) / m,
    # with one exact call of the walk's band, in sample order, per walk (per element under me_lha)
    levels = (0.25, 0.0, -0.25, 0.5)
    mesh = line_mesh((-1.0, -0.5, 0.0, 0.5, 1.0), 0, np.array(levels)[:, None])
    samples = sample_uniform(8000, 1, 31)
    pts, m = samples.points, samples.m
    approx = mesh(pts)
    owner = np.minimum(((pts[:, 0] + 1.0) * 2.0).astype(int), 3)
    exact_fail = pts[:, 0] < 0.0  # RecordingModel is the step
    for gamma in (0.0, 0.25, math.inf):
        in_band = np.abs(approx) <= gamma
        expected = (np.count_nonzero(approx < -gamma) + np.count_nonzero(exact_fail & in_band)) / m
        for walk, walks in ((iterative_hybrid, [in_band]),
                            (me_lha, [in_band & (owner == k) for k in range(4) if np.any(in_band & (owner == k))])):
            model = RecordingModel()
            est, trace = walk(model, mesh, samples, band(gamma))
            assert est.p_f == expected, (walk.__name__, gamma)
            assert est.n_exact == model.call_count == np.count_nonzero(in_band)
            assert len(model.blocks) == len(walks)
            for block, members in zip(model.blocks, walks):
                assert np.array_equal(block, pts[members, 0])
            assert trace.records[0].estimate == est.surrogate_estimate == np.count_nonzero(approx < 0.0) / m
            assert trace.records[-1].estimate == est.p_f
            assert trace.records[-1].n_exact == est.n_exact
    assert est.p_f == mc_estimate(StepModel(), samples).p_f  # the infinite band is Monte Carlo


def test_me_lha_locates_samples_once(monkeypatch):
    located = []
    locate = surrogate_module.locate_many

    def counting(dec, Z):
        located.append(len(Z))
        return locate(dec, Z)

    monkeypatch.setattr(surrogate_module, "locate_many", counting)
    samples = sample_uniform(20_000, 1, 29)
    est, _ = me_lha(StepModel(), linear_mesh_surrogate(), samples, HybridConfig(delta_m=400))
    assert sum(located) == samples.m
    assert est.n_exact > 0


def test_walk_overwrites_only_a_new_surrogate_array():
    # the walk turns g~ into |g~| in place; a view of the samples (read-only) or of a
    # caller's array is copied first
    samples = sample_uniform(2000, 1, 37)
    before = samples.points.copy()
    kept = np.linspace(-1.0, 1.0, 2000)
    for surrogate in (lambda Z: Z[:, 0], lambda Z: kept[:]):
        est, _ = iterative_hybrid(StepModel(), surrogate, samples, HybridConfig(delta_m=100))
        assert est.p_f == mc_estimate(StepModel(), samples).p_f
    assert np.array_equal(samples.points, before)
    assert np.array_equal(kept, np.linspace(-1.0, 1.0, 2000))


def test_walk_memory_in_sample_lengths():
    # traced peak of one walk over the linear-ode p = 3 mesh, in float arrays of the sample
    # length: |g~| overwrites g~, and a growth of the order takes its threshold from a
    # sorted subsample, so beyond |g~| a walk holds only masks and the order itself
    import tracemalloc

    from mehybrid.problems import OdeModel, ode_galerkin_system
    from mehybrid.refine import RefinementConfig, adapt_dynamic, limit_state_surrogate

    rcfg = RefinementConfig(theta1=0.05, N=3, max_elements=64)
    dec, coeffs, _ = adapt_dynamic(ode_galerkin_system(3, 1.0, -2.0, 1.0), rcfg, T=1.0, dt=0.01)
    mesh = limit_state_surrogate(dec, coeffs, 3, var=0, offset=-0.5)
    samples = sample_uniform(200_000, 1, 42)
    assert len(mesh) == 5
    for walk, bound in ((iterative_hybrid, 2.0), (me_lha, 3.5)):
        tracemalloc.start()
        try:
            est, _ = walk(OdeModel(), mesh, samples, HybridConfig(delta_m=100))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.n_exact > 0
        assert peak / (8 * samples.m) <= bound, (walk.__name__, peak / (8 * samples.m))
