import math
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from mehybrid import surrogate
from mehybrid.errors import DomainError, IntegrationError, ModelEvaluationError
from mehybrid.polybasis import basis_matrix, multi_index_set
from mehybrid.randomspace import Decomposition, Element, locate_many, sample_uniform
from mehybrid.surrogate import (
    EVAL_CHUNK,
    CallableModel,
    MultiElementSurrogate,
    build_collocation,
    eval_expansion_many,
    eval_me_surrogate_many,
    gamma_bound,
    local_variance,
    lp_error,
)
from mehybrid.estimator import HybridConfig, iterative_hybrid, me_lha
from mehybrid.problems import KoModel, StepModel, ko_trajectory, step_global_gpc, step_me_exact


def full_line():
    return Element.box([-1.0], [1.0])


def global_surrogate(order, coeffs):
    return MultiElementSurrogate(Decomposition((full_line(),)), order, [coeffs])


def test_collocation_constant_model():
    model = CallableModel(lambda z: np.full(len(z), 4.25))
    coeffs = build_collocation(model, full_line(), 3, 5)
    assert coeffs[0] == pytest.approx(4.25, abs=1e-13)
    assert np.max(np.abs(coeffs[1:])) < 1e-13


def test_collocation_linear_model():
    model = CallableModel(lambda z: z)
    coeffs = build_collocation(model, full_line(), 3, 4)
    assert coeffs[1] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-14)
    others = [c for i, c in enumerate(coeffs) if i != 1]
    assert np.max(np.abs(others)) < 1e-13
    assert model.call_count == 4


def test_collocation_step_left_element_is_constant():
    model = StepModel()
    coeffs = build_collocation(model, Element.box([-1.0], [0.0]), 4)
    assert coeffs[0] == pytest.approx(-1.0, abs=1e-13)
    assert np.max(np.abs(coeffs[1:])) < 1e-13


def test_collocation_call_accounting_2d():
    model = CallableModel(lambda Z: Z[:, 0] + Z[:, 1], dim=2)
    e = Element.box([-1.0, -1.0], [1.0, 1.0])
    before = model.call_count
    build_collocation(model, e, 2, 5)
    assert model.call_count - before == 25


def test_collocation_node_count_guard():
    model = CallableModel(lambda z: z)
    with pytest.raises(ValueError):
        build_collocation(model, full_line(), 3, 3)


def test_collocation_propagates_model_failure():
    def bad(z):
        raise RuntimeError("boom")

    model = CallableModel(bad)
    with pytest.raises(ModelEvaluationError) as err:
        build_collocation(model, full_line(), 2, 4)
    assert err.value.point is not None


def test_eval_expansion_examples():
    assert eval_expansion_many(full_line(), 0, np.array([-1.0]), np.array([[0.77]]))[0] == -1.0

    lin = np.array([0.0, 1.0 / math.sqrt(3.0)])
    assert eval_expansion_many(full_line(), 1, lin, np.array([[0.5]]))[0] == pytest.approx(0.5, abs=1e-14)

    step = step_global_gpc(0)
    value = eval_expansion_many(full_line(), step.order, step.coeffs[0], np.array([[0.0]]))[0]
    assert value == pytest.approx(-0.5, abs=1e-15)


def test_eval_expansion_outside_element():
    with pytest.raises(DomainError):
        eval_expansion_many(Element.box([0.0], [1.0]), 0, np.array([2.0]), np.array([[-0.5]]))


def test_me_surrogate_examples():
    me = step_me_exact()
    assert eval_me_surrogate_many(me, np.array([[-0.5], [0.5]])).tolist() == [-1.0, 0.0]
    # single-element surrogate behaves exactly like its expansion
    single = global_surrogate(1, [0.3, 0.9])
    pts = sample_uniform(200, 1, 5).points
    assert np.array_equal(eval_me_surrogate_many(single, pts), eval_expansion_many(full_line(), 1, [0.3, 0.9], pts))


def test_me_surrogate_structure_validation():
    # one row per element and one column per mode, checked when the record is made
    halves = step_me_exact().decomposition
    for wrong in ([[1.0]], [[1.0], [2.0], [3.0]], [[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0]):
        with pytest.raises(ValueError, match=r"expected coefficients of shape \(2, 1\)"):
            MultiElementSurrogate(halves, 0, wrong)
    with pytest.raises(ValueError, match=r"expected coefficients of shape \(1, 2\)"):
        global_surrogate(1, [1.0])
    with pytest.raises(ValueError):
        MultiElementSurrogate(Decomposition(()), 0, np.zeros((0, 1)))
    # the record holds a read-only copy: the caller's array stays the caller's
    coeffs = np.array([[-1.0], [0.0]])
    surr = MultiElementSurrogate(halves, 0, coeffs)
    coeffs[:] = 5.0
    assert surr.coeffs.tolist() == [[-1.0], [0.0]] and not surr.coeffs.flags.writeable
    assert surr(np.array([[-0.5], [0.5]])).tolist() == [-1.0, 0.0]


def test_local_variance_examples():
    assert local_variance(np.array([7.0])) == 0.0
    assert local_variance(np.array([2.0, 3.0])) == 9.0
    assert local_variance(np.array([0.0, 1.0, 2.0])) == 5.0
    # one variance per row of a coefficient matrix
    assert local_variance(np.array([[7.0, 0.0, 0.0], [2.0, 3.0, 0.0], [0.0, 1.0, 2.0]])).tolist() == [0.0, 9.0, 5.0]


def test_projection_reproduces_polynomials():
    # a model inside the span must be recovered coefficient for coefficient
    rng = np.random.default_rng(42)
    for d, n in ((1, 5), (2, 3)):
        e = Element.box([-1.0] * d, [1.0] * d) if d > 1 else Element.box([-0.5], [0.75])
        coeffs = rng.normal(size=len(multi_index_set(d, n)))

        model = CallableModel(lambda Z: eval_expansion_many(e, n, coeffs, np.reshape(Z, (-1, d))), dim=d)
        rebuilt = build_collocation(model, e, n)
        assert np.max(np.abs(rebuilt - coeffs)) < 1e-12

        pts = e.lower + (np.array(e.upper) - np.array(e.lower)) * rng.uniform(0, 1, size=(100, d))
        assert np.max(np.abs(eval_expansion_many(e, n, rebuilt, pts) - eval_expansion_many(e, n, coeffs, pts))) < 1e-11


def test_parseval_variance_matches_quadrature():
    rng = np.random.default_rng(1)
    e = Element.box([-0.25], [0.5])
    coeffs = rng.normal(size=5)
    # quadrature oracle for the conditional variance over the element
    x, w = np.polynomial.legendre.leggauss(12)
    w = w / w.sum()
    pts = (e.lower[0] + e.upper[0]) / 2.0 + x * (e.upper[0] - e.lower[0]) / 2.0
    vals = eval_expansion_many(e, 4, coeffs, pts[:, None])
    var = float(np.sum(w * vals**2) - np.sum(w * vals) ** 2)
    assert local_variance(coeffs) == pytest.approx(var, abs=1e-10)


def test_lp_error_examples():
    model = StepModel()
    me = step_me_exact()
    assert lp_error(me, model, p=2, m=5000, seed=3) == 0.0

    lin_model = CallableModel(lambda z: z)
    zero = global_surrogate(0, [0.0])
    err = lp_error(zero, lin_model, p=2, m=40000, seed=4)
    assert err == pytest.approx(math.sqrt(1.0 / 3.0), abs=0.01)

    # surrogate identical to the model
    same = global_surrogate(1, [0.0, 1.0 / math.sqrt(3.0)])
    assert lp_error(same, lin_model, p=1, m=2000, seed=5) < 1e-14


def test_lp_error_costs_exact_calls():
    model = StepModel()
    before = model.call_count
    lp_error(step_me_exact(), model, p=2, m=1234, seed=0)
    assert model.call_count - before == 1234


def test_gamma_bound_examples():
    assert gamma_bound(0.0, 0.01, 2) == 0.0
    assert gamma_bound(0.1, 0.01, 1) == pytest.approx(10.0, abs=1e-14)
    assert gamma_bound(0.1, 0.04, 2) == pytest.approx(0.5, abs=1e-14)
    with pytest.raises(ValueError):
        gamma_bound(0.1, 0.0, 2)
    with pytest.raises(ValueError):
        gamma_bound(-0.1, 0.1, 2)


def test_lp_error_and_gamma_bound_reject_nan_and_an_infinite_lp_order():
    # an error of 0.3 at every point: the mean of 0.3 ** inf would read 1.0, and NaN
    # would pass a plain p < 1 check; a bool read as a number (gamma_bound(0.1, 0.05, True)
    # returned 2.0), and a string raised a bare TypeError
    model = CallableModel(lambda z: z)
    off = lambda Z: Z[:, 0] + 0.3  # noqa: E731
    assert lp_error(off, model, p=2, m=1000, seed=0) == pytest.approx(0.3, abs=1e-12)
    calls = model.call_count
    for p in (math.inf, math.nan, 0.5, True, "2", None):
        with pytest.raises(ValueError, match="norm order"):
            lp_error(off, model, p=p, m=1000, seed=0)
    for m in (0, True, 100.0, "100", None):
        with pytest.raises(ValueError, match="sample count"):
            lp_error(off, model, p=2, m=m, seed=0)
    assert model.call_count == calls
    for args, message in (((math.nan, 0.1, 2), "surrogate error"), ((0.1, math.nan, 2), "accuracy target"),
                          ((0.1, 0.1, math.nan), "norm order"), ((0.1, 0.05, True), "norm order"),
                          ((0.1, 0.05, "2"), "norm order"), ((0.1, True, 2), "accuracy target"),
                          ((True, 0.05, 2), "surrogate error"), (("0.1", 0.05, 2), "surrogate error")):
        with pytest.raises(ValueError, match=message):
            gamma_bound(*args)
    assert gamma_bound(0.3, 0.01, math.inf) == 0.3
    # numpy scalars are numbers
    assert gamma_bound(np.float64(0.1), np.float64(0.04), np.int64(2)) == pytest.approx(0.5, abs=1e-14)
    assert lp_error(off, model, p=np.int64(2), m=np.int64(1000), seed=0) == pytest.approx(0.3, abs=1e-12)


def test_lp_error_rejects_a_wrong_shaped_surrogate():
    # an (m, 1) result broadcast exact - approx to an (m, m) array; nothing is evaluated exactly
    model = CallableModel(lambda z: z)
    for wrong in (lambda Z: Z, lambda Z: Z[:-1, 0], lambda Z: 0.5, lambda Z: np.hstack([Z, Z])):
        with pytest.raises(ValueError, match=r"surrogate must return shape \(100,\)"):
            lp_error(wrong, model, p=2, m=100, seed=0)
    assert model.call_count == 0


def test_me_surrogate_value_does_not_depend_on_the_batch():
    # order 7 on seven uneven elements; a shuffled batch longer than one evaluation chunk
    rng = np.random.default_rng(21)
    bounds = (-1.0, -0.75, -0.5, -0.25, 0.0, 0.125, 0.5, 1.0)
    dec = Decomposition(tuple(Element.box([a], [b]) for a, b in zip(bounds, bounds[1:])))
    surr = MultiElementSurrogate(dec, 7, rng.normal(size=(7, 8)) * 10.0 ** -np.arange(8))
    pts = rng.permutation(np.vstack([sample_uniform(9000, 1, 5).points, [[b] for b in bounds]]))
    owners = np.empty(len(pts), dtype=np.intp)
    batch = eval_me_surrogate_many(surr, pts, owners)
    alone = np.array([eval_me_surrogate_many(surr, pts[i : i + 1])[0] for i in range(len(pts))])
    assert np.array_equal(batch, alone)
    assert np.array_equal(owners, np.searchsorted(bounds[1:-1], pts[:, 0], side="right"))
    # each value is the owning element's own expansion, up to rounding
    for k, (e, coeffs) in enumerate(zip(dec, surr.coeffs)):
        rows = owners == k
        assert np.allclose(batch[rows], eval_expansion_many(e, 7, coeffs, pts[rows]), rtol=0.0, atol=1e-13)


def _basis_matrix_reference(surr, pts):
    # the (n, P) formulation: one basis matrix per batch, then each column
    # times its gathered coefficients, accumulated in index-set order
    indices = multi_index_set(surr.dim, surr.order)
    coeffs = surr.coeffs.T
    lower = np.array([e.lower for e in surr.decomposition])
    upper = np.array([e.upper for e in surr.decomposition])
    k = locate_many(surr.decomposition, pts)
    local = np.clip((2.0 * pts - (lower + upper)[k]) / (upper - lower)[k], -1.0, 1.0)
    basis = basis_matrix(indices, local)
    acc = basis[:, 0] * coeffs[0][k]
    for j in range(1, len(indices)):
        acc += basis[:, j] * coeffs[j][k]
    return acc


@pytest.mark.parametrize("d", [1, 2])
def test_me_surrogate_matches_basis_matrix_formula_bit_for_bit(d):
    # each order 0..7 on eight 1-D elements, 2/3/5/7 on the four 2-D quadrants;
    # the batch is longer than one evaluation chunk
    rng = np.random.default_rng(13)
    if d == 1:
        bounds = (-1.0, -0.75, -0.5, -0.25, 0.0, 0.125, 0.25, 0.5, 1.0)
        dec = Decomposition(tuple(Element.box([a], [b]) for a, b in zip(bounds, bounds[1:])))
        orders = range(8)
    else:
        dec = Decomposition(tuple(Element.box([a, b], [a + 1.0, b + 1.0]) for a in (-1.0, 0.0) for b in (-1.0, 0.0)))
        orders = (2, 3, 5, 7)
    pts = np.vstack([sample_uniform(EVAL_CHUNK + 1808, d, 3).points, np.full((1, d), -1.0), np.full((1, d), 1.0)])
    for p in orders:
        surr = MultiElementSurrogate(dec, p, rng.normal(size=(len(dec), len(multi_index_set(d, p)))))
        got = eval_me_surrogate_many(surr, pts)
        assert got.tobytes() == _basis_matrix_reference(surr, pts).tobytes()


def test_one_owner_mesh_matches_basis_matrix_formula_bit_for_bit():
    # the full-domain element owns every point, so its coefficients are read as
    # scalars instead of gathered; orders 0..7, a batch longer than one chunk
    rng = np.random.default_rng(17)
    pts = np.vstack([sample_uniform(EVAL_CHUNK + 1808, 1, 3).points, [[-1.0]], [[1.0]]])
    for p in range(8):
        surr = global_surrogate(p, rng.normal(size=p + 1))
        owners = np.full(len(pts), 255, dtype=np.uint8)
        got = eval_me_surrogate_many(surr, pts, owners)
        assert got.tobytes() == _basis_matrix_reference(surr, pts).tobytes()
        assert not owners.any()


def test_one_owner_mesh_under_me_lha_walks_element_0():
    samples = sample_uniform(5000, 1, 4)
    est, trace = me_lha(StepModel(), step_global_gpc(2), samples, HybridConfig(delta_m=500))
    assert {r.element for r in trace.records} == {0}
    assert est.p_f == iterative_hybrid(StepModel(), step_global_gpc(2), samples, HybridConfig(delta_m=500))[0].p_f


def test_one_owner_mesh_rejects_points_outside_the_domain():
    surr = global_surrogate(3, [0.1, 0.2, 0.3, 0.4])
    for bad in (-1.0000001, 1.5, math.nan, math.inf):
        pts = np.vstack([sample_uniform(EVAL_CHUNK + 10, 1, 3).points, [[bad]]])
        with pytest.raises(DomainError, match=r"outside \[-1,1\]\^d"):
            eval_me_surrogate_many(surr, pts)


def test_lone_element_short_of_the_domain_still_locates_its_points():
    # one element, but two cells: a point left of it is in no element, not in element 0
    surr = MultiElementSurrogate(Decomposition((Element.box([0.0], [1.0]),)), 1, [[0.5, 0.25]])
    assert surr(np.array([[0.5]]))[0] == 0.5
    with pytest.raises(DomainError, match="points not covered by the decomposition"):
        surr(np.array([[0.5], [-0.5]]))


def test_surrogate_points_must_be_shaped_n_by_dim():
    line = global_surrogate(1, [0.3, 0.9])
    square = MultiElementSurrogate(Decomposition((Element.box([-1.0, -1.0], [1.0, 1.0]),)), 1, [[0.3, 0.9, 0.1]])
    halves = step_me_exact()
    for surr, wrong in ((line, np.array([0.1])), (line, np.array([0.1, 0.2, 0.3])), (line, np.zeros((2, 2))),
                        (line, np.zeros((1, 1, 1))), (line, 0.5), (square, np.zeros((3, 1))),
                        (halves, np.array([-0.5, 0.5]))):
        with pytest.raises(ValueError, match=re.escape(f"points of shape {np.shape(wrong)} given, "
                                                       f"expected (n, {surr.dim})")):
            surr(wrong)
    # array-likes are read as float arrays
    assert line([[0.5]]).tobytes() == line(np.array([[0.5]])).tobytes()
    assert halves([[-0.5], [0.5]]).tolist() == [-1.0, 0.0]
    assert line(np.empty((0, 1))).shape == (0,)


# ---------------------------------------------------------------------------
# exact batches split across threads


class ParallelModel(CallableModel):
    """A cheap model that opts in to parallel batches of 1,000-row chunks."""

    parallel_chunk = 1000


@pytest.fixture
def workers(monkeypatch):
    """Sets the module's thread count for one test, with a pool of its own that the test ends."""

    def use(n: int) -> None:
        monkeypatch.setattr(surrogate, "WORKERS", n)
        monkeypatch.setattr(surrogate, "_pool", None)

    yield use
    if surrogate._pool is not None:
        surrogate._pool.shutdown()


@pytest.mark.parametrize("n_workers", [2, 3])
def test_parallel_batch_is_bit_identical(workers, n_workers):
    # 11 chunks on two or three threads (more than this host may have cores), with
    # thread switches forced far more often than usual
    def g(z):
        return np.sin(7.0 * z) * np.exp(z) - 0.1

    pts = sample_uniform(10_001, 1, 5).points
    sequential = CallableModel(g)
    expected = sequential.evaluate_many(pts)
    blocks = np.concatenate([sequential.evaluate_many(pts[i : i + 100]) for i in range(0, len(pts), 100)])
    workers(n_workers)
    model = ParallelModel(g)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [model.evaluate_many(pts) for _ in range(5)]
    finally:
        sys.setswitchinterval(interval)
    assert surrogate._pool is not None
    for values in got:
        assert values.tobytes() == expected.tobytes() == blocks.tobytes()
    assert model.call_count == 5 * len(pts)


def test_parallel_ko_rows_equal_the_limit_state(workers):
    workers(2)
    xi = np.random.default_rng(11).uniform(-1.0, 1.0, size=20_000)  # two 16,384-row chunks
    model = KoModel()
    got = model.evaluate_many(xi[:, None])
    assert got.tobytes() == (ko_trajectory(xi, 15.0, 0.01)[0] - 0.03).tobytes()
    assert model.call_count == len(xi)


@pytest.mark.parametrize("failing, expected", [({1, 2}, 1), ({2, 3}, 2), ({0, 3}, 0), ({3, 4, 5}, 3)])
def test_parallel_batch_raises_the_lowest_failing_chunk(workers, failing, expected):
    # on two threads the caller runs the even chunks and the pool the odd ones
    def g(z):
        k = int(z[0]) // ParallelModel.parallel_chunk
        if k in failing:
            raise RuntimeError(f"chunk {k} failed")
        return z

    workers(2)
    model = ParallelModel(g)
    pts = np.arange(6500.0)[:, None]
    with pytest.raises(RuntimeError, match=rf"^chunk {expected} failed$"):
        model.evaluate_many(pts)
    assert model.call_count == len(pts)


def test_parallel_batch_with_a_nan_chunk(workers):
    # one pool chunk returns NaN at rows 3,500-3,599: the batch names the first, and +-inf stays legal
    workers(2)
    model = ParallelModel(lambda z: np.where((z >= 3500.0) & (z < 3600.0), np.nan, np.where(z < 10.0, -np.inf, z)))
    pts = np.arange(6500.0)[:, None]
    with pytest.raises(ModelEvaluationError, match="row 3500") as info:
        model.evaluate_many(pts)
    assert info.value.point.tolist() == [3500.0]
    assert model.call_count == len(pts)
    assert np.isneginf(model.evaluate_many(pts[:3500])[:10]).all()


@pytest.mark.parametrize("n_workers", [1, 2])
def test_wrong_shaped_chunk_is_an_error(workers, n_workers):
    # a scalar or a one-value array used to be broadcast over the chunk; the first wrong
    # chunk is named, here the second of three EVAL_CHUNK-row chunks, a pool chunk on two threads
    class WholeChunks(CallableModel):
        parallel_chunk = EVAL_CHUNK

    workers(n_workers)
    pts = np.arange(3.0 * EVAL_CHUNK)[:, None]
    for wrong in (lambda z: -1.0, lambda z: np.array([-1.0]), lambda z: z[:-1], lambda z: z[:, None]):
        model = WholeChunks(lambda z, wrong=wrong: wrong(z) if z[0] == EVAL_CHUNK else z)
        shape = np.shape(wrong(np.zeros(EVAL_CHUNK)))
        message = f"shape {shape} for the {EVAL_CHUNK} points from row {EVAL_CHUNK}, expected ({EVAL_CHUNK},)"
        with pytest.raises(ModelEvaluationError, match=re.escape(message)) as info:
            model.evaluate_many(pts)
        assert info.value.point.tolist() == [EVAL_CHUNK]
    assert (surrogate._pool is None) is (n_workers == 1)


@pytest.mark.parametrize("n_workers", [1, 2])
def test_integration_error_names_the_row_of_the_batch(workers, n_workers):
    # at dt = 2, xi = -0.5 overflows and xi = 0 does not; row 20,000 is row 3,616 of its
    # chunk, the third of 8,192 rows on one thread and the second of 16,384 rows on two
    workers(n_workers)
    xi = np.zeros((65_536, 1))
    xi[20_000] = -0.5
    with pytest.raises(IntegrationError, match=r"t = 11\.25 in column 20000$") as info, \
            np.errstate(over="ignore", invalid="ignore"):
        KoModel(dt=2.0).evaluate_many(xi)
    assert info.value.t == 11.25 and info.value.column == 20_000
    assert info.value.__cause__.column == 3616


def test_parallel_chunks_keep_the_callers_errstate(workers):
    workers(2)
    model = ParallelModel(lambda z: np.exp(1000.0 * z))
    pts = np.ones((4000, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            values = model.evaluate_many(pts)
        assert np.isinf(values).all()
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            model.evaluate_many(pts)


def test_one_worker_starts_no_thread(workers):
    xi = np.random.default_rng(12).uniform(-1.0, 1.0, size=(20_000, 1))
    workers(2)
    parallel = KoModel(dt=0.1).evaluate_many(xi)
    surrogate._pool.shutdown()
    workers(1)
    threads = threading.active_count()
    got = KoModel(dt=0.1).evaluate_many(xi)
    assert surrogate._pool is None and threading.active_count() == threads
    assert got.tobytes() == parallel.tobytes()


def test_pool_is_started_by_the_first_parallel_batch():
    # importing the package and a run whose model keeps the sequential walk start no thread
    script = (
        "import threading\n"
        "before = threading.active_count()\n"
        "from mehybrid import cli, surrogate\n"
        "cli.run(cli.RunConfig.from_dict({'problem': 'burgers', 'method': 'mc', 'seed': 3, 'm': 20000}))\n"
        "assert surrogate._pool is None, 'pool started'\n"
        "assert threading.active_count() == before, threading.enumerate()\n"
    )
    src = str(Path(surrogate.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
