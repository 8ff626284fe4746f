"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
summary lines; every tolerance is fixed here, nothing is calibrated at
runtime.
"""
import time

import numpy as np
import pytest

from mehybrid import invariants
from mehybrid.estimator import (
    HybridConfig,
    iterative_hybrid,
    mc_estimate,
    mc_stddev,
    me_gha,
    me_lha,
    relative_error,
)
from mehybrid.randomspace import sample_uniform
from mehybrid.refine import (
    RefinementConfig,
    adapt_dynamic,
    adapt_static,
    limit_state_surrogate,
)
from mehybrid.problems import (
    BurgersModel,
    KoModel,
    OdeModel,
    StepModel,
    _tanh_system,
    burgers_transition_z,
    ko_galerkin_system,
    ode_galerkin_system,
    step_global_gpc,
    step_me_exact,
)

SEED = 42
M_FULL = 1_000_000


@pytest.fixture(scope="module")
def samples_1m():
    return sample_uniform(M_FULL, 1, SEED)


def test_criterion_1_step_global_surrogates(samples_1m):
    t0 = time.perf_counter()
    published = {0: 0.833187, 2: 0.773777, 7: 0.756490}
    published_calls = 502_000
    delta_m = 1000
    mc = mc_estimate(StepModel(), samples_1m)
    for p, ref in published.items():
        surrogate = step_global_gpc(p)
        direct, _ = iterative_hybrid(StepModel(), surrogate, samples_1m, HybridConfig(delta_m=1, gamma=0.0))
        band = 3.0 * mc_stddev(ref, M_FULL)
        assert abs(direct.p_f - ref) <= band, f"p={p}: direct {direct.p_f} vs {ref} (band {band})"
        est, _ = iterative_hybrid(StepModel(), surrogate, samples_1m, HybridConfig(delta_m=delta_m))
        assert est.p_f == mc.p_f, f"p={p}: hybrid {est.p_f} != exact MC {mc.p_f}"
        # the surrogate has no exact zeros here, so the walk's start is the zero band
        assert est.surrogate_estimate == direct.p_f, f"p={p}: {est.surrogate_estimate} != {direct.p_f}"
        assert abs(est.n_exact - published_calls) <= 2 * delta_m, f"p={p}: n_exact {est.n_exact}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"\nPASS criterion 1: step global surrogates, n_exact within 502000 +/- 2000 ({elapsed:.1f}s)")


def test_criterion_2_step_exact_surrogate(samples_1m):
    t0 = time.perf_counter()
    est, trace = iterative_hybrid(StepModel(), step_me_exact(), samples_1m, HybridConfig(delta_m=1000))
    iterations = [r for r in trace.records if r.iteration > 0]
    assert len(iterations) == 1, "must converge after one iteration"
    assert est.n_exact == 1000
    assert abs(est.p_f - 0.5) <= 3.0 * mc_stddev(0.5, M_FULL)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nPASS criterion 2: exact two-element surrogate, 1 iteration, n_exact=1000 ({elapsed:.1f}s)")


def test_criterion_3_linear_ode(samples_1m):
    t0 = time.perf_counter()
    model = OdeModel()
    analytic = model.analytic_p_f()
    band = 3.0 * mc_stddev(analytic, M_FULL)
    mc = mc_estimate(OdeModel(), samples_1m)
    assert abs(mc.p_f - analytic) <= band, f"MC {mc.p_f} vs analytic {analytic}"
    assert abs(mc.p_f - 0.003541) <= band, "published reference must lie in the same band"

    for p in (3, 5, 7):
        system = ode_galerkin_system(p, 1.0, -2.0, 1.0)
        rcfg = RefinementConfig(theta1=0.05, N=p, max_elements=64)
        dec, coeffs, _ = adapt_dynamic(system, rcfg, T=1.0, dt=0.01)
        surrogate = limit_state_surrogate(dec, coeffs, rcfg.N, var=0, offset=-0.5)
        hycfg = HybridConfig(delta_m=100)
        gha, _ = me_gha(OdeModel(), surrogate, samples_1m, hycfg)
        lha, _ = me_lha(OdeModel(), surrogate, samples_1m, hycfg)
        assert gha.p_f == mc.p_f, f"p={p}: ME-GHA {gha.p_f!r} != MC {mc.p_f!r}"
        assert lha.p_f == mc.p_f, f"p={p}: ME-LHA {lha.p_f!r} != MC {mc.p_f!r}"
        assert gha.n_exact < 0.05 * M_FULL
        assert lha.n_exact < 0.05 * M_FULL
        assert lha.n_exact >= gha.n_exact
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"\nPASS criterion 3: linear ODE hybrid estimates bit-exact with MC, n_exact < 5% ({elapsed:.1f}s)")


def test_criterion_4_ko_system(samples_1m):
    t0 = time.perf_counter()
    ref = 0.102651
    m_mc = 200_000
    mc = mc_estimate(KoModel(), sample_uniform(m_mc, 1, SEED))
    assert abs(mc.p_f - ref) <= 3.0 * mc_stddev(ref, m_mc), f"KO MC {mc.p_f} vs {ref}"

    system = ko_galerkin_system()
    n_exact_by_tol = []
    headline_checked = False
    for theta1 in (1e-2, 1e-3, 1e-4):
        rcfg = RefinementConfig(theta1=theta1, N=5, max_elements=128)
        dec, coeffs, _ = adapt_dynamic(system, rcfg, T=15.0, dt=0.01)
        surrogate = limit_state_surrogate(dec, coeffs, rcfg.N, var=0, offset=-0.03)
        est, _ = me_gha(KoModel(), surrogate, samples_1m, HybridConfig(delta_m=100))
        n_exact_by_tol.append(est.n_exact)
        if theta1 == 1e-4:
            assert 10 <= len(dec) <= 40, f"mesh size {len(dec)}"
            assert relative_error(est.p_f, ref) < 0.01, f"relative error {relative_error(est.p_f, ref)}"
            assert est.n_exact <= 5000, f"n_exact {est.n_exact}"
            headline_checked = True
    assert headline_checked
    assert n_exact_by_tol[0] >= n_exact_by_tol[1] >= n_exact_by_tol[2], n_exact_by_tol
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    print(
        f"\nPASS criterion 4: KO MC within 3 sigma, p=5 mesh rel. error < 1% with "
        f"n_exact={n_exact_by_tol[-1]}, trend {n_exact_by_tol} ({elapsed:.1f}s)"
    )


def test_criterion_5_burgers(samples_1m):
    t0 = time.perf_counter()
    # 1,000 (delta, nu) pairs, drawn in the same stream order as alternating scalar draws
    delta, nu = np.random.default_rng(13).uniform([0.0, 0.02], [0.1, 0.1], size=(1000, 2)).T
    z, a = burgers_transition_z(delta, nu, return_amplitude=True)
    assert np.max(np.hypot(*_tanh_system(a, z, delta, nu))) < 1e-12
    assert abs(burgers_transition_z(0.0, 0.05)) < 1e-14

    grid = np.arange(0.0, 0.1 + 1e-12, 1e-4)
    zs = burgers_transition_z(grid, 0.05)
    assert np.all(np.diff(zs) > 0.0)

    counts = []
    surrogates = {}
    for p in (2, 3, 4, 5):
        model = BurgersModel()
        surr = adapt_static(model, RefinementConfig(theta1=0.01, N=p, max_elements=64), q=21)
        counts.append(len(surr))
        surrogates[p] = surr
    assert counts == sorted(counts, reverse=True), counts
    assert counts[0] > counts[-1] > 1, counts

    m_b = 200_000
    samples = sample_uniform(m_b, 1, SEED)
    mc = mc_estimate(BurgersModel(), samples)
    for p in (2, 5):
        gha, _ = me_gha(BurgersModel(), surrogates[p], samples, HybridConfig(delta_m=100))
        lha, _ = me_lha(BurgersModel(), surrogates[p], samples, HybridConfig(delta_m=100))
        assert gha.p_f == mc.p_f
        assert lha.p_f == mc.p_f
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"\nPASS criterion 5: Burgers properties and hybrid equality, elements {counts} ({elapsed:.1f}s)")


def test_criterion_6_invariant_suites():
    t0 = time.perf_counter()
    # every bound the suite applies, stated here so that loosening one fails this test
    assert invariants.TOLERANCES == {
        "orthonormality": 1e-12,
        "quadrature-exactness": 1e-13,
        "partition-of-unity": 1e-12,
        "linear-closure": 1e-10,
        "galerkin-energy": 1e-13,
        "ko-conservation": 1e-8,
        "ko-symmetry": 1e-10,
        "ko-reference": 1e-11,
        "burgers-residuals": 1e-12,
        "rk4-order": (12.0, 20.0),
        "gamma-bound": 0.05,
    }
    names = [name for name, _ in invariants.CHECKS]
    assert names == ["orthonormality", "quadrature-exactness", "partition-of-unity", "hybrid-exhaustion",
                     "linear-closure", "galerkin-energy", "ko-invariants", "ko-reference", "burgers-residuals",
                     "rk4-order", "gamma-bound"]
    for name, check in invariants.CHECKS:
        ok, detail = check()
        assert ok, f"{name}: {detail}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"\nPASS criterion 6: invariant suites at stated tolerances ({elapsed:.1f}s)")
