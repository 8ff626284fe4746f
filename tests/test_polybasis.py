import math

import numpy as np
import pytest

from mehybrid.polybasis import (
    gauss_legendre,
    legendre,
    legendre_rows,
    multi_index_set,
    basis_matrix,
    triple_products,
)


def test_legendre_low_degrees():
    x = np.array([0.3, 0.7, 0.5])
    assert legendre(0, x).tolist() == [1.0, 1.0, 1.0]
    assert legendre(1, x).tolist() == [0.3, 0.7, 0.5]
    # hand recurrence: P2(x) = (3x^2 - 1)/2
    assert legendre(2, x)[2] == pytest.approx(-0.125, abs=1e-15)


def test_legendre_matches_numpy():
    x = np.linspace(-1, 1, 17)
    for n in range(9):
        expected = np.polynomial.legendre.Legendre.basis(n)(x)
        assert np.allclose(legendre(n, x), expected, atol=1e-13)


def test_legendre_endpoint_recurrence():
    for n in range(21):
        ends = legendre(n, np.array([1.0, -1.0]))
        assert ends[0] == pytest.approx(1.0, abs=1e-12)
        assert ends[1] == pytest.approx((-1.0) ** n, abs=1e-12)


def test_legendre_rejects_negative_degree():
    with pytest.raises(ValueError):
        legendre(-1, 0.0)


def test_orthonormal_values():
    assert legendre_rows(1, [-0.9])[0, 0] == 1.0
    assert legendre_rows(1, [1.0])[1, 0] == pytest.approx(math.sqrt(3.0), abs=1e-15)


def test_orthonormal_unit_norm_by_quadrature():
    # independent oracle: numpy's Gauss rule against the uniform density
    x, w = np.polynomial.legendre.leggauss(8)
    w = w / 2.0
    val = np.sum(w * legendre_rows(2, x)[2] ** 2)
    assert val == pytest.approx(1.0, abs=1e-14)


def test_tensor_basis_eval():
    def phi(i, x):
        return basis_matrix([i], [x])[0, 0]

    assert phi((0, 0), (0.2, -0.4)) == 1.0
    assert phi((1, 0), (0.5, 0.9)) == pytest.approx(math.sqrt(3) * 0.5, abs=1e-15)
    # separability: product of two 1-D degree-1 values
    assert phi((1, 1), (0.5, 0.5)) == pytest.approx(0.75, abs=1e-15)


def test_tensor_basis_dimension_mismatch():
    with pytest.raises(ValueError):
        basis_matrix([(1, 0)], [[0.5]])


@pytest.mark.parametrize(
    "d,n,count",
    [(1, 3, 4), (2, 2, 6), (3, 0, 1), (2, 5, 21), (3, 4, 35)],
)
def test_multi_index_set_count(d, n, count):
    assert len(multi_index_set(d, n)) == count
    assert len(multi_index_set(d, n)) == math.comb(n + d, d)


def test_multi_index_set_order_and_prefix():
    idx = multi_index_set(3, 0)
    assert idx == ((0, 0, 0),)
    full = multi_index_set(2, 4)
    degrees = [sum(i) for i in full]
    assert degrees == sorted(degrees)
    # reduced-order sets are prefixes of higher-order ones
    assert full[: len(multi_index_set(2, 2))] == multi_index_set(2, 2)


def test_gauss_legendre_small_rules():
    r1 = gauss_legendre(1)
    assert np.allclose(r1.nodes, [0.0]) and np.allclose(r1.weights, [1.0])
    r2 = gauss_legendre(2)
    assert np.allclose(np.sort(r2.nodes), [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
    assert np.allclose(r2.weights, [0.5, 0.5], atol=1e-15)


def test_gauss_legendre_quartic_moment():
    r = gauss_legendre(3)
    assert np.sum(r.weights * r.nodes**4) == pytest.approx(0.2, abs=1e-15)


@pytest.mark.parametrize("q", [1, 2, 3, 5, 8, 13, 21, 64])
def test_gauss_legendre_matches_numpy(q):
    x, w = np.polynomial.legendre.leggauss(q)
    r = gauss_legendre(q)
    assert np.allclose(r.nodes, x, atol=1e-14)
    assert np.allclose(r.weights, w / 2.0, atol=1e-14)
    assert r.weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all(np.abs(r.nodes) < 1.0)


@pytest.mark.parametrize("q", [2, 4, 7])
def test_quadrature_exactness(q):
    # any polynomial of degree <= 2q-1 integrates exactly; moments of x^k
    r = gauss_legendre(q)
    for k in range(2 * q):
        exact = 1.0 / (k + 1) if k % 2 == 0 else 0.0
        got = float(np.sum(r.weights * r.nodes**k))
        if exact == 0.0:
            assert abs(got) < 1e-15
        else:
            assert abs(got - exact) / exact < 1e-13


def test_orthonormality_gram():
    for d, n in ((1, 8), (2, 8), (3, 8)):
        q = n + 2
        rule = gauss_legendre(q)
        if d == 1:
            pts = rule.nodes[:, None]
            w = rule.weights
        else:
            grids = np.meshgrid(*([rule.nodes] * d), indexing="ij")
            pts = np.stack([g.ravel() for g in grids], axis=1)
            w = rule.weights
            for _ in range(d - 1):
                w = np.multiply.outer(w, rule.weights)
            w = w.ravel()
        phi = basis_matrix(multi_index_set(d, n), pts)
        gram = phi.T @ (w[:, None] * phi)
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-12


def test_triple_products_zero_index_is_identity():
    dense = triple_products(2, 3)
    assert multi_index_set(2, 3)[0] == (0, 0)
    n = len(multi_index_set(2, 3))
    assert dense.shape == (n, n, n) and not dense.flags.writeable
    for j in range(n):
        for k in range(n):
            expected = 1.0 if j == k else 0.0
            assert dense[0, j, k] == pytest.approx(expected, abs=1e-13)


def test_triple_products_values_1d():
    dense = triple_products(1, 3)
    # analytic moments: E[x^2] = 1/3, E[x^4] = 1/5 give E[phi1 phi1 phi2] = 2/sqrt(5)
    # in one dimension the graded-lex position of an index is its degree
    assert dense[1, 1, 2] == pytest.approx(2.0 / math.sqrt(5.0), abs=1e-13)
    assert dense[1, 1, 1] == pytest.approx(0.0, abs=1e-13)


def test_triple_products_permutation_symmetry():
    for d, n in ((1, 6), (2, 4)):
        dense = triple_products(d, n)
        assert np.max(np.abs(dense - dense.transpose(1, 0, 2))) < 1e-12
        assert np.max(np.abs(dense - dense.transpose(2, 1, 0))) < 1e-12
        assert np.max(np.abs(dense - dense.transpose(0, 2, 1))) < 1e-12


def test_triple_products_against_quadrature_oracle():
    # brute-force oracle: dense quadrature of the triple integrand
    n = 4
    x, w = np.polynomial.legendre.leggauss(3 * n + 2)
    w = w / 2.0
    rows = legendre_rows(n, x)
    oracle = np.einsum("aq,bq,cq,q->abc", rows, rows, rows, w)
    dense = triple_products(1, n)
    assert np.max(np.abs(dense - oracle)) < 1e-12


def test_legendre_rows_consistency():
    x = np.linspace(-1, 1, 11)
    rows = legendre_rows(5, x)
    for n in range(6):
        assert np.allclose(rows[n], math.sqrt(2 * n + 1) * legendre(n, x), atol=1e-14)


def test_legendre_rows_is_the_transposed_table():
    x = np.concatenate([[-1.0, 1.0, 0.0], np.random.default_rng(4).uniform(-1.0, 1.0, 37)])
    for n in range(11):
        rows = legendre_rows(n, x)
        assert rows.shape == (n + 1, x.size)
        assert rows.flags["C_CONTIGUOUS"]
        table = basis_matrix(multi_index_set(1, n), x[:, None])
        assert table.flags["C_CONTIGUOUS"]
        assert table.tobytes() == np.ascontiguousarray(rows.T).tobytes()


def test_legendre_rows_rejects_negative_degree():
    with pytest.raises(ValueError):
        legendre_rows(-1, np.zeros(3))
