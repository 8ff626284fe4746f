import hashlib
import math

import numpy as np
import pytest

from mehybrid.polybasis import (
    _recurrence,
    gauss_legendre,
    legendre_rows,
    multi_index_set,
    basis_matrix,
    triple_products,
)


def test_legendre_low_degrees():
    x = np.array([0.3, 0.7, 0.5])
    assert _recurrence(0, x)[0].tolist() == [1.0, 1.0, 1.0]
    assert _recurrence(1, x)[1].tolist() == [0.3, 0.7, 0.5]
    # hand recurrence: P2(x) = (3x^2 - 1)/2
    assert _recurrence(2, x)[2][2] == pytest.approx(-0.125, abs=1e-15)


def test_legendre_matches_numpy():
    x = np.linspace(-1, 1, 17)
    for n in range(9):
        expected = np.polynomial.legendre.Legendre.basis(n)(x)
        assert np.allclose(_recurrence(n, x)[n], expected, atol=1e-13)


def test_legendre_endpoint_recurrence():
    for n in range(21):
        ends = _recurrence(n, np.array([1.0, -1.0]))[n]
        assert ends[0] == pytest.approx(1.0, abs=1e-12)
        assert ends[1] == pytest.approx((-1.0) ** n, abs=1e-12)


def test_legendre_rejects_negative_degree():
    with pytest.raises(ValueError):
        _recurrence(-1, 0.0)


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
    # graded by total degree, ascending tuple order within a degree
    assert multi_index_set(2, 2) == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))
    full = multi_index_set(2, 4)
    degrees = [sum(i) for i in full]
    assert degrees == sorted(degrees)
    # reduced-order sets are prefixes of higher-order ones
    assert full[: len(multi_index_set(2, 2))] == multi_index_set(2, 2)


def test_gauss_legendre_small_rules():
    nodes, weights = gauss_legendre(1)
    assert np.allclose(nodes, [0.0]) and np.allclose(weights, [1.0])
    nodes, weights = gauss_legendre(2)
    assert np.allclose(nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
    assert np.allclose(weights, [0.5, 0.5], atol=1e-15)


def test_gauss_legendre_quartic_moment():
    nodes, weights = gauss_legendre(3)
    assert np.sum(weights * nodes**4) == pytest.approx(0.2, abs=1e-15)


@pytest.mark.parametrize("q", [1, 2, 3, 5, 8, 13, 21, 64])
def test_gauss_legendre_matches_numpy(q):
    x, w = np.polynomial.legendre.leggauss(q)
    nodes, weights = gauss_legendre(q)
    assert np.allclose(nodes, x, atol=1e-14)
    assert np.allclose(weights, w / 2.0, atol=1e-14)
    assert weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all(np.abs(nodes) < 1.0)
    assert np.all(np.diff(nodes) > 0.0) and np.all(weights > 0.0)


def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return digest.hexdigest()


# sha256 of the little-endian float64 bytes of each rule's nodes then weights, and of each
# triple-product tensor, as computed by the Newton iteration on the three-term recurrence
RULE_SHA256 = {
    1: "fc62429c3e69001d65972cdeb94fb9aa18a7d9c16bc449e1e474e7e41bb95a7d",
    2: "b6ba62d2c944b47ad351b76bc9cffaf1c1cd990522aaa83a9e98691b6b9e8238",
    3: "8b0fd1c7c99b404d980afab0da0d0ac22a8227ca322fb5c0a19fb7fb96b01009",
    4: "650a68920f0018c0068038b44098bd9e37a215c4f846558248e715823dc672cc",
    5: "5f6cb0e8e3e749927a5c02ba2ec4c0f818fab6ac5ade9eeeb973acd644761756",
    6: "897f420e3c07eff07bba1f543f60e0f5aef0a54c6b2c5300e8dc41bcf3f9e4f4",
    7: "7ad82f74115f60e3484ad6a85be9d0015688960057ce75594cca21071af6b7e2",
    8: "353c7884e4abd622ce397c9ab8b5f60136eaa2a9a06735cb93dd91d54a1f007f",
    9: "bba6832be6c8531f24ad2b0eeb267993ae742b23c523c836fb60f65c229aabe6",
    10: "7fca6ebd0f235721926034aa091474aa48c8d270839fc11763c294f8e5b209d2",
    11: "a53573945a425cc394049993cccb85cdfd5f4a3c79289799290c737d60deb29a",
    12: "58dc6c14fb34121715013fa9ff9a053faf02f90d1235d492fe145c7dd4ce0eb5",
    13: "cfd0ff552a925df1f8a1e8fa7092d24292b6052a0efcf7fc298c8b2f0b706f00",
    14: "6426707d5ab73eb4ff79387c7ecd1de8504fd0d907307b3c99d26849a5896700",
    15: "657a351830b9d4a8e8cc5931950968f266643d591857bda3cfae22c672178968",
    16: "1299f2c188844fa1f4b0af557ec807399ee6488a6923aee45332f9a8b41274a3",
    17: "d09fb4e0aebff18c852b32ca7f1656a042fbf5436afb6efee77d91812e31d3db",
    18: "49dce07b7c8ac71291f677349f169af498fcd0d670d744c02c767f6b932d26b2",
    19: "d0fcb9855077afb0da91b404c5ef405feb10dc46f04d8dcf6a48540914aee660",
    20: "3a37b483097e395f41ba3fd020329c9103024d92a2acff43ffcbaaac10c26d31",
    21: "9cc37fe7e74baef01314c6d7b6b43784a8ffdffdc6af0edf9ff204f15133fe0e",
    22: "297b50e50d06cafbddcfce23db1afac486a8d3c875a13a9ccd9bc681126a386e",
    23: "fff287c1fc9e3f7835cbfbe9e28901d650e1cfda8791da166142e9d8a21f11a4",
    64: "4ec7cf415720418dc8a3ed234bf70c9b8d7876662fca419309cfb3d43abb70b1",
    128: "cbe3922fd1d7a26a4d492b06aa4a514cd46f73a6577e6829c9e5aee6a07982a4",
}
TRIPLE_SHA256 = {
    (1, 0): "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    (1, 1): "75dc056cb09161fed04e764470570a7b826b5c4a664a1e22c6f73153c522f111",
    (1, 2): "913b63cfc6a46a19aef1627766a59851e5a13efe36cd4932a67bafc77d246087",
    (1, 3): "8be7d0cb03d5040ef10dd9365d8a9fa538216777f845dd1100f8a61a5d70f6e8",
    (1, 4): "916fe7473e208c515f23cb293d3a67797f222965c67b6677c9cd6899b402851c",
    (1, 5): "9fdc392d3d45eaef79cf4714ab5cc166e3ac7cd06c69c8a0d85248d2fbdfc414",
    (1, 6): "d6352fefe6c35eb4250741b9eb454e08f8b693fc8ad2d52593d55690772102fc",
    (1, 7): "323bcc09a285732d8f3d90fe0265120d99dc1bde4f5c54e3abc13b53c71978bb",
    (2, 0): "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    (2, 1): "8b1f124af45fbf18efd434f27aaf02678e2007914c7f1a92e659c8d7f5b26798",
    (2, 2): "f2a7d582f30ca4bcaca1f664e24edd65d82888f03fb3b8e8c6df413cf5ec8fdd",
    (2, 3): "231fa55ad71b385d01bcf526e746343848c07beddda1545dd3e03f01cd1ca03b",
    (2, 4): "fdec1d4fd8fcd92e7223f116d3bd9bd5857b276d9501f14f08fff436a50ba3be",
    (2, 5): "7509abb5f0939afda344b26e87afa274264202a00e90266f78a26e91b808c6b7",
    (2, 6): "5bcd24cb2558e84ad935ac75232b0d705f20faafb8fc2618cef8440da4f40e28",
    (2, 7): "d2062c86d852d4b0f9647cd3947748f30c39c9214ee224f28a91483db97585b8",
}


def test_rules_and_triple_products_are_pinned_bit_for_bit():
    got = {q: _sha256(*gauss_legendre(q)) for q in RULE_SHA256}
    assert got == RULE_SHA256
    got = {key: _sha256(triple_products(*key)) for key in TRIPLE_SHA256}
    assert got == TRIPLE_SHA256
    # the rule is one cached pair of read-only arrays
    for q in (1, 7, 64):
        rule = gauss_legendre(q)
        assert gauss_legendre(q) is rule
        assert all(a is b for a, b in zip(gauss_legendre(q), rule))
        nodes, weights = rule
        assert nodes.shape == weights.shape == (q,) and nodes.dtype == weights.dtype == np.float64
        for a in rule:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0


@pytest.mark.parametrize("q", [2, 4, 7])
def test_quadrature_exactness(q):
    # any polynomial of degree <= 2q-1 integrates exactly; moments of x^k
    nodes, weights = gauss_legendre(q)
    for k in range(2 * q):
        exact = 1.0 / (k + 1) if k % 2 == 0 else 0.0
        got = float(np.sum(weights * nodes**k))
        if exact == 0.0:
            assert abs(got) < 1e-15
        else:
            assert abs(got - exact) / exact < 1e-13


def test_orthonormality_gram():
    for d, n in ((1, 8), (2, 8), (3, 8)):
        q = n + 2
        nodes, weights = gauss_legendre(q)
        if d == 1:
            pts = nodes[:, None]
            w = weights
        else:
            grids = np.meshgrid(*([nodes] * d), indexing="ij")
            pts = np.stack([g.ravel() for g in grids], axis=1)
            w = weights
            for _ in range(d - 1):
                w = np.multiply.outer(w, weights)
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
        assert np.allclose(rows[n], math.sqrt(2 * n + 1) * _recurrence(n, x)[n], atol=1e-14)


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
