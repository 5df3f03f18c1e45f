import numpy as np
import pytest

from pego import autograd as ag
from pego.errors import DegenerateInputError, NumericError, ShapeError
from pego.numerics import explained_variance_ratio, make_rng, numerical_rank, svd


# The package's matrix product, entrywise L1 norm and row softmax are the
# tape ops; these read their forward values. The row softmax is attention's
# probabilities with identity keys and no scaling.
def matmul(a, b):
    return ag.matmul(ag.Tensor(a), ag.Tensor(b)).data


def l1_entrywise(m):
    """The preserve penalty of one module whose B is ``m`` padded square
    with zeros, on identity W and A: its argument W^T B A is that B."""
    k = max(m.shape)
    square = np.zeros((k, k))
    square[: m.shape[0], : m.shape[1]] = m
    eye = ag.Tensor(np.eye(k))
    return float(ag.preserve_l1([eye], [ag.Tensor(np.eye(k)[None])], [ag.Tensor(square[None])]).data)


def softmax_rows(m):
    return ag.attention_probs(ag.Tensor(m), ag.Tensor(np.eye(m.shape[-1])), 1.0).data


def test_matmul_identity():
    m = np.array([[2.0, -1.0], [0.5, 3.0]])
    assert np.array_equal(matmul(np.eye(2), m), m)


def test_matmul_worked_example():
    out = matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0], [6.0]]))
    assert np.array_equal(out, np.array([[17.0], [39.0]]))


def test_matmul_outer_product():
    b = np.array([[1.0], [0.0]])
    a = np.array([[0.0, 1.0]])
    assert np.array_equal(matmul(b, a), np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_matmul_associativity():
    rng = make_rng(7)
    for _ in range(20):
        a = rng.normal(size=(6, 5))
        b = rng.normal(size=(5, 8))
        c = rng.normal(size=(8, 3))
        left = matmul(matmul(a, b), c)
        right = matmul(a, matmul(b, c))
        rel = np.abs(left - right).max() / max(np.abs(left).max(), 1e-300)
        assert rel < 1e-10


def test_l1_entrywise():
    assert l1_entrywise(np.zeros((3, 3))) == 0.0
    assert l1_entrywise(np.array([[0.0, 1.0], [0.0, 0.0]])) == 1.0
    assert l1_entrywise(np.array([[-2.0, 3.0], [1.0, -4.0]])) == 10.0


def test_l1_absolute_homogeneity():
    rng = make_rng(8)
    m = rng.normal(size=(5, 4))
    for c in (-3.0, 0.0, 0.25):
        assert l1_entrywise(c * m) == pytest.approx(abs(c) * l1_entrywise(m), rel=1e-15)


def test_svd_diagonal():
    res = svd(np.diag([3.0, 1.0]))
    assert np.allclose(res.s, [3.0, 1.0])
    assert np.allclose(np.abs(res.u), np.eye(2), atol=1e-12)
    assert np.allclose(np.abs(res.v), np.eye(2), atol=1e-12)


def test_svd_rank_one_analytic():
    # sigma of an outer product u v^T is |u| |v|
    u = np.array([2.0, 0.0, 0.0])
    v = np.array([0.0, 3.0])
    res = svd(np.outer(u, v))
    assert res.s[0] == pytest.approx(6.0, abs=1e-12)
    assert res.s[1] == pytest.approx(0.0, abs=1e-12)


def test_svd_reconstruction_random():
    rng = make_rng(9)
    m = rng.normal(size=(5, 4))
    res = svd(m)
    recon = res.u @ np.diag(res.s) @ res.v.T
    assert np.linalg.norm(recon - m) / np.linalg.norm(m) < 1e-8


def test_svd_invariants_hold_on_random_matrices():
    rng = make_rng(10)
    for _ in range(100):
        rows = int(rng.integers(1, 33))
        cols = int(rng.integers(1, 33))
        m = rng.normal(size=(rows, cols))
        res = svd(m)
        assert np.all(np.diff(res.s) <= 1e-12)
        assert np.all(res.s >= 0)
        p = res.s.size
        assert np.allclose(np.linalg.norm(res.u, axis=0), np.ones(p), atol=1e-8)
        assert np.allclose(np.linalg.norm(res.v, axis=0), np.ones(p), atol=1e-8)
        recon = res.u @ np.diag(res.s) @ res.v.T
        denom = max(np.linalg.norm(m), 1e-300)
        assert np.linalg.norm(recon - m) / denom < 1e-8


def test_svd_sign_convention_is_deterministic():
    # The vectorized flip is bitwise the column-by-column reference.
    rng = make_rng(11)
    for shape in [(6, 6), (1600, 32), (5, 3), (3, 5), (1, 4), (4, 1)]:
        m = rng.normal(size=shape)
        first = svd(m)
        second = svd(m.copy())
        assert np.array_equal(first.u, second.u)
        u, s, vh = np.linalg.svd(m, full_matrices=False)
        v = vh.T.copy()
        for j in range(first.u.shape[1]):
            i = int(np.argmax(np.abs(first.u[:, j])))
            assert first.u[i, j] > 0
            if u[i, j] < 0:
                u[:, j], v[:, j] = -u[:, j], -v[:, j]
        assert np.array_equal(first.u, u) and np.array_equal(first.s, s) and np.array_equal(first.v, v)


def test_svd_rejects_non_finite():
    with pytest.raises(NumericError):
        svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_explained_variance_ratio_worked_example():
    res = svd(np.diag([3.0, 1.0]))
    assert explained_variance_ratio(res, 2) == pytest.approx([0.9, 0.1], abs=1e-12)


def test_explained_variance_ratio_rank_one():
    res = svd(np.outer([1.0, 2.0], [3.0, 0.5]))
    assert explained_variance_ratio(res, 1) == pytest.approx([1.0], abs=1e-12)


def test_explained_variance_ratio_sums_to_one():
    rng = make_rng(12)
    res = svd(rng.normal(size=(7, 5)))
    assert sum(explained_variance_ratio(res, 5)) == pytest.approx(1.0, abs=1e-12)


def test_explained_variance_ratio_errors():
    with pytest.raises(DegenerateInputError):
        explained_variance_ratio(svd(np.zeros((3, 3))), 1)
    with pytest.raises(ShapeError):
        explained_variance_ratio(svd(np.eye(2)), 3)


def test_numerical_rank_matches_construction():
    rng = make_rng(13)
    for q in (1, 2, 4):
        m = rng.normal(size=(8, q)) @ rng.normal(size=(q, 6))
        res = svd(m)
        assert numerical_rank(res.s, 1e-10) == q
        evr = explained_variance_ratio(res, res.s.size)
        assert sum(1 for e in evr if e > 1e-10) == q


def test_softmax_rows_uniform():
    out = softmax_rows(np.array([[0.0, 0.0, 0.0]]))
    assert np.allclose(out, np.full((1, 3), 1.0 / 3.0), atol=1e-15)


def test_softmax_rows_no_overflow():
    out = softmax_rows(np.array([[1000.0, 0.0]]))
    assert np.all(np.isfinite(out))
    assert out[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert out[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_softmax_rows_worked_example():
    out = softmax_rows(np.array([[np.log(2.0), 0.0]]))
    assert out[0] == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-12)


def test_softmax_rows_sum_to_one():
    rng = make_rng(14)
    out = softmax_rows(rng.normal(size=(10, 6)) * 10)
    assert np.allclose(out.sum(axis=1), np.ones(10), atol=1e-12)


def test_rng_streams_are_deterministic_and_disjoint():
    a = make_rng(42).random(5)
    b = make_rng(42).random(5)
    c = make_rng(42, 1).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
