import ctypes
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotmerge import cosine, orthonormal_basis, principal_angles, thin_svd, truncate_rank
from pivotmerge import linalg
from pivotmerge.linalg import _basis_angles, sigmoid


def random_matrix(seed, m, n, rank=None):
    gen = np.random.default_rng(seed)
    if rank is None:
        return gen.standard_normal((m, n))
    return gen.standard_normal((m, rank)) @ gen.standard_normal((rank, n))


def assert_valid_factors(f, mat):
    mat = np.asarray(mat, dtype=np.float64)
    k = min(mat.shape)
    assert f.u.shape == (mat.shape[0], k)
    assert f.s.shape == (k,)
    assert f.vt.shape == (k, mat.shape[1])
    assert np.all(np.diff(f.s) <= 0) and np.all(f.s >= 0)
    np.testing.assert_allclose(f.u.T @ f.u, np.eye(k), atol=1e-10)
    np.testing.assert_allclose(f.vt @ f.vt.T, np.eye(k), atol=1e-10)
    denom = max(np.linalg.norm(mat), 1e-30)
    assert np.linalg.norm((f.u * f.s) @ f.vt - mat) / denom <= 1e-10


def test_svd_identity():
    f = thin_svd(np.eye(3))
    np.testing.assert_allclose(f.s, [1.0, 1.0, 1.0])


def test_svd_diagonal():
    f = thin_svd(np.diag([3.0, 2.0]))
    np.testing.assert_allclose(f.s, [3.0, 2.0])


def test_svd_random_5x7_reconstruction():
    m = random_matrix(0, 5, 7)
    assert_valid_factors(thin_svd(m), m)


@pytest.mark.parametrize("seed,shape,rank", [
    (1, (6, 4), None),
    (2, (4, 6), None),
    (3, (8, 8), 3),
    (4, (3, 9), 2),
    (5, (9, 3), 1),
])
def test_svd_shapes_and_rank_deficiency(seed, shape, rank):
    m = random_matrix(seed, *shape, rank=rank)
    assert_valid_factors(thin_svd(m), m)


def test_svd_sign_canonicalization_is_stable():
    m = random_matrix(6, 5, 5)
    f = thin_svd(m)
    for j in range(f.u.shape[1]):
        i = np.argmax(np.abs(f.u[:, j]))
        assert f.u[i, j] > 0
    g = thin_svd(m.copy())
    np.testing.assert_array_equal(f.u, g.u)
    np.testing.assert_array_equal(f.vt, g.vt)


def test_svd_rejects_nonfinite():
    with pytest.raises(ValueError):
        thin_svd(np.array([[np.inf, 0.0]]))


def test_truncate_full_rank_is_identity():
    m = random_matrix(7, 5, 4)
    np.testing.assert_allclose(truncate_rank(m, 4), m, atol=1e-10)
    np.testing.assert_allclose(truncate_rank(m, 99), m, atol=1e-10)


def test_truncate_diagonal():
    np.testing.assert_allclose(truncate_rank(np.diag([3.0, 2.0, 1.0]), 1),
                               np.diag([3.0, 0.0, 0.0]), atol=1e-12)


def test_truncate_eckart_young():
    m = random_matrix(8, 6, 4)
    s = np.linalg.svd(m, compute_uv=False)
    approx = truncate_rank(m, 2)
    err = np.linalg.norm(m - approx)
    np.testing.assert_allclose(err, np.sqrt(s[2] ** 2 + s[3] ** 2), rtol=1e-10)


def test_truncate_idempotent():
    m = random_matrix(9, 6, 5)
    once = truncate_rank(m, 2)
    twice = truncate_rank(once, 2)
    assert np.linalg.norm(twice - once) <= 1e-10 * max(np.linalg.norm(once), 1.0)


def test_truncate_invalid_rank():
    with pytest.raises(ValueError):
        truncate_rank(np.eye(2), 0)


def count_svd_calls(monkeypatch):
    calls = []
    real = linalg.thin_svd

    def counting(mat):
        calls.append(np.shape(mat))
        return real(mat)

    monkeypatch.setattr(linalg, "thin_svd", counting)
    return calls


def svd_truncation(mat, rank):
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    return (u[:, :rank] * s[:rank]) @ vt[:rank]


@pytest.mark.parametrize("shape", [(30, 50), (50, 30), (40, 40)], ids=["wide", "tall", "square"])
@pytest.mark.parametrize("rank", [1, 7, 29])
def test_truncate_rank_gram_route_matches_svd(monkeypatch, shape, rank):
    # Entries far from 1 are scaled by an exact power of two before the Gram
    # matrix is formed, so it neither overflows nor underflows.
    m = random_matrix(31 + rank, *shape)
    ref = svd_truncation(m, rank)
    calls = count_svd_calls(monkeypatch)
    for scale in (1.0, 1e200, 1e-200):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = truncate_rank(m * scale, rank) / scale
        assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)
    assert calls == []


def test_truncate_rank_full_rank_is_a_copy(monkeypatch):
    m = random_matrix(5, 6, 9)
    calls = count_svd_calls(monkeypatch)
    out = truncate_rank(m, 6)
    assert calls == []
    np.testing.assert_array_equal(out, m)
    assert not np.shares_memory(out, m)


@pytest.mark.parametrize("mat, rank", [
    (np.diag([3.0, 2.0, 2.0, 1.0]), 2),
    (random_matrix(8, 6, 9, rank=2), 4),
    (np.zeros((5, 7)), 2),
], ids=["tied-cut", "rank-below-r", "zero"])
def test_truncate_rank_uncertified_gap_falls_back_to_svd(monkeypatch, mat, rank):
    calls = count_svd_calls(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = truncate_rank(mat, rank)
    assert calls == [mat.shape]
    f = thin_svd(mat)
    np.testing.assert_array_equal(out, (f.u[:, :rank] * f.s[:rank]) @ f.vt[:rank])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_truncate_rank_rejects_a_non_finite_entry(bad):
    mat = random_matrix(24, 6, 5)
    mat[2, 3] = bad
    with pytest.raises(ValueError, match="matrix contains NaN or Inf"):
        truncate_rank(mat, 2)


@pytest.mark.parametrize("mat, rank, svd_calls", [
    (random_matrix(21, 9, 14), 3, 0),
    (random_matrix(22, 14, 9), 3, 0),
    (random_matrix(23, 8, 6, rank=2), 4, 1),
    (np.diag([3.0, 2.0, 2.0, 1.0]), 2, 1),
], ids=["wide-gram", "tall-gram", "svd-fallback", "tied-cut"])
def test_truncate_rank_is_the_product_of_owned_rank_factors(monkeypatch, mat, rank, svd_calls):
    calls = count_svd_calls(monkeypatch)
    left, right, energy, route = linalg._rank_factors(mat, rank)
    assert len(calls) == svd_calls
    assert route == ("svd" if svd_calls else "eig")
    assert left.shape == (mat.shape[0], rank) and right.shape == (rank, mat.shape[1])
    assert left.flags.owndata and right.flags.owndata
    want = truncate_rank(mat, rank)
    np.testing.assert_array_equal((left @ right).view(np.uint64), want.view(np.uint64))
    assert abs(energy - np.sum(want ** 2) / np.sum(mat ** 2)) <= 1e-12


def spectrum_matrix(seed, shape, evals):
    """A matrix of `shape` whose smaller Gram matrix has the eigenvalues `evals`."""
    gen = np.random.default_rng(seed)
    u, v = (np.linalg.qr(gen.standard_normal((d, len(evals))))[0] for d in shape)
    return (u * np.sqrt(evals)) @ v.T


@pytest.mark.parametrize("gap", [None, 1.5, 0.5], ids=["spread", "gap-above", "gap-below"])
@pytest.mark.parametrize("exp", [0, 450, -450])
@pytest.mark.parametrize("shape", [(40, 70), (70, 40)], ids=["wide", "tall"])
def test_subset_eigensolve_matches_the_full_one(monkeypatch, shape, exp, gap):
    # The full eigensolve is the same code with no dsyevr found. A gap is the
    # cut's lambda_r - lambda_(r+1) in units of EIG_GAP_RTOL * lambda_max; at
    # 2^+-450 the Gram matrix is formed from a scaled copy.
    rank = 6
    evals = np.linspace(1.0, 0.01, 40)
    if gap is not None:
        evals[rank:] = np.linspace(0.5, 0.01, 40 - rank) - gap * linalg.EIG_GAP_RTOL
        evals[:rank] = np.linspace(1.0, 0.5, rank)
    mat = np.ldexp(spectrum_matrix(17, shape, evals), exp)
    subset = linalg._rank_factors(mat, rank)
    monkeypatch.setattr(linalg, "_dsyevr", lambda: None)
    full = linalg._rank_factors(mat, rank)
    assert subset[3] == full[3] == ("svd" if gap == 0.5 else "eig")
    assert abs(subset[2] - full[2]) <= 1e-14
    # Davis-Kahan: each route's subspace is within about n * eps * lambda_max / gap
    # of the exact one, and the cores differ by at most that times |M|.
    delta = evals[rank - 1] - evals[rank]
    bound = 10 * min(shape) * np.finfo(float).eps * evals[0] / delta
    diff = np.linalg.norm(subset[0] @ subset[1] - full[0] @ full[1])
    assert diff <= bound * np.linalg.norm(mat)


@pytest.mark.parametrize("fault", ["info", "count"])
@pytest.mark.parametrize("shape", [(12, 20), (20, 12)])
def test_a_failed_subset_eigensolve_raises_naming_the_shape(monkeypatch, shape, fault):
    def dsyevr(*args):
        # INFO > 0, or success having found no eigenvalue (M = 0)
        if fault == "info":
            args[20]._obj.value = 1

    monkeypatch.setattr(linalg, "_dsyevr", lambda: (dsyevr, ctypes.c_int64))
    with pytest.raises(linalg.NumericalError, match=re.escape(f"on shape {shape}")):
        linalg._rank_factors(random_matrix(25, *shape), 3)


def test_cosine_examples():
    assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert cosine([1.0, 1.0], [2.0, 2.0]) == pytest.approx(1.0, abs=1e-15)
    assert cosine([3.0, 4.0], [4.0, 3.0]) == pytest.approx(0.96, abs=1e-15)


def test_cosine_zero_vector_convention():
    assert cosine([0.0, 0.0], [1.0, 2.0]) == 0.0
    assert cosine([1e-13, 0.0], [1.0, 2.0]) == 0.0


def test_cosine_length_mismatch():
    with pytest.raises(ValueError):
        cosine([1.0], [1.0, 2.0])


finite_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=6,
).filter(lambda vs: max(abs(v) for v in vs) >= 1e-6)  # stay clear of the zero-norm cutoff


@settings(max_examples=100, deadline=None)
@given(finite_vectors, st.floats(min_value=1e-3, max_value=1e3))
def test_cosine_symmetric_and_scale_invariant(values, lam):
    gen = np.random.default_rng(len(values))
    a = np.array(values)
    b = gen.standard_normal(a.size)
    assert cosine(a, b) == cosine(b, a)
    assert cosine(lam * a, b) == pytest.approx(cosine(a, b), abs=1e-12)


def test_principal_angles_identical():
    # arccos near 1 is ill-conditioned, so "zero" means ~1e-5 degrees here
    m = random_matrix(10, 6, 3)
    np.testing.assert_allclose(principal_angles(m, m), np.zeros(3), atol=1e-4)


def test_principal_angles_orthogonal():
    e1 = np.array([[1.0], [0.0], [0.0]])
    e2 = np.array([[0.0], [1.0], [0.0]])
    np.testing.assert_allclose(principal_angles(e1, e2), [90.0], atol=1e-10)


def test_principal_angles_45_degrees():
    e1 = np.array([[1.0], [0.0]])
    diag = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    np.testing.assert_allclose(principal_angles(e1, diag), [45.0], atol=1e-10)


def test_principal_angles_ascending_and_counted():
    a = random_matrix(11, 8, 3)
    b = random_matrix(12, 8, 5)
    angles = principal_angles(a, b)
    assert angles.shape == (3,)
    assert np.all(np.diff(angles) >= -1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_principal_angles_symmetric_and_basis_invariant(seed):
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((7, 3))
    b = gen.standard_normal((7, 4))
    forward = principal_angles(a, b)
    backward = principal_angles(b, a)
    np.testing.assert_allclose(forward, backward, atol=1e-8)
    # invertible right-multiplication leaves the column space unchanged
    t = gen.standard_normal((3, 3)) + 3.0 * np.eye(3)
    np.testing.assert_allclose(principal_angles(a @ t, b), forward, atol=1e-8)


def test_principal_angles_zero_matrix():
    with pytest.raises(ValueError):
        principal_angles(np.zeros((3, 2)), np.eye(3))


def test_basis_angles_rejects_ambient_mismatch():
    qa = orthonormal_basis(random_matrix(14, 6, 2))
    qb = orthonormal_basis(random_matrix(15, 5, 2))
    with pytest.raises(ValueError, match="ambient dimension mismatch: 6 vs 5"):
        _basis_angles(qa, qb)


def svd_basis(mat):
    """orthonormal_basis by the thin SVD alone: the leading left singular vectors."""
    f = thin_svd(mat)
    return f.u[:, :int(np.count_nonzero(f.s > linalg.RANK_RTOL * f.s[0]))]


def test_orthonormal_basis_certified_wide_takes_gram_route(monkeypatch):
    m = random_matrix(16, 12, 31)
    calls = count_svd_calls(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = orthonormal_basis(m)
        # scaled by an exact power of two before its Gram matrix is formed
        for scale in (1e200, 1e-200):
            np.testing.assert_array_equal(orthonormal_basis(m * scale), q)
    assert calls == []
    assert q.shape == (12, 12)
    np.testing.assert_allclose(q.T @ q, np.eye(12), rtol=0, atol=1e-12)
    ref = svd_basis(m)
    np.testing.assert_allclose(q @ q.T, ref @ ref.T, rtol=0, atol=1e-12)


@pytest.mark.parametrize("mat", [
    random_matrix(17, 6, 11, rank=3),
    random_matrix(18, 11, 6),
], ids=["rank-deficient-wide", "tall"])
def test_orthonormal_basis_uncertified_falls_back_to_svd(monkeypatch, mat):
    calls = count_svd_calls(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = orthonormal_basis(mat)
    assert calls == [mat.shape]
    np.testing.assert_array_equal(q, svd_basis(mat))


@pytest.mark.parametrize("shape", [(2, 5), (0, 3)], ids=["wide", "no-rows"])
def test_orthonormal_basis_rejects_zero_matrix(shape):
    with pytest.raises(ValueError, match="zero matrix has no column space"):
        orthonormal_basis(np.zeros(shape))


@pytest.mark.parametrize("ra, rb", [(6, 2), (2, 6), (6, 6)])
def test_basis_angles_full_dimensional_basis_is_exactly_zero(monkeypatch, ra, rb):
    qa = np.linalg.qr(random_matrix(20, 6, ra))[0]
    qb = np.linalg.qr(random_matrix(21, 6, rb))[0]

    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    angles = _basis_angles(qa, qb)
    np.testing.assert_array_equal(angles, np.zeros(min(ra, rb)))


def test_orthonormal_basis_detects_rank():
    m = random_matrix(13, 6, 4, rank=2)
    q = orthonormal_basis(m)
    assert q.shape == (6, 2)
    np.testing.assert_allclose(q.T @ q, np.eye(2), atol=1e-10)


def test_sigmoid_values():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(40.0) == pytest.approx(1.0)
    assert sigmoid(-40.0) > 0.0
    out = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
    assert np.all(np.isfinite(out))
    assert out[0] >= 0.0 and out[2] <= 1.0


def test_orthonormal_basis_certified_wide_is_the_identity_without_eigenvectors(monkeypatch):
    m = random_matrix(32, 9, 20)

    def forbidden(name):
        def fail(*args, **kwargs):
            raise AssertionError(f"np.linalg.{name} called")
        return fail

    for name in ("eigh", "svd"):
        monkeypatch.setattr(np.linalg, name, forbidden(name))
    q = orthonormal_basis(m)
    np.testing.assert_array_equal(q, np.eye(9))
