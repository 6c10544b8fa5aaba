"""Dense linear-algebra primitives for the merge pipeline.

All functions operate on float64 arrays and are pure. SVD factor signs are
canonicalized (the largest-magnitude entry of each left singular vector is
made positive) so repeated runs produce identical factors.

A LAPACK call whose factored matrix has no dimension above
_ONE_THREAD_ORDER (`_gram_eigh`'s eigensolve, `thin_svd` and
`_basis_angles`' SVD) runs on one OpenBLAS thread, and the previous count is
restored when it returns or raises. Waking an idle worker costs more than
the worker saves at these orders, and a deep projector of small layers would
pay that once per factorization. The setter is looked up through numpy's
LAPACK extension at the first small call, so it is numpy's OpenBLAS whatever
else is loaded; with another BLAS or no such symbol nothing changes. The
thread count is process-wide, so a BLAS call that another thread makes
meanwhile also runs on one thread.

`_rank_factors` needs only the top r + 1 eigenpairs of a block's Gram
matrix. It takes them from LAPACK's dsyevr with RANGE='I' (bisection and
inverse iteration for a partial range; Demmel, Marques, Parlett & Voemel,
SIAM J. Sci. Comput. 2008), found through the same handle on numpy's LAPACK
extension, so no back-transformation of the other eigenvectors and no
2n^2 workspace of dsyevd is paid for. Only symbols whose integer width the
name tells are used (_DSYEVR_SYMBOLS); with none of them, the same pairs are
sliced from a full np.linalg.eigh. The joint step needs every eigenvector
and keeps np.linalg.eigh.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from dataclasses import dataclass

import numpy as np

# Singular values below RANK_RTOL * sigma_max do not count toward numerical rank.
RANK_RTOL = 1e-10
# truncate_rank takes its top-r subspace from the Gram matrix's eigenvectors only
# when the cut eigengap exceeds EIG_GAP_RTOL * lambda_max: by Davis-Kahan (SIAM
# J. Numer. Anal. 1970) the subspace error is then bounded by rounding / gap.
EIG_GAP_RTOL = 1e-8
# A wide matrix's Gram eigenpairs certify its U and S when lambda_min >
# GRAM_COND_RTOL * lambda_max: every singular value is then live under
# RANK_RTOL and has relative error about eps / (2 * GRAM_COND_RTOL).
GRAM_COND_RTOL = 1e-6
# A Gram matrix is formed from M scaled by an exact power of two when max|M|
# lies outside [2^-_GRAM_EXP, 2^_GRAM_EXP]: its entries and eigenvalues then
# neither overflow nor meet subnormals at the scale of lambda_max.
_GRAM_EXP = 400
# Whitened (scale-free) vectors with 2-norm below this are zero (cosine convention);
# a raw delta, spectrum or merged delta is zero only when exactly zero.
ZERO_NORM = 1e-12
# LAPACK calls on matrices with no dimension above this run on one OpenBLAS
# thread. With OpenBLAS 0.3.31, eigh at 1 and 2 threads gave identical bytes
# on Grams of orders 16 to 160 (they first differed at 170), so the cut
# changes no result there.
_ONE_THREAD_ORDER = 128
# (getter, setter) pairs of OpenBLAS's thread count, by build.
_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
# LAPACK's dsyevr in numpy's LAPACK, by symbol, with the integer width that
# the symbol's name tells; a bare dsyevr_ could take either width, so it is not used.
_DSYEVR_SYMBOLS = (
    ("scipy_dsyevr_64_", ctypes.c_int64),
    ("dsyevr_64_", ctypes.c_int64),
    ("scipy_dsyevr_", ctypes.c_int32),
)
# Held while the count is 1, so concurrent small calls cannot restore it out of
# order; reentrant, so a small call made inside another cannot deadlock.
_ONE_THREAD_LOCK = threading.RLock()


class NumericalError(RuntimeError):
    """An underlying LAPACK routine failed to converge."""


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD of an m-by-n matrix: u (m, k), s (k,), vt (k, n), k = min(m, n)."""

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray


def _as_matrix(mat, name: str = "matrix") -> np.ndarray:
    m = np.asarray(mat, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains NaN or Inf")
    return m


@functools.cache
def _lapack_lib():
    """A handle on numpy's LAPACK extension, or None if it cannot be opened."""
    # A handle's symbol lookup also searches the libraries it depends on, so
    # this finds the BLAS and LAPACK that numpy's LAPACK calls run on.
    try:
        return ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (OSError, AttributeError):
        return None


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy loaded, or None if there is none."""
    lib = _lapack_lib()
    if lib is None:
        return None
    for get_name, set_name in _THREAD_SYMBOLS:
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            return get, set_
    return None


@functools.cache
def _dsyevr():
    """(dsyevr, its ctypes integer) from numpy's LAPACK, or None if no listed symbol is there."""
    lib = _lapack_lib()
    if lib is None:
        return None
    for name, c_int in _DSYEVR_SYMBOLS:
        if hasattr(lib, name):
            func = getattr(lib, name)
            # JOBZ, RANGE, UPLO; N, A, LDA, VL, VU, IL, IU, ABSTOL, M, W, Z, LDZ,
            # ISUPPZ, WORK, LWORK, IWORK, LIWORK, INFO by reference; then the
            # three character lengths that gfortran passes (others ignore them).
            func.restype = None
            func.argtypes = [ctypes.c_char_p] * 3 + [ctypes.c_void_p] * 18 + [ctypes.c_size_t] * 3
            return func, c_int
    return None


def _top_eigh(gram: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """The `top` largest eigenpairs of a symmetric matrix, ascending; `gram` is overwritten.

    `gram` must be a writeable, C-contiguous float64 square array, with
    1 <= top <= its order. Only its lower triangle is read, as
    np.linalg.eigh reads it: in Fortran order that is the upper triangle of
    the transpose, so dsyevr takes UPLO='U' on the C-order storage and no
    copy is made. dsyevr finds them when numpy's LAPACK has it (`_dsyevr`);
    otherwise they are sliced from np.linalg.eigh. Raises
    np.linalg.LinAlgError when dsyevr reports info != 0 or finds another
    number of eigenvalues than `top`.
    """
    n = gram.shape[0]
    if not (gram.dtype == np.float64 and gram.shape == (n, n) and gram.flags.c_contiguous
            and gram.flags.writeable and 1 <= top <= n):
        raise ValueError(f"need a writeable C-order float64 square matrix and 1 <= top <= order, "
                         f"got {gram.dtype} {gram.shape} and top {top}")
    routine = _dsyevr()
    if routine is None:
        evals, evecs = np.linalg.eigh(gram)
        return evals[-top:], evecs[:, -top:]
    func, c_int = routine
    # IL = n - top + 1 and IU = N select the `top` largest.
    order, il, found, info = c_int(n), c_int(n - top + 1), c_int(0), c_int(0)
    zero = ctypes.c_double(0.0)  # VL and VU, unused for RANGE='I'; ABSTOL 0, LAPACK's default
    evals = np.empty(n)
    z = np.empty((top, n))  # row-major (top, n) is column-major (n, top) with LDZ = n
    isuppz = np.empty(2 * top, dtype=c_int)

    def call(work: np.ndarray, iwork: np.ndarray, lwork: int, liwork: int) -> None:
        ref = ctypes.byref
        func(b"V", b"I", b"U", ref(order), gram.ctypes.data, ref(order), ref(zero), ref(zero),
             ref(il), ref(order), ref(zero), ref(found), evals.ctypes.data, z.ctypes.data,
             ref(order), isuppz.ctypes.data, work.ctypes.data, ref(c_int(lwork)),
             iwork.ctypes.data, ref(c_int(liwork)), ref(info), 1, 1, 1)
        if info.value:
            raise np.linalg.LinAlgError(f"dsyevr returned info {info.value}")

    # Sizes of -1 ask LAPACK for the workspace it wants, written into each array's first entry.
    work, iwork = np.zeros(1), np.zeros(1, dtype=c_int)
    call(work, iwork, -1, -1)
    lwork, liwork = int(work[0]), int(iwork[0])
    call(np.empty(lwork), np.empty(liwork, dtype=c_int), lwork, liwork)
    if found.value != top:
        raise np.linalg.LinAlgError(f"dsyevr found {found.value} of {top} eigenvalues")
    return evals[:top], z.T


@contextlib.contextmanager
def _lapack_threads(shape: tuple[int, ...]):
    """Run the block on one OpenBLAS thread when no dimension of `shape` exceeds _ONE_THREAD_ORDER."""
    blas = _openblas_threads() if max(shape) <= _ONE_THREAD_ORDER else None
    if blas is None:
        yield
        return
    get, set_ = blas
    with _ONE_THREAD_LOCK:
        before = get()
        set_(1)
        try:
            yield
        finally:
            set_(before)


def thin_svd(mat) -> SvdFactors:
    """Thin SVD with deterministic sign conventions.

    Raises NumericalError if the decomposition does not converge.
    """
    m = _as_matrix(mat)
    try:
        with _lapack_threads(m.shape):
            u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge on shape {m.shape}") from exc
    if s.size:
        signs = _canonical_signs(u)
        u = u * signs
        vt = vt * signs[:, None]
    return SvdFactors(u=u, s=s, vt=vt)


def _canonical_signs(u: np.ndarray) -> np.ndarray:
    """Column signs that make the largest-magnitude entry of each column of u positive."""
    pick = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[pick, np.arange(u.shape[1])])
    signs[signs == 0.0] = 1.0
    return signs


def _gram_eigh(m: np.ndarray, wide: bool, vectors: bool = True, top: int | None = None
               ) -> tuple[np.ndarray, np.ndarray | None, int, float]:
    """Ascending eigenpairs of G G^T (wide) or G^T G, G = 2^-shift M, the shift and the trace.

    shift is 0 unless max|M| lies outside [2^-_GRAM_EXP, 2^_GRAM_EXP]; then it
    brings max|G| into [0.5, 1), and the eigenvalues are 4^-shift times M's.
    Without `vectors` the second item is None. With `top` only the `top`
    largest eigenpairs come back, vectors included (`_top_eigh`, dsyevr),
    still ascending. The
    trace of the Gram matrix is the sum of all its eigenvalues. Raises
    ValueError for NaN or Inf entries and NumericalError if the eigensolver
    fails.
    """
    peak = max(m.max(), -m.min())
    if not np.isfinite(peak):
        raise ValueError("matrix contains NaN or Inf")
    shift = 0 if 2.0 ** -_GRAM_EXP <= peak <= 2.0 ** _GRAM_EXP else int(np.frexp(peak)[1])
    g = np.ldexp(m, -shift) if shift else m
    gram = g @ g.T if wide else g.T @ g
    trace = float(np.trace(gram))
    try:
        with _lapack_threads(gram.shape):
            if top is not None:
                evals, evecs = _top_eigh(gram, top)
            else:
                evals, evecs = np.linalg.eigh(gram) if vectors else (np.linalg.eigvalsh(gram), None)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Gram eigensolve failed to converge on shape {m.shape}") from exc
    return evals, evecs, shift, trace


def _gram_certified(evals: np.ndarray) -> bool:
    """The GRAM_COND_RTOL certificate on ascending Gram eigenvalues."""
    return bool(evals[0] > GRAM_COND_RTOL * evals[-1])


def truncate_rank(mat, rank: int) -> np.ndarray:
    """Best rank-`rank` approximation (Frobenius) of a matrix.

    If `rank` meets or exceeds min(m, n) this is a copy. Otherwise the top-
    `rank` eigenvectors Q of the smaller Gram matrix (M M^T or M^T M) give the
    projection Q Q^T M (or M Q Q^T); only the top rank + 1 eigenpairs are
    computed (LAPACK's dsyevr). That route is taken only when the cut
    eigengap exceeds EIG_GAP_RTOL * lambda_max; a tied cut, a block of rank
    below `rank` or a zero block falls back to the thin SVD's U_r S_r V_r^T.
    """
    r = int(rank)
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    m = _as_matrix(mat)
    if r >= min(m.shape):
        return m.copy()
    left, right = _rank_factors(m, r)[:2]
    return left @ right


def _rank_factors(m: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, float | None, str]:
    """`truncate_rank`'s core as owned factors (left, right), the energy it keeps and its route.

    Requires a 2-D float64 array and 1 <= r < min(m, n); `_gram_eigh` rejects
    NaN and Inf entries. The top r + 1 eigenpairs of the smaller Gram matrix
    (dsyevr, `_top_eigh`) decide the route. When the cut eigengap exceeds
    EIG_GAP_RTOL * lambda_max the route is "eig" and the core is left @ right
    with (Q, Q^T M) when wide and (M Q, Q^T) when tall. Otherwise it is "svd",
    with (U_r S_r, V_r^T) from the thin SVD. Each factor owns its data, so no
    view keeps an eigenvector matrix or V^T alive. The energy is sum(top-r
    lambda) / trace of the Gram matrix on "eig" (the trace is the sum of all
    eigenvalues), or the same share of s^2 on "svd"; None for a zero matrix.
    """
    wide = m.shape[0] <= m.shape[1]
    evals, evecs, _, trace = _gram_eigh(m, wide, top=r + 1)
    if evals[1] - evals[0] > EIG_GAP_RTOL * evals[-1]:
        q = evecs[:, 1:].copy()
        # Shares of lambda_max, so the sums cannot overflow.
        energy = float((evals[1:] / evals[-1]).sum() / (trace / evals[-1]))
        return (q, q.T @ m, energy, "eig") if wide else (m @ q, q.T.copy(), energy, "eig")
    factors = thin_svd(m)
    energy = None
    if factors.s[0] > 0.0:
        unit = (factors.s / factors.s[0]) ** 2
        energy = float(unit[:r].sum() / unit.sum())
    return factors.u[:, :r] * factors.s[:r], factors.vt[:r].copy(), energy, "svd"


def cosine(a, b) -> float:
    """Cosine similarity of two vectors; 0.0 when either norm is below ZERO_NORM."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.ndim != 1 or bv.ndim != 1:
        raise ValueError("cosine expects 1-D vectors")
    if av.size != bv.size:
        raise ValueError(f"length mismatch: {av.size} vs {bv.size}")
    na = np.linalg.norm(av)
    nb = np.linalg.norm(bv)
    if na < ZERO_NORM or nb < ZERO_NORM:
        return 0.0
    return float(np.clip(av @ bv / (na * nb), -1.0, 1.0))


def orthonormal_basis(mat) -> np.ndarray:
    """Orthonormal basis for the column space, with rank detected from the spectrum.

    A strictly wide matrix (rows < cols) whose Gram matrix M M^T passes the
    GRAM_COND_RTOL certificate (from its eigenvalues alone) has every
    singular value above RANK_RTOL, so its rank is exactly `rows`: it spans
    the whole ambient space and the identity is its basis. Any other input
    (tall or square, or wide but rank deficient or ill conditioned) takes
    the thin SVD's leading left singular vectors. Raises ValueError for a
    zero matrix.
    """
    m = _as_matrix(mat)
    if 0 < m.shape[0] < m.shape[1] and _gram_certified(_gram_eigh(m, True, vectors=False)[0]):
        return np.eye(m.shape[0])
    factors = thin_svd(m)
    if factors.s.size == 0 or factors.s[0] <= 0.0:
        raise ValueError("zero matrix has no column space")
    rank = int(np.count_nonzero(factors.s > RANK_RTOL * factors.s[0]))
    return factors.u[:, :rank]


def _basis_angles(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Principal angles (degrees, ascending) between two orthonormal bases.

    `qa` and `qb` must have orthonormal columns, as `orthonormal_basis`
    returns them; returns min(qa.shape[1], qb.shape[1]) angles. When either
    basis is full-dimensional (as many columns as the ambient dimension) its
    span is all of R^d and contains the other's, so every angle is exactly 0
    and no SVD runs. Otherwise the cosines are the singular values of
    qa^T qb (Bjorck & Golub, Math. Comp. 1973). Raises ValueError for
    mismatched ambient dimensions.
    """
    if qa.shape[0] != qb.shape[0]:
        raise ValueError(f"ambient dimension mismatch: {qa.shape[0]} vs {qb.shape[0]}")
    d = qa.shape[0]
    if qa.shape[1] == d or qb.shape[1] == d:
        return np.zeros(min(qa.shape[1], qb.shape[1]))
    product = qa.T @ qb
    with _lapack_threads(product.shape):
        s = np.linalg.svd(product, compute_uv=False)
    s = np.clip(s, 0.0, 1.0)
    return np.degrees(np.arccos(s))


def principal_angles(a, b) -> np.ndarray:
    """Principal angles (degrees, ascending) between the column spaces of a and b.

    Both inputs are orthonormalized first (`orthonormal_basis`: the identity
    for a wide input certified to have full row rank, the thin SVD
    otherwise); returns min(rank(a), rank(b)) angles. An input of full row
    rank spans the whole ambient space, so its angles are exactly 0 with no
    SVD of the basis product. Raises ValueError for zero matrices or
    mismatched ambient dimensions.
    """
    return _basis_angles(orthonormal_basis(a), orthonormal_basis(b))


def sigmoid(x) -> np.ndarray:
    """Numerically stable logistic function, exact 0.5 at x = 0."""
    z = np.asarray(x, dtype=np.float64)
    pos = z >= 0
    e = np.exp(np.where(pos, -z, z))
    return np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))
