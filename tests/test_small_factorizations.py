"""Small LAPACK calls run on one OpenBLAS thread, and the thread count comes back.

The cut rests on one property of this build: 1 and 2 OpenBLAS threads give
the same bytes at orders up to linalg._ONE_THREAD_ORDER. numpy reads
OPENBLAS_NUM_THREADS when it loads, so those checks run new interpreters.
"""

import ctypes

import numpy as np
import pytest

from pivotmerge import linalg
from conftest import needs_subset_eigh, needs_threaded_openblas, run_cli, run_python

# sha256 over eigh of a Gram matrix and the SVD of a square and a tall matrix
# at orders 16, 64 and 128, computed by numpy alone.
SMALL_FACTORS = """
import hashlib
import numpy as np
rng = np.random.default_rng(3)
digest = hashlib.sha256()
for n in (16, 64, 128):
    a = rng.standard_normal((n, n))
    for out in (*np.linalg.eigh(a @ a.T), *np.linalg.svd(a),
                *np.linalg.svd(a[:, : n // 2], full_matrices=False)):
        digest.update(out.tobytes())
print(digest.hexdigest())
"""


@needs_threaded_openblas
def test_one_and_two_threads_factor_small_matrices_to_the_same_bytes():
    assert (run_python(SMALL_FACTORS, OPENBLAS_NUM_THREADS="1")
            == run_python(SMALL_FACTORS, OPENBLAS_NUM_THREADS="2"))


@needs_threaded_openblas
def test_one_and_two_threads_merge_small_layers_to_the_same_bytes(tmp_path):
    data = tmp_path / "synth"
    result = run_cli("synth", "--out", data, "--dims", "64,64,64", "--experts", "8")
    assert result.returncode == 0, result.stderr
    experts = [arg for p in sorted(data.glob("expert*.tensors")) for arg in ("--expert", p)]
    outputs = []
    for threads in ("1", "2"):
        out, diag = tmp_path / f"{threads}.tensors", tmp_path / f"{threads}.json"
        result = run_cli("merge", "--method", "pivot", "--inner", "dare-ties",
                         "--base", data / "base.tensors", *experts,
                         "--scores", data / "scores.json", "--out", out, "--diagnostics", diag,
                         OPENBLAS_NUM_THREADS=threads)
        assert result.returncode == 0, result.stderr
        outputs.append((out.read_bytes(), diag.read_bytes()))
    assert outputs[0] == outputs[1]


BLAS = linalg._openblas_threads()
needs_openblas_setter = pytest.mark.skipif(BLAS is None,
                                           reason="needs the OpenBLAS thread-count setter")


@pytest.fixture
def two_threads():
    """The OpenBLAS thread count, set to 2 for the test and put back after it."""
    get, set_ = BLAS
    before = get()
    set_(2)
    try:
        yield get
    finally:
        set_(before)


@pytest.fixture
def counts_seen(monkeypatch, two_threads):
    """The thread count at each numpy eigh, eigvalsh and svd call made from here on."""
    seen = []
    for name in ("eigh", "eigvalsh", "svd"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, real=real, **kw:
                            seen.append(two_threads()) or real(*a, **kw))
    return seen


def _bases(order):
    """Two orthonormal bases in R^(2 * order) with `order` columns each."""
    rng = np.random.default_rng(order)
    return [np.linalg.qr(rng.standard_normal((2 * order, order)))[0] for _ in range(2)]


CALLS = {
    "eigh": lambda order: linalg._gram_eigh(np.ones((order, order + 1)), wide=True),
    "eigvalsh": lambda order: linalg._gram_eigh(np.ones((order, order + 1)), wide=True,
                                                vectors=False),
    "thin_svd": lambda order: linalg.thin_svd(np.ones((order, order))),
    "basis_angles": lambda order: linalg._basis_angles(*_bases(order)),
}


@needs_openblas_setter
@pytest.mark.parametrize("call", CALLS)
@pytest.mark.parametrize("order, during", [(16, 1), (128, 1), (129, 2)])
def test_a_factorization_runs_on_one_thread_up_to_the_cut_and_restores_the_count(
        two_threads, counts_seen, call, order, during):
    CALLS[call](order)
    assert counts_seen == [during]
    assert two_threads() == 2


@needs_openblas_setter
@needs_subset_eigh
@pytest.mark.parametrize("order, during", [(16, 1), (128, 1), (129, 2)])
def test_dsyevr_runs_on_one_thread_up_to_the_cut_and_restores_the_count(
        monkeypatch, two_threads, counts_seen, order, during):
    func, c_int = linalg._dsyevr()
    seen = []
    monkeypatch.setattr(linalg, "_dsyevr", lambda: (
        lambda *args: seen.append(two_threads()) or func(*args), c_int))
    linalg._gram_eigh(np.ones((order, order + 1)), wide=True, top=2)
    assert seen == [during, during]  # the workspace query, then the solve
    assert counts_seen == []
    assert two_threads() == 2


@needs_openblas_setter
@pytest.mark.parametrize("top", [None, 2], ids=["eigh", "dsyevr"])
def test_a_failed_small_factorization_restores_the_thread_count(monkeypatch, two_threads, top):
    seen = []

    def fail(*args):
        seen.append(two_threads())
        if top is None:
            raise np.linalg.LinAlgError("no convergence")
        args[20]._obj.value = 1  # dsyevr's INFO

    monkeypatch.setattr(np.linalg, "eigh", fail)
    monkeypatch.setattr(linalg, "_dsyevr", lambda: (fail, ctypes.c_int64))
    with pytest.raises(linalg.NumericalError, match="Gram eigensolve failed"):
        linalg._gram_eigh(np.ones((8, 9)), wide=True, top=top)
    assert seen == [1]
    assert two_threads() == 2


# The count read through linalg's getter before, during and after a small eigh.
SINGLE_THREAD = """
import numpy as np
from pivotmerge import linalg
get, _ = linalg._openblas_threads()
seen = [get()]
real = np.linalg.eigh
np.linalg.eigh = lambda g: seen.append(get()) or real(g)
linalg._gram_eigh(np.ones((8, 9)), wide=True)
print(*seen, get())
"""


@needs_threaded_openblas
def test_a_preset_single_thread_stays_single():
    assert run_python(SINGLE_THREAD, OPENBLAS_NUM_THREADS="1") == "1 1 1"
