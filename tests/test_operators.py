import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotmerge import (
    MergeOperator,
    dare,
    merge_checkpoint_deltas,
    merge_weighted,
    task_arithmetic,
    ties,
    weight_average,
)
from pivotmerge import operators
from pivotmerge.operators import _CHUNK, _trim_keep_count, _trim_mask
from conftest import make_checkpoint
from ties_oracle import kept_indices, ties_reference
from ties_stacked import stacked_dare_ties, stacked_ties


# --- operator construction ----------------------------------------------


def test_operator_params_present_iff_required():
    MergeOperator.average()
    MergeOperator.arithmetic(0.5)
    MergeOperator.ties(0.2)
    MergeOperator.dare_ties(1.0, 0.5, seed=3)
    with pytest.raises(ValueError):
        MergeOperator(kind="weight_average", trim_fraction=0.5)
    with pytest.raises(ValueError):
        MergeOperator(kind="ties")
    with pytest.raises(ValueError):
        MergeOperator(kind="ties", trim_fraction=1.5)
    with pytest.raises(ValueError):
        MergeOperator(kind="task_arithmetic", scale=0.0)
    with pytest.raises(ValueError):
        MergeOperator(kind="dare_ties", trim_fraction=1.0, drop_rate=1.0, seed=0)
    with pytest.raises(ValueError):
        MergeOperator(kind="nonsense")


# --- merge_weighted dispatcher ------------------------------------------


@pytest.mark.parametrize("op", [
    MergeOperator.average(),
    MergeOperator.arithmetic(0.25),
    MergeOperator.ties(0.5),
    MergeOperator.dare_ties(0.5, 0.7, seed=9),
])
def test_singleton_returns_input_unchanged(op, rng):
    m = rng.standard_normal((3, 4))
    np.testing.assert_array_equal(merge_weighted(op, [m], [2.5]), m)


def test_cancellation():
    m = np.arange(6.0).reshape(2, 3)
    out = merge_weighted(MergeOperator.average(), [m, -m], [1.0, 1.0])
    np.testing.assert_array_equal(out, np.zeros_like(m))


def test_zero_weight_excluded(rng):
    a, b = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
    out = merge_weighted(MergeOperator.average(), [a, b], [2.0, 0.0])
    np.testing.assert_allclose(out, a)


def test_all_zero_weights_rejected():
    with pytest.raises(ValueError, match="positive"):
        merge_weighted(MergeOperator.average(), [np.eye(2), np.eye(2)], [0.0, 0.0])


def test_negative_weights_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        merge_weighted(MergeOperator.average(), [np.eye(2), np.eye(2)], [1.0, -1.0])


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shape"):
        merge_weighted(MergeOperator.average(), [np.eye(2), np.eye(3)], [1.0, 1.0])


# --- weight_average -----------------------------------------------------


def test_weight_average_mean():
    out = weight_average([np.array([[2.0]]), np.array([[4.0]])], [1.0, 1.0])
    np.testing.assert_array_equal(out, [[3.0]])


def test_weight_average_weighted():
    out = weight_average([np.array([[0.0]]), np.array([[4.0]])], [1.0, 3.0])
    np.testing.assert_array_equal(out, [[3.0]])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
                min_size=2, max_size=5),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_weight_average_idempotent_exactly(weights, seed):
    m = np.random.default_rng(seed).standard_normal((2, 3))
    out = weight_average([m] * len(weights), weights)
    np.testing.assert_array_equal(out, m)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_weight_average_permutation_equivariant(seed):
    gen = np.random.default_rng(seed)
    mats = [gen.standard_normal((2, 2)) for _ in range(3)]
    weights = list(gen.uniform(0.1, 2.0, size=3))
    base = weight_average(mats, weights)
    perm = [2, 0, 1]
    out = weight_average([mats[i] for i in perm], [weights[i] for i in perm])
    np.testing.assert_allclose(out, base, rtol=1e-12, atol=1e-15)


# --- task arithmetic ----------------------------------------------------


def test_task_arithmetic_zero_scale():
    out = task_arithmetic([np.eye(2), np.eye(2)], [1.0, 1.0], 0.0)
    np.testing.assert_array_equal(out, np.zeros((2, 2)))


def test_task_arithmetic_example():
    out = task_arithmetic([np.array([[2.0]]), np.array([[2.0]])], [1.0, 1.0], 0.5)
    np.testing.assert_array_equal(out, [[2.0]])


def test_task_arithmetic_single_identity():
    m = np.array([[1.5, -2.0]])
    np.testing.assert_array_equal(task_arithmetic([m], [1.0], 1.0), m)


# --- ties ----------------------------------------------------------------


def test_ties_single_input_full_trim(rng):
    m = rng.standard_normal((3, 3))
    np.testing.assert_array_equal(ties([m], [1.0], 1.0), m)


def test_ties_hand_example():
    out = ties([np.array([[2.0, -3.0]]), np.array([[3.0, -1.0]])], [1.0, 1.0], 1.0)
    np.testing.assert_array_equal(out, [[2.5, -2.0]])


def test_ties_sign_tie_gives_zero():
    out = ties([np.array([[1.0]]), np.array([[-1.0]])], [1.0, 1.0], 1.0)
    np.testing.assert_array_equal(out, [[0.0]])


def test_ties_output_sign_matches_election(rng):
    mats = [rng.standard_normal((4, 4)) for _ in range(3)]
    weights = [1.0, 1.0, 1.0]
    out = ties(mats, weights, 0.5)
    # Recompute the election from the documented trim rule.
    ref = np.asarray(ties_reference([m.tolist() for m in mats], weights, 0.5))
    np.testing.assert_allclose(out, ref, rtol=0, atol=0)


def test_ties_trim_keeps_top_magnitudes():
    m = np.array([[4.0, -0.1], [0.2, 0.3]])
    out = ties([m], [1.0], 0.25)  # keeps exactly one entry of the four
    np.testing.assert_array_equal(out, [[4.0, 0.0], [0.0, 0.0]])


def test_ties_trim_tie_prefers_lower_flat_index():
    m = np.array([[1.0, 1.0], [1.0, 1.0]])
    out = ties([m], [1.0], 0.5)
    np.testing.assert_array_equal(out, [[1.0, 1.0], [0.0, 0.0]])


def test_ties_identical_inputs_uniform_weights(rng):
    m = rng.standard_normal((3, 2))
    out = ties([m, m, m], [1.0, 1.0, 1.0], 1.0)
    np.testing.assert_allclose(out, m, rtol=1e-15, atol=0)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.sampled_from([1.0, 0.5, 0.25]))
def test_ties_matches_oracle_on_random_instances(seed, trim):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(1, 4))
    mats = [gen.integers(-2, 3, size=(2, 2)).astype(float) for _ in range(n)]
    weights = list(gen.uniform(0.25, 2.0, size=n))
    got = merge_weighted(MergeOperator.ties(trim), mats, weights)
    if n == 1:
        np.testing.assert_array_equal(got, mats[0])
    else:
        want = np.asarray(ties_reference([m.tolist() for m in mats], weights, trim))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def test_ties_permutation_equivariant(rng):
    mats = [rng.standard_normal((2, 3)) for _ in range(4)]
    weights = [0.5, 1.5, 1.0, 2.0]
    base = ties(mats, weights, 0.5)
    perm = [3, 1, 0, 2]
    out = ties([mats[i] for i in perm], [weights[i] for i in perm], 0.5)
    np.testing.assert_array_equal(out, base)


def test_task_arithmetic_permutation_equivariant(rng):
    mats = [rng.standard_normal((3, 2)) for _ in range(3)]
    weights = [0.25, 1.0, 2.0]
    base = task_arithmetic(mats, weights, 0.7)
    perm = [2, 0, 1]
    out = task_arithmetic([mats[i] for i in perm], [weights[i] for i in perm], 0.7)
    np.testing.assert_allclose(out, base, rtol=1e-12, atol=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
                min_size=2, max_size=5),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_ties_identical_inputs_any_weights(weights, seed):
    m = np.random.default_rng(seed).standard_normal((2, 3))
    out = ties([m] * len(weights), weights, 1.0)
    np.testing.assert_allclose(out, m, rtol=1e-14, atol=0)


def test_ties_entries_have_elected_sign_or_zero(rng):
    mats = [rng.standard_normal((4, 5)) for _ in range(4)]
    weights = [1.0, 0.5, 2.0, 1.5]
    for trim in (1.0, 0.5):
        out = ties(mats, weights, trim).ravel()
        flat = np.stack([m.ravel() for m in mats])
        keep = max(1, int(np.floor(trim * flat.shape[1] + 1e-9)))
        kept = np.zeros_like(flat, dtype=bool)
        order = np.argsort(-np.abs(flat), axis=1, kind="stable")
        kept[np.arange(4)[:, None], order[:, :keep]] = True
        elected = np.sign(np.asarray(weights) @ np.where(kept, flat, 0.0))
        assert np.all((out == 0.0) | (np.sign(out) == elected))


def test_ties_exhaustive_n2_sample():
    values = (-2, -1, 0, 1, 2)
    count = 0
    for a in itertools.product(values, repeat=4):
        for b in itertools.product(values, repeat=4):
            if (a[0] + b[0]) % 3:  # deterministic thinning to keep this quick
                continue
            mats = [np.array(a, dtype=float).reshape(2, 2),
                    np.array(b, dtype=float).reshape(2, 2)]
            got = ties(mats, [1.0, 1.0], 0.5)
            want = np.asarray(ties_reference([m.tolist() for m in mats], [1.0, 1.0], 0.5))
            np.testing.assert_array_equal(got, want)
            count += 1
    assert count > 40_000


# Many equal magnitudes, zeros of both signs: the cases where the selection
# must reproduce the stable-sort tie rule exactly.
tie_heavy = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=5),
       st.floats(min_value=0.0, max_value=1.0, exclude_min=True), st.data())
def test_ties_trim_matches_oracle_on_tie_heavy_inputs(n_inputs, rows, cols, trim, data):
    mats = [np.array(data.draw(st.lists(tie_heavy, min_size=rows * cols, max_size=rows * cols)))
            .reshape(rows, cols) for _ in range(n_inputs)]
    flat = np.stack([m.ravel() for m in mats])
    mask = _trim_mask(flat, _trim_keep_count(trim, flat.shape[1]))
    for row, kept in zip(flat, mask):
        assert set(np.flatnonzero(kept)) == kept_indices(row.tolist(), trim)
    want = np.asarray(ties_reference([m.tolist() for m in mats], [1.0] * n_inputs, trim))
    np.testing.assert_array_equal(ties(mats, [1.0] * n_inputs, trim), want)


def _stable_argsort_mask(flat, keep):
    order = np.argsort(-np.abs(flat), axis=1, kind="stable")
    kept = np.zeros(flat.shape, dtype=bool)
    kept[np.arange(flat.shape[0])[:, None], order[:, :keep]] = True
    return kept


def test_ties_trim_matches_stable_argsort_on_1m_entries():
    gen = np.random.default_rng(20230601)
    # Quantized values: about 400 distinct magnitudes over 2^20 entries, so the
    # cutoff magnitude is shared by thousands of entries in every row.
    mats = [np.round(gen.standard_normal((512, 1024)) * 64.0) / 64.0 for _ in range(2)]
    flat = np.stack([m.ravel() for m in mats])
    assert flat.size >= 1_000_000
    weights = [0.75, 1.25]
    for trim in (0.2, 0.5):
        ref = _stable_argsort_mask(flat, _trim_keep_count(trim, flat.shape[1]))
        np.testing.assert_array_equal(_trim_mask(flat, _trim_keep_count(trim, flat.shape[1])), ref)
        trimmed = [np.where(k, f, 0.0).reshape(512, 1024) for k, f in zip(ref, flat)]
        # Trim 1.0 skips selection, so this runs only the elect and merge steps.
        np.testing.assert_array_equal(ties(mats, weights, trim), ties(trimmed, weights, 1.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("trim", [0.5, 1.0])
def test_ties_rejects_non_finite_inputs(bad, trim):
    good = np.array([[3.0, 1.0, -2.0, 0.5]])
    worse = good.copy()
    worse[0, 0] = bad
    with pytest.raises(ValueError, match="ties input 1 contains NaN or Inf"):
        ties([good, worse], [1.0, 1.0], trim)


# --- chunked elect and merge ----------------------------------------------

# Three chunks, the last one less than a row wider: 125 * 394 = 3 * _CHUNK + 98 entries
# at a chunk of 2^14, 125 * 1573 = 3 * _CHUNK + 17 at 2^16.
CHUNKED_SHAPE = (125, 3 * _CHUNK // 125 + 1)
TIE_RUN = 200   # equal magnitudes centred on the first chunk boundary
RUN_KEPT = 150  # of which trimming at 0.2 keeps the first 150
# Exactly cancelling values for unit weights, all above the tie run's magnitude.
CANCELLING = {2: (3.0, -3.0), 5: (3.0, 4.0, -5.0, 3.0, -5.0)}


def _bytes(a):
    return np.frombuffer(a.tobytes(), dtype=np.uint64)


def _chunk_boundary_inputs(n_inputs):
    """Inputs with a cutoff tie run across a chunk boundary and exactly zero sums on others.

    Returns the matrices and the flat indices whose unit-weight sum is exactly zero.
    """
    gen = np.random.default_rng(8128 + n_inputs)
    n_entries = math.prod(CHUNKED_SHAPE)
    assert 3 * _CHUNK < n_entries <= 3 * _CHUNK + CHUNKED_SHAPE[0]
    run_start = _CHUNK - TIE_RUN // 2
    # The same positions hold each input's largest magnitudes: exactly enough of
    # them that trimming at 0.2 also keeps the first RUN_KEPT entries of the run.
    free = np.setdiff1d(np.arange(n_entries), np.arange(run_start, run_start + TIE_RUN))
    edges = np.array([0, 1, 2 * _CHUNK - 1, 2 * _CHUNK, 3 * _CHUNK - 1, 3 * _CHUNK, n_entries - 1])
    others = gen.choice(np.setdiff1d(free, edges), _trim_keep_count(0.2, n_entries) - RUN_KEPT
                        - len(edges), replace=False)
    above = np.concatenate([edges, others])
    zero_sum = np.concatenate([edges, others[:50]])
    mats = []
    for i in range(n_inputs):
        flat = gen.uniform(-1.0, 1.0, n_entries)
        flat[run_start:run_start + TIE_RUN] = 2.0 * gen.choice([-1.0, 1.0], TIE_RUN)
        flat[above] = (3.0 + gen.uniform(0.0, 1.0, len(above))) * gen.choice([-1.0, 1.0], len(above))
        flat[zero_sum] = CANCELLING[n_inputs][i]
        mats.append(flat.reshape(CHUNKED_SHAPE))
    return mats, zero_sum


def test_chunk_boundary_inputs_put_the_cutoff_inside_the_tie_run():
    mats, zero_sum = _chunk_boundary_inputs(2)
    flats = [m.ravel() for m in mats]
    kept = _trim_mask(flats, _trim_keep_count(0.2, flats[0].size))
    run_start = _CHUNK - TIE_RUN // 2
    assert kept[:, run_start:run_start + RUN_KEPT].all()
    assert not kept[:, run_start + RUN_KEPT:run_start + TIE_RUN].any()
    assert run_start < _CHUNK < run_start + RUN_KEPT
    assert kept[:, zero_sum].all()
    assert (sum(f[zero_sum] for f in flats) == 0.0).all()


@pytest.mark.parametrize("trim", [1.0, 0.2])
@pytest.mark.parametrize("n_inputs", [2, 5])
def test_chunked_ties_matches_stacked_formulation(n_inputs, trim):
    mats, zero_sum = _chunk_boundary_inputs(n_inputs)
    weights = [1.0] * n_inputs
    got = ties(mats, weights, trim)
    np.testing.assert_array_equal(_bytes(got), _bytes(stacked_ties(mats, weights, trim)))
    assert not got.ravel()[zero_sum].any()


@pytest.mark.parametrize("trim", [1.0, 0.2])
@pytest.mark.parametrize("n_inputs", [2, 5])
def test_chunked_dare_ties_matches_stacked_formulation(n_inputs, trim):
    mats, _ = _chunk_boundary_inputs(n_inputs)
    weights = [1.0] * n_inputs
    got = merge_weighted(MergeOperator.dare_ties(trim, 0.5, seed=11), mats, weights)
    want = stacked_dare_ties(mats, weights, trim, 0.5, 11)
    np.testing.assert_array_equal(_bytes(got), _bytes(want))


@pytest.mark.parametrize("width", [1 << 10, 1 << 16])
def test_ties_bytes_do_not_depend_on_the_chunk_width(width, monkeypatch):
    mats, _ = _chunk_boundary_inputs(5)
    # The pivot kernel merges blocks pre-scaled row-wise by the spectrum.
    s = np.random.default_rng(17).uniform(0.5, 4.0, CHUNKED_SHAPE[0])
    scaled = [s[:, None] * m for m in mats]
    weights = [0.5, 1.0, 2.0, 1.0, 0.5]
    calls = [(trim, inputs) for trim in (1.0, 0.2) for inputs in (mats, scaled)]
    want = [ties(inputs, weights, trim) for trim, inputs in calls]
    monkeypatch.setattr(operators, "_CHUNK", width)
    for (trim, inputs), expected in zip(calls, want):
        np.testing.assert_array_equal(_bytes(ties(inputs, weights, trim)), _bytes(expected))


def _signed_zero_and_subnormal_inputs(n_entries):
    """Four inputs of quarter steps (many exact zeros of both signs and exact
    cancellations), some entries replaced by subnormal magnitudes."""
    gen = np.random.default_rng(n_entries)
    tiny = np.finfo(np.float64).smallest_subnormal
    mats = []
    for _ in range(4):
        flat = np.round(gen.standard_normal(n_entries) * 2.0) / 4.0
        kind = gen.integers(0, 4, n_entries)
        flat[kind == 1] = gen.integers(-3, 4, np.count_nonzero(kind == 1)) * tiny
        flat[kind == 2] *= 1e-310
        mats.append(flat)
    assert any(np.signbit(m[m == 0.0]).any() for m in mats)
    return mats


@pytest.mark.parametrize("offset", [-1, 0, 1, _CHUNK + 1], ids=["C-1", "C", "C+1", "2C+1"])
@pytest.mark.parametrize("trim", [1.0, 0.5])
def test_ties_matches_stacked_on_signed_zeros_subnormals_and_zero_weights(offset, trim):
    mats = _signed_zero_and_subnormal_inputs(_CHUNK + offset)
    for weights in ([0.0, 0.3, 1.7, 0.9], [1.0, 0.0, 0.0, 2.5]):
        np.testing.assert_array_equal(_bytes(ties(mats, weights, trim)),
                                      _bytes(stacked_ties(mats, weights, trim)))


def test_ties_peak_memory_stays_under_four_inputs():
    # The stacked formulation held about six (N, n) float64 arrays, 18x one input here.
    gen = np.random.default_rng(3)
    mats = [gen.standard_normal((512, 513)) for _ in range(4)]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        got = ties(mats, [1.0] * 4, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 4 * mats[0].nbytes
    np.testing.assert_array_equal(_bytes(got), _bytes(stacked_ties(mats, [1.0] * 4, 0.2)))


def test_sparse_ties_scans_ties_one_chunk_at_a_time():
    # With 90% zeros the cutoff is 0.0 and most entries tie at it. An index of
    # every tie made one call peak at 2.53x one input at this shape.
    gen = np.random.default_rng(5)
    mats = [gen.standard_normal((1024, 1025)) for _ in range(4)]
    for m in mats:
        m[gen.random(m.shape) < 0.9] = 0.0
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        got = ties(mats, [1.0] * 4, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 2.25 * mats[0].nbytes
    np.testing.assert_array_equal(_bytes(got), _bytes(stacked_ties(mats, [1.0] * 4, 0.2)))


# --- dare -----------------------------------------------------------------


def test_dare_zero_drop_is_identity(rng):
    m = rng.standard_normal((4, 4))
    np.testing.assert_array_equal(dare(m, 0.0, seed=1), m)


def test_dare_deterministic(rng):
    m = rng.standard_normal((8, 8))
    a = dare(m, 0.3, seed=42)
    b = dare(m, 0.3, seed=42)
    np.testing.assert_array_equal(a, b)
    c = dare(m, 0.3, seed=43)
    assert not np.array_equal(a, c)


def test_dare_streams_differ(rng):
    m = rng.standard_normal((8, 8))
    assert not np.array_equal(dare(m, 0.3, seed=42, stream=0),
                              dare(m, 0.3, seed=42, stream=1))


def test_dare_mean_preserved():
    m = np.ones((100, 100))
    out = dare(m, 0.5, seed=11)
    # binomial standard error of the mean: 2 * sqrt(p (1 - p) / n)
    se = 2.0 * np.sqrt(0.5 * 0.5 / m.size)
    assert abs(out.mean() - 1.0) <= 3.0 * se
    assert set(np.unique(out)) <= {0.0, 2.0}


def test_dare_invalid_rate():
    with pytest.raises(ValueError):
        dare(np.ones((2, 2)), 1.0, seed=0)


def test_dare_ties_composition_deterministic(rng):
    mats = [rng.standard_normal((3, 3)) for _ in range(3)]
    op = MergeOperator.dare_ties(1.0, 0.4, seed=5)
    a = merge_weighted(op, mats, [1.0, 1.0, 1.0])
    b = merge_weighted(op, mats, [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(a, b)


# --- checkpoint-level baseline merging ------------------------------------


def test_merge_checkpoint_deltas_average_identity(rng):
    base = make_checkpoint("base", rng, [3, 4, 2])
    expert = make_checkpoint("e1", rng, [3, 4, 2])
    merged = merge_checkpoint_deltas([expert], base, MergeOperator.average())
    for got, want in zip(merged.layers, expert.layers):
        np.testing.assert_allclose(got.weight, want.weight, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(got.bias, want.bias, rtol=1e-12, atol=1e-15)


def test_merge_checkpoint_deltas_sorts_by_id(rng):
    base = make_checkpoint("base", rng, [3, 4])
    e1 = make_checkpoint("a", rng, [3, 4])
    e2 = make_checkpoint("b", rng, [3, 4])
    op = MergeOperator.dare_ties(1.0, 0.5, seed=3)
    forward = merge_checkpoint_deltas([e1, e2], base, op)
    backward = merge_checkpoint_deltas([e2, e1], base, op)
    for la, lb in zip(forward.layers, backward.layers):
        np.testing.assert_array_equal(la.weight, lb.weight)
        np.testing.assert_array_equal(la.bias, lb.bias)


def test_merge_checkpoint_deltas_rejects_mismatch(rng):
    base = make_checkpoint("base", rng, [3, 4])
    other = make_checkpoint("e", rng, [3, 5])
    with pytest.raises(ValueError, match="match"):
        merge_checkpoint_deltas([other], base, MergeOperator.average())
