import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from pivotmerge import (
    Layer,
    MergeOperator,
    PivotConfig,
    ProjectorCheckpoint,
    ScoreTable,
    SynthSpec,
    decouple,
    filter_residuals,
    generate,
    joint_decompose,
    layer_weights,
    merge_layer,
    merge_weighted,
    pivot_merge,
    reconstruct,
    score_increments,
    task_vectors,
    thin_svd,
    truncate_rank,
)
from pivotmerge import linalg, pivot
from pivotmerge.pivot import _merge_one_layer
from conftest import (checkpoint_rel_error, make_checkpoint, rel_error, scaled_checkpoint,
                      zero_checkpoint)
from pipeline_oracle import reference_pivot_merge


def uniform_table(experts, num_layers, beta=0.05):
    return ScoreTable(expert_ids=tuple(e.id for e in experts),
                      scores=np.zeros((len(experts), num_layers)), beta=beta)


# --- task vectors ---------------------------------------------------------


def stacked(deltas):
    """A (d_out, N, w) delta stack, as `task_vectors` returns it, from N (d_out, w) deltas."""
    return np.stack(deltas, axis=1)


def test_task_vectors_zero_for_identical(rng):
    base = make_checkpoint("base", rng, [3, 4, 2])
    for li, layer in enumerate(base.layers):
        stack = task_vectors([base], layer, li)
        assert stack.shape == (layer.d_out, 1, layer.d_in + 1)
        np.testing.assert_array_equal(stack, np.zeros_like(stack))


def test_task_vectors_roundtrip(rng):
    base = make_checkpoint("base", rng, [3, 4])
    expert = make_checkpoint("e", rng, [3, 4])
    for li, layer in enumerate(base.layers):
        stack = task_vectors([expert], layer, li)
        np.testing.assert_allclose(layer.matrix + stack[:, 0],
                                   expert.layers[li].matrix, atol=1e-15)


def test_task_vectors_zero_base_equals_augmented_experts(rng):
    expert = make_checkpoint("e", rng, [3, 4])
    zero_base = ProjectorCheckpoint(id="base", layers=tuple(
        Layer(np.zeros_like(l.matrix), has_bias=True) for l in expert.layers))
    for li, layer in enumerate(zero_base.layers):
        np.testing.assert_array_equal(task_vectors([expert], layer, li)[:, 0],
                                      expert.layers[li].matrix)


def test_task_vectors_keeps_the_expert_order_given(rng):
    base = make_checkpoint("base", rng, [3, 4, 2])
    experts = [make_checkpoint(eid, rng, [3, 4, 2]) for eid in ("c", "a", "b")]
    for li, layer in enumerate(base.layers):
        stack = task_vectors(experts, layer, li)
        assert stack.shape == (layer.d_out, 3, layer.d_in + 1)
        for i, ck in enumerate(experts):
            np.testing.assert_array_equal(stack[:, i], ck.layers[li].matrix - layer.matrix)


@pytest.mark.parametrize("matrix", [np.ones((5, 4)), np.ones((4, 1))], ids=["rows", "broadcast"])
def test_task_vectors_shape_mismatch(rng, matrix):
    # np.subtract would broadcast a (4, 1) matrix against the (4, 4) base without the check
    base = make_checkpoint("base", rng, [3, 4])
    other = ProjectorCheckpoint(id="e", layers=(Layer(matrix),))
    with pytest.raises(ValueError, match=re.escape(f"expert 'e' layer 1 has shape {matrix.shape}")):
        task_vectors([other], base.layers[0], 0)


# --- joint decomposition ----------------------------------------------------


def test_joint_decompose_identical_blocks(rng):
    d = rng.standard_normal((6, 4))
    _, coeffs = joint_decompose(stacked([d, d, d]))
    for block in coeffs[1:]:
        np.testing.assert_allclose(block, coeffs[0], atol=1e-10)


def test_joint_decompose_single_matches_thin_svd(rng):
    d = rng.standard_normal((5, 3))
    shared, coeffs = joint_decompose(stacked([d]))
    f = thin_svd(d)
    np.testing.assert_allclose(shared.u, f.u, atol=1e-12)
    np.testing.assert_allclose(shared.s, f.s, atol=1e-12)
    np.testing.assert_allclose(coeffs[0], f.vt, atol=1e-12)


def record_svd_shapes(monkeypatch):
    shapes = []
    real = pivot.thin_svd

    def recording(mat):
        shapes.append(np.shape(mat))
        return real(mat)

    monkeypatch.setattr(pivot, "thin_svd", recording)
    return shapes


def planted_wide(s_max, s_min):
    # 3 blocks of 8 columns over 12 rows, planted spectrum geomspace(s_max, s_min, 12)
    return planted(np.geomspace(s_max, s_min, 12), 24)


def planted(spectrum, width, seed=5):
    # len(spectrum) rows and `width` columns with the given singular values
    gen = np.random.default_rng(seed)
    left, _ = np.linalg.qr(gen.standard_normal((len(spectrum), len(spectrum))))
    right, _ = np.linalg.qr(gen.standard_normal((width, len(spectrum))))
    return (left * spectrum) @ right.T


def test_joint_decompose_wide_well_conditioned_uses_gram(monkeypatch):
    # lambda_min / lambda_max = 1e-4 passes the GRAM_COND_RTOL = 1e-6 certificate,
    # which bounds each singular value's relative error by about eps / 2e-6 ~ 1e-10;
    # the planted gaps keep U's error below that as well.
    concat = planted_wide(10.0, 0.1)
    ref = thin_svd(concat)
    deltas = np.split(concat, 3, axis=1)
    shapes = record_svd_shapes(monkeypatch)
    shared, coeffs = joint_decompose(stacked(deltas))
    assert shapes == []
    np.testing.assert_allclose(shared.u, ref.u, rtol=0, atol=1e-10)
    np.testing.assert_allclose(shared.s, ref.s, rtol=1e-10, atol=0)
    for delta, block in zip(deltas, coeffs):
        np.testing.assert_allclose((shared.u * shared.s) @ block, delta, rtol=0, atol=1e-10)


def test_joint_decompose_wide_ill_conditioned_refines_the_gram_tail(monkeypatch):
    # lambda_min / lambda_max = 1e-10 fails the certificate: the 7 eigenvectors with
    # lambda <= 1e-4 lambda_max are refined by one SVD of their (7, 24) projection
    concat = planted_wide(10.0, 1e-4)
    ref = thin_svd(concat)
    shapes = record_svd_shapes(monkeypatch)
    shared = joint_decompose(stacked(np.split(concat, 3, axis=1)))[0]
    assert shapes == [(7, 24)]
    np.testing.assert_allclose(shared.u, ref.u, rtol=0, atol=1e-12)
    np.testing.assert_allclose(shared.s, ref.s, rtol=0, atol=1e-12)


def wide_blocks(scale):
    gen = np.random.default_rng(9)
    return [gen.standard_normal((12, 8)) * scale for _ in range(3)]


@pytest.mark.parametrize("deltas, tail_svd", [
    ([wide_blocks(1.0)[0]] * 3, [(4, 24)]),
    (wide_blocks(1e160), []),
    (wide_blocks(1e-160), []),
], ids=["rank-deficient", "scaled-1e160", "scaled-1e-160"])
def test_joint_decompose_wide_gram_route_handles_rank_deficiency_and_scale(monkeypatch, deltas,
                                                                           tail_svd):
    # A rank-8 C refines its 4 null directions; entries far from 1 are scaled by
    # an exact power of two before the Gram matrix is formed, so it is certified.
    ref = thin_svd(np.concatenate(deltas, axis=1))
    shapes = record_svd_shapes(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        shared = joint_decompose(stacked(deltas))[0]
    assert shapes == tail_svd
    assert np.isfinite(shared.u).all() and np.isfinite(shared.s).all()
    np.testing.assert_allclose(shared.s, ref.s, rtol=0, atol=1e-12 * ref.s[0])


def gram_spectrum(tail_ratios, scale=1.0):
    # 12 singular values whose lambda / lambda_max run geomspace(1, 1e-2) and then
    # tail_ratios; every lambda gap is large enough to pin U to about 1e-12
    ratios = np.r_[np.geomspace(1.0, 1e-2, 12 - len(tail_ratios)), tail_ratios]
    return scale * np.sqrt(ratios)


@pytest.mark.parametrize("spectrum, tail", [
    (gram_spectrum([1e-3, 1.01e-6]), 0),
    (gram_spectrum([1e-3, 0.99e-6]), 1),
    (gram_spectrum([1.01e-4, 1e-8]), 1),
    (gram_spectrum([0.99e-4, 1e-8]), 2),
    (gram_spectrum([1e-5, 1e-7, 0.0, 0.0]), 4),
    (gram_spectrum([1e-5, 1e-7, 1e-9], 1e160), 3),
    (gram_spectrum([1e-5, 1e-7, 1e-9], 1e-160), 3),
    (gram_spectrum([1e-3, 1e-5], 1e160), 0),
    (gram_spectrum([1e-3, 1e-5], 1e-160), 0),
], ids=["above-gram-cond", "below-gram-cond", "above-tail-cut", "below-tail-cut",
        "rank-deficient", "tail-1e160", "tail-1e-160", "certified-1e160", "certified-1e-160"])
def test_joint_decompose_gram_route_matches_thin_svd(spectrum, tail):
    # U and S from one eigh, plus the Rayleigh-Ritz tail when the GRAM_COND_RTOL
    # certificate fails, against the thin SVD; compared in units of the scale.
    scale = spectrum[0]
    concat = planted(spectrum, 24, seed=17)
    ref = thin_svd(concat / scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        shared = joint_decompose(stacked(np.split(concat, 3, axis=1)))[0]
    assert shared.joint_tail == tail
    live = int(np.count_nonzero(ref.s > 1e-8))
    np.testing.assert_allclose(shared.s[:live] / scale, ref.s[:live], rtol=1e-10, atol=0)
    np.testing.assert_allclose(shared.s[live:] / scale, 0.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(shared.u[:, :live], ref.u[:, :live], rtol=0, atol=1e-10)
    np.testing.assert_allclose(shared.u.T @ shared.u, np.eye(12), rtol=0, atol=1e-14)
    unit = concat / scale
    assert np.linalg.norm(unit - shared.u @ (shared.u.T @ unit)) <= 1e-14 * np.linalg.norm(unit)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("shape", [(4, 3), (8, 3)], ids=["wide", "tall"])
def test_joint_decompose_rejects_non_finite_deltas(shape, bad):
    delta = np.ones(shape)
    delta[0, 0] = bad
    with pytest.raises(ValueError, match="contains NaN or Inf"):
        joint_decompose(stacked([delta, delta + 1.0]))


def test_joint_decompose_tall_keeps_direct_svd(rng, monkeypatch):
    deltas = [rng.standard_normal((30, 6)) for _ in range(2)]
    ref = thin_svd(np.concatenate(deltas, axis=1))
    shapes = record_svd_shapes(monkeypatch)
    shared = joint_decompose(stacked(deltas))[0]
    assert shapes == [(30, 12)]
    np.testing.assert_array_equal(shared.u, ref.u)
    np.testing.assert_array_equal(shared.s, ref.s)


def test_stage_chain_cores_bitwise_repeatable(rng):
    deltas = [rng.standard_normal((40, 41)) for _ in range(3)]
    first = decouple(joint_decompose(stacked(deltas))[1], 8)
    second = decouple(joint_decompose(stacked(deltas))[1], 8)
    for a, b in zip(first.cores, second.cores):
        np.testing.assert_array_equal(pivot._dense(a), pivot._dense(b))


def test_joint_decompose_per_expert_reconstruction(rng):
    deltas = [rng.standard_normal((8, 5)) for _ in range(3)]
    shared, coeffs = joint_decompose(stacked(deltas))
    for delta, block in zip(deltas, coeffs):
        recon = (shared.u * shared.s) @ block
        assert rel_error(recon, delta) <= 1e-8


def test_joint_decompose_all_zero_has_an_empty_shared_space():
    # No warning here: `merge` and `analyze` name every all-zero layer in one warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        shared, coeffs = joint_decompose(np.zeros((4, 2, 3)))
    assert shared.s.size == 0
    assert shared.u.shape == (4, 0)
    assert shared.joint_tail is None
    assert len(coeffs) == 2 and all(c.shape == (0, 3) for c in coeffs)


@pytest.mark.parametrize("d_out, n, w, scale", [(6, 3, 4, 1.0), (30, 2, 6, 1.0), (4, 2, 3, 0.0)],
                         ids=["wide-gram", "tall-svd", "all-zero"])
def test_joint_decompose_keeps_no_reference_to_the_stack(rng, d_out, n, w, scale):
    # The kernel passes its only reference, so the stack is freed on return;
    # each block has storage of its own, which `decouple` then overwrites.
    stack = rng.standard_normal((d_out, n, w)) * scale
    ref = weakref.ref(stack)
    _, coeffs = joint_decompose(stack)
    del stack
    assert ref() is None
    assert len(coeffs) == n and all(c.flags.writeable for c in coeffs)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(coeffs) for b in coeffs[i + 1:])


# --- decoupling --------------------------------------------------------------


def forbid_svd(monkeypatch):
    def fail(mat):
        raise AssertionError("thin_svd called")

    monkeypatch.setattr(linalg, "thin_svd", fail)


def decouple_copies(blocks, rank):
    """`decouple` on copies of `blocks`: its result and the residuals it wrote."""
    residuals = [b.copy() for b in blocks]
    return decouple(residuals, rank), residuals


def assert_whole_block_cores(blocks, dec, residuals):
    assert dec.core_route == ["full"] * len(blocks)
    for block, core, resid in zip(blocks, dec.cores, residuals):
        np.testing.assert_array_equal(core, block)
        assert resid.shape == block.shape and not resid.any()


def test_decouple_full_rank_residual_zero(rng, monkeypatch):
    # rank == min(k, w): the core is the whole block, with no SVD and no warning
    forbid_svd(monkeypatch)
    blocks = [rng.standard_normal((4, 3)), rng.standard_normal((4, 3))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dec, residuals = decouple_copies(blocks, rank=3)
    assert dec.effective_rank == 3
    assert_whole_block_cores(blocks, dec, residuals)


def test_decouple_below_full_rank_truncates(rng, monkeypatch):
    calls = []
    real = pivot._rank_factors

    def counting(block, rank):
        calls.append(rank)
        return real(block, rank)

    monkeypatch.setattr(pivot, "_rank_factors", counting)
    blocks = [rng.standard_normal((5, 4)) for _ in range(3)]
    dec = decouple_copies(blocks, rank=3)[0]
    assert calls == [3, 3, 3]
    assert dec.effective_rank == 3
    for block, core in zip(blocks, dec.cores):
        np.testing.assert_array_equal(pivot._dense(core), truncate_rank(block, 3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decouple_below_full_rank_rejects_a_non_finite_entry(rng, bad):
    blocks = [rng.standard_normal((5, 4)) for _ in range(3)]
    blocks[1][2, 3] = bad
    with pytest.raises(ValueError, match="matrix contains NaN or Inf"):
        decouple(blocks, rank=2)


def test_decouple_diagonal_example():
    dec, residuals = decouple_copies([np.diag([3.0, 2.0, 1.0])], rank=1)
    np.testing.assert_allclose(pivot._dense(dec.cores[0]), np.diag([3.0, 0.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(residuals[0], np.diag([0.0, 2.0, 1.0]), atol=1e-12)


def test_decouple_exact_split_and_rank(rng):
    blocks = [rng.standard_normal((6, 5)) for _ in range(3)]
    dec, residuals = decouple_copies(blocks, rank=2)
    for block, core, resid in zip(blocks, dec.cores, residuals):
        core = pivot._dense(core)
        np.testing.assert_allclose(core + resid, block, rtol=0, atol=1e-12)
        s = np.linalg.svd(core, compute_uv=False)
        assert np.sum(s > 1e-10 * s[0]) <= 2


def test_decouple_clamps_rank_to_the_block_rank_limit(rng, monkeypatch):
    # No warning here: `merge` and `analyze` name every clamped layer in one warning.
    forbid_svd(monkeypatch)
    for shape in [(4, 3), (3, 4)]:
        blocks = [rng.standard_normal(shape), rng.standard_normal(shape)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec, residuals = decouple_copies(blocks, rank=64)
        assert dec.effective_rank == 3
        assert_whole_block_cores(blocks, dec, residuals)


def test_decouple_at_full_rank_hands_the_given_blocks_over_as_cores(rng):
    coeffs = [rng.standard_normal((4, 3)) for _ in range(2)]
    given = coeffs[:]
    dec = decouple(coeffs, 3)
    assert all(core is block for core, block in zip(dec.cores, given))
    assert all(r is not b and r.shape == (4, 3) and not r.any() for r, b in zip(coeffs, given))
    assert not np.shares_memory(coeffs[0], coeffs[1])


# --- residual filtering -------------------------------------------------------


def test_filter_identical_residuals(rng):
    b = rng.standard_normal((5, 4))
    b[2] = 0.0  # one exactly-zero row
    mask, consist, tau, _ = filter_residuals([b.copy(), b.copy(), b.copy()], gamma=20.0, rho=0.5)
    assert set(np.round(consist, 9)) <= {0.0, 1.0}
    assert consist[2] == 0.0
    # the median consistency is 1 here, so rows at full agreement sit at tau
    assert tau == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(mask[np.round(consist, 9) == 1.0], 0.5, atol=1e-9)


def test_filter_consistent_rows_pass_when_majority_is_noise(rng):
    # two rows identical across experts, six rows of independent noise:
    # tau lands in the noise (<= 0.5), so the consistent rows open up
    mats = [rng.standard_normal((8, 6)) for _ in range(3)]
    shared = rng.standard_normal((2, 6))
    for m in mats:
        m[:2] = shared
    mask, consist, tau, _ = filter_residuals(mats, gamma=20.0, rho=0.5)
    assert tau <= 0.5
    np.testing.assert_allclose(consist[:2], [1.0, 1.0], atol=1e-12)
    assert np.all(mask[:2] >= 0.999)  # sigmoid(20 * (1 - tau))


def test_filter_mask_half_at_threshold(rng):
    residuals = [rng.standard_normal((6, 4)) for _ in range(3)]
    mask, consist, tau, _ = filter_residuals(residuals, gamma=20.0, rho=0.5)
    at_tau = consist == tau
    assert at_tau.any()
    assert np.all(mask[at_tau] == 0.5)


def test_filter_mask_monotone(rng):
    residuals = [rng.standard_normal((8, 5)) for _ in range(4)]
    mask, consist, _, _ = filter_residuals(residuals, gamma=20.0, rho=0.5)
    order = np.argsort(consist)
    assert np.all(np.diff(mask[order]) >= 0)


def test_filter_l1_compensation_hand_example():
    # rows with L1 mass {2, 2}; mask [1, 0.5] -> masked mass 3, factor 4/3
    b = np.array([[1.0, 1.0], [2.0, 0.0]])
    mask = np.array([1.0, 0.5])
    masked = mask[:, None] * b
    compensated = masked * (np.abs(b).sum() / np.abs(masked).sum())
    np.testing.assert_allclose(np.abs(compensated).sum(axis=1), [8.0 / 3.0, 4.0 / 3.0])


def test_filter_preserves_l1_mass(rng):
    residuals = [rng.standard_normal((7, 5)) for _ in range(3)]
    filtered = [r.copy() for r in residuals]
    filter_residuals(filtered, gamma=20.0, rho=0.5)
    for before, after in zip(residuals, filtered):
        assert abs(np.abs(after).sum() - np.abs(before).sum()) <= 1e-9 * np.abs(before).sum()


def test_filter_single_expert_passthrough(rng):
    b = rng.standard_normal((4, 3))
    filtered = [b.copy()]
    mask, consist, tau, kept = filter_residuals(filtered, gamma=20.0, rho=0.5)
    np.testing.assert_array_equal(filtered[0], b)
    assert kept == [1.0]
    np.testing.assert_array_equal(mask, np.ones(4))
    assert tau is None


def test_filter_near_zero_mass_skips_compensation():
    # exact zeros: masking removed nothing, so they pass through without a warning
    zero = np.zeros((2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        filtered = [zero.copy(), zero.copy()]
        filter_residuals(filtered, gamma=20.0, rho=0.5)
    np.testing.assert_array_equal(filtered[0], zero)
    # a tiny nonzero residual whose masked mass is below ZERO_NORM is masked, not rescaled
    tiny = np.full((2, 2), 1e-14)
    filtered = [tiny.copy(), tiny.copy()]
    with pytest.warns(UserWarning, match="mass"):
        mask = filter_residuals(filtered, gamma=20.0, rho=0.5)[0]
    np.testing.assert_array_equal(filtered[0], mask[:, None] * tiny)


def test_filter_compensates_a_masked_mass_just_above_zero_norm():
    # Equal rows give equal consistencies, so tau is one of them and the mask is 0.5;
    # the masked mass 2e-12 is above ZERO_NORM, so the L1 mass is restored exactly.
    small = np.full((2, 2), 1e-12)
    filtered = [small.copy(), small.copy()]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mask, _, _, kept = filter_residuals(filtered, gamma=20.0, rho=0.5)
    np.testing.assert_array_equal(mask, [0.5, 0.5])
    assert kept == [0.5, 0.5]
    for block in filtered:
        np.testing.assert_array_equal(block, small)


@pytest.mark.parametrize("n, k", [(1, 6), (2, 6), (5, 6), (3, 0)])
def test_filter_on_zero_residuals_gives_the_bits_of_the_pass(monkeypatch, n, k):
    # All residuals zero, as at full rank: the filter skips its per-row pass and
    # returns what the pass gives on the same zeros. A -0.0 entry keeps its sign.
    zeros = [np.zeros((k, 4)) for _ in range(n)]
    if k:
        zeros[-1][0, 0] = -0.0
    if n > 1 and k:
        consist = pivot._consistencies(zeros)
        tau = pivot.threshold_from_ratio(consist, 0.5)
        mask = linalg.sigmoid(20.0 * (consist - tau))
    else:
        consist, mask, tau = np.ones(k), np.ones(k), None
    passes = []
    monkeypatch.setattr(pivot, "_consistencies", lambda mats: passes.append(mats))
    filtered = [z.copy() for z in zeros]
    got_mask, got_consist, got_tau, kept = filter_residuals(filtered, gamma=20.0, rho=0.5)
    assert passes == []
    np.testing.assert_array_equal(bits(got_consist), bits(consist))
    np.testing.assert_array_equal(bits(got_mask), bits(mask))
    if tau is None:
        assert got_tau is None
    else:
        assert bits(got_tau) == bits(tau)
    for got, zero in zip(filtered, zeros):
        np.testing.assert_array_equal(bits(got), bits(zero * mask[:, None]))
    assert kept == [None] * n


def test_filter_consistencies_match_gathered_unit_rows(rng):
    # rows below ZERO_NORM get zero unit rows; the result must be the bytes of a
    # boolean-mask gather and scatter of the normalized rows
    mats = [rng.standard_normal((6, 5)) for _ in range(4)]
    mats[0][1] = 0.0
    mats[2][[1, 4]] = 0.0
    mats[3][5] = 1e-13
    stack = np.stack(mats)
    norms = np.linalg.norm(stack, axis=2)
    ok = norms >= linalg.ZERO_NORM
    unit = np.zeros_like(stack)
    unit[ok] = stack[ok] / norms[ok][:, None]
    gram = np.einsum("ikw,jkw->kij", unit, unit)
    pair_sum = gram.sum(axis=(1, 2)) - np.einsum("kii->k", gram)
    want = np.clip(pair_sum / (4 * 3), -1.0, 1.0)
    consistencies = filter_residuals(mats, gamma=20.0, rho=0.5)[1]
    np.testing.assert_array_equal(consistencies, want)


def _stacked_consistencies(mats):
    # all N unit blocks at once, as the filter scored rows before it took row chunks
    n = len(mats)
    stack = np.stack(mats)
    norms = np.linalg.norm(stack, axis=2)
    unit = np.zeros_like(stack)
    np.divide(stack, norms[..., None], out=unit, where=(norms >= linalg.ZERO_NORM)[..., None])
    gram = np.einsum("ikw,jkw->kij", unit, unit)
    pair_sum = gram.sum(axis=(1, 2)) - np.einsum("kii->k", gram)
    return np.clip(pair_sum / (n * (n - 1)), -1.0, 1.0)


@pytest.mark.parametrize("n, k, w", [(4, 200, 1025), (8, 1100, 65), (3, 37, 11), (2, 3, 70000)])
def test_filter_consistencies_match_stacked_form_across_row_chunks(n, k, w):
    # 200 x 1025 blocks span four row chunks, 1100 x 65 two; 70000 columns give one row per chunk
    gen = np.random.default_rng(n * k)
    mats = [gen.standard_normal((k, w)) for _ in range(n)]
    mats[0][1] = 0.0
    mats[-1][k - 1] = 1e-13
    want = _stacked_consistencies(mats)
    consistencies = filter_residuals(mats, gamma=20.0, rho=0.5)[1]
    np.testing.assert_array_equal(consistencies, want)


def test_stage_functions_overwrite_the_blocks_they_are_given(rng):
    # Each stage works in the storage of the per-expert blocks it is given; none copies them.
    shared, coeffs = joint_decompose(stacked([rng.standard_normal((12, 9)) for _ in range(3)]))
    blocks = [c.copy() for c in coeffs]
    storage = coeffs[:]
    dec = decouple(coeffs, 3)
    assert all(r is b for r, b in zip(coeffs, storage))
    for block, core, resid in zip(blocks, dec.cores, coeffs):
        np.testing.assert_array_equal(resid, block - pivot._dense(core))
    raw = [r.copy() for r in coeffs]
    filter_residuals(coeffs, 20.0, 0.5)
    assert all(r is b for r, b in zip(coeffs, storage))
    assert any((r != f).any() for r, f in zip(raw, coeffs))
    merged = merge_layer(shared.s, dec.cores, coeffs, [0.2, 0.3, 0.5], MergeOperator.ties(1.0))
    assert dec.cores == [] and coeffs == [] and merged.shape == (12, 9)


# --- layer merge and reconstruction ------------------------------------------


def _decomposed_layer(rng, n=3, d=8, w=5, rank=2):
    deltas = [rng.standard_normal((d, w)) for _ in range(n)]
    shared, coeffs = joint_decompose(stacked(deltas))
    cores = decouple(coeffs, rank).cores
    filter_residuals(coeffs, 20.0, 0.5)
    return shared, cores, coeffs


def test_merge_layer_single_expert_passthrough(rng):
    deltas = [rng.standard_normal((6, 4))]
    shared, coeffs = joint_decompose(stacked(deltas))
    want = coeffs[0].copy()
    cores = decouple(coeffs, 2).cores
    merged = merge_layer(shared.s, cores, coeffs, [1.0], MergeOperator.ties(1.0))
    np.testing.assert_allclose(merged, want, atol=1e-10)


def test_merge_layer_identical_experts(rng):
    # Identical experts make the per-block spectra fully degenerate, so a
    # partial-rank core split is arbitrary; at full rank the residual vanishes
    # and the merge must reproduce the common input.
    d = rng.standard_normal((6, 4))
    shared, coeffs = joint_decompose(stacked([d, d, d]))
    cores = decouple(coeffs, 4).cores
    filter_residuals(coeffs, 20.0, 0.5)
    merged = merge_layer(shared.s, cores, coeffs, [1 / 3] * 3, MergeOperator.ties(1.0))
    assert rel_error((shared.u * shared.s) @ merged, d) <= 1e-8


def test_merge_layer_linear_inner_is_mean(rng):
    shared, cores, filtered = _decomposed_layer(rng)
    expected = np.mean([pivot._dense(a) + b for a, b in zip(cores, filtered)], axis=0)
    merged = merge_layer(shared.s, cores, filtered, [1 / 3] * 3, MergeOperator.average())
    np.testing.assert_allclose(merged, expected, atol=1e-12)


@pytest.mark.parametrize("op", [MergeOperator.ties(1.0), MergeOperator.ties(0.2),
                                MergeOperator.dare_ties(0.2, 0.5, seed=11)],
                         ids=["ties-1.0", "ties-0.2", "dare-ties-0.2"])
@pytest.mark.parametrize("n", [1, 4])
def test_merge_layer_matches_merging_scaled_copies(op, n):
    # 125 x 420 blocks span four TIES column chunks; one singular value is zero
    gen = np.random.default_rng(17 + n)
    s = np.sort(gen.uniform(0.5, 4.0, 125))[::-1]
    s[-1] = 0.0
    cores = [gen.standard_normal((125, 420)) for _ in range(n)]
    filtered = [gen.standard_normal((125, 420)) for _ in range(n)]
    alphas = gen.uniform(0.1, 1.0, n)
    col = s[:, None]

    def scaled_merge(blocks, weights):
        merged = merge_weighted(op, [col * b for b in blocks], weights)
        return np.divide(merged, col, out=np.zeros_like(merged), where=col > 0.0)

    want = scaled_merge(cores, alphas) + scaled_merge(filtered, [1.0] * n)
    got = merge_layer(s, cores, filtered, alphas, op)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert not got[-1].any()


@pytest.mark.parametrize("op", [MergeOperator.ties(1.0), MergeOperator.dare_ties(0.2, 0.5, seed=11)],
                         ids=["ties-1.0", "dare-ties-0.2"])
def test_merge_layer_rejects_a_spectrum_overflow_naming_the_input(op):
    blocks = [np.ones((3, 2)), np.full((3, 2), 1e300)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="ties input 1 contains NaN or Inf"):
            merge_layer(np.full(3, 1e10), [b.copy() for b in blocks], blocks, [0.5, 0.5], op)


def test_reconstruct_zero_coeffs_returns_base(rng):
    base = make_checkpoint("base", rng, [4, 6])
    shared, coeffs = joint_decompose(rng.standard_normal((6, 1, 5)))
    out = reconstruct(shared, np.zeros_like(coeffs[0]), base.layers[0])
    np.testing.assert_allclose(out.weight, base.layers[0].weight, atol=1e-12)
    np.testing.assert_allclose(out.bias, base.layers[0].bias, atol=1e-12)


def test_reconstruct_roundtrip_single_expert(rng):
    base = make_checkpoint("base", rng, [4, 6])
    expert = make_checkpoint("e", rng, [4, 6])
    shared, coeffs = joint_decompose(task_vectors([expert], base.layers[0], 0))
    out = reconstruct(shared, coeffs[0], base.layers[0])
    assert rel_error(out.weight, expert.layers[0].weight) <= 1e-8
    assert rel_error(out.bias, expert.layers[0].bias) <= 1e-8


# --- full pipeline -------------------------------------------------------------


def test_pivot_merge_single_expert_identity(rng):
    base = make_checkpoint("base", rng, [3, 5, 4, 6])
    expert = make_checkpoint("e1", rng, [3, 5, 4, 6])
    merged, diag = pivot_merge([expert], base, uniform_table([expert], 3),
                               PivotConfig(rank=2))
    assert checkpoint_rel_error(merged, expert) <= 1e-8
    assert diag["expert_ids"] == ["e1"]
    assert len(diag["layers"]) == 3


def test_pivot_merge_identical_experts_idempotent(rng):
    base = make_checkpoint("base", rng, [3, 5, 4])
    expert = make_checkpoint("e", rng, [3, 5, 4])
    copies = [
        make_checkpoint(f"e{i}", np.random.default_rng(0), [3, 5, 4]) for i in range(3)
    ]
    for ck in copies:  # same layers, distinct ids
        object.__setattr__(ck, "layers", expert.layers)
    # default rank clamps to the full block rank on layers this small
    with pytest.warns(UserWarning, match=r"rank 64 exceeds the block rank limit of layer 1 \(4\), "
                                         r"layer 2 \(4\); clamping"):
        merged, _ = pivot_merge(copies, base, uniform_table(copies, 2), PivotConfig())
    assert checkpoint_rel_error(merged, expert) <= 1e-8


def _gram_tail_experts(base, n, gen):
    # Experts whose one 12 x 5 layer's deltas concatenate to a planted 12 x 15 C with
    # lambda_min / lambda_max = 1e-8 < GRAM_COND_RTOL. Only m = 12 - (n - 1) * 5 = 2
    # coefficient eigenvalues are exactly 1, so a rank-3 cut is not a tied one.
    matrix = base.layers[0].matrix
    width = matrix.shape[1]
    spectrum = np.geomspace(1.0, 1e-4, matrix.shape[0])
    concat = planted(spectrum, n * width, seed=int(gen.integers(99)))
    return [ProjectorCheckpoint(id=f"e{i}", layers=(
        Layer(matrix + concat[:, i * width:(i + 1) * width], has_bias=True),)) for i in range(n)]


def test_pivot_merge_matches_straight_line_oracle(rng):
    # a random 3-layer chain on the certified Gram route, at rank 3 and at rank 64
    # (every cut full rank, every residual zero); one layer whose uncertified Gram
    # eigenpairs take the Rayleigh-Ritz tail; one tall layer, a 20 x 15 concatenation
    # on the thin-SVD route, at rank 5 = w (below w its cut is tied, so the
    # oracle's SVD would pick an arbitrary core)
    base = make_checkpoint("base", rng, [4, 7, 5, 6])
    experts = [make_checkpoint(f"e{i}", rng, [4, 7, 5, 6]) for i in range(3)]
    scores = np.array([[0.2, 0.5, 0.6], [0.1, 0.4, 0.45], [0.3, 0.35, 0.7]])
    tail_base = make_checkpoint("base", rng, [4, 12])
    tall_base = make_checkpoint("base", rng, [4, 20])
    tall_experts = [make_checkpoint(f"e{i}", rng, [4, 20]) for i in range(3)]
    cases = [(base, experts, scores, [0, 0, 0], 3),
             (tail_base, _gram_tail_experts(tail_base, 3, rng), scores[:, :1], [6], 3),
             (tall_base, tall_experts, scores[:, :1], [None], 5),
             (base, experts, scores, [0, 0, 0], 64)]
    for base, experts, scores, tails, rank in cases:
        config = PivotConfig(rank=rank, gamma=20.0, rho=0.5)
        table = ScoreTable(expert_ids=("e0", "e1", "e2"), scores=scores, beta=0.05)
        with warnings.catch_warnings():
            # rank 64 clamps to each block's rank limit
            warnings.simplefilter("ignore")
            merged, diagnostics = pivot_merge(experts, base, table, config)
        assert [layer["joint_tail"] for layer in diagnostics["layers"]] == tails

        base_layers = [(l.weight, l.bias) for l in base.layers]
        expert_layers = [[(l.weight, l.bias) for l in ck.layers] for ck in experts]
        want = reference_pivot_merge(base_layers, expert_layers, scores,
                                     rank=rank, gamma=20.0, rho=0.5, beta=0.05,
                                     trim=1.0, magnitude=True)
        for got, (w_want, b_want) in zip(merged.layers, want):
            assert rel_error(got.weight, w_want) <= 1e-8
            assert rel_error(got.bias, b_want) <= 1e-8


def test_pivot_merge_well_conditioned_wide_layer_factors_without_svd_or_qr(rng, monkeypatch):
    # one 64x65 layer, N=4: the 64x260 concatenation takes the certified Gram
    # route and every rank-8 cut the certified eigengap route
    base = make_checkpoint("base", rng, [64, 64])
    experts = [make_checkpoint(f"e{i}", rng, [64, 64]) for i in range(4)]
    calls = []

    def counting(name, real):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(pivot, "thin_svd", counting("thin_svd", pivot.thin_svd))
    monkeypatch.setattr(linalg, "thin_svd", counting("thin_svd", linalg.thin_svd))
    monkeypatch.setattr(np.linalg, "qr", counting("qr", np.linalg.qr))
    merged, _ = pivot_merge(experts, base, uniform_table(experts, 1), PivotConfig(rank=8))
    assert calls == []
    assert np.isfinite(merged.layers[0].matrix).all()


@pytest.mark.parametrize("rank, full", [(2, False), (5, True)], ids=["below-full", "full"])
def test_the_kernel_frees_the_merged_blocks_before_reconstructing(rng, monkeypatch, rank, full):
    # Stage results are unpacked into the kernel's lists, so once the merge
    # empties them no result object keeps a residual (or, below full rank, a
    # core) alive. The full-rank branch merges the cores it still holds.
    base = make_checkpoint("base", rng, [6, 5])
    experts = [make_checkpoint(f"e{i}", rng, [6, 5]) for i in range(3)]
    refs = {}
    alive = []
    real_decouple, real_reconstruct = pivot.decouple, pivot.reconstruct

    def decouple_tracked(coeffs, r):
        dec = real_decouple(coeffs, r)
        refs["residuals"] = [weakref.ref(b) for b in coeffs]
        refs["cores"] = [weakref.ref(a) for c in dec.cores
                         for a in (c if isinstance(c, tuple) else (c,))]
        return dec

    def reconstruct_tracked(shared, merged_coeffs, base_layer):
        alive.append({name: sum(r() is not None for r in rs) for name, rs in refs.items()})
        return real_reconstruct(shared, merged_coeffs, base_layer)

    monkeypatch.setattr(pivot, "decouple", decouple_tracked)
    monkeypatch.setattr(pivot, "reconstruct", reconstruct_tracked)
    # 3 experts' (5, 7) blocks: rank 5 is full rank
    _, diag = pivot_merge(experts, base, uniform_table(experts, 1), PivotConfig(rank=rank))
    assert diag["layers"][0]["core_route"] == (["full"] * 3 if full else ["eig"] * 3)
    assert len(alive) == 1 and alive[0]["residuals"] == 0
    if not full:
        assert alive[0]["cores"] == 0


def test_pivot_merge_peak_memory_stays_under_sixteen_layer_blocks(rng):
    # One 512->512 layer, N=4, rank 64. Keeping every stage's per-expert block
    # set alive to the end of the layer peaked at 30.1 layer blocks.
    base = make_checkpoint("base", rng, [512, 512])
    experts = [make_checkpoint(f"e{i}", rng, [512, 512]) for i in range(4)]
    block = base.layers[0].matrix.nbytes
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        merged, _ = pivot_merge(experts, base, uniform_table(experts, 1), PivotConfig(rank=64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - before) / block < 16
    assert np.isfinite(merged.layers[0].matrix).all()


@pytest.mark.parametrize("op, bound", [(MergeOperator.ties(0.2), 16.0),
                                       (MergeOperator.dare_ties(0.2, 0.5, seed=11), 16.7)],
                         ids=["ties-0.2", "dare-ties-0.2"])
def test_pivot_merge_scales_its_blocks_without_copies(rng, op, bound):
    # The layer of the test above, whose default inner op is ties 1.0. The
    # kernel scales its cores and filtered blocks by the spectrum in place;
    # scaled copies of dare-ties' N inputs before dropping peaked at 17.2 blocks.
    base = make_checkpoint("base", rng, [512, 512])
    experts = [make_checkpoint(f"e{i}", rng, [512, 512]) for i in range(4)]
    block = base.layers[0].matrix.nbytes
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        merged, _ = pivot_merge(experts, base, uniform_table(experts, 1),
                                PivotConfig(rank=64, inner=op))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - before) / block < bound
    assert np.isfinite(merged.layers[0].matrix).all()


def _traced_merge_blocks(op):
    rng = np.random.default_rng(12345)
    base = make_checkpoint("base", rng, [512, 512])
    experts = [make_checkpoint(f"e{i}", rng, [512, 512]) for i in range(4)]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        merged, _ = pivot_merge(experts, base, uniform_table(experts, 1),
                                PivotConfig(rank=64, inner=op))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(merged.layers[0].matrix).all()
    return (peak - before) / base.layers[0].matrix.nbytes


@pytest.mark.parametrize("op, bound", [(MergeOperator.ties(1.0), 10.0),
                                       (MergeOperator.ties(0.2), 10.0),
                                       (MergeOperator.average(), 10.0),
                                       (MergeOperator.dare_ties(0.2, 0.5, seed=11), 13.0)],
                         ids=["ties-1.0", "ties-0.2", "average", "dare-ties-0.2"])
def test_pivot_merge_kernel_stays_within_2n_plus_2_layer_blocks(op, bound):
    # The layer above, N=4: 2N + 2 = 10 blocks, and dare-ties' N dropped copies
    # on top. Stages that each allocated a new block set held 14.0 blocks
    # (16.2 with dare-ties); overwriting the owned blocks and keeping the
    # cores as rank-r factors peaks at the joint projection, 2N + 1.
    assert _traced_merge_blocks(op) < bound


def _single_layer_case(case, gen):
    # "single" is the wide layer with one expert; "-single" gives a case one expert.
    shape = case.removesuffix("-single")
    chain = {"wide": [16, 24], "tall": [3, 40], "gram-tail": [9, 24], "full-rank": [3, 8],
             "single": [16, 24], "all-zero": [5, 12]}[shape]
    base = make_checkpoint("base", gen, chain)
    experts = [make_checkpoint(f"e{i}", gen, chain)
               for i in range(1 if case.endswith("single") else 3)]
    if shape == "gram-tail":
        # A duplicated expert leaves the 24 x 30 concatenation of rank 20.
        experts[2] = ProjectorCheckpoint(id="e2", layers=experts[0].layers)
    if shape == "all-zero":
        experts = [ProjectorCheckpoint(id=e.id, layers=base.layers) for e in experts]
    return base, experts


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("op", [MergeOperator.ties(1.0), MergeOperator.ties(0.2),
                                MergeOperator.dare_ties(0.2, 0.5, seed=3),
                                MergeOperator.average(), MergeOperator.arithmetic(0.7)],
                         ids=["ties-1.0", "ties-0.2", "dare-ties", "average", "arithmetic"])
@pytest.mark.parametrize("case, rank, joint_svd", [
    ("wide", 4, []), ("tall", 2, [(40, 12)]), ("gram-tail", 4, [(4, 30)]),
    ("full-rank", 64, []), ("single", 4, [(24, 17)]), ("all-zero", 4, []),
    ("full-rank-single", 64, [(8, 4)]), ("all-zero-single", 4, [])])
def test_pivot_merge_matches_the_public_stage_chain_bit_for_bit(monkeypatch, op, case, rank,
                                                                 joint_svd):
    # The kernel skips the residual merge at full rank; the public chain
    # merges the zero residuals.
    gen = np.random.default_rng(41)
    base, experts = _single_layer_case(case, gen)
    table = ScoreTable(expert_ids=tuple(e.id for e in experts),
                       scores=gen.uniform(size=(len(experts), 1)), beta=0.05)
    config = PivotConfig(rank=rank, inner=op)
    shapes = []
    real = pivot.thin_svd
    monkeypatch.setattr(pivot, "thin_svd", lambda m: shapes.append(m.shape) or real(m))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        merged, diagnostics = pivot_merge(experts, base, table, config)
        assert shapes == joint_svd
        shared, coeffs = joint_decompose(task_vectors(experts, base.layers[0], 0))
        dec = decouple(coeffs, rank)
        mask, consistencies, tau, _ = filter_residuals(coeffs, config.gamma, config.rho)
    full_rank = dec.effective_rank == min(coeffs[0].shape)
    alphas = layer_weights(score_increments(table.rows_for(table.expert_ids, 1)), 0.05)[:, 0]
    merged_coeffs = merge_layer(shared.s, dec.cores, coeffs, alphas, op)
    want = reconstruct(shared, merged_coeffs, base.layers[0])
    np.testing.assert_array_equal(merged.layers[0].matrix.view(np.uint64),
                                  want.matrix.view(np.uint64))
    record = diagnostics["layers"][0]
    np.testing.assert_array_equal(bits(record["mask"]), bits(mask))
    np.testing.assert_array_equal(bits(record["consistency"]), bits(consistencies))
    assert (record["tau"] is None) == (tau is None)
    if tau is not None:
        assert bits(record["tau"]) == bits(tau)
    if full_rank:
        assert record["residual_mass_kept"] == [None] * len(experts)


@pytest.mark.parametrize("case, filters, merges", [("full-rank", 0, 1), ("wide", 1, 2),
                                                   ("all-zero", 0, 1)])
def test_a_full_rank_layer_skips_the_residual_filter_and_merge(monkeypatch, case, filters,
                                                                merges):
    # The filter runs for every layer; on zero residuals it skips its per-row pass.
    calls = []
    for name in ("_consistencies", "merge_weighted"):
        real = getattr(pivot, name)
        monkeypatch.setattr(pivot, name,
                            lambda *a, name=name, real=real: calls.append(name) or real(*a))
    base, experts = _single_layer_case(case, np.random.default_rng(41))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pivot_merge(experts, base, uniform_table(experts, 1),
                    PivotConfig(rank=64 if case == "full-rank" else 4))
    assert calls.count("_consistencies") == filters
    assert calls.count("merge_weighted") == merges


@pytest.mark.parametrize("case, tail", [("wide", 0), ("gram-tail", 4), ("tall", None),
                                        ("single", None), ("all-zero", None)])
def test_layer_records_report_the_joint_tail(case, tail):
    # b directions refined by the Rayleigh-Ritz step on the wide Gram route, 0 when
    # certified; null for a tall or square layer's thin SVD and an all-zero layer
    base, experts = _single_layer_case(case, np.random.default_rng(41))
    table = uniform_table(experts, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        record = pivot_merge(experts, base, table, PivotConfig(rank=4))[1]["layers"][0]
        shared = joint_decompose(task_vectors(experts, base.layers[0], 0))[0]
    assert record["joint_tail"] == shared.joint_tail == tail
    if tail:
        assert np.count_nonzero(shared.s > linalg.RANK_RTOL * shared.s[0]) == 20


@pytest.mark.parametrize("n, rank, route", [(3, 4, "eig"), (1, 4, "svd"), (3, 64, "full")],
                         ids=["wide", "single", "full-rank"])
def test_layer_records_report_core_energy_and_residual_mass_kept(n, rank, route):
    # A single expert's coefficient block is V^T, whose Gram eigenvalues all
    # equal 1, so every cut below full rank is tied and takes the SVD fallback.
    gen = np.random.default_rng(29)
    base = make_checkpoint("base", gen, [16, 24, 24])
    experts = [make_checkpoint(f"e{i}", gen, [16, 24, 24]) for i in range(n)]
    config = PivotConfig(rank=rank)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        records = [pivot_merge(experts, base, uniform_table(experts, 2), config)[1]["layers"]
                   for _ in range(2)]
        stages = []
        for li in range(base.num_layers):
            residuals = joint_decompose(task_vectors(experts, base.layers[li], li))[1]
            blocks = [b.copy() for b in residuals]
            dec = decouple(residuals, rank)
            mask = filter_residuals([r.copy() for r in residuals], config.gamma, config.rho)[0]
            stages.append((blocks, dec, residuals, mask))

    def fields(layers):
        return [(r["core_energy"], r["residual_mass_kept"], r["core_route"]) for r in layers]

    assert fields(records[0]) == fields(records[1])
    assert [r["core_route"] for r in records[0]] == [[route] * n] * base.num_layers
    for record, (blocks, dec, residuals, mask) in zip(records[0], stages):
        assert record["core_energy"] == dec.core_energy
        assert record["core_route"] == dec.core_route
        for energy, kept, block, core, resid in zip(record["core_energy"],
                                                    record["residual_mass_kept"],
                                                    blocks, dec.cores, residuals):
            core = pivot._dense(core)
            assert abs(energy - np.sum(core ** 2) / np.sum(block ** 2)) <= 1e-12
            if resid.any():
                masked = np.abs(resid * mask[:, None]).sum() / np.abs(resid).sum()
                assert abs(kept - masked) <= 1e-12
            else:
                assert kept is None


def test_pivot_merge_expert_order_invariant(rng):
    base = make_checkpoint("base", rng, [3, 5, 4])
    experts = [make_checkpoint(f"e{i}", rng, [3, 5, 4]) for i in range(3)]
    table = uniform_table(experts, 2)
    forward, _ = pivot_merge(experts, base, table, PivotConfig(rank=2))
    backward, _ = pivot_merge(experts[::-1], base, table, PivotConfig(rank=2))
    for la, lb in zip(forward.layers, backward.layers):
        np.testing.assert_array_equal(la.weight, lb.weight)
        np.testing.assert_array_equal(la.bias, lb.bias)


def test_pivot_merge_deterministic(rng):
    base = make_checkpoint("base", rng, [3, 5, 4])
    experts = [make_checkpoint(f"e{i}", rng, [3, 5, 4]) for i in range(4)]
    table = uniform_table(experts, 2)
    config = PivotConfig(rank=2, inner=MergeOperator.dare_ties(1.0, 0.3, seed=5))
    a, diag_a = pivot_merge(experts, base, table, config)
    b, diag_b = pivot_merge(experts, base, table, config)
    for la, lb in zip(a.layers, b.layers):
        np.testing.assert_array_equal(la.weight, lb.weight)
    assert diag_a == diag_b


def test_pivot_merge_requires_score_coverage(rng):
    base = make_checkpoint("base", rng, [3, 5])
    experts = [make_checkpoint(f"e{i}", rng, [3, 5]) for i in range(2)]
    bad_ids = ScoreTable(expert_ids=("e0", "other"), scores=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="missing"):
        pivot_merge(experts, base, bad_ids, PivotConfig(rank=2))
    bad_layers = ScoreTable(expert_ids=("e0", "e1"), scores=np.zeros((2, 3)))
    with pytest.raises(ValueError, match="layers"):
        pivot_merge(experts, base, bad_layers, PivotConfig(rank=2))


def test_pivot_merge_zero_deltas_returns_base(rng):
    base = make_checkpoint("base", rng, [3, 5])
    copies = []
    for i in range(2):
        ck = make_checkpoint(f"e{i}", rng, [3, 5])
        object.__setattr__(ck, "layers", base.layers)
        copies.append(ck)
    with pytest.warns(UserWarning, match="zero"):
        merged, diag = pivot_merge(copies, base, uniform_table(copies, 1),
                                   PivotConfig(rank=2))
    assert checkpoint_rel_error(merged, base) == 0.0
    assert diag["layers"][0]["singular_values"] == []


@pytest.mark.parametrize("op", [MergeOperator.ties(1.0), MergeOperator.ties(0.3),
                                MergeOperator.dare_ties(1.0, 0.5), MergeOperator.average()],
                         ids=["ties-1.0", "ties-0.3", "dare-ties", "average"])
@pytest.mark.parametrize("rank", [2, 9], ids=["wide", "full-rank"])
def test_pivot_merge_is_equivariant_under_power_of_two_scaling(op, rank):
    # At 2^-45 every joint singular value is below 1e-12 and the merge is the
    # scaled merge bit for bit; at 2^-400 the Gram step rescales, so it
    # agrees to rounding.
    _, experts, _ = generate(SynthSpec.from_chain([8, 16, 16], experts=3, core_rank=2, seed=1))
    base = zero_checkpoint(experts[0])
    table = uniform_table(experts, base.num_layers)
    config = PivotConfig(rank=rank, inner=op)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want, _ = pivot_merge(experts, base, table, config)
        small, _ = pivot_merge([scaled_checkpoint(e, -45) for e in experts], base, table, config)
        tiny, _ = pivot_merge([scaled_checkpoint(e, -400) for e in experts], base, table, config)
    for w, s, t in zip(want.layers, small.layers, tiny.layers):
        assert w.matrix.any()
        np.testing.assert_array_equal(s.matrix.view(np.uint64),
                                      np.ldexp(w.matrix, -45).view(np.uint64))
        assert rel_error(np.ldexp(t.matrix, 400), w.matrix) <= 1e-12


def test_pivot_config_validation():
    with pytest.raises(ValueError, match="rank must be >= 1, got 0"):
        PivotConfig(rank=0)
    with pytest.raises(ValueError):
        PivotConfig(gamma=0.0)
    with pytest.raises(ValueError, match=r"rho must be in \(0, 1\), got 1.0"):
        PivotConfig(rho=1.0)
    with pytest.raises(ValueError):
        PivotConfig(beta=-0.1)
    with pytest.raises(ValueError, match="gamma must be positive and finite, got inf"):
        PivotConfig(gamma=np.inf)
    with pytest.raises(ValueError, match="beta must be positive and finite, got inf"):
        PivotConfig(beta=np.inf)
    assert PivotConfig().inner.magnitude_based  # ties default
    assert not PivotConfig(inner=MergeOperator.average()).inner.magnitude_based


def test_mask_values_strictly_positive(rng):
    residuals = [rng.standard_normal((10, 6)) for _ in range(3)]
    mask = filter_residuals(residuals, gamma=20.0, rho=0.5)[0]
    assert np.all(mask > 0.0)
    assert np.all(mask <= 1.0)


def test_pivot_merge_without_bias(rng):
    base = make_checkpoint("base", rng, [3, 5, 4], with_bias=False)
    experts = [make_checkpoint(f"e{i}", rng, [3, 5, 4], with_bias=False)
               for i in range(3)]
    merged, _ = pivot_merge(experts, base, uniform_table(experts, 2),
                            PivotConfig(rank=2))
    assert merged.num_layers == 2
    assert not merged.has_bias


def test_pivot_merge_rejects_bias_mismatch(rng):
    base = make_checkpoint("base", rng, [3, 5], with_bias=True)
    expert = make_checkpoint("e", rng, [3, 5], with_bias=False)
    with pytest.raises(ValueError, match="bias"):
        pivot_merge([expert], base, uniform_table([expert], 1), PivotConfig(rank=2))
