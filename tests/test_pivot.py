import numpy as np
import pytest

from pivotmerge import (
    MergeOperator,
    PivotConfig,
    ScoreTable,
    decouple,
    filter_residuals,
    joint_decompose,
    merge_layer,
    pivot_merge,
    reconstruct,
    task_vectors,
    thin_svd,
    truncate_rank,
)
from pivotmerge.pivot import _merge_one_layer
from conftest import checkpoint_rel_error, make_checkpoint, rel_error
from pipeline_oracle import reference_pivot_merge


def uniform_table(experts, num_layers, beta=0.05):
    return ScoreTable(expert_ids=tuple(e.id for e in experts),
                      scores=np.zeros((len(experts), num_layers)), beta=beta)


# --- task vectors ---------------------------------------------------------


def test_task_vectors_zero_for_identical(rng):
    base = make_checkpoint("base", rng, [3, 4, 2])
    deltas = task_vectors([base], base)
    for layer in deltas:
        np.testing.assert_array_equal(layer[0], np.zeros_like(layer[0]))


def test_task_vectors_roundtrip(rng):
    base = make_checkpoint("base", rng, [3, 4])
    expert = make_checkpoint("e", rng, [3, 4])
    from pivotmerge import augment
    deltas = task_vectors([expert], base)
    for li, layer in enumerate(deltas):
        np.testing.assert_allclose(augment(base.layers[li]).matrix + layer[0],
                                   augment(expert.layers[li]).matrix, atol=1e-15)


def test_task_vectors_zero_base_equals_augmented_experts(rng):
    from pivotmerge import Layer, ProjectorCheckpoint, augment
    expert = make_checkpoint("e", rng, [3, 4])
    zero_base = ProjectorCheckpoint(id="base", layers=tuple(
        Layer(weight=np.zeros_like(l.weight), bias=np.zeros_like(l.bias))
        for l in expert.layers))
    deltas = task_vectors([expert], zero_base)
    for li, layer in enumerate(deltas):
        np.testing.assert_array_equal(layer[0], augment(expert.layers[li]).matrix)


def test_task_vectors_shape_mismatch(rng):
    base = make_checkpoint("base", rng, [3, 4])
    other = make_checkpoint("e", rng, [3, 5])
    with pytest.raises(ValueError):
        task_vectors([other], base)


# --- joint decomposition ----------------------------------------------------


def test_joint_decompose_identical_blocks(rng):
    d = rng.standard_normal((6, 4))
    shared = joint_decompose([d, d, d])
    for block in shared.coeffs[1:]:
        np.testing.assert_allclose(block, shared.coeffs[0], atol=1e-10)


def test_joint_decompose_single_matches_thin_svd(rng):
    d = rng.standard_normal((5, 3))
    shared = joint_decompose([d])
    f = thin_svd(d)
    np.testing.assert_allclose(shared.u, f.u, atol=1e-12)
    np.testing.assert_allclose(shared.s, f.s, atol=1e-12)
    np.testing.assert_allclose(shared.coeffs[0], f.vt, atol=1e-12)


def test_joint_decompose_per_expert_reconstruction(rng):
    deltas = [rng.standard_normal((8, 5)) for _ in range(3)]
    shared = joint_decompose(deltas)
    for delta, block in zip(deltas, shared.coeffs):
        recon = (shared.u * shared.s) @ block
        assert rel_error(recon, delta) <= 1e-8


def test_joint_decompose_all_zero_flagged():
    with pytest.warns(UserWarning, match="zero"):
        shared = joint_decompose([np.zeros((4, 3)), np.zeros((4, 3))])
    assert shared.degenerate
    assert shared.u.shape == (4, 0)
    assert all(c.shape == (0, 3) for c in shared.coeffs)


# --- decoupling --------------------------------------------------------------


def test_decouple_full_rank_residual_zero(rng):
    block = rng.standard_normal((4, 3))
    dec = decouple([block], rank=3)
    assert np.linalg.norm(dec.residuals[0]) <= 1e-10


def test_decouple_diagonal_example():
    block = np.diag([3.0, 2.0, 1.0])
    dec = decouple([block], rank=1)
    np.testing.assert_allclose(dec.cores[0], np.diag([3.0, 0.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(dec.residuals[0], np.diag([0.0, 2.0, 1.0]), atol=1e-12)


def test_decouple_exact_split_and_rank(rng):
    blocks = [rng.standard_normal((6, 5)) for _ in range(3)]
    dec = decouple(blocks, rank=2)
    for block, core, resid in zip(blocks, dec.cores, dec.residuals):
        np.testing.assert_allclose(core + resid, block, rtol=0, atol=1e-12)
        s = np.linalg.svd(core, compute_uv=False)
        assert np.sum(s > 1e-10 * s[0]) <= 2


def test_decouple_clamps_rank_with_warning(rng):
    blocks = [rng.standard_normal((4, 3))]
    with pytest.warns(UserWarning, match="clamp"):
        dec = decouple(blocks, rank=64)
    assert dec.effective_rank == 3


# --- residual filtering -------------------------------------------------------


def test_filter_identical_residuals(rng):
    b = rng.standard_normal((5, 4))
    b[2] = 0.0  # one exactly-zero row
    filtered, mask, consist, tau = filter_residuals([b.copy(), b.copy(), b.copy()],
                                                    gamma=20.0, rho=0.5)
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
    filtered, mask, consist, tau = filter_residuals(mats, gamma=20.0, rho=0.5)
    assert tau <= 0.5
    np.testing.assert_allclose(consist[:2], [1.0, 1.0], atol=1e-12)
    assert np.all(mask[:2] >= 0.999)  # sigmoid(20 * (1 - tau))


def test_filter_mask_half_at_threshold(rng):
    residuals = [rng.standard_normal((6, 4)) for _ in range(3)]
    _, mask, consist, tau = filter_residuals(residuals, gamma=20.0, rho=0.5)
    at_tau = consist == tau
    assert at_tau.any()
    assert np.all(mask[at_tau] == 0.5)


def test_filter_mask_monotone(rng):
    residuals = [rng.standard_normal((8, 5)) for _ in range(4)]
    _, mask, consist, _ = filter_residuals(residuals, gamma=20.0, rho=0.5)
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
    filtered, _, _, _ = filter_residuals(residuals, gamma=20.0, rho=0.5)
    for before, after in zip(residuals, filtered):
        assert abs(np.abs(after).sum() - np.abs(before).sum()) <= 1e-9 * np.abs(before).sum()


def test_filter_single_expert_passthrough(rng):
    b = rng.standard_normal((4, 3))
    filtered, mask, consist, tau = filter_residuals([b], gamma=20.0, rho=0.5)
    np.testing.assert_array_equal(filtered[0], b)
    np.testing.assert_array_equal(mask, np.ones(4))
    assert tau is None


def test_filter_near_zero_mass_skips_compensation():
    b = np.zeros((2, 2))
    with pytest.warns(UserWarning, match="mass"):
        filtered, _, _, _ = filter_residuals([b, b.copy()], gamma=20.0, rho=0.5)
    np.testing.assert_array_equal(filtered[0], b)


# --- layer merge and reconstruction ------------------------------------------


def _decomposed_layer(rng, n=3, d=8, w=5, rank=2):
    deltas = [rng.standard_normal((d, w)) for _ in range(n)]
    shared = joint_decompose(deltas)
    dec = decouple(shared.coeffs, rank)
    filtered, mask, consist, tau = filter_residuals(dec.residuals, 20.0, 0.5)
    from dataclasses import replace
    return shared, replace(dec, filtered=filtered, mask=mask,
                           consistencies=consist, tau=tau)


def test_merge_layer_single_expert_passthrough(rng):
    deltas = [rng.standard_normal((6, 4))]
    shared = joint_decompose(deltas)
    dec = decouple(shared.coeffs, 2)
    from dataclasses import replace
    dec = replace(dec, filtered=dec.residuals)
    merged = merge_layer(shared, dec, [1.0], MergeOperator.ties(1.0), magnitude_space=True)
    np.testing.assert_allclose(merged, shared.coeffs[0], atol=1e-10)


def test_merge_layer_identical_experts(rng):
    # Identical experts make the per-block spectra fully degenerate, so a
    # partial-rank core split is arbitrary; at full rank the residual vanishes
    # and the merge must reproduce the common input.
    d = rng.standard_normal((6, 4))
    shared = joint_decompose([d, d, d])
    dec = decouple(shared.coeffs, 4)
    filtered, mask, consist, tau = filter_residuals(dec.residuals, 20.0, 0.5)
    from dataclasses import replace
    dec = replace(dec, filtered=filtered, mask=mask, consistencies=consist, tau=tau)
    merged = merge_layer(shared, dec, [1 / 3] * 3, MergeOperator.ties(1.0), True)
    assert rel_error((shared.u * shared.s) @ merged, d) <= 1e-8


def test_merge_layer_linear_inner_is_mean(rng):
    shared, dec = _decomposed_layer(rng)
    merged = merge_layer(shared, dec, [1 / 3] * 3, MergeOperator.average(),
                         magnitude_space=False)
    expected = np.mean([a + b for a, b in zip(dec.cores, dec.filtered)], axis=0)
    np.testing.assert_allclose(merged, expected, atol=1e-12)


def test_reconstruct_zero_coeffs_returns_base(rng):
    base = make_checkpoint("base", rng, [4, 6])
    deltas = [rng.standard_normal((6, 5))]
    shared = joint_decompose(deltas)
    out = reconstruct(shared, np.zeros_like(shared.coeffs[0]), base.layers[0])
    np.testing.assert_allclose(out.weight, base.layers[0].weight, atol=1e-12)
    np.testing.assert_allclose(out.bias, base.layers[0].bias, atol=1e-12)


def test_reconstruct_roundtrip_single_expert(rng):
    base = make_checkpoint("base", rng, [4, 6])
    expert = make_checkpoint("e", rng, [4, 6])
    deltas = task_vectors([expert], base)[0]
    shared = joint_decompose(deltas)
    out = reconstruct(shared, shared.coeffs[0], base.layers[0])
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
    merged, _ = pivot_merge(copies, base, uniform_table(copies, 2), PivotConfig())
    assert checkpoint_rel_error(merged, expert) <= 1e-8


def test_pivot_merge_matches_straight_line_oracle(rng):
    base = make_checkpoint("base", rng, [4, 7, 5, 6])
    experts = [make_checkpoint(f"e{i}", rng, [4, 7, 5, 6]) for i in range(3)]
    scores = np.array([[0.2, 0.5, 0.6], [0.1, 0.4, 0.45], [0.3, 0.35, 0.7]])
    table = ScoreTable(expert_ids=("e0", "e1", "e2"), scores=scores, beta=0.05)
    config = PivotConfig(rank=3, gamma=20.0, rho=0.5)

    merged, _ = pivot_merge(experts, base, table, config)

    base_layers = [(l.weight, l.bias) for l in base.layers]
    expert_layers = [[(l.weight, l.bias) for l in ck.layers] for ck in experts]
    want = reference_pivot_merge(base_layers, expert_layers, scores,
                                 rank=3, gamma=20.0, rho=0.5, beta=0.05,
                                 trim=1.0, magnitude=True)
    for got, (w_want, b_want) in zip(merged.layers, want):
        assert rel_error(got.weight, w_want) <= 1e-8
        assert rel_error(got.bias, b_want) <= 1e-8


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


def test_pivot_config_validation():
    with pytest.raises(ValueError):
        PivotConfig(rank=0)
    with pytest.raises(ValueError):
        PivotConfig(gamma=0.0)
    with pytest.raises(ValueError):
        PivotConfig(rho=1.0)
    with pytest.raises(ValueError):
        PivotConfig(beta=-0.1)
    assert PivotConfig().use_magnitude_space  # ties default
    assert not PivotConfig(inner=MergeOperator.average()).use_magnitude_space


def test_mask_values_strictly_positive(rng):
    residuals = [rng.standard_normal((10, 6)) for _ in range(3)]
    _, mask, _, _ = filter_residuals(residuals, gamma=20.0, rho=0.5)
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
