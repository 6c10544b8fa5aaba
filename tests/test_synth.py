import numpy as np
import pytest

from pivotmerge import (
    MergeOperator,
    PivotConfig,
    ScoreTable,
    SynthSpec,
    cosine,
    generate,
    load_ground_truth,
    merge_checkpoint_deltas,
    orthonormal_basis,
    pivot_merge,
    principal_angles,
    recovery_score,
)
from pivotmerge.synth import expert_id, ground_truth_tensors
from conftest import checkpoint_rel_error


def spec_from(chain=(8, 16, 16), **kwargs):
    defaults = dict(experts=5, core_rank=2, residual_scale=1.0,
                    shared_residual_fraction=0.0, noise_scale=0.0, seed=7)
    defaults.update(kwargs)
    return SynthSpec.from_chain(list(chain), **defaults)


def test_spec_validation():
    with pytest.raises(ValueError, match="chain"):
        SynthSpec(dims=((16, 8), (12, 14)), experts=2, core_rank=1)
    with pytest.raises(ValueError):
        SynthSpec(dims=((4, 4),), experts=0, core_rank=1)
    with pytest.raises(ValueError):
        spec_from(shared_residual_fraction=1.5)
    with pytest.raises(ValueError):
        SynthSpec.from_chain([8], experts=1, core_rank=1)


def test_spec_layers_is_dims_length():
    spec = SynthSpec(dims=((16, 8), (12, 16)), experts=2, core_rank=1)
    assert spec.layers == 2
    assert spec.to_dict()["layers"] == 2


def test_generator_is_deterministic():
    a_base, a_experts, a_cores = generate(spec_from())
    b_base, b_experts, b_cores = generate(spec_from())
    assert checkpoint_rel_error(a_base, b_base) == 0.0
    for ea, eb in zip(a_experts, b_experts):
        assert checkpoint_rel_error(ea, eb) == 0.0
    for ca, cb in zip(a_cores, b_cores):
        np.testing.assert_array_equal(ca, cb)
    c_base, _, _ = generate(spec_from(seed=8))
    assert checkpoint_rel_error(a_base, c_base) > 0.0


def test_expert_ids_sort_lexicographically():
    ids = [expert_id(i, 12) for i in range(12)]
    assert ids == sorted(ids)
    assert ids[0] == "expert01"


def test_degenerate_spec_all_methods_recover_core():
    spec = spec_from(residual_scale=0.0, noise_scale=0.0, experts=3)
    base, experts, _ = generate(spec)
    for ck in experts[1:]:
        assert checkpoint_rel_error(ck, experts[0]) == 0.0
    table = ScoreTable(expert_ids=tuple(e.id for e in experts),
                       scores=np.zeros((3, spec.layers)))
    merged_wa = merge_checkpoint_deltas(experts, base, MergeOperator.average())
    assert checkpoint_rel_error(merged_wa, experts[0]) <= 1e-8
    merged_pivot, _ = pivot_merge(experts, base, table, PivotConfig())
    assert checkpoint_rel_error(merged_pivot, experts[0]) <= 1e-8


def test_delta_cosine_strictly_between_zero_and_one():
    spec = SynthSpec(dims=((16, 8), (12, 16)), experts=5, core_rank=2,
                     residual_scale=1.0, shared_residual_fraction=0.0,
                     noise_scale=0.0, seed=3)
    base, experts, _ = generate(spec)
    flat = []
    for ck in experts:
        parts = [l.matrix - b.matrix
                 for l, b in zip(ck.layers, base.layers)]
        flat.append(np.concatenate([p.ravel() for p in parts]))
    sims = [cosine(flat[i], flat[j])
            for i in range(5) for j in range(i + 1, 5)]
    mean = np.mean(sims)
    assert 0.0 < mean < 1.0


@pytest.mark.parametrize("chain,core_rank", [((8, 16, 16), 2), ((2, 8), 4)])
def test_core_basis_spans_planted_core(chain, core_rank):
    # with no residual and no noise every expert's delta is the planted core
    spec = spec_from(chain=chain, core_rank=core_rank, residual_scale=0.0)
    base, experts, cores = generate(spec)
    for layer, base_layer, q in zip(experts[0].layers, base.layers, cores):
        core = layer.matrix - base_layer.matrix
        reference = orthonormal_basis(core)
        assert q.shape == reference.shape
        assert q.shape[1] == min(core_rank, *core.shape)
        np.testing.assert_allclose(q.T @ q, np.eye(q.shape[1]), rtol=0, atol=1e-12)
        assert np.max(principal_angles(q, reference)) <= 1e-5


def test_ground_truth_tensors_roundtrip():
    _, _, cores = generate(spec_from())
    tensors = ground_truth_tensors(cores)
    back = load_ground_truth(tensors)
    assert len(back) == len(cores)
    for a, b in zip(cores, back):
        np.testing.assert_array_equal(a, b)


def test_load_ground_truth_rejects_two_names_for_one_layer():
    tensors = {"layer.1.core_basis": np.eye(2), "layer.01.core_basis": np.eye(2)[:, :1]}
    with pytest.raises(ValueError, match=r"'layer\.1\.core_basis' and 'layer\.01\.core_basis' "
                                         r"are both ground-truth layer 1"):
        load_ground_truth(tensors)


@pytest.mark.parametrize("index", ["1_0", "+1", " 1", "-1", "\u0661"])
def test_load_ground_truth_rejects_a_non_digit_layer_index(index):
    with pytest.raises(ValueError, match="unexpected ground-truth tensor name"):
        load_ground_truth({f"layer.{index}.core_basis": np.eye(2)})


def test_recovery_score_exact_core():
    spec = spec_from(chain=(8, 24), core_rank=3, residual_scale=0.0)
    base, experts, cores = generate(spec)
    angles = recovery_score(experts[0], base, cores)
    assert angles[0] <= 1e-4


def test_recovery_score_zero_delta_flagged():
    spec = spec_from(chain=(8, 24), core_rank=3)
    base, _, cores = generate(spec)
    with pytest.warns(UserWarning, match="zero"):
        angles = recovery_score(base, base, cores)
    assert angles == [90.0]


def test_weight_average_recovery_improves_with_experts():
    # private residuals average out, so more experts means a closer core
    angles = {}
    for n in (2, 4, 8):
        per_seed = []
        for seed in range(5):
            spec = SynthSpec.from_chain([12, 32], experts=n, core_rank=4,
                                        residual_scale=1.0,
                                        shared_residual_fraction=0.0,
                                        noise_scale=0.0, seed=seed)
            base, experts, cores = generate(spec)
            merged = merge_checkpoint_deltas(experts, base, MergeOperator.average())
            per_seed.append(np.mean(recovery_score(merged, base, cores)))
        angles[n] = np.mean(per_seed)
    assert angles[2] > angles[4] > angles[8]
