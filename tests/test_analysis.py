import csv
import dataclasses
import json

import numpy as np
import pytest

from pivotmerge import (
    PivotConfig,
    ScoreTable,
    SynthSpec,
    emit_report,
    generate,
    mean_offdiagonal,
    model_subspace,
    pairwise_principal_angles,
    pivot_merge,
    residual_similarity,
)
from pivotmerge.analysis import collect_coefficients, collect_residuals, write_matrix_csv


def test_residual_similarity_identical(rng):
    b = rng.standard_normal((4, 3))
    sim = residual_similarity([b, b.copy()])
    np.testing.assert_allclose(sim, np.ones((2, 2)), atol=1e-12)
    np.testing.assert_array_equal(np.diag(sim), [1.0, 1.0])


def test_residual_similarity_negated(rng):
    b = rng.standard_normal((4, 3))
    sim = residual_similarity([b, -b])
    assert sim[0, 1] == pytest.approx(-1.0, abs=1e-12)
    assert sim[1, 0] == sim[0, 1]


def test_residual_similarity_zero_flagged():
    with pytest.warns(UserWarning, match="zero"):
        sim = residual_similarity([np.zeros((2, 2)), np.ones((2, 2))])
    assert sim[0, 0] == 0.0
    assert sim[1, 1] == 1.0
    assert sim[0, 1] == 0.0


def test_residual_similarity_needs_two():
    with pytest.raises(ValueError):
        residual_similarity([np.ones((2, 2))])


def test_pairwise_angles_identical(rng):
    m = rng.standard_normal((6, 3))
    out = pairwise_principal_angles([m, m.copy(), m.copy()])
    np.testing.assert_allclose(out, np.zeros((3, 3)), atol=1e-4)


def test_pairwise_angles_orthogonal_columns():
    e1 = np.array([[1.0], [0.0], [0.0]])
    e2 = np.array([[0.0], [1.0], [0.0]])
    out = pairwise_principal_angles([e1, e2])
    np.testing.assert_allclose(out, [[0.0, 90.0], [90.0, 0.0]], atol=1e-10)


def test_pairwise_angles_zero_input_flagged():
    with pytest.warns(UserWarning, match="zero"):
        out = pairwise_principal_angles([np.zeros((3, 2)), np.eye(3)])
    assert np.isnan(out[0, 1]) and np.isnan(out[0, 0])
    assert out[1, 1] == 0.0


def test_model_subspace_requires_uniform_rows():
    with pytest.raises(ValueError, match="row count"):
        model_subspace([np.ones((3, 2)), np.ones((4, 2))])
    out = model_subspace([np.ones((3, 2)), np.zeros((3, 4))])
    assert out.shape == (3, 6)


def test_crf_increases_flattened_similarity():
    spec = SynthSpec.from_chain([24, 48], experts=5, core_rank=4, residual_scale=3.0,
                                shared_residual_fraction=0.0, noise_scale=0.01, seed=0)
    base, experts, _ = generate(spec)
    raw, filt, layer_stats = collect_residuals(experts, base, PivotConfig(rank=4))
    before = mean_offdiagonal(residual_similarity(raw))
    after = mean_offdiagonal(residual_similarity(filt))
    assert after > before
    assert layer_stats[0]["tau"] is not None
    assert 0.0 < layer_stats[0]["mask_mean"] < 1.0


def test_crf_reduces_coefficient_angles():
    spec = SynthSpec.from_chain([24, 48], experts=5, core_rank=4, residual_scale=3.0,
                                shared_residual_fraction=0.0, noise_scale=0.01, seed=0)
    base, experts, _ = generate(spec)
    raw, filt = collect_coefficients(experts, base, PivotConfig(rank=4))
    ang_raw = mean_offdiagonal(pairwise_principal_angles(raw))
    ang_filt = mean_offdiagonal(pairwise_principal_angles(filt))
    assert ang_filt <= ang_raw


def test_collect_rejects_duplicate_expert_ids():
    spec = SynthSpec.from_chain([6, 8], experts=2, core_rank=2, seed=3)
    base, (a, b), _ = generate(spec)
    a_dup = dataclasses.replace(b, id=a.id)
    for collect in (collect_residuals, collect_coefficients):
        with pytest.raises(ValueError, match=f"duplicate expert ids: \\['{a.id}'\\]"):
            collect([a, a_dup, b], base, PivotConfig(rank=2))


def test_residual_stats_match_merge_diagnostics():
    # Analysis and merge share one decompose/filter kernel, layer by layer.
    spec = SynthSpec.from_chain([12, 24, 24], experts=4, core_rank=3, residual_scale=2.0, seed=5)
    base, experts, _ = generate(spec)
    config = PivotConfig(rank=3)
    _, _, layer_stats = collect_residuals(experts, base, config)
    table = ScoreTable(expert_ids=tuple(e.id for e in experts),
                       scores=np.zeros((len(experts), base.num_layers)))
    _, diagnostics = pivot_merge(experts, base, table, config)
    assert len(layer_stats) == len(diagnostics["layers"]) == base.num_layers
    for stats, record in zip(layer_stats, diagnostics["layers"]):
        mask = np.array(record["mask"])
        assert stats["layer"] == record["layer"]
        assert stats["tau"] is not None and stats["tau"] == record["tau"]
        assert stats["mask_mean"] == float(mask.mean())
        assert stats["mask_min"] == float(mask.min())
        assert stats["mask_max"] == float(mask.max())


def test_emit_report_empty(tmp_path):
    emit_report({"layers": [], "expert_ids": []}, {}, tmp_path / "report")
    summary = json.loads((tmp_path / "report" / "summary.json").read_text())
    assert summary == {"expert_ids": [], "layers": []}


def test_matrix_csv_roundtrip(tmp_path, rng):
    mat = rng.standard_normal((3, 4)) * 1e3
    path = tmp_path / "m.csv"
    write_matrix_csv(path, mat)
    with open(path) as fh:
        rows = [[float(v) for v in row] for row in csv.reader(fh)]
    back = np.array(rows)
    np.testing.assert_allclose(back, mat, rtol=1e-12)


def test_emit_report_writes_matrices(tmp_path, rng):
    mats = {"a": rng.standard_normal((2, 2)), "b": np.eye(3)}
    emit_report({"note": 1}, mats, tmp_path / "out")
    assert (tmp_path / "out" / "a.csv").exists()
    assert (tmp_path / "out" / "b.csv").exists()
    assert json.loads((tmp_path / "out" / "summary.json").read_text()) == {"note": 1}


def test_layer_weight_table_columns_sum_to_one():
    from pivotmerge import layer_weights, score_increments
    scores = np.random.default_rng(5).uniform(0.0, 1.0, size=(5, 2))
    alpha = layer_weights(score_increments(scores), beta=0.05).alpha
    assert alpha.shape == (5, 2)
    np.testing.assert_allclose(alpha.sum(axis=0), [1.0, 1.0], atol=1e-12)


def test_mean_offdiagonal():
    m = np.array([[0.0, 2.0], [4.0, 0.0]])
    assert mean_offdiagonal(m) == pytest.approx(3.0)
