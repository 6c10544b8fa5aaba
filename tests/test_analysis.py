import csv
import dataclasses
import json
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from pivotmerge import (
    PivotConfig,
    ScoreTable,
    SynthSpec,
    emit_report,
    generate,
    mean_offdiagonal,
    pairwise_principal_angles,
    pivot_merge,
    residual_similarity,
)
from pivotmerge import analysis
from pivotmerge.analysis import collect_coefficients, collect_residuals, write_matrix_csv
from pivotmerge.linalg import principal_angles
from pivotmerge.pivot import _dense, decouple, filter_residuals, joint_decompose, task_vectors
from conftest import scaled_checkpoint, zero_checkpoint


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


def per_pair_angles(sources):
    """Reference: one principal_angles call per pair, each orthonormalizing both inputs."""
    n = len(sources)
    valid = [m.any() for m in sources]
    out = np.full((n, n), np.nan)
    for i in range(n):
        if not valid[i]:
            continue
        out[i, i] = 0.0
        for j in range(i + 1, n):
            if valid[j]:
                out[i, j] = out[j, i] = float(np.mean(principal_angles(sources[i], sources[j])))
    return out


def subspace_sources(kind, gen):
    if kind == "random":
        return [gen.standard_normal((12, w)) for w in (3, 5, 4, 7)]
    low_rank = [gen.standard_normal((12, r)) @ gen.standard_normal((r, 9)) for r in (2, 3, 5)]
    if kind == "rank_deficient":
        return low_rank
    return low_rank[:1] + [np.zeros((12, 4))] + low_rank[1:]


@pytest.mark.parametrize("kind", ["random", "rank_deficient", "zero_source"])
def test_pairwise_angles_match_per_pair_reference(kind):
    sources = subspace_sources(kind, np.random.default_rng(21))
    if kind == "zero_source":
        with pytest.warns(UserWarning, match="source 1 is zero"):
            out = pairwise_principal_angles(sources)
        assert np.all(np.isnan(out[1, :])) and np.all(np.isnan(out[:, 1]))
    else:
        out = pairwise_principal_angles(sources)
    np.testing.assert_array_equal(out, per_pair_angles(sources))


def test_pairwise_angles_orthonormalize_each_source_once(monkeypatch):
    calls = []
    real = analysis.orthonormal_basis

    def counting(mat):
        calls.append(mat)
        return real(mat)

    monkeypatch.setattr(analysis, "orthonormal_basis", counting)
    sources = subspace_sources("zero_source", np.random.default_rng(22))
    with pytest.warns(UserWarning, match="zero"):
        pairwise_principal_angles(sources)
    assert len(calls) == 3
    for called, source in zip(calls, [sources[0], sources[2], sources[3]]):
        np.testing.assert_array_equal(called, source)


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


def test_principal_angles_of_deltas_scaled_by_a_power_of_two_are_unchanged():
    # At 2^-45 each raw delta's norm is below 1e-12, yet no source is zero.
    _, experts, _ = generate(SynthSpec.from_chain([8, 16, 16], experts=3, core_rank=2, seed=1))
    base = zero_checkpoint(experts[0])
    config = PivotConfig(rank=2)

    def angles(cks):
        raw, filt = collect_coefficients(cks, base, config)
        return pairwise_principal_angles(raw), pairwise_principal_angles(filt)

    want = angles(experts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = angles([scaled_checkpoint(e, -45) for e in experts])
    for g, w in zip(got, want):
        assert np.isfinite(w).all()
        np.testing.assert_array_equal(g, w)


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


def test_collect_residuals_builds_one_layer_of_deltas_at_a_time(monkeypatch):
    check_one_layer_of_deltas_at_a_time(monkeypatch, collect_residuals)


def test_collect_coefficients_builds_one_layer_of_deltas_at_a_time(monkeypatch):
    check_one_layer_of_deltas_at_a_time(monkeypatch, collect_coefficients)


def check_one_layer_of_deltas_at_a_time(monkeypatch, collect):
    spec = SynthSpec.from_chain([6, 8, 8, 8], experts=3, core_rank=2, seed=4)
    base, experts, _ = generate(spec)
    config = PivotConfig(rank=2)
    events = []
    real_deltas, real_joint, real_decouple = (analysis.task_vectors, analysis.joint_decompose,
                                              analysis.decouple)

    def deltas(ordered, base_ck, li):
        events.append(("deltas", li))
        return real_deltas(ordered, base_ck, li)

    def joint(stack):
        events.append("joint")
        return real_joint(stack)

    def decoupling(blocks, rank):
        events.append("decouple")
        return real_decouple(blocks, rank)

    monkeypatch.setattr(analysis, "task_vectors", deltas)
    monkeypatch.setattr(analysis, "joint_decompose", joint)
    monkeypatch.setattr(analysis, "decouple", decoupling)
    raw, filt = collect(list(reversed(experts)), base, config)[:2]
    # Each layer's deltas are built and decoupled before the next layer's deltas.
    assert events == [e for li in range(3) for e in (("deltas", li), "joint", "decouple")]
    stacks = [task_vectors(experts, layer, li) for li, layer in enumerate(base.layers)]
    layers = []
    for stack in stacks:
        residuals = joint_decompose(stack)[1]
        cores = decouple(residuals, config.rank).cores
        filtered = [r.copy() for r in residuals]
        filter_residuals(filtered, config.gamma, config.rho)
        layers.append((cores, residuals, filtered))
    for i in range(len(experts)):
        if collect is collect_residuals:
            np.testing.assert_array_equal(
                raw[i], np.concatenate([r[i].ravel() for _, r, _ in layers]))
            np.testing.assert_array_equal(
                filt[i], np.concatenate([f[i].ravel() for _, _, f in layers]))
        else:
            np.testing.assert_array_equal(raw[i], np.hstack([s[:, i] for s in stacks]))
            np.testing.assert_array_equal(
                filt[i], np.hstack([_dense(c[i]) + f[i] for c, _, f in layers]))


def test_collect_residuals_frees_each_models_parts_as_it_joins_them(monkeypatch):
    check_parts_freed_as_joined(monkeypatch, collect_residuals)


def test_collect_coefficients_frees_each_models_parts_as_it_joins_them(monkeypatch):
    check_parts_freed_as_joined(monkeypatch, collect_coefficients)


def check_parts_freed_as_joined(monkeypatch, collect):
    # A local left holding a layer's blocks (or a model's part list) keeps those
    # parts alive next to the joined outputs.
    spec = SynthSpec.from_chain([6, 8, 8, 8], experts=3, core_rank=2, seed=4)
    base, experts, _ = generate(spec)
    real_join = analysis._join
    joins = []

    def joining(model_parts, join):
        # A flattened residual is a view: its block is what a local could hold.
        refs = [weakref.ref(p if p.base is None else p.base)
                for parts in model_parts for p in parts]
        out = real_join(model_parts, join)
        joins.append((len(refs), sum(ref() is not None for ref in refs)))
        return out

    monkeypatch.setattr(analysis, "_join", joining)
    collect(experts, base, PivotConfig(rank=2))
    assert joins == [(3 * 3, 0), (3 * 3, 0)]


def test_collect_residuals_holds_its_output_about_once():
    # Eight 64x65 layers: the blocks of all layers and the concatenated vectors
    # were alive together at the end, a peak of 2.09x the returned vectors.
    spec = SynthSpec.from_chain([64] * 9, experts=4, core_rank=2, seed=6)
    base, experts, _ = generate(spec)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        raw, filt, _ = collect_residuals(experts, base, PivotConfig(rank=4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(v.nbytes for v in raw + filt)
    assert returned == 2 * 4 * 8 * 64 * 65 * 8
    assert peak - before < 1.4 * returned


def test_collect_coefficients_holds_its_output_about_once():
    # Eight 64x65 layers: every layer's deltas and blocks were alive while the
    # sources were stacked, a peak of 2.21x the returned sources.
    spec = SynthSpec.from_chain([64] * 9, experts=4, core_rank=2, seed=6)
    base, experts, _ = generate(spec)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        raw, filt = collect_coefficients(experts, base, PivotConfig(rank=4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(v.nbytes for v in raw + filt)
    assert returned == 2 * 4 * 8 * 64 * 65 * 8
    assert peak - before < 1.4 * returned


def test_collect_coefficients_matches_the_stagewise_formula():
    spec = SynthSpec.from_chain([12, 24, 24, 24], experts=4, core_rank=3, residual_scale=2.0,
                                seed=8)
    base, experts, _ = generate(spec)
    config = PivotConfig(rank=3)
    raw, filt = collect_coefficients(experts, base, config)
    stacks = [task_vectors(experts, layer, li) for li, layer in enumerate(base.layers)]
    coeff_layers = []
    for stack in stacks:
        filtered = joint_decompose(stack)[1]
        cores = decouple(filtered, config.rank).cores
        filter_residuals(filtered, config.gamma, config.rho)
        coeff_layers.append([_dense(a) + b for a, b in zip(cores, filtered)])
    assert len(raw) == len(filt) == len(experts)
    for i, (r, f) in enumerate(zip(raw, filt)):
        np.testing.assert_array_equal(r, np.hstack([s[:, i] for s in stacks]))
        np.testing.assert_array_equal(f, np.hstack([c[i] for c in coeff_layers]))


def test_collect_coefficients_rejects_non_uniform_rows_before_decomposing(monkeypatch):
    spec = SynthSpec.from_chain([6, 8, 10], experts=3, core_rank=2, seed=9)
    base, experts, _ = generate(spec)

    def no_decompose(*args, **kwargs):
        raise AssertionError("a layer was decomposed")

    monkeypatch.setattr(analysis, "joint_decompose", no_decompose)
    with pytest.raises(ValueError, match=r"uniform row count across layers, got \[8, 10\]"):
        collect_coefficients(experts, base, PivotConfig(rank=2))


def test_collect_coefficients_rejects_a_tall_layer_before_decomposing(monkeypatch):
    # Layer 1 is 64 x (4 + 1): with 2 experts its joint rank is 10, not 64.
    spec = SynthSpec.from_chain([4, 64, 64], experts=2, core_rank=2, seed=9)
    base, experts, _ = generate(spec)

    def no_decompose(*args, **kwargs):
        raise AssertionError("a layer was decomposed")

    monkeypatch.setattr(analysis, "joint_decompose", no_decompose)
    with pytest.raises(ValueError, match=r"uniform joint rank .* got \[10, 64\]; "
                                         r"tall: layer 1 of shape \(64, 5\)$"):
        collect_coefficients(experts, base, PivotConfig(rank=2))


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


def _dump_then_fail(obj, fh, **kwargs):
    fh.write('{"partial": ')
    raise OSError("disk full")


def test_emit_report_failed_summary_write_leaves_no_partial_file(tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setattr(json, "dump", _dump_then_fail)
    with pytest.raises(OSError, match="disk full"):
        emit_report({"note": 1}, {"a": np.eye(2)}, out)
    assert sorted(p.name for p in out.iterdir()) == ["a.csv"]
    monkeypatch.undo()
    emit_report({"note": 1}, {"a": np.eye(2)}, out)
    before = (out / "summary.json").read_bytes()
    monkeypatch.setattr(json, "dump", _dump_then_fail)
    with pytest.raises(OSError, match="disk full"):
        emit_report({"note": 2}, {"a": np.eye(2)}, out)
    assert (out / "summary.json").read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == ["a.csv", "summary.json"]


def test_layer_weight_table_columns_sum_to_one():
    from pivotmerge import layer_weights, score_increments
    scores = np.random.default_rng(5).uniform(0.0, 1.0, size=(5, 2))
    alpha = layer_weights(score_increments(scores), beta=0.05)
    assert alpha.shape == (5, 2)
    np.testing.assert_allclose(alpha.sum(axis=0), [1.0, 1.0], atol=1e-12)


def test_mean_offdiagonal():
    m = np.array([[0.0, 2.0], [4.0, 0.0]])
    assert mean_offdiagonal(m) == pytest.approx(3.0)
    # NaN entries are skipped; with no finite entry the mean is None, without a warning.
    nan = np.nan
    assert mean_offdiagonal(np.array([[0.0, nan, 2.0], [nan, nan, nan], [4.0, nan, 0.0]])) == 3.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mean_offdiagonal(np.array([[0.0, nan], [nan, nan]])) is None
        assert mean_offdiagonal(np.zeros((1, 1))) is None


def _layer_two_equals_the_base():
    """A 16,16,16,16 chain whose every expert's layer 2 is the base's: layer 2 is all-zero."""
    spec = SynthSpec.from_chain([16, 16, 16, 16], experts=3, core_rank=2, seed=5)
    base, experts, _ = generate(spec)
    experts = [dataclasses.replace(e, layers=(e.layers[0], base.layers[1], e.layers[2]))
               for e in experts]
    return base, experts


def test_principal_angles_names_an_all_zero_layer_once_it_is_reached(monkeypatch):
    base, experts = _layer_two_equals_the_base()
    joints = []
    real = analysis.joint_decompose
    monkeypatch.setattr(analysis, "joint_decompose",
                        lambda stack: joints.append(1) or real(stack))
    with pytest.raises(ValueError, match=r"^layer 2: all task vectors are zero, so its joint "
                                         r"rank is 0; model-level subspaces need a uniform"):
        collect_coefficients(experts, base, PivotConfig())
    assert len(joints) == 2


@pytest.mark.parametrize("command", ["merge", "residual-sim"])
def test_one_warning_names_the_clamped_and_the_all_zero_layers(command):
    base, experts = _layer_two_equals_the_base()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if command == "merge":
            table = ScoreTable(expert_ids=tuple(e.id for e in experts),
                               scores=[[0.0] * 3] * 3, beta=0.05)
            pivot_merge(experts, base, table, PivotConfig())
        else:
            collect_residuals(experts, base, PivotConfig())
    assert [str(w.message) for w in caught] == [
        "rank 64 exceeds the block rank limit of layer 1 (16), layer 3 (16); clamping; "
        "all task vectors are zero in layer 2: empty shared space"]
