import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotmerge import (
    ScoreTable,
    compute_scores_from_features,
    layer_weights,
    read_scores,
    score_increments,
    score_table_from_feature_container,
    threshold_from_ratio,
    write_container,
    write_scores,
)


def test_increments_example():
    np.testing.assert_allclose(score_increments([0.2, 0.5, 0.6]), [0.2, 0.3, 0.1],
                               rtol=0, atol=1e-15)


def test_increments_constant():
    np.testing.assert_array_equal(score_increments([0.4, 0.4]), [0.4, 0.0])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                min_size=1, max_size=8))
def test_increments_prefix_sum_is_identity(scores):
    inc = score_increments(scores)
    np.testing.assert_allclose(np.cumsum(inc), scores, rtol=1e-12, atol=1e-9)


def test_layer_weights_uniform_for_equal_increments():
    alpha = layer_weights(np.full((4, 3), 0.2), beta=0.05)
    np.testing.assert_allclose(alpha, np.full((4, 3), 0.25), rtol=0, atol=1e-15)


def test_layer_weights_unit_example():
    alpha = layer_weights(np.array([[0.1], [0.0]]), beta=0.05)
    np.testing.assert_allclose(alpha[:, 0], [0.8808, 0.1192], atol=1e-4)


def test_layer_weights_large_beta_uniform():
    inc = np.array([[0.3, -0.2], [0.1, 0.4], [0.0, 0.0]])
    alpha = layer_weights(inc, beta=1e6)
    np.testing.assert_allclose(alpha, np.full((3, 2), 1.0 / 3.0), atol=1e-6)


def test_layer_weights_tiny_beta_no_overflow():
    inc = np.array([[5.0, -5.0], [0.0, 0.0]])
    alpha = layer_weights(inc, beta=1e-4)
    assert np.all(np.isfinite(alpha))
    np.testing.assert_allclose(alpha.sum(axis=0), [1.0, 1.0], atol=1e-12)


def test_layer_weights_requires_positive_beta():
    with pytest.raises(ValueError):
        layer_weights(np.zeros((2, 2)), beta=0.0)
    with pytest.raises(ValueError, match="beta must be positive and finite, got inf"):
        layer_weights(np.zeros((2, 2)), beta=math.inf)


def test_layer_weights_overflow_names_beta():
    # 0.1 / 1e-310 overflows float64; the softmax used to turn it into NaN weights.
    with pytest.raises(ValueError, match=r"beta 1e-310 is too small"):
        layer_weights(np.array([[0.1], [0.0]]), beta=1e-310)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.floats(min_value=1e-3, max_value=10.0))
def test_layer_weights_properties(seed, beta):
    gen = np.random.default_rng(seed)
    inc = gen.uniform(-1.0, 1.0, size=(4, 3))
    alpha = layer_weights(inc, beta)
    np.testing.assert_allclose(alpha.sum(axis=0), np.ones(3), atol=1e-12)
    # argmax per layer preserved for any temperature
    np.testing.assert_array_equal(np.argmax(alpha, axis=0), np.argmax(inc, axis=0))
    # softmax shift invariance per column
    shifted = layer_weights(inc + gen.uniform(-5, 5, size=(1, 3)), beta)
    np.testing.assert_allclose(shifted, alpha, atol=1e-9)


def test_threshold_hand_example():
    assert threshold_from_ratio([0.1, 0.2, 0.3, 0.4], 0.5) == pytest.approx(0.2)
    assert threshold_from_ratio([0.4, 0.1, 0.3, 0.2], 0.5) == pytest.approx(0.2)


def test_threshold_clips_to_minimum():
    assert threshold_from_ratio([0.1, 0.2, 0.3, 0.4], 0.999) == pytest.approx(0.1)


def test_threshold_single_value():
    for rho in (0.01, 0.5, 0.99):
        assert threshold_from_ratio([0.7], rho) == pytest.approx(0.7)


def test_threshold_invalid_rho():
    for rho in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            threshold_from_ratio([0.1], rho)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
                min_size=1, max_size=20),
       st.floats(min_value=0.01, max_value=0.99))
def test_threshold_is_order_statistic(values, rho):
    tau = threshold_from_ratio(values, rho)
    assert tau in values
    ordered = sorted(values)
    k = min(max(1, math.floor(len(values) * (1.0 - rho))), len(values))
    assert tau == ordered[k - 1]


# --- score IO -------------------------------------------------------------


def test_scores_roundtrip(tmp_path):
    table = ScoreTable(expert_ids=("a", "b"),
                       scores=np.array([[0.1, 0.2], [0.3, 0.12345678901234567]]),
                       beta=0.07)
    path = tmp_path / "scores.json"
    write_scores(path, table)
    back = read_scores(path)
    assert back.expert_ids == table.expert_ids
    assert back.beta == table.beta
    np.testing.assert_array_equal(back.scores, table.scores)


def test_scores_ragged_rejected(tmp_path):
    path = tmp_path / "scores.json"
    path.write_text(json.dumps({
        "beta": 0.05,
        "experts": [{"id": "a", "scores": [0.1, 0.2]}, {"id": "b", "scores": [0.3]}],
    }))
    with pytest.raises(ValueError, match="ragged"):
        read_scores(path)


def test_scores_missing_beta_warns_and_defaults(tmp_path):
    path = tmp_path / "scores.json"
    path.write_text(json.dumps({"experts": [{"id": "a", "scores": [0.5]}]}))
    with pytest.warns(UserWarning, match="beta"):
        table = read_scores(path)
    assert table.beta == 0.05


def test_scores_malformed_json(tmp_path):
    path = tmp_path / "scores.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="malformed"):
        read_scores(path)


@pytest.mark.parametrize("text, message", [
    ('{"beta": 0.05, "experts": [{"id": "a", "scores": [NaN]}]}', "scores contain NaN or Inf"),
    ('{"beta": 0.05, "experts": [{"id": "a", "scores": [-Infinity]}]}', "scores contain NaN or Inf"),
    ('{"beta": 0, "experts": [{"id": "a", "scores": [0.5]}]}', "beta must be positive"),
    ('{"beta": NaN, "experts": [{"id": "a", "scores": [0.5]}]}', "beta must be positive"),
    ('{"beta": Infinity, "experts": [{"id": "a", "scores": [0.5]}]}', "beta must be positive"),
    ('{"beta": 0.05, "experts": [{"id": "a", "scores": [0.5]}, {"id": "a", "scores": [0.1]}]}',
     "expert ids must be unique"),
    ('{"beta": 0.05, "experts": [{"id": "a", "scores": [1' + "0" * 400 + ']}]}',
     "int too large to convert to float"),
    ('{"beta": 1' + "0" * 400 + ', "experts": [{"id": "a", "scores": [0.5]}]}',
     "int too large to convert to float"),
    ("[" * 200_000, "malformed score JSON: RecursionError"),
    ('{"beta": 0.05, "experts": [{"id": ["expert01"], "scores": [0.5]}]}',
     r"expert id must be a string, got \['expert01'\]"),
    ('{"beta": 0.05, "experts": [{"id": 7, "scores": [0.5]}]}',
     "expert id must be a string, got 7"),
    ('{"beta": 0.05, "experts": [{"id": null, "scores": [0.5]}]}',
     "expert id must be a string, got None"),
], ids=["nan-score", "inf-score", "zero-beta", "nan-beta", "inf-beta", "duplicate-ids", "huge-score",
        "huge-beta", "deep-nesting", "list-id", "int-id", "null-id"])
def test_bad_score_file_error_names_path(tmp_path, text, message):
    path = tmp_path / "bad_scores.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=r"bad_scores\.json: " + message):
        read_scores(path)


def test_score_table_validation():
    with pytest.raises(ValueError):
        ScoreTable(expert_ids=("a", "a"), scores=np.zeros((2, 1)))
    with pytest.raises(ValueError):
        ScoreTable(expert_ids=("a",), scores=np.array([[np.nan]]))
    with pytest.raises(ValueError):
        ScoreTable(expert_ids=("a",), scores=np.zeros((1, 1)), beta=0.0)
    with pytest.raises(ValueError, match="beta must be positive and finite, got inf"):
        ScoreTable(expert_ids=("a",), scores=np.zeros((1, 1)), beta=np.inf)


@pytest.mark.parametrize("bad_id, shown", [(7, "7"), (["a"], r"\['a'\]"), (None, "None"),
                                            (b"a", "b'a'")], ids=["int", "list", "none", "bytes"])
def test_score_table_rejects_non_string_id(bad_id, shown):
    with pytest.raises(ValueError, match="expert id must be a string, got " + shown):
        ScoreTable(expert_ids=("b", bad_id), scores=np.zeros((2, 1)))


def test_rows_for_missing_expert():
    table = ScoreTable(expert_ids=("a", "b"), scores=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="missing"):
        table.rows_for(["a", "c"])


# --- feature-based scores --------------------------------------------------


def test_scores_from_identical_features():
    texts = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = compute_scores_from_features([texts.copy(), texts.copy()], texts)
    np.testing.assert_allclose(out, [1.0, 1.0], atol=1e-12)


def test_scores_from_orthogonal_features():
    texts = np.array([[1.0, 0.0], [0.0, 1.0]])
    feats = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(compute_scores_from_features([feats], texts), [0.0])


def test_scores_mean_of_cosines():
    texts = np.array([[4.0, 3.0], [0.0, 1.0]])
    feats = np.array([[3.0, 4.0], [1.0, 0.0]])  # cosines 0.96 and 0.0
    np.testing.assert_allclose(compute_scores_from_features([feats], texts), [0.48],
                               atol=1e-15)


def test_scores_of_features_scaled_by_a_power_of_two_are_unchanged():
    # Rows of norm below 1e-12 are not zero rows.
    gen = np.random.default_rng(5)
    texts = gen.standard_normal((6, 4))
    feats = [texts + gen.standard_normal((6, 4)) for _ in range(2)]
    want = compute_scores_from_features(feats, texts)
    got = compute_scores_from_features([np.ldexp(f, -45) for f in feats], np.ldexp(texts, -45))
    assert np.linalg.norm(np.ldexp(texts, -45), axis=1).max() < 1e-12
    np.testing.assert_array_equal(got, want)
    assert np.all(want > 0.0)


def test_scores_dimension_mismatch():
    with pytest.raises(ValueError):
        compute_scores_from_features([np.ones((2, 3))], np.ones((2, 2)))
    with pytest.raises(ValueError):
        compute_scores_from_features([np.ones((0, 2))], np.ones((0, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["texts", "features"])
def test_scores_reject_non_finite_inputs(bad, where):
    texts = np.array([[1.0, 0.0], [0.0, 1.0]])
    feats = [texts.copy(), texts.copy()]
    if where == "texts":
        texts[1, 0] = bad
        match = "texts contain NaN or Inf"
    else:
        feats[1][1, 0] = bad
        match = "layer 2 features contain NaN or Inf"
    with pytest.raises(ValueError, match=match):
        compute_scores_from_features(feats, texts)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name, match", [
    ("texts", "texts contain NaN or Inf"),
    ("expert.b.layer.1.features", "layer 1 features contain NaN or Inf")])
def test_feature_container_rejects_non_finite_entries_naming_path_and_expert(tmp_path, bad,
                                                                             name, match):
    tensors = {"texts": np.eye(2), "expert.a.layer.1.features": np.eye(2),
               "expert.b.layer.1.features": np.eye(2)}
    tensors[name] = tensors[name].copy()
    tensors[name][0, 1] = bad
    path = tmp_path / "features.tensors"
    write_container(path, tensors)
    expert = "a" if name == "texts" else "b"
    with pytest.raises(ValueError, match=rf"features\.tensors: expert '{expert}': {match}"):
        score_table_from_feature_container(path)


def test_feature_container_rejects_two_names_for_one_layer(tmp_path):
    path = tmp_path / "features.tensors"
    write_container(path, {"texts": np.eye(2), "expert.a.layer.1.features": np.eye(2),
                           "expert.a.layer.01.features": -np.eye(2)})
    # the container lists its tensors sorted by name
    with pytest.raises(ValueError, match=r"features\.tensors: 'expert\.a\.layer\.01\.features' "
                                         r"and 'expert\.a\.layer\.1\.features' are both "
                                         r"expert 'a' layer 1"):
        score_table_from_feature_container(path)


@pytest.mark.parametrize("index", ["1_0", "+1", " 1", "1 ", "-1", "\u0661"])
def test_feature_container_rejects_a_non_digit_layer_index(tmp_path, index):
    path = tmp_path / "features.tensors"
    name = f"expert.a.layer.{index}.features"
    write_container(path, {"texts": np.eye(2), name: np.eye(2)})
    with pytest.raises(ValueError, match="bad layer index"):
        score_table_from_feature_container(path)


def test_score_table_from_feature_container(tmp_path):
    texts = np.array([[1.0, 0.0], [0.0, 1.0]])
    tensors = {"texts": texts}
    for eid, flip in (("m1", 1.0), ("m2", -1.0)):
        for layer in (1, 2):
            feats = flip * texts if layer == 1 else np.array([[1.0, 1.0], [1.0, 1.0]])
            tensors[f"expert.{eid}.layer.{layer}.features"] = feats
    path = tmp_path / "features.tensors"
    write_container(path, tensors)
    table = score_table_from_feature_container(path, beta=0.05)
    assert table.expert_ids == ("m1", "m2")
    cos45 = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(table.scores, [[1.0, cos45], [-1.0, cos45]], atol=1e-12)


def test_feature_container_missing_texts(tmp_path):
    path = tmp_path / "features.tensors"
    write_container(path, {"expert.a.layer.1.features": np.ones((1, 2))})
    with pytest.raises(ValueError, match="texts"):
        score_table_from_feature_container(path)


def test_feature_container_gap(tmp_path):
    path = tmp_path / "features.tensors"
    write_container(path, {
        "texts": np.ones((1, 2)),
        "expert.a.layer.2.features": np.ones((1, 2)),
    })
    with pytest.raises(ValueError, match="contiguous"):
        score_table_from_feature_container(path)
