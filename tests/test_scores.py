import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotmerge import (
    ScoreTable,
    layer_weights,
    read_scores,
    score_increments,
    threshold_from_ratio,
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
    with pytest.raises(ValueError, match=r"score table is missing experts: \['c'\]"):
        table.rows_for(["a", "c"], 2)


def test_rows_for_checks_the_layer_count_and_keeps_the_given_order():
    table = ScoreTable(expert_ids=("a", "b"), scores=[[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError, match="score table has 2 layers but checkpoints have 3"):
        table.rows_for(["a", "b"], 3)
    np.testing.assert_array_equal(table.rows_for(["b", "a"], 2), [[3.0, 4.0], [1.0, 2.0]])
