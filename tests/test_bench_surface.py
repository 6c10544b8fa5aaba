"""The package surface the benchmark harness reads, pinned without importing the harness.

The harness builds its inputs through synth, scores and tensorstore, drives
`cli.main`, and wraps public functions with span observers that bind their
arguments by name and read their results. A refactor that renames any of
these breaks the benchmark, so each is pinned here.
"""

import dataclasses
import inspect

import numpy as np

from pivotmerge import cli, linalg, operators, pivot, scores, synth, tensorstore


def params(fn):
    return list(inspect.signature(fn).parameters)


def test_inputs_are_built_and_read_through_these_names(tmp_path):
    spec = synth.SynthSpec.from_chain([4, 6, 6], experts=2, core_rank=2, residual_scale=0.5,
                                      noise_scale=0.01, seed=3)
    base, experts, core_bases = synth.generate(spec)
    ids = tuple(synth.expert_id(i, 2) for i in range(2))
    assert tuple(ck.id for ck in experts) == ids
    path = tmp_path / "base.tensors"
    tensorstore.save_checkpoint(path, dataclasses.replace(base, dtype="float32"))
    loaded = tensorstore.load_checkpoint(path)
    assert loaded.dtype == "float32" and loaded.has_bias
    assert loaded.layer_shapes() == base.layer_shapes() == ((6, 4), (6, 6))
    for layer in loaded.layers:
        assert layer.weight.shape[0] == layer.bias.shape[0] == layer.matrix.shape[0]
    assert len(synth.recovery_score(experts[0], base, core_bases)) == 2
    table = scores.ScoreTable(expert_ids=ids, scores=[[0.0] * spec.layers for _ in ids])
    scores.write_scores(tmp_path / "scores.json", table)
    assert scores.read_scores(tmp_path / "scores.json").expert_ids == ids


def test_observed_functions_keep_their_argument_names():
    assert params(tensorstore.load_checkpoint)[0] == "path"
    assert params(tensorstore.save_checkpoint)[0] == "path"
    assert params(pivot.decouple)[0] == "coeffs"
    assert params(linalg.thin_svd)[0] == "mat"
    assert params(linalg.orthonormal_basis)[0] == "mat"
    assert params(operators.ties)[0] == "mats" and "trim_fraction" in params(operators.ties)


def test_observed_results_keep_their_shape():
    gen = np.random.default_rng(5)
    assert pivot.decouple([gen.standard_normal((4, 5))] * 2, 2).effective_rank == 2
    base, experts, _ = synth.generate(synth.SynthSpec.from_chain([4, 6], experts=3,
                                                                 core_rank=2))
    stack = pivot.task_vectors(experts, base.layers[0], 0)
    # The harness sums nbytes over the result's rows of arrays.
    assert sum(d.nbytes for row in stack for d in row) == stack.nbytes == 6 * 3 * 5 * 8


def test_the_tracer_rebinds_these_names_at_their_importers():
    assert callable(cli.main)
    assert cli.pivot_merge is pivot.pivot_merge
    assert pivot.thin_svd is linalg.thin_svd
