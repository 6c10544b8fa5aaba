"""Tests of the benchmark's own checks and tracer: python3 -m pytest perfbench"""

import contextlib
import io
import shutil

import numpy as np
import pytest

import pivotmerge.cli
import pivotmerge.linalg
import pivotmerge.pivot
import pivotmerge.tensorstore
import harness
import tracer as tracing
from checks import CheckFailed, check_invocation, output_digest
from workloads import Workload, build_inputs, command_lines

TINY_MERGE = Workload(name="tiny-merge", chain=(6, 9, 9), experts=3,
                      commands=(("merge", "--method", "pivot", "--rank", "2"),))
TINY_ANALYZE = Workload(name="tiny-analyze", chain=(6, 9, 9), experts=3,
                        commands=(("analyze", "--mode", "residual-sim"),
                                  ("analyze", "--mode", "principal-angles")))


def invoke(workload, inputs, out_dir):
    out_dir.mkdir(parents=True)
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [pivotmerge.cli.main(line) for line in command_lines(workload, inputs, out_dir)]
    assert codes == [0] * len(codes)


@pytest.fixture
def merged(tmp_path):
    inputs, _ = build_inputs(TINY_MERGE, 3, tmp_path / "in")
    invoke(TINY_MERGE, inputs, tmp_path / "out")
    base = pivotmerge.tensorstore.load_checkpoint(inputs.base)
    return tmp_path / "out", base, check_invocation(TINY_MERGE, tmp_path / "out", base, None)


def flip_bit(path, offset):
    blob = bytearray(path.read_bytes())
    blob[offset] ^= 0x01
    path.write_bytes(bytes(blob))


def test_truncated_checkpoint_fails(merged):
    out_dir, base, reference = merged
    path = out_dir / "merged.tensors"
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(CheckFailed, match="does not reload"):
        check_invocation(TINY_MERGE, out_dir, base, reference)


@pytest.mark.parametrize("offset", [-1, 12])
def test_bit_flipped_checkpoint_fails(merged, offset):
    # offset -1 flips a payload bit (still loads, bytes differ); 12 lands in the header.
    out_dir, base, reference = merged
    flip_bit(out_dir / "merged.tensors", offset)
    with pytest.raises(CheckFailed):
        check_invocation(TINY_MERGE, out_dir, base, reference)


def test_corrupt_outputs_count_as_failed_invocations(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "WORK", tmp_path)
    bench = harness.Run(TINY_MERGE, seed=3, seconds=0.0, env={}, repeat_setup=False)
    try:
        good = bench.work / "good"
        invoke(TINY_MERGE, bench.inputs, good)
        truncated = bench.work / "truncated"
        shutil.copytree(good, truncated)
        (truncated / "merged.tensors").write_bytes((good / "merged.tensors").read_bytes()[:100])
        flipped = bench.work / "flipped"
        shutil.copytree(good, flipped)
        flip_bit(flipped / "merged.tensors", -1)

        assert bench.check(good, None) is None
        assert bench.check(truncated, None) is not None
        assert bench.check(flipped, None) is not None
        assert bench.check(good, "exited with 1") == "exited with 1"
        assert (bench.tally.attempted, bench.tally.failed) == (4, 3)
    finally:
        bench.close()


def test_analyze_reports_must_be_square_symmetric_matrices(tmp_path):
    inputs, _ = build_inputs(TINY_ANALYZE, 3, tmp_path / "in")
    out_dir = tmp_path / "out"
    invoke(TINY_ANALYZE, inputs, out_dir)
    reference = check_invocation(TINY_ANALYZE, out_dir, None, None)

    csv = out_dir / "principal-angles" / "principal_angles_raw.csv"
    rows = csv.read_text().splitlines()
    cells = rows[0].split(",")
    cells[1] = "45.5"
    csv.write_text("\n".join([",".join(cells), *rows[1:]]) + "\n")
    with pytest.raises(CheckFailed, match="symmetric"):
        check_invocation(TINY_ANALYZE, out_dir, None, reference)

    csv.write_text("\n".join(rows[:-1]) + "\n")
    with pytest.raises(CheckFailed, match="shape"):
        check_invocation(TINY_ANALYZE, out_dir, None, reference)

    (out_dir / "residual-sim" / "summary.json").write_text('{"mode": "residual-')
    with pytest.raises(CheckFailed, match="does not parse"):
        check_invocation(TINY_ANALYZE, out_dir, None, None)


def test_install_wraps_every_binding_and_uninstall_restores():
    original = pivotmerge.linalg.thin_svd
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert pivotmerge.linalg.thin_svd is not original
        assert pivotmerge.pivot.thin_svd is pivotmerge.linalg.thin_svd
        assert pivotmerge.cli.pivot_merge is pivotmerge.pivot.pivot_merge
        rng = np.random.default_rng(0)
        pivotmerge.linalg.principal_angles(rng.standard_normal((5, 2)),
                                           rng.standard_normal((5, 3)))
    finally:
        tracer.uninstall()
    assert pivotmerge.linalg.thin_svd is original
    assert pivotmerge.pivot.thin_svd is original

    by_id = {s.id: s for s in tracer.spans}
    names = sorted(s.name for s in tracer.spans)
    assert names == ["linalg.orthonormal_basis"] * 2 + ["linalg.principal_angles"] \
        + ["linalg.thin_svd"] * 2
    for span in tracer.spans:
        if span.name == "linalg.thin_svd":
            assert by_id[span.parent].name == "linalg.orthonormal_basis"
            assert by_id[by_id[span.parent].parent].name == "linalg.principal_angles"


def test_escaping_exception_counts_once_per_layer():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with pytest.raises(ValueError):
            pivotmerge.linalg.principal_angles(np.zeros((4, 2)), np.ones((4, 2)))
    finally:
        tracer.uninstall()
    assert tracer.errors["linalg"] == 1
    assert sum(tracer.errors.values()) == 1
    assert sum(s.error is not None for s in tracer.spans) == 2


def test_self_seconds_subtracts_the_union_of_children():
    spans = [tracing.Span(0, "a", None, "t", 0.0, 10.0),
             tracing.Span(1, "b", 0, "t", 1.0, 3.0),
             tracing.Span(2, "c", 0, "t", 2.0, 5.0),
             tracing.Span(3, "d", 2, "t", 2.5, 3.5)]
    assert tracing.self_seconds(spans) == {0: 6.0, 1: 2.0, 2: 2.0, 3: 1.0}


def test_traced_invocation_writes_identical_bytes_and_counts_svds(tmp_path):
    inputs, _ = build_inputs(TINY_MERGE, 5, tmp_path / "in")
    invoke(TINY_MERGE, inputs, tmp_path / "plain")

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.invocation") as window:
            invoke(TINY_MERGE, inputs, tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert output_digest(tmp_path / "traced") == output_digest(tmp_path / "plain")

    metrics = tracing.layer_metrics(tracer.spans, window, tracer.errors)
    layers, experts = TINY_MERGE.num_layers, TINY_MERGE.experts
    assert metrics["linalg.thin_svd.calls"] == layers * (1 + experts)
    assert metrics["pivot.decouple.svd_calls"] == layers * experts
    assert metrics["tensorstore.load_checkpoint.calls"] == 1 + experts
    assert metrics["tensorstore.save_checkpoint.mb"] > 0
    assert 0 < metrics["pivot.decouple.rank_ratio"] <= 1
    assert metrics["pivot.layer_overlap"] > 0
    assert metrics["cli.self_s"] > 0
    assert metrics["synth.generate.s"] == 0
