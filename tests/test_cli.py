import dataclasses
import json
import os
import re
import threading
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from pivotmerge import (Layer, NumericalError, joint_decompose, load_checkpoint, read_container,
                        read_scores, save_checkpoint, write_container)
from pivotmerge import cli
from pivotmerge.cli import main
from conftest import checkpoint_rel_error, run_cli


def expert_paths(synth_dir):
    return sorted(str(p) for p in synth_dir.glob("expert*.tensors"))


def input_flags(synth_dir):
    return ["--base", str(synth_dir / "base.tensors")] + [
        arg for p in expert_paths(synth_dir) for arg in ("--expert", p)]


def command_args(command, synth_dir, out):
    """Arguments of `merge --method command`, or of `analyze --mode command`, on the synth inputs."""
    if command in ("residual-sim", "principal-angles"):
        return ["analyze", "--mode", command, *input_flags(synth_dir), "--out", str(out)]
    scores = ["--scores", str(synth_dir / "scores.json")] if command == "pivot" else []
    return ["merge", "--method", command, *input_flags(synth_dir), "--out", str(out), *scores]


def test_synth_outputs(synth_dir):
    assert (synth_dir / "base.tensors").exists()
    assert (synth_dir / "ground_truth.tensors").exists()
    assert (synth_dir / "spec.json").exists()
    assert (synth_dir / "scores.json").exists()
    experts = expert_paths(synth_dir)
    assert len(experts) == 5
    for p in experts:
        ck = load_checkpoint(p)
        assert ck.num_layers == 2
    table = read_scores(synth_dir / "scores.json")
    assert len(table.expert_ids) == 5
    assert json.loads((synth_dir / "spec.json").read_text())["layers"] == 2


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--out", str(a), "--seed", "9"]) == 0
    assert main(["synth", "--out", str(b), "--seed", "9"]) == 0
    for name in sorted(p.name for p in a.iterdir()):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_single_expert(tmp_path):
    out = tmp_path / "one"
    assert main(["synth", "--out", str(out), "--experts", "1"]) == 0
    assert len(expert_paths(out)) == 1


def test_merge_average_single_expert_is_identity(synth_dir, tmp_path):
    experts = expert_paths(synth_dir)
    out = tmp_path / "merged.tensors"
    code = main(["merge", "--method", "average", "--base", str(synth_dir / "base.tensors"),
                 "--expert", experts[0], "--out", str(out)])
    assert code == 0
    merged = load_checkpoint(out)
    expert = load_checkpoint(experts[0])
    assert checkpoint_rel_error(merged, expert) <= 1e-12


@pytest.mark.parametrize("method", ["average", "task-arithmetic", "ties", "dare-ties"])
def test_merge_baselines_run(synth_dir, tmp_path, method):
    out = tmp_path / f"{method}.tensors"
    diag = tmp_path / f"{method}.json"
    code = main(["merge", "--method", method, "--base", str(synth_dir / "base.tensors")]
                + [arg for p in expert_paths(synth_dir) for arg in ("--expert", p)]
                + ["--out", str(out), "--diagnostics", str(diag)]
                + (["--seed", "3"] if method == "dare-ties" else []))
    assert code == 0
    assert load_checkpoint(out).num_layers == 2
    record = json.loads(diag.read_text())
    assert record["method"] == method
    assert len(record["expert_ids"]) == 5


def _dump_then_fail(obj, fh, **kwargs):
    fh.write('{"partial": ')
    raise OSError("disk full")


def test_failed_diagnostics_write_leaves_old_file(synth_dir, tmp_path, monkeypatch):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    diag = out_dir / "diag.json"
    args = (["merge", "--method", "average", "--base", str(synth_dir / "base.tensors")]
            + [arg for p in expert_paths(synth_dir) for arg in ("--expert", p)]
            + ["--out", str(out_dir / "merged.tensors"), "--diagnostics", str(diag)])
    monkeypatch.setattr(json, "dump", _dump_then_fail)
    assert main(args) == 1
    assert sorted(p.name for p in out_dir.iterdir()) == ["merged.tensors"]
    monkeypatch.undo()
    assert main(args) == 0
    before = diag.read_bytes()
    monkeypatch.setattr(json, "dump", _dump_then_fail)
    assert main(args) == 1
    assert diag.read_bytes() == before
    assert sorted(p.name for p in out_dir.iterdir()) == ["diag.json", "merged.tensors"]


def test_merge_pivot_with_average_inner(synth_dir, tmp_path):
    out = tmp_path / "pivot-avg.tensors"
    diag = tmp_path / "pivot-avg.json"
    code = main(["merge", "--method", "pivot", "--inner", "average",
                 "--base", str(synth_dir / "base.tensors")]
                + [arg for p in expert_paths(synth_dir) for arg in ("--expert", p)]
                + ["--out", str(out), "--scores", str(synth_dir / "scores.json"),
                   "--diagnostics", str(diag)])
    assert code == 0
    record = json.loads(diag.read_text())
    assert record["config"]["inner"] == "weight_average"
    assert record["config"]["magnitude_space"] is False


def test_merge_pivot_with_defaults(synth_dir, tmp_path):
    out = tmp_path / "pivot.tensors"
    diag = tmp_path / "diag.json"
    code = main(["merge", "--method", "pivot",
                 "--base", str(synth_dir / "base.tensors")]
                + [arg for p in expert_paths(synth_dir) for arg in ("--expert", p)]
                + ["--out", str(out), "--scores", str(synth_dir / "scores.json"),
                   "--rank", "64", "--gamma", "20.0", "--beta", "0.05",
                   "--diagnostics", str(diag)])
    assert code == 0
    record = json.loads(diag.read_text())
    assert record["method"] == "pivot"
    assert record["config"]["rank"] == 64
    assert record["config"]["gamma"] == 20.0
    assert record["config"]["beta"] == 0.05
    assert len(record["layers"]) == 2
    alphas = np.array([layer["alpha"] for layer in record["layers"]])
    np.testing.assert_allclose(alphas.sum(axis=1), [1.0, 1.0], atol=1e-12)


def test_merge_pivot_requires_scores(synth_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["merge", "--method", "pivot", "--base", str(synth_dir / 'base.tensors'),
              "--expert", expert_paths(synth_dir)[0],
              "--out", str(tmp_path / "x.tensors")])
    assert exc.value.code == 2


def test_merge_rejects_bad_rho(synth_dir, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["merge", "--method", "pivot", "--base", str(synth_dir / 'base.tensors'),
              "--expert", expert_paths(synth_dir)[0],
              "--out", str(tmp_path / "x.tensors"),
              "--scores", str(synth_dir / "scores.json"), "--rho", "1.5"])
    assert exc.value.code == 2
    assert "--rho" in capsys.readouterr().err


def test_merge_expert_order_does_not_matter(synth_dir, tmp_path):
    experts = expert_paths(synth_dir)
    out_a, out_b = tmp_path / "a.tensors", tmp_path / "b.tensors"
    common = ["merge", "--method", "pivot", "--base", str(synth_dir / "base.tensors"),
              "--scores", str(synth_dir / "scores.json")]
    assert main(common + [arg for p in experts for arg in ("--expert", p)]
                + ["--out", str(out_a)]) == 0
    assert main(common + [arg for p in experts[::-1] for arg in ("--expert", p)]
                + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_merge_missing_file_is_computation_failure(tmp_path, capsys):
    code = main(["merge", "--method", "average", "--base", str(tmp_path / "nope.tensors"),
                 "--expert", str(tmp_path / "nope2.tensors"),
                 "--out", str(tmp_path / "x.tensors")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_merge_deterministic_bytes(synth_dir, tmp_path):
    experts = expert_paths(synth_dir)
    args = ["merge", "--method", "pivot", "--base", str(synth_dir / "base.tensors")] \
        + [arg for p in experts for arg in ("--expert", p)] \
        + ["--scores", str(synth_dir / "scores.json")]
    out_a, out_b = tmp_path / "a.tensors", tmp_path / "b.tensors"
    diag_a, diag_b = tmp_path / "da.json", tmp_path / "db.json"
    assert main(args + ["--out", str(out_a), "--diagnostics", str(diag_a)]) == 0
    assert main(args + ["--out", str(out_b), "--diagnostics", str(diag_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert diag_a.read_bytes() == diag_b.read_bytes()


def test_analyze_duplicate_expert_paths_rejected(synth_dir, tmp_path):
    expert = expert_paths(synth_dir)[0]
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--mode", "residual-sim",
              "--base", str(synth_dir / "base.tensors"),
              "--expert", expert, "--expert", expert, "--out", str(tmp_path / "sim")])
    assert exc.value.code == 2


@pytest.mark.parametrize("link", ["same", "dot", "symlink", "hardlink", "new"])
def test_a_diagnostics_file_that_is_the_out_file_is_a_usage_error(synth_dir, tmp_path, capsys,
                                                                    tensor_reads, link):
    work = tmp_path / "work"
    work.mkdir()
    out = work / "x"
    diag = {"same": out, "dot": f"{work}/./x", "symlink": work / "link",
            "hardlink": work / "hard", "new": out}[link]
    if link != "new":
        out.write_bytes(b"keep me")
    if link == "symlink":
        diag.symlink_to(out)
    elif link == "hardlink":
        os.link(out, diag)
    before = {p.name: p.read_bytes() for p in work.iterdir()}
    with pytest.raises(SystemExit) as exc:
        main(["merge", "--method", "ties", "--base", str(synth_dir / "base.tensors"),
              "--expert", expert_paths(synth_dir)[0], "--expert", expert_paths(synth_dir)[1],
              "--out", str(out), "--diagnostics", str(diag)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--diagnostics {diag} names the same file as --out {out}" in err
    assert {p.name: p.read_bytes() for p in work.iterdir()} == before
    assert tensor_reads == []


@pytest.mark.parametrize("case", ["out-in-missing-dir", "out-is-dir", "diagnostics-in-missing-dir",
                                  "diagnostics-is-dir", "analyze-out-is-file", "synth-out-is-file"])
def test_a_bad_output_path_is_a_usage_error_before_any_input_is_read(synth_dir, tmp_path, capsys,
                                                                     tensor_reads, case):
    work = tmp_path / "work"
    (work / "sub").mkdir(parents=True)
    (work / "afile").write_bytes(b"keep me")
    flag, path = {"out-in-missing-dir": ("--out", work / "nodir" / "x.tensors"),
                  "out-is-dir": ("--out", work / "sub"),
                  "diagnostics-in-missing-dir": ("--diagnostics", work / "nodir" / "d.json"),
                  "diagnostics-is-dir": ("--diagnostics", work / "sub"),
                  "analyze-out-is-file": ("--out", work / "afile"),
                  "synth-out-is-file": ("--out", work / "afile")}[case]
    if case.startswith("analyze"):
        args = command_args("residual-sim", synth_dir, path)
    elif case.startswith("synth"):
        args = ["synth", "--out", str(path)]
    elif flag == "--out":
        args = command_args("average", synth_dir, path)
    else:
        args = command_args("average", synth_dir, work / "x.tensors") + [flag, str(path)]
    before = sorted((p.relative_to(work), p.is_file() and p.read_bytes()) for p in work.rglob("*"))
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert f"{flag} {path}" in capsys.readouterr().err
    assert sorted((p.relative_to(work), p.is_file() and p.read_bytes())
                  for p in work.rglob("*")) == before
    assert tensor_reads == []


@pytest.mark.parametrize("link", ["same", "symlink", "hardlink"])
@pytest.mark.parametrize("output, inp", [("--out", "--base"), ("--out", "--expert"),
                                         ("--out", "--scores"), ("--diagnostics", "--base"),
                                         ("--diagnostics", "--expert"),
                                         ("--diagnostics", "--scores")])
def test_a_merge_output_that_is_an_input_is_a_usage_error(synth_dir, tmp_path, capsys,
                                                          tensor_reads, output, inp, link):
    target = {"--base": synth_dir / "base.tensors", "--expert": Path(expert_paths(synth_dir)[1]),
              "--scores": synth_dir / "scores.json"}[inp]
    path = {"same": target, "symlink": tmp_path / "link", "hardlink": tmp_path / "hard"}[link]
    if link == "symlink":
        path.symlink_to(target)
    elif link == "hardlink":
        os.link(target, path)
    args = command_args("pivot", synth_dir, tmp_path / "x.tensors")
    if output == "--out":
        args[args.index("--out") + 1] = str(path)
    else:
        args += ["--diagnostics", str(path)]
    before = {p.name: p.read_bytes() for p in synth_dir.iterdir()}
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert f"{output} {path} names the same file as {inp} {target}" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in synth_dir.iterdir()} == before
    assert tensor_reads == []


@pytest.mark.parametrize("case, message", [
    ("missing-id", r"score table is missing experts: \['expert03'\]"),
    ("layers", "score table has 3 layers but checkpoints have 2")], ids=["missing-id", "layers"])
def test_a_score_file_that_does_not_fit_the_experts_is_a_usage_error(synth_dir, tmp_path,
                                                                      capsys, case, message):
    scores = tmp_path / "scores.json"
    doc = json.loads((synth_dir / "scores.json").read_text())
    if case == "missing-id":
        doc["experts"] = [e for e in doc["experts"] if e["id"] != "expert03"]
    else:
        for entry in doc["experts"]:
            entry["scores"].append(0.0)
    scores.write_text(json.dumps(doc))
    args = command_args("pivot", synth_dir, tmp_path / "x.tensors")
    args[args.index("--scores") + 1] = str(scores)
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert re.search(rf"--scores {re.escape(str(scores))}: {message}", capsys.readouterr().err)
    assert not (tmp_path / "x.tensors").exists()


def test_a_score_file_with_an_expert_the_merge_does_not_take_is_accepted(synth_dir, tmp_path):
    # Only the merged experts' rows enter the weights, so an extra entry changes no byte.
    doc = json.loads((synth_dir / "scores.json").read_text())
    doc["experts"].append({"id": "expert99", "scores": doc["experts"][0]["scores"]})
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps(doc))
    assert main(command_args("pivot", synth_dir, tmp_path / "want.tensors")) == 0
    args = command_args("pivot", synth_dir, tmp_path / "got.tensors")
    args[args.index("--scores") + 1] = str(scores)
    assert main(args) == 0
    assert (tmp_path / "got.tensors").read_bytes() == (tmp_path / "want.tensors").read_bytes()


def test_pivot_merges_deltas_of_norm_below_1e_12(tmp_path):
    # Each expert is the base plus its delta scaled by 2^-45; the merge must not
    # floor those deltas away and write the base.
    out = tmp_path / "synth"
    assert main(["synth", "--out", str(out), "--experts", "3", "--seed", "1"]) == 0
    base = load_checkpoint(out / "base.tensors")
    for path in expert_paths(out):
        ck = load_checkpoint(path)
        save_checkpoint(path, dataclasses.replace(ck, layers=tuple(
            Layer(b.matrix + np.ldexp(e.matrix - b.matrix, -45), b.has_bias)
            for e, b in zip(ck.layers, base.layers))))
    merged = tmp_path / "merged.tensors"
    with pytest.warns(UserWarning, match="clamping"):
        assert main(command_args("pivot", out, merged)) == 0
    moved = [np.abs(m.matrix - b.matrix).max()
             for m, b in zip(load_checkpoint(merged).layers, base.layers)]
    assert all(0.0 < d < 1e-12 for d in moved)


def test_principal_angles_with_an_expert_equal_to_the_base_writes_null_means(synth_dir,
                                                                             tmp_path):
    # The zero expert's angles are NaN, so no off-diagonal entry is finite.
    out = tmp_path / "angles"
    base = synth_dir / "base.tensors"
    result = run_cli("analyze", "--mode", "principal-angles", "--base", base,
                     "--expert", expert_paths(synth_dir)[0], "--expert", base, "--out", out)
    assert result.returncode == 0, result.stderr
    assert "RuntimeWarning" not in result.stderr

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
    assert summary["mean_angle_raw"] is None
    assert summary["mean_angle_filtered"] is None


def test_merge_layout_mismatch_is_usage_error(synth_dir, tmp_path, capsys, tensor_reads):
    other = tmp_path / "other"
    assert main(["synth", "--out", str(other), "--dims", "8,16,12", "--experts", "2"]) == 0
    out = tmp_path / "x.tensors"
    with pytest.raises(SystemExit) as exc:
        main(["merge", "--method", "average", "--base", str(synth_dir / "base.tensors"),
              "--expert", expert_paths(synth_dir)[0], "--expert", str(other / "expert02.tensors"),
              "--out", str(out)])
    assert exc.value.code == 2
    assert "'expert02' layer shapes" in capsys.readouterr().err
    assert not out.exists()
    # The layouts come from the headers: no layer was read.
    assert tensor_reads == []


@pytest.mark.parametrize("command", ["pivot", "ties", "dare-ties", "residual-sim",
                                     "principal-angles"])
def test_every_input_tensor_is_read_exactly_once(synth_dir, tmp_path, tensor_reads, command):
    stems = ["base"] + [Path(p).stem for p in expert_paths(synth_dir)]
    expected = Counter((stem, name) for stem in stems
                       for name in read_container(synth_dir / f"{stem}.tensors"))
    tensor_reads.clear()
    assert main(command_args(command, synth_dir, tmp_path / "out")) == 0
    assert Counter(tensor_reads) == expected
    assert set(expected.values()) == {1}


@pytest.mark.parametrize("command", ["pivot", "residual-sim", "principal-angles"])
def test_a_clamped_rank_prints_one_warning_naming_every_layer(synth_dir, tmp_path, command):
    # The default synth set's two layers have blocks of rank 9 and 16, both
    # below the default rank 64; each used to print a warning of its own.
    result = run_cli(*command_args(command, synth_dir, tmp_path / "out"))
    assert result.returncode == 0, result.stderr
    clamps = [line for line in result.stderr.splitlines() if "clamp" in line]
    assert clamps == [
        "warning: rank 64 exceeds the block rank limit of layer 1 (9), layer 2 (16); clamping"]
    # One line per warning: no file, line or source line of the warning call.
    assert "UserWarning" not in result.stderr and "warnings.warn" not in result.stderr


@pytest.mark.parametrize("victim, name, bad", [
    ("expert03", "layer.2.bias", np.nan),
    ("base", "layer.2.weight", np.inf),
], ids=["expert-bias-nan", "base-weight-inf"])
@pytest.mark.parametrize("command", ["pivot", "ties", "residual-sim"])
def test_a_bad_last_layer_fails_after_layer_one_without_output(synth_dir, tmp_path, capsys,
                                                              tensor_reads, command, victim,
                                                              name, bad):
    path = synth_dir / f"{victim}.tensors"
    tensors = read_container(path)
    tensors[name].flat[-1] = bad
    write_container(path, tensors)
    out, diag = tmp_path / "out", tmp_path / "diag.json"
    args = command_args(command, synth_dir, out)
    if args[0] == "merge":
        args += ["--diagnostics", str(diag)]
    tensor_reads.clear()
    assert main(args) == 1
    err = capsys.readouterr().err
    kind = name.rsplit(".", 1)[1]
    assert err.startswith("error: ")
    assert f"{victim}.tensors: layer.2: layer {kind} contains NaN or Inf" in err
    # Every input's first layer was read before the fault showed.
    assert {stem for stem, tensor in tensor_reads if tensor == "layer.1.weight"} == {
        "base", *(Path(p).stem for p in expert_paths(synth_dir))}
    assert not out.exists() and not diag.exists()

    if args[0] == "merge":
        out.write_bytes(b"earlier merge")
        kept = {out: b"earlier merge"}
    else:
        out.mkdir()
        (out / "summary.json").write_text("{}\n")
        kept = {out / "summary.json": b"{}\n"}
    diag.write_bytes(b"earlier diagnostics")
    kept[diag] = b"earlier diagnostics"
    assert main(args) == 1
    assert {p: p.read_bytes() for p in kept} == kept
    assert sorted(p.name for p in tmp_path.iterdir()) == ["diag.json", "out", "synth"]
    if args[0] == "analyze":
        assert [p.name for p in out.iterdir()] == ["summary.json"]


def test_merge_reads_the_base_from_a_pipe(synth_dir, tmp_path):
    args = command_args("pivot", synth_dir, tmp_path / "from-file.tensors")
    assert main(args + ["--diagnostics", str(tmp_path / "from-file.json")]) == 0
    fifo = tmp_path / "base.tensors"
    os.mkfifo(fifo)
    blob = (synth_dir / "base.tensors").read_bytes()
    writer = threading.Thread(target=lambda: fifo.write_bytes(blob))
    writer.start()
    args = command_args("pivot", synth_dir, tmp_path / "from-pipe.tensors")
    args[args.index("--base") + 1] = str(fifo)
    assert main(args + ["--diagnostics", str(tmp_path / "from-pipe.json")]) == 0
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert (tmp_path / "from-pipe.tensors").read_bytes() == \
        (tmp_path / "from-file.tensors").read_bytes()
    assert (tmp_path / "from-pipe.json").read_bytes() == (tmp_path / "from-file.json").read_bytes()


def test_pivot_merge_holds_no_float64_copy_of_its_inputs(tmp_path):
    # Eight 64x65 layers, N=4, in units of one float64 checkpoint (266 KiB):
    # tracemalloc put one merge at 8.6 (2245 KiB) when the base and the
    # experts were loaded whole, and at 4.0 (1044 KiB) with each layer read
    # when the kernel needs it.
    inputs = tmp_path / "in"
    assert main(["synth", "--out", str(inputs), "--dims", ",".join(["64"] * 9),
                 "--experts", "4", "--core-rank", "2", "--seed", "6"]) == 0
    args = command_args("pivot", inputs, tmp_path / "merged.tensors") + ["--rank", "4"]
    assert main(args) == 0
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert main(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    checkpoint = 8 * 64 * 65 * 8
    assert peak - before < 8.6 / 2 * checkpoint


def test_analyze_residual_sim_identical_experts(synth_dir, tmp_path):
    # same checkpoint content under two ids: residuals agree perfectly
    import shutil
    expert = expert_paths(synth_dir)[0]
    twin_a, twin_b = tmp_path / "twin_a.tensors", tmp_path / "twin_b.tensors"
    shutil.copy(expert, twin_a)
    shutil.copy(expert, twin_b)
    out = tmp_path / "sim"
    code = main(["analyze", "--mode", "residual-sim",
                 "--base", str(synth_dir / "base.tensors"),
                 "--expert", str(twin_a), "--expert", str(twin_b),
                 "--out", str(out), "--rank", "4"])
    assert code == 0
    before = np.loadtxt(out / "residual_similarity_before.csv", delimiter=",")
    np.testing.assert_allclose(before, np.ones((2, 2)), atol=1e-9)


def test_analyze_residual_sim(synth_dir, tmp_path):
    out = tmp_path / "sim"
    code = main(["analyze", "--mode", "residual-sim",
                 "--base", str(synth_dir / "base.tensors")]
                + [arg for p in expert_paths(synth_dir) for arg in ("--expert", p)]
                + ["--out", str(out), "--rank", "4"])
    assert code == 0
    before = np.loadtxt(out / "residual_similarity_before.csv", delimiter=",")
    after = np.loadtxt(out / "residual_similarity_after.csv", delimiter=",")
    assert before.shape == after.shape == (5, 5)
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) >= {"mean_offdiagonal_before", "mean_offdiagonal_after"}


def test_analyze_principal_angles(synth_dir, tmp_path):
    out = tmp_path / "angles"
    code = main(["analyze", "--mode", "principal-angles",
                 "--base", str(synth_dir / "base.tensors")]
                + [arg for p in expert_paths(synth_dir) for arg in ("--expert", p)]
                + ["--out", str(out), "--rank", "4"])
    assert code == 0
    assert (out / "principal_angles_raw.csv").exists()
    assert (out / "principal_angles_filtered.csv").exists()


def test_analyze_principal_angles_wide_sources_run_no_svd(tmp_path, monkeypatch):
    # --dims 8,16,16 gives 16x26 model sources of full row rank: each spans R^16,
    # so every angle is exactly 0 and neither the bases nor the angles need an SVD.
    synth_dir = tmp_path / "synth"
    assert main(["synth", "--out", str(synth_dir), "--dims", "8,16,16", "--seed", "7"]) == 0

    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        code = main(["analyze", "--mode", "principal-angles",
                     "--base", str(synth_dir / "base.tensors")]
                    + [arg for p in expert_paths(synth_dir) for arg in ("--expert", p)]
                    + ["--out", str(out), "--rank", "4"])
        assert code == 0
    for name in ("principal_angles_raw.csv", "principal_angles_filtered.csv"):
        np.testing.assert_array_equal(np.loadtxt(outs[0] / name, delimiter=","), np.zeros((5, 5)))
    for name in sorted(p.name for p in outs[0].iterdir()):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_analyze_layer_weights(synth_dir, tmp_path):
    out = tmp_path / "weights"
    code = main(["analyze", "--mode", "layer-weights",
                 "--scores", str(synth_dir / "scores.json"), "--out", str(out)])
    assert code == 0
    table = np.loadtxt(out / "layer_weights.csv", delimiter=",")
    assert table.shape == (5, 2)
    np.testing.assert_allclose(table.sum(axis=0), [1.0, 1.0], atol=1e-12)


def test_analyze_layer_weights_matches_unit_values(tmp_path):
    scores = {"beta": 0.05,
              "experts": [{"id": "a", "scores": [0.1]}, {"id": "b", "scores": [0.0]}]}
    path = tmp_path / "scores.json"
    path.write_text(json.dumps(scores))
    out = tmp_path / "weights"
    assert main(["analyze", "--mode", "layer-weights", "--scores", str(path),
                 "--out", str(out)]) == 0
    table = np.loadtxt(out / "layer_weights.csv", delimiter=",").reshape(2, 1)
    np.testing.assert_allclose(table[:, 0], [0.8808, 0.1192], atol=1e-4)


OPERATOR_FLAGS = [("--trim", "0.5"), ("--lambda", "0.7"), ("--drop", "0.3"), ("--seed", "3"),
                  ("--inner", "average")]
# The pivot inner operator that reads each operator flag (ties, the default, reads --trim).
INNER_READING = {"--lambda": "task-arithmetic", "--drop": "dare-ties", "--seed": "dare-ties"}


@pytest.mark.parametrize("flag, value", OPERATOR_FLAGS, ids=[f for f, _ in OPERATOR_FLAGS])
def test_operator_flags_are_merge_only(synth_dir, tmp_path, capsys, flag, value):
    experts = [arg for p in expert_paths(synth_dir) for arg in ("--expert", p)]
    base = ["--base", str(synth_dir / "base.tensors")]
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--mode", "residual-sim", *base, *experts,
              "--out", str(tmp_path / "sim"), flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    inner = ["--inner", INNER_READING[flag]] if flag in INNER_READING else []
    assert main(["merge", "--method", "pivot", *base, *experts, *inner,
                 "--scores", str(synth_dir / "scores.json"),
                 "--out", str(tmp_path / "m.tensors"), flag, value]) == 0


# The operator flags each merge method reads, pivot with its default ties inner.
METHOD_READS = {"average": (), "task-arithmetic": ("--lambda",), "ties": ("--trim",),
                "dare-ties": ("--trim", "--drop", "--seed"), "pivot": ("--trim", "--inner")}
UNREAD_OPERATOR_FLAGS = [
    (method, [flag, value], flag)
    for method, reads in METHOD_READS.items()
    for flag, value in OPERATOR_FLAGS if flag not in reads
] + [("pivot", ["--inner", "average", "--trim", "0.5"], "--trim")]


@pytest.mark.parametrize("method, args, flag", UNREAD_OPERATOR_FLAGS,
                         ids=[m + "".join(a[::2]) for m, a, _ in UNREAD_OPERATOR_FLAGS])
def test_merge_rejects_operator_flags_its_method_never_reads(synth_dir, tmp_path, capsys,
                                                             method, args, flag):
    scores = ["--scores", str(synth_dir / "scores.json")] if method == "pivot" else []
    with pytest.raises(SystemExit) as exc:
        main(["merge", "--method", method, "--base", str(synth_dir / "base.tensors"),
              *[arg for p in expert_paths(synth_dir) for arg in ("--expert", p)], *scores, *args,
              "--out", str(tmp_path / "x.tensors"), "--diagnostics", str(tmp_path / "x.json")])
    assert exc.value.code == 2
    assert f"{flag} is not read by --method {method}" in capsys.readouterr().err
    assert not (tmp_path / "x.tensors").exists()
    assert not (tmp_path / "x.json").exists()


UNREAD_ANALYZE_FLAGS = [
    (mode, flag, value)
    for mode in ("residual-sim", "principal-angles")
    for flag, value in (("--scores", "/nonexistent.json"), ("--beta", "0.1"))
] + [("layer-weights", flag, value)
     for flag, value in (("--rank", "3"), ("--gamma", "5"), ("--rho", "0.4"),
                         ("--base", "base.tensors"), ("--expert", "expert01.tensors"))]


@pytest.mark.parametrize("mode, flag, value", UNREAD_ANALYZE_FLAGS,
                         ids=[f"{m}{f}" for m, f, _ in UNREAD_ANALYZE_FLAGS])
def test_analyze_rejects_flags_its_mode_never_reads(synth_dir, tmp_path, capsys, mode, flag,
                                                    value):
    if mode == "layer-weights":
        args = ["--scores", str(synth_dir / "scores.json")]
        value = str(synth_dir / value) if flag in ("--base", "--expert") else value
    else:
        args = ["--base", str(synth_dir / "base.tensors"), "--rank", "4"] \
            + [arg for p in expert_paths(synth_dir) for arg in ("--expert", p)]
    out = tmp_path / "report"
    assert main(["analyze", "--mode", mode, *args, "--out", str(out)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--mode", mode, *args, flag, value, "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert f"{flag} is not read by --mode {mode}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


PIVOT_ONLY_FLAGS = [("--scores", "/nonexistent.json"), ("--rank", "3"), ("--gamma", "5"),
                    ("--rho", "0.9"), ("--beta", "0.1")]
BASELINE_METHODS = ["average", "task-arithmetic", "ties", "dare-ties"]


@pytest.mark.parametrize("flag, value", PIVOT_ONLY_FLAGS, ids=[f for f, _ in PIVOT_ONLY_FLAGS])
@pytest.mark.parametrize("method", BASELINE_METHODS)
def test_merge_baselines_reject_pivot_only_flags(synth_dir, tmp_path, capsys, method, flag, value):
    args = ["merge", "--method", method, "--base", str(synth_dir / "base.tensors"),
            *[arg for p in expert_paths(synth_dir) for arg in ("--expert", p)]]
    assert main([*args, "--out", str(tmp_path / "m.tensors")]) == 0
    assert (tmp_path / "m.tensors").exists()
    with pytest.raises(SystemExit) as exc:
        main([*args, flag, value, "--out", str(tmp_path / "x.tensors"),
              "--diagnostics", str(tmp_path / "x.json")])
    assert exc.value.code == 2
    assert f"{flag} is not read by --method {method}" in capsys.readouterr().err
    assert not (tmp_path / "x.tensors").exists()
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("beta_from", ["flag", "file"])
@pytest.mark.parametrize("command", ["merge", "analyze"])
def test_overflowing_beta_fails_without_output(synth_dir, tmp_path, capsys, command, beta_from):
    # 0.1 / 1e-310 overflows float64; the softmax used to turn it into NaN weights.
    experts = expert_paths(synth_dir)
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps({
        "beta": 1e-310 if beta_from == "file" else 0.05,
        "experts": [{"id": Path(p).stem, "scores": [0.1 * i, 0.0]}
                    for i, p in enumerate(experts)]}))
    args = ["--scores", str(scores)] + (["--beta", "1e-310"] if beta_from == "flag" else [])
    if command == "merge":
        out = tmp_path / "merged.tensors"
        diag = tmp_path / "diag.json"
        args = ["merge", "--method", "pivot", "--base", str(synth_dir / "base.tensors"),
                *[arg for p in experts for arg in ("--expert", p)],
                "--out", str(out), "--diagnostics", str(diag), *args]
        written = [out, diag]
    else:
        out = tmp_path / "weights"
        args = ["analyze", "--mode", "layer-weights", "--out", str(out), *args]
        written = [out]
    assert main(args) == 1
    assert "beta 1e-310 is too small" in capsys.readouterr().err
    assert not any(p.exists() for p in written)


def test_failed_gram_eigensolve_fails_naming_the_shape_without_output(synth_dir, tmp_path,
                                                                     capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    gen = np.random.default_rng(3)
    with pytest.raises(NumericalError, match=r"failed to converge on shape \(12, 24\)"):
        joint_decompose(np.stack([gen.standard_normal((12, 8)) for _ in range(3)], axis=1))
    out = tmp_path / "merged.tensors"
    diag = tmp_path / "diag.json"
    code = main(["merge", "--method", "pivot", "--base", str(synth_dir / "base.tensors")]
                + [arg for p in expert_paths(synth_dir) for arg in ("--expert", p)]
                + ["--out", str(out), "--scores", str(synth_dir / "scores.json"),
                   "--diagnostics", str(diag)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "failed to converge on shape" in err
    assert not out.exists() and not diag.exists()


def test_analyze_requires_experts(synth_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--mode", "residual-sim",
              "--base", str(synth_dir / "base.tensors"),
              "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


@pytest.mark.parametrize("dims", ["8,abc", "8,0", "8", "8,nan", "8,inf", "8,-inf"])
def test_synth_rejects_bad_dims(tmp_path, capsys, dims):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", str(tmp_path / "x"), f"--dims={dims}"])
    assert exc.value.code == 2
    assert "--dims" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_unknown_method_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["merge", "--method", "bogus", "--base", "b", "--expert", "e",
              "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


# Each numeric flag, the command that reads it, and a value outside its range; None where
# every finite value is valid (a seed). NaN and both infinities are invalid for every flag.
PIVOT = ["merge", "--method", "pivot", "--scores", "scores.json"]
ANALYZE = {mode: ["analyze", "--mode", mode] for mode in ("residual-sim", "principal-angles")}
INVALID_SETTINGS = [
    *[(PIVOT + inner, flag, bad) for inner, flag, bad in [
        ([], "--rank", "0"), ([], "--gamma", "0"), ([], "--rho", "1.5"), ([], "--beta", "-1"),
        ([], "--trim", "0"), (["--inner", "task-arithmetic"], "--lambda", "0"),
        (["--inner", "dare-ties"], "--drop", "1"), (["--inner", "dare-ties"], "--seed", None)]],
    (["merge", "--method", "task-arithmetic"], "--lambda", "-1"),
    (["merge", "--method", "ties"], "--trim", "1.5"),
    (["merge", "--method", "dare-ties"], "--trim", "-0.5"),
    (["merge", "--method", "dare-ties"], "--drop", "-0.1"),
    (["merge", "--method", "dare-ties"], "--seed", None),
    *[(ANALYZE[mode], flag, bad) for mode in ANALYZE
      for flag, bad in (("--rank", "-2"), ("--gamma", "-1"), ("--rho", "0"))],
    (["analyze", "--mode", "layer-weights", "--scores", "scores.json"], "--beta", "0"),
    *[(["synth"], flag, bad) for flag, bad in (
        ("--experts", "0"), ("--core-rank", "0"), ("--residual-scale", "-1"),
        ("--shared-fraction", "1.5"), ("--noise-scale", "-0.5"), ("--seed", None))],
]
INVALID_CASES = [(args, flag, value) for args, flag, bad in INVALID_SETTINGS
                 for value in ([bad] if bad else []) + ["nan", "inf", "-inf"]]


@pytest.mark.parametrize("args, flag, value", INVALID_CASES,
                         ids=[f"{' '.join(a[:3])}{f}={v}" for a, f, v in INVALID_CASES])
def test_every_invalid_setting_is_a_usage_error_naming_its_flag(tmp_path, capsys, monkeypatch,
                                                               args, flag, value):
    opened = []
    monkeypatch.setattr(cli, "open_checkpoint", lambda path: opened.append(path))
    monkeypatch.setattr(cli, "read_scores", lambda path: opened.append(path))
    inputs = [] if args[0] == "synth" or "layer-weights" in args else [
        "--base", "base.tensors", "--expert", "a.tensors", "--expert", "b.tensors"]
    out = tmp_path / "out"
    diag = ["--diagnostics", str(tmp_path / "d.json")] if args[0] == "merge" else []
    with pytest.raises(SystemExit) as exc:
        # "--flag=-inf": argparse reads a bare "-inf" as a flag
        main([*args, *inputs, *diag, "--out", str(out), f"{flag}={value}"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert opened == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["merge", "layer-weights"])
def test_an_infinite_beta_in_the_score_file_fails_naming_the_file(synth_dir, tmp_path, capsys,
                                                                  command):
    doc = json.loads((synth_dir / "scores.json").read_text())
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps({**doc, "beta": float("inf")}))  # writes Infinity
    out = tmp_path / "out"
    if command == "merge":
        args = ["merge", "--method", "pivot", *input_flags(synth_dir)]
    else:
        args = ["analyze", "--mode", "layer-weights"]
    assert main([*args, "--scores", str(scores), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{scores}: beta must be positive and finite, got inf" in err
    assert not out.exists()


# At rank 3 the merged cores and residuals also overflow when they are added.
@pytest.mark.parametrize("method", [["task-arithmetic"],
                                    ["pivot", "--inner", "task-arithmetic"],
                                    ["pivot", "--inner", "task-arithmetic", "--rank", "3"]])
def test_a_merge_that_overflows_names_the_merged_layer(synth_dir, tmp_path, method):
    out, diag = tmp_path / "merged.tensors", tmp_path / "diag.json"
    scores = ["--scores", synth_dir / "scores.json"] if method[0] == "pivot" else []
    result = run_cli("merge", "--method", *method, *input_flags(synth_dir), *scores,
                     "--lambda", "1e308", "--out", out, "--diagnostics", diag)
    assert result.returncode == 1
    assert "RuntimeWarning" not in result.stderr
    assert result.stderr.splitlines()[-1].startswith("error: merged layer 1 overflowed")
    assert result.stdout == ""
    assert not out.exists() and not diag.exists()


@pytest.mark.parametrize("args", [
    ["merge", "--method", "pivot", "--base", "b.tensors", "--expert", "e.tensors"],
    ["analyze", "--mode", "layer-weights", "--scores", "s.json", "--rank", "3"],
    ["synth", "--experts", "0"],
], ids=["merge", "analyze", "synth"])
def test_a_handler_usage_error_prints_its_subcommand_usage(tmp_path, capsys, args):
    with pytest.raises(SystemExit) as exc:
        main([*args, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith(f"usage: pivotmerge {args[0]} ")
    assert lines[-1].startswith(f"pivotmerge {args[0]}: error: ")
    assert list(tmp_path.iterdir()) == []
