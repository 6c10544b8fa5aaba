import json

import numpy as np
import pytest

from pivotmerge import load_checkpoint, read_scores
from pivotmerge.cli import main
from conftest import checkpoint_rel_error


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "synth"
    assert main(["synth", "--out", str(out), "--seed", "7"]) == 0
    return out


def expert_paths(synth_dir):
    return sorted(str(p) for p in synth_dir.glob("expert*.tensors"))


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
                + ["--out", str(out), "--seed", "3", "--diagnostics", str(diag)])
    assert code == 0
    assert load_checkpoint(out).num_layers == 2
    record = json.loads(diag.read_text())
    assert record["method"] == method
    assert len(record["expert_ids"]) == 5


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


def test_merge_layout_mismatch_is_usage_error(synth_dir, tmp_path, capsys):
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


def test_analyze_requires_experts(synth_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--mode", "residual-sim",
              "--base", str(synth_dir / "base.tensors"),
              "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_synth_rejects_bad_dims(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", str(tmp_path / "x"), "--dims", "8,abc"])
    assert exc.value.code == 2


def test_unknown_method_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["merge", "--method", "bogus", "--base", "b", "--expert", "e",
              "--out", str(tmp_path / "x")])
    assert exc.value.code == 2

