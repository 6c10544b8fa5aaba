"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines.
Synthetic configurations are frozen (seeds 0..9 etc.) so every run checks the
same instances.
"""

import itertools
import json
import time

import numpy as np
import pytest

from pivotmerge import (
    MergeOperator,
    PivotConfig,
    ScoreTable,
    SynthSpec,
    decouple,
    filter_residuals,
    generate,
    joint_decompose,
    layer_weights,
    merge_checkpoint_deltas,
    merge_weighted,
    pivot_merge,
    read_container,
    recovery_score,
    score_increments,
    threshold_from_ratio,
    write_container,
)
from pivotmerge import analysis, pivot
from pivotmerge.cli import main as cli_main
from pivotmerge.operators import dare, task_arithmetic
from conftest import checkpoint_rel_error, make_checkpoint
from ties_oracle import ties_reference


def check(criterion, description, ok, details=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {criterion}: {description}"
    if details:
        line += f" ({details})"
    print(line)
    assert ok, line


def uniform_table(experts, num_layers):
    return ScoreTable(expert_ids=tuple(e.id for e in experts),
                      scores=np.zeros((len(experts), num_layers)))


# -------------------------------------------------------------------------
# 1. decomposition exactness


def test_criterion_1_decomposition_exactness():
    started = time.monotonic()
    worst_recon = 0.0
    worst_split = 0.0
    sizes = itertools.cycle([2, 3, 5])
    for seed in range(50):
        gen = np.random.default_rng(seed)
        n = next(sizes)
        d_out = int(gen.integers(8, 65))
        width = int(gen.integers(4, 33))
        deltas = [gen.standard_normal((d_out, width)) for _ in range(n)]
        shared, coeffs = joint_decompose(np.stack(deltas, axis=1))
        for delta, block in zip(deltas, coeffs):
            recon = (shared.u * shared.s) @ block
            worst_recon = max(worst_recon,
                              np.linalg.norm(recon - delta) / np.linalg.norm(delta))
        blocks = [b.copy() for b in coeffs]
        dec = decouple(coeffs, rank=min(8, min(blocks[0].shape)))  # residuals into coeffs
        for block, core, resid in zip(blocks, dec.cores, coeffs):
            ratio = np.abs(pivot._dense(core) + resid - block) / np.maximum(np.abs(block), 1e-300)
            worst_split = max(worst_split, float(ratio.max()))
    elapsed = time.monotonic() - started
    check(1, "joint reconstruction <= 1e-8 and core+residual split exact on 50 sets",
          worst_recon <= 1e-8 and worst_split <= 1e-12 and elapsed < 30.0,
          f"recon={worst_recon:.2e}, split={worst_split:.2e}, {elapsed:.1f}s")


# -------------------------------------------------------------------------
# 2. identity and idempotence


@pytest.mark.filterwarnings("ignore:rank 64 exceeds the block rank limit:UserWarning")
def test_criterion_2_identity_and_idempotence():
    rng = np.random.default_rng(202)
    base = make_checkpoint("base", rng, [6, 12, 9])
    solo = make_checkpoint("solo", rng, [6, 12, 9])
    merged_single, _ = pivot_merge([solo], base, uniform_table([solo], 2), PivotConfig())
    single_err = checkpoint_rel_error(merged_single, solo)

    expert = make_checkpoint("template", rng, [6, 12, 9])
    copies = []
    for i in range(4):
        ck = make_checkpoint(f"copy{i}", rng, [6, 12, 9])
        object.__setattr__(ck, "layers", expert.layers)
        copies.append(ck)
    merged_copies, _ = pivot_merge(
        copies, base, uniform_table(copies, 2),
        PivotConfig(inner=MergeOperator.ties(1.0)))
    copies_err = checkpoint_rel_error(merged_copies, expert)
    check(2, "N=1 identity and N-identical idempotence within 1e-8",
          single_err <= 1e-8 and copies_err <= 1e-8,
          f"single={single_err:.2e}, idempotence={copies_err:.2e}")


# -------------------------------------------------------------------------
# 3. filtering contracts


def test_criterion_3_filtering_contracts():
    rng = np.random.default_rng(303)
    residuals = [rng.standard_normal((12, 7)) for _ in range(4)]
    filtered = [r.copy() for r in residuals]
    mask, consist, tau, _ = filter_residuals(filtered, gamma=20.0, rho=0.5)

    order = np.argsort(consist)
    monotone = bool(np.all(np.diff(mask[order]) >= 0))
    half_at_tau = bool(np.all(mask[consist == tau] == 0.5)) and bool((consist == tau).any())
    mass_ok = all(
        abs(np.abs(f).sum() - np.abs(b).sum()) <= 1e-9 * np.abs(b).sum()
        for f, b in zip(filtered, residuals))
    tau_rule = (threshold_from_ratio([0.1, 0.2, 0.3, 0.4], 0.5) == pytest.approx(0.2)
                and threshold_from_ratio([0.1, 0.2, 0.3, 0.4], 0.999) == pytest.approx(0.1)
                and threshold_from_ratio([0.7], 0.3) == pytest.approx(0.7))
    check(3, "mask monotone, sigmoid(0)=0.5 at tau, L1 mass preserved, rho->tau rule",
          monotone and half_at_tau and mass_ok and tau_rule)


# -------------------------------------------------------------------------
# 4 + 5. filtering direction on synthetic heterogeneous experts

CRF_SPEC = dict(chain=[24, 48], experts=5, core_rank=4, residual_scale=3.0,
                shared_residual_fraction=0.0, noise_scale=0.01)
CRF_SEEDS = range(10)


@pytest.fixture(scope="module")
def crf_sweep():
    started = time.monotonic()
    rows = []
    for seed in CRF_SEEDS:
        spec = SynthSpec.from_chain(CRF_SPEC["chain"], experts=CRF_SPEC["experts"],
                                    core_rank=CRF_SPEC["core_rank"],
                                    residual_scale=CRF_SPEC["residual_scale"],
                                    shared_residual_fraction=CRF_SPEC["shared_residual_fraction"],
                                    noise_scale=CRF_SPEC["noise_scale"], seed=seed)
        base, experts, _ = generate(spec)
        config = PivotConfig(rank=CRF_SPEC["core_rank"])
        raw, filt, _ = analysis.collect_residuals(experts, base, config)
        sim_before = analysis.mean_offdiagonal(analysis.residual_similarity(raw))
        sim_after = analysis.mean_offdiagonal(analysis.residual_similarity(filt))
        raw_c, filt_c = analysis.collect_coefficients(experts, base, config)
        ang_raw = analysis.mean_offdiagonal(analysis.pairwise_principal_angles(raw_c))
        ang_filt = analysis.mean_offdiagonal(analysis.pairwise_principal_angles(filt_c))
        rows.append((sim_before, sim_after, ang_raw, ang_filt))
    return np.array(rows), time.monotonic() - started


def test_criterion_4_consistency_increase(crf_sweep):
    rows, elapsed = crf_sweep
    wins = int((rows[:, 1] > rows[:, 0]).sum())
    check(4, "flattened-residual similarity increases after filtering in >= 9/10 seeds",
          wins >= 9 and elapsed < 60.0,
          f"{wins}/10, mean {rows[:, 0].mean():.3f} -> {rows[:, 1].mean():.3f}, {elapsed:.1f}s")


def test_criterion_5_principal_angle_reduction(crf_sweep):
    rows, _ = crf_sweep
    wins = int((rows[:, 3] <= rows[:, 2]).sum())
    check(5, "filtered-coefficient principal angles <= raw-delta angles in >= 9/10 seeds",
          wins >= 9,
          f"{wins}/10, mean {rows[:, 2].mean():.2f} -> {rows[:, 3].mean():.2f} degrees")


# -------------------------------------------------------------------------
# 6. core recovery

RECOVERY_SPEC = dict(chain=[24, 48], experts=3, core_rank=4, residual_scale=0.5,
                     shared_residual_fraction=0.5, noise_scale=0.0)


def test_criterion_6_core_recovery():
    pivot_angles, wa_angles, best_angles = [], [], []
    for seed in range(10):
        spec = SynthSpec.from_chain(RECOVERY_SPEC["chain"],
                                    experts=RECOVERY_SPEC["experts"],
                                    core_rank=RECOVERY_SPEC["core_rank"],
                                    residual_scale=RECOVERY_SPEC["residual_scale"],
                                    shared_residual_fraction=RECOVERY_SPEC["shared_residual_fraction"],
                                    noise_scale=RECOVERY_SPEC["noise_scale"], seed=seed)
        base, experts, cores = generate(spec)
        table = uniform_table(experts, spec.layers)
        merged, _ = pivot_merge(experts, base, table,
                                PivotConfig(rank=RECOVERY_SPEC["core_rank"]))
        wa = merge_checkpoint_deltas(experts, base, MergeOperator.average())
        pivot_angles.append(np.mean(recovery_score(merged, base, cores)))
        wa_angles.append(np.mean(recovery_score(wa, base, cores)))
        best_angles.append(min(np.mean(recovery_score(e, base, cores)) for e in experts))
    pivot_angles = np.array(pivot_angles)
    beat_best = int((pivot_angles < np.array(best_angles)).sum())
    mean_pivot = float(pivot_angles.mean())
    mean_wa = float(np.mean(wa_angles))
    check(6, "merged delta closer to planted core than best expert (>=8/10) and <= weight averaging on average",
          beat_best >= 8 and mean_pivot <= mean_wa,
          f"beat best {beat_best}/10, mean pivot {mean_pivot:.3f} vs wa {mean_wa:.3f} degrees")


# -------------------------------------------------------------------------
# 7. operator oracles


def _ties_cases():
    """Every (inputs, weights, trim, expected) case of the ties check, in a fixed order.

    `expected` is None where the step-by-step oracle gives the expected result.
    """
    values = (-2.0, -1.0, 0.0, 1.0, 2.0)

    # With trim 1.0 the operator is entrywise, so checking every cross-expert
    # value tuple covers every matrix instance; tuples are packed four per 2x2.
    for n in (2, 3):
        tuples = list(itertools.product(values, repeat=n))
        for start in range(0, len(tuples), 4):
            chunk = tuples[start:start + 4]
            while len(chunk) < 4:
                chunk = chunk + [chunk[-1]]
            mats = [np.array([[chunk[0][i], chunk[1][i]], [chunk[2][i], chunk[3][i]]])
                    for i in range(n)]
            yield mats, [1.0] * n, 1.0, None

    # Full single-input enumeration across trim fractions: ties of one input is that input.
    for entries in itertools.product(values, repeat=4):
        m = np.array(entries).reshape(2, 2)
        for trim in (1.0, 0.5, 0.25):
            yield [m], [1.0], trim, m

    # Full two-input enumeration at trim 0.5 exercises the ranking cutoff.
    for a in itertools.product(values, repeat=4):
        ma = np.array(a).reshape(2, 2)
        for b in itertools.product(values, repeat=4):
            yield [ma, np.array(b).reshape(2, 2)], [1.0, 1.0], 0.5, None

    # Seeded three-input samples across the remaining trim fractions.
    gen = np.random.default_rng(777)
    for trim in (1.0, 0.5, 0.25):
        for _ in range(3000):
            mats = [gen.integers(-2, 3, size=(2, 2)).astype(float) for _ in range(3)]
            yield mats, [1.0, 1.0, 1.0], trim, None


def test_criterion_7_operator_oracles():
    got = np.empty((sum(1 for _ in _ties_cases()), 2, 2))
    want = np.empty_like(got)
    for k, (mats, weights, trim, expected) in enumerate(_ties_cases()):
        got[k] = merge_weighted(MergeOperator.ties(trim), mats, weights)
        want[k] = (ties_reference([m.tolist() for m in mats], weights, trim)
                   if expected is None else expected)
    # One exact comparison of every case; a failure names the first differing case.
    try:
        np.testing.assert_array_equal(got, want)
    except AssertionError:
        same = (got == want) | (np.isnan(got) & np.isnan(want))
        k = int(np.flatnonzero(~same.reshape(len(got), -1).all(axis=1))[0])
        mats, weights, trim, _ = next(itertools.islice(_ties_cases(), k, None))
        raise AssertionError(f"ties case {k}: inputs {[m.tolist() for m in mats]}, weights "
                             f"{weights}, trim {trim}: got {got[k].tolist()}, "
                             f"want {want[k].tolist()}") from None

    ones = np.ones((100, 100))
    np.testing.assert_array_equal(dare(ones, 0.0, seed=1), ones)
    dropped = dare(ones, 0.5, seed=11)
    se = 2.0 * np.sqrt(0.5 * 0.5 / ones.size)
    dare_ok = abs(dropped.mean() - 1.0) <= 3.0 * se

    ta_zero = task_arithmetic([np.eye(3), np.eye(3)], [1.0, 1.0], 0.0)
    ta_ok = not ta_zero.any()

    check(7, "ties matches the step-by-step oracle; dare identity/mean; zero-scale arithmetic",
          dare_ok and ta_ok,
          f"dare mean={dropped.mean():.4f} (3se={3 * se:.4f})")


# -------------------------------------------------------------------------
# 8. score math


def test_criterion_8_score_math():
    inc = score_increments([0.2, 0.5, 0.6])
    inc_ok = np.allclose(inc, [0.2, 0.3, 0.1], atol=1e-15)

    alpha = layer_weights(np.array([[0.1], [0.0]]), beta=0.05)[:, 0]
    unit_ok = np.allclose(alpha, [0.8808, 0.1192], atol=1e-4)

    sums_ok = True
    argmax_ok = True
    for seed in range(100):
        gen = np.random.default_rng(seed)
        table = gen.uniform(-1.0, 1.0, size=(5, 4))
        a = layer_weights(score_increments(table), beta=float(gen.uniform(0.01, 1.0)))
        sums_ok &= bool(np.all(np.abs(a.sum(axis=0) - 1.0) <= 1e-12))
        argmax_ok &= bool(np.array_equal(np.argmax(a, axis=0),
                                         np.argmax(score_increments(table), axis=0)))
    check(8, "increment and softmax unit values, column sums, argmax preservation",
          inc_ok and unit_ok and sums_ok and argmax_ok)


# -------------------------------------------------------------------------
# 9. determinism, format, end-to-end runtime


@pytest.mark.filterwarnings("ignore:rank 64 exceeds the block rank limit:UserWarning")
def test_criterion_9_determinism_and_end_to_end(tmp_path):
    started = time.monotonic()
    work = tmp_path / "flow"
    assert cli_main(["synth", "--out", str(work), "--seed", "7"]) == 0
    experts = sorted(str(p) for p in work.glob("expert*.tensors"))
    merge_args = (["merge", "--method", "pivot", "--base", str(work / "base.tensors")]
                  + [arg for p in experts for arg in ("--expert", p)]
                  + ["--scores", str(work / "scores.json")])
    out_a, out_b = tmp_path / "a.tensors", tmp_path / "b.tensors"
    diag_a, diag_b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(merge_args + ["--out", str(out_a), "--diagnostics", str(diag_a)]) == 0
    assert cli_main(merge_args + ["--out", str(out_b), "--diagnostics", str(diag_b)]) == 0
    deterministic = (out_a.read_bytes() == out_b.read_bytes()
                     and diag_a.read_bytes() == diag_b.read_bytes())

    for mode in ("residual-sim", "principal-angles"):
        assert cli_main(["analyze", "--mode", mode, "--base", str(work / "base.tensors")]
                        + [arg for p in experts for arg in ("--expert", p)]
                        + ["--out", str(tmp_path / mode), "--rank", "4"]) == 0
    assert cli_main(["analyze", "--mode", "layer-weights",
                     "--scores", str(work / "scores.json"),
                     "--out", str(tmp_path / "weights")]) == 0
    elapsed = time.monotonic() - started

    gen = np.random.default_rng(99)
    tensors = {"x": gen.standard_normal((7, 3)),
               "y": gen.standard_normal(11).astype(np.float32)}
    path = tmp_path / "roundtrip.tensors"
    write_container(path, tensors)
    back = read_container(path)
    roundtrip = list(back) == sorted(tensors) and all(
        back[name].dtype == want.dtype and np.array_equal(back[name], want)
        for name, want in tensors.items())
    write_container(tmp_path / "again.tensors", back)
    roundtrip &= (tmp_path / "again.tensors").read_bytes() == path.read_bytes()

    check(9, "byte-identical reruns, bitwise container roundtrip, end-to-end under 2 minutes",
          deterministic and roundtrip and elapsed < 120.0,
          f"end-to-end {elapsed:.1f}s")
