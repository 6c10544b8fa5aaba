"""The benchmark's workloads and how their inputs are built.

Every input is a pure function of the workload and the seed: the synthetic
generator draws from one Philox stream keyed by the seed, and the
checkpoints are written as float32 containers. The program under test
receives only these files.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from pivotmerge import scores, synth, tensorstore

# Generator settings match `pivotmerge synth`'s defaults.
CORE_RANK = 4
RESIDUAL_SCALE = 0.5
NOISE_SCALE = 0.01

# A seed never used while the benchmark or a change is tuned, for checking
# a claimed gain on inputs it was not fitted to.
HELD_OUT_SEED = 90417


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the CLI commands that make up one invocation.

    `commands` holds each command's leading arguments; the checkpoint,
    score and output flags are added per invocation. An invocation runs
    them in order, and its wall/CPU time is their sum.
    """

    name: str
    chain: tuple[int, ...]
    experts: int
    commands: tuple[tuple[str, ...], ...]

    @property
    def merges(self) -> bool:
        return self.commands[0][0] == "merge"

    @property
    def num_layers(self) -> int:
        return len(self.chain) - 1

    @property
    def params_per_checkpoint(self) -> int:
        """Weights plus biases of one checkpoint."""
        return sum(o * (i + 1) for i, o in zip(self.chain, self.chain[1:]))


# Each workload's reason is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="pivot-wide",
        chain=(512, 1024, 1024), experts=4,
        commands=(("merge", "--method", "pivot"),)),
    Workload(
        name="pivot-deep",
        chain=(64,) * 49, experts=8,
        commands=(("merge", "--method", "pivot", "--inner", "dare-ties"),)),
    Workload(
        name="ties-io",
        chain=(1024, 2048, 2048), experts=4,
        commands=(("merge", "--method", "ties", "--trim", "0.2"),)),
    Workload(
        name="analyze",
        chain=(256, 512, 512), experts=4,
        commands=(("analyze", "--mode", "residual-sim"),
                  ("analyze", "--mode", "principal-angles"))),
)}


@dataclass(frozen=True)
class Inputs:
    """Paths of one workload's input files."""

    base: Path
    experts: tuple[Path, ...]
    scores: Path

    @staticmethod
    def at(workload: Workload, in_dir: Path) -> "Inputs":
        ids = [synth.expert_id(i, workload.experts) for i in range(workload.experts)]
        return Inputs(base=in_dir / "base.tensors",
                      experts=tuple(in_dir / f"{i}.tensors" for i in ids),
                      scores=in_dir / "scores.json")


def build_inputs(workload: Workload, seed: int, in_dir: Path) -> tuple[Inputs, list]:
    """Generate the workload's inputs from `seed` and write them under `in_dir`.

    Returns the input paths and the planted core bases (the ground truth).
    """
    spec = synth.SynthSpec.from_chain(
        workload.chain, experts=workload.experts, core_rank=CORE_RANK,
        residual_scale=RESIDUAL_SCALE, noise_scale=NOISE_SCALE, seed=seed)
    base, experts, core_bases = synth.generate(spec)
    inputs = Inputs.at(workload, in_dir)
    in_dir.mkdir(parents=True, exist_ok=True)
    for ck, path in zip((base, *experts), (inputs.base, *inputs.experts)):
        tensorstore.save_checkpoint(path, dataclasses.replace(ck, dtype="float32"))
    # Flat scores give uniform layer weights, as `pivotmerge synth` writes them.
    table = scores.ScoreTable(expert_ids=tuple(ck.id for ck in experts),
                              scores=[[0.0] * spec.layers for _ in experts])
    scores.write_scores(inputs.scores, table)
    return inputs, core_bases


def command_lines(workload: Workload, inputs: Inputs, out_dir: Path) -> list[list[str]]:
    """Full CLI argument lists (without the program name) for one invocation."""
    lines = []
    for command in workload.commands:
        args = [*command, "--base", str(inputs.base)]
        for path in inputs.experts:
            args += ["--expert", str(path)]
        if workload.merges:
            args += ["--out", str(out_dir / "merged.tensors")]
            if "pivot" in command:
                args += ["--scores", str(inputs.scores)]
        else:
            args += ["--out", str(out_dir / command[-1])]
        lines.append(args)
    return lines
