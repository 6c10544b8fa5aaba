"""The benchmark's measurement loop: inputs, invocations, checks and metrics.

run.py is the entry point; it cleans the thread settings out of the
environment before this module (and numpy) is imported.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from pivotmerge import tensorstore

from checks import CheckFailed, check_invocation, recovery_deg
from provenance import collect
from workloads import HELD_OUT_SEED, WORKLOADS, build_inputs, command_lines

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

# Inputs are built at least SETUP_REPEATS times and for at least SETUP_MIN_S
# seconds, so a set-up of a fraction of a second still gets a steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
STARTUP_REPEATS = 3
CHILD_TIMEOUT_S = 150


class SetupError(Exception):
    """The benchmark cannot run here (missing sources or a bad BENCHMARK.json)."""


@dataclass
class Sample:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    error: str | None = None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def add(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(error)


def run_child(argv: list[str], env: dict, log: Path) -> tuple[int, float, float, float]:
    """Run one child to completion: (exit code, wall s, user+sys CPU s, max RSS MiB)."""
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def _log_tail(log: Path) -> str:
    lines = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


class Run:
    """One workload at one seed: inputs, invocations, checks and metrics."""

    def __init__(self, workload, seed: int, seconds: float, env: dict, repeat_setup: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.env = env
        self.tally = Tally()
        self.work = WORK / f"{workload.name}-seed{seed}-{os.getpid()}"
        self.log = self.work / "stderr.log"
        self.reference: str | None = None
        self.recovery_deg: float | None = None
        self.setup_s = []
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            self._set_up(repeat_setup)
        except BaseException:
            self.close()
            raise

    def _set_up(self, repeat: bool) -> None:
        while not self.setup_s or repeat and (
                len(self.setup_s) < SETUP_REPEATS or sum(self.setup_s) < SETUP_MIN_S):
            in_dir = self.work / f"inputs-{len(self.setup_s)}"
            start = time.perf_counter()
            inputs, core_bases = build_inputs(self.workload, self.seed, in_dir)
            self.setup_s.append(time.perf_counter() - start)
            if len(self.setup_s) == 1:
                self.inputs, self.core_bases = inputs, core_bases
            else:
                shutil.rmtree(in_dir)
        self.base = tensorstore.load_checkpoint(self.inputs.base)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def check(self, out_dir: Path, error: str | None) -> str | None:
        """Check one invocation's outputs; returns the failure, if any.

        The first invocation that passes becomes the reference that every
        later one must match byte for byte.
        """
        if error is None:
            try:
                digest = check_invocation(self.workload, out_dir, self.base, self.reference)
                self.reference = self.reference or digest
            except CheckFailed as exc:
                error = str(exc)
        self.tally.add(error)
        return error

    def invoke_cli(self, out_dir: Path) -> Sample:
        """One invocation: each of the workload's commands as a `pivotmerge` child."""
        out_dir.mkdir(parents=True)
        sample = Sample()
        for line in command_lines(self.workload, self.inputs, out_dir):
            code, wall, cpu, rss = run_child([sys.executable, "-m", "pivotmerge.cli", *line],
                                             self.env, self.log)
            sample.wall_s += wall
            sample.cpu_s += cpu
            sample.peak_rss_mb = max(sample.peak_rss_mb, rss)
            if code != 0:
                sample.error = f"{line[0]} exited with {code}: {_log_tail(self.log)}"
                break
        sample.error = self.check(out_dir, sample.error)
        return sample

    def invoke_inproc(self, out_dir: Path, spans: Path | None) -> tuple[Sample, dict]:
        """One in-process invocation (inproc.py), traced when `spans` is given."""
        result_path = out_dir.with_suffix(".json")
        in_dir = self.work / "inputs-inproc"
        argv = [sys.executable, str(HERE / "inproc.py"), "--workload", self.workload.name,
                "--seed", str(self.seed), "--inputs", str(in_dir), "--out", str(out_dir),
                "--result", str(result_path)]
        if spans is not None:
            argv += ["--spans", str(spans)]
        code, _, cpu, rss = run_child(argv, self.env, self.log)
        shutil.rmtree(in_dir, ignore_errors=True)
        result, error = {}, None
        if code != 0:
            error = f"inproc exited with {code}: {_log_tail(self.log)}"
        else:
            result = json.loads(result_path.read_text(encoding="utf-8"))
            if any(result["returncodes"]):
                error = f"CLI returned {result['returncodes']}: {_log_tail(self.log)}"
        sample = Sample(wall_s=result.get("wall_s", 0.0), cpu_s=cpu, peak_rss_mb=rss)
        sample.error = self.check(out_dir, error)
        return sample, result.get("metrics", {})

    def end_to_end(self) -> tuple[dict, list[Sample]]:
        warmup = self.work / "out-warmup"
        if self.invoke_cli(warmup).error is None and self.workload.merges:
            self.recovery_deg = recovery_deg(warmup, self.base, self.core_bases)
        shutil.rmtree(warmup)
        samples = []
        start = time.perf_counter()
        while not samples or time.perf_counter() - start < self.seconds:
            out_dir = self.work / f"out-{len(samples)}"
            samples.append(self.invoke_cli(out_dir))
            shutil.rmtree(out_dir)
        wall = statistics.median(s.wall_s for s in samples)
        w = self.workload
        metrics = {
            "wall_s": wall,
            "cpu_s": statistics.median(s.cpu_s for s in samples),
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
            "mparams_per_s": w.experts * w.params_per_checkpoint / wall / 1e6,
            "setup_s": statistics.median(self.setup_s),
        }
        return metrics, samples

    def per_layer(self, spans: Path) -> tuple[dict, list[Sample]]:
        startup = []
        for _ in range(STARTUP_REPEATS):
            code, wall, _, _ = run_child([sys.executable, "-c", "import pivotmerge.cli"],
                                         self.env, self.log)
            self.tally.add(None if code == 0 else f"import exited with {code}")
            startup.append(wall)
        plain, traced, layers = [], [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < self.seconds:
            for spans_path, samples in ((None, plain), (spans, traced)):
                out_dir = self.work / f"out-{len(traced)}-{'traced' if spans_path else 'plain'}"
                sample, metrics = self.invoke_inproc(out_dir, spans_path)
                shutil.rmtree(out_dir)
                samples.append(sample)
                if metrics:
                    layers.append(metrics)
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]} \
            if layers else {}
        metrics["cli.startup_s"] = statistics.median(startup)
        metrics["trace.overhead_s"] = (statistics.median(s.wall_s for s in traced)
                                       - statistics.median(s.wall_s for s in plain))
        return metrics, plain + traced


def load_spec() -> dict:
    """BENCHMARK.json and the per-layer map, checked against each other."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        layer_map = json.loads((HERE / "layer_map.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SetupError(f"cannot read the benchmark spec: {exc}") from exc
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        raise SetupError("workloads in BENCHMARK.json and workloads.py differ")
    if sorted(m["name"] for m in spec["per_layer"]) != sorted(layer_map):
        raise SetupError("per_layer metrics in BENCHMARK.json and layer_map.json differ")
    return spec


def run_workload(workload, args, spec: dict, env: dict) -> dict:
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    RESULTS.mkdir(exist_ok=True)
    run = Run(workload, args.seed, args.seconds, env, repeat_setup=not args.trace)
    try:
        if args.trace:
            spans = RESULTS / f"spans-{workload.name}-seed{args.seed}.json"
            values, samples = run.per_layer(spans)
        else:
            values, samples = run.end_to_end()
    finally:
        run.close()
    tally = run.tally
    if not tally.failed and sorted(values) != sorted(units):
        raise SetupError(f"{workload.name}: measured metrics {sorted(set(values) ^ set(units))} "
                         f"do not match BENCHMARK.json")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": units[name]}
                    for name in units},
    }
    record = {
        "workload": workload.name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload.name),
        "trace": args.trace,
        "seconds": args.seconds,
        "result": result,
        "error_rate": tally.failed / tally.attempted,
        "recovery_deg": run.recovery_deg,
        "errors": tally.errors,
        "setup_samples_s": run.setup_s,
        "samples": [asdict(s) for s in samples],
        "provenance": collect(ROOT, env, workload.num_layers, args.seed, HELD_OUT_SEED),
    }
    path = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"{workload.name}  seed {args.seed}  trace {args.trace}: {len(samples)} measured "
          f"invocations, error_rate {record['error_rate']:g} "
          f"({tally.failed}/{tally.attempted} failed)")
    for name, metric in result["metrics"].items():
        print(f"  {name:<42} {metric['value']:>14.6g} {metric['unit']}")
    if not args.trace:
        # Reported but not bounded: see perfbench/README.md.
        print(f"  {'error_rate':<42} {record['error_rate']:>14.6g} ratio")
        if run.recovery_deg is not None:
            print(f"  {'recovery_deg':<42} {run.recovery_deg:>14.6g} deg")
    for error in tally.errors:
        print(f"  failure: {error}")
    print(f"  record: {path.relative_to(ROOT)}")
    return result
