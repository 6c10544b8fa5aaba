"""The OpenBLAS idle policy set by importing pivotmerge.

OpenBLAS reads OPENBLAS_THREAD_TIMEOUT once, when numpy loads it, and this
test process has numpy loaded already, so every check runs a new interpreter.
"""

from conftest import needs_threaded_openblas, run_cli, run_python


SHOW_TIMEOUT = "import os; print(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))"


def test_importing_pivotmerge_before_numpy_sets_the_timeout():
    assert run_python(f"import pivotmerge; {SHOW_TIMEOUT}") == "18"


def test_a_timeout_the_user_set_wins():
    assert run_python(f"import pivotmerge; {SHOW_TIMEOUT}", OPENBLAS_THREAD_TIMEOUT="5") == "5"


def test_importing_numpy_first_leaves_the_timeout_unset():
    assert run_python(f"import numpy, pivotmerge; {SHOW_TIMEOUT}") == "None"


def test_the_timeout_changes_no_output_byte(synth_dir, tmp_path):
    outputs = []
    # 28 is OpenBLAS's own default, the setting without pivotmerge's policy.
    for name, environ in (("policy", {}), ("default", {"OPENBLAS_THREAD_TIMEOUT": "28"})):
        out, diag = tmp_path / f"{name}.tensors", tmp_path / f"{name}.json"
        experts = sorted(synth_dir.glob("expert*.tensors"))
        result = run_cli("merge", "--method", "pivot", "--base", synth_dir / "base.tensors",
                         *[arg for p in experts for arg in ("--expert", p)],
                         "--scores", synth_dir / "scores.json", "--out", out,
                         "--diagnostics", diag, **environ)
        assert result.returncode == 0, result.stderr
        outputs.append((out.read_bytes(), diag.read_bytes()))
    assert outputs[0] == outputs[1]


# CPU time that threads other than the main one spend during one eigh(64)
# (which wakes an OpenBLAS worker) and the 0.3 s sleep after it.
IDLE_SPIN = """
import pivotmerge
import time
import numpy as np
a = np.random.default_rng(0).standard_normal((64, 64))
a = a @ a.T
np.linalg.eigh(a)
time.sleep(0.3)
p0, t0 = time.process_time(), time.thread_time()
np.linalg.eigh(a)
time.sleep(0.3)
print((time.process_time() - p0) - (time.thread_time() - t0))
"""


@needs_threaded_openblas
def test_an_idle_openblas_worker_sleeps_instead_of_spinning():
    # Without the policy the worker spins for about 0.13 s here; a busy machine
    # can only shorten that, never lengthen it.
    assert float(run_python(IDLE_SPIN)) < 0.05
