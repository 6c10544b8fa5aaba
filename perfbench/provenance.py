"""Where a result came from: machine, build, threads, source and seed.

Run as a script with a layer count, it prints what a CLI child process sees
in the environment it was given: numpy and its BLAS build, the resolved
BLAS thread count and the number of layer workers `pivotmerge merge`
would use for that many layers.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads")


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy loaded, if it is OpenBLAS."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in BLAS_THREAD_SYMBOLS:
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def probe(num_layers: int) -> dict:
    """Build and thread facts as seen from this process."""
    import numpy

    import pivotmerge.cli

    config = numpy.show_config(mode="dicts")
    worker_count = getattr(pivotmerge.cli, "_worker_count", None)
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": config.get("Build Dependencies", {}),
        "blas_threads": _blas_threads(),
        "layer_workers": worker_count(num_layers) if worker_count else None,
        "pivotmerge": str(Path(pivotmerge.cli.__file__).parent),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=False)
    except OSError:
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def source_digest(root: Path) -> str:
    """sha256 over the program's source files, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def collect(root: Path, env: dict, num_layers: int, seed: int, held_out_seed: int) -> dict:
    """The provenance block written into every result."""
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), str(num_layers)],
                          env=env, cwd=root, capture_output=True, text=True, timeout=120,
                          check=True)
    return {
        "machine": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "ram_mib": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // (1 << 20),
            "platform": platform.platform(),
        },
        "child": json.loads(done.stdout),
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
        "seed": seed,
        "held_out_seed": held_out_seed,
    }


if __name__ == "__main__":
    print(json.dumps(probe(int(sys.argv[1]))))
