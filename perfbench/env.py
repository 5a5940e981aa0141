"""Process set-up shared by the benchmark scripts: BLAS thread pinning, the
import path to the checkout's own `src/`, and the environment record.

`pin_threads()` must run before numpy is first imported, because BLAS reads
its thread count when it loads.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# One thread measured steadier than two on a 2-core machine (fig1-diag
# density_grid: 3.48 s +-1% with 1 thread, 3.9 s and a 4.8 s first run with 2).
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS")


def pin_threads() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads() must run before numpy is imported")
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def add_source() -> None:
    """Import covspectra from this checkout's `src/` and nowhere else."""
    if not (SRC / "covspectra" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'covspectra'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import covspectra

    if Path(covspectra.__file__).resolve().parent != SRC / "covspectra":
        raise SystemExit(f"error: covspectra imported from {covspectra.__file__}, not {SRC}")


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "covspectra").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def describe() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _commit(),
        "src_sha256": _source_digest(),
    }
