"""Machine block: the facts a timing depends on, recorded with every run."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

_THREAD_SYMBOLS = ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
                   "scipy_openblas_get_num_threads64_")
_CONFIG_SYMBOLS = ("openblas_get_config", "scipy_openblas_get_config",
                   "scipy_openblas_get_config64_")


def _loaded_blas():
    """OpenBLAS builds mapped into this process, with their thread counts.
    numpy and scipy each bundle their own copy."""
    found = {}
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return found
    for line in maps:
        path = line.split()[-1]
        if "openblas" not in path.lower() or ".so" not in path or path in found:
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        info = {}
        for sym in _THREAD_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                info["threads"] = int(fn())
        for sym in _CONFIG_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                info["config"] = fn().decode(errors="replace").strip()
        found[path] = info
    return {Path(p).name: info for p, info in found.items()}


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "fracsys").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def machine_block(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": _loaded_blas(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": _commit(root),
        "source_digest": _source_digest(root),
    }
