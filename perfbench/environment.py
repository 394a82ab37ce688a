"""What a benchmark result ran on: backend, threads, versions, commit."""

from __future__ import annotations

import importlib.util
import os
import platform
import subprocess
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS")


def cap_threads(nproc: int) -> dict:
    """Cap every thread pool at ``nproc``; call before numpy is imported."""
    caps = {}
    for var in THREAD_VARS:
        try:
            value = min(int(os.environ.get(var, nproc)), nproc)
        except ValueError:
            value = nproc
        os.environ[var] = str(max(value, 1))
        caps[var] = int(os.environ[var])
    return caps


def _git(root, *args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent),
               GIT_CONFIG_NOSYSTEM="1", HOME=str(root))
    proc = subprocess.run(["git", "--no-optional-locks", "-C", str(root),
                           *args], capture_output=True, text=True, env=env,
                          timeout=30, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else None


def commit(root) -> dict:
    """HEAD and a dirty flag, or nulls outside a git checkout."""
    if not (root / ".git").exists():
        return {"commit": None, "dirty": None}
    try:
        head = _git(root, "rev-parse", "HEAD")
        status = _git(root, "status", "--porcelain")
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}
    return {"commit": head, "dirty": None if status is None else bool(status)}


def record(root, nproc: int, caps: dict) -> dict:
    import numpy
    import scipy

    from levymult import _accel

    # get_backend("numba") hands back the numpy core when numba is missing,
    # so the backend in use is found by identity, not by name
    in_use = _accel.get_backend()
    backend = "numpy" if in_use is _accel.get_backend("numpy") else "numba"
    return {
        "backend": backend,
        "backend_requested": os.environ.get("LEVYMULT_BACKEND"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": nproc,
        "thread_caps": caps,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        **commit(root),
    }
