"""Record of the machine and numeric stack a result was measured on."""

from __future__ import annotations

import os
import platform
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def describe() -> dict:
    """Python, numpy and BLAS build, usable cores, and the BLAS thread
    settings in effect. The benchmark reads these variables and never sets
    them: the default thread count is part of what it measures."""
    import numpy as np

    blas = {}
    try:
        config = np.show_config(mode="dicts")
        deps = config.get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, ValueError, AttributeError):
        blas = {"name": "unknown"}
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": cpu_count(),
        "thread_env": {name: os.environ.get(name, "unset") for name in THREAD_VARS},
        "machine": platform.machine(),
    }
