"""Thread pinning and the environment record written into every result."""

from __future__ import annotations

import os
import platform
import sys

# BLAS and OpenMP thread counts; set before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BENCH_THREADS = 1


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_threads() -> int:
    """Pin every BLAS/OpenMP pool to min(BENCH_THREADS, nproc) threads."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads must run before numpy is imported")
    threads = max(1, min(BENCH_THREADS, nproc()))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _blas_threads():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def record() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    threads = _blas_threads()
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": threads if threads is not None else os.environ.get("OPENBLAS_NUM_THREADS"),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
    }
