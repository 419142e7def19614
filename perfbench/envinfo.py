"""The machine and library facts recorded with every result.  Everything
here is read-only: it reads /proc and /sys and changes nothing."""
from __future__ import annotations

import os
import platform
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """Cap each BLAS thread variable at nproc in this process's
    environment; call before numpy is imported."""
    limit = nproc()
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        value = min(int(current), limit) if current.isdigit() and int(current) > 0 else limit
        os.environ[var] = str(value)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cache_sizes() -> dict[str, str]:
    """Data and unified cache sizes of cpu0, keyed L1/L2/L3."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def size_bytes(text: str) -> int:
    """'105M' / '2048K' / '512' as bytes."""
    scale = {"K": 1024, "M": 1024**2, "G": 1024**3}
    text = text.strip()
    if text and text[-1].upper() in scale:
        return int(float(text[:-1]) * scale[text[-1].upper()])
    return int(text) if text.isdigit() else 0


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")}
    except (TypeError, KeyError, AttributeError):
        return {"name": "unknown", "version": "unknown"}


def describe() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads_env": {var: os.environ.get(var, "") for var in BLAS_THREAD_VARS},
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "caches": cache_sizes(),
    }
