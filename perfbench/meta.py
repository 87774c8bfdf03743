"""Thread pinning and the host/run metadata stamped on every result.

This module must not import numpy at import time: :func:`pin_threads` has to
run before numpy loads its BLAS, or the thread pools are already sized.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path
from typing import Dict

#: One thread for every BLAS/OpenMP runtime numpy may load.  With OpenBLAS's
#: default of one thread per core, the same noisy fit took 3.9-5.0 s from run
#: to run on a 2-core host, and 5.4-5.5 s pinned.  Replicas inherit the
#: setting through ``spawn_replica``'s copy of ``os.environ``.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def pin_threads() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads must run before numpy is imported")
    os.environ.update(THREAD_ENV)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> str:
    """HEAD's sha read from ``.git`` directly; ``unknown`` outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def _blas() -> Dict[str, object]:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {key: blas.get(key) for key in ("name", "version", "openblas configuration")
                if key in blas}
    except (TypeError, KeyError):
        return {"name": "unknown"}


def host_metadata(root: Path, workload: str, seed: int) -> Dict[str, object]:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {key: os.environ.get(key) for key in THREAD_ENV},
        "git_sha": _git_sha(root),
        "workload": workload,
        "seed": seed,
    }
