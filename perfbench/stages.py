"""Run pipeline stages as separate processes and record what each one cost.

Every stage runs as its own `nextloc` CLI process, the way a user runs it,
so its CPU time and peak RSS come from that process's own rusage (via
`os.wait4`). CPU time counts every thread of the process, BLAS threads
included.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class StageRun:
    name: str
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    log: str  # path of the captured stdout and stderr


def run_stage(name: str, argv: list[str], log_path: Path, env: dict, cwd: Path, deadline: float) -> StageRun:
    """Run one process to completion; kill it if it outlives `deadline` (a monotonic time)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=cwd)
        killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            # mark the child reaped before the timer can fire, so kill() is a no-op
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
    return StageRun(
        name=name,
        exit_code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        log=str(log_path),
    )


def stage_env(root: Path) -> dict:
    """The caller's environment with the checkout's `src` first on the import path.

    Thread-count variables are passed through untouched, so OpenBLAS keeps
    its default (one thread per available core) unless the caller set one.
    """
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ----------------------------------------------------------------------
# environment record


def _openblas_threads() -> int | None:
    """Threads the OpenBLAS that numpy loaded will use, read from the library itself."""
    import numpy.linalg  # noqa: F401  (loads the BLAS library into this process)

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cpu_counters() -> list[int]:
    """Machine-wide CPU time counters from /proc/stat: user, nice, system, idle, iowait, irq, softirq, steal, ..."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before: list[int], after: list[int]) -> float | None:
    """Share of CPU time the hypervisor took from this machine between two cpu_counters() readings.

    Steal slows every stage without showing in its CPU time, so a run with a
    high share reads slower for reasons outside the program.
    """
    if len(before) < 8 or len(after) < 8:
        return None
    delta = [a - b for a, b in zip(after[:8], before[:8])]
    return delta[7] / sum(delta) if sum(delta) > 0 else None


def environment(seed: int) -> dict:
    """What a result depends on besides the code. Compare only results whose `fingerprint` matches."""
    import numpy

    record = {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "openblas_threads": _openblas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }
    fingerprint = {k: record[k] for k in ("nproc", "openblas_threads", "thread_env", "python", "numpy", "cpu_model")}
    record["fingerprint"] = hashlib.sha256(json.dumps(fingerprint, sort_keys=True).encode()).hexdigest()[:16]
    record["workload_seed"] = seed
    return record
