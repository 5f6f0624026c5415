"""Shared helpers: checkout layout, child processes, statistics, memory."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

#: the checkout root: the benchmark lives in ``<root>/perfbench``
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def catalogue(kind: str) -> list[tuple[str, str]]:
    """``(name, unit)`` of each ``kind`` metric (``"end_to_end"`` or
    ``"per_layer"``), in the order ``BENCHMARK.json`` lists them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def require_source() -> None:
    """Exit non-zero unless the program's source is in this checkout.

    The benchmark always measures the checkout it sits in, never an
    installed copy of the package.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for a child process that imports the checkout's source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def timed_first_line(argv: list[str]) -> tuple[float, str]:
    """Launch ``argv`` and time launch → its first stdout line.

    Returns ``(seconds, line)`` after the child has exited with status 0.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not line:
        raise RuntimeError(f"cold start {argv[1:]} failed with status {code}")
    return elapsed, line


def obs_ratio(call, reps: int) -> float:
    """Median over ``reps`` paired calls of enabled-obs time / disabled time."""
    from repro.obs import MetricsRegistry, Obs, Tracer

    ratios = []
    call(Obs(enabled=False))
    for _ in range(reps):
        t0 = time.perf_counter()
        call(Obs(enabled=False))
        off = time.perf_counter() - t0
        t0 = time.perf_counter()
        call(Obs(MetricsRegistry(enabled=True), Tracer(enabled=False)))
        ratios.append((time.perf_counter() - t0) / off)
    return median(ratios)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile of ``values`` (``q`` in [0, 100])."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of a live process, in MB (VmHWM)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_pids(pid: int) -> list[int]:
    """Direct children of a live process."""
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            return [int(x) for x in fh.read().split()]
    except FileNotFoundError:
        return []


def cpu_ticks() -> list[int]:
    """The host-wide ``cpu`` line of /proc/stat (user, nice, system, idle,
    iowait, irq, softirq, steal, ...)."""
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor stole between two ``cpu_ticks``."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / max(1, sum(delta))


def cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().replace(b"\0", b" ").decode(errors="replace")
    except FileNotFoundError:
        return ""
