"""Host-speed calibration of the library round times and of cold starts.

The benchmark runs on shared machines whose speed drifts by tens of
percent within minutes (neighbours contending for cores, caches and
memory bandwidth).  A fixed piece of work that does not touch the
program is timed between the benchmark's own library rounds: many
numpy calls on arrays of a few thousand elements (compare, nonzero,
gather, cumulative sums, small sorts), the call-overhead-bound pattern
of the program's per-cycle kernel loops.  Each round time is reported
at the reference speed ``REFERENCE_S``:

    duration_at_reference = duration × REFERENCE_S / calibration

where ``calibration`` is the mean of the samples taken just before and
just after that round (:meth:`HostSpeed.around`).

In-process work did not track cold starts, which are mostly
interpreter start-up, dynamic loading and imports.  Every cold start
(of any workload) is instead bracketed by interpreter starts that
import numpy and nothing of the program (:func:`start_s`) and reported
at ``REFERENCE_START_S`` the same way.

Because the calibrations never call the program, a change to the
program cannot move them.  Raw (as-measured) values are printed with
the diagnostics.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import Callable

import numpy as np

from common import ROOT

#: a typical calibration time on the 2-core VM (Python 3.11) the benchmark
#: was tuned on; the library timings are reported at this host speed
REFERENCE_S = 0.035
#: a typical :func:`start_s` on that VM
REFERENCE_START_S = 0.130

_RNG = np.random.default_rng(0)
_A = _RNG.integers(0, 1000, 2048)
_B = _RNG.integers(0, 1000, 2048)


def calibration_s() -> float:
    """Time one fixed unit of host work."""
    t0 = time.perf_counter()
    for _ in range(750):
        idx = np.flatnonzero(_A < _B)
        np.cumsum(_A[idx])
        np.maximum.accumulate(_B)
        np.unique(_A[:256])
    return time.perf_counter() - t0


def start_s() -> float:
    """Time one interpreter start that imports numpy and exits."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, env=env,
                   check=True, timeout=60)
    return time.perf_counter() - t0


class HostSpeed:
    """Samples of one fixed work taken through one run, and the reference
    time of that work."""

    def __init__(self, work: Callable[[], float], reference_s: float) -> None:
        self.work, self.reference_s = work, reference_s
        self.samples: list[float] = []

    def sample(self) -> float:
        self.samples.append(self.work())
        return self.samples[-1]

    def around(self, seconds: float) -> float:
        """``seconds`` measured since the last sample, at reference speed;
        takes the sample that closes the measurement."""
        before = self.samples[-1]
        return seconds * self.reference_s / ((before + self.sample()) / 2)


def rounds() -> HostSpeed:
    """The calibration of library round times."""
    return HostSpeed(calibration_s, REFERENCE_S)


def starts() -> HostSpeed:
    """The calibration of cold starts."""
    return HostSpeed(start_s, REFERENCE_START_S)
