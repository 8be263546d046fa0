"""Shared helpers: percentiles, RSS, the host-noise probe, run metadata.

Everything here reads the host or summarizes samples; nothing imports
the program under test, so ``run.py`` can report a missing source tree
before touching it.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from pathlib import Path

#: The repository root of the checkout the benchmark runs in.
ROOT = Path(__file__).resolve().parent.parent

#: Instants run after set-up and before measuring (caches fill, the
#: scheduler classifies every query, RSS settles).
WARMUP = 5

#: Iterations of the host-noise calibration loop (about 25 ms of pure
#: Python on a quiet 2-core KVM guest).
CALIB_ITERATIONS = 300_000

#: Loop iterations of one :class:`HostProbe` call, and what the call
#: takes on a quiet host (ms): the reference speed the end-to-end times
#: are normalized to.
PROBE_ITERATIONS = 30_000
PROBE_REFERENCE_MS = 2.2

#: Instants on each side of an instant whose probe times are pooled
#: (by median) into that instant's host factor.
PROBE_WINDOW = 5


def percentile(samples, fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (``fraction`` in [0, 1])."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


def median(samples) -> float:
    return percentile(samples, 0.5)


def rss_kb() -> int:
    """Resident set size of this process in KiB (Linux ``statm``)."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") // 1024


def spin(iterations: int) -> int:
    """Fixed plain-bytecode work: no memory beyond a few cached objects,
    nothing the cyclic collector tracks."""
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return total


def calib_ms() -> float:
    """Median of three timings of a fixed pure-Python loop: a run made
    while the host is in a slow phase shows up as a larger value."""
    timings = []
    for _ in range(3):
        started = time.perf_counter()
        spin(CALIB_ITERATIONS)
        timings.append((time.perf_counter() - started) * 1000.0)
    return median(timings)


class HostProbe:
    """A fixed slice of plain Python bytecode timed next to every
    measured instant.

    The host this benchmark runs on shares its cores and memory with
    other tenants; their load slows everything in phases of seconds to
    minutes.  The probe's time moves with the host and not with the
    program's heap (see :func:`spin`).  ``factor(i)`` scales a time
    measured next to probe ``i`` to the reference host speed.
    """

    def __init__(self):
        self.samples: list[float] = []

    def __call__(self) -> float:
        """Run the probe once; returns and records its time (ms)."""
        started = time.perf_counter()
        spin(PROBE_ITERATIONS)
        elapsed = (time.perf_counter() - started) * 1000.0
        self.samples.append(elapsed)
        return elapsed

    def factor(self, index: int) -> float:
        """Reference speed over the host speed around probe ``index``."""
        window = self.samples[
            max(0, index - PROBE_WINDOW) : index + PROBE_WINDOW + 1
        ]
        return PROBE_REFERENCE_MS / median(window)


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git
    (``unknown`` in a plain source tree)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="ascii").strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    try:
        return target.read_text(encoding="ascii").strip()
    except OSError:
        pass
    packed = ROOT / ".git" / "packed-refs"
    try:
        for line in packed.read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_metadata() -> dict:
    return {
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "commit": git_commit(),
    }


def log(message: str) -> None:
    """Progress output goes to stderr; stdout carries only the report."""
    print(message, file=sys.stderr, flush=True)
