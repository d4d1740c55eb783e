"""Host wall time rescaled to a reference CPU speed.

The shared 2-core hosts this benchmark runs on change speed by tens of
percent from one second to the next (frequency scaling, steal time), and
whole runs can land in a slow or a fast stretch. Raw wall times of two runs
of the same code then differ by more than any useful regression bound.

:class:`RefClock` probes the host's speed with a fixed pure-Python loop
every :data:`PROBE_EVERY` seconds of wall time and advances at
``CALIBRATION_REF_S / probe`` times the wall clock in between: a second on
a host running the loop at exactly the reference speed is one second; on a
host running 20% slow it counts as 1/1.2 s. The probes' own time is left
out. Every timing the benchmark reports is taken on this clock; the raw
wall time and the mean speed factor are printed beside it in the report.
"""

from __future__ import annotations

import time
from typing import Optional

#: median duration of :func:`calibration_loop` on the 2-core x86-64 host
#: (Python 3.11) the benchmark was defined on; fixed so that figures stay
#: comparable across commits
CALIBRATION_REF_S = 0.00080
#: wall seconds between speed probes
PROBE_EVERY = 0.1


def calibration_loop(n: int = 5000) -> int:
    """Interpreter-bound work of fixed size: dict reads and writes, integer
    arithmetic and calls, the operations the simulator spends its time on."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(n):
        key = i & 127
        table[key] = table.get(key, 0) + i
        acc += len(table)
    return acc


def probe_seconds() -> float:
    """Median of five timed calibration loops."""
    runs = []
    for _ in range(5):
        start = time.perf_counter()
        calibration_loop()
        runs.append(time.perf_counter() - start)
    runs.sort()
    return runs[2]


class RefClock:
    """A clock in reference-speed seconds. With ``probe_every=None`` it
    never probes and reads plain wall seconds."""

    def __init__(self, probe_every: Optional[float] = PROBE_EVERY):
        self.probe_every = probe_every
        self.factor = 1.0
        self.factors: list[float] = []
        #: wall seconds spent inside probes (excluded from the clock)
        self.probe_s = 0.0
        self._base = 0.0
        self._wall = time.perf_counter()
        self.probe()

    def now(self) -> float:
        return self._base + (time.perf_counter() - self._wall) * self.factor

    def probe(self) -> None:
        if self.probe_every is None:
            return
        start = time.perf_counter()
        self._base += (start - self._wall) * self.factor
        self.factor = CALIBRATION_REF_S / probe_seconds()
        self.factors.append(self.factor)
        self._wall = time.perf_counter()
        self.probe_s += self._wall - start

    def maybe_probe(self) -> None:
        """Probe when :data:`PROBE_EVERY` wall seconds have passed."""
        if self.probe_every is not None and (
            time.perf_counter() - self._wall >= self.probe_every
        ):
            self.probe()

    def timed(self, fn):
        """``(fn(), seconds)`` for one call, bracketed by two probes whose
        mean speed factor converts its wall time."""
        self.probe()
        before = self.factor
        start = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - start
        self.probe()
        return out, wall * (before + self.factor) / 2

    def mean_factor(self) -> float:
        return sum(self.factors) / len(self.factors) if self.factors else 1.0
