"""Machine-speed probe: the reference clock every benchmark time is read on.

On a shared machine the CPU's speed drifts: a fixed kernel launch was seen
to take anywhere from 0.09 s to 0.17 s within a minute and a half.  A bare
wall time then says as much about the neighbours as about the program.
The benchmark therefore brackets each timed interval with a probe, a fixed
mix of interpreter work and NumPy calls on small arrays (the kind of work
that dominates the program's serving paths).  An interval's *reference
time* is its wall time scaled by ``NOMINAL_S / probe``, where ``probe`` is
the mean of the probe times at the interval's two ends: what the interval
would have taken on a machine where the probe takes ``NOMINAL_S``.  A
program change moves reference times as it moves wall times, while the
machine's drift largely cancels.
"""

from __future__ import annotations

import contextlib
import statistics
import time

import numpy as np

#: The probe's time at the reference speed (about its time on a quiet
#: 2-CPU test machine), so reference seconds read close to wall seconds.
NOMINAL_S = 0.015


def probe_once() -> float:
    """One probe: interpreter work and NumPy calls on small arrays."""
    start = time.perf_counter()
    total = 0
    table: dict[int, int] = {}
    for i in range(60_000):
        total += i * i
        table[i & 1023] = total
    values = np.linspace(0.0, 1.0, 4096)
    for _ in range(200):
        values = np.sqrt(values * 1.0001 + 1.0)
    return time.perf_counter() - start


def probe() -> float:
    """Seconds one probe takes now (median of five)."""
    return statistics.median(probe_once() for _ in range(5))


class ReferenceClock:
    """Wall clock that skips its own probes, plus per-interval scale factors.

    ``pause`` is a context-manager factory wrapped around every probe (the
    traced run uses it to keep probes out of the traced wall).
    """

    def __init__(self, pause=contextlib.nullcontext) -> None:
        self.pause = pause
        self.probing_s = 0.0
        self.probes: list[float] = []
        self._last = self._probe()

    def _probe(self) -> float:
        start = time.perf_counter()
        with self.pause():
            value = probe()
        self.probing_s += time.perf_counter() - start
        self.probes.append(value)
        return value

    def now(self) -> float:
        """Wall seconds, not counting the time spent probing."""
        return time.perf_counter() - self.probing_s

    def scale(self) -> float:
        """Factor from wall to reference time for the interval since the
        previous call (or since construction); probes again."""
        current = self._probe()
        factor = NOMINAL_S / ((self._last + current) / 2.0)
        self._last = current
        return factor

    def describe(self) -> str:
        return (
            f"probe median {statistics.median(self.probes) * 1e3:.2f} ms over "
            f"{len(self.probes)} probes (reference {NOMINAL_S * 1e3:.1f} ms)"
        )
