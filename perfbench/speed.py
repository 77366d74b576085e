"""Host-speed meter: a fixed reference kernel timed inside the measured
process, and the conversion of wall times into reference seconds.

The benchmark runs on a few cores of a shared host whose speed swings by
tens of percent within seconds and differs from minute to minute, so a
wall-clock figure of the same code moves with the neighbours' load more
than with the code.  The swings are not shared between cores (two
processes on the two cores of one box correlate at about 0.6), so the
meter runs in the process it measures: a wall-clock timer (``SIGALRM``)
interrupts the process every :data:`PERIOD_S` and runs
:func:`reference`, a fixed mix of interpreter and small-array numpy
work, once, recording when it started and how long it took.

A wall interval ``[a, b]`` of the program then converts into reference
seconds: the bursts inside it are subtracted, and the rest is scaled by
``REFERENCE_S / mean burst time`` around it -- the time the work would
take on a host where the reference kernel takes :data:`REFERENCE_S`.
A change that makes the program slower or faster moves these figures
exactly as it moves wall time; a change of host speed moves the
program and the bursts alike and cancels.
"""

from __future__ import annotations

import json
import signal
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Seconds one reference burst takes at the reference speed (about its
#: tenth percentile on a shared 2-core Xeon box, so reference seconds
#: read close to wall seconds when that host runs fast).
REFERENCE_S = 1.1e-3
#: Wall seconds between bursts.
PERIOD_S = 0.05
#: Half-width (s) of the window whose bursts give a short interval's
#: local speed.
HALF_WINDOW_S = 0.5

_TABLE = np.linspace(0.0, 1.0, 256)


def reference() -> float:
    """The fixed reference kernel: dict and integer work in the
    interpreter, then small numpy array operations."""
    counts: Dict[int, int] = {}
    for i in range(4800):
        key = (i * 7919) % 61
        counts[key] = counts.get(key, 0) + i
    values = _TABLE.copy()
    for _ in range(96):
        values = np.sqrt(values * values + 1.0) - 0.5
    return float(values.sum()) + sum(counts.values())


class Meter:
    """Runs :func:`reference` every :data:`PERIOD_S` of wall time in this
    process (main thread) and keeps ``(start, duration)`` per burst."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._busy = False
        self._previous = None

    def start(self) -> "Meter":
        """Arm the timer (call from the main thread)."""
        reference()  # warm the kernel's code and arrays
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> "Meter":
        """Disarm the timer and restore the previous handler."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
        return self

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            started = time.perf_counter()
            reference()
            self.durations.append(time.perf_counter() - started)
            self.starts.append(started)
        finally:
            self._busy = False

    def bursts(self) -> "Bursts":
        """The bursts recorded so far."""
        return Bursts(self.starts, self.durations)

    def dump(self, path: Path) -> None:
        """Write the bursts to ``path`` (JSON)."""
        Path(path).write_text(json.dumps(
            {"starts": self.starts, "durations": self.durations}))


class Bursts:
    """Recorded bursts and the conversion of wall intervals.

    Times are ``time.perf_counter()`` readings, which on Linux are
    ``CLOCK_MONOTONIC`` and so comparable between processes.
    """

    def __init__(self, starts: Sequence[float],
                 durations: Sequence[float]) -> None:
        order = np.argsort(np.asarray(starts, dtype=float), kind="stable")
        self.starts = np.asarray(starts, dtype=float)[order]
        self.durations = np.asarray(durations, dtype=float)[order]
        self._cumulative = np.concatenate(([0.0], np.cumsum(self.durations)))

    @classmethod
    def load(cls, path: Path) -> "Bursts":
        """Bursts written by :meth:`Meter.dump`."""
        data = json.loads(Path(path).read_text())
        return cls(data["starts"], data["durations"])

    def __len__(self) -> int:
        return len(self.starts)

    def _range(self, a: float, b: float) -> Tuple[int, int]:
        return (int(np.searchsorted(self.starts, a, side="left")),
                int(np.searchsorted(self.starts, b, side="left")))

    def inside(self, a: float, b: float) -> float:
        """Burst seconds that started within ``[a, b)``."""
        i, j = self._range(a, b)
        return float(self._cumulative[j] - self._cumulative[i])

    def scale(self, a: float, b: float) -> float:
        """``REFERENCE_S / mean burst`` over ``[a, b]`` widened to at
        least :data:`HALF_WINDOW_S` either side of its middle."""
        middle = 0.5 * (a + b)
        i, j = self._range(min(a, middle - HALF_WINDOW_S),
                           max(b, middle + HALF_WINDOW_S))
        if j <= i:
            raise RuntimeError("no speed-meter burst near the interval "
                               f"[{a:.3f}, {b:.3f}]")
        mean = (self._cumulative[j] - self._cumulative[i]) / (j - i)
        return REFERENCE_S / mean

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds of the program's own work in ``[a, b]``."""
        return (b - a - self.inside(a, b)) * self.scale(a, b)


def metered(function, *args, **kwargs):
    """``(result, bursts, start, end)`` of one call under a meter."""
    meter = Meter().start()
    try:
        start = time.perf_counter()
        result = function(*args, **kwargs)
        end = time.perf_counter()
    finally:
        meter.stop()
    return result, meter.bursts(), start, end


def host_speed(bursts: Optional[Bursts]) -> str:
    """One report line on the bursts' spread (the host's swings)."""
    if bursts is None or not len(bursts):
        return "speed meter: no bursts"
    q1, q2, q3 = np.percentile(bursts.durations, (25, 50, 75))
    return (f"speed meter: {len(bursts)} bursts, median "
            f"{1e3 * q2:.3f} ms (quartiles {1e3 * q1:.3f}-{1e3 * q3:.3f}) "
            f"against {1e3 * REFERENCE_S:.3f} ms at the reference speed")
