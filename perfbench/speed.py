"""The machine's speed during a run, to express times at a reference speed.

The benchmark runs on a few cores of a shared host. The host's other load
makes the same code run up to 1.7x slower from one minute to the next, so
the median time of a run moves with the neighbours more than with the code.
A SIGALRM handler therefore times a fixed kernel every ``PERIOD`` seconds
for the whole run. A measured interval is divided by the kernel's mean time
around it and multiplied by the kernel's reference time, so it reads as
seconds on a machine where the kernel takes ``REFERENCE_S`` seconds. The
kernel's own time is taken out of every interval.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

PERIOD = 0.05  # seconds between kernel samples
PAD = 0.25     # samples this close to an interval also describe it
MEM_WORDS = 512 * 1024  # 4 MiB of float64: with its copy, more than one L2 cache

# Kernel time on an unloaded core of a 2-vCPU Xeon VM (105 MiB L3, 4 MiB L2
# per core); the 5th percentile of about 6,000 samples of each.
REFERENCE_S = {"interp": 0.35e-3, "mem": 0.85e-3}


class SpeedProbe:
    """Samples one kernel while running: ``interp`` or ``mem``.

    ``interp`` runs 150 steps of a 16-wide tanh recurrence: numpy calls on
    tiny arrays from a Python loop, like the per-timestep LSTM loops. ``mem``
    copies and scales 4 MiB: memory traffic past the L2 cache, like the dense
    embedding gradients. Each workload names the one that bounds it.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.kernel = getattr(self, f"_{kind}")
        self.reference_s = REFERENCE_S[kind]
        self.times: list[float] = []  # start of each sample
        self.secs: list[float] = []   # kernel seconds of each sample
        self.spent = 0.0              # total kernel seconds
        self._w = np.eye(16) * 0.5
        self._a = np.ones(MEM_WORDS if kind == "mem" else 1)
        self._b = np.empty_like(self._a)

    def _interp(self) -> None:
        x = np.ones(16)
        for _ in range(150):
            x = np.tanh(self._w @ x) + 0.1

    def _mem(self) -> None:
        np.copyto(self._b, self._a)
        np.multiply(self._b, 1.0001, out=self._b)

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.kernel()
        dt = perf_counter() - t0
        self.times.append(t0)
        self.secs.append(dt)
        self.spent += dt

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, float]:
        return perf_counter(), self.spent

    def since(self, mark: tuple[float, float]) -> tuple[float, float, float]:
        """(start, end, seconds) since ``mark``; seconds exclude the kernel's time."""
        t0, spent0 = mark
        t1 = perf_counter()
        return t0, t1, t1 - t0 - (self.spent - spent0)

    def at_reference(self, span: tuple[float, float, float]) -> float:
        """A span's seconds at the reference speed."""
        t0, t1, seconds = span
        if not self.secs:
            return seconds
        i = bisect_left(self.times, t0 - PAD)
        j = bisect_right(self.times, t1 + PAD)
        near = self.secs[i:j] or self.secs[max(i - 1, 0):i + 1]
        return seconds * self.reference_s / statistics.fmean(near)

    def summary(self) -> dict:
        return {"kind": self.kind, "samples": len(self.secs), "reference_s": self.reference_s,
                "median_s": statistics.median(self.secs) if self.secs else None,
                "spent_s": self.spent}
