"""Host-speed reference: a fixed kernel timed while the benchmark runs.

On a shared host the same work can take 1.5x as long from one second to the
next, and slow spells come and go over seconds to minutes, longer than a
run. Timing a fixed kernel (2x2 complex products, float formatting and
argument parsing: the mix the package itself runs) measures the host's
slowdown at that moment, at least every ``INTERVAL_S`` between operations
and, from a timer signal, every ``INTERVAL_S`` inside an operation that has
run for ``LONGEST_S``. The
kernel time spent inside an operation is taken off its measured time. An
operation's time divided by the median slowdown of the samples during and
around it is its time at the reference speed ``REFERENCE_S`` defines.
"""

from __future__ import annotations

import argparse
import bisect
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Kernel time at the reference speed: about its fastest time on a 2-core
# x86-64 sandbox (Python 3.11, numpy 2.4). Only ratios matter; this fixes the scale.
REFERENCE_S = 0.002
INTERVAL_S = 0.05
# An operation this long gets samples from inside it.
LONGEST_S = 1.0
# Samples within this distance of an operation describe the host during it.
WINDOW_S = 0.25

_TURN = np.array([[0.6, -0.8], [0.8, 0.6]], dtype=complex)


def kernel() -> float:
    """Fixed work like the package's: 2x2 conjugations, float text, argument parsing."""
    m = np.eye(2, dtype=complex)
    words = []
    for _ in range(200):
        m = _TURN @ m @ _TURN.conj().T
        m = (m + m.conj().T) / 2.0
        words.append(repr(float(abs(m[0, 0]))))
    total = sum(float(word) for word in ",".join(words).split(","))
    for _ in range(2):
        parser = argparse.ArgumentParser(prog="kernel")
        command = parser.add_subparsers(dest="command").add_parser("round")
        for index in range(6):
            command.add_argument(f"--angle{index}", type=float, default=0.0)
        total += parser.parse_args(["round", "--angle1", words[-1], "--angle4", words[0]]).angle1
    return total


class HostSpeed:
    """Slowdown samples (kernel time / REFERENCE_S) with their times."""

    def __init__(self):
        self.at: list[float] = []
        self.slowdown: list[float] = []
        self.kernel_s = 0.0

    def sample(self) -> None:
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.at.append((start + end) / 2.0)
        self.slowdown.append((end - start) / REFERENCE_S)
        self.kernel_s += end - start

    def maybe_sample(self) -> None:
        if not self.at or perf_counter() - self.at[-1] >= INTERVAL_S:
            self.sample()

    @contextmanager
    def inside(self):
        """Sample from a timer signal while the block runs past LONGEST_S."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, LONGEST_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def adjust(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured over [start, end], at the reference speed.

        Uses the median slowdown of the samples within WINDOW_S of the
        interval, widened to the nearest sample on each side if needed.
        """
        lo = min(bisect.bisect_left(self.at, start - WINDOW_S),
                 max(0, bisect.bisect_right(self.at, start) - 1))
        hi = max(bisect.bisect_right(self.at, end + WINDOW_S),
                 min(len(self.at), bisect.bisect_left(self.at, end) + 1))
        return seconds / statistics.median(self.slowdown[lo:hi])
