"""The benchmark's clock, and a machine-speed probe that calibrates it.

The benchmark runs on a few virtual cores of a shared host.  Two effects
make the same code read slower or faster from one run to the next, by tens
of percent, for seconds to minutes at a time:

* the host takes the virtual core away (steal time), which wall time counts;
* the host's other work slows the core while it runs (shared caches, the
  sibling hyperthread), which both wall and CPU time count.

``clock`` is this process's CPU time, which leaves out the first.  Every
timed gsdof call runs in this one thread, is CPU-bound and does no waiting
beyond writing its small CSVs, so its CPU time is its latency without the
stolen time.

``Sampler`` takes out the second.  While it is active, a ``SIGALRM`` timer
interrupts the process every ``EVERY_NS`` of real time, wherever it is, and
the handler times a fixed kernel (``probe``) that does not touch gsdof:
exact ``Fraction`` arithmetic (like the regions layer) and small ``slogdet``
calls (like the MI layer).  So the kernel samples the machine's speed at
evenly spread moments during the calls themselves, even a single
several-second call.  ``Sampler.now`` is ``clock`` minus the time spent in
the kernel, so calls are timed without it.  The runner scales a call's
time by ``NOMINAL_NS / mean(kernel times)`` over the kernel times inside
the call, or inside its pass if the call is too short to hold
``CALL_SAMPLES`` of them: a scaled time reads as the time the call would
have taken at the speed where the kernel takes ``NOMINAL_NS``.  A change to gsdof moves the call time but not the
kernel's.  The mean, not the median, because the host switches between a
fast and a slow speed within a second, and a call's time is set by the
share of time spent at each.  Unscaled times and the kernel's mean time
are kept in the run's detail record.

Neither measures parallel speed-up: CPU time sums over threads.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

import numpy as np

clock = time.process_time_ns

# The kernel's mean CPU time on a 2-core x86-64 Xeon at 2.1 GHz (Python 3,
# numpy with OpenBLAS pinned to one thread): scaled times read in the
# units of that machine.
NOMINAL_NS = 1_300_000

# Kernel repetitions per probe; the probe reports each one.
REPEATS = 5

# Kernel times a call must contain to be scaled by its own (two probes).
CALL_SAMPLES = 2 * REPEATS

# Real time between two probes of an active ``Sampler``.  (A CPU-time
# timer, ``ITIMER_PROF``, would coarsen ``clock`` to scheduler ticks.)
EVERY_NS = 100_000_000

_rng = np.random.default_rng(0)
_a = _rng.standard_normal((6, 6))
_MATRIX = _a @ _a.T + np.eye(6)


def _kernel():
    s = Fraction(0)
    for i in range(1, 120):
        s += Fraction(1, i)
    t = 0.0
    for _ in range(100):
        t += np.linalg.slogdet(_MATRIX)[1]
    return s, t


def probe(repeats: int = REPEATS) -> list[int]:
    """CPU nanoseconds of ``repeats`` back-to-back kernel runs."""
    out = []
    for _ in range(repeats):
        t0 = clock()
        _kernel()
        out.append(clock() - t0)
    return out


def factor(probe_ns) -> float:
    """Scale that maps times measured alongside ``probe_ns`` to nominal speed."""
    return NOMINAL_NS / statistics.fmean(probe_ns)


class Sampler:
    """Probes every ``EVERY_NS`` of real time while active (a context
    manager), from a ``SIGALRM`` handler, so that probes fall inside calls.
    Only one may be active; it must be entered on the main thread."""

    def __init__(self) -> None:
        self.samples = []  # kernel times, ns
        self.probing_ns = 0  # CPU time spent in the handler's probes
        self._busy = False

    def now(self) -> int:
        """``clock`` without the time spent probing."""
        return clock() - self.probing_ns

    def _handle(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = clock()
            self.samples += probe()
            self.probing_ns += clock() - t0
        finally:
            self._busy = False

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handle)
        every = EVERY_NS / 1e9
        signal.setitimer(signal.ITIMER_REAL, every, every)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
