"""Machine-speed probe.

The benchmark's host shares its CPUs with other tenants, and its speed
drifts over minutes: the same workload run reads 0.12 s or 0.21 s
(mcewan) and 2.4 s or 4.6 s (single-mode) depending on the minute.
During every timed run, a SIGALRM timer interrupts the workload every
INTERVAL_S and times one chunk of a fixed reference kernel.  Run times
are reported at the reference speed:

    (wall - probe time) * REFERENCE_S / (median chunk time during the run)

Sampling inside the run, rather than next to it, matters for the long
runs.  On this host the per-run coefficient of variation of the scaled
time was 5-10 % with in-run samples, 10-11 % with samples taken just
before and after each run, and 7-18 % unscaled.  The probe costs about
1.3 % of a run's wall time; that time is removed from the run's wall
time but stays inside whatever tracer span was active.

The kernel mixes the kinds of work the workloads spend their time on:
float formatting, small-array numpy stencils and a triad ``einsum``.  It
uses numpy only and imports nothing from wavetank, so no change to the
program can move it.
"""

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# Chunk time at the reference speed (seconds): the kernel's typical time
# on the 2-core Xeon host the benchmark was defined on.
REFERENCE_S = 0.0007

_RNG = np.random.default_rng(0)
_THETA = _RNG.standard_normal((8, 256))
_G8 = _RNG.standard_normal((8, 8, 8))


def _kernel():
    text = [f"{0.1 * i:.17g}" for i in range(300)]
    a = _THETA
    for _ in range(10):
        pad = np.concatenate((a[:, -2:], a, a[:, :2]), axis=1)
        a = a - 1e-4 * (pad[:, 3:-1] - pad[:, 1:-3])
    np.einsum("nmk,mi,ki->ni", _G8, a, a)
    return len(text)


class SpeedProbe:
    """Context manager that samples the kernel every INTERVAL_S of wall
    time.  `spent` is the probe's own time inside the block; `chunk_s` is
    the median chunk time."""

    def __enter__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            # a run shorter than INTERVAL_S: sample once, right after it
            self._sample(None, None)
        return False

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        _kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    @property
    def chunk_s(self):
        return statistics.median(self.samples)
