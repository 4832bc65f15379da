"""The machine's speed, sampled around and during every timed call.

Each vCPU of the host this benchmark was built on switches, by itself and
every few seconds, between a fast and a slow state up to 2x apart, and the
share of slow time changes over minutes. A process's CPU time moves with its
wall time, so neither clock is steady from run to run. The probe times a
fixed reference kernel of the kind of work the program does right before and
right after a call, and every INTERVAL_S during it from a SIGALRM handler, on
whichever vCPU the call is running on. A timed call's seconds scaled by
REF_NOMINAL_S over the kernel's mean time are its seconds at nominal speed:
a program change moves the call's time but not the kernel's, while a slow
phase moves both.

The probe's own time is excluded from every interval measured with clock().
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# The kernel's time at nominal speed: about its median on the baseline
# machine (a2bench/README.md).
REF_NOMINAL_S = 0.006
INTERVAL_S = 0.25

_rng = np.random.default_rng(0)
_WORLD = _rng.standard_normal((500, 3)) + (0.0, 0.0, 5.0)
_LOGITS = _rng.standard_normal((256, 256))

_spent = 0.0    # seconds the probe has run in this process


def reference_seconds():
    """Seconds a fixed kernel takes right now. Half of it is a Python loop of
    small numpy operations (random samples, a 3x3 SVD and a projection of 500
    points, as in RANSAC); half is a row softmax over 256x256 values (as in
    the network's attention and Sinkhorn)."""
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    for _ in range(50):
        idx = rng.choice(len(_WORLD), size=4, replace=False)
        u, _, vt = np.linalg.svd(_WORLD[idx[:3]])
        cam = _WORLD @ (u @ vt).T
        np.count_nonzero(np.hypot(cam[:, 0] / cam[:, 2], cam[:, 1] / cam[:, 2]) < 0.5)
    for _ in range(4):
        x = np.exp(_LOGITS - _LOGITS.max(axis=1, keepdims=True))
        x /= x.sum(axis=1, keepdims=True)
    return time.perf_counter() - t0


def clock():
    """time.perf_counter() that stands still while the probe runs."""
    return time.perf_counter() - _spent


class Probe:
    """Samples the reference kernel while its `with` block runs.

    speed() is REF_NOMINAL_S over the mean kernel time: the factor that turns
    the block's seconds, measured with clock(), into seconds at nominal speed.
    """

    def __enter__(self):
        self.samples = []
        self._sample()
        self._active = True
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, exc_type, exc, tb):
        # Deactivate first: a tick already due then neither samples nor
        # re-arms the timer after it is stopped.
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def _tick(self, signum, frame):
        if not self._active:
            return
        self._sample()
        # One-shot, re-armed after each sample, so samples never nest.
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def _sample(self):
        global _spent
        t0 = time.perf_counter()
        self.samples.append(reference_seconds())
        _spent += time.perf_counter() - t0

    def speed(self):
        return REF_NOMINAL_S / statistics.fmean(self.samples)


reference_seconds()   # warm up numpy's lazy imports before the first sample
