"""Round times at a fixed reference speed.

A core of a shared host can change speed by ±20% and more over seconds to
minutes, in CPU time as in wall time, so the raw wall time of a round says as
much about the neighbours as about confflat.  `RefClock` takes a probe every
`PERIOD_S` while a round runs (from a SIGALRM handler, in the main thread,
between bytecodes): the thread CPU time of four fixed reference kernels that
live here and share no code with the program.  Each stretch of work between
two probes is rescaled by REF_PROBE_S over the mean of the probes at its two
ends, so a round reads nearly the same whatever the core's momentary speed,
while a change in confflat's own cost shows in full.  The probes' own time
is not counted as work.

Thread CPU time, not wall time, times the probe, so that waiting for the
GIL or for the core does not read as a slower core.
"""
import signal
import time

import numpy as np

PERIOD_S = 0.5
# the probe's thread CPU time on the reference core.  On the 2-core host of
# README.md the probe took 7-14 ms as the host's speed drifted; 12 ms sits
# in its slower, more common state, so reference seconds are close to that
# host's usual wall seconds.
REF_PROBE_S = 0.012

_A = np.arange(16.0).reshape(4, 4) + 5.0 * np.eye(4)
_T = np.ones((6, 4, 4))


class _Vec:
    __slots__ = ("x", "c")

    def __init__(self, x, c):
        self.x = x
        self.c = c


def _arithmetic_kernel():
    s = 0
    for i in range(36_000):
        s += i * i % 7
    return s


def _object_kernel():
    vecs = [_Vec(float(i), [float(j) for j in range(6)]) for i in range(40)]
    for _ in range(36):
        for v in vecs:
            norm = sum(c * c for c in v.c) ** 0.5 + 1.0
            v.c = [c / norm + 1e-3 * v.x for c in v.c]
    return vecs


def _solve_kernel():
    s = 0.0
    for i in range(180):
        b = _A * (1.0 + 1e-3 * i)
        s += float(np.linalg.solve(b, _A[0]).sum()) + float((b @ b).trace())
    return s


def _einsum_kernel():
    s = 0.0
    for _ in range(300):
        s += float(np.einsum("pij,pjk->pik", _T, _T).sum(axis=0)[0, 0])
    return s


def probe():
    """Thread CPU seconds of one pass over the reference kernels, which take
    about equal shares of it and mix what a confflat round does: interpreter
    arithmetic, lists of Python objects, and small numpy arrays through
    linalg and einsum."""
    t0 = time.thread_time()
    _arithmetic_kernel()
    _object_kernel()
    _solve_kernel()
    _einsum_kernel()
    return time.thread_time() - t0


class RefClock:
    """Times one stretch of work, from `start()` to `stop()`, in reference
    seconds.  Not re-entrant; it owns SIGALRM while it runs."""

    def __init__(self):
        self._chunks = []        # (work wall seconds, probe at its end)
        self._first = self._last = 0.0
        self._previous = None

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        p = probe()
        self._chunks.append((t0 - self._last, p))
        self._last = time.perf_counter()

    def start(self):
        self._chunks = []
        self._first = probe()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        """Returns (work wall seconds, work reference seconds, probes)."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._tick()
        signal.signal(signal.SIGALRM, self._previous)
        probes = [self._first] + [p for _, p in self._chunks]
        work = sum(w for w, _ in self._chunks)
        ref = sum(w * REF_PROBE_S / (0.5 * (probes[i] + probes[i + 1]))
                  for i, (w, _) in enumerate(self._chunks))
        return work, ref, probes
