"""A fixed reference computation that measures the speed of the host.

The host's speed drifts by up to half again over periods of seconds to
minutes, and it moves every workload's times together.  A run therefore
times this computation twice a second throughout, and multiplies its times
by ``NOMINAL_S`` times the mean of ``1 / sample``: the times it would have
taken at the host speed at which the reference takes ``NOMINAL_S``.  The
computation is the benchmark's own frozen copy of the package's two kinds
of work, so a change to the package cannot move it: row reduction over
GF(11) one short row at a time, and digit-wise GF(9) additions plus XORs
over large blocks.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

# seconds one call of run() takes at the reference speed: the median over
# 600 calls on 2 vCPUs, Intel Xeon, Python 3.11.7, numpy 2.4.6
NOMINAL_S = 0.0185

P = 11
_MUL = (np.arange(P)[:, None] * np.arange(P)[None, :] % P).astype(np.int16)
_INV = np.array([0] + [pow(a, P - 2, P) for a in range(1, P)], dtype=np.int16)
_rng = np.random.default_rng(20260)
_M = _rng.integers(0, P, size=(32, 96)).astype(np.int16)
_A = _rng.integers(0, 9, size=(64, 4096)).astype(np.int16)
_B = _rng.integers(0, 9, size=(64, 4096)).astype(np.int16)


def _add(a, b):
    c = a + b
    return np.where(c >= P, c - P, c).astype(np.int16)


def short_rows() -> np.ndarray:
    """Reduced row echelon form of a fixed 32 x 96 matrix over GF(11)."""
    R = _M.copy()
    r = 0
    for c in range(R.shape[1]):
        if r == R.shape[0]:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        R[r] = _MUL[int(_INV[R[r, c]])][R[r]]
        for i in np.nonzero(R[:, c])[0]:
            if i != r:
                R[i] = _add(R[i], _MUL[P - int(R[i, c])][R[r]])
        r += 1
    return R


def bulk() -> np.ndarray:
    """GF(9) sum of two fixed 64 x 4096 blocks, digit by digit, XORed back."""
    C = np.zeros_like(_A)
    pw = 1
    for _ in range(2):
        C += (((_A // pw) % 3 + (_B // pw) % 3) % 3).astype(np.int16) * pw
        pw *= 3
    return np.bitwise_xor(C, _A)


def run() -> int:
    """One call of the reference computation; returns a checksum."""
    return int(short_rows().sum()) + int(bulk().sum())


def sample() -> float:
    """Seconds one call of run() takes now."""
    t0 = perf_counter()
    run()
    return perf_counter() - t0


class HostSpeed:
    """Samples the reference every ``interval`` seconds while it is active.

    The samples are taken by a SIGALRM handler, so they spread evenly over
    the run, including the inside of long operations.  ``clock()`` is
    ``perf_counter()`` less the time spent sampling, so that a timing made
    with it leaves the samples out.
    """

    def __init__(self, interval: float = 0.5):
        self.interval = interval
        self.ref_s: list[float] = []
        self.paused_s = 0.0
        self._busy = False

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:  # a signal that fell inside a sample
            return
        self._busy = True
        t0 = perf_counter()
        self.ref_s.append(sample())
        self.paused_s += perf_counter() - t0
        self._busy = False

    def clock(self) -> float:
        while True:
            paused = self.paused_s
            now = perf_counter()
            if self.paused_s == paused:  # no sample fell between the two reads
                return now - paused

    def __enter__(self) -> "HostSpeed":
        self._sample()  # so that even a run shorter than the interval has one
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Factor that takes a time of this run to the reference speed.

        The samples are evenly spaced in time, so the mean of their speeds,
        1 / sample, is the mean speed of the host over the run.
        """
        return NOMINAL_S * sum(1 / r for r in self.ref_s) / len(self.ref_s)
