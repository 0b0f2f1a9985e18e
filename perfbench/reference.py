"""Reference kernels that measure how fast the host runs right now.

While the program under test runs, a `Reference` times a fixed kernel in
samples spread over that time.  The kernel's mean sample time over its
nominal time is the slowdown of the host in that stretch, and a time
divided by it is the time at reference speed.  Imports only the
standard library at load time, so the worker can start sampling before
it imports numpy or glab.
"""

import signal
import time


def _interp_kernel(values: list) -> float:
    """Scalar Python: bit operations, list indexing and float arithmetic,
    like the per-step and per-subset loops of glab's interpreter-bound
    layers (factorization, walks, the spectral sweeps, the chain)."""
    total, state = 0.0, 0
    for i in range(5000):
        v = (i * 7919) & 63
        state ^= 1 << (v & 15)
        total += values[v] / (1.0 + values[state & 63])
    return total


def _dense_kernel(m: int) -> float:
    """One squaring of a dense m x m stochastic matrix and its worst-row
    TV distance, the step that dominates mixing_time_exact (there with
    m = 2048 at n = 11; half as many entries here, so that a run takes
    more samples).  The arrays are made and freed in each sample."""
    import numpy as np

    p = np.full((m, m), 1.0 / m)
    p[:, 0] += 0.5 / m
    p[:, 1] -= 0.5 / m
    q = p @ p
    return 0.5 * float(np.max(np.sum(np.abs(q - p[0][None, :]), axis=1)))


class Reference:
    """Times one kernel in samples spread over the work of its kind.

    `interp` samples run from a SIGPROF handler every INTERP_PERIOD_S of
    process CPU time, between the bytecodes of the running work.
    The `dense` kernel is mostly one long BLAS call, during which no
    handler runs, so it runs after each operation instead, until the
    samples add up to DENSE_SHARE of the operations' time."""

    INTERP_PERIOD_S = 0.01
    DENSE_SHARE = 0.2
    # kind: (kernel, its argument, nominal seconds per sample).  The
    # nominal times, about those of a quiet 2-vCPU Xeon VM with one BLAS
    # thread, only fix the unit: a kind's operations count at the speed
    # at which a sample takes its nominal time.
    KERNELS = {
        "interp": (_interp_kernel, [0.5 + j for j in range(64)], 0.001),
        "dense": (_dense_kernel, 1448, 0.15),
    }

    def __init__(self, kind: str):
        self.kind = kind
        self.kernel, self.data, self.nominal_s = self.KERNELS[kind]
        self.time, self.samples = 0.0, 0
        self._busy, self._owed = False, 0.0

    def sample(self, *_) -> float:
        if self._busy:
            return 0.0
        self._busy = True
        try:
            start = time.perf_counter()
            self.kernel(self.data)
            spent = time.perf_counter() - start
            self.time += spent
            self.samples += 1
            return spent
        finally:
            self._busy = False

    def mean_s(self) -> float:
        if not self.samples:  # the work was shorter than a period
            self.sample()
        return self.time / self.samples

    def around(self, run):
        """Return `run()`, taking samples inside or right after it."""
        start = time.perf_counter()
        if self.kind == "dense":
            value = run()
            self._owed += self.DENSE_SHARE * (time.perf_counter() - start)
            while self._owed > 0:
                self._owed -= self.sample()
            return value
        self.start()
        try:
            return run()
        finally:
            self.stop()

    def start(self) -> None:
        """Start `interp` samples every INTERP_PERIOD_S of CPU time."""
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, self.INTERP_PERIOD_S, self.INTERP_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def at_reference_speed(self, seconds: float) -> float:
        """`seconds` of this kind of work, at the speed at which a sample
        takes its nominal time."""
        return seconds * self.nominal_s / self.mean_s()
