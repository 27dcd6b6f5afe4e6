"""Host-speed probe: rescales measured times to a reference host speed.

On a shared 2-vCPU host the same fixed work takes 0.65-1.2x its usual
time from one few-second stretch to the next, and the level drifts by a
quarter between sets of runs half an hour apart; CPU time follows wall
time, so the core itself runs slower.  A probe runs a fixed kernel from a
SIGALRM handler every PERIOD_S seconds in the measured thread, so it
samples the host's speed in the same stretches as the work.  A window of
elapsed time `e` whose `n` kernel samples took `p` seconds in all holds
`e - p` seconds of program work, which at the reference speed takes

    adjusted = (e - p) * ref_s * n / p

where ref_s is the kernel's usual time on the reference machine (2 vCPU
Xeon VM); it only makes adjusted times read as seconds.

The kernel should slow down as the measured work does.  The `numpy`
kernel (2x2 SVDs and products, as the classifier runs them) follows the
program's numpy-bound work; the `python` kernel (interpreter work only)
follows imports, and lets a fresh interpreter start the probe before it
imports numpy.
"""
from __future__ import annotations

import signal
import time
from array import array

PERIOD_S = 0.02


def python_kernel():
    """Arithmetic, float maths, list and dict traffic; about 0.6 ms."""
    def work(n: int = 1200) -> float:
        acc, seen, row = 0.0, {}, []
        for i in range(n):
            x = (i * 7919) % 1009
            acc += (x * 0.5 + 1.0) ** 0.5
            seen[x & 127] = acc
            row.append(x)
            if len(row) > 32:
                row.pop(0)
        return acc + sum(row) + len(seen)
    return work


def numpy_kernel():
    """Small complex SVDs, determinants and products; about 0.3 ms."""
    import numpy as np

    mats = [np.array([[1.0 + k, 0.5j * k], [0.25 - k, 2.0 - 1j]])
            for k in range(14)]

    def work() -> float:
        acc = 0.0
        for M in mats:
            acc += float(np.linalg.svd(M, compute_uv=False)[0])
            acc += abs(np.linalg.det(M @ M.conj().T))
        return acc
    return work


# kind -> (kernel factory, reference seconds per kernel call)
KERNELS = {"python": (python_kernel, 0.0006), "numpy": (numpy_kernel, 0.0003)}


class Probe:
    """Samples of the kernel's time while started."""

    def __init__(self, kind: str) -> None:
        make, self.ref_s = KERNELS[kind]
        self.kernel = make()
        self.starts = array("d")  # of each sample, on the perf_counter clock
        self.times = array("d")
        self._old = None

    def _on_alarm(self, _signum, _frame) -> None:
        t = time.perf_counter()
        self.kernel()
        self.starts.append(t)
        self.times.append(time.perf_counter() - t)

    def start(self) -> "Probe":
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def split(self, elapsed: float, since: int = 0) -> tuple[float, float]:
        """(program seconds, adjusted seconds) of `elapsed` seconds spent
        between a start and the next stop, whose samples begin at index
        `since`."""
        times = self.times[since:]
        if not times:
            raise RuntimeError(f"no probe sample in {elapsed:.3f} s")
        spent = sum(times)
        work = elapsed - spent
        return work, work * self.ref_s * len(times) / spent
