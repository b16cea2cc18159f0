"""Times pipeline calls at a fixed host speed.

The benchmark's host is a few vCPUs of a shared machine, and its speed
moves all the time: a fixed piece of code runs up to twice as slow in
bursts of a few to a few hundred milliseconds, and the share of slow time
drifts over seconds to minutes, with nothing else running in the guest.
Wall times taken minutes apart therefore differ more than a code change
would move them.

The kernels below do the kinds of work the pipelines are made of, with
code of their own, so a change to modfield cannot move them: interpreted
Python and numpy calls on one-row arrays (the samplers, writers, solver
restarts and single-state stepping), and numpy on batch-sized and
dataset-wide arrays (the tape, Adam and wide-batch solves).  The two
kinds slow down by different amounts under the same contention, so each
pipeline is timed against the kind it is made of.  :func:`timed_call`
runs the kernel just before and just after a pipeline call and, from a
timer signal, every ``PERIOD_S`` during it.  The mean kernel time, as a
share of the kind's ``REFERENCE_S``, is the host's speed over the call;
the call's wall time, less the time the kernel ran inside it, divided by
that speed is the call's time at the reference speed.
"""

import signal
import statistics
import time

import numpy as np

# Seconds one ``kernel(kind)`` call takes on the reference host (a 2-vCPU
# Intel Xeon VM at 2.0 GHz, numpy with one OpenBLAS thread), as the median
# over a minute.  Only the scale of the reported times depends on them; no
# comparison between runs does.
REFERENCE_S = {"interpreted": 0.00060, "array": 0.00052, "mixed": 0.00112}

# kernel runs before and after each call, and the sampling period inside
PERIOD_S = 0.015
EDGE_RUNS = 3

_rng = np.random.default_rng(12345)
_W1 = _rng.standard_normal((3, 32)) * 0.5
_W2 = _rng.standard_normal((32, 32)) * 0.2
_W3 = _rng.standard_normal((32, 3)) * 0.2
_X = _rng.standard_normal((100, 3))
_WIDE = _rng.uniform(-1.0, 1.0, size=(2, 5000))


def _python():
    # dict, list, float and string work, as in the samplers and writers
    acc = {}
    out = []
    x = 0.1
    for i in range(600):
        x = (x * 1.000001 + 0.5) % 3.0
        acc[i % 17] = acc.get(i % 17, 0.0) + x
        if i % 5 == 0:
            out.append(f"{x:.17g},{i}")
    return len(out) + len(acc)


def _one_row():
    # an explicit RK4 run of the pendulum on a (2,) array, as in one-row
    # stepping and single-state solver restarts
    y = np.array([1.5, 0.0])
    h = 0.01

    def f(y):
        return np.array([-np.sin(y[1]), y[0]])

    for _ in range(18):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        np.max(np.abs(k4 - k1))
    return y


def _batch():
    # forward and backward of a small tanh MLP on a batch of 100 rows
    for _ in range(4):
        a1 = np.tanh(_X @ _W1)
        a2 = np.tanh(a1 @ _W2)
        out = a2 @ _W3
        g = out - _X
        g2 = (g @ _W3.T) * (1.0 - a2 * a2)
        g1 = (g2 @ _W2.T) * (1.0 - a1 * a1)
        _ = (a1.T @ g2, _X.T @ g1, np.sum(g * g))
    return out


def _wide():
    # two elementwise stages over 5000 rows, as in wide-batch DOPRI5
    y = _WIDE
    k1 = np.stack([-np.sin(y[1]), y[0]])
    z = y + 0.05 * k1
    k2 = np.stack([-np.sin(z[1]), z[0]])
    err = np.max(np.abs(k2 - k1), axis=0)
    return np.where(err < 10.0, y + 0.025 * (k1 + k2), y)


KINDS = {
    "interpreted": (_python, _one_row),
    "array": (_batch, _wide),
    "mixed": (_python, _one_row, _batch, _wide),
}


def kernel(kind):
    """One pass of the kind's reference load; returns its wall time."""
    t0 = time.perf_counter()
    for part in KINDS[kind]:
        part()
    return time.perf_counter() - t0


class Timing:
    """One call's wall time (kernel runs inside it taken out), its kernel
    readings, and the host's speed over it (mean reading / the kind's
    REFERENCE_S: above 1 when the host is slower than the reference)."""

    def __init__(self, wall, readings, kind):
        self.wall = wall
        self.readings = readings
        self.speed = statistics.fmean(readings) / REFERENCE_S[kind]

    @property
    def scaled(self):
        """The call's time at the reference host's speed."""
        return self.wall / self.speed


def timed_call(fn, kind="mixed", sample=True):
    """Call ``fn()`` and return its result and :class:`Timing`, with the
    host's speed read by the ``kind`` kernel.

    With ``sample`` false the kernel runs only before and after the call
    (for traced runs, whose spans must not contain kernel time).
    """
    readings = [kernel(kind) for _ in range(EDGE_RUNS)]
    stolen = 0.0

    def reading(signum, frame):
        nonlocal stolen
        t0 = time.perf_counter()
        readings.append(kernel(kind))
        stolen += time.perf_counter() - t0

    if sample:
        previous = signal.signal(signal.SIGALRM, reading)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    t0 = time.perf_counter()
    try:
        out = fn()
    finally:
        wall = time.perf_counter() - t0
        if sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    wall -= stolen
    readings += [kernel(kind) for _ in range(EDGE_RUNS)]
    return out, Timing(wall, readings, kind)
