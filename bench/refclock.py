"""Reference clock: operation times scaled by a fixed reference kernel.

The 2-vCPU host the benchmark was tuned on runs the same code 1.5-2.3x
slower at some times than at others, in stretches from a tenth of a
second to minutes: a 4-minute trace of a 2 ms library call had a median
of 2.1x its minimum, and 25-second windows whose means ranged from 1.6x
to 2.2x.  Wall times taken minutes apart are therefore not comparable.

``call`` runs the reference kernel, a fixed mix of small numpy products
and Python float arithmetic that owes nothing to the library, a few
times just before and just after an operation and, from a SIGALRM timer,
every SAMPLE_INTERVAL_S during it.  The operation's wall time, less the time
spent in those samples, is reported as

    wall * REFERENCE_S / (mean kernel time),

that is, in seconds at the speed at which the kernel takes REFERENCE_S.
Over 150 s of repeated library calls, the quartile spread of single
calls was 0.45-0.63 of the median in wall time, 0.12-0.22 when scaled by
the kernel around the call only, and 0.07-0.11 with samples inside it.
"""

import math
import signal
import statistics
import time

import numpy as np

SAMPLE_ITERATIONS = 150
SAMPLE_INTERVAL_S = 0.01
BOUNDARY_SAMPLES = 3  # kernel runs just before and just after a call
# The kernel's time on an uncontended core of the tuning host (2.0 GHz).
REFERENCE_S = 0.0004

_M = np.array([[2.0, 0.5], [0.5, 1.0]])
_X = np.array([0.3, -0.7])


def reference_kernel():
    acc = 0.0
    for i in range(SAMPLE_ITERATIONS):
        y = _X * (1.0 + i * 1e-4)
        acc += float(y @ _M @ y)
        acc += math.atan(acc * 1e-9)
    return acc


def sample():
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def scaled(wall, kernel_s):
    """Wall seconds converted to reference seconds."""
    return wall * REFERENCE_S / kernel_s


def call(fn, inside=True):
    """Run ``fn()``; return (result, error, wall seconds, reference seconds).

    An exception from ``fn`` is returned as ``error``, not raised.  With
    ``inside`` false the kernel runs only before and after the call, so
    nothing interrupts it.
    """
    samples = [sample() for _ in range(BOUNDARY_SAMPLES)]
    during = []

    def on_alarm(_signum, _frame):
        during.append(sample())

    previous = signal.signal(signal.SIGALRM, on_alarm) if inside else None
    result = error = None
    t0 = time.perf_counter()
    if inside:
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    try:
        result = fn()
    except Exception as err:  # an operation's failure is a result to check
        error = err
    finally:
        if inside:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        wall = time.perf_counter() - t0
        if inside:
            signal.signal(signal.SIGALRM, previous)
    wall -= sum(during)
    samples += during
    samples += [sample() for _ in range(BOUNDARY_SAMPLES)]
    return result, error, wall, scaled(wall, statistics.fmean(samples))
