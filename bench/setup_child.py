"""Set-up time of a fresh interpreter, as every CLI call pays it.

Usage: PYTHONPATH=src python3 bench/setup_child.py CONFIG...

Times ``import maxminlyap.cli`` and then ``parse_config`` plus
``SwitchedSystem.from_config`` for each config, and prints one JSON line
with the times and the path the package was imported from.

Times are in reference seconds, like the rest of the benchmark, but on a
clock of their own: the numpy kernel of ``refclock.py`` cannot run
before the import without importing numpy early, and on the 2-vCPU
tuning host (see ``refclock.py``) its speed swung 2x between phases in
which import time swung only 1.3x.  Set-up is mostly compiling and
executing module code, so its clock is a pure-Python kernel that
compiles and executes a fixed module.  It runs a few times just before
and just after the timed set-up and, from a SIGALRM timer, every
SAMPLE_INTERVAL_S during it; the time of the samples taken during set-up
is subtracted.  Over 24 fresh interpreters whose raw set-up time had a
quartile spread of 0.41 of the median, the time scaled by the kernel
before and after had 0.075; over 30 more, the median of 9 consecutive
set-ups stayed within 0.29-0.31 when scaled that way and within
0.257-0.272 with the samples during set-up added.
"""

import json
import signal
import statistics
import sys
import time

KERNEL_SAMPLES = 5  # kernel runs before and after the set-up
SAMPLE_INTERVAL_S = 0.03
# The kernel's time on an uncontended core of the tuning host.
KERNEL_REFERENCE_S = 0.003
_KERNEL_SOURCE = "\n".join(
    f"def f{i}(a, b=1, *c, **d):\n"
    f"    x = [a + j * b for j in range({i % 7 + 2})]\n"
    f"    return {{'k{i}': x, 's': str(a) + 'z{i}'}}\n"
    for i in range(60)
)


def kernel_sample():
    """Wall time of one compile and execution of the fixed module."""
    t0 = time.perf_counter()
    namespace = {}
    exec(compile(_KERNEL_SOURCE, "<kernel>", "exec"), namespace)
    for i in range(60):
        namespace[f"f{i}"](i)
    return time.perf_counter() - t0


def main(paths):
    kernel = [kernel_sample() for _ in range(KERNEL_SAMPLES)]
    during = []
    signal.signal(signal.SIGALRM, lambda _signum, _frame: during.append(kernel_sample()))
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    t0 = time.perf_counter()
    import maxminlyap.cli  # noqa: F401  (the import is what is timed)

    t1 = time.perf_counter()
    import_sampled = sum(during)
    from maxminlyap.inclusion import SwitchedSystem
    from maxminlyap.sysdsl.config import parse_config

    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            SwitchedSystem.from_config(parse_config(fh.read()).require_system())
    signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
    t2 = time.perf_counter()
    setup_sampled = sum(during)
    kernel += during + [kernel_sample() for _ in range(KERNEL_SAMPLES)]
    scale = KERNEL_REFERENCE_S / statistics.median(kernel)
    print(
        json.dumps(
            {
                "import_s": scale * (t1 - t0 - import_sampled),
                "setup_s": scale * (t2 - t0 - setup_sampled),
                "wall_setup_s": t2 - t0,
                "package": maxminlyap.__file__,
            }
        )
    )


if __name__ == "__main__":
    main(sys.argv[1:])
