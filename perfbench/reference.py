"""A short fixed task whose time tells how fast the machine is running.

The speed of the 2-vCPU sandbox this benchmark was built on drifts by 20%
and more, within seconds and over minutes, and every rhpwn call drifts with
it.  The worker times this task before the first call and after every call,
and run.py scales each call time by REFERENCE_S over the task times measured
around it.  The task does exact rational, dict and float work and shares no
code with the package.
"""

import gc
import math
import time
from fractions import Fraction


def reference_s() -> float:
    """Time of the task's second run, with the garbage collector off.

    Timing the second run leaves out what the previous work left in the
    caches; with the collector off, no collection of the package's objects
    lands in it.
    """
    gc.disable()
    try:
        for _ in range(2):
            start = time.perf_counter()
            acc, table, x = Fraction(0), {}, 0.0
            for i in range(1, 80):
                acc += Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 3)
                table[(i, i % 7)] = acc
            for i in range(4000):
                x += math.sin(i) * 1.0001
            elapsed = time.perf_counter() - start
        return elapsed
    finally:
        gc.enable()
