"""One float sum for every interpreter: left to right.

CPython 3.12's builtin ``sum`` adds floats with compensated summation;
through 3.11 it added them one after another.  The two round apart, so
a run whose outputs are sums of floats would give other bytes on 3.12.
Every sum in ``repro`` goes through :func:`lsum` instead.  Through 3.11
that is the builtin itself: the power meter re-sums its channels
thousands of times per run, and the builtin adds 64 floats in about a
fifth of the time ``functools.reduce`` takes.
"""

import sys
from functools import reduce
from operator import add

if sys.version_info < (3, 12):
    lsum = sum
else:

    def lsum(values):
        """``values`` added left to right from int 0, as ``sum`` did to 3.11."""
        return reduce(add, values, 0)
