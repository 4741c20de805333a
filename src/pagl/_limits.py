"""Limits and the error of a diverged fit, in a module that loads nothing
else: the CLI parser checks the limits before it loads any estimation
code, and the stub-matching generators share the chain's id limit
without loading the chain.

:mod:`pagl.buckley_osthus`, :mod:`pagl.fitting` and :mod:`pagl.theory`
re-export these names.
"""

import math
import sys


# ids and degree counters are 32-bit; the chain length m*n must fit
MAX_CHAIN = 2**31 - 1


class DivergenceError(RuntimeError):
    """Raised when a required fit (or every bootstrap refit) diverges."""


# the shortest fit window tried, and the longest whose span 10**window is a float
_MIN_WINDOW = 1.2
_MAX_WINDOW = math.log10(sys.float_info.max)

# the largest pair set edge_model_shape_check takes: one tail_ratio costs
# about 2 ms at the default ranges (1.3-1.6 ms each over the 2250 pairs of
# grid size 50), so this many take about 4-5 s
MAX_SHAPE_PAIRS = 2500
