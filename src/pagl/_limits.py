"""Limits and the error of a diverged fit, in a module that loads nothing
else: the CLI parser checks the limits before it loads any estimation
code, and the stub-matching generators share the chain's id limit
without loading the chain.

:mod:`pagl.buckley_osthus`, :mod:`pagl.fitting` and :mod:`pagl.theory`
re-export these names.
"""

import math
import os
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

# the largest d1 of a shape-check pair, so also of d2: tail_ratio holds
# d1 - d2 float terms, 0.16 s and 53 MiB at d1 = 10**6 (d2 = 10, a = 0.5)
MAX_SHAPE_D1 = 10**6

# the most float terms a shape check sums, d1 - d2 over its pairs: each
# takes 0.14-0.16 us on 2 cores, so this many take about 4-5 s; the
# default ranges at grid size 50 sum 2.1 * 10**7, and 100 pairs near
# d1 = 10**6 (ratio and d2 both 990-1000) sum 9.9 * 10**7 in 14 s
MAX_SHAPE_TERMS = 3 * 10**7

# the most seeds a command spawns (bootstrap iterations, multiplicity
# samples): spawning 10**5 takes 0.6 s and 36 MiB (45 MiB RSS) up front
MAX_SEEDS = 10**5

# the most worker processes: map_seeds forks all but one at once, each with
# a pipe open here, and past the cores they add no speed; never below the
# default of one per core
MAX_THREADS = max(64, os.cpu_count() or 1)
