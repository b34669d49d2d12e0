"""Synthetic traffic scenarios and graph-based accident anticipation."""

import os
import sys

__version__ = "0.1.0"

# BLAS threads reorder floating-point sums, so a multi-threaded BLAS would
# make artifacts depend on the machine's core count; --jobs is the
# parallelism. BLAS reads these variables once, when numpy loads, so a value
# the user set is overridden and the pin holds only when crashcast is
# imported before numpy (as the command line always is). BLAS_THREADS is the
# pinned count, or None when numpy was loaded first and runs at its own.
BLAS_THREADS = None if "numpy" in sys.modules else 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
del _var
