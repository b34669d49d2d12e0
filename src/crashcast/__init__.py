"""Synthetic traffic scenarios and graph-based accident anticipation."""

import ctypes
import os
import sys

__version__ = "0.1.0"


def _pin_loaded_blas():
    """Set the OpenBLAS bundled with an already-loaded numpy to one thread
    through the library's own setter. Returns 1 when its getter then reads
    1, None when no such library is loaded or it has no setter."""
    import glob  # only a caller that loaded numpy first gets here

    site = os.path.dirname(os.path.dirname(sys.modules["numpy"].__file__))
    pattern = os.path.join(site, "numpy.libs", "libscipy_openblas*.so")
    for path in sorted(glob.glob(pattern)):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            lib.scipy_openblas_set_num_threads64_(1)
            if lib.scipy_openblas_get_num_threads64_() == 1:
                return 1
        except (OSError, AttributeError):  # not loaded, or no such setter
            continue
    return None


# BLAS threads reorder floating-point sums, so a multi-threaded BLAS would
# make artifacts depend on the machine's core count; --jobs is the
# parallelism. BLAS reads these variables once, when numpy loads, so a value
# the user set is overridden. When numpy is already loaded (a library caller
# that imported it first), its bundled OpenBLAS is pinned through its setter
# instead. BLAS_THREADS is the pinned count, or None when numpy was loaded
# first with a BLAS that has no such setter and runs at its own count.
BLAS_THREADS = _pin_loaded_blas() if "numpy" in sys.modules else 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
del _var

# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_blocks(libc) -> None:
    """Keep freed numpy temporaries in the heap instead of handing them back
    to the OS, so the forward of eval's next chunk or train's next step
    reuses mapped pages rather than faulting them in again. Blocks up to
    32 MiB (glibc's largest mmap threshold) come from the heap, and the
    heap's free top is trimmed only above 128 MiB, several times what a
    forward holds at once: about 16 MiB of temporaries for an 8-video eval
    chunk at the default shape with every object slot used, and a train
    step's tape. Both are set: setting either one turns off glibc's dynamic
    mmap threshold, and the trim threshold alone left eval faulting more
    than before. A C library without mallopt keeps its own policy."""
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 128 << 20)


try:
    _keep_freed_blocks(ctypes.CDLL(None))
except (OSError, TypeError):  # no handle to the process's own C library
    pass
