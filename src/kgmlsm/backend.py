"""Kernel backend selection.

Hot inner loops ship in two flavors: a numba @njit build and the plain
Python/numpy function it was compiled from. The env var KGMLSM_NUMBA picks
the path:

    KGMLSM_NUMBA=1      force numba (error if numba missing)
    KGMLSM_NUMBA=0      force the pure-numpy fallback
    unset / "auto"      numba if importable, fallback otherwise

Both paths execute the identical statement sequence, so results agree
bit-for-bit; ``tests/test_kernels.py`` checks that when numba is present.
"""

import os

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only on stripped installs
    njit = None
    HAVE_NUMBA = False


def numba_requested() -> bool:
    flag = os.environ.get("KGMLSM_NUMBA", "auto").strip().lower()
    if flag in ("1", "true", "yes", "on"):
        if not HAVE_NUMBA:
            raise ImportError("KGMLSM_NUMBA=1 but numba is not installed")
        return True
    if flag in ("0", "false", "no", "off"):
        return False
    return HAVE_NUMBA


USE_NUMBA = numba_requested()
